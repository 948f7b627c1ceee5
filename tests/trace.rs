//! Structured-tracing suite: the observability layer must be strictly
//! pay-for-play (tracing off is bit-identical to the pre-tracing goldens),
//! observation-only (tracing on does not change a run's metrics), and
//! deterministic (two runs of one spec export the same Chrome bytes).

use saguaro::sim::{
    ExperimentSpec, ProtocolKind, RunMetrics, Scenario, TraceActor, TraceEventKind, WorkloadKind,
};
use saguaro::types::{DomainId, TraceConfig, TxId, TxKind};
use saguaro::workload::{MicropaymentWorkload, WorkloadConfig};
use std::collections::HashMap;

/// The reference spec the golden metrics below were captured with (the same
/// spec `tests/determinism.rs` pins).
fn golden_spec(protocol: ProtocolKind) -> ExperimentSpec {
    ExperimentSpec::new(protocol)
        .quick()
        .cross_domain(0.3)
        .load(600.0)
}

/// `RunMetrics` of [`golden_spec`] captured before the tracing subsystem
/// existed (identical to the pre-batching goldens in
/// `tests/determinism.rs`).
fn golden_metrics(protocol: ProtocolKind) -> RunMetrics {
    let (throughput_tps, avg, p50, p95, p99, committed) = match protocol {
        ProtocolKind::SaguaroCoordinator => (590.0, 8.03422598870057, 1.052, 37.18, 46.219, 177),
        ProtocolKind::SaguaroOptimistic => (620.0, 1.0484623655913978, 1.048, 1.058, 1.061, 186),
        ProtocolKind::Ahl => (
            553.3333333333334,
            5.943861445783132,
            1.05,
            29.047,
            36.833,
            166,
        ),
        ProtocolKind::Sharper => (570.0, 5.116730994152048, 1.05, 26.595, 27.129, 171),
    };
    RunMetrics {
        offered_tps: 600.0,
        throughput_tps,
        avg_latency_ms: avg,
        p50_latency_ms: p50,
        p95_latency_ms: p95,
        p99_latency_ms: p99,
        committed,
        aborted: 0,
    }
}

#[test]
fn tracing_off_is_bit_identical_to_the_pre_tracing_goldens() {
    for protocol in ProtocolKind::ALL {
        // An explicit `off` config must reproduce the goldens captured
        // before the subsystem existed.
        let explicit_off = golden_spec(protocol).trace(TraceConfig::off()).run();
        assert_eq!(
            explicit_off,
            golden_metrics(protocol),
            "{protocol:?}: explicit TraceConfig::off() diverged from the goldens"
        );
    }
}

#[test]
fn tracing_on_is_observation_only() {
    // Recording events must not perturb the simulation: metrics with
    // tracing on equal metrics with tracing off.
    for protocol in ProtocolKind::ALL {
        let untraced = golden_spec(protocol).run();
        let traced = golden_spec(protocol).trace(TraceConfig::on()).run();
        assert_eq!(
            traced, untraced,
            "{protocol:?}: tracing changed the run's metrics"
        );
    }
}

#[test]
fn chrome_export_is_byte_identical_across_runs() {
    let spec = golden_spec(ProtocolKind::SaguaroCoordinator).trace(TraceConfig::on());
    let export = || {
        let trace = spec.run_collecting().trace.expect("tracing was enabled");
        assert!(!trace.is_empty(), "traced run recorded nothing");
        trace.chrome_json()
    };
    assert_eq!(export(), export(), "traced run is not reproducible");
}

#[test]
fn view_change_storm_trace_contains_the_suspicion_chain_in_order() {
    // The storm crashes the view-0 primary: replicas must first record the
    // scripted fault, then suspicion firings, then view-change votes, then
    // the new view's installation — in that virtual-time order.
    let spec = Scenario::ViewChangeStorm.apply(
        ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .byzantine()
            .quick()
            .load(800.0),
    );
    let artifacts = spec.trace(TraceConfig::on()).run_collecting();
    let trace = artifacts.trace.expect("tracing was enabled");

    let first = |pred: &dyn Fn(&TraceEventKind) -> bool, what: &str| -> usize {
        trace
            .events
            .iter()
            .position(|e| pred(&e.kind))
            .unwrap_or_else(|| panic!("storm trace has no {what} event"))
    };
    let crash = first(
        &|k| matches!(k, TraceEventKind::Fault { label } if label.contains("Crash")),
        "scripted-crash fault",
    );
    let suspicion = first(
        &|k| matches!(k, TraceEventKind::SuspicionFired { .. }),
        "suspicion",
    );
    let start = first(
        &|k| matches!(k, TraceEventKind::ViewChangeStart { .. }),
        "view-change start",
    );
    let complete = first(
        &|k| matches!(k, TraceEventKind::ViewChangeComplete { .. }),
        "view-change complete",
    );
    assert!(
        crash < suspicion && suspicion < start && start < complete,
        "suspicion chain out of order: crash@{crash}, suspicion@{suspicion}, \
         start@{start}, complete@{complete}"
    );
    // The merged order is the canonical (time, actor, seq) order.
    let mut sorted = trace.events.clone();
    sorted.sort_by_key(|e| (e.time, e.actor, e.seq));
    assert_eq!(sorted, trace.events, "merged trace is not in sort order");
    // The timeline rode along and saw the storm's view changes.
    let timeline = artifacts.timeline.expect("tracing builds the timeline");
    assert!(
        timeline.view_changes() > 0,
        "timeline shows no view changes during the storm"
    );
}

#[test]
fn tx_spans_are_complete_chains() {
    let artifacts = golden_spec(ProtocolKind::SaguaroCoordinator)
        .trace(TraceConfig::on())
        .run_collecting();
    let trace = artifacts.trace.expect("tracing was enabled");
    let completed: Vec<_> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::TxCompleted { .. }))
        .collect();
    assert!(!completed.is_empty(), "no sampled transaction completed");
    for done in completed {
        let tx = done.kind.span_tx().expect("completion carries a tx id");
        let submitted = trace
            .events
            .iter()
            .position(|e| matches!(e.kind, TraceEventKind::TxSubmitted { tx: t } if t == tx))
            .unwrap_or_else(|| panic!("{tx:?} completed without a submission event"));
        let done_at = trace
            .events
            .iter()
            .position(|e| std::ptr::eq(e, done))
            .expect("event is in the trace");
        assert!(
            submitted < done_at,
            "{tx:?}: completion precedes submission in the merged order"
        );
    }
}

#[test]
fn ring_buffers_bound_memory_and_count_drops() {
    // A deliberately tiny per-actor capacity: the run must stay bounded
    // (each actor retains at most `capacity` events) and account for
    // everything it threw away.
    let capacity = 4u32;
    let artifacts = golden_spec(ProtocolKind::SaguaroCoordinator)
        .trace(TraceConfig::on().with_buffer_capacity(capacity))
        .run_collecting();
    let trace = artifacts.trace.expect("tracing was enabled");
    assert!(
        trace.dropped > 0,
        "a 4-event ring buffer should have overflowed"
    );
    let actors: std::collections::BTreeSet<TraceActor> =
        trace.events.iter().map(|e| e.actor).collect();
    let ceiling = actors.len() as u64 * capacity as u64;
    assert!(
        trace.len() as u64 <= ceiling,
        "{} retained events exceed {} actors x capacity {}",
        trace.len(),
        actors.len(),
        capacity
    );
}

/// Every commit kind traces its execution: each height-1 replica records
/// one `TxExecuted` per ledger append of a sampled transaction — internal,
/// cross-domain and mobile commits alike.
#[test]
fn every_height_one_ledger_append_traces_its_execution() {
    let tracing = TraceConfig::on().with_buffer_capacity(1 << 16);
    let spec = golden_spec(ProtocolKind::SaguaroCoordinator)
        .mobile(0.3)
        .trace(tracing);
    let artifacts = spec.run_collecting();
    let trace = artifacts.trace.as_ref().expect("tracing was enabled");
    assert_eq!(trace.dropped, 0, "the buffers hold the whole run");

    // The run's transactions by kind, regenerated from the spec's workload
    // in the order the clients' schedules drew them.
    let WorkloadKind::Micropayment(config) = &spec.workload else {
        panic!("the golden spec runs micropayments");
    };
    let config = WorkloadConfig {
        edge_domains: (0..4).map(|i| DomainId::new(1, i)).collect(),
        ..config.clone()
    };
    let mut generator = MicropaymentWorkload::new(config, spec.num_clients, spec.seed);
    let mut kind_of: HashMap<TxId, TxKind> = HashMap::new();
    for (client, ids) in &artifacts.schedules {
        for id in ids {
            let (tx, _) = generator.next_for_client(client.0 as usize);
            assert_eq!(tx.id, *id, "regenerated out of step with the run");
            kind_of.insert(tx.id, tx.kind.clone());
        }
    }

    let (mut cross, mut mobile) = (0, 0);
    let height_one = artifacts
        .harvest
        .nodes
        .iter()
        .filter(|n| n.node.domain.height == 1);
    for node in height_one {
        assert_eq!(
            node.total_entries,
            node.entries.len() as u64,
            "nothing pruned"
        );
        let mut appended: Vec<TxId> = node
            .entries
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| tracing.samples(id.0))
            .collect();
        let mut executed: Vec<TxId> = trace
            .events
            .iter()
            .filter(|e| e.actor == TraceActor::Node(node.node))
            .filter_map(|e| match e.kind {
                TraceEventKind::TxExecuted { tx } => Some(tx),
                _ => None,
            })
            .collect();
        appended.sort_unstable();
        executed.sort_unstable();
        assert_eq!(executed, appended, "{:?}", node.node);
        for id in &appended {
            match kind_of[id] {
                TxKind::CrossDomain { .. } => cross += 1,
                TxKind::Mobile { .. } => mobile += 1,
                TxKind::Internal { .. } => {}
            }
        }
    }
    assert!(
        cross > 0 && mobile > 0,
        "the run commits both kinds: {cross} cross-domain, {mobile} mobile appends"
    );
}

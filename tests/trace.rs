//! Structured-tracing suite: the observability layer must be strictly
//! pay-for-play (tracing off reproduces every golden),
//! observation-only (tracing on does not change a run's metrics), and
//! deterministic (two runs of one spec export the same Chrome bytes).

mod common {
    pub mod golden;
}

use common::golden::{golden_spec, Case};
use saguaro::sim::{
    ExperimentSpec, ProtocolKind, Scenario, TraceActor, TraceEventKind, WorkloadKind,
};
use saguaro::types::{DomainId, TraceConfig, TxId, TxKind};
use saguaro::workload::{MicropaymentWorkload, WorkloadConfig};
use std::collections::HashMap;

#[test]
fn tracing_off_is_bit_identical_to_the_pre_tracing_goldens() {
    for case in Case::all() {
        // An explicit `off` config must reproduce every golden.
        let explicit_off = case.spec().trace(TraceConfig::off()).run();
        assert_eq!(
            explicit_off,
            case.golden(),
            "{case:?}: explicit TraceConfig::off() diverged from the goldens"
        );
    }
}

#[test]
fn tracing_on_is_observation_only() {
    // Recording events must not perturb the simulation: metrics with
    // tracing on equal metrics with tracing off.
    for protocol in ProtocolKind::ALL {
        let untraced = golden_spec(protocol, 42).run();
        let traced = golden_spec(protocol, 42).trace(TraceConfig::on()).run();
        assert_eq!(
            traced, untraced,
            "{protocol:?}: tracing changed the run's metrics"
        );
    }
}

#[test]
fn chrome_export_is_byte_identical_across_runs() {
    let spec = golden_spec(ProtocolKind::SaguaroCoordinator, 42).trace(TraceConfig::on());
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
    let artifacts = golden_spec(ProtocolKind::SaguaroCoordinator, 42)
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
    let artifacts = golden_spec(ProtocolKind::SaguaroCoordinator, 42)
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
    let spec = golden_spec(ProtocolKind::SaguaroCoordinator, 42)
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

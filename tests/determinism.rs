//! Determinism: the whole pipeline — workload generation, network jitter,
//! CPU service times, protocol execution — draws randomness only from the
//! spec's seed, so the same `ExperimentSpec` must produce bit-identical
//! `RunMetrics` on every run, for every protocol stack and workload.

mod common {
    pub mod golden;
}

use common::golden::{golden_spec, Case};
use saguaro::net::FaultSchedule;
use saguaro::sim::{ExperimentSpec, ProtocolKind, RidesharingConfig, RunMetrics};
use saguaro::types::{ClientModel, PopulationConfig, SimTime};

#[test]
fn unbatched_pipeline_reproduces_the_pre_batching_goldens_exactly() {
    for protocol in ProtocolKind::ALL {
        let case = Case::Plain(protocol, 42);
        let default_run = case.spec().run();
        assert_eq!(
            default_run,
            case.golden(),
            "{protocol:?} with the default (unbatched) config diverged from \
             its golden"
        );
        // An explicit max_batch = 1 must be the same configuration, not just
        // a similar one.
        let explicit = case.spec().tune(|t| t.batch_size(1)).run();
        assert_eq!(
            explicit, default_run,
            "{protocol:?}: explicit batched(1) differs from the default"
        );
    }
}

#[test]
fn batched_runs_are_deterministic_and_differ_from_unbatched() {
    for protocol in ProtocolKind::ALL {
        let spec = golden_spec(protocol, 42).tune(|t| t.batch_size(8));
        let first = spec.run();
        assert!(first.committed > 0, "{protocol:?} committed nothing");
        assert_eq!(
            first,
            spec.run(),
            "{protocol:?} batched run not deterministic"
        );
        assert_ne!(
            first,
            Case::Plain(protocol, 42).golden(),
            "{protocol:?}: max_batch = 8 should change the event schedule"
        );
    }
}

#[test]
fn same_spec_and_seed_reproduce_identical_metrics_for_all_stacks() {
    for protocol in ProtocolKind::ALL {
        let spec = golden_spec(protocol, 42);
        let first = spec.run();
        let second = spec.run();
        assert!(first.committed > 0, "{protocol:?} committed nothing");
        assert_eq!(first, second, "{protocol:?} run is not deterministic");
    }
}

#[test]
fn different_seeds_actually_change_the_run() {
    let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .quick()
        .load(600.0);
    let mut reseeded = spec.clone();
    reseeded.seed = 43;
    // Jitter and workload sampling differ, so latencies must differ (equality
    // here would mean the seed is ignored somewhere).
    assert_ne!(spec.run(), reseeded.run());
}

#[test]
fn empty_fault_plan_is_bit_identical_to_the_failure_free_pipeline() {
    // Installing an explicitly empty schedule must not change a single bit
    // of any stack's metrics: no liveness timers are armed, no client-target
    // spreading happens, and the simulator's hot path takes the same
    // branches.  Equality with every golden proves the whole subsystem is
    // pay-for-play.
    for case in Case::all() {
        let scripted = case.spec().fault_plan(FaultSchedule::none()).run();
        assert_eq!(
            scripted,
            case.golden(),
            "{case:?}: an empty FaultSchedule changed the run"
        );
    }
}

#[test]
fn same_seed_and_fault_plan_reproduce_identical_metrics() {
    // Fault-injection runs are as deterministic as failure-free ones: the
    // schedule is part of the spec, so seed + plan fixes the whole history.
    for protocol in ProtocolKind::ALL {
        let plan = || {
            FaultSchedule::none()
                .crash_at(
                    SimTime::from_millis(150),
                    saguaro::types::NodeId::new(saguaro::types::DomainId::new(1, 0), 0),
                )
                .recover_at(
                    SimTime::from_millis(300),
                    saguaro::types::NodeId::new(saguaro::types::DomainId::new(1, 0), 0),
                )
        };
        let spec = golden_spec(protocol, 42).fault_plan(plan());
        let first = spec.run();
        assert!(first.committed > 0, "{protocol:?} committed nothing");
        assert_eq!(
            first,
            golden_spec(protocol, 42).fault_plan(plan()).run(),
            "{protocol:?}: faulty run not reproducible"
        );
        assert_ne!(
            first,
            Case::Plain(protocol, 42).golden(),
            "{protocol:?}: the crash schedule should change the run"
        );
    }
}

#[test]
fn checkpointed_runs_are_deterministic_and_differ_from_the_default_interval() {
    for protocol in ProtocolKind::ALL {
        let spec = golden_spec(protocol, 42).tune(|t| t.checkpoint_every(8));
        let first = spec.run();
        assert!(first.committed > 0, "{protocol:?} committed nothing");
        assert_eq!(
            first,
            spec.run(),
            "{protocol:?}: checkpointed run not deterministic"
        );
        assert_ne!(
            first,
            golden_spec(protocol, 42).run(),
            "{protocol:?}: announcing every 8 deliveries should change the event schedule"
        );
    }
}

#[test]
fn explicit_per_actor_client_model_stays_pinned_to_the_goldens() {
    // The aggregate-population client model must be strictly pay-for-play:
    // the default spec and an explicitly `PerActor` one are the same
    // configuration, and both still reproduce the goldens.
    for protocol in ProtocolKind::ALL {
        let case = Case::Plain(protocol, 42);
        let mut spec = case.spec();
        assert_eq!(spec.client_model, ClientModel::PerActor);
        spec.client_model = ClientModel::PerActor;
        assert_eq!(
            spec.run(),
            case.golden(),
            "{protocol:?}: explicit PerActor diverged from the goldens"
        );
    }
}

/// Seed-7 goldens of the aggregate client model: `(avg, p50, p95/p99)`
/// latency in ms, then events processed.  Every stack commits 163 in-window
/// transactions at 543.3 tx/s; the tally submits and completes 335, samples
/// 163 and peaks at 4 in flight.
fn aggregate_golden(protocol: ProtocolKind) -> (RunMetrics, u64) {
    let (avg, p50, tail, events) = match protocol {
        ProtocolKind::SaguaroCoordinator => (1.0478098159509202, 1.04, 1.065, 3871),
        ProtocolKind::SaguaroOptimistic => (1.0474601226993867, 1.04, 1.064, 5158),
        ProtocolKind::Ahl => (1.0466564417177915, 1.04, 1.065, 3019),
        ProtocolKind::Sharper => (1.0466564417177915, 1.04, 1.065, 3019),
    };
    let metrics = RunMetrics {
        offered_tps: 500.0,
        throughput_tps: 543.3333333333334,
        avg_latency_ms: avg,
        p50_latency_ms: p50,
        p95_latency_ms: tail,
        p99_latency_ms: tail,
        committed: 163,
        aborted: 0,
    };
    (metrics, events)
}

#[test]
fn aggregate_population_runs_reproduce_bit_identically_per_seed() {
    for protocol in ProtocolKind::ALL {
        for seed in [7, 9001] {
            let mut spec = ExperimentSpec::new(protocol)
                .quick()
                .aggregate(PopulationConfig::with_users(1_000).per_user(0.5));
            spec.seed = seed;
            let first = spec.run_collecting();
            assert!(
                first.metrics.committed > 0,
                "{protocol:?} seed {seed} committed nothing"
            );
            assert_eq!(
                first.metrics,
                spec.run(),
                "{protocol:?} seed {seed}: aggregate run not deterministic"
            );
            if seed == 7 {
                let tally = first.population.expect("aggregate runs keep a tally");
                assert_eq!(
                    (first.metrics, first.events_processed),
                    aggregate_golden(protocol),
                    "{protocol:?}: the aggregate run diverged from its seed-7 golden"
                );
                assert_eq!(
                    (tally.submitted, tally.completed, tally.sampled()),
                    (335, 335, 163),
                    "{protocol:?}: tally counters"
                );
                assert_eq!(tally.peak_inflight, 4, "{protocol:?}: peak in flight");
            }
        }
    }
}

#[test]
fn ridesharing_runs_are_deterministic_too() {
    let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .ridesharing(RidesharingConfig::default())
        .quick()
        .load(500.0);
    assert_eq!(spec.run(), spec.run());
}

/// One `u64` over everything intra-domain consensus decides in a run: the
/// summary metrics and, per replica, its frontier, checkpoint, view changes,
/// conflicts, vote size, retained chain, snapshot and state-transfer
/// counters, delivery-hash chain and ledger entries.
fn harvest_digest(spec: &ExperimentSpec) -> u64 {
    use saguaro::types::hash::FxHasher;
    use std::hash::{Hash, Hasher};

    let run = spec.run_collecting();
    let mut h = FxHasher::default();
    let m = &run.metrics;
    for f in [
        m.offered_tps,
        m.throughput_tps,
        m.avg_latency_ms,
        m.p50_latency_ms,
        m.p95_latency_ms,
        m.p99_latency_ms,
    ] {
        f.to_bits().hash(&mut h);
    }
    (m.committed, m.aborted).hash(&mut h);
    for n in &run.harvest.nodes {
        n.node.hash(&mut h);
        (n.last_delivered, n.stable_checkpoint, n.view_changes).hash(&mut h);
        (n.certificate_conflicts, n.vote_entries).hash(&mut h);
        (n.chain_len, n.chain_start).hash(&mut h);
        (n.snapshots_taken, n.snapshots_installed).hash(&mut h);
        (n.state_transfer_commands, n.state_transfer_bytes).hash(&mut h);
        n.caught_up_at.hash(&mut h);
        let log = &n.consensus_log;
        log.len().hash(&mut h);
        (0..log.len())
            .filter_map(|i| log.get(i))
            .for_each(|s| s.hash(&mut h));
        n.total_entries.hash(&mut h);
        for (tx, status) in &n.entries {
            (tx, *status as u8).hash(&mut h);
        }
    }
    h.finish()
}

/// Replica-level consensus behaviour, pinned as one digest per faulty run:
/// the goldens cover only fault-free runs' `RunMetrics`, so this is what
/// pins a Paxos and a PBFT view change, recovery, equivocation, snapshot
/// catch-up and a baseline's shard-leader crash.  The specs are
/// `fault_injection.rs`'s `crash_spec` and equivocation run and
/// `pruning.rs`'s `outage_spec`.
#[test]
fn faulty_runs_reproduce_their_harvest_digests() {
    use saguaro::types::{DomainId, NodeId};
    use saguaro_sim::scenarios::fault_victim;

    let crash_spec = |protocol, byzantine: bool| {
        let plan = FaultSchedule::none()
            .crash_at(SimTime::from_millis(150), fault_victim())
            .recover_at(SimTime::from_millis(320), fault_victim());
        let spec = ExperimentSpec::new(protocol).quick().load(800.0);
        let spec = if byzantine { spec.byzantine() } else { spec };
        spec.fault_plan(plan)
    };
    let equivocation =
        FaultSchedule::none().equivocate_at(SimTime::from_millis(120), fault_victim());
    let backup = NodeId::new(DomainId::new(1, 0), 1);
    let outage = FaultSchedule::none()
        .crash_at(SimTime::from_millis(120), backup)
        .recover_at(SimTime::from_millis(320), backup);
    let cases = [
        (
            "paxos crash + recovery",
            crash_spec(ProtocolKind::SaguaroCoordinator, false),
        ),
        (
            "pbft crash + recovery",
            crash_spec(ProtocolKind::SaguaroCoordinator, true),
        ),
        (
            "pbft equivocating primary",
            ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
                .byzantine()
                .quick()
                .load(800.0)
                .fault_plan(equivocation),
        ),
        (
            "snapshot catch-up",
            ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
                .quick()
                .load(1_200.0)
                .tune(|t| t.checkpoint_every(4).retained(4))
                .fault_plan(outage),
        ),
        (
            "ahl shard-leader crash",
            crash_spec(ProtocolKind::Ahl, false),
        ),
    ];
    let digests: Vec<(&str, u64)> = cases
        .iter()
        .map(|(name, spec)| (*name, harvest_digest(spec)))
        .collect();
    let expected = [
        ("paxos crash + recovery", 0x3f3bb88427a79677),
        ("pbft crash + recovery", 0x56d352fde503493e),
        ("pbft equivocating primary", 0x772d01597747ae14),
        ("snapshot catch-up", 0x5179721b8de7abb0),
        ("ahl shard-leader crash", 0x522b559c3ff2de83),
    ];
    assert_eq!(digests, expected, "a harvest digest moved");
}

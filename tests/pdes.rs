//! The many-partition engine's determinism contract: per seed, results are
//! bit-reproducible and invariant to the worker-thread count — for every
//! protocol stack and both client models — and the sequential engine stays
//! the untouched default.
//!
//! Both modes run the same event core; a run over several partitions is its
//! own deterministic mode (each partition draws from its own RNG stream and
//! cross-partition ties are ordered by the merge key), so these tests
//! compare parallel against parallel.  The sequential goldens live in
//! `determinism.rs`; that a *one*-partition parallel engine equals the
//! sequential one bit for bit is pinned in `saguaro-net`'s unit tests.

use saguaro::sim::{ExperimentSpec, ProtocolKind, RunArtifacts};
use saguaro::types::{EngineMode, PopulationConfig};

/// Everything deterministic about a run, flattened for equality checks:
/// summary metrics, the exact completion stream, event totals and the
/// parallel engine's virtual-time instrumentation (its wall-clock fields —
/// `merge_wall_us`, `barrier_wall_us` — legitimately vary run to run and are
/// excluded).
#[allow(clippy::type_complexity)]
fn fingerprint(
    a: &RunArtifacts,
) -> (
    String,
    Vec<(u64, u64, u64, u64, bool)>,
    u64,
    u64,
    Option<(usize, u64, u64, Vec<u64>, u64)>,
) {
    (
        format!("{:?}", a.metrics),
        a.completions
            .iter()
            .map(|c| {
                (
                    c.tx_id.0,
                    c.client.0,
                    c.submitted_at.as_micros(),
                    c.latency.as_micros(),
                    c.committed,
                )
            })
            .collect(),
        a.events_processed,
        a.peak_pending_events,
        a.pdes.as_ref().map(|p| {
            (
                p.partitions,
                p.windows,
                p.lookahead_us,
                p.partition_events.clone(),
                p.cross_messages,
            )
        }),
    )
}

fn quick_spec(protocol: ProtocolKind) -> ExperimentSpec {
    ExperimentSpec::new(protocol)
        .quick()
        .cross_domain(0.3)
        .load(600.0)
}

#[test]
fn parallel_runs_are_invariant_to_worker_count_for_every_stack() {
    for protocol in ProtocolKind::ALL {
        let mut reference = None;
        for workers in [1usize, 2, 4, 8] {
            let artifacts = quick_spec(protocol).parallel(workers).run_collecting();
            assert!(
                artifacts.metrics.committed > 0,
                "{protocol:?} committed nothing on the parallel engine"
            );
            let fp = fingerprint(&artifacts);
            match &reference {
                None => reference = Some(fp),
                Some(expected) => assert_eq!(
                    *expected, fp,
                    "{protocol:?} diverged between 1 and {workers} workers"
                ),
            }
        }
    }
}

#[test]
fn parallel_runs_are_bit_reproducible_per_seed() {
    let spec = quick_spec(ProtocolKind::SaguaroCoordinator).parallel(4);
    let a = fingerprint(&spec.run_collecting());
    let b = fingerprint(&spec.run_collecting());
    assert_eq!(a, b, "same seed, same worker count, different history");

    // A different seed must actually change the history (the streams are
    // seed-derived, not fixed).
    let mut reseeded = spec;
    reseeded.seed = spec_seed_plus_one(&reseeded);
    let c = fingerprint(&reseeded.run_collecting());
    assert_ne!(
        a.1, c.1,
        "reseeding changed nothing — streams ignore the seed"
    );
}

fn spec_seed_plus_one(spec: &ExperimentSpec) -> u64 {
    spec.seed + 1
}

#[test]
fn parallel_engine_reports_partition_instrumentation() {
    let artifacts = quick_spec(ProtocolKind::SaguaroOptimistic)
        .parallel(2)
        .run_collecting();
    let pdes = artifacts.pdes.expect("parallel run must report pdes stats");
    // The paper topology has 4 height-1 domains: 1 hub + 4 edge partitions.
    assert_eq!(pdes.partitions, 5);
    assert_eq!(pdes.partition_events.len(), 5);
    assert_eq!(
        pdes.partition_events.iter().sum::<u64>(),
        artifacts.events_processed,
        "per-partition event counts must add up to the run total"
    );
    // Clients live on partition 0 and every edge domain serves requests, so
    // every partition must have processed work and windows must have run.
    assert!(pdes.partition_events.iter().all(|&n| n > 0));
    assert!(pdes.windows > 0);
    assert!(
        pdes.cross_messages > 0,
        "client↔replica traffic is cross-partition"
    );
    assert_eq!(pdes.lookahead_us, 250, "built-in matrices floor at 250µs");
}

#[test]
fn sequential_runs_report_no_pdes_stats() {
    let artifacts = quick_spec(ProtocolKind::Ahl).run_collecting();
    assert!(artifacts.pdes.is_none());
}

#[test]
fn engine_mode_resolves_worker_counts() {
    assert_eq!(EngineMode::Sequential.worker_threads(), 1);
    assert_eq!(EngineMode::Parallel(3).worker_threads(), 3);
    assert!(EngineMode::Parallel(0).worker_threads() >= 1);
    assert!(EngineMode::Parallel(2).is_parallel());
    assert!(!EngineMode::Sequential.is_parallel());
}

#[test]
fn aggregate_population_runs_are_worker_count_invariant_too() {
    let population = PopulationConfig::with_users(20_000)
        .per_user(0.05)
        .sampled_every(4);
    let mut reference = None;
    for workers in [1usize, 4] {
        let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .quick()
            .aggregate(population)
            .parallel(workers);
        let artifacts = spec.run_collecting();
        let tally = artifacts.population.as_ref().expect("aggregate tally");
        assert!(tally.committed > 0, "population committed nothing");
        let fp = (
            fingerprint(&artifacts),
            tally.committed,
            tally.aborted,
            tally.submitted,
        );
        match &reference {
            None => reference = Some(fp),
            Some(expected) => assert_eq!(*expected, fp, "workers={workers}"),
        }
    }
}

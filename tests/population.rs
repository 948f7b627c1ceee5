//! Population-scale load generation: the aggregate client model commits
//! real transactions with O(1)-per-transaction client-side accounting,
//! reproduces bit-identically per seed, and reports the latencies the
//! per-actor model reports on a common topology.  (That the two sinks
//! summarise one completion stream alike is a unit test beside them, in
//! `saguaro_sim::experiment`.)

use saguaro::hierarchy::Placement;
use saguaro::loadgen::LatencyHistogram;
use saguaro::sim::{ExperimentSpec, ProtocolKind};
use saguaro::types::PopulationConfig;

fn aggregate_spec(users: u64) -> ExperimentSpec {
    ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .quick()
        .placed(Placement::SingleRegion)
        .aggregate(PopulationConfig::with_users(users).per_user(0.5))
}

#[test]
fn aggregate_runs_commit_without_storing_completions() {
    let artifacts = aggregate_spec(2_000).run_collecting();
    let tally = artifacts.population.as_ref().expect("population tally");
    assert!(
        artifacts.metrics.committed > 100,
        "committed {}",
        artifacts.metrics.committed
    );
    assert_eq!(artifacts.metrics.aborted, 0);
    assert_eq!(artifacts.metrics.offered_tps, 1_000.0);
    // The whole point: no per-transaction records on the client side.
    assert!(artifacts.completions.is_empty());
    assert!(artifacts.schedules.is_empty());
    assert_eq!(tally.committed, artifacts.metrics.committed);
    assert!(artifacts.metrics.p50_latency_ms > 0.0);
    assert!(artifacts.metrics.p99_latency_ms >= artifacts.metrics.p50_latency_ms);
}

#[test]
fn aggregate_runs_reproduce_bit_identically_per_seed() {
    for protocol in [
        ProtocolKind::SaguaroCoordinator,
        ProtocolKind::SaguaroOptimistic,
    ] {
        let mut spec = aggregate_spec(1_000);
        spec.protocol = protocol;
        let a = spec.run_collecting();
        let b = spec.run_collecting();
        assert_eq!(a.metrics, b.metrics, "{protocol:?} metrics diverged");
        assert_eq!(a.events_processed, b.events_processed);
        let (ta, tb) = (a.population.unwrap(), b.population.unwrap());
        assert_eq!(ta.submitted, tb.submitted);
        assert_eq!(ta.completed, tb.completed);
        assert_eq!(ta.hist.count(), tb.hist.count());
        assert_eq!(ta.hist.mean(), tb.hist.mean());
        for p in [0.5, 0.95, 0.99] {
            assert_eq!(ta.hist.quantile(p), tb.hist.quantile(p));
        }
    }
}

#[test]
fn different_seeds_change_the_aggregate_run() {
    let spec = aggregate_spec(1_000);
    let mut reseeded = spec.clone();
    reseeded.seed = 43;
    assert_ne!(
        spec.run_collecting().metrics,
        reseeded.run_collecting().metrics
    );
}

#[test]
fn client_side_memory_stays_flat_as_the_population_grows() {
    // 8× the modeled users means ~8× the transactions, but the client-side
    // high-water mark (in-flight map) must stay in the same ballpark: the
    // aggregate path stores nothing per completed transaction.
    let small = aggregate_spec(500).run_collecting();
    let large = aggregate_spec(4_000).run_collecting();
    let (ts, tl) = (small.population.unwrap(), large.population.unwrap());
    assert!(
        tl.submitted > ts.submitted * 4,
        "expected ~8x submissions, got {} vs {}",
        tl.submitted,
        ts.submitted
    );
    assert!(
        tl.peak_inflight < ts.peak_inflight * 4 + 64,
        "peak in-flight {} vs {} suggests per-tx storage",
        tl.peak_inflight,
        ts.peak_inflight
    );
}

#[test]
fn wide_topologies_deploy_hundreds_of_domains() {
    let mut spec = aggregate_spec(6_400).shaped(2, 16);
    spec.measure = saguaro::types::Duration::from_millis(150);
    let artifacts = spec.run_collecting();
    assert!(
        artifacts.metrics.committed > 50,
        "committed {}",
        artifacts.metrics.committed
    );
}

#[test]
fn aggregate_and_per_actor_latencies_agree_on_a_common_topology() {
    // Same topology, same placement, comparable offered load: the aggregate
    // model's reported latency quantiles must land where the per-actor
    // model's do.  On an uncontended single-region deployment the latency
    // distribution is tight, so agreement is checked within the histogram
    // bound plus a small statistical allowance.
    let per_actor = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .quick()
        .placed(Placement::SingleRegion)
        .load(600.0)
        .run();
    let aggregate = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .quick()
        .placed(Placement::SingleRegion)
        .aggregate(PopulationConfig::with_users(1_200).per_user(0.5))
        .run();
    assert!(per_actor.committed > 50 && aggregate.committed > 50);
    for (p50a, p50b) in [
        (per_actor.p50_latency_ms, aggregate.p50_latency_ms),
        (per_actor.p95_latency_ms, aggregate.p95_latency_ms),
    ] {
        let tolerance = p50a * (LatencyHistogram::RELATIVE_ERROR_BOUND + 0.05);
        assert!(
            (p50a - p50b).abs() <= tolerance,
            "per-actor {p50a} ms vs aggregate {p50b} ms (tolerance {tolerance})"
        );
    }
}

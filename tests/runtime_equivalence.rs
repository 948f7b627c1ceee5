//! Runtime-equivalence suite: the simulation runtime (dense actor tables,
//! zero-copy multicast envelopes, the timer slab, parallel sweeps) and the
//! optimistic-validator indexing must reproduce every pinned run of the
//! golden table exactly: identical event schedules, identical RNG draws,
//! identical floating-point accumulation order.

mod common {
    pub mod golden;
}

use common::golden::{golden_spec, Case};
use saguaro::sim::ProtocolKind;

#[test]
fn all_stacks_reproduce_pre_refactor_goldens_across_seeds() {
    for case in Case::all().filter(|case| matches!(case, Case::Plain(..))) {
        assert_eq!(case.spec().run(), case.golden(), "{case:?} diverged");
    }
}

#[test]
fn batched_pipeline_reproduces_pre_refactor_golden() {
    // Batching exercises the envelope path hardest: whole blocks multicast
    // to every replica of a domain.
    let case = Case::Batched;
    assert_eq!(case.spec().run(), case.golden(), "batched(8) diverged");
}

#[test]
fn ridesharing_workload_reproduces_pre_refactor_golden() {
    let case = Case::Ridesharing;
    assert_eq!(case.spec().run(), case.golden(), "ridesharing diverged");
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential_runs() {
    // `sweep` fans points out across threads; the merged result must equal
    // running each load by hand, point for point.
    let spec = golden_spec(ProtocolKind::SaguaroCoordinator, 7);
    let loads = [300.0, 600.0, 900.0];
    let swept = spec.sweep(&loads);
    assert_eq!(swept.len(), loads.len());
    for (point, load) in swept.iter().zip(loads) {
        let mut sequential = spec.clone();
        sequential.offered_load_tps = load;
        assert_eq!(point.offered_tps, load);
        assert_eq!(
            point.metrics,
            sequential.run(),
            "sweep point at load {load} differs from a sequential run"
        );
    }
}

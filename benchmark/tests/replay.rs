//! The phased replay must describe the real path: for every cell it returns
//! what `run_collecting` returns, in about the same time.

use saguaro_benchmark::host::cpu_seconds;
use saguaro_benchmark::replay::replay;
use saguaro_benchmark::spans::Recorder;
use saguaro_benchmark::workloads::Workload;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "simulates millions of events; run with --release"
)]
fn every_cell_replays_to_the_same_artifacts() {
    for workload in Workload::ALL {
        for cell in workload.cells(42) {
            let label = format!("{}/{}", workload.name(), cell.name);
            let expected = cell.spec.run_collecting();
            let replayed = replay(&cell.spec, cell.name, &mut Recorder::new());
            let got = &replayed.artifacts;
            assert_eq!(got.metrics, expected.metrics, "{label}: metrics");
            assert_eq!(
                got.events_processed, expected.events_processed,
                "{label}: events"
            );
            assert_eq!(
                got.peak_pending_events, expected.peak_pending_events,
                "{label}: peak queue depth"
            );
            assert_eq!(
                got.completions.len(),
                expected.completions.len(),
                "{label}: completions"
            );
            assert_eq!(got.schedules, expected.schedules, "{label}: schedules");
            assert_eq!(
                got.harvest.nodes.len(),
                expected.harvest.nodes.len(),
                "{label}: replicas"
            );
            for (a, b) in got.harvest.nodes.iter().zip(&expected.harvest.nodes) {
                assert_eq!(a.node, b.node, "{label}: harvest order");
                assert_eq!(
                    a.consensus_log, b.consensus_log,
                    "{label}: delivery-stream hashes of {}",
                    a.node
                );
                assert_eq!(a.entries, b.entries, "{label}: ledger of {}", a.node);
                assert_eq!(a.last_delivered, b.last_delivered, "{label}: frontier");
                assert_eq!(a.view_changes, b.view_changes, "{label}: view changes");
            }
            assert_eq!(
                got.population.as_ref().map(|t| (t.submitted, t.completed)),
                expected
                    .population
                    .as_ref()
                    .map(|t| (t.submitted, t.completed)),
                "{label}: population tally"
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing comparison; run with --release")]
fn the_replay_takes_as_long_as_run_collecting() {
    // The host slows down in bursts, so one pass of each proves nothing:
    // alternate the two and compare their fastest passes, for as many
    // rounds as it takes the minima to settle.
    for workload in Workload::ALL {
        let cells = workload.cells(42);
        let (mut direct, mut phased) = (f64::INFINITY, f64::INFINITY);
        let mut delta = f64::INFINITY;
        for _ in 0..8 {
            let now = || cpu_seconds().expect("procfs is mounted");
            let started = now();
            for cell in &cells {
                std::hint::black_box(cell.spec.run_collecting());
            }
            direct = direct.min(now() - started);
            let started = now();
            for cell in &cells {
                std::hint::black_box(replay(&cell.spec, cell.name, &mut Recorder::new()));
            }
            phased = phased.min(now() - started);
            delta = phased / direct - 1.0;
            if delta.abs() <= 0.05 {
                break;
            }
        }
        assert!(
            delta.abs() <= 0.05,
            "{}: sim.phased_delta is {delta:.3}: {phased:.3} s replayed against {direct:.3} s direct",
            workload.name()
        );
    }
}

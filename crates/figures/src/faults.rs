//! The `faults` row: every stack under the same scripted leader crash and
//! recovery, printed as one bucketed timeline per stack.  Gate: the crash
//! drives at least one view change.

use crate::grid::{quarter_in, run_grid};
use crate::table::{num, right, table, Column};
use crate::{Options, Outcome};
use saguaro_sim::scenarios::fault_victim;
use saguaro_sim::{ExperimentSpec, FaultSchedule, ProtocolKind, RunTimeline, TimelinePoint};
use saguaro_types::{Duration, SimTime, TraceConfig};

/// One stack's run: its label and the instants its fault plan scripts.
struct Cell {
    label: &'static str,
    crash_at: SimTime,
    recover_at: SimTime,
}

/// The figure-7 topology under one crash-and-recover schedule per stack:
/// the view-0 primary of one height-1 domain crashes a quarter into the
/// measurement window and recovers at 70 % of it.  The four crash-model
/// stacks drive Paxos view changes; `Coordinator-BFT` reruns the
/// coordinator over Byzantine domains so PBFT's view change is driven too,
/// and `Coordinator-Mobile` runs an 80 %-mobile workload so the crash lands
/// on a domain mid-hand-off.  Every run is traced, which observes and moves
/// nothing, so each carries its [`RunTimeline`].
fn cells(options: &Options) -> Vec<(Cell, ExperimentSpec)> {
    let load = if options.quick { 1_200.0 } else { 4_000.0 };
    let coordinator = || options.spec(ProtocolKind::SaguaroCoordinator);
    ProtocolKind::ALL
        .iter()
        .map(|protocol| (protocol.label(), options.spec(*protocol)))
        .chain([
            ("Coordinator-BFT", coordinator().byzantine()),
            ("Coordinator-Mobile", coordinator().mobile(0.8)),
        ])
        .map(|(label, spec)| {
            let spec = spec.load(load);
            let crash_at = quarter_in(&spec);
            let seventy_pct = Duration::from_micros(spec.measure.as_micros() * 7 / 10);
            let recover_at = SimTime::ZERO + spec.warmup + seventy_pct;
            let plan = FaultSchedule::none()
                .crash_at(crash_at, fault_victim())
                .recover_at(recover_at, fault_victim());
            let spec = spec.fault_plan(plan).trace(TraceConfig::on());
            let cell = Cell {
                label,
                crash_at,
                recover_at,
            };
            (cell, spec)
        })
        .collect()
}

const TIMELINE_COLUMNS: &[Column<TimelinePoint>] = &[
    right("start_ms", 9, |p| num(p.start_ms, 1)),
    right("committed", 9, |p| p.committed.into()),
    right("aborted", 8, |p| p.aborted.into()),
    right("tput_tps", 10, |p| num(p.throughput_tps, 0)),
    right("p50_ms", 8, |p| num(p.p50_latency_ms, 2)),
    right("p95_ms", 8, |p| num(p.p95_latency_ms, 2)),
    right("in_flight", 9, |p| p.in_flight.into()),
    right("view_changes", 12, |p| p.view_changes.into()),
    right("conflicts", 9, |p| p.certificate_conflicts.into()),
];

/// A run's timeline under `# {title} (<bucket> ms buckets)`, one line per
/// bucket.
pub fn timeline_table(timeline: &RunTimeline, title: &str) -> String {
    let bucket_ms = timeline.bucket.as_millis_f64();
    let title = format!("{title} ({bucket_ms:.1} ms buckets)");
    table(&title, TIMELINE_COLUMNS, &timeline.points)
}

/// Runs every stack's crash and recovery and gates on its view changes.
pub fn run(options: &Options) -> Outcome {
    let runs = run_grid(cells(options), |cell, art| {
        let view_changes = art.harvest.view_changes();
        let title = format!(
            "{} — crash {:.0} ms, recover {:.0} ms, view changes {view_changes}, \
             window throughput {:.0} tx/s",
            cell.label,
            cell.crash_at.as_millis_f64(),
            cell.recover_at.as_millis_f64(),
            art.metrics.throughput_tps
        );
        let timeline = art.timeline.as_ref().expect("the fault specs are traced");
        (view_changes, timeline_table(timeline, &title))
    });
    let mut table = "# Fault injection: leader crash + recovery, figure-7 topology\n".to_string();
    let mut failures = Vec::new();
    for (cell, (view_changes, timeline)) in runs {
        table.push_str(&timeline);
        if view_changes == 0 {
            failures.push(format!(
                "{}: a scripted leader crash must drive at least one view change",
                cell.label
            ));
        }
    }
    Outcome {
        tables: vec![table],
        failures,
    }
}

//! The `timeout_sweep` row: suspicion floors
//! ([`LivenessConfig::progress_timeout`]) against the three placements'
//! RTTs.  Too low a floor fires false suspicions (view changes with no
//! fault anywhere, paid as churn); too high a floor slows crash recovery.
//! Each `(placement, floor)` runs twice: failure-free with timers armed (the
//! false-suspicion count) and with a scripted leader crash (the recovery
//! time).  Gates: every crashed domain recovers, and
//! [`LOW_SUSPICION_FLOOR`] stays within 2x of the best other floor.

use crate::grid::{group_by, quarter_in, run_grid};
use crate::table::{left, num, right, Column, Table};
use crate::{Options, Outcome};
use saguaro_hierarchy::Placement;
use saguaro_sim::scenarios::{fault_victim, LOW_SUSPICION_FLOOR};
use saguaro_sim::{ExperimentSpec, FaultSchedule, ProtocolKind, RunArtifacts};
use saguaro_types::{Duration, LivenessConfig, SimTime};

const PLACEMENTS: [(&str, Placement); 3] = [
    ("single-region", Placement::SingleRegion),
    ("nearby-regions", Placement::NearbyRegions),
    ("wide-area", Placement::WideArea),
];

/// One run: its placement, its suspicion timers, and when its leader
/// crashes (`None` for the failure-free run).
struct Cell {
    placement: &'static str,
    liveness: LivenessConfig,
    crash_at: Option<SimTime>,
    /// The run's measurement window.
    measure: Duration,
}

/// One `(placement, suspicion timers)` point of the sweep.
#[derive(Clone, Debug)]
struct TimeoutPoint {
    /// The swept timers: one floor of the suspicion window.
    liveness: LivenessConfig,
    /// View changes in the failure-free run — every one a false suspicion.
    false_suspicions: u64,
    /// False suspicions per second of measured run time.
    false_suspicion_rate: f64,
    /// In the crash run: from the crash to the first commit of a
    /// transaction submitted to the crashed domain after it (ms; `-1` when
    /// the domain never recovered within the run).
    recovery_ms: f64,
    /// Committed throughput of the crash run (over-suspicion costs here
    /// too).
    crash_run_tps: f64,
}

impl TimeoutPoint {
    /// The row label: `floor-<ms>ms`.
    fn floor(&self) -> String {
        let ms = self.liveness.progress_timeout.as_micros() / 1_000;
        format!("floor-{ms}ms")
    }
}

fn cells(options: &Options) -> Vec<(Cell, ExperimentSpec)> {
    let floors_ms: &[u64] = if options.quick {
        &[10, 30, 60]
    } else {
        &[5, 10, 20, 30, 40, 60, 120]
    };
    let load = if options.quick { 800.0 } else { 2_000.0 };
    let mut cells = Vec::new();
    for (placement, at) in PLACEMENTS {
        for &ms in floors_ms {
            let liveness = LivenessConfig::with_timeout(Duration::from_millis(ms));
            for crash in [false, true] {
                let mut spec = options
                    .spec(ProtocolKind::SaguaroCoordinator)
                    .placed(at)
                    .load(load)
                    .tune(|t| t.liveness(liveness));
                let crash_at = crash.then(|| quarter_in(&spec));
                if let Some(crash_at) = crash_at {
                    spec =
                        spec.fault_plan(FaultSchedule::none().crash_at(crash_at, fault_victim()));
                }
                let cell = Cell {
                    placement,
                    liveness,
                    crash_at,
                    measure: spec.measure,
                };
                cells.push((cell, spec));
            }
        }
    }
    cells
}

/// Time from `crash_at` to the first commit of a transaction the crashed
/// domain's own clients submitted after it (ms), or `-1`.  Only those
/// clients measure its recovery: the three healthy domains answer
/// throughout.  Clients are assigned round-robin over the four edge
/// domains, and the scripted victim is the domain-0 primary.
fn recovery_ms(art: &RunArtifacts, crash_at: SimTime) -> f64 {
    art.completions
        .iter()
        .filter(|c| c.committed && c.client.0.is_multiple_of(4) && c.submitted_at >= crash_at)
        .map(|c| (c.submitted_at + c.latency).since(crash_at))
        .min()
        .map_or(-1.0, |d| d.as_millis_f64())
}

/// Runs the sweep and pairs each `(placement, timers)` failure-free run
/// with its crash run, one series per placement.
fn series(options: &Options) -> Vec<(&'static str, Vec<TimeoutPoint>)> {
    // Per run: view changes, committed throughput, and — for a crash run —
    // the recovery time.
    let runs = run_grid(cells(options), |cell, art| {
        let recovery = cell.crash_at.map(|at| recovery_ms(&art, at));
        (
            art.harvest.view_changes(),
            art.metrics.throughput_tps,
            recovery,
        )
    });
    let pairs = group_by(runs.into_iter().map(|(cell, run)| {
        let key = (cell.placement, cell.liveness);
        (key, (cell.measure, run))
    }));
    group_by(pairs.into_iter().map(|((placement, liveness), runs)| {
        let free = runs.iter().find(|(_, (.., recovery))| recovery.is_none());
        let (measure, (false_suspicions, ..)) = free.expect("a failure-free run");
        let crashed = runs
            .iter()
            .find_map(|(_, (_, tps, recovery))| Some((recovery.as_ref()?, tps)));
        let (recovery_ms, crash_run_tps) = crashed.expect("a crash run");
        let point = TimeoutPoint {
            liveness,
            false_suspicions: *false_suspicions,
            false_suspicion_rate: *false_suspicions as f64 / measure.as_secs_f64(),
            recovery_ms: *recovery_ms,
            crash_run_tps: *crash_run_tps,
        };
        (placement, point)
    }))
}

const COLUMNS: &[Column<TimeoutPoint>] = &[
    left("floor", 14, |p| p.floor().as_str().into()),
    right("false_suspicions", 17, |p| p.false_suspicions.into()),
    right("false_susp_per_sec", 20, |p| num(p.false_suspicion_rate, 2)),
    right("recovery_ms", 12, |p| num(p.recovery_ms, 1)),
    right("crash_tps", 14, |p| num(p.crash_run_tps, 0)),
];

fn table(series: &[(&str, Vec<TimeoutPoint>)]) -> String {
    let title = "Liveness-timeout sweep: false suspicions vs recovery time";
    let mut table = Table::new(title, COLUMNS);
    for (placement, points) in series {
        table.line(placement);
        table.header();
        table.rows(points);
    }
    table.finish()
}

/// The timeout gate: every cell's crashed domain recovers, and on the
/// nearby-regions placement [`LOW_SUSPICION_FLOOR`] recovers within 2x the
/// best other floor while firing no more false suspicions.  The best other
/// floor is the fastest to recover among the recovered floors with the
/// fewest false suspicions: an aggressive floor that "recovers" instantly
/// by churning through needless view changes is not an operating point
/// anyone deploys, so it does not set the bar.
fn gate(series: &[(&str, Vec<TimeoutPoint>)]) -> Vec<String> {
    let mut errors = Vec::new();
    for (placement, points) in series {
        for p in points.iter().filter(|p| p.recovery_ms < 0.0) {
            errors.push(format!(
                "{placement} @ {}: the crashed domain never recovered",
                p.floor()
            ));
        }
    }
    let (_, nearby) = series
        .iter()
        .find(|(placement, _)| *placement == "nearby-regions")
        .expect("the sweep runs the nearby-regions placement");
    let is_low = |p: &&TimeoutPoint| p.liveness.progress_timeout == LOW_SUSPICION_FLOOR;
    let low = nearby
        .iter()
        .find(is_low)
        .expect("the sweep runs the low floor");
    let best_other = nearby
        .iter()
        .filter(|p| !is_low(p) && p.recovery_ms >= 0.0)
        .min_by(|a, b| {
            (a.false_suspicions, a.recovery_ms)
                .partial_cmp(&(b.false_suspicions, b.recovery_ms))
                .expect("finite recovery")
        });
    if let Some(best) = best_other {
        if low.recovery_ms < 0.0
            || low.recovery_ms > best.recovery_ms * 2.0
            || low.false_suspicions > best.false_suspicions
        {
            errors.push(format!(
                "{} out of bounds: recovered in {:.1} ms with {} false suspicions \
                 vs best other floor {} ({:.1} ms, {} false suspicions)",
                low.floor(),
                low.recovery_ms,
                low.false_suspicions,
                best.floor(),
                best.recovery_ms,
                best.false_suspicions
            ));
        }
    }
    errors
}

/// Runs the sweep, prints its table and checks the gate.
pub fn run(options: &Options) -> Outcome {
    let series = series(options);
    Outcome {
        tables: vec![table(&series)],
        failures: gate(&series),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(liveness: LivenessConfig, recovery_ms: f64, false_suspicions: u64) -> TimeoutPoint {
        TimeoutPoint {
            liveness,
            false_suspicions,
            false_suspicion_rate: false_suspicions as f64 / 0.3,
            recovery_ms,
            crash_run_tps: 700.0,
        }
    }

    fn floors(recovery_ms: [f64; 3], false_suspicions: [u64; 3]) -> Vec<TimeoutPoint> {
        let floor = |ms| LivenessConfig::with_timeout(Duration::from_millis(ms));
        let timers = [floor(10), floor(30), floor(60)];
        (0..3)
            .map(|i| cell(timers[i], recovery_ms[i], false_suspicions[i]))
            .collect()
    }

    #[test]
    fn each_timeout_condition_fails_with_its_message() {
        // The seed-42 quick numbers: the best other floor is floor-60ms
        // (floor-10ms recovers faster only by suspecting falsely).
        let good = vec![
            ("single-region", floors([49.9, 60.2, 71.2], [48, 0, 0])),
            ("nearby-regions", floors([17.2, 49.2, 84.2], [33, 0, 0])),
        ];
        crate::assert_each_violation_reported(
            &good,
            |series| gate(series),
            &[
                (
                    |s| s[0].1[2].recovery_ms = -1.0,
                    "single-region @ floor-60ms: the crashed domain never recovered",
                ),
                (
                    |s| s[1].1[1].recovery_ms = 168.5,
                    "floor-30ms out of bounds: recovered in 168.5 ms with 0 false \
                     suspicions vs best other floor floor-60ms (84.2 ms, 0 false suspicions)",
                ),
                (
                    |s| s[1].1[1].false_suspicions = 1,
                    "floor-30ms out of bounds: recovered in 49.2 ms with 1 false \
                     suspicions vs best other floor floor-60ms",
                ),
            ],
        );
    }
}

//! The `scenarios` row: every composite [`Scenario`] against every stack
//! under two suspicion floors, the default and [`LOW_SUSPICION_FLOOR`].
//! Byzantine domains throughout, so the equivocation scenarios exercise
//! PBFT's twin defences on every stack.
//! Gate: no run violates [`safety_violations`].

use crate::grid::run_grid;
use crate::table::{left, num, right, table, Column};
use crate::{Options, Outcome};
use saguaro_sim::scenarios::LOW_SUSPICION_FLOOR;
use saguaro_sim::{safety_violations, ExperimentSpec, ProtocolKind, RunMetrics, Scenario};
use saguaro_types::{Duration, LivenessConfig};

/// The matrix's suspicion floors (ms), in column order.
const FLOORS_MS: [u64; 2] = [
    LivenessConfig::DEFAULT_TIMEOUT.as_micros() / 1_000,
    LOW_SUSPICION_FLOOR.as_micros() / 1_000,
];

/// One `(scenario, stack, floor)` cell of the matrix.
struct ScenarioCell {
    scenario: Scenario,
    stack: ProtocolKind,
    floor_ms: u64,
}

/// The matrix's base spec: Byzantine domains at a load every stack carries.
pub fn matrix_spec(stack: ProtocolKind, options: &Options) -> ExperimentSpec {
    let load = if options.quick { 800.0 } else { 2_000.0 };
    options.spec(stack).byzantine().load(load)
}

/// Every cell, scenario-major, then stack, then floor.
fn scenario_matrix(options: &Options) -> Vec<(ScenarioCell, ExperimentSpec)> {
    let mut cells = Vec::new();
    for scenario in Scenario::all() {
        for stack in ProtocolKind::ALL {
            for floor_ms in FLOORS_MS {
                let liveness = LivenessConfig::with_timeout(Duration::from_millis(floor_ms));
                let spec = scenario
                    .apply(matrix_spec(stack, options))
                    .tune(|t| t.liveness(liveness));
                let cell = ScenarioCell {
                    scenario,
                    stack,
                    floor_ms,
                };
                cells.push((cell, spec));
            }
        }
    }
    cells
}

/// What the matrix reads of one run: its metrics, view changes,
/// certificate conflicts and safety violations.
type Reading = (RunMetrics, u64, u64, Vec<String>);

const COLUMNS: &[Column<(ScenarioCell, Reading)>] = &[
    left("scenario", 20, |(cell, _)| cell.scenario.label().into()),
    left("stack", 12, |(cell, _)| cell.stack.label().into()),
    left("floor", 9, |(cell, _)| {
        format!("{}ms", cell.floor_ms).as_str().into()
    }),
    right("tps", 10, |(_, (metrics, ..))| {
        num(metrics.throughput_tps, 0)
    }),
    right("p95_ms", 10, |(_, (metrics, ..))| {
        num(metrics.p95_latency_ms, 1)
    }),
    right("view_changes", 12, |(_, (_, view_changes, ..))| {
        (*view_changes).into()
    }),
    right("conflicts", 10, |(_, (_, _, conflicts, _))| {
        (*conflicts).into()
    }),
    right("safety", 8, |(_, (.., violations))| {
        if violations.is_empty() {
            "ok"
        } else {
            "VIOLATED"
        }
        .into()
    }),
];

/// Runs the matrix, prints one line per cell and gates on safety.
pub fn run(options: &Options) -> Outcome {
    let runs = run_grid(scenario_matrix(options), |_, art| {
        let harvest = &art.harvest;
        let (view_changes, conflicts) = (harvest.view_changes(), harvest.certificate_conflicts());
        let violations = safety_violations(&art);
        (art.metrics, view_changes, conflicts, violations)
    });
    let failures = runs
        .iter()
        .filter(|(_, (.., violations))| !violations.is_empty())
        .map(|(cell, (.., violations))| {
            let (scenario, stack) = (cell.scenario.label(), cell.stack.label());
            let floor_ms = cell.floor_ms;
            format!("{scenario} / {stack} / {floor_ms}ms: safety violated: {violations:?}")
        })
        .collect();
    Outcome {
        tables: vec![table("Adversarial scenario matrix", COLUMNS, &runs)],
        failures,
    }
}

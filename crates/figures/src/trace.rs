//! The `trace` row: exercises the structured-tracing layer end to end.
//!
//! One traced chaos run — the view-change-storm scenario (crashed primary,
//! an equivocating accomplice, recovery) on a byzantine coordinator
//! deployment with batching, checkpointing and a finite retention window,
//! plus a scripted backup outage in another edge domain.  Every
//! protocol-event category the tracer knows must appear at least once — a
//! run that silently stops emitting suspicion or state-transfer events fails
//! here, not in a downstream dashboard — and the Chrome trace-event export
//! must parse.  `--trace <path>` writes that export (load it at
//! <https://ui.perfetto.dev>).  The run's bucketed
//! [`RunTimeline`](saguaro_sim::RunTimeline) is printed as the second table
//! through [`timeline_table`].

use crate::faults::timeline_table;
use crate::grid::quarter_in;
use crate::scenarios::matrix_spec;
use crate::table::{left, right, Column, Table};
use crate::{Options, Outcome};
use saguaro_sim::{ExperimentSpec, JsonValue, ProtocolKind, RunTrace, Scenario};
use saguaro_types::{DomainId, Duration, NodeId, TraceConfig};

/// Categories the chaos run must produce at least one event in.
const REQUIRED_CATEGORIES: [&str; 9] = [
    "batch",
    "checkpoint",
    "equivocation",
    "fault",
    "snapshot",
    "state_transfer",
    "suspicion",
    "tx",
    "view_change",
];

/// The chaos spec: the scenario matrix's coordinator deployment under the
/// view-change-storm scenario, with batching, checkpoints and pruning on so
/// every trace category has a producer.
fn chaos_spec(options: &Options) -> ExperimentSpec {
    let spec = matrix_spec(ProtocolKind::SaguaroCoordinator, options)
        .tune(|t| t.batch_size(8).checkpoint_every(16).retained(64));
    // The storm alone leaves it to the schedule whether any replica falls
    // behind its domain's retained log.  A backup of another edge domain,
    // down from a quarter to three quarters of the window, always does: it
    // comes back below every peer's stable checkpoint and must catch up by
    // state transfer.
    let laggard = NodeId::new(DomainId::new(1, 1), 1);
    let quarter = Duration::from_micros(spec.measure.as_micros() / 4);
    let down_at = quarter_in(&spec);
    let plan = Scenario::ViewChangeStorm
        .schedule(&spec)
        .crash_at(down_at, laggard)
        .recover_at(down_at + quarter + quarter, laggard);
    spec.fault_plan(plan).trace(TraceConfig::on())
}

/// The required categories `counts` has no event in.
fn missing_categories(counts: &[(&'static str, u64)]) -> Vec<&'static str> {
    REQUIRED_CATEGORIES
        .iter()
        .copied()
        .filter(|required| !counts.iter().any(|(c, n)| c == required && *n > 0))
        .collect()
}

const COLUMNS: &[Column<(&str, u64)>] = &[
    left("category", 16, |(category, _)| (*category).into()),
    right("events", 8, |(_, count)| (*count).into()),
];

/// Events per category, then their total, which also carries the count of
/// events the ring buffers dropped.
fn category_table(trace: &RunTrace) -> String {
    let mut table = Table::new("Trace smoke: view-change-storm chaos run", COLUMNS);
    table.rows(&trace.category_counts());
    table.rows(&[("total", trace.len() as u64)]);
    let mut text = table.finish();
    text.pop();
    text + &format!("  (dropped {})\n", trace.dropped)
}

/// Runs the traced chaos run, checks its gates and writes the export.
pub fn run(options: &Options) -> Outcome {
    let chaos = chaos_spec(options).run_collecting();
    let trace = chaos.trace.as_ref().expect("tracing was enabled");
    let timeline = chaos.timeline.as_ref().expect("tracing was enabled");
    let mut failures = Vec::new();
    let missing = missing_categories(&trace.category_counts());
    if !missing.is_empty() {
        failures.push(format!("no events in categories: {missing:?}"));
    }
    // The export is hand-rendered; make sure it stayed parseable JSON.
    let chrome = trace.chrome_json();
    if JsonValue::parse(&chrome).is_none() {
        failures.push("Chrome export is not valid JSON".to_string());
    }
    if let Some(path) = &options.trace {
        match std::fs::write(path, &chrome) {
            Ok(()) => eprintln!(
                "wrote {} trace events ({} dropped) to {}",
                trace.len(),
                trace.dropped,
                path.display()
            ),
            Err(e) => failures.push(format!("failed to write {}: {e}", path.display())),
        }
    }
    Outcome {
        tables: vec![
            category_table(trace),
            timeline_table(timeline, "Timeline of the traced run"),
        ],
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_silent_category_is_reported_by_name() {
        let mut counts: Vec<(&'static str, u64)> =
            REQUIRED_CATEGORIES.iter().map(|c| (*c, 1)).collect();
        assert_eq!(missing_categories(&counts), [""; 0]);
        // Present with no events, and absent altogether, are both missing.
        counts[5].1 = 0;
        counts.remove(1);
        assert_eq!(
            missing_categories(&counts),
            ["checkpoint", "state_transfer"]
        );
    }
}

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
//! [`RunTimeline`](saguaro_sim::RunTimeline) is printed as the second table.

use crate::{Options, Outcome};
use saguaro_sim::experiment::ExperimentSpec;
use saguaro_sim::json::JsonValue;
use saguaro_sim::protocol::ProtocolKind;
use saguaro_sim::scenarios::Scenario;
use saguaro_sim::RunTrace;
use saguaro_types::{DomainId, Duration, NodeId, SimTime, TraceConfig};

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

/// The chaos spec: byzantine coordinator deployment under the
/// view-change-storm scenario, with batching, checkpoints and pruning on so
/// every trace category has a producer.
fn chaos_spec(quick: bool, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .byzantine()
        .tune(|t| t.batch_size(8).checkpoint_every(16).retained(64));
    spec.seed = seed;
    spec.offered_load_tps = if quick { 800.0 } else { 2_000.0 };
    if quick {
        spec = spec.quick();
    }
    // The storm alone leaves it to the schedule whether any replica falls
    // behind its domain's retained log.  A backup of another edge domain,
    // down from a quarter to three quarters of the window, always does: it
    // comes back below every peer's stable checkpoint and must catch up by
    // state transfer.
    let laggard = NodeId::new(DomainId::new(1, 1), 1);
    let quarter = Duration::from_micros(spec.measure.as_micros() / 4);
    let down_at = SimTime::ZERO + spec.warmup + quarter;
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

fn category_table(trace: &RunTrace) -> String {
    let mut table = String::from("# Trace smoke: view-change-storm chaos run\n");
    for (category, count) in trace.category_counts() {
        table.push_str(&format!("{category:<16} {count:>8}\n"));
    }
    table.push_str(&format!(
        "{:<16} {:>8}  (dropped {})\n",
        "total",
        trace.len(),
        trace.dropped
    ));
    table
}

/// Runs the traced chaos run, checks its gates and writes the export.
pub fn run(options: &Options) -> Outcome {
    let chaos = chaos_spec(options.figure.quick, options.figure.seed).run_collecting();
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
            timeline.table("Timeline of the traced run"),
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

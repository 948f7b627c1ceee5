//! Tracing smoke benchmark: exercises the structured-tracing layer
//! end-to-end and gates its overhead.
//!
//! Two runs:
//!
//! 1. **Chaos run** — the view-change-storm scenario (crashed primary, an
//!    equivocating accomplice, recovery) on a byzantine coordinator
//!    deployment with batching, checkpointing and a finite retention
//!    window, traced.  Every protocol-event category the tracer knows must
//!    appear at least once — a run that silently stops emitting suspicion
//!    or state-transfer events fails here, not in a downstream dashboard.
//!    `--trace <path>` writes this run's Chrome trace-event export
//!    (load it at <https://ui.perfetto.dev>).
//! 2. **Overhead run** — the `sim_engine` figure-7 workload with tracing
//!    *on*.  `--floor <path>` reads the same `{"events_per_sec": N}` floor
//!    `sim_engine --floor` uses and fails if the traced rate fell below
//!    `floor × 0.70 × 0.90` — the engine-regression tolerance plus a 10 %
//!    tracing-overhead allowance.
//!
//! `--json <path>` merges `trace` and `timeline` sections into the shared
//! `BENCH_results.json`.

use saguaro_bench::{
    emit, flag_from_args, json_path_from_args, options_from_args, runtime_json, timed_run,
    trace_path_from_args, JsonReport,
};
use saguaro_sim::experiment::ExperimentSpec;
use saguaro_sim::json::{JsonValue, ToJson};
use saguaro_sim::protocol::ProtocolKind;
use saguaro_sim::scenarios::Scenario;
use saguaro_sim::RunTrace;
use saguaro_types::TraceConfig;
use std::path::PathBuf;

/// Same meaning as `sim_engine`'s floor tolerance: 30 % runner-speed slack.
const FLOOR_TOLERANCE: f64 = 0.70;

/// Additional slack the tracing-on run is allowed over the floor: tracing
/// may cost at most 10 % of the engine rate.
const TRACING_ALLOWANCE: f64 = 0.90;

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

fn read_floor(path: &PathBuf) -> Option<f64> {
    let parsed = JsonValue::parse(&std::fs::read_to_string(path).ok()?)?;
    let JsonValue::Object(entries) = parsed else {
        return None;
    };
    entries.iter().find_map(|(k, v)| match v {
        JsonValue::Num(n) if k == "events_per_sec" => Some(*n),
        _ => None,
    })
}

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
    Scenario::ViewChangeStorm
        .apply(spec)
        .trace(TraceConfig::on())
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let options = options_from_args(&args);
    let floor_path: Option<PathBuf> = flag_from_args(&args, "--floor", "a path");

    // 1. Chaos run: every category must fire.
    let chaos = chaos_spec(options.quick, options.seed).run_collecting();
    let trace = chaos.trace.as_ref().expect("tracing was enabled");
    emit("trace_categories", category_table(trace));

    let counts = trace.category_counts();
    let missing: Vec<&str> = REQUIRED_CATEGORIES
        .iter()
        .copied()
        .filter(|required| !counts.iter().any(|(c, n)| c == required && *n > 0))
        .collect();

    if let Some(path) = trace_path_from_args(&args) {
        let chrome = trace.chrome_json();
        match std::fs::write(&path, &chrome) {
            Ok(()) => eprintln!(
                "wrote {} trace events ({} dropped) to {}",
                trace.len(),
                trace.dropped,
                path.display()
            ),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
        // The export is hand-rendered; make sure it stayed parseable JSON.
        if JsonValue::parse(&chrome).is_none() {
            eprintln!("TRACE REGRESSION: Chrome export is not valid JSON");
            std::process::exit(1);
        }
    }

    // 2. Overhead run: the sim_engine workload with tracing on.
    let mut engine_spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .cross_domain(0.2)
        .trace(TraceConfig::on());
    engine_spec.seed = options.seed;
    if options.quick {
        engine_spec = engine_spec.quick().load(1_200.0);
    }
    let traced = timed_run(&engine_spec);
    let events_per_sec = traced.events_per_sec();
    emit(
        "trace_overhead",
        format!(
            "# Engine rate with tracing on (figure-7 topology)\n\
             traced run : {} events in {:.1} ms -> {:.0} events/sec\n",
            traced.artifacts.events_processed, traced.wall_ms, events_per_sec
        ),
    );

    let mut report = JsonReport::new();
    let mut trace_fields = vec![
        ("quick", JsonValue::Bool(options.quick)),
        ("chaos_events", JsonValue::Num(trace.len() as f64)),
        ("chaos_dropped", JsonValue::Num(trace.dropped as f64)),
        (
            "categories",
            JsonValue::Object(
                counts
                    .iter()
                    .map(|(c, n)| (c.to_string(), JsonValue::Num(*n as f64)))
                    .collect(),
            ),
        ),
    ];
    trace_fields.extend(traced.rate_fields());
    trace_fields.push(("runtime", runtime_json(&traced.artifacts)));
    report.add_value("trace", JsonValue::object(trace_fields));
    if let Some(timeline) = &chaos.timeline {
        report.add_value("timeline", timeline.to_json());
    }
    report.merge_into_if_requested(json_path_from_args(&args).as_ref());

    if !missing.is_empty() {
        eprintln!("TRACE REGRESSION: no events in categories: {missing:?}");
        std::process::exit(1);
    }

    if let Some(floor_path) = floor_path {
        match read_floor(&floor_path) {
            Some(floor) => {
                let minimum = floor * FLOOR_TOLERANCE * TRACING_ALLOWANCE;
                if events_per_sec < minimum {
                    eprintln!(
                        "TRACE OVERHEAD REGRESSION: {events_per_sec:.0} events/sec with \
                         tracing on is below {minimum:.0} (floor {floor:.0} x {FLOOR_TOLERANCE} \
                         x {TRACING_ALLOWANCE})"
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "trace overhead ok: {events_per_sec:.0} events/sec >= {minimum:.0} \
                     (floor {floor:.0} - 30% - 10% tracing allowance)"
                );
            }
            None => {
                eprintln!("failed to read events_per_sec floor from {floor_path:?}");
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "trace smoke ok: {} events across {} categories",
        trace.len(),
        counts.len()
    );
}

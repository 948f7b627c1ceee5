//! Engine wall-clock benchmark: how fast does the simulator itself run?
//!
//! Two measurements, both on the figure-7 topology (crash-only domains,
//! nearby regions, 20 % cross-domain micropayments):
//!
//! 1. **Hot path** — one single-seeded run; events processed divided by
//!    wall-clock time gives events/sec.  Identical seeds process an
//!    identical event count, so this number tracks pure runtime cost.
//! 2. **Sweep** — the full six-series figure-7(a) grid, which exercises the
//!    parallel sweep fan-out on multi-core hosts.
//!
//! `--json <path>` merges an `engine` section into the shared
//! `BENCH_results.json` (other sections are preserved).  `--floor <path>`
//! reads a checked-in floor (`{"events_per_sec": N}`) and exits non-zero if
//! the measured rate fell more than 30 % below it, so CI catches engine
//! regressions without flaking on runner-speed variance.

use saguaro_bench::{
    emit, flag_from_args, json_path_from_args, options_from_args, runtime_json, timed_run,
    JsonReport,
};
use saguaro_sim::experiment::ExperimentSpec;
use saguaro_sim::figures::{figure7, render_table, FigureOptions};
use saguaro_sim::json::JsonValue;
use saguaro_sim::protocol::ProtocolKind;
use std::path::PathBuf;
use std::time::Instant;

/// Tolerated slowdown against the checked-in floor before CI fails.
const FLOOR_TOLERANCE: f64 = 0.70;

/// Reads `{"events_per_sec": N}` from the floor file.
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let options = options_from_args(&args);
    let floor_path: Option<PathBuf> = flag_from_args(&args, "--floor", "a path");

    // 1. Hot path: one figure-7-style run.
    let mut spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).cross_domain(0.2);
    spec.seed = options.seed;
    if options.quick {
        spec = spec.quick().load(1_200.0);
    }
    let run = timed_run(&spec);
    let events_per_sec = run.events_per_sec();

    // 2. Sweep: the six-curve figure-7(a) grid (parallel across cores).
    let sweep_options = FigureOptions {
        loads: options.loads.clone(),
        quick: options.quick,
        seed: options.seed,
    };
    let started = Instant::now();
    let series = figure7(0.2, &sweep_options);
    let sweep_wall = started.elapsed();
    let sweep_jobs = series.iter().map(|s| s.points.len()).sum::<usize>();

    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut table = String::new();
    table.push_str("# Engine wall-clock benchmark (figure-7 topology)\n");
    table.push_str(&format!(
        "single run : {} events in {:.1} ms -> {:.0} events/sec (committed {})\n",
        run.artifacts.events_processed,
        run.wall_ms,
        events_per_sec,
        run.artifacts.metrics.committed,
    ));
    table.push_str(&format!(
        "fig7a sweep: {} runs in {:.1} ms on {} thread(s)\n",
        sweep_jobs,
        sweep_wall.as_secs_f64() * 1e3,
        threads,
    ));
    emit("sim_engine", table);
    emit(
        "sim_engine_series",
        render_table("Figure 7(a) series used for the sweep timing", &series),
    );

    let mut report = JsonReport::new();
    let mut engine_fields = vec![("quick", JsonValue::Bool(options.quick))];
    engine_fields.extend(run.rate_fields());
    engine_fields.extend([
        ("sweep_jobs", JsonValue::Num(sweep_jobs as f64)),
        (
            "sweep_wall_ms",
            JsonValue::Num(sweep_wall.as_secs_f64() * 1e3),
        ),
        ("threads", JsonValue::Num(threads as f64)),
        ("runtime", runtime_json(&run.artifacts)),
    ]);
    report.add_value("engine", JsonValue::object(engine_fields));
    report.merge_into_if_requested(json_path_from_args(&args).as_ref());

    if let Some(floor_path) = floor_path {
        match read_floor(&floor_path) {
            Some(floor) => {
                let minimum = floor * FLOOR_TOLERANCE;
                if events_per_sec < minimum {
                    eprintln!(
                        "ENGINE REGRESSION: {events_per_sec:.0} events/sec is more than 30% \
                         below the floor of {floor:.0} (minimum {minimum:.0})"
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "engine floor ok: {events_per_sec:.0} events/sec >= {minimum:.0} \
                     (floor {floor:.0} - 30%)"
                );
            }
            None => {
                eprintln!("failed to read events_per_sec floor from {floor_path:?}");
                std::process::exit(1);
            }
        }
    }
}

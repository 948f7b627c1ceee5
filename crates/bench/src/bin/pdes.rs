//! Parallel-engine speedup benchmark: how much faster does the event engine
//! run a *single* simulation when it is split into one partition per edge
//! domain and advanced by worker threads than as one sequential partition?
//!
//! Two topologies, both under the coordinator stack with 20 % cross-domain
//! micropayments:
//!
//! 1. **figure-7 tree** — the paper's 4-edge-domain binary topology
//!    (5 partitions: 4 edge domains + the hub), per-actor clients.
//! 2. **wide flat tree** — 128 edge domains under one root (129
//!    partitions), aggregate-population clients.  This is where domain
//!    parallelism actually pays: the event population spreads across many
//!    independent shards.
//!
//! For each topology the binary times the sequential engine and the
//! parallel engine at 1, 2 and 4 workers (warm-up run first; the workloads
//! are deterministic per engine, so the timed runs repeat identical event
//! histories).  Speedup is the events/sec ratio against the sequential
//! baseline — a many-partition run processes a slightly different event
//! total (every partition draws from its own RNG stream), so wall-clock
//! alone would mislead.
//!
//! `--json <path>` merges a `pdes` section into the shared
//! `BENCH_results.json`.  `--min-speedup <x>` exits non-zero if the wide
//! topology's best parallel rate fell below `x ×` sequential — but only
//! when the host actually has ≥ 4 cores, so single-core containers can
//! still run the measurement without flaking.

use saguaro_bench::{emit, flag_from_args, json_path_from_args, options_from_args, JsonReport};
use saguaro_sim::experiment::ExperimentSpec;
use saguaro_sim::json::JsonValue;
use saguaro_sim::protocol::ProtocolKind;
use saguaro_types::PopulationConfig;

/// Worker-thread counts swept per topology (sequential baseline aside).
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Cores the host must expose before the `--min-speedup` gate is enforced.
const GATE_MIN_CORES: usize = 4;

/// One timed configuration: the shared warmed-up measurement plus this
/// binary's sweep bookkeeping (label, worker count).
struct Timed {
    label: String,
    workers: Option<usize>,
    run: saguaro_bench::TimedRun,
}

fn timed(label: &str, workers: Option<usize>, spec: &ExperimentSpec) -> Timed {
    Timed {
        label: label.to_string(),
        workers,
        run: saguaro_bench::timed_run(spec),
    }
}

/// Times the sequential baseline plus every swept worker count on one
/// topology; returns the rows in measurement order (sequential first).
fn sweep_topology(base: &ExperimentSpec) -> Vec<Timed> {
    let mut rows = vec![timed("sequential", None, base)];
    for workers in WORKER_COUNTS {
        rows.push(timed(
            &format!("parallel x{workers}"),
            Some(workers),
            &base.clone().parallel(workers),
        ));
    }
    rows
}

fn render_rows(title: &str, rows: &[Timed]) -> String {
    let baseline = rows[0].run.events_per_sec();
    let mut table = format!("# {title}\n");
    for row in rows {
        table.push_str(&format!(
            "{:<12} {:>9} events in {:>8.1} ms -> {:>9.0} events/sec  ({:.2}x, committed {})\n",
            row.label,
            row.run.artifacts.events_processed,
            row.run.wall_ms,
            row.run.events_per_sec(),
            row.run.events_per_sec() / baseline.max(1e-9),
            row.run.artifacts.metrics.committed,
        ));
    }
    table
}

fn rows_to_json(rows: &[Timed]) -> JsonValue {
    let baseline = rows[0].run.events_per_sec();
    JsonValue::Array(
        rows.iter()
            .map(|row| {
                let (windows, cross_messages) = row
                    .run
                    .artifacts
                    .pdes
                    .as_ref()
                    .map(|p| (p.windows, p.cross_messages))
                    .unwrap_or((0, 0));
                let mut fields = vec![
                    ("label", JsonValue::Str(row.label.clone())),
                    ("workers", JsonValue::Num(row.workers.unwrap_or(0) as f64)),
                ];
                fields.extend(row.run.rate_fields());
                fields.extend([
                    (
                        "speedup",
                        JsonValue::Num(row.run.events_per_sec() / baseline.max(1e-9)),
                    ),
                    ("windows", JsonValue::Num(windows as f64)),
                    ("cross_messages", JsonValue::Num(cross_messages as f64)),
                ]);
                JsonValue::object(fields)
            })
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let options = options_from_args(&args);
    let min_speedup: Option<f64> = flag_from_args(&args, "--min-speedup", "a number");
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // 1. The paper's figure-7 tree: 4 edge domains + hub (5 partitions).
    let mut fig7 = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).cross_domain(0.2);
    fig7.seed = options.seed;
    if options.quick {
        fig7 = fig7.quick().load(1_200.0);
    }
    let fig7_rows = sweep_topology(&fig7);

    // 2. The 128-domain flat tree (129 partitions) under an aggregate
    //    client population — the wide-topology case the parallel engine is
    //    built for.  The population scales load with the domain count so
    //    each shard has real work.
    let (users, per_user) = if options.quick {
        (120_000, 0.05)
    } else {
        (400_000, 0.05)
    };
    let population = PopulationConfig::with_users(users)
        .per_user(per_user)
        .sampled_every(16);
    let mut wide = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .shaped(2, 128)
        .cross_domain(0.2)
        .aggregate(population);
    wide.seed = options.seed;
    if options.quick {
        wide = wide.quick();
    }
    let wide_rows = sweep_topology(&wide);

    emit(
        "pdes_fig7",
        render_rows(
            "Parallel-engine speedup, figure-7 tree (5 partitions)",
            &fig7_rows,
        ),
    );
    emit(
        "pdes_wide",
        render_rows(
            &format!(
                "Parallel-engine speedup, 128-domain flat tree (129 partitions, {threads} core(s))"
            ),
            &wide_rows,
        ),
    );

    let best_wide = wide_rows[1..]
        .iter()
        .max_by(|a, b| a.run.events_per_sec().total_cmp(&b.run.events_per_sec()))
        .expect("worker sweep is non-empty");
    let wide_speedup = best_wide.run.events_per_sec() / wide_rows[0].run.events_per_sec().max(1e-9);

    let mut report = JsonReport::new();
    report.add_value(
        "pdes",
        JsonValue::object([
            ("quick", JsonValue::Bool(options.quick)),
            ("threads", JsonValue::Num(threads as f64)),
            ("figure7", rows_to_json(&fig7_rows)),
            ("wide_128", rows_to_json(&wide_rows)),
            ("wide_best_speedup", JsonValue::Num(wide_speedup)),
        ]),
    );
    report.merge_into_if_requested(json_path_from_args(&args).as_ref());

    if let Some(min_speedup) = min_speedup {
        if threads < GATE_MIN_CORES {
            eprintln!(
                "pdes speedup gate skipped: host has {threads} core(s), \
                 gate needs {GATE_MIN_CORES}"
            );
        } else if wide_speedup < min_speedup {
            eprintln!(
                "PDES REGRESSION: best wide-topology speedup {wide_speedup:.2}x \
                 is below the {min_speedup:.2}x floor ({} on {threads} cores)",
                best_wide.label
            );
            std::process::exit(1);
        } else {
            eprintln!(
                "pdes speedup ok: {wide_speedup:.2}x >= {min_speedup:.2}x \
                 ({} on {threads} cores)",
                best_wide.label
            );
        }
    }
}

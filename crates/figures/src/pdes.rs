//! The `pdes` row: how much faster does the event engine run a *single*
//! simulation when it is split into one partition per edge domain and
//! advanced by worker threads than as one sequential partition?
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
//! For each topology the row times the sequential engine and the parallel
//! engine at 1, 2 and 4 workers (warm-up run first; the workloads are
//! deterministic per engine, so the timed runs repeat identical event
//! histories).  Speedup is the events/sec ratio against the sequential
//! baseline — a many-partition run processes a slightly different event
//! total (every partition draws from its own RNG stream), so wall-clock
//! alone would mislead.  `windows` and `cross_msgs` say how often the
//! barrier was paid and how much traffic crossed it.
//!
//! Nothing is gated: whether the parallel engine earns its keep is
//! ROADMAP's open decision, and it needs a host with at least 4 cores.

use crate::{Options, Outcome};
use saguaro_sim::experiment::{ExperimentSpec, RunArtifacts};
use saguaro_sim::protocol::ProtocolKind;
use saguaro_types::PopulationConfig;

/// Worker-thread counts swept per topology (sequential baseline aside).
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// One timed configuration.
struct Timed {
    label: String,
    artifacts: RunArtifacts,
    wall_ms: f64,
}

impl Timed {
    /// Simulator events processed per wall-clock second.
    fn events_per_sec(&self) -> f64 {
        self.artifacts.events_processed as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

/// Runs `spec` once untimed (so allocator and page-cache effects stay out
/// of the measured rate) and once timed.
fn timed(label: &str, spec: &ExperimentSpec) -> Timed {
    let _ = spec.run_collecting();
    let started = std::time::Instant::now();
    let artifacts = spec.run_collecting();
    Timed {
        label: label.to_string(),
        artifacts,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Times the sequential baseline plus every swept worker count on one
/// topology; returns the rows in measurement order (sequential first).
fn sweep_topology(base: &ExperimentSpec) -> Vec<Timed> {
    let mut rows = vec![timed("sequential", base)];
    for workers in WORKER_COUNTS {
        rows.push(timed(
            &format!("parallel x{workers}"),
            &base.clone().parallel(workers),
        ));
    }
    rows
}

fn render_rows(title: &str, rows: &[Timed]) -> String {
    let baseline = rows[0].events_per_sec();
    let mut table = format!("# {title}\n");
    for row in rows {
        let (windows, cross_messages) = row
            .artifacts
            .pdes
            .as_ref()
            .map_or((0, 0), |p| (p.windows, p.cross_messages));
        table.push_str(&format!(
            "{:<12} {:>9} events in {:>8.1} ms -> {:>9.0} events/sec  \
             ({:.2}x, committed {}, windows {windows}, cross_msgs {cross_messages})\n",
            row.label,
            row.artifacts.events_processed,
            row.wall_ms,
            row.events_per_sec(),
            row.events_per_sec() / baseline.max(1e-9),
            row.artifacts.metrics.committed,
        ));
    }
    table
}

/// Times both topologies and renders their speed-up tables.
pub fn run(options: &Options) -> Outcome {
    let (quick, seed) = (options.figure.quick, options.figure.seed);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // 1. The paper's figure-7 tree: 4 edge domains + hub (5 partitions).
    let mut fig7 = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).cross_domain(0.2);
    fig7.seed = seed;
    if quick {
        fig7 = fig7.quick().load(1_200.0);
    }

    // 2. The 128-domain flat tree (129 partitions) under an aggregate
    //    client population — the wide-topology case the parallel engine is
    //    built for.  The population scales load with the domain count so
    //    each shard has real work.
    let users = if quick { 120_000 } else { 400_000 };
    let population = PopulationConfig::with_users(users)
        .per_user(0.05)
        .sampled_every(16);
    let mut wide = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .shaped(2, 128)
        .cross_domain(0.2)
        .aggregate(population);
    wide.seed = seed;
    if quick {
        wide = wide.quick();
    }

    Outcome {
        tables: vec![
            render_rows(
                "Parallel-engine speedup, figure-7 tree (5 partitions)",
                &sweep_topology(&fig7),
            ),
            render_rows(
                &format!(
                    "Parallel-engine speedup, 128-domain flat tree (129 partitions, {threads} core(s))"
                ),
                &sweep_topology(&wide),
            ),
        ],
        failures: Vec::new(),
    }
}

//! The `population` row: population-scale load generation.
//!
//! Sweeps aggregate client populations of 10³ → 10⁵ modeled users (10⁶ in
//! full mode) over progressively wider topologies — up to 128 height-1
//! domains — and reports throughput, streaming-histogram latency quantiles,
//! engine cost (events per committed transaction, event-queue high-water
//! mark) and host-side cost (wall clock, resident set) per point.
//!
//! The [`scale_gate`] makes the row self-checking so CI fails loudly
//! instead of silently shipping a regression.

use crate::table::{num, right, table, Column};
use crate::{Options, Outcome};
use saguaro_sim::{ExperimentSpec, ProtocolKind, RunArtifacts};
use saguaro_types::PopulationConfig;

/// Wall-clock ceiling for the 10⁵-user quick point (generous: CI runners
/// are slow and shared, and the point takes well under a second locally).
const QUICK_WALL_CEILING_MS: f64 = 60_000.0;

/// Resident-set ceiling after the 10⁵-user quick point, in KiB (2 GiB).
/// The aggregate model keeps no per-transaction state, so blowing through
/// this means a completions buffer crept back in somewhere.
const QUICK_RSS_CEILING_KB: u64 = 2 * 1024 * 1024;

/// One modeled-population size of the sweep.
#[derive(Clone, Debug)]
struct PopulationPoint {
    /// Modeled users across the whole deployment.
    users: u64,
    /// Height-1 domains of the (2, fanout) topology the point ran on.
    domains: u64,
    /// Throughput and streaming-histogram latency quantiles.
    metrics: saguaro_sim::RunMetrics,
    /// High-water mark of the client-side in-flight map — the only
    /// per-transaction state the aggregate model keeps, O(1) in the
    /// transaction count by construction; the gate enforces it.
    peak_inflight: u64,
    /// Events per committed transaction (engine cost per unit of work).
    events_per_tx: f64,
    /// Wall-clock time of the run (host milliseconds, not virtual time).
    wall_ms: f64,
    /// Resident set size after the run (`VmRSS`, KiB; 0 where unavailable).
    resident_kb: u64,
}

/// The `(users, fanout)` grid: modeled users grow 10³ → 10⁵ (10⁶ in full
/// mode) while the topology widens to 128 height-1 domains, so the largest
/// points stress both the aggregate arrival processes and wide fan-out
/// deployment.
fn population_grid(quick: bool) -> Vec<(u64, usize)> {
    let mut grid = vec![(1_000, 16), (10_000, 64), (100_000, 128)];
    if !quick {
        grid.push((1_000_000, 128));
    }
    grid
}

impl PopulationPoint {
    /// The point of a finished run that took `wall` of host time.
    fn new(users: u64, fanout: usize, art: &RunArtifacts, wall: std::time::Duration) -> Self {
        let tally = art
            .population
            .as_ref()
            .expect("aggregate runs always carry a population tally");
        let events_per_tx = if art.metrics.committed > 0 {
            art.events_processed as f64 / art.metrics.committed as f64
        } else {
            0.0
        };
        Self {
            users,
            domains: fanout as u64,
            metrics: art.metrics.clone(),
            peak_inflight: tally.peak_inflight as u64,
            events_per_tx,
            wall_ms: wall.as_secs_f64() * 1e3,
            resident_kb: resident_kb(),
        }
    }
}

/// Aggregate clients of `users` modeled users on a (2, `fanout`) topology.
fn population_spec(users: u64, fanout: usize, options: &Options) -> ExperimentSpec {
    options
        .spec(ProtocolKind::SaguaroCoordinator)
        .shaped(2, fanout)
        .aggregate(PopulationConfig::with_users(users))
}

/// Current resident set size in KiB (`VmRSS` from `/proc/self/status`);
/// 0 on platforms without procfs.
pub fn resident_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmRSS:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

const COLUMNS: &[Column<PopulationPoint>] = &[
    right("users", 9, |p| p.users.into()),
    right("domains", 8, |p| p.domains.into()),
    right("offered_tps", 12, |p| num(p.metrics.offered_tps, 0)),
    right("throughput_tps", 14, |p| num(p.metrics.throughput_tps, 0)),
    right("p50_ms", 10, |p| num(p.metrics.p50_latency_ms, 3)),
    right("p95_ms", 10, |p| num(p.metrics.p95_latency_ms, 3)),
    right("p99_ms", 10, |p| num(p.metrics.p99_latency_ms, 3)),
    right("events_per_tx", 13, |p| num(p.events_per_tx, 1)),
    right("peak_inflight", 12, |p| p.peak_inflight.into()),
    right("wall_ms", 10, |p| num(p.wall_ms, 0)),
    right("rss_mb", 9, |p| num(p.resident_kb as f64 / 1024.0, 0)),
];

/// The scale gate: the 10⁵-user point exists, committed work, kept
/// client-side memory O(1) in the transaction count, and stayed under the
/// wall-clock / resident-set ceilings.  Returns an error string per
/// violated condition.
fn scale_gate(points: &[PopulationPoint], quick: bool) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(p) = points.iter().find(|p| p.users == 100_000) else {
        return vec!["no 10^5-user point in the sweep".to_string()];
    };
    if p.domains < 100 {
        errors.push(format!(
            "10^5-user point ran on {} domains, need >= 100",
            p.domains
        ));
    }
    if p.metrics.committed == 0 {
        errors.push("10^5-user point committed nothing".to_string());
    }
    // O(1) client-side memory: the in-flight map's high-water mark tracks
    // concurrency (offered rate x latency), not history.  A per-transaction
    // buffer would scale with `committed` instead.
    let inflight_ceiling = p.metrics.committed / 4 + 256;
    if p.peak_inflight > inflight_ceiling {
        errors.push(format!(
            "peak in-flight {} exceeds {} (committed {}): client-side state \
             is scaling with transaction count",
            p.peak_inflight, inflight_ceiling, p.metrics.committed
        ));
    }
    if quick {
        if p.wall_ms > QUICK_WALL_CEILING_MS {
            errors.push(format!(
                "10^5-user quick point took {:.0} ms (ceiling {:.0} ms)",
                p.wall_ms, QUICK_WALL_CEILING_MS
            ));
        }
        if p.resident_kb > QUICK_RSS_CEILING_KB {
            errors.push(format!(
                "resident set {} KiB exceeds ceiling {} KiB",
                p.resident_kb, QUICK_RSS_CEILING_KB
            ));
        }
    }
    errors
}

/// Runs the sweep and prints its table.  Points run one after another —
/// unlike the grid rows — because each point's wall-clock and resident-set
/// readings must not include its neighbours.
pub fn run(options: &Options) -> Outcome {
    let points: Vec<PopulationPoint> = population_grid(options.quick)
        .into_iter()
        .map(|(users, fanout)| {
            let started = std::time::Instant::now();
            let art = population_spec(users, fanout, options).run_collecting();
            PopulationPoint::new(users, fanout, &art, started.elapsed())
        })
        .collect();
    Outcome {
        tables: vec![table(
            "Population-scale load generation sweep",
            COLUMNS,
            &points,
        )],
        failures: scale_gate(&points, options.quick),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10⁵-user point that passes every scale condition.
    fn passing() -> PopulationPoint {
        PopulationPoint {
            users: 100_000,
            domains: 128,
            metrics: saguaro_sim::RunMetrics {
                committed: 10_000,
                ..Default::default()
            },
            peak_inflight: 3,
            events_per_tx: 25.0,
            wall_ms: 500.0,
            resident_kb: 160 * 1024,
        }
    }

    #[test]
    fn each_scale_condition_fails_with_its_message() {
        crate::assert_each_violation_reported(
            &passing(),
            |p| scale_gate(std::slice::from_ref(p), true),
            &[
                (|p| p.users = 10_000, "no 10^5-user point in the sweep"),
                (|p| p.domains = 64, "ran on 64 domains, need >= 100"),
                (|p| p.metrics.committed = 0, "committed nothing"),
                (
                    |p| p.peak_inflight = 2_757,
                    "peak in-flight 2757 exceeds 2756",
                ),
                (|p| p.wall_ms = 60_001.0, "took 60001 ms (ceiling 60000 ms)"),
                (
                    |p| p.resident_kb = QUICK_RSS_CEILING_KB + 1,
                    "exceeds ceiling 2097152 KiB",
                ),
            ],
        );
        // The wall-clock and resident-set ceilings are quick-mode only.
        let mut slow = passing();
        slow.wall_ms = 600_000.0;
        assert_eq!(scale_gate(&[slow], false), [""; 0]);
    }

    #[test]
    fn population_grid_reaches_a_hundred_plus_domains() {
        let quick = population_grid(true);
        assert!(
            quick
                .iter()
                .any(|(users, domains)| *users == 100_000 && *domains >= 100),
            "quick mode must still cover the 10^5-user, 100+-domain point"
        );
        let full = population_grid(false);
        assert!(full.iter().any(|(users, _)| *users == 1_000_000));
        assert!(full.len() > quick.len());
    }

    #[test]
    fn population_smoke_point_reports_engine_cost() {
        let art = population_spec(2_000, 8, &crate::quick()).run_collecting();
        let point = PopulationPoint::new(2_000, 8, &art, std::time::Duration::ZERO);
        assert_eq!(point.users, 2_000);
        assert_eq!(point.domains, 8);
        assert!(point.metrics.committed > 0);
        assert!(point.events_per_tx > 0.0);
        assert!(art.peak_pending_events > 0);
        let submitted = art.population.as_ref().map_or(0, |tally| tally.submitted);
        assert!(submitted >= point.metrics.committed);
        let table = table("population", COLUMNS, &[point]);
        assert!(table.contains("events_per_tx"));
    }
}

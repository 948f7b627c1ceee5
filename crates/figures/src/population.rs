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

use crate::{Options, Outcome};
use saguaro_sim::figures::{population, render_population_table, PopulationPoint};

/// Wall-clock ceiling for the 10⁵-user quick point (generous: CI runners
/// are slow and shared, and the point takes well under a second locally).
const QUICK_WALL_CEILING_MS: f64 = 60_000.0;

/// Resident-set ceiling after the 10⁵-user quick point, in KiB (2 GiB).
/// The aggregate model keeps no per-transaction state, so blowing through
/// this means a completions buffer crept back in somewhere.
const QUICK_RSS_CEILING_KB: u64 = 2 * 1024 * 1024;

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

/// Runs the sweep and prints its table.
pub fn run(options: &Options) -> Outcome {
    let points = population(&options.figure);
    Outcome {
        tables: vec![render_population_table(
            "Population-scale load generation sweep",
            &points,
        )],
        failures: scale_gate(&points, options.figure.quick),
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
            submitted: 10_000,
            sampled: 10_000,
            peak_inflight: 3,
            peak_pending_events: 200,
            events_processed: 250_000,
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
}

//! The `stability` subcommand: how far the simulated end-to-end metrics move
//! from seed to seed.  No repetitions and no host times — one pass per seed.

use crate::measure::{repetition, sim_metrics, untouched, SimMetrics};
use crate::workloads::Workload;

/// Seeds each workload is run at.
pub const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;
/// Largest allowed `(max − min) ÷ median` of a simulated metric.
pub const MAX_RANGE: f64 = 0.10;
/// How far (as a share of the limit) every `bft_ladder` rung's p99 must
/// stay from the latency limit, so no seed flips `slo_tps`.
pub const LADDER_MARGIN: f64 = 0.25;
/// The band `crash_pruned`'s stalled share must stay in, so that its tail
/// percentile lies inside the stall tail and not on its edge.
pub const STALLED_BAND: (f64, f64) = (0.04, 0.10);

/// One workload's result.
pub struct Stability {
    /// The workload.
    pub workload: Workload,
    /// Its simulated metrics at each seed.
    pub per_seed: Vec<(u64, SimMetrics)>,
    /// What fell outside the limits.
    pub failures: Vec<String>,
}

fn range_over_median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = (sorted[(sorted.len() - 1) / 2] + sorted[sorted.len() / 2]) / 2.0;
    (sorted[sorted.len() - 1] - sorted[0]) / median
}

/// Runs `workload` once at every seed of [`SEEDS`] and checks the limits.
pub fn check(workload: Workload) -> Result<Stability, String> {
    let mut failures = Vec::new();
    let mut per_seed = Vec::new();
    for seed in SEEDS {
        let cells = workload.cells(seed);
        let outcomes = repetition(&cells, &untouched)?.outcomes;
        let sim = sim_metrics(workload, &cells, &outcomes);
        if let Some(limit) = workload.slo_p99_limit_ms() {
            for (cell, outcome) in cells.iter().zip(&outcomes) {
                let p99 = outcome.quantile_ms(0.99);
                if (p99 - limit).abs() < LADDER_MARGIN * limit {
                    failures.push(format!(
                        "{}/{} seed {seed}: p99 {p99:.1} ms is within {LADDER_MARGIN} of the {limit} ms limit",
                        workload.name(),
                        cell.name
                    ));
                }
            }
        }
        if workload == Workload::CrashPruned
            && !(STALLED_BAND.0..=STALLED_BAND.1).contains(&sim.stalled_share)
        {
            failures.push(format!(
                "{} seed {seed}: stalled share {:.4} is outside {STALLED_BAND:?}",
                workload.name(),
                sim.stalled_share
            ));
        }
        per_seed.push((seed, sim));
    }
    type Getter = fn(&SimMetrics) -> f64;
    let metrics: [(&str, Getter); 5] = [
        ("commit_tps", |m| m.commit_tps),
        ("commit_p50_ms", |m| m.commit_p50_ms),
        ("commit_tail_ms", |m| m.commit_tail_ms),
        ("committed_share", |m| m.committed_share),
        ("slo_tps", |m| m.slo_tps),
    ];
    for (name, get) in metrics {
        let values: Vec<f64> = per_seed.iter().map(|(_, m)| get(m)).collect();
        let range = range_over_median(&values);
        if range.is_nan() || range > MAX_RANGE {
            failures.push(format!(
                "{} {name}: (max - min) / median = {range:.4} exceeds {MAX_RANGE}",
                workload.name()
            ));
        }
    }
    Ok(Stability {
        workload,
        per_seed,
        failures,
    })
}

/// Prints one workload's table.
pub fn print(result: &Stability) {
    println!("# stability {}", result.workload.name());
    println!(
        "{:>4} {:>12} {:>13} {:>14} {:>8} {:>15} {:>9} {:>13}",
        "seed",
        "commit_tps",
        "commit_p50_ms",
        "commit_tail_ms",
        "samples",
        "committed_share",
        "slo_tps",
        "stalled_share"
    );
    for (seed, m) in &result.per_seed {
        println!(
            "{seed:>4} {:>12.2} {:>13.4} {:>14.4} {:>8} {:>15.5} {:>9.0} {:>13.5}",
            m.commit_tps,
            m.commit_p50_ms,
            m.commit_tail_ms,
            m.latency_samples,
            m.committed_share,
            m.slo_tps,
            m.stalled_share
        );
    }
    for failure in &result.failures {
        println!("FAIL {failure}");
    }
}

//! The `aa` subcommand: two interleaved sets of child-process invocations
//! of the same build (A B A B …), to show that same-code runs agree within
//! the benchmark's own bounds before anyone compares two commits with it.

use crate::cli::RUN_SECONDS;
use crate::report::END_TO_END;
use crate::workloads::Workload;
use saguaro_sim::JsonValue;
use std::process::Command;

/// Invocations per set and workload.  A driver gives every run another
/// seed, so run `i` of set A is made at seed `1 + i` and run `i` of set B at
/// seed `1 + PER_SET + i`: the medians must agree across seeds, too.
pub const PER_SET: u64 = 10;

/// Where the report goes: `AA.json` beside the crate's manifest.
pub const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/AA.json");

/// One metric of one workload, compared across the two sets.
pub struct Comparison {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Quartiles (Q1, median, Q3) of set A and set B.
    pub quartiles: [[f64; 3]; 2],
    /// `|median B − median A| ÷ median A`.
    pub delta: f64,
    /// The larger of the two sets' `(Q3 − Q1) ÷ median`.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Comparison {
    /// True when the medians agree and both spreads stay within the bound.
    /// The spread of `setup_s` is reported but, as in the driver, not held
    /// against it.
    pub fn within_bounds(&self) -> bool {
        self.delta <= self.bound && (self.metric == "setup_s" || self.spread <= self.bound)
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [1, 2, 3].map(|k| {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let below = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - below as f64;
        sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
    })
}

/// Runs this executable once in driver form and returns its end-to-end
/// metric values in registry order.
fn invoke(workload: Workload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    // `output` waits for the child to end.
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a child invocation: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let parsed = JsonValue::parse(line).ok_or_else(|| format!("not a result line: {line}"))?;
    let field = |value: &JsonValue, key: &str| match value {
        JsonValue::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone()),
        _ => None,
    };
    let metrics = field(&parsed, "metrics").ok_or("the result line has no metrics")?;
    END_TO_END
        .iter()
        .map(
            |entry| match field(&metrics, entry.name).and_then(|m| field(&m, "value")) {
                Some(JsonValue::Num(value)) => Ok(value),
                _ => Err(format!("the result line has no {}", entry.name)),
            },
        )
        .collect()
}

/// Runs both sets for every workload and compares them.
pub fn run() -> Result<Vec<Comparison>, String> {
    let mut comparisons = Vec::new();
    for workload in Workload::ALL {
        // sets[set][metric] = that metric's values over the set's runs.
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..PER_SET {
            for (set, first_seed) in sets.iter_mut().zip([1, 1 + PER_SET]) {
                let values = invoke(workload, first_seed + i)?;
                for (column, value) in set.iter_mut().zip(values) {
                    column.push(value);
                }
                eprint!(".");
            }
        }
        eprintln!(" {}", workload.name());
        for (index, entry) in END_TO_END.iter().enumerate() {
            let quartiles = [quartiles(&sets[0][index]), quartiles(&sets[1][index])];
            let [a, b] = quartiles;
            comparisons.push(Comparison {
                workload: workload.name(),
                metric: entry.name,
                quartiles,
                delta: (b[1] - a[1]).abs() / a[1],
                spread: ((a[2] - a[0]) / a[1]).max((b[2] - b[0]) / b[1]),
                bound: entry.bound,
            });
        }
    }
    Ok(comparisons)
}

/// Prints the comparison as a table.
pub fn print(comparisons: &[Comparison]) {
    println!(
        "{:<13} {:<18} {:>12} {:>12} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "|d|/med", "spread", "bound"
    );
    for c in comparisons {
        println!(
            "{:<13} {:<18} {:>12.5} {:>12.5} {:>9.5} {:>9.5} {:>7.3}  {}",
            c.workload,
            c.metric,
            c.quartiles[0][1],
            c.quartiles[1][1],
            c.delta,
            c.spread,
            c.bound,
            if c.within_bounds() {
                "ok"
            } else {
                "OUT OF BOUNDS"
            }
        );
    }
}

/// Renders the comparison as the JSON committed in `AA.json`.
pub fn to_json(comparisons: &[Comparison]) -> String {
    let triple = |q: [f64; 3]| JsonValue::Array(q.iter().map(|v| JsonValue::Num(*v)).collect());
    let rows = comparisons
        .iter()
        .map(|c| {
            JsonValue::object([
                ("workload", JsonValue::Str(c.workload.to_string())),
                ("metric", JsonValue::Str(c.metric.to_string())),
                ("a_q1_median_q3", triple(c.quartiles[0])),
                ("b_q1_median_q3", triple(c.quartiles[1])),
                ("delta_over_median", JsonValue::Num(c.delta)),
                ("spread_over_median", JsonValue::Num(c.spread)),
                ("bound", JsonValue::Num(c.bound)),
                ("within_bounds", JsonValue::Bool(c.within_bounds())),
            ])
        })
        .collect();
    JsonValue::object([
        ("runs_per_set", JsonValue::Num(PER_SET as f64)),
        ("seconds", JsonValue::Num(RUN_SECONDS as f64)),
        (
            "host_threads",
            JsonValue::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("comparisons", JsonValue::Array(rows)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn setup_spread_is_not_held_against_the_run() {
        let mut c = Comparison {
            workload: "w",
            metric: "setup_s",
            quartiles: [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
            delta: 0.0,
            spread: 1.0,
            bound: 0.25,
        };
        assert!(c.within_bounds());
        c.metric = "run_cal";
        assert!(!c.within_bounds());
    }
}

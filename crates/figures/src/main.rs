//! `figures` — the one driver that regenerates the paper's evaluation
//! (Figures 7–13), the ablations and every behaviour gate built on them.
//!
//! ```text
//! figures list
//! figures <row>… | all  [--quick] [--seed <n>] [--trace <path>]
//! ```
//!
//! Every row of [`ROWS`] is one figure or gate.  The named rows run in table
//! order in one process; each prints its tables to stdout, and a row whose
//! gate fails is reported on stderr as `FAILED <row> seed <n>: <message>`
//! once *every* requested row has run.  Exit status: 0, 1 (a gate failed) or
//! 2 (bad arguments — nothing ran).
//!
//! `--quick` shrinks the measurement windows and the load grid so a row
//! regenerates in seconds (used by CI); `--seed <n>` changes the RNG seed
//! (42 when absent); `--trace <path>` writes the `trace` row's Chrome
//! trace-event export (load it at <https://ui.perfetto.dev>).
//!
//! Host performance is not measured here: that is `benchmark/`'s job.

#![forbid(unsafe_code)]

mod endurance;
mod faults;
mod grid;
mod population;
mod recovery;
mod scenarios;
mod sweeps;
mod table;
mod timeouts;
mod trace;

use saguaro_hierarchy::Placement;
use saguaro_sim::{ExperimentSpec, ProtocolKind};
use saguaro_types::FailureModel::{Byzantine, Crash};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// What every row runs with.
pub struct Options {
    /// `--quick`: the abbreviated measurement windows and load grid.
    pub quick: bool,
    /// `--seed <n>` (42 when absent).
    pub seed: u64,
    /// `--trace <path>`: where the `trace` row writes its Chrome export.
    pub trace: Option<PathBuf>,
}

impl Options {
    /// The offered loads (tx/s) every figure sweep runs.
    pub fn loads(&self) -> &'static [f64] {
        if self.quick {
            &[600.0, 1_200.0]
        } else {
            &[1_000.0, 2_000.0, 4_000.0, 8_000.0, 12_000.0]
        }
    }

    /// A spec of `protocol` with this run's seed, shrunk under `--quick`.
    pub fn spec(&self, protocol: ProtocolKind) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(protocol);
        spec.seed = self.seed;
        if self.quick {
            spec = spec.quick();
        }
        spec
    }
}

/// What a row produced: its tables, and one message per violated gate
/// condition (empty for rows that gate nothing).
pub struct Outcome {
    /// Rendered tables, printed in order under a banner line each.
    pub tables: Vec<String>,
    /// Violated gate conditions; any makes the driver exit 1.
    pub failures: Vec<String>,
}

/// One figure or gate the driver can run.
pub struct Row {
    /// What to type: `figures <name>`.
    pub name: &'static str,
    /// One line for `figures list`.
    pub about: &'static str,
    /// Runs the row; never panics on a run's outcome.
    pub run: fn(&Options) -> Outcome,
}

/// Every row, in the order `all` runs them.
pub const ROWS: &[Row] = &[
    Row {
        name: "7",
        about: "Figure 7: cross-domain transactions, crash-only domains, nearby regions",
        run: |o| sweeps::cross_domain(o, 7, Crash),
    },
    Row {
        name: "8",
        about: "Figure 8: cross-domain transactions, Byzantine domains, nearby regions",
        run: |o| sweeps::cross_domain(o, 8, Byzantine),
    },
    Row {
        name: "9",
        about: "Figure 9: mobile devices (0/20/80/100 % mobile clients), nearby regions",
        run: |o| sweeps::mobile(o, 9, Placement::NearbyRegions),
    },
    Row {
        name: "10",
        about: "Figure 10: scalability over seven far-apart regions, 10 % cross-domain",
        run: sweeps::wide_area,
    },
    Row {
        name: "11",
        about: "Figure 11: mobile devices over the wide-area placement",
        run: |o| sweeps::mobile(o, 11, Placement::WideArea),
    },
    Row {
        name: "12",
        about: "Figure 12: fault-tolerance scalability, crash-only domains of 5 and 9 replicas",
        run: |o| sweeps::fault_tolerance(o, 12, Crash),
    },
    Row {
        name: "13",
        about: "Figure 13: fault-tolerance scalability, Byzantine domains of 7 and 13 replicas",
        run: |o| sweeps::fault_tolerance(o, 13, Byzantine),
    },
    Row {
        name: "ablation",
        about: "LCA vs fixed-root coordinator; contention sensitivity of the optimistic protocol",
        run: sweeps::ablation,
    },
    Row {
        name: "ablation_batch",
        about: "consensus block size vs committed throughput at saturation, all four stacks",
        run: sweeps::ablation_batch,
    },
    Row {
        name: "workloads",
        about: "micropayment vs ridesharing under one stack and engine (not a paper figure)",
        run: sweeps::workloads,
    },
    Row {
        name: "faults",
        about: "leader crash + recovery timeline per stack; gate: the crash drives a view change",
        run: faults::run,
    },
    Row {
        name: "recovery",
        about: "state-transfer catch-up vs outage length; gates: caught up, votes bounded",
        run: recovery::run,
    },
    Row {
        name: "timeout_sweep",
        about: "suspicion floors 10-60 ms (5-120 full); gates: cells recover, 30 ms within 2x",
        run: timeouts::run,
    },
    Row {
        name: "scenarios",
        about: "adversarial scenario matrix under 60 and 30 ms floors; gate: no safety violation",
        run: scenarios::run,
    },
    Row {
        name: "population",
        about: "10^3-10^5 (10^6 full) modeled users on up to 128 domains; gate: scale",
        run: population::run,
    },
    Row {
        name: "endurance",
        about: "long pruned runs with a mid-run outage; gates: volume, chains, catch-up, RSS",
        run: endurance::run,
    },
    Row {
        name: "trace",
        about: "traced chaos run; gates: every category fires, the Chrome export parses",
        run: trace::run,
    },
];

/// The value of `flag`, taken from the argument after it: the reason when
/// that is missing (the arguments end, or another flag follows) or does not
/// parse — `expected` names what would have.
fn flag_value<T: FromStr>(value: Option<&String>, flag: &str, expected: &str) -> Result<T, String> {
    let value = value.filter(|v| !v.starts_with("--"));
    value.and_then(|v| v.parse().ok()).ok_or_else(|| {
        let got = value.map_or("nothing".into(), |v| format!("{v:?}"));
        format!("{flag}: expected {expected}, got {got}")
    })
}

/// Turns the arguments into the rows to run (in table order) and their
/// options, or the one line that says what is wrong with them.
fn parse(args: &[String]) -> Result<(Vec<&'static Row>, Options), String> {
    let row_names = || ROWS.iter().map(|r| r.name).collect::<Vec<_>>().join(" ");
    let mut names: Vec<&str> = Vec::new();
    let (mut quick, mut seed, mut trace) = (false, None, None);
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => seed = Some(flag_value(rest.next(), "--seed", "an unsigned integer")?),
            "--trace" => trace = Some(flag_value(rest.next(), "--trace", "a path")?),
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "{flag}: unknown flag (flags are --quick, --seed <n>, --trace <path>)"
                ))
            }
            "list" => return Err("list: takes no other arguments".to_string()),
            name if names.contains(&name) => return Err(format!("{name}: row named twice")),
            name if name == "all" || ROWS.iter().any(|r| r.name == name) => names.push(name),
            name => {
                return Err(format!(
                    "unknown figure {name:?}; rows are: {}",
                    row_names()
                ))
            }
        }
    }
    let all = names.contains(&"all");
    if names.is_empty() {
        return Err(format!(
            "no figure named; rows are: {} (or all)",
            row_names()
        ));
    }
    if all && names.len() > 1 {
        return Err("all: already names every row".to_string());
    }
    let rows: Vec<&Row> = ROWS
        .iter()
        .filter(|r| all || names.contains(&r.name))
        .collect();
    if trace.is_some() && !rows.iter().any(|r| r.name == "trace") {
        return Err("--trace: needs the \"trace\" row (or all) among the rows".to_string());
    }
    let seed = seed.unwrap_or(42);
    Ok((rows, Options { quick, seed, trace }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        for row in ROWS {
            println!("{:<15} {}", row.name, row.about);
        }
        return ExitCode::SUCCESS;
    }
    let (rows, options) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut failures = Vec::new();
    for row in rows {
        let outcome = (row.run)(&options);
        for table in &outcome.tables {
            println!("{}", "=".repeat(78));
            println!("{table}");
        }
        failures.extend(outcome.failures.into_iter().map(|m| (row.name, m)));
    }
    for (row, message) in &failures {
        eprintln!("FAILED {row} seed {}: {message}", options.seed);
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The options `--quick` parses to, for the row unit tests.
#[cfg(test)]
fn quick() -> Options {
    Options {
        quick: true,
        seed: 42,
        trace: None,
    }
}

/// One case of a gate unit test: how to break a passing outcome, and what
/// the gate must then say.
#[cfg(test)]
type Violation<T> = (fn(&mut T), &'static str);

/// For the gate unit tests: `gate` passes `good`, and after each violation
/// reports exactly one failure, which contains that case's message.
#[cfg(test)]
fn assert_each_violation_reported<T: Clone>(
    good: &T,
    gate: impl Fn(&T) -> Vec<String>,
    cases: &[Violation<T>],
) {
    assert_eq!(gate(good), [""; 0]);
    for (violate, message) in cases {
        let mut bad = good.clone();
        violate(&mut bad);
        let errors = gate(&bad);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains(message), "{errors:?} lacks {message:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<(Vec<&'static str>, Options), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|(rows, options)| (rows.iter().map(|r| r.name).collect(), options))
    }

    #[test]
    fn quick_flag_and_seed_are_parsed() {
        let (rows, opts) = parsed(&["trace", "7", "--quick", "--seed", "7", "faults"]).unwrap();
        assert_eq!(
            rows,
            ["7", "faults", "trace"],
            "table order, not argument order"
        );
        assert!(opts.quick);
        assert_eq!(opts.seed, 7);
        let (rows, opts) = parsed(&["all"]).unwrap();
        assert_eq!(rows.len(), ROWS.len());
        assert!(!opts.quick);
        assert_eq!(opts.seed, 42);
        // Hostile input fails loudly instead of silently becoming 42.
        assert_eq!(
            parsed(&["7", "--seed", "banana"]).err().unwrap(),
            "--seed: expected an unsigned integer, got \"banana\""
        );
        assert_eq!(
            parsed(&["7", "--quick", "--seed"]).err().unwrap(),
            "--seed: expected an unsigned integer, got nothing"
        );
    }

    #[test]
    fn trace_flag_is_parsed() {
        assert_eq!(parsed(&["trace"]).unwrap().1.trace, None);
        let (_, opts) = parsed(&["trace", "--trace", "t.json"]).unwrap();
        assert_eq!(opts.trace, Some(PathBuf::from("t.json")));
        assert_eq!(
            parsed(&["trace", "--trace", "--quick"]).err().unwrap(),
            "--trace: expected a path, got nothing"
        );
    }
}

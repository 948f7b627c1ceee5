//! Command-line parsing.  Anything that does not parse is an error with
//! exit code 2 — never a silent default.

use crate::workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`: the time box of one workload under
/// `run` and of every invocation `aa` starts.
pub const RUN_SECONDS: u64 = 28;

/// What to do.
#[derive(Debug, PartialEq)]
pub enum CommandLine {
    /// Measure workloads and print their metrics.
    Run(RunOptions),
    /// Check seed-to-seed stability of the simulated metrics.
    Stability,
    /// Compare two interleaved sets of same-build invocations.
    Aa,
}

/// Options of a run.
#[derive(Debug, PartialEq)]
pub struct RunOptions {
    /// The workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// The seed every cell is built from.
    pub seed: u64,
    /// Wall seconds one workload may take, warm-up and profile pass
    /// included.
    pub seconds: u64,
    /// Driver form: `Some(false)` prints the end-to-end metrics as the
    /// result line, `Some(true)` the per-layer ones.  `None` is the `run`
    /// subcommand: both tables, no result line.
    pub trace: Option<bool>,
    /// Where `run` writes the phase spans as Chrome trace JSON.
    pub spans: Option<String>,
}

/// The usage text printed with every parse error.
pub const USAGE: &str = "usage:
  saguaro-benchmark run <workload|all> --seed <u64> [--spans <file>]
  saguaro-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
  saguaro-benchmark stability
  saguaro-benchmark aa
workloads: paper_cft, bft_ladder, wide128_pop, crash_pruned";

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a non-negative whole number, not '{value}'"))
}

/// Splits `--flag value` pairs off `args`; anything else is an error.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut pairs = Vec::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unexpected argument '{flag}'"));
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if pairs.iter().any(|(seen, _)| seen == flag) {
            return Err(format!("{flag} given twice"));
        }
        pairs.push((flag.as_str(), value.as_str()));
    }
    Ok(pairs)
}

fn lookup<'a>(pairs: &[(&str, &'a str)], flag: &str) -> Option<&'a str> {
    pairs.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<CommandLine, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let target = args.get(1).ok_or("run needs a workload name or 'all'")?;
            let workloads = if target == "all" {
                Workload::ALL.to_vec()
            } else {
                vec![Workload::parse(target)?]
            };
            let pairs = flags(&args[2..], &["--seed", "--spans"])?;
            let seed = lookup(&pairs, "--seed").ok_or("run needs --seed <u64>")?;
            Ok(CommandLine::Run(RunOptions {
                workloads,
                seed: number("--seed", seed)?,
                seconds: RUN_SECONDS,
                trace: None,
                spans: lookup(&pairs, "--spans").map(str::to_string),
            }))
        }
        Some("stability") if args.len() == 1 => Ok(CommandLine::Stability),
        Some("aa") if args.len() == 1 => Ok(CommandLine::Aa),
        Some(flag) if flag.starts_with("--") => {
            let pairs = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
            let need = |flag: &str| lookup(&pairs, flag).ok_or(format!("{flag} is required"));
            let seconds: u64 = number("--seconds", need("--seconds")?)?;
            if seconds == 0 {
                return Err("--seconds must be at least 1".to_string());
            }
            Ok(CommandLine::Run(RunOptions {
                workloads: vec![Workload::parse(need("--workload")?)?],
                seed: number("--seed", need("--seed")?)?,
                seconds,
                trace: Some(match need("--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }),
                spans: None,
            }))
        }
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn both_run_forms_parse() {
        let CommandLine::Run(run) = parse(&args("run all --seed 42")).unwrap() else {
            panic!("not a run")
        };
        assert_eq!(run.workloads.len(), 4);
        assert_eq!((run.seed, run.seconds, run.trace), (42, RUN_SECONDS, None));

        let line = "--workload bft_ladder --seed 7 --seconds 15 --trace 1";
        let CommandLine::Run(run) = parse(&args(line)).unwrap() else {
            panic!("not a run")
        };
        assert_eq!(run.workloads, vec![Workload::BftLadder]);
        assert_eq!((run.seconds, run.trace), (15, Some(true)));
    }

    #[test]
    fn garbage_is_an_error_never_a_default() {
        for line in [
            "",
            "run",
            "run all",
            "run all --seed",
            "run all --seed forty-two",
            "run all --seed -1",
            "run all --seed 1 --seed 2",
            "run paper --seed 1",
            "run all --seed 1 --quick",
            "run all --seed 1 --seconds 10",
            "--workload paper_cft --seed 1 --seconds 10",
            "--workload paper_cft --seed 1 --seconds 10 --trace 2",
            "--workload paper_cft --seed 1 --seconds 0 --trace 0",
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload paper_cft --seed 1 --seconds 10 --trace 1 --spans x.json",
            "stability now",
            "aa --sets-of 6",
            "bench",
        ] {
            assert!(parse(&args(line)).is_err(), "'{line}' parsed");
        }
    }
}

//! Helpers shared by the figure binaries and the Criterion benches.
//!
//! Every figure of the paper's evaluation (7–13) has:
//!
//! * a binary (`cargo run --release -p saguaro-bench --bin figure7`) that
//!   regenerates the full latency-vs-throughput series and prints it as a
//!   table, and
//! * a Criterion bench (`cargo bench -p saguaro-bench`) that measures one
//!   representative configuration so regressions in protocol cost show up in
//!   CI without re-running the whole sweep.
//!
//! The batching ablation has its own binary
//! (`cargo run --release -p saguaro-bench --bin ablation_batch`).
//!
//! All binaries accept `--json <path>`: besides the printed tables, the run's
//! series (and any extra sections the binary adds) are written to `<path>` as
//! a machine-readable `BENCH_results.json` trajectory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use saguaro_sim::experiment::{ExperimentSpec, RunArtifacts};
use saguaro_sim::figures::{FigureOptions, FigureSeries};
use saguaro_sim::json::{JsonValue, ToJson};
use std::path::PathBuf;
use std::str::FromStr;

/// Parses the common command-line options of the figure binaries.
///
/// `--quick` shrinks the measurement windows and the load grid so a figure
/// regenerates in seconds (used by CI); `--seed N` changes the RNG seed
/// (42 when the flag is absent).  A `--seed` that is not an unsigned integer
/// — or has no value at all — prints the reason and exits with status 2.
pub fn options_from_args(args: &[String]) -> FigureOptions {
    parse_options(args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

fn parse_options(args: &[String]) -> Result<FigureOptions, String> {
    let mut options = if args.iter().any(|a| a == "--quick") {
        FigureOptions::smoke()
    } else {
        FigureOptions::default()
    };
    options.seed = flag_value(args, "--seed", "an unsigned integer")?.unwrap_or(42);
    Ok(options)
}

/// The value following `flag`, parsed: `Ok(None)` when the flag is absent,
/// the reason when its value is missing (the arguments end, or another
/// `--flag` follows) or does not parse — `expected` names what would have.
fn flag_value<T: FromStr>(
    args: &[String],
    flag: &str,
    expected: &str,
) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(at + 1).filter(|v| !v.starts_with("--"));
    let parsed = value.and_then(|v| v.parse().ok());
    parsed.map(Some).ok_or_else(|| {
        let got = value.map_or("nothing".into(), |v| format!("{v:?}"));
        format!("{flag}: expected {expected}, got {got}")
    })
}

/// Parses a value-taking flag (`--floor <path>`, `--min-speedup <x>`, …):
/// `None` when the flag is absent.  A flag whose value is missing or does
/// not parse prints the reason and exits with status 2 — it never silently
/// switches off what the flag asked for.
pub fn flag_from_args<T: FromStr>(args: &[String], flag: &str, expected: &str) -> Option<T> {
    flag_value(args, flag, expected).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// Parses the `--json <path>` flag shared by the figure/ablation binaries.
pub fn json_path_from_args(args: &[String]) -> Option<PathBuf> {
    flag_from_args(args, "--json", "a path")
}

/// Parses the `--trace <path>` flag: where to write the run's Chrome
/// trace-event export (load it at <https://ui.perfetto.dev> or
/// `chrome://tracing`).
pub fn trace_path_from_args(args: &[String]) -> Option<PathBuf> {
    flag_from_args(args, "--trace", "a path")
}

/// One wall-clock-timed experiment run: the artifacts plus how long the
/// simulator took to produce them.  Every binary that reports an engine
/// rate goes through this so the `events_per_sec` / `wall_ms` JSON fields
/// mean the same thing in every `BENCH_results.json` section.
pub struct TimedRun {
    /// The run's artifacts (metrics, completions, harvest, instrumentation).
    pub artifacts: RunArtifacts,
    /// Wall-clock time of the timed run, in milliseconds.
    pub wall_ms: f64,
}

impl TimedRun {
    /// Simulator events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.artifacts.events_processed as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    /// The shared rate fields (`events_processed`, `wall_ms`,
    /// `events_per_sec`) every engine-speed JSON section starts from;
    /// binaries append their own extras before rendering.
    pub fn rate_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            (
                "events_processed",
                JsonValue::Num(self.artifacts.events_processed as f64),
            ),
            ("wall_ms", JsonValue::Num(self.wall_ms)),
            ("events_per_sec", JsonValue::Num(self.events_per_sec())),
        ]
    }
}

/// Runs `spec` once untimed (so allocator and page-cache effects stay out
/// of the measured rate — the workloads are deterministic, so the timed run
/// repeats the identical event history) and once timed.
pub fn timed_run(spec: &ExperimentSpec) -> TimedRun {
    let _ = spec.run_collecting();
    timed_run_cold(spec)
}

/// Times a single run without the warm-up pass (for long runs where the
/// doubled wall time would dominate and cache effects do not).
pub fn timed_run_cold(spec: &ExperimentSpec) -> TimedRun {
    let started = std::time::Instant::now();
    let artifacts = spec.run_collecting();
    TimedRun {
        artifacts,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// The `runtime` subsection of a benchmark report: simulator-side
/// instrumentation of one run — event-queue high-water mark plus the
/// parallel engine's window/partition counters when the run used it
/// (`"pdes": null` for sequential runs).
pub fn runtime_json(artifacts: &RunArtifacts) -> JsonValue {
    let pdes = artifacts.pdes.as_ref().map_or(JsonValue::Null, |p| {
        JsonValue::object([
            ("partitions", JsonValue::Num(p.partitions as f64)),
            ("windows", JsonValue::Num(p.windows as f64)),
            ("lookahead_us", JsonValue::Num(p.lookahead_us as f64)),
            (
                "partition_events",
                JsonValue::Array(
                    p.partition_events
                        .iter()
                        .map(|e| JsonValue::Num(*e as f64))
                        .collect(),
                ),
            ),
            ("cross_messages", JsonValue::Num(p.cross_messages as f64)),
            ("merge_wall_us", JsonValue::Num(p.merge_wall_us as f64)),
            ("barrier_wall_us", JsonValue::Num(p.barrier_wall_us as f64)),
        ])
    });
    JsonValue::object([
        (
            "events_processed",
            JsonValue::Num(artifacts.events_processed as f64),
        ),
        (
            "peak_pending_events",
            JsonValue::Num(artifacts.peak_pending_events as f64),
        ),
        ("pdes", pdes),
    ])
}

/// Accumulates the sections of a machine-readable benchmark report and
/// writes them as one JSON object (the `BENCH_results.json` trajectory).
#[derive(Default)]
pub struct JsonReport {
    sections: Vec<(String, JsonValue)>,
}

impl JsonReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named set of figure series.
    pub fn add_series(&mut self, name: &str, series: &[FigureSeries]) {
        self.sections.push((name.to_string(), series.to_json()));
    }

    /// Adds an arbitrary pre-built JSON section.
    pub fn add_value(&mut self, name: &str, value: JsonValue) {
        self.sections.push((name.to_string(), value));
    }

    /// Renders the report as a single JSON object.
    pub fn render(&self) -> String {
        JsonValue::Object(self.sections.clone()).render()
    }

    /// Writes the report to `path` when the `--json` flag asked for one.
    /// I/O errors are reported on stderr but do not abort the binary (the
    /// printed tables are the primary output).
    pub fn write_if_requested(&self, path: Option<&PathBuf>) {
        let Some(path) = path else {
            return;
        };
        match std::fs::write(path, self.render()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }

    /// Like [`JsonReport::write_if_requested`], but merges this report's
    /// sections into the JSON object already stored at `path` (replacing
    /// sections with the same name, appending new ones) instead of
    /// overwriting the whole file.  A missing or unparseable file degrades
    /// to a plain write, so different benchmark binaries can all target the
    /// shared `BENCH_results.json` trajectory.
    pub fn merge_into_if_requested(&self, path: Option<&PathBuf>) {
        let Some(path) = path else {
            return;
        };
        let mut entries = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| JsonValue::parse(&text))
            .and_then(|v| match v {
                JsonValue::Object(entries) => Some(entries),
                _ => None,
            })
            .unwrap_or_default();
        for (name, value) in &self.sections {
            match entries.iter_mut().find(|(k, _)| k == name) {
                Some((_, slot)) => *slot = value.clone(),
                None => entries.push((name.clone(), value.clone())),
            }
        }
        match std::fs::write(path, JsonValue::Object(entries).render()) {
            Ok(()) => eprintln!("merged into {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// Prints a rendered figure table to stdout with a separating banner.
pub fn emit(title: &str, table: String) {
    println!("{}", "=".repeat(78));
    println!("{table}");
    let _ = title;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_flag_and_seed_are_parsed() {
        let opts = options_from_args(&["--quick".into(), "--seed".into(), "7".into()]);
        assert!(opts.quick);
        assert_eq!(opts.seed, 7);
        let opts = options_from_args(&[]);
        assert!(!opts.quick);
        assert_eq!(opts.seed, 42);
        // Hostile input fails loudly instead of silently becoming 42.
        assert_eq!(
            parse_options(&["--seed".into(), "banana".into()]).unwrap_err(),
            "--seed: expected an unsigned integer, got \"banana\""
        );
        assert_eq!(
            parse_options(&["--quick".into(), "--seed".into()]).unwrap_err(),
            "--seed: expected an unsigned integer, got nothing"
        );
    }

    #[test]
    fn json_flag_is_parsed() {
        assert_eq!(json_path_from_args(&[]), None);
        assert_eq!(
            json_path_from_args(&["--json".into(), "out.json".into()]),
            Some(PathBuf::from("out.json"))
        );
        // A --json without a path is an error, not a run that writes nothing.
        assert_eq!(
            flag_value::<PathBuf>(&["--json".into()], "--json", "a path").unwrap_err(),
            "--json: expected a path, got nothing"
        );
        assert_eq!(
            flag_value::<PathBuf>(&["--json".into(), "--quick".into()], "--json", "a path")
                .unwrap_err(),
            "--json: expected a path, got nothing"
        );
    }

    #[test]
    fn trace_flag_is_parsed() {
        assert_eq!(trace_path_from_args(&[]), None);
        assert_eq!(
            trace_path_from_args(&["--trace".into(), "t.json".into()]),
            Some(PathBuf::from("t.json"))
        );
        assert_eq!(
            flag_value::<PathBuf>(&["--trace".into()], "--trace", "a path").unwrap_err(),
            "--trace: expected a path, got nothing"
        );
        // The gates the other binaries hang off a flag fail the same way.
        let gate = ["--min-speedup".to_string(), "banana".to_string()];
        assert_eq!(
            flag_value::<f64>(&gate, "--min-speedup", "a number").unwrap_err(),
            "--min-speedup: expected a number, got \"banana\""
        );
        assert_eq!(flag_value::<f64>(&gate[..1], "--floor", "a path"), Ok(None));
    }

    #[test]
    fn rate_fields_and_runtime_section_share_one_shape() {
        let artifacts = RunArtifacts {
            metrics: Default::default(),
            completions: Vec::new(),
            schedules: Vec::new(),
            events_processed: 5_000,
            harvest: Default::default(),
            state_transfer_messages: 0,
            state_transfer_bytes: 0,
            peak_pending_events: 7,
            population: None,
            pdes: None,
            trace: None,
            timeline: None,
        };
        let run = TimedRun {
            artifacts,
            wall_ms: 500.0,
        };
        assert!((run.events_per_sec() - 10_000.0).abs() < 1e-6);
        let json = JsonValue::Object(
            run.rate_fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .render();
        assert!(json.contains("\"events_processed\":5000"));
        assert!(json.contains("\"events_per_sec\":10000"));
        let runtime = runtime_json(&run.artifacts).render();
        assert!(runtime.contains("\"peak_pending_events\":7"));
        assert!(runtime.contains("\"pdes\":null"));
    }

    #[test]
    fn report_renders_sections_in_order() {
        let mut report = JsonReport::new();
        report.add_value("a", JsonValue::Num(1.0));
        report.add_series("b", &[]);
        assert_eq!(report.render(), "{\"a\":1,\"b\":[]}");
    }
}

//! Carrying out a parsed command line.

use crate::cli::{CommandLine, RunOptions};
use crate::measure::{measure, Budget, Tamper};
use crate::workloads::Workload;
use crate::{aa, profile, report, stability};
use std::time::Instant;

/// Measures one workload inside the time box that began at `started` and
/// prints its metrics.  `Ok(false)` means a correctness check failed; each
/// failure is printed with its cell and seed.
fn run_workload(
    workload: Workload,
    options: &RunOptions,
    started: Instant,
    tamper: Tamper,
) -> Result<bool, String> {
    let budget = Budget {
        started,
        seconds: options.seconds as f64,
        profile: options.trace != Some(false),
    };
    let measured = measure(workload, options.seed, budget, tamper)?;
    let mut failures = measured.failures.clone();
    let end_to_end = report::end_to_end(&measured);
    let title = format!("{} seed {}", workload.name(), options.seed);
    if options.trace != Some(true) {
        report::print_table(&format!("{title}: end to end"), &end_to_end);
        println!(
            "# {} timed repetitions {:.3?} s; calibration passes {:.3?} s; cold warm-up {:.3} s \
             ({} minor faults, {} in the timed phase); p{} over {} samples",
            measured.rep_s.len(),
            measured.rep_s,
            measured.calib_s,
            measured.warmup_s,
            measured.minor_faults.0,
            measured.minor_faults.1,
            workload.tail_quantile() * 100.0,
            measured.sim.latency_samples,
        );
    }
    let mut per_layer = Vec::new();
    if budget.profile {
        let profile = profile::profile(workload, &measured)?;
        failures.extend(profile.failures);
        // The registry lists every workload's cells, zero where this one
        // lacks the cell; that padding is for the driver, not for people.
        let own_cell = |name: &str| {
            let Some(rest) = name.strip_prefix("cell.") else {
                return true;
            };
            let cell = rest.split('.').next().unwrap_or_default();
            measured.cells.iter().any(|c| c.name == cell)
        };
        let shown: Vec<_> = profile
            .metrics
            .iter()
            .filter(|m| own_cell(&m.name))
            .cloned()
            .collect();
        report::print_table(&format!("{title}: per layer"), &shown);
        if let Some(path) = &options.spans {
            std::fs::write(path, &profile.spans_json)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        per_layer = profile.metrics;
    }
    for failure in &failures {
        eprintln!("FAILED {failure}");
    }
    let correct = failures.is_empty();
    if let Some(trace) = options.trace {
        let metrics = if trace { &per_layer } else { &end_to_end };
        println!(
            "{}",
            report::result_line(correct, measured.attempted(), measured.failed(), metrics)
        );
    }
    Ok(correct)
}

/// Carries out `command` for a process that began at `started`.  `Ok(false)`
/// means a check failed (exit code 1); `Err` is a failure of the benchmark
/// itself.
pub fn execute(command: CommandLine, started: Instant, tamper: Tamper) -> Result<bool, String> {
    match command {
        CommandLine::Run(options) => {
            let mut correct = true;
            // Only the first workload of `run all` starts in a cold process.
            let mut started = started;
            for workload in &options.workloads {
                correct &= run_workload(*workload, &options, started, tamper)?;
                started = Instant::now();
            }
            Ok(correct)
        }
        CommandLine::Stability => {
            let mut stable = true;
            for workload in Workload::ALL {
                let result = stability::check(workload)?;
                stability::print(&result);
                stable &= result.failures.is_empty();
            }
            Ok(stable)
        }
        CommandLine::Aa => {
            let comparisons = aa::run()?;
            aa::print(&comparisons);
            std::fs::write(aa::REPORT_PATH, aa::to_json(&comparisons) + "\n")
                .map_err(|e| format!("cannot write {}: {e}", aa::REPORT_PATH))?;
            Ok(comparisons.iter().all(aa::Comparison::within_bounds))
        }
    }
}

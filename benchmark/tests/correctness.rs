//! A run whose outputs are wrong must say which cell and seed, and fail.

use saguaro_benchmark::cli::{CommandLine, RunOptions};
use saguaro_benchmark::measure::{measure, untouched, Budget, Measured, Tamper};
use saguaro_benchmark::run::execute;
use saguaro_benchmark::workloads::{Cell, Workload};
use saguaro_sim::RunArtifacts;
use std::process::Command;
use std::time::Instant;

/// Measures with a time box so short that only the warm-up and the fewest
/// timed repetitions are made.
fn measure_briefly(workload: Workload, seed: u64, tamper: Tamper) -> Measured {
    let budget = Budget {
        started: Instant::now(),
        seconds: 1.0,
        profile: false,
    };
    measure(workload, seed, budget, tamper).expect("the run itself works")
}

/// Makes two replicas of the first harvested domain of `bft` disagree on
/// their next delivery.
fn fork_a_replica(cell: &Cell, artifacts: &mut RunArtifacts) {
    if cell.name == "bft" {
        assert_eq!(
            artifacts.harvest.nodes[0].node.domain,
            artifacts.harvest.nodes[1].node.domain
        );
        artifacts.harvest.nodes[0].consensus_log.push(1);
        artifacts.harvest.nodes[1].consensus_log.push(2);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs a workload eight times; run with --release"
)]
fn a_corrupted_harvest_fails_the_run_and_names_the_cell_and_seed() {
    let measured = measure_briefly(Workload::CrashPruned, 7, &fork_a_replica);
    assert!(!measured.failures.is_empty());
    for failure in &measured.failures {
        assert!(
            failure.starts_with("crash_pruned/bft seed 7: replicas"),
            "{failure}"
        );
        assert!(failure.contains("delivered different streams"), "{failure}");
    }

    // The command the binary runs reports failure, which `main` turns into
    // exit code 1.
    let command = CommandLine::Run(RunOptions {
        workloads: vec![Workload::CrashPruned],
        seed: 7,
        seconds: 1,
        trace: Some(false),
        spans: None,
    });
    assert_eq!(execute(command, Instant::now(), &fork_a_replica), Ok(false));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs a workload eight times; run with --release"
)]
fn a_transaction_completed_twice_is_reported() {
    let duplicate = |cell: &Cell, artifacts: &mut RunArtifacts| {
        if cell.name == "ahl" {
            let again = artifacts.completions[0].clone();
            artifacts.completions.push(again);
        }
    };
    let measured = measure_briefly(Workload::PaperCft, 3, &duplicate);
    assert!(measured
        .failures
        .iter()
        .any(|f| f.starts_with("paper_cft/ahl seed 3:") && f.contains("completed twice")));
    let honest = measure_briefly(Workload::PaperCft, 3, &untouched);
    assert_eq!(honest.failures, Vec::<String>::new());
}

#[test]
fn garbage_arguments_exit_with_code_2_and_print_no_result() {
    for args in [
        vec!["run", "all", "--seed", "forty-two"],
        vec!["run", "paper", "--seed", "1"],
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ],
        vec![],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_saguaro-benchmark"))
            .args(&args)
            .output()
            .expect("the binary starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
        assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
    }
}

//! Drives the built `figures` binary: argument errors (exit 2, one line,
//! before any simulation starts), `list`, and one cheap row end to end.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

#[test]
fn hostile_arguments_exit_2_with_one_line() {
    let rows = "7 8 9 10 11 12 13 ablation ablation_batch workloads faults recovery \
                timeout_sweep scenarios population endurance trace";
    let cases: [(&[&str], String); 11] = [
        (&[], format!("no figure named; rows are: {rows} (or all)")),
        (
            &["--quick"],
            format!("no figure named; rows are: {rows} (or all)"),
        ),
        (
            &["fig7"],
            format!("unknown figure \"fig7\"; rows are: {rows}"),
        ),
        (
            &["7", "--quik", "--sed", "7"],
            "--quik: unknown flag (flags are --quick, --seed <n>, --trace <path>)".into(),
        ),
        (
            &["7", "--seed"],
            "--seed: expected an unsigned integer, got nothing".into(),
        ),
        (
            &["7", "--seed", "-1"],
            "--seed: expected an unsigned integer, got \"-1\"".into(),
        ),
        (
            &["trace", "--trace", "--quick"],
            "--trace: expected a path, got nothing".into(),
        ),
        (
            &["7", "--trace", "t.json"],
            "--trace: needs the \"trace\" row (or all) among the rows".into(),
        ),
        (&["7", "8", "7"], "7: row named twice".into()),
        (&["all", "7"], "all: already names every row".into()),
        (
            &["list", "--quick"],
            "list: takes no other arguments".into(),
        ),
    ];
    for (args, message) in cases {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(text(&out.stderr), format!("{message}\n"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn list_prints_one_line_per_row_with_unique_names() {
    let out = figures(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let names: Vec<&str> = text(&out.stdout)
        .lines()
        .map(|line| line.split_whitespace().next().expect("a name per line"))
        .collect();
    assert_eq!(names.len(), 17);
    assert_eq!(names[0], "7");
    assert_eq!(names[16], "trace");
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate row name in {names:?}");
}

#[test]
fn a_row_runs_end_to_end_and_its_output_is_a_function_of_the_seed() {
    let run = |seed| figures(&["recovery", "--quick", "--seed", seed]);
    let (first, again, other) = (run("7"), run("7"), run("8"));
    assert_eq!(first.status.code(), Some(0), "{}", text(&first.stderr));
    let table = text(&first.stdout);
    let banner = "=".repeat(78);
    assert!(table.starts_with(&format!(
        "{banner}\n# Recovery: state-transfer catch-up time vs outage length\n"
    )));
    assert!(table.contains("Coordinator-BFT — checkpoint interval 16"));
    assert_eq!(first.stdout, again.stdout);
    assert_ne!(first.stdout, other.stdout);
}

//! `--seconds` is the time box of the whole invocation, from process start
//! to exit with the profile pass included, not of the timed loop alone.
//! (A file of its own, so that no other test competes for the host.)

use saguaro_benchmark::cli::RUN_SECONDS;
use saguaro_benchmark::measure::MIN_REPETITIONS;
use std::process::Command;
use std::time::Instant;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs two whole invocations; run with --release"
)]
fn an_invocation_ends_within_its_seconds() {
    // `bft_ladder` has the longest repetitions, so the least slack.
    for trace in ["0", "1"] {
        let started = Instant::now();
        let output = Command::new(env!("CARGO_BIN_EXE_saguaro-benchmark"))
            .args(["--workload", "bft_ladder", "--seed", "5"])
            .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", trace])
            .output()
            .expect("the binary starts");
        let wall_s = started.elapsed().as_secs_f64();
        assert!(output.status.success(), "--trace {trace} failed");
        // On a host so busy that the fewest repetitions do not fit, they
        // are made all the same; nothing beyond them may be.
        let stdout = String::from_utf8_lossy(&output.stdout);
        let repetitions = stdout.lines().find_map(|line| {
            let count = match line.strip_prefix("bench.reps") {
                Some(rest) => rest.split_whitespace().next()?,
                None => line.strip_prefix("# ")?.split_once(" timed repetitions")?.0,
            };
            count.parse::<f64>().ok()
        });
        assert!(
            wall_s <= RUN_SECONDS as f64 || repetitions == Some(MIN_REPETITIONS as f64),
            "--trace {trace} took {wall_s:.1} s of {RUN_SECONDS}:\n{stdout}"
        );
    }
}

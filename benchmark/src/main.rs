//! `saguaro-benchmark`: see `benchmark/README.md`.

use saguaro_benchmark::{cli, measure::untouched, run};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    // `setup_s` and the `--seconds` time box both count from here.
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match run::execute(command, started, &untouched) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}

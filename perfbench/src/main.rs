//! The zeroer benchmark: one workload per process, inputs generated
//! from a seed, outputs checked, metrics printed by name with their
//! units, and a one-line JSON result last.
//!
//! ```text
//! zeroer-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` end-to-end metrics are measured with every meter
//! off (`zeroer_obs::set_enabled(false)`, `StreamOptions::metrics =
//! false`); with `--trace 1` the run reports per-layer metrics instead.
//! `--workload all` runs every workload, each in a child process of its
//! own. The process exits non-zero when an output check fails. See
//! `README.md` beside this crate for the workloads and the metric map.

mod batch;
mod common;
mod ingest;
mod report;
mod serve;

use common::Args;
use report::Report;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// A workload's entry point.
type Workload = fn(&Args, &mut Report);

/// Every workload, by name.
const WORKLOADS: &[(&str, Workload)] =
    &[("batch-dedup", batch::run), ("stream-ingest", ingest::run)];

fn usage(message: &str) -> ExitCode {
    eprintln!("zeroer-perfbench: {message}");
    eprintln!(
        "usage: zeroer-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
    );
    ExitCode::from(2)
}

/// Parses `--key value` pairs.
fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        let bad = |_| format!("invalid value {value:?} for {key}");
        match key.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok((
        workload.ok_or("--workload is required")?,
        Args {
            seed: seed.unwrap_or(1),
            seconds: Duration::from_secs(seconds.unwrap_or(10).max(1)),
            trace,
        },
    ))
}

/// Runs every workload in a child process of its own, so each peak RSS
/// belongs to one workload.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let mut args = argv.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed above");
        args[at + 1] = (*name).to_string();
        println!("==== {name} ====");
        let status = Command::new(&exe).args(&args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => return usage(&e),
    };
    if workload == "all" {
        return run_all(&argv);
    }
    let Some(&(_, run)) = WORKLOADS.iter().find(|w| w.0 == workload) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    zeroer::obs::set_enabled(args.trace);
    println!(
        "workload {workload}, seed {}, {:?}, trace {}, {} cores",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let mut report = Report::new(args.trace);
    run(&args, &mut report);
    if report.finish() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

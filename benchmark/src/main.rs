//! The repo benchmark. See `benchmark/README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and ends with the driver's JSON line.
//! Without `--workload` every workload runs, each in a child process of
//! its own so that `peak_rss_mb` is that workload's alone. `--agree`
//! runs that twice and compares the two sets.

mod agree;
mod digest;
mod facade;
mod http;
mod protocol;
mod report;
mod spans;
mod stats;
mod workloads {
    pub mod fleet_churn;
    pub mod fleet_select;
    pub mod paper_stream;
    pub mod serve_closed;
}

use std::process::{Command, ExitCode};

use protocol::{RunConfig, RunResult};

pub const WORKLOADS: [&str; 4] = [
    "serve_closed",
    "paper_stream",
    "fleet_select",
    "fleet_churn",
];

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub agree: bool,
}

const USAGE: &str =
    "usage: qens-benchmark [--workload serve_closed|paper_stream|fleet_select|fleet_churn] \
                     [--seed N] [--seconds S] [--trace 0|1] [--agree]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: protocol::RUN_SECONDS,
        trace: false,
        agree: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(other)),
                }
            }
            "--agree" => parsed.agree = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// First line of a command's output, or `unknown`. The driver's checkout
/// is not a git repository, so `git` failing is ordinary; the ceiling
/// keeps it from looking for one above the checkout.
fn first_line_of(program: &str, args: &[&str]) -> String {
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    Command::new(program)
        .args(args)
        .current_dir(repo_root)
        .env("GIT_CEILING_DIRECTORIES", format!("{repo_root}/.."))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_fingerprint(args: &Args, workload: &str, describe: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# nproc {nproc}");
    println!("# rustc {}", first_line_of("rustc", &["-V"]));
    println!("# profile release");
    println!("# commit {}", first_line_of("git", &["rev-parse", "HEAD"]));
    println!("# seed {}", args.seed);
    println!("# seconds {}", args.seconds);
    println!("# workload {workload} {describe}");
}

fn run_one(workload: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    use workloads::*;
    match workload {
        "serve_closed" => protocol::run::<serve_closed::ServeClosed>(cfg),
        "paper_stream" => protocol::run::<paper_stream::PaperStream>(cfg),
        "fleet_select" => protocol::run::<fleet_select::FleetSelect>(cfg),
        "fleet_churn" => protocol::run::<fleet_churn::FleetChurn>(cfg),
        other => unreachable!("{other} passed parse_args"),
    }
}

fn run_in_process(args: &Args, workload: &str) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = match run_one(workload, &cfg) {
        Ok(result) => result,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &result.span_file {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{workload}.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans {}", path.display());
    }
    print_fingerprint(args, workload, &result.describe);
    for m in result.metrics.iter().chain(&result.extra) {
        println!("{}", report::metric_line(workload, m));
    }
    println!("{}", report::digest_line(workload, result.digest));
    println!(
        "{}",
        report::result_json(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    ExitCode::SUCCESS
}

/// Runs one workload in a child process and returns its standard output.
pub fn run_child(args: &Args, workload: &str, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} ended with {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

fn run_all(args: &Args) -> ExitCode {
    for workload in WORKLOADS {
        match run_child(args, workload, args.trace) {
            Ok(out) => print!("{out}"),
            Err(why) => {
                eprintln!("benchmark: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Before any program code runs: the builder, `par`, the admission
    // and the cache configuration all read `QENS_*`, and a variable left
    // over in the caller's shell must not change what is measured. The
    // process is still single-threaded here.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("QENS_") {
            std::env::remove_var(&name);
        }
    }
    if cfg!(debug_assertions) {
        eprintln!("benchmark: this is a debug build; timings of it mean nothing (use --release)");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.agree {
        return agree::run(&args);
    }
    match &args.workload {
        Some(workload) => run_in_process(&args, workload),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = args(&[
            "--workload",
            "fleet_churn",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet_churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
    }

    #[test]
    fn defaults_follow_the_run_protocol() {
        let a = args(&[]).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.agree),
            (1, protocol::RUN_SECONDS, false, false)
        );
        assert!(a.workload.is_none());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}

//! `repro` through the real binary: its refusals exit 2 before any work
//! starts, naming the culprit on stderr, and `repro --smoke` writes the
//! committed traces at any global pool size.

mod common;

use std::process::{Command, Output};

/// Runs `repro args` in `dir` with the caller's `QENS_*` variables
/// replaced by `env`.
fn repro(dir: &std::path::Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("QENS_") {
            cmd.env_remove(name);
        }
    }
    cmd.current_dir(dir)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .unwrap()
}

/// Asserts `repro args` under `env` is refused with `needle` in the
/// message.
fn assert_refused(args: &[&str], env: &[(&str, &str)], needle: &str) {
    let out = repro(&std::env::temp_dir(), args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "{needle:?} missing from: {stderr}");
    assert!(out.stdout.is_empty(), "a refused run prints nothing");
}

#[test]
fn serve_trace_needs_a_known_clock() {
    assert_refused(&["serve", "--trace", "bogus"], &[], "--trace");
    assert_refused(&["serve", "--trace"], &[], "--trace");
}

#[test]
fn a_stray_or_malformed_qens_variable_stops_the_run() {
    assert_refused(&["--smoke"], &[("QENS_TRACE", "wall")], "QENS_TRACE");
    assert_refused(&["--smoke"], &[("QENS_THREADS", "0")], "QENS_THREADS");
}

/// The fault trace and the logical-clock Chrome trace do not depend on
/// the global pool's size: `repro --smoke` at `QENS_THREADS=1` and `4`
/// writes both byte for byte as committed.
#[test]
fn smoke_traces_match_the_committed_files_at_pool_sizes_1_and_4() {
    let names = ["trace.json", "fault_trace.json"];
    for threads in ["1", "4"] {
        common::assert_golden(&names, "--smoke", |dir| {
            std::fs::create_dir_all(dir)?;
            let out = repro(dir, &["--smoke"], &[("QENS_THREADS", threads)]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "QENS_THREADS={threads}: {stderr}");
            for name in names {
                std::fs::rename(dir.join("results").join(name), dir.join(name))?;
            }
            Ok(())
        });
    }
}

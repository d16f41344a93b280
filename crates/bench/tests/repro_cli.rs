//! `repro`'s refusals through the real binary: each exits 2 before any
//! work starts, naming the culprit on stderr.

use std::process::Command;

/// Runs `repro args` with the caller's `QENS_*` variables replaced by
/// `env` and asserts it is refused with `needle` in the message.
fn assert_refused(args: &[&str], env: &[(&str, &str)], needle: &str) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("QENS_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd.args(args).envs(env.iter().copied()).output().unwrap();
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

//! Golden tests for the telemetry artifacts `repro fleet`, `repro
//! profile` and `repro --smoke` write. Those runs write the
//! process-global fleet registry, journal and trace buffer, as
//! `golden_results`' fig9 run does, so they get a process of their own;
//! [`serial`] keeps them off each other.

mod common;

use std::sync::{Mutex, MutexGuard};

use bench::profile::{run_profile, ProfileOptions};
use bench::ExperimentScale;
use common::assert_golden;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn fleet_json_and_fig10_match_a_fresh_run() {
    let _g = serial();
    assert_golden(&["fleet.json", "fig10_fleet_skew.csv"], "fleet", |dir| {
        bench::fleet::run_and_write(ExperimentScale::Quick, dir).map(drop)
    });
}

#[test]
fn profile_folded_and_svg_match_a_fresh_run() {
    let _g = serial();
    assert_golden(&["profile.folded", "profile.svg"], "profile", |dir| {
        let opts = ProfileOptions {
            out_dir: dir.to_path_buf(),
            ..ProfileOptions::default()
        };
        run_profile(&opts).map(drop)
    });
}

#[test]
fn trace_json_and_fault_trace_match_a_fresh_run() {
    let _g = serial();
    assert_golden(&["trace.json", "fault_trace.json"], "--smoke", |dir| {
        bench::smoke::write_fault_and_trace(dir).map(drop)
    });
}

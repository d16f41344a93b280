//! Golden tests for the telemetry artifacts `repro fleet`, `repro
//! profile` and `repro --smoke` write. Each run records into telemetry
//! handles of its own, so the tests run side by side.

mod common;

use bench::profile::{run_profile, ProfileOptions};
use bench::ExperimentScale;
use common::assert_golden;

#[test]
fn fleet_json_and_fig10_match_a_fresh_run() {
    assert_golden(&["fleet.json", "fig10_fleet_skew.csv"], "fleet", |dir| {
        bench::fleet::run_and_write(ExperimentScale::Quick, dir).map(drop)
    });
}

#[test]
fn profile_folded_and_svg_match_a_fresh_run() {
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
    assert_golden(&["trace.json", "fault_trace.json"], "--smoke", |dir| {
        bench::smoke::write_fault_and_trace(dir).map(drop)
    });
}

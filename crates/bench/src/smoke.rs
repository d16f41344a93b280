//! The fault and trace half of `repro --smoke`: one tiny federation
//! under a hostile fault plan writes its fault trace, then runs a second
//! query on the logical trace clock and writes the Chrome trace. Both
//! files are pure functions of the seeds, which
//! `crates/bench/tests/golden_telemetry.rs` checks against `results/`.

use std::path::Path;

use qens::prelude::*;
use qens::telemetry::trace::{self, Clock};

/// Writes `dir/fault_trace.json` and `dir/trace.json` and returns the
/// fault-plan query's outcome. Leaves tracing off.
///
/// # Panics
/// Panics if a smoke query fails, its loss is not finite, or the trace
/// has no spans or no round span.
pub fn write_fault_and_trace(dir: &Path) -> std::io::Result<RoundOutcome> {
    let faulty = FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(7)
        .epochs(2)
        .faults(FaultSpec::unreliable_edge(7).with_dropout(0.3))
        .fault_tolerance(FaultTolerance::full_strength())
        .build();
    let bounds = [0.0, 20.0, 0.0, 45.0];
    let q = faulty.query_from_bounds(2, &bounds);
    let outcome = faulty
        .run_query(&q, &PolicyKind::query_driven(2))
        .expect("fault smoke query runs");
    let loss = outcome.query_loss(faulty.network(), &q);
    assert!(
        loss.expect("fault smoke query has data").is_finite(),
        "fault smoke loss must be finite"
    );
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("fault_trace.json"), outcome.fault_trace.to_json())?;

    trace::set_mode(Some(Clock::Logical));
    trace::clear();
    let q = faulty.query_from_bounds(3, &bounds);
    let traced = faulty.run_query(&q, &PolicyKind::query_driven(2));
    let doc = trace::export_chrome(None);
    trace::set_mode(None);
    traced.expect("trace smoke query runs");
    assert!(
        doc.contains("\"ph\":\"B\"") && doc.contains("\"ph\":\"E\""),
        "trace smoke produced no spans"
    );
    assert!(
        doc.contains("fedlearn.round"),
        "trace smoke is missing the round span"
    );
    std::fs::write(dir.join("trace.json"), doc)?;
    Ok(outcome)
}

//! An unreliable edge deployment: dropouts, stragglers, lossy links.
//!
//! Real edge networks fail constantly — nodes lose power, uplinks drop
//! packets, slow devices straggle. This example runs the same query
//! twice, once over a clean network and once under a deterministic
//! fault plan, and prints what the fault-tolerant round engine did
//! about it: retried transfers, cut off stragglers at the deadline and
//! promoted ranked standby nodes to keep the cohort at full strength.
//!
//! Every injected event is a pure function of `(seed, query, node,
//! round, attempt)`, so re-running this binary reproduces the exact
//! same trace — byte for byte — at any thread count.
//!
//! ```text
//! cargo run --release -p qens --example unreliable_edge
//! ```

use qens::prelude::*;

fn main() {
    let build = |spec: Option<FaultSpec>| {
        let mut b = FederationBuilder::new()
            .heterogeneous_nodes(10, 200)
            .clusters_per_node(5)
            .seed(42)
            .epochs(10)
            .capacities(0.5, 2.0)
            .links((1e6, 20e6), (0.005, 0.05))
            .fault_tolerance(
                FaultTolerance::full_strength()
                    .with_deadline(30.0)
                    .with_retry(RetryPolicy {
                        max_attempts: 4,
                        ..RetryPolicy::default()
                    }),
            );
        if let Some(spec) = spec {
            b = b.faults(spec);
        }
        b.build()
    };

    let clean = build(None);
    let query = clean.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
    let policy = PolicyKind::query_driven(4);

    let baseline = clean.run_query(&query, &policy).unwrap();
    println!("— clean network —");
    println!(
        "selected {} nodes, loss {:.4}, sim time {:.3}s, {} B on the wire",
        baseline.accounting.nodes_selected,
        baseline.query_loss(clean.network(), &query).unwrap(),
        baseline.accounting.sim_seconds,
        baseline.accounting.bytes_transferred,
    );

    // A moderately hostile deployment: 15% dropouts, 20% stragglers at
    // 2-6x slowdown, 10% per-attempt link loss — plus one scheduled
    // permanent crash of the top-ranked node in round 0.
    let top = baseline.selection.participants[0].node.0;
    let spec = FaultSpec::unreliable_edge(7).with_crash(top, 0);
    let faulty = build(Some(spec));
    let outcome = faulty.run_query(&query, &policy).unwrap();

    println!("\n— unreliable network (same query, deterministic faults) —");
    println!(
        "loss {:.4}, sim time {:.3}s, {} B on the wire",
        outcome.query_loss(faulty.network(), &query).unwrap(),
        outcome.accounting.sim_seconds,
        outcome.accounting.bytes_transferred,
    );
    println!(
        "retries {}, dropped {}, replacements {}, deadline misses {}",
        outcome.accounting.retries,
        outcome.accounting.dropped_participants,
        outcome.accounting.replacements,
        outcome.accounting.deadline_misses,
    );

    println!("\nfault trace ({} events):", outcome.fault_trace.len());
    for event in &outcome.fault_trace.events {
        // One event's row of the `fault_trace.json` export, keys named.
        let row = FaultTrace {
            events: vec![event.clone()],
        };
        println!("  {}", row.to_json().trim_matches(['[', ']']));
    }

    let promoted: Vec<String> = outcome
        .final_cohort
        .iter()
        .filter(|p| {
            baseline
                .selection
                .participants
                .iter()
                .all(|b| b.node != p.node)
        })
        .map(|p| faulty.network().node(p.node).name().to_string())
        .collect();
    if promoted.is_empty() {
        println!("\nno standby promotions were needed this run");
    } else {
        println!("\nranked standbys promoted into the cohort: {promoted:?}");
    }

    // Determinism: the exact same configuration replays the exact same
    // chaos. This is what makes fault experiments reproducible.
    let replay = build(Some(FaultSpec::unreliable_edge(7).with_crash(top, 0)))
        .run_query(&query, &policy)
        .unwrap();
    assert_eq!(replay.fault_trace.to_json(), outcome.fault_trace.to_json());
    println!("\nreplay produced a byte-identical fault trace ✓");
}

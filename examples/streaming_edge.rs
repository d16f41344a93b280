//! Streaming edge nodes: data keeps arriving, summaries keep moving.
//!
//! Edge deployments are not static — a sensor node collects new hourly
//! records forever. This example shows the maintenance loop around the
//! paper's mechanism: a node absorbs fresh data and re-quantises with a
//! full k-means fit (`EdgeNode::absorb` + `EdgeNode::quantize`, as a
//! node does), and the *same* standing query selects a different
//! participant set once the node's data drifts into the requested
//! region.
//!
//! ```text
//! cargo run --release -p qens --example streaming_edge
//! ```

use qens::airdata::scenario::NodeSpec;
use qens::prelude::*;

fn main() {
    // Three nodes; node 2 starts far away from the query region and
    // drifts toward it epoch by epoch.
    let stationary_a = NodeSpec {
        x_range: (0.0, 20.0),
        slope: 2.0,
        intercept: 3.0,
        noise_std: 2.0,
    };
    let stationary_b = NodeSpec {
        x_range: (40.0, 70.0),
        slope: -1.0,
        intercept: 90.0,
        noise_std: 2.0,
    };
    let drifting_start = NodeSpec {
        x_range: (80.0, 100.0),
        slope: 2.0,
        intercept: 3.0,
        noise_std: 2.0,
    };

    let fed = FederationBuilder::new()
        .datasets(vec![
            ("stationary-a".into(), stationary_a.sample(300, 1)),
            ("stationary-b".into(), stationary_b.sample(300, 2)),
            ("drifting".into(), drifting_start.sample(300, 3)),
        ])
        .clusters_per_node(5)
        .seed(11)
        .epochs(10)
        .build();

    // A standing analytics query over the region x in [0, 25].
    let query = fed.query_from_bounds(0, &[0.0, 25.0, -10.0, 60.0]);
    println!("standing query: {:?}", query.to_boundary_vec());

    // Mutable copy of the network we evolve over rounds.
    let mut network = fed.network().clone();
    let policy = QueryDriven::top_l(3);

    for round in 0..5u64 {
        // Fresh data arrives: the drifting node's range walks toward the
        // query region by 20 units per round.
        let shift = 80.0 - 20.0 * round as f64;
        let fresh = NodeSpec {
            x_range: (shift.max(0.0), shift.max(0.0) + 20.0),
            slope: 2.0,
            intercept: 3.0,
            noise_std: 2.0,
        }
        .sample(150, 100 + round);
        let drifting = network.node_mut(NodeId(2));
        drifting.absorb(&fresh);
        drifting.quantize(5, 11 + round);

        let ctx = SelectionContext::new(&network, &query);
        let sel = policy.select(&ctx);
        print!(
            "round {round}: drifting node covers x>= {:>5.0}; selected:",
            shift.max(0.0)
        );
        for p in &sel.participants {
            print!(
                " {}(r={:.2}, est {:.0} samples in region)",
                network.node(p.node).name(),
                p.ranking,
                network.node(p.node).estimated_query_cardinality(&query)
            );
        }
        println!();
    }
}

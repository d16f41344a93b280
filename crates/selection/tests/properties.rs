//! Property-style tests for the selection mechanisms (deterministic
//! sweeps over the in-tree RNG; no proptest needed offline).

use airdata::scenario::{nodes_from_specs, NodeSpec};
use edgesim::EdgeNetwork;
use geom::Query;
use linalg::rng::{rng_for, Rng};
use selection::{
    AllNodes, DataCentric, FairStochastic, QueryDriven, RandomSelection, RankingRule, SelectionCap,
    SelectionContext, SelectionPolicy, WithoutSelectivity,
};

const CASES: usize = 24;

fn random_specs(rng: &mut impl Rng) -> Vec<NodeSpec> {
    let count = rng.gen_range(2..6usize);
    (0..count)
        .map(|_| {
            let lo = rng.gen_range(-60.0..60.0);
            let span = rng.gen_range(5.0..50.0);
            NodeSpec {
                x_range: (lo, lo + span),
                slope: rng.gen_range(-3.0..3.0),
                intercept: rng.gen_range(-10.0..10.0),
                noise_std: 1.0,
            }
        })
        .collect()
}

fn build(specs: &[NodeSpec], seed: u64) -> EdgeNetwork {
    let nodes = nodes_from_specs(specs, 50, seed);
    let mut net =
        EdgeNetwork::from_datasets(nodes.into_iter().map(|n| (n.name, n.dataset)).collect());
    net.quantize_all(4, seed);
    net
}

fn query_over(net: &EdgeNetwork, id: u64) -> Query {
    Query::from_boundary_vec(id, &net.global_space().to_boundary_vec())
}

/// Every policy returns distinct, in-range nodes and at most ℓ.
#[test]
fn policies_return_sane_selections() {
    let mut rng = rng_for(0x5E1, 1);
    for _ in 0..CASES {
        let specs = random_specs(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let l = rng.gen_range(1..6usize);
        let net = build(&specs, seed);
        let q = query_over(&net, 0);
        let policies: Vec<Box<dyn SelectionPolicy>> = vec![
            Box::new(QueryDriven::top_l(l)),
            Box::new(RandomSelection { l, seed }),
            Box::new(AllNodes),
            Box::new(DataCentric::equal_weights(l)),
            Box::new(FairStochastic::new(l, seed)),
            Box::new(WithoutSelectivity(QueryDriven::top_l(l))),
        ];
        for p in &policies {
            let ctx = SelectionContext::new(&net, &q);
            let sel = p.select(&ctx);
            let cap = if p.name() == "all-nodes" {
                net.len()
            } else {
                l.min(net.len())
            };
            assert!(
                sel.len() <= cap,
                "{} selected {} > {}",
                p.name(),
                sel.len(),
                cap
            );
            let mut ids: Vec<usize> = sel.participants.iter().map(|x| x.node.0).collect();
            let before = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), before, "{} duplicated nodes", p.name());
            for id in ids {
                assert!(id < net.len());
            }
            // Lambda weights always form a distribution (or are empty).
            let lambdas = sel.lambda_weights();
            if !lambdas.is_empty() {
                assert!((lambdas.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(lambdas.iter().all(|&w| w >= 0.0));
            }
        }
    }
}

/// Query-driven rankings never decrease when the query grows.
#[test]
fn growing_the_query_never_drops_a_node() {
    let mut rng = rng_for(0x5E1, 2);
    for _ in 0..CASES {
        let specs = random_specs(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let net = build(&specs, seed);
        let space = net.global_space();
        let small = Query::new(0, space.clone());
        let big = Query::new(1, space.expanded(10.0));
        let policy = QueryDriven::new(1e-9, SelectionCap::TopL(net.len()), RankingRule::PaperEq4);
        let sel_small = policy.select(&SelectionContext::new(&net, &small));
        let sel_big = policy.select(&SelectionContext::new(&net, &big));
        // With epsilon ~ 0, any node supported by the small query is
        // still supported by the bigger one.
        let ids = |s: &selection::Selection| {
            let mut v: Vec<usize> = s.participants.iter().map(|p| p.node.0).collect();
            v.sort_unstable();
            v
        };
        for id in ids(&sel_small) {
            assert!(
                ids(&sel_big).contains(&id),
                "node {id} vanished when the query grew"
            );
        }
    }
}

/// The no-selectivity wrapper keeps exactly the same node set.
#[test]
fn without_selectivity_preserves_nodes() {
    let mut rng = rng_for(0x5E1, 3);
    for _ in 0..CASES {
        let specs = random_specs(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let l = rng.gen_range(1..5usize);
        let net = build(&specs, seed);
        let q = query_over(&net, 3);
        let inner = QueryDriven::top_l(l);
        let a = inner.select(&SelectionContext::new(&net, &q));
        let b = WithoutSelectivity(inner).select(&SelectionContext::new(&net, &q));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.participants.iter().zip(&b.participants) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.ranking, y.ranking);
            assert!(y.supporting_clusters.is_empty());
        }
    }
}

/// Random selection is stable per query id.
#[test]
fn random_selection_determinism() {
    let mut rng = rng_for(0x5E1, 4);
    for _ in 0..CASES {
        let specs = random_specs(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let net = build(&specs, seed);
        let pol = RandomSelection { l: 1, seed };
        let q0 = query_over(&net, 0);
        let ctx = SelectionContext::new(&net, &q0);
        assert_eq!(pol.select(&ctx), pol.select(&ctx));
    }
}

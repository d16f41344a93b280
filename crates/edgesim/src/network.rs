//! The node population the leader coordinates.

use std::sync::OnceLock;

use geom::HyperRect;
use mlkit::DenseDataset;

use linalg::rng as lrng;
use linalg::rng::Rng;

use crate::cost::{CostModel, LinkProfile};
use crate::node::{EdgeNode, NodeId};

/// An edge network: the participant population plus the cost model.
///
/// The leader itself is stateless in the paper's protocol (it only ranks
/// summaries and averages models), so the network exposes node state and
/// the distributed-learning crate implements the leader logic on top.
#[derive(Debug, Clone)]
pub struct EdgeNetwork {
    nodes: Vec<EdgeNode>,
    cost: CostModel,
    /// Version counter of the node *membership* (which nodes exist).
    /// Bumped by [`EdgeNetwork::add_node`]; consumers holding
    /// membership-shaped state (e.g. the selection index, built over one
    /// rectangle per node) compare it against the epoch they built at.
    /// Per-node summary changes move the nodes' own
    /// [`EdgeNode::summary_epoch`] instead.
    membership_epoch: u64,
    /// Conservative version counter for node *state*: bumped whenever a
    /// `&mut EdgeNode` is handed out ([`EdgeNetwork::node_mut`]) or a
    /// bulk summary mutation runs (`quantize_all*`). While this counter
    /// is unchanged, no node can have moved its summary epoch, so a
    /// consumer holding cached per-node epochs (the selection index at
    /// fleet scale) may skip the `O(N)` drift walk entirely. A bump does
    /// *not* imply a change — the exact per-node comparison stays the
    /// arbiter; this only gates when that walk is worth paying.
    mutation_epoch: u64,
    /// [`EdgeNetwork::global_space`], folded on first use after a change
    /// and cleared wherever the rows can change: `node_mut` and
    /// `add_node`.
    global_space: OnceLock<HyperRect>,
}

impl EdgeNetwork {
    /// Builds a network from named datasets with unit capacity everywhere.
    ///
    /// # Panics
    /// Panics if `datasets` is empty.
    pub fn from_datasets(datasets: Vec<(String, DenseDataset)>) -> Self {
        assert!(!datasets.is_empty(), "network needs at least one node");
        let nodes = datasets
            .into_iter()
            .enumerate()
            .map(|(i, (name, data))| EdgeNode::new(NodeId(i), name, data, 1.0))
            .collect();
        Self {
            nodes,
            cost: CostModel::default(),
            membership_epoch: 0,
            mutation_epoch: 0,
            global_space: OnceLock::new(),
        }
    }

    /// Builds a network from pre-constructed nodes (e.g. summary-only
    /// synthetic fleets via [`EdgeNode::from_summaries`]).
    ///
    /// # Panics
    /// Panics if `nodes` is empty or ids are not the sequential
    /// `0..nodes.len()` (the id-is-index invariant every lookup relies
    /// on).
    pub fn from_nodes(nodes: Vec<EdgeNode>) -> Self {
        assert!(!nodes.is_empty(), "network needs at least one node");
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.id(), NodeId(i), "node ids must be sequential");
        }
        Self {
            nodes,
            cost: CostModel::default(),
            membership_epoch: 0,
            mutation_epoch: 0,
            global_space: OnceLock::new(),
        }
    }

    /// Appends a node (it gets the next sequential id) and bumps the
    /// membership epoch, invalidating any membership-shaped state built
    /// over the previous population. Removal is deliberately absent:
    /// ids index into the node vector everywhere, so departed nodes are
    /// modelled by fault plans, not by compacting the population.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        data: DenseDataset,
        capacity: f64,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(EdgeNode::new(id, name, data, capacity));
        self.membership_epoch += 1;
        self.global_space.take();
        id
    }

    /// The membership version counter (see the field docs).
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// The conservative node-state version counter (see the field
    /// docs): unchanged means no node's summary epoch can have moved
    /// since the last observed value.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// Assigns heterogeneous capacities drawn uniformly from
    /// `[lo, hi]` (deterministic in `seed`).
    ///
    /// Mutates capacities in place: link profiles set by
    /// [`EdgeNetwork::with_random_links`] and any cached quantisation
    /// survive, so the builder methods compose in either order.
    ///
    /// # Panics
    /// Panics if `lo <= 0` or `lo > hi`.
    pub fn with_random_capacities(mut self, lo: f64, hi: f64, seed: u64) -> Self {
        assert!(lo > 0.0 && lo <= hi, "capacity range ({lo}, {hi}) invalid");
        let mut rng = lrng::rng_for(seed, 0xCAFE);
        for node in &mut self.nodes {
            node.set_capacity(rng.gen_range(lo..=hi));
        }
        self
    }

    /// Draws heterogeneous per-node uplinks: bandwidth uniform in
    /// `[bw_lo, bw_hi]` bytes/s and latency uniform in `[lat_lo, lat_hi]`
    /// seconds (deterministic in `seed`).
    ///
    /// Mutates links in place: capacities and any cached quantisation
    /// survive, so the builder methods compose in either order.
    ///
    /// # Panics
    /// Panics on empty or inverted ranges.
    pub fn with_random_links(
        mut self,
        (bw_lo, bw_hi): (f64, f64),
        (lat_lo, lat_hi): (f64, f64),
        seed: u64,
    ) -> Self {
        assert!(
            bw_lo > 0.0 && bw_lo <= bw_hi,
            "bandwidth range ({bw_lo}, {bw_hi}) invalid"
        );
        assert!(
            lat_lo >= 0.0 && lat_lo <= lat_hi,
            "latency range ({lat_lo}, {lat_hi}) invalid"
        );
        let mut rng = lrng::rng_for(seed, 0x11_4B);
        for node in &mut self.nodes {
            node.set_link(LinkProfile {
                bytes_per_second: rng.gen_range(bw_lo..=bw_hi),
                latency_seconds: rng.gen_range(lat_lo..=lat_hi),
            });
        }
        self
    }

    /// Quantises every node (§III-C; the paper uses `k = 5` everywhere
    /// "to avoid biases"). Each node derives its own k-means seed.
    pub fn quantize_all(&mut self, k: usize, seed: u64) {
        let _span = telemetry::span(
            "edgesim.quantize_all",
            &[("k", k as u64), ("nodes", self.nodes.len() as u64)],
        );
        for node in &mut self.nodes {
            node.quantize(k, lrng::derive_seed(seed, node.id().0 as u64));
        }
        self.mutation_epoch += 1;
        telemetry::counter!("qens_edgesim_nodes_quantized_total").add(self.nodes.len() as u64);
    }

    /// Like [`EdgeNetwork::quantize_all`] but every node releases
    /// differentially-private summaries at budget ε
    /// (see [`cluster::privacy`]).
    pub fn quantize_all_private(&mut self, k: usize, seed: u64, epsilon: f64) {
        for node in &mut self.nodes {
            node.quantize_private(k, lrng::derive_seed(seed, node.id().0 as u64), epsilon);
        }
        self.mutation_epoch += 1;
    }

    /// All nodes.
    pub fn nodes(&self) -> &[EdgeNode] {
        &self.nodes
    }

    /// One node by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &EdgeNode {
        &self.nodes[id.0]
    }

    /// Mutable access to one node (e.g. to pin a capacity or link
    /// profile for a targeted experiment). Bumps the (conservative)
    /// mutation epoch: the borrow *may* change the node's summaries,
    /// and epoch-gated consumers re-verify exactly on the next probe.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut EdgeNode {
        self.mutation_epoch += 1;
        self.global_space.take();
        &mut self.nodes[id.0]
    }

    /// Number of nodes `N`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the network has no nodes (never post-construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Total samples across the network (the Fig. 9 denominator).
    pub fn total_samples(&self) -> usize {
        self.nodes.iter().map(EdgeNode::len).sum()
    }

    /// The hull of every row the network's nodes hold — the "whole data
    /// space" the paper's query workload is generated over. Summary-only
    /// nodes hold no rows and add nothing. The fold over every row runs
    /// once per change to the rows, not once per call.
    ///
    /// # Panics
    /// Panics if every node is summary-only.
    pub fn global_space(&self) -> HyperRect {
        self.global_space
            .get_or_init(|| {
                let mut it = self
                    .nodes
                    .iter()
                    .filter(|n| !n.is_empty())
                    .map(EdgeNode::data_space);
                let first = it
                    .next()
                    .expect("no node holds rows: every node is summary-only");
                it.fold(first, |acc, s| acc.hull(&s))
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Matrix;

    fn dataset(offset: f64, n: usize) -> DenseDataset {
        let x = Matrix::from_rows(&(0..n).map(|i| vec![offset + i as f64]).collect::<Vec<_>>());
        let y: Vec<f64> = (0..n).map(|i| offset + i as f64 * 2.0).collect();
        DenseDataset::new(x, y)
    }

    fn network() -> EdgeNetwork {
        EdgeNetwork::from_datasets(vec![
            ("a".into(), dataset(0.0, 30)),
            ("b".into(), dataset(100.0, 20)),
            ("c".into(), dataset(-50.0, 10)),
        ])
    }

    #[test]
    fn construction_assigns_sequential_ids() {
        let net = network();
        assert_eq!(net.len(), 3);
        for (i, n) in net.nodes().iter().enumerate() {
            assert_eq!(n.id(), NodeId(i));
            assert_eq!(n.capacity(), 1.0);
        }
        assert_eq!(net.node(NodeId(1)).name(), "b");
        assert_eq!(net.total_samples(), 60);
    }

    #[test]
    fn global_space_covers_every_node() {
        let net = network();
        let space = net.global_space();
        for node in net.nodes() {
            for row in node.joint().row_iter() {
                assert!(space.contains_point(row));
            }
        }
        // x spans -50..129, y spans -50..138.
        assert_eq!(space.interval(0).lo(), -50.0);
        assert_eq!(space.interval(0).hi(), 119.0);
    }

    /// The hull a fresh network folds from its nodes' rows.
    fn folded_space(net: &EdgeNetwork) -> HyperRect {
        let rows = net.nodes().iter().flat_map(|n| n.joint().row_iter());
        HyperRect::bounding_points(rows).unwrap()
    }

    #[test]
    fn global_space_follows_absorb_and_add_node() {
        let mut net = network();
        let before = net.global_space();
        let far = DenseDataset::new(Matrix::from_rows(&[vec![1_000.0]]), vec![-900.0]);
        net.node_mut(NodeId(1)).absorb(&far);
        let after = net.global_space();
        assert_ne!(after, before, "the absorbed row lies outside the old hull");
        assert_eq!(after, folded_space(&net));
        net.add_node("d", dataset(-5_000.0, 4), 1.0);
        assert_eq!(net.global_space(), folded_space(&net));
        assert_eq!(net.global_space().interval(0).lo(), -5_000.0);
    }

    /// A summary-only node adds nothing to the global space until it
    /// absorbs rows of its own.
    #[test]
    fn global_space_folds_only_the_rows_nodes_hold() {
        let summary = cluster::ClusterSummary {
            cluster_id: 0,
            size: 9,
            representative: vec![500.0, 500.0],
            rect: HyperRect::from_boundary_vec(&[400.0, 600.0, 400.0, 600.0]),
        };
        let data_node = EdgeNode::new(NodeId(0), "rows", dataset(0.0, 30), 1.0);
        let summary_node = EdgeNode::from_summaries(NodeId(1), "summary", 1.0, vec![summary]);
        let mut net = EdgeNetwork::from_nodes(vec![data_node, summary_node]);
        assert_eq!(net.total_samples(), 30);
        assert_eq!(net.global_space(), net.node(NodeId(0)).data_space());
        let far = DenseDataset::new(Matrix::from_rows(&[vec![1_000.0]]), vec![-900.0]);
        net.node_mut(NodeId(1)).absorb(&far);
        assert_eq!(net.total_samples(), 31);
        assert_eq!(net.global_space(), folded_space(&net));
    }

    #[test]
    #[should_panic(expected = "every node is summary-only")]
    fn global_space_of_a_summary_only_network_panics() {
        let summary = cluster::ClusterSummary {
            cluster_id: 0,
            size: 9,
            representative: vec![1.0, 1.0],
            rect: HyperRect::from_boundary_vec(&[0.0, 2.0, 0.0, 2.0]),
        };
        EdgeNetwork::from_nodes(vec![EdgeNode::from_summaries(
            NodeId(0),
            "s",
            1.0,
            vec![summary],
        )])
        .global_space();
    }

    #[test]
    fn quantize_all_touches_every_node() {
        let mut net = network();
        net.quantize_all(3, 9);
        for n in net.nodes() {
            assert!(n.is_quantized());
            assert!(n.k() >= 1 && n.k() <= 3);
        }
    }

    #[test]
    fn quantize_all_uses_distinct_per_node_seeds() {
        let mut net = EdgeNetwork::from_datasets(vec![
            ("a".into(), dataset(0.0, 30)),
            ("b".into(), dataset(0.0, 30)), // identical data
        ]);
        net.quantize_all(3, 1);
        // Identical data with distinct seeds still yields valid summaries.
        assert_eq!(net.node(NodeId(0)).k(), net.node(NodeId(1)).k());
    }

    #[test]
    fn random_capacities_are_in_range_and_deterministic() {
        let a = network().with_random_capacities(0.5, 2.0, 3);
        let b = network().with_random_capacities(0.5, 2.0, 3);
        for (x, y) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(x.capacity(), y.capacity());
            assert!((0.5..=2.0).contains(&x.capacity()));
        }
        // Capacities actually vary.
        let caps: Vec<f64> = a.nodes().iter().map(|n| n.capacity()).collect();
        assert!(caps.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn random_links_are_in_range_and_deterministic() {
        let a = network().with_random_links((1e6, 20e6), (0.005, 0.1), 7);
        let b = network().with_random_links((1e6, 20e6), (0.005, 0.1), 7);
        for (x, y) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(x.link(), y.link());
            assert!((1e6..=20e6).contains(&x.link().bytes_per_second));
            assert!((0.005..=0.1).contains(&x.link().latency_seconds));
        }
        let bws: Vec<f64> = a
            .nodes()
            .iter()
            .map(|n| n.link().bytes_per_second)
            .collect();
        assert!(bws.windows(2).any(|w| w[0] != w[1]), "links did not vary");
    }

    #[test]
    fn random_links_preserve_capacities() {
        let net = network()
            .with_random_capacities(0.5, 2.0, 3)
            .with_random_links((1e6, 20e6), (0.0, 0.1), 3);
        assert!(net.nodes().iter().any(|n| n.capacity() != 1.0));
    }

    #[test]
    fn builder_methods_are_order_independent() {
        // Regression: with_random_capacities used to rebuild nodes via
        // EdgeNode::new, silently resetting link profiles (and dropping
        // quantisation) assigned earlier in the chain.
        let links_first = network()
            .with_random_links((1e6, 20e6), (0.005, 0.1), 7)
            .with_random_capacities(0.5, 2.0, 3);
        let caps_first = network()
            .with_random_capacities(0.5, 2.0, 3)
            .with_random_links((1e6, 20e6), (0.005, 0.1), 7);
        for (a, b) in links_first.nodes().iter().zip(caps_first.nodes()) {
            assert_eq!(a.link(), b.link(), "links must survive capacity draw");
            assert_eq!(a.capacity(), b.capacity());
        }
        // And the draws actually changed both attributes.
        assert!(links_first.nodes().iter().any(|n| n.capacity() != 1.0));
        assert!(links_first
            .nodes()
            .iter()
            .any(|n| *n.link() != LinkProfile::default()));
    }

    #[test]
    fn capacity_and_link_draws_preserve_quantisation() {
        let mut net = network();
        net.quantize_all(3, 9);
        let summaries: Vec<_> = net.nodes().iter().map(|n| n.summaries().clone()).collect();
        let net =
            net.with_random_capacities(0.5, 2.0, 3)
                .with_random_links((1e6, 20e6), (0.005, 0.1), 7);
        for (node, before) in net.nodes().iter().zip(&summaries) {
            assert!(node.is_quantized(), "quantisation must survive the draws");
            assert_eq!(node.summaries(), before);
        }
    }

    #[test]
    fn link_transfer_time_includes_latency_and_bandwidth() {
        let link = LinkProfile {
            bytes_per_second: 1000.0,
            latency_seconds: 0.5,
        };
        assert!((link.transfer_seconds(2000) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_network_rejected() {
        EdgeNetwork::from_datasets(vec![]);
    }

    #[test]
    fn add_node_appends_and_bumps_membership_epoch() {
        let mut net = network();
        assert_eq!(net.membership_epoch(), 0);
        let id = net.add_node("d", dataset(500.0, 12), 2.0);
        assert_eq!(id, NodeId(3));
        assert_eq!(net.len(), 4);
        assert_eq!(net.membership_epoch(), 1);
        assert_eq!(net.node(id).capacity(), 2.0);
        // Summary changes on existing nodes do not move the membership
        // epoch — they move the node's own summary epoch.
        net.node_mut(NodeId(0)).quantize(2, 1);
        assert_eq!(net.membership_epoch(), 1);
    }

    #[test]
    fn from_nodes_keeps_prebuilt_nodes() {
        let nodes = vec![
            EdgeNode::new(NodeId(0), "a", dataset(0.0, 10), 1.0),
            EdgeNode::new(NodeId(1), "b", dataset(5.0, 10), 1.5),
        ];
        let net = EdgeNetwork::from_nodes(nodes);
        assert_eq!(net.len(), 2);
        assert_eq!(net.node(NodeId(1)).capacity(), 1.5);
        assert_eq!(net.membership_epoch(), 0);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn from_nodes_rejects_gapped_ids() {
        EdgeNetwork::from_nodes(vec![EdgeNode::new(NodeId(3), "a", dataset(0.0, 5), 1.0)]);
    }
}

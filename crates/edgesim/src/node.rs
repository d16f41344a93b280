//! Participant edge nodes.

use cluster::{summary, ClusterSummary, KMeans, KMeansConfig};
use geom::HyperRect;
use linalg::Matrix;
use mlkit::DenseDataset;

use crate::cost::LinkProfile;

/// Identifier of a node within its network (`n_i` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A participant edge node.
///
/// The node is two parts, along the paper's boundary (§III-A): the
/// leader works from cluster summaries, the node keeps its data.
///
/// * The **leader view**, held inline: id, name, compute capacity, uplink,
///   the cluster summaries and their epoch. Selection, ranking and the
///   spatial index read nothing else.
/// * The **node-local part**, boxed and optional: the local dataset, its
///   joint matrix and the k-means model behind the summaries. Nodes built
///   by [`EdgeNode::new`] have one; summary-only nodes
///   ([`EdgeNode::from_summaries`]) have none until they
///   [`EdgeNode::absorb`] rows of their own.
///
/// The node's *joint space* is the concatenation of its feature columns
/// and the label column — the d-dimensional space the paper clusters and
/// expresses query boundaries over.
#[derive(Debug, Clone)]
pub struct EdgeNode {
    id: NodeId,
    name: String,
    /// Compute capacity `c_k` (relative training throughput; 1.0 = the
    /// reference node).
    capacity: f64,
    link: LinkProfile,
    summaries: Vec<ClusterSummary>,
    /// Version counter of the leader-visible summaries. Bumped whenever
    /// they change ([`EdgeNode::quantize`], [`EdgeNode::quantize_private`])
    /// or become stale ([`EdgeNode::absorb`]); selection caches compare it
    /// against the epoch they scored at to invalidate per node.
    summary_epoch: u64,
    /// The rows the node keeps and never ships; `None` on a summary-only
    /// node.
    local: Option<Box<NodeLocal>>,
}

/// The node-local part of an [`EdgeNode`].
#[derive(Debug, Clone)]
struct NodeLocal {
    data: DenseDataset,
    joint: Matrix,
    kmeans: Option<KMeans>,
}

impl NodeLocal {
    fn new(data: DenseDataset) -> Box<Self> {
        let joint = build_joint(&data);
        Box::new(Self {
            data,
            joint,
            kmeans: None,
        })
    }
}

impl EdgeNode {
    /// Creates a node over a local dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `capacity <= 0`.
    pub fn new(id: NodeId, name: impl Into<String>, data: DenseDataset, capacity: f64) -> Self {
        assert!(!data.is_empty(), "edge node with no local data");
        assert!(capacity > 0.0, "capacity must be positive, got {capacity}");
        Self {
            id,
            name: name.into(),
            capacity,
            link: LinkProfile::default(),
            summaries: Vec::new(),
            summary_epoch: 0,
            local: Some(NodeLocal::new(data)),
        }
    }

    /// Creates a node directly from leader-visible cluster summaries,
    /// skipping raw data and k-means entirely. This is the shared-space
    /// synthetic-fleet path: a million-node fleet for selection-scaling
    /// experiments needs only the `O(K·d)` summaries per node. The node
    /// has no node-local part: [`EdgeNode::len`] is 0,
    /// [`EdgeNode::joint_dim`] comes from the summaries, and every
    /// accessor that reads rows ([`EdgeNode::data`],
    /// [`EdgeNode::joint`], [`EdgeNode::data_space`],
    /// [`EdgeNode::full_dataset`], [`EdgeNode::cluster_dataset`],
    /// [`EdgeNode::exact_query_cardinality`], [`EdgeNode::quantize`])
    /// panics with a message that names the node.
    ///
    /// Summary-only nodes fully support selection and ranking, which
    /// read nothing but summaries. Rows absorbed later
    /// ([`EdgeNode::absorb`]) become the node's first local data.
    ///
    /// # Panics
    /// Panics if `summaries` is empty, dimensionalities disagree, the
    /// joint space has fewer than 2 dimensions or `capacity <= 0`.
    pub fn from_summaries(
        id: NodeId,
        name: impl Into<String>,
        capacity: f64,
        summaries: Vec<ClusterSummary>,
    ) -> Self {
        assert!(
            !summaries.is_empty(),
            "summary-only node needs at least one cluster summary"
        );
        assert!(capacity > 0.0, "capacity must be positive, got {capacity}");
        let d = summaries[0].rect.dim();
        assert!(d >= 2, "joint space needs at least one feature plus label");
        for s in &summaries {
            assert_eq!(s.rect.dim(), d, "summary rect dim mismatch");
            assert_eq!(s.representative.len(), d, "representative dim mismatch");
        }
        Self {
            id,
            name: name.into(),
            capacity,
            link: LinkProfile::default(),
            summaries,
            summary_epoch: 1,
            local: None,
        }
    }

    /// The node-local part.
    ///
    /// # Panics
    /// Panics on a summary-only node, naming it.
    fn local(&self) -> &NodeLocal {
        self.local
            .as_deref()
            .unwrap_or_else(|| no_local_rows(self.id))
    }

    /// Replaces the node's uplink profile in place. Touches *only* the
    /// link: capacity, data and any cached quantisation survive, which
    /// is what keeps [`crate::EdgeNetwork`]'s builder methods
    /// order-independent.
    ///
    /// # Panics
    /// Panics on non-positive bandwidth or negative latency.
    pub fn set_link(&mut self, link: LinkProfile) {
        assert!(
            link.bytes_per_second > 0.0,
            "link bandwidth must be positive"
        );
        assert!(
            link.latency_seconds >= 0.0,
            "link latency cannot be negative"
        );
        self.link = link;
    }

    /// Replaces the node's compute capacity in place, preserving the
    /// link profile, data and any cached quantisation.
    ///
    /// # Panics
    /// Panics if `capacity <= 0`.
    pub fn set_capacity(&mut self, capacity: f64) {
        assert!(capacity > 0.0, "capacity must be positive, got {capacity}");
        self.capacity = capacity;
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable name (station name or synthetic label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Compute capacity `c_k`.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The node's uplink to the leader.
    pub fn link(&self) -> &LinkProfile {
        &self.link
    }

    /// The node's local supervised dataset.
    ///
    /// # Panics
    /// Panics on a summary-only node.
    pub fn data(&self) -> &DenseDataset {
        &self.local().data
    }

    /// Number of local samples `m` (0 on a summary-only node).
    pub fn len(&self) -> usize {
        self.local.as_ref().map_or(0, |local| local.data.len())
    }

    /// True when the node holds no samples: a summary-only node that
    /// has absorbed none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The joint (features + label) matrix the node clusters over.
    ///
    /// # Panics
    /// Panics on a summary-only node.
    pub fn joint(&self) -> &Matrix {
        &self.local().joint
    }

    /// Dimensionality of the joint space (features + 1), from the rows
    /// or, on a summary-only node, from the summaries.
    pub fn joint_dim(&self) -> usize {
        match &self.local {
            Some(local) => local.joint.cols(),
            None => self.summaries[0].rect.dim(),
        }
    }

    /// Bounding box of the node's whole joint data space.
    ///
    /// # Panics
    /// Panics on a summary-only node.
    pub fn data_space(&self) -> HyperRect {
        HyperRect::bounding_points(self.local().joint.row_iter())
            .expect("non-empty node always has a bounding box")
    }

    /// Quantises the local data space with k-means (§III-C, Eq. 1) and
    /// caches the cluster summaries the node would ship to its leader.
    ///
    /// # Panics
    /// Panics on a summary-only node.
    pub fn quantize(&mut self, k: usize, seed: u64) {
        let local = self
            .local
            .as_deref_mut()
            .unwrap_or_else(|| no_local_rows(self.id));
        let model = KMeans::fit(&local.joint, &KMeansConfig::with_k(k, seed));
        self.summaries = summary::summarize(&local.joint, &model);
        local.kmeans = Some(model);
        self.summary_epoch += 1;
    }

    /// Like [`EdgeNode::quantize`] but releases differentially-private
    /// summaries: the leader-visible rectangles and counts carry Laplace
    /// noise at budget ε while the node's own cluster memberships (used
    /// for local training) stay exact.
    pub fn quantize_private(&mut self, k: usize, seed: u64, epsilon: f64) {
        self.quantize(k, seed);
        let budget = cluster::privacy::PrivacyBudget::new(epsilon);
        self.summaries = cluster::privacy::noise_summaries(&self.summaries, &budget, seed ^ 0xD1FF);
        self.summary_epoch += 1;
    }

    /// Whether the node has leader-visible cluster summaries — either
    /// [`EdgeNode::quantize`] has run or the node was built from
    /// summaries directly ([`EdgeNode::from_summaries`]).
    pub fn is_quantized(&self) -> bool {
        !self.summaries.is_empty()
    }

    /// The cluster summary rectangles, in summary order — the node's
    /// entire leader-visible footprint in the joint space.
    ///
    /// # Panics
    /// Panics if the node is not quantised (same guidance as scoring).
    pub fn summary_rects(&self) -> impl ExactSizeIterator<Item = &HyperRect> {
        assert!(
            self.is_quantized(),
            "node {} has no cluster summaries; call EdgeNetwork::quantize_all first",
            self.id
        );
        self.summaries.iter().map(|s| &s.rect)
    }

    /// The hull of [`EdgeNode::summary_rects`]. This is what the spatial
    /// index stores per node: a query disjoint from this hull on *every*
    /// axis cannot produce a non-zero Eq. 2 overlap with any of the
    /// node's clusters.
    ///
    /// # Panics
    /// Panics if the node is not quantised (same guidance as scoring).
    pub fn summary_bounds(&self) -> HyperRect {
        let mut it = self.summary_rects();
        let first = it.next().expect("quantised node has summaries").clone();
        it.fold(first, |acc, r| acc.hull(r))
    }

    /// Version counter of the leader-visible summaries: 0 at
    /// construction, incremented on every change or staleness event
    /// (quantisation, private release, [`EdgeNode::absorb`]). A selection
    /// cache entry scored at epoch `e` is valid for this node while
    /// `summary_epoch() == e`.
    pub fn summary_epoch(&self) -> u64 {
        self.summary_epoch
    }

    /// Cluster summaries (empty before quantisation). This is the node's
    /// entire leader-visible state — `O(K·d)` numbers.
    pub fn summaries(&self) -> &[ClusterSummary] {
        &self.summaries
    }

    /// Number of non-empty clusters `K` the node reports.
    pub fn k(&self) -> usize {
        self.summaries.len()
    }

    /// The members of cluster `cluster_id` as a training dataset.
    ///
    /// # Panics
    /// Panics on a summary-only node, or if the node's own rows are not
    /// quantised.
    pub fn cluster_dataset(&self, cluster_id: usize) -> DenseDataset {
        let local = self.local();
        let model = local.kmeans.as_ref().expect("node not quantised");
        local.data.select(&model.members(cluster_id))
    }

    /// The whole local dataset as a single training stage (the "without
    /// query-driven selectivity" baseline of Figs. 8–9).
    ///
    /// # Panics
    /// Panics on a summary-only node.
    pub fn full_dataset(&self) -> DenseDataset {
        self.data().clone()
    }

    /// Absorbs newly collected samples into the node's local dataset; on
    /// a summary-only node they become its first local data.
    ///
    /// The cached quantisation becomes stale and is dropped — call
    /// [`EdgeNode::quantize`] (or use mini-batch maintenance at the
    /// application level) before the node participates again.
    ///
    /// # Panics
    /// Panics if the new data's width differs from the joint space's
    /// feature count.
    pub fn absorb(&mut self, new: &DenseDataset) {
        assert_eq!(
            new.dim() + 1,
            self.joint_dim(),
            "absorbed data width mismatch"
        );
        if new.is_empty() {
            return;
        }
        let data = match &self.local {
            Some(local) => local.data.concat(new),
            None => new.clone(),
        };
        self.local = Some(NodeLocal::new(data));
        self.summaries.clear();
        self.summary_epoch += 1;
    }

    /// Estimated number of local samples inside the query region,
    /// computed from the summaries only (what the *leader* can estimate;
    /// see [`cluster::estimate`]).
    ///
    /// # Panics
    /// Panics if the node is not quantised.
    pub fn estimated_query_cardinality(&self, query: &geom::Query) -> f64 {
        assert!(self.is_quantized(), "node not quantised");
        cluster::estimate::node_cardinality(&self.summaries, query)
    }

    /// Exact number of local samples inside the query region (what the
    /// node itself can compute).
    ///
    /// # Panics
    /// Panics on a summary-only node.
    pub fn exact_query_cardinality(&self, query: &geom::Query) -> usize {
        query.filter_indices(self.joint().row_iter()).len()
    }
}

/// The one panic of every accessor that reads a summary-only node's rows.
fn no_local_rows(id: NodeId) -> ! {
    panic!("node {id} is summary-only: it holds no local rows")
}

/// Concatenates features and label into the joint clustering matrix.
fn build_joint(data: &DenseDataset) -> Matrix {
    let n = data.len();
    let d = data.dim();
    let mut out = Matrix::zeros(n, d + 1);
    for i in 0..n {
        let row = out.row_mut(i);
        row[..d].copy_from_slice(data.x().row(i));
        row[d] = data.y()[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> EdgeNode {
        let x = Matrix::from_rows(&(0..60).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let y: Vec<f64> = (0..60).map(|i| 2.0 * i as f64 + 1.0).collect();
        EdgeNode::new(NodeId(3), "test", DenseDataset::new(x, y), 1.5)
    }

    #[test]
    fn joint_space_concatenates_label() {
        let n = node();
        assert_eq!(n.joint_dim(), 2);
        assert_eq!(n.joint().row(5), &[5.0, 11.0]);
        assert_eq!(n.len(), 60);
        assert_eq!(n.capacity(), 1.5);
        assert_eq!(n.id(), NodeId(3));
        assert_eq!(format!("{}", n.id()), "n3");
    }

    #[test]
    fn data_space_is_the_joint_bounding_box() {
        let n = node();
        let s = n.data_space();
        assert_eq!(s.to_boundary_vec(), vec![0.0, 59.0, 1.0, 119.0]);
    }

    #[test]
    fn quantize_builds_summaries_over_joint_space() {
        let mut n = node();
        assert!(!n.is_quantized());
        n.quantize(5, 7);
        assert!(n.is_quantized());
        assert_eq!(n.k(), 5);
        let covered: usize = n.summaries().iter().map(|s| s.size).sum();
        assert_eq!(covered, 60);
        for s in n.summaries() {
            assert_eq!(s.rect.dim(), 2);
        }
    }

    #[test]
    fn cluster_dataset_returns_members() {
        let mut n = node();
        n.quantize(4, 1);
        let mut total = 0;
        for s in n.summaries().to_vec() {
            let ds = n.cluster_dataset(s.cluster_id);
            assert_eq!(ds.len(), s.size);
            total += ds.len();
            // Every member's joint point lies inside the summary rect.
            for (row, &y) in ds.x().row_iter().zip(ds.y()) {
                let joint = [row[0], y];
                assert!(s.rect.contains_point(&joint));
            }
        }
        assert_eq!(total, 60);
    }

    #[test]
    #[should_panic(expected = "not quantised")]
    fn cluster_dataset_requires_quantize() {
        node().cluster_dataset(0);
    }

    #[test]
    #[should_panic(expected = "no local data")]
    fn empty_node_rejected() {
        EdgeNode::new(
            NodeId(0),
            "empty",
            DenseDataset::new(Matrix::zeros(0, 1), Vec::new()),
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn nonpositive_capacity_rejected() {
        let x = Matrix::from_rows(&[vec![1.0]]);
        EdgeNode::new(NodeId(0), "bad", DenseDataset::new(x, vec![1.0]), 0.0);
    }

    #[test]
    fn quantize_private_noises_leader_visible_state_only() {
        let mut exact = node();
        exact.quantize(4, 2);
        let mut private = node();
        private.quantize_private(4, 2, 0.1);
        assert_eq!(exact.k(), private.k());
        // Leader-visible rectangles differ...
        let moved = exact
            .summaries()
            .iter()
            .zip(private.summaries())
            .any(|(a, b)| a.rect != b.rect || a.size != b.size);
        assert!(moved, "eps=0.1 must perturb the released summaries");
        // ...but local training data (cluster memberships) is exact.
        for s in exact.summaries().to_vec() {
            assert_eq!(
                exact.cluster_dataset(s.cluster_id),
                private.cluster_dataset(s.cluster_id)
            );
        }
    }

    #[test]
    fn absorb_extends_data_and_invalidates_summaries() {
        let mut n = node();
        n.quantize(3, 1);
        assert!(n.is_quantized());
        let extra = DenseDataset::new(
            Matrix::from_rows(&[vec![100.0], vec![101.0]]),
            vec![201.0, 203.0],
        );
        n.absorb(&extra);
        assert_eq!(n.len(), 62);
        assert!(!n.is_quantized(), "stale quantisation must be dropped");
        assert_eq!(n.joint().row(61), &[101.0, 203.0]);
        // Re-quantising covers the new region too.
        n.quantize(3, 1);
        assert!(n.data_space().contains_point(&[101.0, 203.0]));
    }

    #[test]
    fn absorb_empty_is_a_noop() {
        let mut n = node();
        n.quantize(3, 1);
        n.absorb(&DenseDataset::new(Matrix::zeros(0, 1), Vec::new()));
        assert!(n.is_quantized());
        assert_eq!(n.len(), 60);
    }

    /// The summary epoch must move on every event that changes (or
    /// stales) the leader-visible summaries, and only on those.
    #[test]
    fn summary_epoch_tracks_summary_changes() {
        let mut n = node();
        assert_eq!(n.summary_epoch(), 0);
        n.quantize(3, 1);
        assert_eq!(n.summary_epoch(), 1);
        // Empty absorb changes nothing.
        n.absorb(&DenseDataset::new(Matrix::zeros(0, 1), Vec::new()));
        assert_eq!(n.summary_epoch(), 1);
        // Link/capacity tweaks are invisible to the leader's summaries.
        n.set_capacity(2.0);
        n.set_link(LinkProfile::default());
        assert_eq!(n.summary_epoch(), 1);
        let extra = DenseDataset::new(Matrix::from_rows(&[vec![100.0]]), vec![201.0]);
        n.absorb(&extra);
        assert_eq!(n.summary_epoch(), 2, "absorb stales the summaries");
        n.quantize(3, 1);
        assert_eq!(n.summary_epoch(), 3);
        let before = n.summary_epoch();
        n.quantize_private(3, 1, 0.5);
        assert!(
            n.summary_epoch() > before,
            "private release replaces the summaries"
        );
    }

    #[test]
    fn summary_bounds_hull_covers_every_cluster_rect() {
        let mut n = node();
        n.quantize(4, 2);
        let hull = n.summary_bounds();
        for s in n.summaries() {
            for d in 0..s.rect.dim() {
                assert!(hull.interval(d).lo() <= s.rect.interval(d).lo());
                assert!(hull.interval(d).hi() >= s.rect.interval(d).hi());
            }
        }
        // The hull is tight: it equals the hull of the member rects.
        let mut it = n.summaries().iter().map(|s| s.rect.clone());
        let first = it.next().unwrap();
        assert_eq!(hull, it.fold(first, |acc, r| acc.hull(&r)));
    }

    #[test]
    #[should_panic(expected = "call EdgeNetwork::quantize_all first")]
    fn summary_bounds_requires_quantisation() {
        node().summary_bounds();
    }

    /// A summary-only node with two clusters over a 2-D joint space.
    fn summary_only() -> EdgeNode {
        let summaries = vec![
            ClusterSummary {
                cluster_id: 0,
                size: 40,
                representative: vec![2.0, 3.0],
                rect: HyperRect::from_boundary_vec(&[1.0, 4.0, 2.0, 5.0]),
            },
            ClusterSummary {
                cluster_id: 1,
                size: 25,
                representative: vec![8.0, 9.0],
                rect: HyperRect::from_boundary_vec(&[7.0, 9.0, 8.0, 10.0]),
            },
        ];
        EdgeNode::from_summaries(NodeId(7), "synthetic", 1.5, summaries)
    }

    #[test]
    fn from_summaries_builds_a_selectable_node() {
        let n = summary_only();
        assert!(n.is_quantized(), "summary-only nodes count as quantised");
        assert_eq!(n.k(), 2);
        assert_eq!(n.summary_epoch(), 1);
        assert_eq!(n.joint_dim(), 2, "taken from the summaries");
        assert_eq!(n.len(), 0, "a summary-only node holds no rows");
        assert!(n.is_empty());
        assert_eq!(
            n.summary_bounds().to_boundary_vec(),
            vec![1.0, 9.0, 2.0, 10.0]
        );
        // Absorbing real data stales the synthetic summaries like any
        // other summary-carrying node.
        let mut n = n;
        n.absorb(&DenseDataset::new(
            Matrix::from_rows(&[vec![0.0]]),
            vec![0.0],
        ));
        assert!(!n.is_quantized());
        assert_eq!(n.summary_epoch(), 2);
    }

    /// Absorbed rows are a summary-only node's first local data: the
    /// next quantisation clusters exactly those rows and nothing else.
    #[test]
    fn absorb_into_a_summary_only_node_starts_its_local_data() {
        let mut n = summary_only();
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![20.0 + i as f64]).collect();
        let ys: Vec<f64> = (0..12).map(|i| 40.0 + 2.0 * i as f64).collect();
        let new = DenseDataset::new(Matrix::from_rows(&xs), ys);
        n.absorb(&new);
        assert_eq!(n.len(), 12);
        assert_eq!(n.data(), &new);
        assert_eq!(n.summary_epoch(), 2, "absorb stales the summaries");
        n.quantize(3, 1);
        assert_eq!(n.summary_epoch(), 3);
        let covered: usize = n.summaries().iter().map(|s| s.size).sum();
        assert_eq!(covered, 12);
        let hull = n.summary_bounds();
        assert_eq!(hull, n.data_space(), "no row but the absorbed ones");
        assert_eq!(hull.to_boundary_vec(), vec![20.0, 31.0, 40.0, 62.0]);
        let trained: usize = n
            .summaries()
            .iter()
            .map(|s| n.cluster_dataset(s.cluster_id).len())
            .sum();
        assert_eq!(trained, 12);
    }

    #[test]
    #[should_panic(expected = "absorbed data width mismatch")]
    fn absorb_into_a_summary_only_node_checks_the_width() {
        summary_only().absorb(&DenseDataset::new(
            Matrix::from_rows(&[vec![0.0, 1.0]]),
            vec![0.0],
        ));
    }

    #[test]
    #[should_panic(expected = "node n7 is summary-only: it holds no local rows")]
    fn summary_only_data_panics() {
        summary_only().data();
    }

    #[test]
    #[should_panic(expected = "node n7 is summary-only: it holds no local rows")]
    fn summary_only_joint_panics() {
        summary_only().joint();
    }

    #[test]
    #[should_panic(expected = "node n7 is summary-only: it holds no local rows")]
    fn summary_only_data_space_panics() {
        summary_only().data_space();
    }

    #[test]
    #[should_panic(expected = "node n7 is summary-only: it holds no local rows")]
    fn summary_only_full_dataset_panics() {
        summary_only().full_dataset();
    }

    #[test]
    #[should_panic(expected = "node n7 is summary-only: it holds no local rows")]
    fn summary_only_cluster_dataset_panics() {
        summary_only().cluster_dataset(0);
    }

    #[test]
    #[should_panic(expected = "node n7 is summary-only: it holds no local rows")]
    fn summary_only_exact_query_cardinality_panics() {
        let q = geom::Query::from_boundary_vec(0, &[0.0, 10.0, 0.0, 10.0]);
        summary_only().exact_query_cardinality(&q);
    }

    #[test]
    #[should_panic(expected = "node n7 is summary-only: it holds no local rows")]
    fn summary_only_quantize_panics() {
        summary_only().quantize(2, 1);
    }

    #[test]
    #[should_panic(expected = "at least one cluster summary")]
    fn from_summaries_rejects_empty() {
        EdgeNode::from_summaries(NodeId(0), "x", 1.0, vec![]);
    }

    #[test]
    fn cardinality_estimate_tracks_exact_count() {
        let mut n = node();
        n.quantize(4, 2);
        // Query over the lower half of the node's joint space (y = 2x+1).
        let q = geom::Query::from_boundary_vec(0, &[0.0, 30.0, 0.0, 61.0]);
        let exact = n.exact_query_cardinality(&q);
        let est = n.estimated_query_cardinality(&q);
        assert_eq!(exact, 31);
        assert!(
            (est - exact as f64).abs() < 0.4 * exact as f64,
            "estimate {est} vs exact {exact}"
        );
    }
}

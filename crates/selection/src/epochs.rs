//! The one staleness check shared by everything derived from a fleet's
//! summaries (the spatial index and the selection memo).

use edgesim::EdgeNetwork;

/// The summary state of a fleet as its holder last saw it.
#[derive(Debug, Default)]
pub(crate) struct FleetEpochs {
    /// [`EdgeNetwork::membership_epoch`] at the last refresh.
    membership: u64,
    /// [`EdgeNetwork::mutation_epoch`] at the last refresh. While the
    /// network's counter still matches, no `&mut EdgeNode` was handed
    /// out since, so the `O(N)` per-node walk is provably redundant — at
    /// fleet scale that walk streams the whole node vector and would
    /// dominate an index probe.
    mutation: u64,
    /// Per-node [`edgesim::EdgeNode::summary_epoch`], in node order.
    summaries: Vec<u64>,
}

impl FleetEpochs {
    /// Brings the snapshot up to date with `network` and returns how
    /// many nodes' summaries it had not seen: 0 means whatever was
    /// derived at the previous refresh is still current. A fresh
    /// snapshot has seen no node, so its first refresh reports them all.
    pub(crate) fn refresh(&mut self, network: &EdgeNetwork) -> usize {
        let nodes = network.nodes();
        let same_members =
            self.membership == network.membership_epoch() && self.summaries.len() == nodes.len();
        if same_members && self.mutation == network.mutation_epoch() {
            return 0;
        }
        // A node not seen before starts at an epoch no counter reaches.
        self.summaries.resize(nodes.len(), u64::MAX);
        let mut moved = 0;
        for (seen, node) in self.summaries.iter_mut().zip(nodes) {
            if *seen != node.summary_epoch() {
                *seen = node.summary_epoch();
                moved += 1;
            }
        }
        self.membership = network.membership_epoch();
        // Current either way: a `&mut` that changed no summary re-arms
        // the fast path here instead of re-walking the fleet every time.
        self.mutation = network.mutation_epoch();
        moved.max(usize::from(!same_members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::NodeId;
    use linalg::Matrix;
    use mlkit::DenseDataset;

    fn dataset(x0: f64) -> DenseDataset {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![x0 + i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    #[test]
    fn refresh_counts_real_drift_and_rearms_the_fast_path_on_a_noop() {
        let mut net = EdgeNetwork::from_datasets(
            (0..4)
                .map(|i| (format!("n{i}"), dataset(i as f64 * 40.0)))
                .collect(),
        );
        net.quantize_all(3, 1);
        let mut seen = FleetEpochs::default();
        assert_eq!(seen.refresh(&net), 4, "a fresh snapshot has seen no node");
        assert_eq!(seen.refresh(&net), 0);

        // A borrow that changes nothing costs one walk, not one per
        // refresh.
        let _ = net.node_mut(NodeId(1));
        assert_ne!(seen.mutation, net.mutation_epoch());
        assert_eq!(seen.refresh(&net), 0);
        assert_eq!(seen.mutation, net.mutation_epoch());

        // Two epochs on one node and one on another are two nodes.
        net.node_mut(NodeId(1)).absorb(&dataset(7.0));
        net.node_mut(NodeId(1)).quantize(3, 2);
        net.node_mut(NodeId(3)).quantize(2, 2);
        assert_eq!(seen.refresh(&net), 2);
        assert_eq!(seen.refresh(&net), 0);

        let id = net.add_node("late", dataset(500.0), 1.0);
        net.node_mut(id).quantize(3, 3);
        assert_eq!(seen.refresh(&net), 1, "the joiner");
        assert_eq!(seen.refresh(&net), 0);
    }
}

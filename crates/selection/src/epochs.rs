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

/// What one [`FleetEpochs::refresh`] found.
#[derive(Debug)]
pub(crate) struct Drift {
    /// How many nodes' summaries the snapshot had not seen (at least 1
    /// when membership changed): 0 means whatever was derived at the
    /// previous refresh is still current.
    pub(crate) count: usize,
    /// The nodes that moved, ascending, when membership is unchanged —
    /// what a holder needs to repair its derived state node by node.
    /// `None` after a membership change: the fleet is not the one the
    /// holder derived from, so nothing it holds is worth repairing.
    pub(crate) nodes: Option<Vec<usize>>,
}

impl FleetEpochs {
    /// Brings the snapshot up to date with `network` and reports what
    /// drifted since the last refresh. A fresh snapshot has seen no
    /// node, so its first refresh reports them all, as a membership
    /// change.
    pub(crate) fn refresh(&mut self, network: &EdgeNetwork) -> Drift {
        let nodes = network.nodes();
        let same_members =
            self.membership == network.membership_epoch() && self.summaries.len() == nodes.len();
        if same_members && self.mutation == network.mutation_epoch() {
            return Drift {
                count: 0,
                nodes: Some(Vec::new()),
            };
        }
        // A node not seen before starts at an epoch no counter reaches.
        self.summaries.resize(nodes.len(), u64::MAX);
        let mut count = 0;
        let mut moved = Vec::new();
        for (i, (seen, node)) in self.summaries.iter_mut().zip(nodes).enumerate() {
            if *seen != node.summary_epoch() {
                *seen = node.summary_epoch();
                count += 1;
                // Only a holder that can repair in place reads the list,
                // and none can across a membership change: a fresh
                // snapshot of a million nodes allocates nothing here.
                if same_members {
                    moved.push(i);
                }
            }
        }
        self.membership = network.membership_epoch();
        // Current either way: a `&mut` that changed no summary re-arms
        // the fast path here instead of re-walking the fleet every time.
        self.mutation = network.mutation_epoch();
        Drift {
            count: count.max(usize::from(!same_members)),
            nodes: same_members.then_some(moved),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fixtures::node_dataset as dataset;
    use edgesim::NodeId;

    #[test]
    fn refresh_counts_real_drift_and_rearms_the_fast_path_on_a_noop() {
        let mut net = EdgeNetwork::from_datasets(
            (0..4)
                .map(|i| (format!("n{i}"), dataset(i as f64 * 40.0)))
                .collect(),
        );
        net.quantize_all(3, 1);
        let mut seen = FleetEpochs::default();
        let first = seen.refresh(&net);
        assert_eq!(first.count, 4, "a fresh snapshot has seen no node");
        assert_eq!(first.nodes, None, "and counts as a membership change");
        assert_eq!(seen.refresh(&net).count, 0);

        // A borrow that changes nothing costs one walk, not one per
        // refresh.
        let _ = net.node_mut(NodeId(1));
        assert_ne!(seen.mutation, net.mutation_epoch());
        let noop = seen.refresh(&net);
        assert_eq!((noop.count, noop.nodes), (0, Some(Vec::new())));
        assert_eq!(seen.mutation, net.mutation_epoch());

        // Two epochs on one node and one on another are two nodes, named
        // in ascending order.
        net.node_mut(NodeId(3)).quantize(2, 2);
        net.node_mut(NodeId(1)).absorb(&dataset(7.0));
        net.node_mut(NodeId(1)).quantize(3, 2);
        let drift = seen.refresh(&net);
        assert_eq!((drift.count, drift.nodes), (2, Some(vec![1, 3])));
        assert_eq!(seen.refresh(&net).count, 0);

        let id = net.add_node("late", dataset(500.0), 1.0);
        net.node_mut(id).quantize(3, 3);
        let joined = seen.refresh(&net);
        assert_eq!((joined.count, joined.nodes), (1, None), "the joiner");
        assert_eq!(seen.refresh(&net).count, 0);
    }
}

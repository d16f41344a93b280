//! Serialisable policy configuration.

use selection::{
    AllNodes, CacheConfig, CachedQueryDriven, DataCentric, FairStochastic, GameTheory, GridConfig,
    QueryDriven, RandomSelection, SelectionPolicy, WithoutSelectivity,
};

/// A selection policy as configuration — convertible into the trait
/// object [`PolicyKind::build`] the federation loop consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// The paper's mechanism (§III-C) with top-ℓ capping.
    QueryDriven {
        /// Overlap threshold ε.
        epsilon: f64,
        /// Participants per query ℓ.
        l: usize,
    },
    /// The paper's mechanism with the ψ-threshold cut (Eq. 5).
    QueryDrivenThreshold {
        /// Overlap threshold ε.
        epsilon: f64,
        /// Ranking threshold ψ.
        psi: f64,
    },
    /// Query-driven node choice but no per-cluster data selectivity
    /// (the "without query" arm of Figs. 8–9).
    QueryDrivenNoSelectivity {
        /// Overlap threshold ε.
        epsilon: f64,
        /// Participants per query ℓ.
        l: usize,
    },
    /// Random selection of ℓ nodes (Ye et al.; ref. 6 of the paper).
    Random {
        /// Participants per query ℓ.
        l: usize,
        /// Draw seed.
        seed: u64,
    },
    /// Game-theory selection (Hammoud et al.; ref. 7 of the paper).
    GameTheory {
        /// Leader node index.
        leader: usize,
        /// Participants per query ℓ.
        l: usize,
        /// Probe training seed.
        seed: u64,
    },
    /// Every node with all its data.
    AllNodes,
    /// Data-centric composite scoring (Saha et al.; ref. 8 of the paper) - query-blind.
    DataCentric {
        /// Participants per query ℓ.
        l: usize,
    },
    /// Fairness-aware stochastic selection (Huang et al.; ref. 12 of the paper).
    FairStochastic {
        /// Participants per query ℓ.
        l: usize,
        /// Draw seed.
        seed: u64,
    },
}

/// Boxes a query-driven policy, behind [`WithoutSelectivity`] unless it
/// keeps its per-cluster data selectivity.
fn boxed<P: SelectionPolicy + 'static>(policy: P, selective: bool) -> Box<dyn SelectionPolicy> {
    if selective {
        Box::new(policy)
    } else {
        Box::new(WithoutSelectivity(policy))
    }
}

impl PolicyKind {
    /// The paper's defaults for a query-driven run: ε = 0.05, top-ℓ.
    pub fn query_driven(l: usize) -> Self {
        PolicyKind::QueryDriven { epsilon: 0.05, l }
    }

    /// Builds the runtime policy object: every node scored, no memo.
    pub fn build(&self) -> Box<dyn SelectionPolicy> {
        self.build_with(None, None)
    }

    /// Builds the runtime policy object. For the query-driven variants
    /// `index` makes spatial-index candidate generation
    /// ([`selection::indexed`]) the policy's candidate source and `memo`
    /// puts a memo of answers ([`selection::cache`]) in front of it;
    /// selections are bit-identical either way, only the work changes.
    /// Policies that never score summaries (random, game-theory, …)
    /// ignore both.
    pub fn build_with(
        &self,
        memo: Option<CacheConfig>,
        index: Option<GridConfig>,
    ) -> Box<dyn SelectionPolicy> {
        let kernel = match *self {
            PolicyKind::QueryDriven { epsilon, l }
            | PolicyKind::QueryDrivenNoSelectivity { epsilon, l } => QueryDriven::new(
                epsilon,
                selection::SelectionCap::TopL(l),
                selection::RankingRule::PaperEq4,
            ),
            PolicyKind::QueryDrivenThreshold { epsilon, psi } => {
                QueryDriven::threshold(epsilon, psi)
            }
            PolicyKind::Random { l, seed } => return Box::new(RandomSelection { l, seed }),
            PolicyKind::GameTheory { leader, l, seed } => {
                return Box::new(GameTheory::paper_default(leader, l, seed))
            }
            PolicyKind::AllNodes => return Box::new(AllNodes),
            PolicyKind::DataCentric { l } => return Box::new(DataCentric::equal_weights(l)),
            PolicyKind::FairStochastic { l, seed } => {
                return Box::new(FairStochastic::new(l, seed))
            }
        };
        let selective = !matches!(self, PolicyKind::QueryDrivenNoSelectivity { .. });
        let kernel = match index {
            Some(grid) => kernel.indexed(grid),
            None => kernel,
        };
        match memo {
            Some(cfg) => boxed(CachedQueryDriven::new(kernel, cfg), selective),
            None => boxed(kernel, selective),
        }
    }

    /// Display name (delegates to the built policy).
    pub fn name(&self) -> &'static str {
        self.build().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(PolicyKind::query_driven(3).name(), "query-driven");
        assert_eq!(PolicyKind::Random { l: 2, seed: 0 }.name(), "random");
        assert_eq!(PolicyKind::AllNodes.name(), "all-nodes");
        assert_eq!(
            PolicyKind::GameTheory {
                leader: 0,
                l: 2,
                seed: 0
            }
            .name(),
            "game-theory"
        );
        assert_eq!(
            PolicyKind::QueryDrivenNoSelectivity {
                epsilon: 0.05,
                l: 3
            }
            .name(),
            "without-selectivity"
        );
        assert_eq!(PolicyKind::DataCentric { l: 2 }.name(), "data-centric");
        assert_eq!(
            PolicyKind::FairStochastic { l: 2, seed: 0 }.name(),
            "fair-stochastic"
        );
    }

    #[test]
    fn cached_builds_keep_names_and_expose_stats() {
        let memo = Some(CacheConfig::default());
        let no_selectivity = PolicyKind::QueryDrivenNoSelectivity {
            epsilon: 0.05,
            l: 3,
        };
        // Names must not fork on caching: result tables key on them.
        assert_eq!(
            PolicyKind::query_driven(3).build_with(memo, None).name(),
            "query-driven"
        );
        assert_eq!(
            no_selectivity.build_with(memo, None).name(),
            "without-selectivity"
        );
        assert_eq!(
            PolicyKind::AllNodes.build_with(memo, None).name(),
            "all-nodes"
        );
        // Only memo-backed policies report cache stats.
        let stats = |kind: &PolicyKind, memo| kind.build_with(memo, None).cache_stats();
        assert!(stats(&PolicyKind::query_driven(3), memo).is_some());
        assert!(stats(&PolicyKind::query_driven(3), None).is_none());
        assert!(PolicyKind::query_driven(3).build().cache_stats().is_none());
        assert!(stats(&PolicyKind::AllNodes, memo).is_none());
        assert!(stats(&no_selectivity, memo).is_some());
        let threshold = PolicyKind::QueryDrivenThreshold {
            epsilon: 0.05,
            psi: 0.1,
        };
        assert!(stats(&threshold, memo).is_some());
    }

    #[test]
    fn indexed_builds_keep_names() {
        let grid = Some(GridConfig::default());
        // Names must not fork on indexing: result tables key on them.
        assert_eq!(
            PolicyKind::query_driven(3).build_with(None, grid).name(),
            "query-driven"
        );
        assert_eq!(
            PolicyKind::QueryDrivenNoSelectivity {
                epsilon: 0.05,
                l: 3
            }
            .build_with(None, grid)
            .name(),
            "without-selectivity"
        );
        assert_eq!(
            PolicyKind::AllNodes.build_with(None, grid).name(),
            "all-nodes"
        );
        let both = PolicyKind::query_driven(3).build_with(Some(CacheConfig::default()), grid);
        assert_eq!(both.name(), "query-driven");
        // Memo over index still reports cache stats; the index alone
        // has none.
        assert!(both.cache_stats().is_some());
        assert!(PolicyKind::query_driven(3)
            .build_with(None, grid)
            .cache_stats()
            .is_none());
    }

    #[test]
    fn variants_carry_their_parameters() {
        let p = PolicyKind::QueryDriven { epsilon: 0.1, l: 4 };
        assert_eq!(format!("{p:?}"), "QueryDriven { epsilon: 0.1, l: 4 }");
    }
}

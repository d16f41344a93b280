//! Eq. 2–5 of the paper written out naively: the oracle every fast
//! path (either candidate source, memo, pool) is tested against. One loop, no pool,
//! no telemetry, and deliberately no helper shared with [`QueryDriven`]
//! or `geom`'s overlap code — if this file and a fast path disagree,
//! read this file against §III-C first.
//!
//! [`QueryDriven`]: crate::QueryDriven

use edgesim::EdgeNetwork;
use geom::Query;

use crate::policy::{Participant, Ranked, Selection, SupportingCluster};
use crate::query_driven::{RankingRule, SelectionCap, RESERVE_PER_SLOT};

/// The five overlap cases of Fig. 3–4 on one dimension. A zero-width
/// interval overlaps by membership (1 inside or touching, else 0)
/// rather than by measure, which would be 0/0.
fn overlap_1d(q_lo: f64, q_hi: f64, k_lo: f64, k_hi: f64) -> f64 {
    let disjoint = q_hi < k_lo || k_hi < q_lo;
    if q_hi - q_lo == 0.0 || k_hi - k_lo == 0.0 {
        return if disjoint { 0.0 } else { 1.0 };
    }
    if disjoint {
        0.0
    } else if k_lo <= q_lo && q_hi <= k_hi {
        (q_hi - q_lo) / (k_hi - k_lo) // query inside cluster
    } else if q_lo <= k_lo && k_hi <= q_hi {
        (k_hi - k_lo) / (q_hi - q_lo) // cluster inside query
    } else if q_lo >= k_lo {
        (k_hi - q_lo) / (q_hi - k_lo) // query sticks out above
    } else {
        (q_hi - k_lo) / (k_hi - q_lo) // query sticks out below
    }
}

/// Every node that supports the query, best-ranked first, each with its
/// supporting clusters: `h_ik` per cluster (Eq. 2), supporting clusters
/// `h_ik ≥ ε`, potential `p_i` (Eq. 3), ranking `r_i = p_i · K′/K`
/// (Eq. 4) or one of the ablations' `p_i` and `K′/K`, equal rankings
/// ordered by node id. What a standby entry must become when a round
/// promotes it is its entry here.
pub fn ranked(
    network: &EdgeNetwork,
    query: &Query,
    epsilon: f64,
    rule: RankingRule,
) -> Vec<Participant> {
    let q = query.region().to_boundary_vec();
    let dims = q.len() / 2;
    let mut ranked = Vec::new();
    for node in network.nodes() {
        let mut supporting = Vec::new();
        for cluster in node.summaries() {
            let k = cluster.rect.to_boundary_vec();
            let mut sum = 0.0;
            for d in 0..dims {
                sum += overlap_1d(q[2 * d], q[2 * d + 1], k[2 * d], k[2 * d + 1]);
            }
            let overlap = sum / dims as f64;
            if overlap >= epsilon {
                supporting.push(SupportingCluster {
                    cluster_id: cluster.cluster_id,
                    overlap,
                    size: cluster.size,
                });
            }
        }
        // Training visits the best-overlapping cluster first; equal
        // overlaps keep summary order (the sort is stable).
        supporting.sort_by(|a, b| b.overlap.total_cmp(&a.overlap));
        let mut potential = 0.0;
        for cluster in &supporting {
            potential += cluster.overlap;
        }
        let fraction = supporting.len() as f64 / node.summaries().len() as f64;
        let ranking = match rule {
            RankingRule::PaperEq4 => potential * fraction,
            RankingRule::PotentialOnly => potential,
            RankingRule::CountOnly => fraction,
        };
        if ranking > 0.0 {
            ranked.push(Participant {
                node: node.id(),
                ranking,
                supporting_clusters: supporting,
            });
        }
    }
    ranked.sort_by(|a, b| {
        b.ranking
            .total_cmp(&a.ranking)
            .then(a.node.0.cmp(&b.node.0))
    });
    ranked
}

/// The paper's selection for one query: [`ranked`], then the top-ℓ or
/// `r_i ≥ ψ` cut (Eq. 5); the tail behind the cut keeps node and
/// ranking only, and under top-ℓ only its first
/// [`RESERVE_PER_SLOT`]` · ℓ` entries.
pub fn select(
    network: &EdgeNetwork,
    query: &Query,
    epsilon: f64,
    cap: SelectionCap,
    rule: RankingRule,
) -> Selection {
    let mut participants = ranked(network, query, epsilon, rule);
    let keep = match cap {
        SelectionCap::TopL(l) => l.min(participants.len()),
        SelectionCap::Threshold(psi) => participants.iter().filter(|p| p.ranking >= psi).count(),
        SelectionCap::AllPositive => participants.len(),
    };
    let reserve = match cap {
        SelectionCap::TopL(l) => l.saturating_mul(RESERVE_PER_SLOT),
        SelectionCap::Threshold(_) | SelectionCap::AllPositive => usize::MAX,
    };
    let standby = participants
        .split_off(keep)
        .into_iter()
        .take(reserve)
        .map(|p| Ranked {
            node: p.node,
            ranking: p.ranking,
        })
        .collect();
    Selection {
        participants,
        standby,
    }
}

/// Unit-test fixtures: a toy fleet and the bitwise check against the
/// oracle.
#[cfg(test)]
pub(crate) mod fixtures {
    use edgesim::EdgeNetwork;
    use linalg::Matrix;
    use mlkit::DenseDataset;

    use crate::{QueryDriven, Selection, SelectionContext};

    /// A node whose joint data lies on `y = x` over `[x0, x0 + 20]`,
    /// with enough spread for 3 clusters.
    pub(crate) fn node_dataset(x0: f64) -> DenseDataset {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![x0 + i as f64 / 3.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    /// `n` such nodes `spacing` apart, quantised to K = 3.
    pub(crate) fn network(n: usize, spacing: f64) -> EdgeNetwork {
        let datasets = (0..n)
            .map(|i| (format!("n{i}"), node_dataset(i as f64 * spacing)))
            .collect();
        let mut net = EdgeNetwork::from_datasets(datasets);
        net.quantize_all(3, 5);
        net
    }

    /// `got` is what the oracle selects for `ctx` under `policy`'s
    /// configuration, every float bit for bit.
    pub(crate) fn assert_oracle(policy: &QueryDriven, ctx: &SelectionContext<'_>, got: &Selection) {
        let want = super::select(
            ctx.network,
            ctx.query,
            policy.epsilon,
            policy.cap,
            policy.rule,
        );
        assert_eq!(&want, got);
        let bits = |s: &Selection| -> Vec<u64> {
            let participants = s.participants.iter().flat_map(|p| {
                std::iter::once(p.ranking).chain(p.supporting_clusters.iter().map(|c| c.overlap))
            });
            let standby = s.standby.iter().map(|r| r.ranking);
            participants.chain(standby).map(f64::to_bits).collect()
        };
        assert_eq!(bits(&want), bits(got));
    }
}

//! The answer digest: FNV-1a over 64-bit words, fed with the parts of an
//! answer that must not change — who was selected, their ranking bits,
//! the clusters they train on, the loss bits.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One selected (or standby) node as the digest sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Pick {
    pub node: u64,
    pub ranking: f64,
    /// `(cluster id, overlap, size)` in training order.
    pub clusters: Vec<(u64, f64, u64)>,
}

/// Digest of one selection: participants in rank order with everything
/// they carry, then the standby tail by node and ranking. Lengths are
/// hashed too, so moving a node across the participant cut shows.
pub fn selection_digest<'a>(
    participants: impl ExactSizeIterator<Item = &'a Pick>,
    standby: impl ExactSizeIterator<Item = (u64, f64)>,
) -> u64 {
    let mut d = Digest::new();
    d.word(participants.len() as u64);
    for p in participants {
        d.word(p.node);
        d.float(p.ranking);
        d.word(p.clusters.len() as u64);
        for &(id, overlap, size) in &p.clusters {
            d.word(id);
            d.float(overlap);
            d.word(size);
        }
    }
    d.word(standby.len() as u64);
    for (node, ranking) in standby {
        d.word(node);
        d.float(ranking);
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(node: u64, ranking: f64) -> Pick {
        Pick {
            node,
            ranking,
            clusters: vec![(0, 0.5, 10), (2, 0.25, 7)],
        }
    }

    fn digest(parts: &[Pick], standby: &[(u64, f64)]) -> u64 {
        selection_digest(parts.iter(), standby.iter().copied())
    }

    #[test]
    fn equal_selections_hash_equal() {
        let a = [pick(3, 1.5), pick(9, 0.75)];
        assert_eq!(digest(&a, &[(4, 0.1)]), digest(&a.clone(), &[(4, 0.1)]));
    }

    #[test]
    fn every_carried_field_moves_the_digest() {
        let base = [pick(3, 1.5), pick(9, 0.75)];
        let reference = digest(&base, &[(4, 0.1)]);
        // Order.
        assert_ne!(
            digest(&[pick(9, 0.75), pick(3, 1.5)], &[(4, 0.1)]),
            reference
        );
        // A ranking that differs in the last bit.
        let nudged = f64::from_bits(1.5f64.to_bits() + 1);
        assert_ne!(
            digest(&[pick(3, nudged), pick(9, 0.75)], &[(4, 0.1)]),
            reference
        );
        // A cluster size.
        let mut resized = base.clone();
        resized[1].clusters[0].2 = 11;
        assert_ne!(digest(&resized, &[(4, 0.1)]), reference);
        // The standby tail.
        assert_ne!(digest(&base, &[]), reference);
        assert_ne!(digest(&base, &[(5, 0.1)]), reference);
    }

    #[test]
    fn the_participant_cut_is_part_of_the_digest() {
        // Same nodes, one moved from participant to standby.
        let both = [pick(1, 1.0), pick(2, 1.0)];
        let mut bare = pick(2, 1.0);
        bare.clusters.clear();
        let mut first = pick(1, 1.0);
        first.clusters.clear();
        assert_ne!(
            digest(&[first.clone(), bare.clone()], &[]),
            digest(&[first], &[(2, 1.0)])
        );
        assert_ne!(digest(&both, &[]), digest(&both[..1], &[]));
    }

    #[test]
    fn negative_zero_and_zero_differ() {
        // Bits, not values: a fast path that flips a sign bit is caught.
        assert_ne!(digest(&[pick(1, 0.0)], &[]), digest(&[pick(1, -0.0)], &[]));
    }
}

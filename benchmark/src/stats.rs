//! Order statistics and the benchmark's own random numbers.

/// The `p`-th percentile (0–100) of an ascending slice, linearly
/// interpolated between the two closest ranks. 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let below = rank.floor() as usize;
            let above = (below + 1).min(n - 1);
            sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
        }
    }
}

/// Sorts ascending. Timings and rates are never NaN, so the total order
/// only exists to keep a NaN from panicking the sort.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What the operation at each place of the pool costs: per position, the
/// median over the passes. The traced run's layer arithmetic (`run_query`
/// − `select`, query by query) needs one latency per query; the gated
/// percentiles are taken over every timed operation instead.
pub fn typical_per_position(passes: &[Vec<f64>]) -> Vec<f64> {
    let positions = passes.first().map_or(0, Vec::len);
    (0..positions)
        .map(|i| median(&passes.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

/// SplitMix64. The benchmark draws every fleet, dataset and mutation it
/// generates from this, so its inputs do not move when the program's own
/// generator does.
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-12);
        assert!((percentile(&v, 12.5) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_small_samples() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 3.0], 50.0), 2.0);
        // Out-of-range requests clamp instead of indexing past the end.
        assert_eq!(percentile(&[1.0, 3.0], 250.0), 3.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_stall_in_one_pass_does_not_reach_the_typical_latency() {
        // Position 1 stalls in the second pass only.
        let passes = vec![
            vec![1.0, 10.0, 3.0],
            vec![1.2, 90.0, 3.0],
            vec![0.8, 11.0, 3.0],
        ];
        assert_eq!(typical_per_position(&passes), vec![1.0, 11.0, 3.0]);
        assert!(typical_per_position(&[]).is_empty());
    }

    #[test]
    fn rng_repeats_per_seed_and_differs_per_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(3, 0);
        for _ in 0..1000 {
            let x = r.range(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }
}

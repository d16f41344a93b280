//! Slice-level numeric kernels shared across the workspace.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    // Four-way unrolled accumulation: lets LLVM vectorise without relying
    // on float-reassociation flags.
    let mut acc = [0.0_f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `y += alpha * x` over equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(
        x.len(),
        y.len(),
        "axpy length mismatch: {} vs {}",
        x.len(),
        y.len()
    );
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place: `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// This is the inner kernel of k-means (Eq. 1 of the paper); it avoids the
/// square root since only order comparisons are needed there.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance length mismatch");
    let mut acc = 0.0;
    for (ai, bi) in a.iter().zip(b) {
        let d = ai - bi;
        acc += d * d;
    }
    acc
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_handles_all_tail_lengths() {
        for n in 0..9 {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
            let want: f64 = (0..n).map(|i| (i * i * 2) as f64).sum();
            assert_eq!(dot(&a, &b), want, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_rejects_length_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn distances_agree() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(squared_distance(&a, &b), 25.0);
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(distance(&a, &a), 0.0);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }
}

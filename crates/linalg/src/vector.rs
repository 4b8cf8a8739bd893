//! Dense vector kernels over `&[f64]` slices.
//!
//! Free functions rather than a wrapper type: the DA code mixes ensemble
//! state vectors, observation vectors and flattened grids, and slices compose
//! with all of them without copies.

/// Dot product `x . y`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Four-way unrolled accumulation: keeps independent FP chains in flight
    // and is deterministic (fixed association order) across runs.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `y += a * x` (BLAS `axpy`).
// lint: allow(dead-pub, reason="ensf/tests/step_equiv.rs holds the fused step's likelihood pull to it")
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Scales `x` in place by `a`.
#[inline]
pub fn scale(x: &mut [f64], a: f64) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Fused row update `y = a * y + b * x` in one pass, computed as
/// `fma(a, y, b·x)`: the per-element arithmetic of the GEMM affine epilogue
/// ([`crate::gemm::matmul_slices_affine_into`]), which tests hold it to.
///
/// # Panics
/// Panics if the slices have different lengths.
// lint: allow(dead-pub, reason="ensf/tests/step_equiv.rs holds the fused step's drift to it")
#[inline]
pub fn scale_add(y: &mut [f64], a: f64, x: &[f64], b: f64) {
    assert_eq!(x.len(), y.len(), "scale_add: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = a.mul_add(*yi, b * xi);
    }
}

/// Elementwise difference `x - y` into a new vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Elementwise sum `x + y` into a new vector.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Arithmetic mean (0 for an empty slice).
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_unrolled_matches_naive() {
        let x: Vec<f64> = (0..103).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..103).map(|i| (i as f64 * 0.11).cos()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12);
    }

    #[test]
    fn axpy_and_scale() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, [6.0, 12.0, 18.0]);
    }

    #[test]
    fn add_sub_mean() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[3.0, 4.0], &[1.0, 2.0]), vec![2.0, 2.0]);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}

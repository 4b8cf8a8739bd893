//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Used by the DA framework to draw correlated Gaussian perturbations
//! (`x = L z`) and to solve SPD systems arising in covariance manipulations.

use crate::matrix::Matrix;

/// Error returned when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Pivot index where the factorization broke down.
    pub pivot: usize,
    /// The offending pivot value (`<= 0` or NaN).
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix not positive definite at pivot {} (value {:.3e})", self.pivot, self.value)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
// lint: allow(dead-pub, reason="ROADMAP item 2: the Kalman posterior of the closed-form filter checks factors with it")
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so slightly asymmetric inputs
    /// (round-off) are tolerated.
    pub fn new(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        let n = a.rows();
        assert_eq!(a.rows(), a.cols(), "Cholesky requires a square matrix");
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            // NOTE: `!(d > 0.0)` (rather than `d <= 0.0`) deliberately
            // catches NaN pivots as "not positive definite".
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(d > 0.0) {
                return Err(NotPositiveDefinite { pivot: j, value: d });
            }
            let dsqrt = d.sqrt();
            l[(j, j)] = dsqrt;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dsqrt;
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via two triangular solves.
    // lint: allow(dead-pub, reason="ROADMAP item 2: the Kalman posterior mean of the closed-form filter")
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = forward_substitute(&self.l, b);
        back_substitute_transposed(&self.l, &y)
    }
}

/// Solves `L y = b` for lower-triangular `L`.
fn forward_substitute(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(b.len(), n);
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for j in 0..i {
            s -= l[(i, j)] * y[j];
        }
        y[i] = s / l[(i, i)];
    }
    y
}

/// Solves `L^T x = y` for lower-triangular `L` (i.e. an upper-triangular
/// solve against the transpose, without materializing it).
fn back_substitute_transposed(l: &Matrix, y: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(y.len(), n);
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in (i + 1)..n {
            s -= l[(j, i)] * x[j];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matvec};

    fn spd_matrix(n: usize, seed: f64) -> Matrix {
        // B B^T + n I is SPD for any B.
        let b = Matrix::from_fn(n, n, |r, c| ((r * n + c) as f64 * seed).sin());
        matmul(&b, &b.transpose()).add(&Matrix::identity(n).scaled(n as f64))
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_matrix(6, 0.37);
        let ch = Cholesky::new(&a).unwrap();
        let back = matmul(ch.l(), &ch.l().transpose());
        assert!(back.sub(&a).norm_max() < 1e-10);
    }

    #[test]
    fn factor_is_lower_triangular() {
        let a = spd_matrix(5, 0.91);
        let ch = Cholesky::new(&a).unwrap();
        for r in 0..5 {
            for c in (r + 1)..5 {
                assert_eq!(ch.l()[(r, c)], 0.0);
            }
        }
    }

    #[test]
    fn solve_matches_direct_multiplication() {
        let a = spd_matrix(8, 0.53);
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) * 0.5).collect();
        let b = matvec(&a, &x_true);
        let x = Cholesky::new(&a).unwrap().solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        let err = Cholesky::new(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.value <= 0.0);
    }

    #[test]
    fn triangular_solves_agree_with_matmul() {
        let a = spd_matrix(6, 0.21);
        let ch = Cholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..6).map(|i| i as f64 + 1.0).collect();
        let y = forward_substitute(ch.l(), &b);
        let ly = matvec(ch.l(), &y);
        for (g, w) in ly.iter().zip(&b) {
            assert!((g - w).abs() < 1e-10);
        }
        let x = back_substitute_transposed(ch.l(), &y);
        let ltx = matvec(&ch.l().transpose(), &x);
        for (g, w) in ltx.iter().zip(&y) {
            assert!((g - w).abs() < 1e-10);
        }
        // And the full product must give back b.
        let ax = matvec(&matmul(ch.l(), &ch.l().transpose()), &x);
        for (g, w) in ax.iter().zip(&b) {
            assert!((g - w).abs() < 1e-9);
        }
    }
}

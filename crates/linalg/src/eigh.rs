//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! The LETKF analysis solves an `m x m` symmetric eigenproblem per local
//! domain (m = ensemble size, ~20), thousands of times per assimilation
//! cycle. Jacobi is ideal at this size: simple, unconditionally stable, and
//! it delivers the orthogonal eigenvector matrix the ensemble transform
//! needs directly.

use crate::matrix::Matrix;

/// Eigendecomposition `A = V diag(w) V^T` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; column `j` pairs with `values[j]`.
    pub vectors: Matrix,
}

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 64;

impl SymEig {
    /// Computes the decomposition of symmetric `a`.
    ///
    /// Only the upper triangle is trusted; the matrix is symmetrized on
    /// entry so round-off asymmetry in callers is harmless.
    ///
    /// # Panics
    /// Panics if `a` is not square or contains non-finite entries.
    pub fn new(a: &Matrix) -> Self {
        let n = a.rows();
        assert_eq!(a.rows(), a.cols(), "SymEig requires a square matrix");
        assert!(
            a.as_slice().iter().all(|v| v.is_finite()),
            "SymEig requires finite entries"
        );

        // Work on a symmetrized copy.
        let mut m = Matrix::from_fn(n, n, |r, c| 0.5 * (a[(r, c)] + a[(c, r)]));
        let mut v = Matrix::identity(n);

        let frob = m.norm_frobenius().max(f64::MIN_POSITIVE);
        let tol = 1e-14 * frob;

        for _sweep in 0..MAX_SWEEPS {
            let off = off_diag_norm(&m);
            if off <= tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    // Classic Jacobi rotation annihilating (p, q).
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Update rows/columns p and q of m.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate the rotation into the eigenvector matrix.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        // Extract and sort ascending, permuting eigenvector columns along.
        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite eigenvalues"));
        let values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let vectors = Matrix::from_fn(n, n, |r, c| v[(r, pairs[c].1)]);
        SymEig { values, vectors }
    }

    /// Reconstructs `f(A) = V diag(f(w)) V^T` for a scalar function `f`.
    ///
    /// This is exactly the operation the LETKF needs: `(..)^{-1}` and
    /// `(..)^{-1/2}` of the analysis-covariance matrix in ensemble space.
    pub fn apply_fn(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let n = self.values.len();
        let v = &self.vectors;
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let fk = f(self.values[k]);
            if fk == 0.0 { // lint: allow(float-exact-compare, reason="exact-zero term skip is a bitwise no-op")
                continue;
            }
            for r in 0..n {
                let vr = v[(r, k)] * fk;
                if vr == 0.0 { // lint: allow(float-exact-compare, reason="exact-zero term skip is a bitwise no-op")
                    continue;
                }
                for c in 0..n {
                    out[(r, c)] += vr * v[(c, k)];
                }
            }
        }
        out
    }

    /// Symmetric inverse `A^{-1}` (assumes nonzero eigenvalues).
    pub fn inverse(&self) -> Matrix {
        self.apply_fn(|w| 1.0 / w)
    }
}

fn off_diag_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for r in 0..n {
        for c in (r + 1)..n {
            s += 2.0 * m[(r, c)] * m[(r, c)];
        }
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn sym_matrix(n: usize, seed: f64) -> Matrix {
        let b = Matrix::from_fn(n, n, |r, c| ((r * n + c + 1) as f64 * seed).sin());
        matmul(&b, &b.transpose())
    }

    #[test]
    fn reconstruction() {
        let a = sym_matrix(8, 0.29);
        let eig = SymEig::new(&a);
        let back = eig.apply_fn(|w| w);
        assert!(back.sub(&a).norm_max() < 1e-9 * a.norm_max().max(1.0));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = sym_matrix(7, 0.71);
        let eig = SymEig::new(&a);
        let vtv = matmul(&eig.vectors.transpose(), &eig.vectors);
        assert!(vtv.sub(&Matrix::identity(7)).norm_max() < 1e-10);
    }

    #[test]
    fn eigenpairs_satisfy_definition() {
        let a = sym_matrix(6, 0.47);
        let eig = SymEig::new(&a);
        for k in 0..6 {
            let vk = eig.vectors.col(k);
            let av = crate::gemm::matvec(&a, &vk);
            for i in 0..6 {
                assert!(
                    (av[i] - eig.values[k] * vk[i]).abs() < 1e-8 * a.norm_max().max(1.0),
                    "eigenpair {k} violated at row {i}"
                );
            }
        }
    }

    #[test]
    fn values_sorted_ascending() {
        let a = sym_matrix(9, 0.13);
        let eig = SymEig::new(&a);
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn diagonal_matrix_exact() {
        let a = Matrix::from_fn(3, 3, |r, c| if r == c { [3.0, 1.0, 2.0][r] } else { 0.0 });
        let eig = SymEig::new(&a);
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 2.0).abs() < 1e-12);
        assert!((eig.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = SymEig::new(&a);
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_and_inv_sqrt() {
        let a = sym_matrix(5, 0.83).add(&Matrix::identity(5).scaled(5.0)); // ensure SPD
        let eig = SymEig::new(&a);
        let inv = eig.inverse();
        assert!(matmul(&a, &inv).sub(&Matrix::identity(5)).norm_max() < 1e-8);
        let is = eig.apply_fn(|w| 1.0 / w.sqrt());
        let isis = matmul(&is, &is);
        assert!(matmul(&a, &isis).sub(&Matrix::identity(5)).norm_max() < 1e-7);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = sym_matrix(10, 0.59);
        let eig = SymEig::new(&a);
        let trace: f64 = (0..10).map(|i| a[(i, i)]).sum();
        let sum: f64 = eig.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn handles_1x1() {
        let a = Matrix::from_vec(1, 1, vec![4.0]);
        let eig = SymEig::new(&a);
        assert_eq!(eig.values, vec![4.0]);
        assert!((eig.vectors[(0, 0)].abs() - 1.0).abs() < 1e-14);
    }
}

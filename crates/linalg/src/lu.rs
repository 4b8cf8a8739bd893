//! LU factorization with partial pivoting.
//!
//! General (non-symmetric) solves and determinants; the LETKF inversion path
//! uses the symmetric eigensolver instead, but model-error covariance tooling
//! and the tests want a general-purpose solver.

use crate::matrix::Matrix;

/// Error for numerically singular matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct Singular {
    /// Elimination column where no usable pivot was found.
    pub column: usize,
}

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for Singular {}

/// Packed LU factorization: `P A = L U` with unit-diagonal `L`.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined storage: strictly-lower part holds `L` (unit diagonal
    /// implicit), upper part holds `U`.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the source row of output row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (`+1` or `-1`), for determinants.
    sign: f64,
}

impl Lu {
    /// Factors a square matrix with partial (row) pivoting.
    pub fn new(a: &Matrix) -> Result<Self, Singular> {
        let n = a.rows();
        assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for col in 0..n {
            // Pivot search.
            let mut p = col;
            let mut best = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best == 0.0 || !best.is_finite() { // lint: allow(float-exact-compare, reason="an exactly-zero pivot column is the singularity sentinel")
                return Err(Singular { column: col });
            }
            if p != col {
                for c in 0..n {
                    let tmp = lu[(col, c)];
                    lu[(col, c)] = lu[(p, c)];
                    lu[(p, c)] = tmp;
                }
                perm.swap(col, p);
                sign = -sign;
            }
            // Elimination.
            let pivot = lu[(col, col)];
            for r in (col + 1)..n {
                let factor = lu[(r, col)] / pivot;
                lu[(r, col)] = factor;
                for c in (col + 1)..n {
                    let sub = factor * lu[(col, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n);
        // Apply permutation, then forward- and back-substitute.
        let mut y: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for i in 0..n {
            for j in 0..i {
                y[i] -= self.lu[(i, j)] * y[j];
            }
        }
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                y[i] -= self.lu[(i, j)] * y[j];
            }
            y[i] /= self.lu[(i, i)];
        }
        y
    }

    /// Solves for multiple right-hand sides given as matrix columns.
    fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.lu.rows();
        assert_eq!(b.rows(), n);
        let mut out = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let col = b.col(c);
            let x = self.solve(&col);
            for r in 0..n {
                out[(r, c)] = x[r];
            }
        }
        out
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        (0..n).map(|i| self.lu[(i, i)]).product::<f64>() * self.sign
    }

    /// Explicit inverse (prefer `solve` where possible).
    pub fn inverse(&self) -> Matrix {
        let n = self.lu.rows();
        self.solve_matrix(&Matrix::identity(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matvec};

    fn well_conditioned(n: usize, seed: f64) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |r, c| ((r * n + c + 1) as f64 * seed).sin());
        a.add_diag(n as f64); // diagonally dominant-ish
        a
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = well_conditioned(7, 0.61);
        let x_true: Vec<f64> = (0..7).map(|i| (i as f64 * 0.3).cos()).collect();
        let b = matvec(&a, &x_true);
        let x = Lu::new(&a).unwrap().solve(&b);
        for (g, w) in x.iter().zip(&x_true) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = well_conditioned(6, 0.43);
        let inv = Lu::new(&a).unwrap().inverse();
        let prod = matmul(&a, &inv);
        assert!(prod.sub(&Matrix::identity(6)).norm_max() < 1e-9);
    }

    #[test]
    fn det_of_diagonal_matrix() {
        let a = Matrix::from_diag(&[2.0, -3.0, 4.0]);
        let det = Lu::new(&a).unwrap().det();
        assert!((det - (-24.0)).abs() < 1e-12);
    }

    #[test]
    fn det_sign_tracks_permutations() {
        // A permutation matrix swapping two rows has determinant -1.
        let mut a = Matrix::zeros(3, 3);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(2, 2)] = 1.0;
        assert!((Lu::new(&a).unwrap().det() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(Lu::new(&a).is_err());
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = well_conditioned(5, 0.37);
        let b = Matrix::from_fn(5, 3, |r, c| (r + c) as f64);
        let x = Lu::new(&a).unwrap().solve_matrix(&b);
        let back = matmul(&a, &x);
        assert!(back.sub(&b).norm_max() < 1e-9);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 5.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }
}

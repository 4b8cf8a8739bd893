//! Property-based tests for the linear-algebra substrate.

use linalg::{gemm, Cholesky, Matrix, SymEig};
use proptest::prelude::*;

/// Strategy: a well-conditioned square matrix (random + diagonal dominance).
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        Matrix::from_vec(n, n, data).add(&Matrix::identity(n).scaled(n as f64 + 1.0))
    })
}

/// Strategy: an SPD matrix built as B Bᵀ + (n+1) I.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data);
        gemm::matmul(&b, &b.transpose()).add(&Matrix::identity(n).scaled(n as f64 + 1.0))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (AB)ᵀ == Bᵀ Aᵀ
    #[test]
    fn transpose_of_product(
        m in 1usize..8, k in 1usize..8, n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let lhs = gemm::matmul(&a, &b).transpose();
        let rhs = gemm::matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.sub(&rhs).norm_max() < 1e-10);
    }

    /// Cholesky reconstructs and solves.
    #[test]
    fn cholesky_round_trip(a in spd_matrix(5), b in prop::collection::vec(-5.0f64..5.0, 5)) {
        let ch = Cholesky::new(&a).unwrap();
        let back = gemm::matmul(ch.l(), &ch.l().transpose());
        prop_assert!(back.sub(&a).norm_max() < 1e-9 * a.norm_max());
        let x = ch.solve(&b);
        let ax = gemm::matvec(&a, &x);
        for (g, w) in ax.iter().zip(&b) {
            prop_assert!((g - w).abs() < 1e-8);
        }
    }

    /// Jacobi eigensolver: reconstruction + orthonormality for random
    /// symmetric matrices (no diagonal boost — exercises clustered spectra).
    #[test]
    fn symeig_properties(data in prop::collection::vec(-1.0f64..1.0, 36)) {
        let b = Matrix::from_vec(6, 6, data);
        let a = Matrix::from_fn(6, 6, |r, c| 0.5 * (b[(r, c)] + b[(c, r)]));
        let eig = SymEig::new(&a);
        // V Vᵀ = I
        let vvt = gemm::matmul(&eig.vectors, &eig.vectors.transpose());
        prop_assert!(vvt.sub(&Matrix::identity(6)).norm_max() < 1e-9);
        // V diag(w) Vᵀ = A
        let back = eig.apply_fn(|w| w);
        prop_assert!(back.sub(&a).norm_max() < 1e-8);
        // ascending order
        for w in eig.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    /// Eigenvalues of an SPD matrix are positive and A^{-1/2} squares to A⁻¹.
    #[test]
    fn symeig_spd_inverse_sqrt(a in spd_matrix(5)) {
        let eig = SymEig::new(&a);
        for &w in &eig.values {
            prop_assert!(w > 0.0);
        }
        let is = eig.apply_fn(|w| 1.0 / w.sqrt());
        let inv_via_sqrt = gemm::matmul(&is, &is);
        let ident = gemm::matmul(&a, &inv_via_sqrt);
        prop_assert!(ident.sub(&Matrix::identity(5)).norm_max() < 1e-6);
    }

    /// matvec distributes over vector addition.
    #[test]
    fn matvec_linearity(
        a in square_matrix(5),
        x in prop::collection::vec(-3.0f64..3.0, 5),
        y in prop::collection::vec(-3.0f64..3.0, 5),
    ) {
        let xy: Vec<f64> = x.iter().zip(&y).map(|(p, q)| p + q).collect();
        let lhs = gemm::matvec(&a, &xy);
        let ax = gemm::matvec(&a, &x);
        let ay = gemm::matvec(&a, &y);
        for i in 0..5 {
            prop_assert!((lhs[i] - (ax[i] + ay[i])).abs() < 1e-10);
        }
    }
}

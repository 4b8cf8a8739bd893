//! Minimal 2-D `f32` tensor for the ViT surrogate.
//!
//! All activations in the network are `[rows, cols]` matrices with the
//! batch/token structure tracked by the layers (a `[B, T, D]` activation is
//! stored as `rows = B·T`, `cols = D`). f32 mirrors the mixed-precision
//! arithmetic of the GPU training the paper profiles.

/// Dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major buffer, `rows * cols` long.
    pub data: Vec<f32>,
}

/// Parallelize GEMMs above this many multiply-adds.
const PAR_FLOPS: usize = 32 * 32 * 32;

/// Runs a GEMM's row kernel `f(first_row, rows)` over the `n`-wide rows of
/// `out`: in row blocks on [`par::for_each_block`] when the product has at
/// least [`PAR_FLOPS`] multiply-adds, in one call otherwise.
fn run_rows(out: &mut [f32], flops: usize, n: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    if flops >= PAR_FLOPS {
        par::for_each_block(out, n, f);
    } else {
        f(0, out);
    }
}

impl Tensor {
    /// Zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor shape mismatch");
        Tensor { rows, cols, data }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other` (`[m,k]·[k,n] → [m,n]`), parallel over row blocks.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        let kernel = |first: usize, rows: &mut [f32]| {
            for (i, row_out) in (first..).zip(rows.chunks_mut(n)) {
                for (p, &a) in self.row(i).iter().enumerate() {
                    if a == 0.0 { // lint: allow(float-exact-compare, reason="exact-zero coefficient skip is a bitwise no-op")
                        continue;
                    }
                    let b_row = &other.data[p * n..(p + 1) * n];
                    for (o, &b) in row_out.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        };
        run_rows(&mut out.data, m * k * n, n, kernel);
        out
    }

    /// `self · otherᵀ` (`[m,k]·[n,k]ᵀ → [m,n]`) without materializing the
    /// transpose — the backward passes use this constantly.
    pub fn matmul_bt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_bt inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(m, n);
        let kernel = |first: usize, rows: &mut [f32]| {
            for (i, row_out) in (first..).zip(rows.chunks_mut(n)) {
                let a_row = self.row(i);
                for (j, o) in row_out.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (x, y) in a_row.iter().zip(other.row(j)) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        };
        run_rows(&mut out.data, m * k * n, n, kernel);
        out
    }

    /// `selfᵀ · other` (`[k,m]ᵀ·[k,n] → [m,n]`): the weight-gradient shape.
    pub fn matmul_at(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_at row mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        for p in 0..k {
            let a_row = self.row(p);
            let b_row = other.row(p);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 { // lint: allow(float-exact-compare, reason="exact-zero coefficient skip is a bitwise no-op")
                    continue;
                }
                let o_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Elementwise addition in place.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.data.len(), other.data.len(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales all elements in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, seed: f32) -> Tensor {
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| ((i as f32) * seed).sin()).collect(),
        )
    }

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut acc = 0.0;
                for p in 0..a.cols {
                    acc += a.data[i * a.cols + p] * b.data[p * b.cols + j];
                }
                out.data[i * b.cols + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = t(7, 5, 0.3);
        let b = t(5, 9, 0.7);
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        for (x, y) in got.data.iter().zip(&want.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_parallel_path() {
        let a = t(64, 64, 0.11);
        let b = t(64, 64, 0.13);
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        for (x, y) in got.data.iter().zip(&want.data) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = t(4, 6, 0.2);
        let b = t(5, 6, 0.9);
        let got = a.matmul_bt(&b);
        let want = a.matmul(&b.transpose());
        for (x, y) in got.data.iter().zip(&want.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = t(6, 4, 0.4);
        let b = t(6, 3, 0.8);
        let got = a.matmul_at(&b);
        let want = a.transpose().matmul(&b);
        for (x, y) in got.data.iter().zip(&want.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(3, 8, 0.5);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.data, vec![1.5, 2.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.data, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn finite_check_and_norm() {
        let mut a = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert!(a.is_finite());
        a.data[0] = f32::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}

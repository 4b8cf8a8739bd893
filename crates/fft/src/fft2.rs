//! 2-D transforms over row-major grids.
//!
//! The SQG model calls these on every Runge-Kutta stage, so [`Fft2`] owns
//! both row and column plans and [`Fft2Scratch`] carries the per-call
//! buffers. A transform runs on the calling thread: the ensemble's member
//! axis is where the forecast is parallel, and a fork-join here would nest
//! inside those workers.
//!
//! Two paths compute the same bits. When the CPU has AVX2 and both axes are
//! radix-2 and at least 4 long, `crate::simd` transforms the grid in place
//! (rows, then columns without a transpose; 64-point rows, and columns of
//! rows a multiple of 4 wide, on AVX-512F where the CPU has it). Every
//! other case (non-x86, no AVX2, a Bluestein axis, an axis shorter than 4)
//! takes the scalar path: the 1-D plan on every row, then on every row of
//! a cache-blocked transpose, transposed back. The scalar path is also the
//! vector path's test oracle.

use crate::complex::Complex;
use crate::plan::{Direction, FftPlan};

/// Reusable scratch for [`Fft2::process_with_scratch`]: the scalar path's
/// transpose buffer plus the Bluestein plans' scratch (the vector path needs
/// neither). Grown on first use, then reused allocation-free across calls
/// (e.g. once per RK4 stage loop in the SQG stepper).
#[derive(Debug, Default)]
pub struct Fft2Scratch {
    t: Vec<Complex>,
    row: Vec<Complex>,
}

impl Fft2Scratch {
    /// Creates an empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Fft2Scratch::default()
    }
}

/// Planned 2-D FFT for `rows x cols` row-major grids.
#[derive(Debug)]
pub struct Fft2 {
    rows: usize,
    cols: usize,
    pub(crate) row_plan: FftPlan,
    pub(crate) col_plan: FftPlan,
}

impl Fft2 {
    /// Builds a 2-D plan for `rows x cols` grids in direction `dir`.
    pub fn new(rows: usize, cols: usize, dir: Direction) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be nonzero");
        Fft2 {
            rows,
            cols,
            row_plan: FftPlan::new(cols, dir),
            col_plan: FftPlan::new(rows, dir),
        }
    }

    /// Grid height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Transform direction.
    pub fn direction(&self) -> Direction {
        self.row_plan.direction()
    }

    /// Transforms `data` (row-major, length `rows * cols`) in place.
    ///
    /// Convenience wrapper over [`Fft2::process_with_scratch`] with
    /// call-local scratch; hot loops should hold a [`Fft2Scratch`] and call
    /// the buffered entry point directly to avoid the scalar path's per-call
    /// transpose allocation.
    pub fn process(&self, data: &mut [Complex]) {
        let mut scratch = Fft2Scratch::new();
        self.process_with_scratch(data, &mut scratch);
    }

    /// Transforms `data` in place, reusing `scratch` across calls.
    ///
    /// Bitwise identical to [`Fft2::process`]: scratch buffers only change
    /// where intermediates live, never the operation order. The vector path,
    /// where it applies, is bitwise identical to the scalar path too.
    pub fn process_with_scratch(&self, data: &mut [Complex], scratch: &mut Fft2Scratch) {
        assert_eq!(
            data.len(),
            self.rows * self.cols,
            "buffer must be rows*cols = {}",
            self.rows * self.cols
        );
        if !crate::simd::fft2(&self.row_plan, &self.col_plan, data) {
            self.process_scalar(data, scratch);
        }
    }

    /// The portable path: the 1-D plan on every row, then on every row of
    /// the transpose. `data.len()` must be `rows * cols`.
    pub(crate) fn process_scalar(&self, data: &mut [Complex], scratch: &mut Fft2Scratch) {
        // Pass 1: independent FFTs along each row.
        for row in data.chunks_mut(self.cols) {
            self.row_plan.process_buffered(row, &mut scratch.row);
        }

        // Pass 2: transpose, FFT rows of the transpose, transpose back.
        // The explicit transpose keeps pass 2 cache-friendly and lets us use
        // the same contiguous row kernel.
        let n = self.rows * self.cols;
        if scratch.t.len() < n {
            scratch.t.resize(n, Complex::ZERO);
        }
        let t = &mut scratch.t[..n];
        transpose_into(data, self.rows, self.cols, t);
        for col in t.chunks_mut(self.rows) {
            self.col_plan.process_buffered(col, &mut scratch.row);
        }
        transpose_into(t, self.cols, self.rows, data);
    }
}

/// Writes the transpose of a `rows x cols` row-major matrix into `out`
/// (which becomes `cols x rows` row-major).
pub(crate) fn transpose_into(data: &[Complex], rows: usize, cols: usize, out: &mut [Complex]) {
    assert_eq!(data.len(), rows * cols);
    assert_eq!(out.len(), rows * cols);
    // Blocked to keep both source rows and destination rows in cache.
    const B: usize = 32;
    for bi in (0..rows).step_by(B) {
        for bj in (0..cols).step_by(B) {
            for i in bi..(bi + B).min(rows) {
                for j in bj..(bj + B).min(cols) {
                    out[j * rows + i] = data[i * cols + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns the transpose of a `rows x cols` row-major matrix.
    fn transpose(data: &[Complex], rows: usize, cols: usize) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; rows * cols];
        transpose_into(data, rows, cols, &mut out);
        out
    }

    fn dft2_naive(input: &[Complex], rows: usize, cols: usize) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; rows * cols];
        for p in 0..rows {
            for q in 0..cols {
                let mut acc = Complex::ZERO;
                for i in 0..rows {
                    for j in 0..cols {
                        let theta = -2.0
                            * std::f64::consts::PI
                            * ((p * i) as f64 / rows as f64 + (q * j) as f64 / cols as f64);
                        acc += input[i * cols + j] * Complex::cis(theta);
                    }
                }
                out[p * cols + q] = acc;
            }
        }
        out
    }

    #[test]
    fn transpose_round_trip() {
        let rows = 5;
        let cols = 7;
        let data: Vec<Complex> =
            (0..rows * cols).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let t = transpose(&data, rows, cols);
        let back = transpose(&t, cols, rows);
        assert_eq!(data, back);
    }

    #[test]
    fn matches_naive_2d_dft() {
        let (rows, cols) = (8, 4);
        let input: Vec<Complex> = (0..rows * cols)
            .map(|i| Complex::new((i as f64 * 0.23).sin(), (i as f64 * 0.71).cos()))
            .collect();
        let mut got = input.clone();
        Fft2::new(rows, cols, Direction::Forward).process(&mut got);
        let want = dft2_naive(&input, rows, cols);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-8, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn round_trip_2d() {
        let (rows, cols) = (16, 16);
        let input: Vec<Complex> =
            (0..rows * cols).map(|i| Complex::new(i as f64, (i % 7) as f64)).collect();
        let mut buf = input.clone();
        Fft2::new(rows, cols, Direction::Forward).process(&mut buf);
        Fft2::new(rows, cols, Direction::Inverse).process(&mut buf);
        for (g, w) in buf.iter().zip(&input) {
            assert!((*g - *w).abs() < 1e-8);
        }
    }

    #[test]
    fn rectangular_non_power_of_two_round_trip() {
        let (rows, cols) = (6, 10);
        let input: Vec<Complex> =
            (0..rows * cols).map(|i| Complex::new((i as f64).sqrt(), 0.1 * i as f64)).collect();
        let mut buf = input.clone();
        Fft2::new(rows, cols, Direction::Forward).process(&mut buf);
        Fft2::new(rows, cols, Direction::Inverse).process(&mut buf);
        for (g, w) in buf.iter().zip(&input) {
            assert!((*g - *w).abs() < 1e-8);
        }
    }

    #[test]
    fn scratch_entry_point_is_bitwise_identical() {
        // A small, a Bluestein and a large (65_536 points) shape, reusing
        // one scratch across all of them to exercise buffer growth.
        let mut scratch = Fft2Scratch::new();
        for (rows, cols) in [(8, 8), (6, 10), (256, 256)] {
            let input: Vec<Complex> = (0..rows * cols)
                .map(|i| Complex::new((i as f64 * 0.17).sin(), (i as f64 * 0.29).cos()))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let plan = Fft2::new(rows, cols, dir);
                let mut plain = input.clone();
                plan.process(&mut plain);
                let mut buffered = input.clone();
                plan.process_with_scratch(&mut buffered, &mut scratch);
                assert_eq!(plain, buffered, "scratch reuse changed bits at {rows}x{cols}");
            }
        }
    }

    #[test]
    fn large_grid_round_trip() {
        let (rows, cols) = (128, 128); // larger than any SQG caller's grid
        let input: Vec<Complex> =
            (0..rows * cols).map(|i| Complex::new((i as f64 * 0.011).sin(), 0.0)).collect();
        let mut buf = input.clone();
        Fft2::new(rows, cols, Direction::Forward).process(&mut buf);
        Fft2::new(rows, cols, Direction::Inverse).process(&mut buf);
        for (g, w) in buf.iter().zip(&input) {
            assert!((*g - *w).abs() < 1e-8);
        }
    }
}

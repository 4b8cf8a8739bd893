//! Bluestein's chirp-z algorithm for arbitrary-length DFTs.
//!
//! Any length-`n` DFT can be written as a circular convolution of two chirp
//! sequences, which we evaluate with a power-of-two radix-2 FFT of length
//! `m >= 2n - 1`. The SQG grids are powers of two, but the DA framework lets
//! users pick arbitrary grid sizes (e.g. 96 or 192 points per side), and the
//! spectrum diagnostics bin over arbitrary-length shells — so a general
//! fallback is part of the substrate, not gold-plating.

use crate::complex::Complex;
use crate::plan::{Direction, Radix2Plan};
use crate::radix2::fft_in_place;

/// Precomputed Bluestein data for one `(n, direction)` pair.
#[derive(Debug)]
pub(crate) struct BluesteinPlan {
    n: usize,
    dir: Direction,
    /// Convolution length (power of two, `>= 2n - 1`).
    m: usize,
    /// Forward and inverse radix-2 plans of length `m`.
    fwd: Radix2Plan,
    inv: Radix2Plan,
    /// Chirp `a_j = exp(sign * i * pi * j^2 / n)` for `j in 0..n`.
    chirp: Vec<Complex>,
    /// FFT of the zero-padded conjugate chirp kernel (length `m`).
    kernel_f: Vec<Complex>,
}

impl BluesteinPlan {
    pub(crate) fn new(n: usize, dir: Direction) -> Self {
        assert!(n > 0);
        let m = (2 * n - 1).next_power_of_two();
        let sign = dir.sign();

        // chirp[j] = exp(sign * i * pi * j^2 / n). Reduce j^2 mod 2n before
        // the float conversion so large n does not lose precision.
        let chirp: Vec<Complex> = (0..n)
            .map(|j| {
                let jj = ((j as u128 * j as u128) % (2 * n as u128)) as f64;
                Complex::cis(sign * std::f64::consts::PI * jj / n as f64)
            })
            .collect();

        // Kernel b_j = conj(chirp[|j|]) arranged circularly, then FFT'd.
        let mut kernel = vec![Complex::ZERO; m];
        kernel[0] = chirp[0].conj();
        for j in 1..n {
            let c = chirp[j].conj();
            kernel[j] = c;
            kernel[m - j] = c;
        }
        let fwd = Radix2Plan::new(m, Direction::Forward);
        let inv = Radix2Plan::new(m, Direction::Inverse);
        fft_in_place(&fwd, &mut kernel);

        BluesteinPlan { n, dir, m, fwd, inv, chirp, kernel_f: kernel }
    }

    pub(crate) fn process(&self, data: &mut [Complex]) {
        let mut scratch = Vec::new();
        self.process_buffered(data, &mut scratch);
    }

    pub(crate) fn process_buffered(&self, data: &mut [Complex], scratch: &mut Vec<Complex>) {
        debug_assert_eq!(data.len(), self.n);
        scratch.clear();
        scratch.resize(self.m, Complex::ZERO);

        // Pre-multiply by the chirp and zero-pad.
        for j in 0..self.n {
            scratch[j] = data[j] * self.chirp[j];
        }

        // Circular convolution with the conjugate chirp via the length-m FFT.
        fft_in_place(&self.fwd, scratch);
        for (z, k) in scratch.iter_mut().zip(&self.kernel_f) {
            *z *= *k;
        }
        fft_in_place(&self.inv, scratch);
        let minv = 1.0 / self.m as f64;

        // Post-multiply by the chirp; apply 1/n for inverse transforms.
        let norm = if self.dir == Direction::Inverse { minv / self.n as f64 } else { minv };
        for j in 0..self.n {
            data[j] = scratch[j] * self.chirp[j] * norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FftPlan;

    fn dft_naive(input: &[Complex], dir: Direction) -> Vec<Complex> {
        let n = input.len();
        let sign = dir.sign();
        let mut out = vec![Complex::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let theta = sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                acc += x * Complex::cis(theta);
            }
            if dir == Direction::Inverse {
                acc /= n as f64;
            }
            *o = acc;
        }
        out
    }

    #[test]
    fn matches_naive_for_non_power_of_two() {
        for n in [3usize, 5, 6, 7, 12, 15, 31, 96, 100] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.9).cos(), (i as f64 * 0.4).sin()))
                .collect();
            let mut got = input.clone();
            FftPlan::new(n, Direction::Forward).process(&mut got);
            let want = dft_naive(&input, Direction::Forward);
            for (g, w) in got.iter().zip(&want) {
                assert!((*g - *w).abs() < 1e-8 * n as f64, "n={n}: {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn inverse_round_trip_non_power_of_two() {
        for n in [5usize, 12, 96] {
            let input: Vec<Complex> =
                (0..n).map(|i| Complex::new(i as f64, (i * i) as f64 * 0.01)).collect();
            let mut buf = input.clone();
            FftPlan::new(n, Direction::Forward).process(&mut buf);
            FftPlan::new(n, Direction::Inverse).process(&mut buf);
            for (g, w) in buf.iter().zip(&input) {
                assert!((*g - *w).abs() < 1e-8 * n as f64);
            }
        }
    }

    #[test]
    fn length_one_is_identity() {
        let mut buf = vec![Complex::new(2.5, -1.5)];
        FftPlan::new(1, Direction::Forward).process(&mut buf);
        assert!((buf[0] - Complex::new(2.5, -1.5)).abs() < 1e-12);
    }

    #[test]
    fn buffered_path_reuses_scratch() {
        let n = 7;
        let plan = FftPlan::new(n, Direction::Forward);
        let mut scratch = Vec::new();
        let input: Vec<Complex> = (0..n).map(|i| Complex::from(i as f64)).collect();
        let mut a = input.clone();
        let mut b = input.clone();
        plan.process(&mut a);
        plan.process_buffered(&mut b, &mut scratch);
        // Scratch grew once to the convolution length and is reusable.
        assert!(scratch.capacity() >= 2 * n - 1);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-12);
        }
        let mut c = input.clone();
        plan.process_buffered(&mut c, &mut scratch);
        for (x, y) in a.iter().zip(&c) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }
}

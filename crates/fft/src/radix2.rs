//! Iterative radix-2 decimation-in-time Cooley-Tukey kernel.
//!
//! The executor operates in place on a bit-reversed copy of the input and
//! walks the butterfly stages with precomputed twiddles from the plan. It is
//! deliberately allocation-free: plans own every table the kernel touches.

use crate::complex::Complex;
use crate::plan::Radix2Plan;

/// Executes an unnormalized radix-2 FFT in place using `plan`'s tables.
///
/// The caller (via [`crate::FftPlan`]) is responsible for the `1/N` inverse
/// normalization.
pub(crate) fn fft_in_place(plan: &Radix2Plan, data: &mut [Complex]) {
    let n = plan.n;
    debug_assert_eq!(data.len(), n);
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation (swap once per pair).
    for &(i, j) in &plan.swaps {
        data.swap(i as usize, j as usize);
    }

    // Butterfly stages. Stage `s` combines blocks of length 2^(s+1) from two
    // halves of length `half = 2^s`.
    for (s, tw) in plan.twiddles.iter().enumerate() {
        let half = 1usize << s;
        let block = half << 1;
        let mut base = 0;
        while base < n {
            for j in 0..half {
                let w = tw[j];
                let a = data[base + j];
                let b = data[base + j + half] * w;
                data[base + j] = a + b;
                data[base + j + half] = a - b;
            }
            base += block;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Direction, FftPlan};

    /// Naive O(n^2) DFT used as the reference implementation in tests.
    pub(crate) fn dft_naive(input: &[Complex], dir: Direction) -> Vec<Complex> {
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

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (*x - *y).abs() < tol,
                "mismatch: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    #[test]
    fn matches_naive_dft_various_sizes() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let plan = FftPlan::new(n, Direction::Forward);
            let mut got = input.clone();
            plan.process(&mut got);
            let want = dft_naive(&input, Direction::Forward);
            assert_close(&got, &want, 1e-9 * n as f64);
        }
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        let n = 128;
        let input: Vec<Complex> =
            (0..n).map(|i| Complex::new(i as f64, -(i as f64) * 0.5)).collect();
        let fwd = FftPlan::new(n, Direction::Forward);
        let inv = FftPlan::new(n, Direction::Inverse);
        let mut buf = input.clone();
        fwd.process(&mut buf);
        inv.process(&mut buf);
        assert_close(&buf, &input, 1e-10 * n as f64);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 32;
        let mut buf = vec![Complex::ZERO; n];
        buf[0] = Complex::ONE;
        FftPlan::new(n, Direction::Forward).process(&mut buf);
        for z in &buf {
            assert!((*z - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 32;
        let mut buf = vec![Complex::ONE; n];
        FftPlan::new(n, Direction::Forward).process(&mut buf);
        assert!((buf[0] - Complex::from_re(n as f64)).abs() < 1e-10);
        for z in &buf[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn pure_tone_hits_single_bin() {
        let n = 64;
        let k0 = 5usize;
        let buf0: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * (j * k0) as f64 / n as f64))
            .collect();
        let mut buf = buf0;
        FftPlan::new(n, Direction::Forward).process(&mut buf);
        for (k, z) in buf.iter().enumerate() {
            if k == k0 {
                assert!((*z - Complex::from_re(n as f64)).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {z:?}");
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new((i as f64).sin(), 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (i as f64).cos())).collect();
        let plan = FftPlan::new(n, Direction::Forward);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.process(&mut fa);
        plan.process(&mut fb);
        let mut fab: Vec<Complex> =
            a.iter().zip(&b).map(|(x, y)| *x * 2.0 + *y * 3.0).collect();
        plan.process(&mut fab);
        for i in 0..n {
            assert!((fab[i] - (fa[i] * 2.0 + fb[i] * 3.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 256;
        let input: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64 * 1.7).sin(), (i as f64 * 0.3).cos())).collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = input;
        FftPlan::new(n, Direction::Forward).process(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }
}

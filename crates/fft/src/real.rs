//! Real-input transforms and spectral-convention helpers.
//!
//! The spectrum of a real field is Hermitian (`X(k) = conj X(−k)`), so a
//! complex transform of one real field wastes half its work. The pair
//! helpers below recover it: two real fields ride one complex transform as
//! `a + i·b`, and the Hermitian split separates their spectra afterwards.
//! The SQG state conversions and the tendency's advection transform both go
//! through them. The 1-D helpers transform a real signal to its full
//! spectrum and expose the symmetry check used by the property tests.

use crate::complex::Complex;
use crate::plan::{Direction, FftPlan};

/// Forward-transforms a real signal, returning the full complex spectrum.
pub fn rfft(input: &[f64]) -> Vec<Complex> {
    let mut buf: Vec<Complex> = input.iter().map(|&x| Complex::from_re(x)).collect();
    FftPlan::new(input.len(), Direction::Forward).process(&mut buf);
    buf
}

/// Maximum deviation of `spectrum` from exact Hermitian symmetry
/// (`X[k] == conj(X[n-k])`), which characterizes the spectrum of a real
/// signal. Returns 0 for lengths < 2.
pub fn hermitian_symmetry_error(spectrum: &[Complex]) -> f64 {
    let n = spectrum.len();
    let mut worst = 0.0f64;
    for k in 1..n {
        let d = (spectrum[k] - spectrum[n - k].conj()).abs();
        if d > worst {
            worst = d;
        }
    }
    // DC (and Nyquist for even n) must be purely real.
    worst = worst.max(spectrum[0].im.abs());
    if n.is_multiple_of(2) && n > 0 {
        worst = worst.max(spectrum[n / 2].im.abs());
    }
    worst
}

/// Packs two real fields into one complex buffer, `z = a + i·b`, so a single
/// forward transform carries both (separate with [`split_pair`]).
// lint: no_alloc
pub fn pack_pair(a: &[f64], b: &[f64], z: &mut [Complex]) {
    assert!(a.len() == z.len() && b.len() == z.len(), "pair fields must match the buffer");
    for ((z, &a), &b) in z.iter_mut().zip(a).zip(b) {
        *z = Complex::new(a, b);
    }
}

/// Reads the two real fields back out of `z = a + i·b` (the inverse
/// transform of [`pack_spectra`]'s output).
// lint: no_alloc
pub fn unpack_pair(z: &[Complex], a: &mut [f64], b: &mut [f64]) {
    assert!(a.len() == z.len() && b.len() == z.len(), "pair fields must match the buffer");
    for ((z, a), b) in z.iter().zip(a).zip(b) {
        *a = z.re;
        *b = z.im;
    }
}

/// Packs the spectra of two real fields as `z = â + i·b̂`; by linearity one
/// inverse transform of `z` returns `a` in the real and `b` in the imaginary
/// part. Both inputs must be Hermitian: an anti-Hermitian residue of one
/// would land in the other's field instead of a discarded imaginary part.
// lint: no_alloc
pub fn pack_spectra(a: &[Complex], b: &[Complex], z: &mut [Complex]) {
    assert!(a.len() == z.len() && b.len() == z.len(), "pair spectra must match the buffer");
    for ((z, a), b) in z.iter_mut().zip(a).zip(b) {
        *z = Complex::new(a.re - b.im, a.im + b.re);
    }
}

/// Index of mode `−k` for mode `k = (i, j)` on a `rows x cols` row-major grid.
#[inline(always)]
pub fn conj_index(i: usize, j: usize, rows: usize, cols: usize) -> usize {
    let ci = if i == 0 { 0 } else { rows - i };
    let cj = if j == 0 { 0 } else { cols - j };
    ci * cols + cj
}

/// The Hermitian split at one mode: given `Z = FFT(a + i·b)` at mode `k`
/// (`z`) and at `−k` (`z_neg`), returns `(â(k), b̂(k))` with
/// `â = (Z(k) + conj Z(−k))/2` and `b̂ = (Z(k) − conj Z(−k))/(2i)`.
///
/// Sums and differences are taken componentwise, so swapping the arguments
/// gives exactly the conjugates: the split spectra are Hermitian to the last
/// bit, and purely real where `k = −k` (DC, Nyquist).
#[inline(always)]
pub fn split_pair_mode(z: Complex, z_neg: Complex) -> (Complex, Complex) {
    (
        Complex::new(0.5 * (z.re + z_neg.re), 0.5 * (z.im - z_neg.im)),
        Complex::new(0.5 * (z.im + z_neg.im), 0.5 * (z_neg.re - z.re)),
    )
}

/// Separates the forward 2-D transform `z` of a packed pair `a + i·b`
/// (`rows x cols`, row-major) into the full spectra of `a` and `b`.
// lint: no_alloc
pub fn split_pair(z: &[Complex], rows: usize, cols: usize, a: &mut [Complex], b: &mut [Complex]) {
    assert_eq!(z.len(), rows * cols, "buffer must be rows*cols");
    assert!(a.len() == z.len() && b.len() == z.len(), "pair spectra must match the buffer");
    for i in 0..rows {
        for j in 0..cols {
            let idx = i * cols + j;
            (a[idx], b[idx]) = split_pair_mode(z[idx], z[conj_index(i, j, rows, cols)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inverse transform of a real signal's spectrum, imaginary residue
    /// dropped.
    fn irfft(spectrum: &[Complex]) -> Vec<f64> {
        let mut buf = spectrum.to_vec();
        FftPlan::new(spectrum.len(), Direction::Inverse).process(&mut buf);
        buf.into_iter().map(|z| z.re).collect()
    }

    #[test]
    fn real_round_trip() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() + 0.5).collect();
        let spec = rfft(&x);
        let back = irfft(&spec);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn real_signal_spectrum_is_hermitian() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64).cos() * (i as f64 * 0.1).exp()).collect();
        let spec = rfft(&x);
        assert!(hermitian_symmetry_error(&spec) < 1e-9);
    }

    #[test]
    fn odd_length_round_trip() {
        let x: Vec<f64> = (0..21).map(|i| (i as f64 * 0.7).cos()).collect();
        let back = irfft(&rfft(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

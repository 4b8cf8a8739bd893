//! Real-field pair transforms and spectral-convention helpers.
//!
//! The spectrum of a real field is Hermitian (`X(k) = conj X(−k)`), so a
//! complex transform of one real field wastes half its work. The pair
//! helpers below recover it: two real fields ride one complex transform as
//! `a + i·b`, and the Hermitian split separates their spectra afterwards.
//! The SQG state conversions and the tendency's advection transform both go
//! through them.

use crate::complex::Complex;

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

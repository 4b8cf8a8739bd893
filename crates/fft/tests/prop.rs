//! Property-based tests for the FFT substrate.

use fft::{real, Complex, Direction, Fft2, FftPlan};
use proptest::prelude::*;

/// Forward 2-D transform of a real field, one full complex transform.
fn fft2_of_real(field: &[f64], rows: usize, cols: usize) -> Vec<Complex> {
    let mut buf: Vec<Complex> = field.iter().map(|&x| Complex::from(x)).collect();
    Fft2::new(rows, cols, Direction::Forward).process(&mut buf);
    buf
}

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// forward ∘ inverse == identity for arbitrary power-of-two inputs.
    #[test]
    fn round_trip_pow2(exp in 0usize..9, seed in any::<u64>()) {
        let n = 1usize << exp;
        let mut rng_state = seed;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let input: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        let mut buf = input.clone();
        FftPlan::new(n, Direction::Forward).process(&mut buf);
        FftPlan::new(n, Direction::Inverse).process(&mut buf);
        for (a, b) in buf.iter().zip(&input) {
            prop_assert!((*a - *b).abs() < 1e-9 * (n as f64).max(1.0));
        }
    }

    /// Round trip for arbitrary (Bluestein) lengths.
    #[test]
    fn round_trip_any_len(input in (1usize..80).prop_flat_map(complex_vec)) {
        let n = input.len();
        let mut buf = input.clone();
        FftPlan::new(n, Direction::Forward).process(&mut buf);
        FftPlan::new(n, Direction::Inverse).process(&mut buf);
        for (a, b) in buf.iter().zip(&input) {
            prop_assert!((*a - *b).abs() < 1e-7 * n as f64);
        }
    }

    /// Parseval: energy is conserved up to the 1/N convention.
    #[test]
    fn parseval(input in (2usize..64).prop_flat_map(complex_vec)) {
        let n = input.len();
        let te: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = input.clone();
        FftPlan::new(n, Direction::Forward).process(&mut buf);
        let fe: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((te - fe).abs() <= 1e-6 * te.max(1.0));
    }

    /// Linearity: F(a x + b y) == a F(x) + b F(y).
    #[test]
    fn linearity(
        n_exp in 1usize..7,
        a in -10.0f64..10.0,
        b in -10.0f64..10.0,
        seed in any::<u64>(),
    ) {
        let n = 1usize << n_exp;
        let mut s = seed | 1;
        let mut next = || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        let y: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        let plan = FftPlan::new(n, Direction::Forward);
        let mut fx = x.clone();
        let mut fy = y.clone();
        plan.process(&mut fx);
        plan.process(&mut fy);
        let mut fxy: Vec<Complex> = x.iter().zip(&y).map(|(p, q)| *p * a + *q * b).collect();
        plan.process(&mut fxy);
        for i in 0..n {
            let want = fx[i] * a + fy[i] * b;
            prop_assert!((fxy[i] - want).abs() < 1e-7 * n as f64 * (a.abs() + b.abs() + 1.0));
        }
    }

    /// 2-D round trip on small rectangular grids.
    #[test]
    fn round_trip_2d(rows in 1usize..12, cols in 1usize..12, seed in any::<u64>()) {
        let mut s = seed | 1;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let input: Vec<Complex> =
            (0..rows * cols).map(|_| Complex::new(next(), next())).collect();
        let mut buf = input.clone();
        Fft2::new(rows, cols, Direction::Forward).process(&mut buf);
        Fft2::new(rows, cols, Direction::Inverse).process(&mut buf);
        for (p, q) in buf.iter().zip(&input) {
            prop_assert!((*p - *q).abs() < 1e-7 * (rows * cols) as f64);
        }
    }

    /// Time-domain circular shift only changes spectral phases, not magnitudes.
    #[test]
    fn shift_preserves_magnitude(n_exp in 1usize..7, shift in 0usize..64, seed in any::<u64>()) {
        let n = 1usize << n_exp;
        let shift = shift % n;
        let mut s = seed | 1;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        let mut shifted = vec![Complex::ZERO; n];
        for i in 0..n {
            shifted[(i + shift) % n] = x[i];
        }
        let plan = FftPlan::new(n, Direction::Forward);
        let mut fx = x;
        let mut fs = shifted;
        plan.process(&mut fx);
        plan.process(&mut fs);
        for i in 0..n {
            prop_assert!((fx[i].abs() - fs[i].abs()).abs() < 1e-7 * n as f64);
        }
    }

    /// `Fft2` (on the AVX2 path wherever the CPU has it) equals the scalar
    /// algorithm bit for bit: the 1-D plan on every row, then on every
    /// column, here gathered and scattered by hand. Power-of-two shapes up
    /// to 128 on each axis, finite data over many binades, both directions.
    #[test]
    fn dispatched_fft2_is_the_scalar_path_bitwise(
        re in 0usize..8,
        ce in 0usize..8,
        inverse in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (rows, cols) = (1usize << re, 1usize << ce);
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        let mut s = seed | 1;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let unit = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            unit * 2f64.powi((s >> 58) as i32 - 32)
        };
        let input: Vec<Complex> = (0..rows * cols).map(|_| Complex::new(next(), next())).collect();

        let mut want = input.clone();
        let row_plan = FftPlan::new(cols, dir);
        for row in want.chunks_mut(cols) {
            row_plan.process(row);
        }
        let col_plan = FftPlan::new(rows, dir);
        let mut col = vec![Complex::ZERO; rows];
        for c in 0..cols {
            for (r, z) in col.iter_mut().enumerate() {
                *z = want[r * cols + c];
            }
            col_plan.process(&mut col);
            for (r, z) in col.iter().enumerate() {
                want[r * cols + c] = *z;
            }
        }

        let mut got = input;
        Fft2::new(rows, cols, dir).process(&mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{}x{} {:?} at {}: {:?} vs {:?}", rows, cols, dir, i, g, w
            );
        }
    }

    /// Two real fields per complex transform: the Hermitian split of
    /// `fft2(a + i b)` is `(fft2(a), fft2(b))`, both exactly Hermitian, and
    /// packing the two spectra inverts to `a + i b`. Power-of-two, Bluestein
    /// and the SQG model's own shape.
    #[test]
    fn real_pair_rides_one_transform(shape in 0usize..3, seed in any::<u64>()) {
        let (rows, cols) = [(8, 8), (6, 10), (64, 64)][shape];
        let m = rows * cols;
        let mut s = seed | 1;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let a: Vec<f64> = (0..m).map(|_| next()).collect();
        let b: Vec<f64> = (0..m).map(|_| next()).collect();

        let mut z = vec![Complex::ZERO; m];
        real::pack_pair(&a, &b, &mut z);
        Fft2::new(rows, cols, Direction::Forward).process(&mut z);
        let (mut sa, mut sb) = (vec![Complex::ZERO; m], vec![Complex::ZERO; m]);
        real::split_pair(&z, rows, cols, &mut sa, &mut sb);

        let tol = 1e-12 * m as f64;
        for (got, field) in [(&sa, &a), (&sb, &b)] {
            for (g, w) in got.iter().zip(&fft2_of_real(field, rows, cols)) {
                prop_assert!((*g - *w).abs() < tol, "{:?} vs {:?}", g, w);
            }
            for i in 0..rows {
                for j in 0..cols {
                    let (k, neg) = (i * cols + j, real::conj_index(i, j, rows, cols));
                    prop_assert!(got[k] == got[neg].conj(), "mode ({}, {}) not Hermitian", i, j);
                    if k == neg {
                        prop_assert!(got[k].im == 0.0, "self-conjugate mode ({}, {}) not real", i, j);
                    }
                }
            }
        }

        real::pack_spectra(&sa, &sb, &mut z);
        Fft2::new(rows, cols, Direction::Inverse).process(&mut z);
        let (mut ra, mut rb) = (vec![0.0; m], vec![0.0; m]);
        real::unpack_pair(&z, &mut ra, &mut rb);
        for (got, want) in ra.iter().zip(&a).chain(rb.iter().zip(&b)) {
            prop_assert!((got - want).abs() < tol);
        }
    }
}

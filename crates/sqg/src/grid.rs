//! Spectral grid: wavenumbers, dealias mask, inversion coefficients and the
//! implicit hyperdiffusion factor.
//!
//! Everything here is precomputed once per model instance; the time stepper
//! only multiplies by these tables.

use crate::params::SqgParams;

/// Precomputed spectral-space tables for an `n x n` doubly periodic grid.
#[derive(Debug, Clone)]
pub struct SpectralGrid {
    /// Grid points per side.
    pub n: usize,
    /// Physical zonal wavenumber per FFT bin (Nyquist zeroed for
    /// derivative use), `kx[j]` for column `j`.
    pub kx: Vec<f64>,
    /// Physical meridional wavenumber per FFT bin, `ky[i]` for row `i`.
    pub ky: Vec<f64>,
    /// Total wavenumber magnitude per mode, row-major `n*n`.
    pub kmag: Vec<f64>,
    /// 2/3-rule dealias mask (1.0 keep, 0.0 kill), row-major `n*n`.
    pub dealias_mask: Vec<f64>,
    /// Per-step hyperdiffusion decay factors, row-major `n*n`.
    pub hyperdiff: Vec<f64>,
    /// `1/tanh(mu)` per mode with `mu = N K H / f` (0 at K = 0 where the
    /// inversion is regularized separately).
    pub inv_tanh_mu: Vec<f64>,
    /// `1/sinh(mu)` per mode (0 at K = 0).
    pub inv_sinh_mu: Vec<f64>,
    /// Inversion prefactor `1 / (N K)` per mode (0 at K = 0); with buoyancy
    /// boundary conditions `b = f psi_z` the streamfunction is
    /// `psi = (1/NK) [b-combinations]`.
    pub inv_nk: Vec<f64>,
}

impl SpectralGrid {
    /// Builds all tables from the model parameters.
    ///
    /// # Panics
    /// Panics when `p` fails [`SqgParams::validate`].
    pub fn new(p: &SqgParams) -> Self {
        p.validate().expect("invalid SQG parameters");
        let n = p.n;
        let two_pi_over_l = 2.0 * std::f64::consts::PI / p.domain;

        // Signed integer wavenumbers with the Nyquist derivative zeroed:
        // d/dx of the Nyquist mode is not representable on the grid. Only
        // an even grid has one: on an odd grid index `n/2` is wavenumber `n/2`.
        let signed = |idx: usize| -> f64 {
            if 2 * idx < n {
                idx as f64
            } else if 2 * idx == n {
                0.0
            } else {
                idx as f64 - n as f64
            }
        };
        let kx: Vec<f64> = (0..n).map(|j| signed(j) * two_pi_over_l).collect();
        let ky: Vec<f64> = (0..n).map(|i| signed(i) * two_pi_over_l).collect();

        // For magnitudes (inversion, hyperdiffusion) the Nyquist mode keeps
        // its true magnitude.
        let mag_of = |idx: usize| -> f64 {
            let half = n / 2;
            let s = if idx <= half { idx as f64 } else { idx as f64 - n as f64 };
            s.abs() * two_pi_over_l
        };

        let mut kmag = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let kxm = mag_of(j);
                let kym = mag_of(i);
                kmag[i * n + j] = (kxm * kxm + kym * kym).sqrt();
            }
        }

        // 2/3 dealias rule on each axis' integer index.
        let cutoff = (n as f64 / 2.0) * (2.0 / 3.0);
        let mut dealias_mask = vec![1.0; n * n];
        if p.dealias {
            for i in 0..n {
                for j in 0..n {
                    let half = n / 2;
                    let kxi =
                        if j <= half { j as f64 } else { (j as isize - n as isize).abs() as f64 };
                    let kyi =
                        if i <= half { i as f64 } else { (i as isize - n as isize).abs() as f64 };
                    if kxi > cutoff || kyi > cutoff {
                        dealias_mask[i * n + j] = 0.0;
                    }
                }
            }
        }

        // Implicit hyperdiffusion: per-step decay exp(-dt/tau * (K/Kmax)^p).
        let kmax = kmag.iter().cloned().fold(0.0f64, f64::max);
        let order = p.diff_order as f64; // exponent on K (∇^order)
        let hyperdiff: Vec<f64> = kmag
            .iter()
            .map(|&k| (-(p.dt / p.diff_efold) * (k / kmax).powf(order)).exp())
            .collect();

        // Inversion tables: mu = N K H / f.
        let nfreq = p.buoyancy_freq();
        let mut inv_tanh_mu = vec![0.0; n * n];
        let mut inv_sinh_mu = vec![0.0; n * n];
        let mut inv_nk = vec![0.0; n * n];
        for (idx, &k) in kmag.iter().enumerate() {
            if k > 0.0 {
                let mu = nfreq * k * p.depth / p.coriolis.abs();
                inv_tanh_mu[idx] = 1.0 / mu.tanh();
                // sinh overflows near mu ~ 710; 1/sinh underflows to 0 there,
                // which is the correct asymptotic decoupling of the levels.
                inv_sinh_mu[idx] = if mu > 700.0 { 0.0 } else { 1.0 / mu.sinh() };
                inv_nk[idx] = 1.0 / (nfreq * k);
            }
        }

        SpectralGrid {
            n,
            kx,
            ky,
            kmag,
            dealias_mask,
            hyperdiff,
            inv_tanh_mu,
            inv_sinh_mu,
            inv_nk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SpectralGrid {
        SpectralGrid::new(&SqgParams::default())
    }

    #[test]
    fn wavenumbers_signed_and_nyquist_zeroed() {
        let g = grid();
        let n = g.n;
        let dk = 2.0 * std::f64::consts::PI / 20.0e6;
        assert_eq!(g.kx[0], 0.0);
        assert!((g.kx[1] - dk).abs() < 1e-20);
        assert_eq!(g.kx[n / 2], 0.0, "Nyquist derivative must be zeroed");
        assert!((g.kx[n - 1] + dk).abs() < 1e-20);
    }

    #[test]
    fn kmag_is_isotropic() {
        let g = grid();
        let n = g.n;
        // |k| at (i, j) equals |k| at (j, i).
        for i in 0..n {
            for j in 0..n {
                assert!((g.kmag[i * n + j] - g.kmag[j * n + i]).abs() < 1e-18);
            }
        }
        assert_eq!(g.kmag[0], 0.0);
    }

    #[test]
    fn dealias_keeps_low_kills_high() {
        let g = grid();
        let n = g.n;
        assert_eq!(g.dealias_mask[0], 1.0);
        assert_eq!(g.dealias_mask[5 * n + 5], 1.0);
        // Nyquist corner must be killed.
        assert_eq!(g.dealias_mask[(n / 2) * n + n / 2], 0.0);
        // Fraction retained should be ~ (2/3)^2 of modes.
        let kept: f64 = g.dealias_mask.iter().sum();
        let frac = kept / (n * n) as f64;
        assert!((frac - 4.0 / 9.0).abs() < 0.1, "kept fraction {frac}");
    }

    #[test]
    fn dealias_disabled_keeps_everything() {
        let p = SqgParams { dealias: false, ..Default::default() };
        let g = SpectralGrid::new(&p);
        assert!(g.dealias_mask.iter().all(|&m| m == 1.0));
    }

    #[test]
    fn hyperdiff_decays_small_scales_only() {
        let g = grid();
        let n = g.n;
        // Mean mode untouched.
        assert_eq!(g.hyperdiff[0], 1.0);
        // Large scale barely damped.
        assert!(g.hyperdiff[n + 1] > 0.999999);
        // Smallest scale damped by exp(-dt/tau).
        let p = SqgParams::default();
        let kmax_idx = g
            .kmag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let want = (-(p.dt / p.diff_efold)).exp();
        assert!((g.hyperdiff[kmax_idx] - want).abs() < 1e-12);
        // Monotone in K.
        for idx in 0..n * n {
            assert!(g.hyperdiff[idx] <= 1.0 && g.hyperdiff[idx] > 0.0);
        }
    }

    #[test]
    fn inversion_tables_regular_at_origin_and_decay() {
        let g = grid();
        assert_eq!(g.inv_tanh_mu[0], 0.0);
        assert_eq!(g.inv_sinh_mu[0], 0.0);
        assert_eq!(g.inv_nk[0], 0.0);
        // 1/sinh < 1/tanh for positive mu; both positive.
        let idx = 3 * g.n + 7;
        assert!(g.inv_sinh_mu[idx] > 0.0);
        assert!(g.inv_tanh_mu[idx] > g.inv_sinh_mu[idx]);
        // For very large K the levels decouple: 1/sinh -> 0, 1/tanh -> 1.
        let kmax_idx = g
            .kmag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(g.inv_tanh_mu[kmax_idx] - 1.0 < 1e-6);
        assert!(g.inv_sinh_mu[kmax_idx] < 1e-5);
    }
}

//! Diagnostics: kinetic-energy spectra, CFL.

use crate::dynamics::invert;
use crate::grid::SpectralGrid;
use crate::params::SqgParams;
use crate::state::{SqgState, LEVELS};
use fft::{plan_cache, Complex, Direction};

/// Kinetic-energy density spectrum of the flow at level `l`, binned into
/// isotropic shells (integer wavenumber). This is the quantity whose
/// −5/3 inertial-range slope the paper cites as evidence of realistic
/// turbulence.
pub fn ke_spectrum(p: &SqgParams, state: &SqgState, level: usize) -> Vec<f64> {
    let grid = SpectralGrid::new(p);
    let n = p.n;
    let theta: &[Vec<Complex>; LEVELS] =
        &[state.level(0).to_vec(), state.level(1).to_vec()];
    let mut psi = [vec![Complex::ZERO; n * n], vec![Complex::ZERO; n * n]];
    invert(&grid, theta, &mut psi);

    // KE per mode: 0.5 K^2 |psi|^2 (normalized like the stats spectrum).
    let half = n / 2;
    let mut shells = vec![0.0f64; half.max(1)];
    let norm = 1.0 / (n as f64).powi(4);
    let dk = 2.0 * std::f64::consts::PI / p.domain;
    for idx in 0..n * n {
        let k = grid.kmag[idx];
        let shell = (k / dk).round() as usize;
        if shell < shells.len() {
            shells[shell] += 0.5 * k * k * psi[level][idx].norm_sqr() * norm;
        }
    }
    shells
}

/// Maximum grid-space wind speed at either boundary, including the
/// background shear flow. Used for CFL checks.
fn max_wind_speed(p: &SqgParams, state: &SqgState) -> f64 {
    let grid = SpectralGrid::new(p);
    let n = p.n;
    let theta: &[Vec<Complex>; LEVELS] =
        &[state.level(0).to_vec(), state.level(1).to_vec()];
    let mut psi = [vec![Complex::ZERO; n * n], vec![Complex::ZERO; n * n]];
    invert(&grid, theta, &mut psi);
    let ifft = plan_cache::fft2(n, n, Direction::Inverse);
    let ubg = p.background_wind();
    let mut vmax = 0.0f64;
    for l in 0..LEVELS {
        let mut u = vec![Complex::ZERO; n * n];
        let mut v = vec![Complex::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                let idx = i * n + j;
                u[idx] = Complex::new(0.0, -grid.ky[i]) * psi[l][idx];
                v[idx] = Complex::new(0.0, grid.kx[j]) * psi[l][idx];
            }
        }
        ifft.process(&mut u);
        ifft.process(&mut v);
        for idx in 0..n * n {
            let speed = ((u[idx].re + ubg[l]).powi(2) + v[idx].re.powi(2)).sqrt();
            vmax = vmax.max(speed);
        }
    }
    vmax
}

/// Advective CFL number `u_max * dt / dx`.
pub fn cfl(p: &SqgParams, state: &SqgState) -> f64 {
    max_wind_speed(p, state) * p.dt / p.dx()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_large_scale;

    #[test]
    fn spectrum_of_zero_state_is_zero() {
        let p = SqgParams { n: 16, ..Default::default() };
        let st = SqgState::zeros(16);
        let s = ke_spectrum(&p, &st, 0);
        assert!(s.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn spectrum_energy_where_ic_put_it() {
        let p = SqgParams { n: 32, ..Default::default() };
        let st = random_large_scale(32, 0.05, 5);
        let s = ke_spectrum(&p, &st, 0);
        // IC fills axis wavenumbers 1..=6 only, i.e. shells up to ceil(6*sqrt(2)).
        let low: f64 = s[1..=9].iter().sum();
        let high: f64 = s[10..].iter().sum();
        assert!(low > 0.0);
        assert!(high < 1e-6 * low, "energy leaked to high wavenumbers: {high} vs {low}");
    }

    #[test]
    fn background_flow_dominates_weak_state() {
        let p = SqgParams { n: 16, ..Default::default() };
        let st = random_large_scale(16, 1e-8, 3);
        let vmax = max_wind_speed(&p, &st);
        // Background is ±15 m/s with the default shear of 30.
        assert!((vmax - 15.0).abs() < 0.1, "vmax {vmax}");
    }

    #[test]
    fn default_config_is_cfl_stable() {
        let p = SqgParams::default();
        let st = random_large_scale(p.n, 0.05, 12);
        let c = cfl(&p, &st);
        assert!(c < 0.5, "CFL too aggressive: {c}");
    }
}

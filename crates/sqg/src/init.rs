//! Initial-condition generators.

use crate::state::SqgState;
use fft::Complex;
use rand::Rng;
use stats::rng::seeded;

/// Random large-scale initial condition: energy in integer wavenumbers
/// 1..=6 with random phases, equal-and-opposite structure on the two
/// boundaries (the most unstable Eady configuration), amplitude `amp`
/// (buoyancy units, m/s²; ~0.05 corresponds to a few K of potential
/// temperature).
pub fn random_large_scale(n: usize, amp: f64, seed: u64) -> SqgState {
    let mut rng = seeded(seed);
    let mut grids = [vec![0.0f64; n * n], vec![0.0f64; n * n]];
    let kmax = 6usize.min(n / 4);
    for kx in 0..=kmax {
        for ky in 0..=kmax {
            if kx == 0 && ky == 0 {
                continue;
            }
            let phase: f64 = rng.random::<f64>() * std::f64::consts::TAU;
            let a = amp * (rng.random::<f64>() - 0.5)
                / ((kx * kx + ky * ky) as f64).sqrt();
            // Top anomaly anti-correlated with bottom and phase-shifted:
            // seeds baroclinic growth.
            let phase_top: f64 = phase + 0.5 * std::f64::consts::PI;
            for i in 0..n {
                for j in 0..n {
                    let arg = std::f64::consts::TAU
                        * (kx as f64 * j as f64 + ky as f64 * i as f64)
                        / n as f64;
                    grids[0][i * n + j] += a * (arg + phase).cos();
                    grids[1][i * n + j] -= a * (arg + phase_top).cos();
                }
            }
        }
    }
    SqgState::from_grid(n, &grids)
}

/// Adds white spectral-space noise of grid-space standard deviation `sigma`
/// to every mode of both levels (preserving Hermitian symmetry by working in
/// grid space). Used to perturb ensemble members around a nature state.
pub fn perturb(state: &SqgState, sigma: f64, seed: u64) -> SqgState {
    let n = state.n();
    let mut rng = seeded(seed);
    let mut grids = state.to_grid();
    for g in grids.iter_mut() {
        for x in g.iter_mut() {
            *x += sigma * stats::gaussian::standard_normal(&mut rng);
        }
    }
    SqgState::from_grid(n, &grids)
}

/// A zonal-jet base state: a periodic meridional buoyancy profile
/// `θ(y) = amp · sin(2π y / L)` at the bottom boundary with the opposite
/// sign aloft — a concentrated baroclinic zone whose thermal-wind shear
/// drives eddies, as in `sqgturb`'s jet configuration. Used as the
/// relaxation target of the `tdiab` thermal forcing.
pub fn zonal_jet(n: usize, amp: f64) -> SqgState {
    let mut grids = [vec![0.0f64; n * n], vec![0.0f64; n * n]];
    for iy in 0..n {
        let theta = amp * (std::f64::consts::TAU * iy as f64 / n as f64).sin();
        for ix in 0..n {
            grids[0][iy * n + ix] = theta;
            grids[1][iy * n + ix] = -theta;
        }
    }
    SqgState::from_grid(n, &grids)
}

/// Checks that a spectral field has (numerically) Hermitian symmetry on the
/// 2-D grid, i.e. it corresponds to a real field. Returns the worst defect.
pub fn hermitian_defect_2d(spec: &[Complex], n: usize) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let d = (spec[i * n + j] - spec[fft::real::conj_index(i, j, n, n)].conj()).abs();
            worst = worst.max(d);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jet_structure() {
        let n = 16;
        let jet = zonal_jet(n, 0.1);
        let [bottom, top] = jet.to_grid();
        // Anti-symmetric between the levels.
        for (b, t) in bottom.iter().zip(&top) {
            assert!((b + t).abs() < 1e-12);
        }
        // Zonally uniform: every x at fixed y identical.
        for iy in 0..n {
            for ix in 1..n {
                assert!((bottom[iy * n + ix] - bottom[iy * n]).abs() < 1e-12);
            }
        }
        // Peak amplitude matches.
        let max = bottom.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        assert!((max - 0.1).abs() < 0.01);
        assert!(jet.is_finite());
    }

    #[test]
    fn ic_is_real_and_reproducible() {
        let a = random_large_scale(32, 0.05, 9);
        let b = random_large_scale(32, 0.05, 9);
        assert_eq!(a, b);
        assert!(hermitian_defect_2d(a.level(0), 32) < 1e-9);
        assert!(hermitian_defect_2d(a.level(1), 32) < 1e-9);
    }

    #[test]
    fn ic_amplitude_scales() {
        let small = random_large_scale(32, 0.01, 3).total_variance();
        let large = random_large_scale(32, 0.1, 3).total_variance();
        assert!((large / small - 100.0).abs() < 1e-6, "variance should scale with amp^2");
    }

    #[test]
    fn ic_has_zero_mean() {
        let st = random_large_scale(16, 0.05, 4);
        let m = st.mean_buoyancy();
        assert!(m[0].abs() < 1e-12 && m[1].abs() < 1e-12);
    }

    #[test]
    fn perturb_changes_state_by_sigma() {
        let st = random_large_scale(16, 0.05, 4);
        let pert = perturb(&st, 0.02, 77);
        let a = st.to_state_vector();
        let b = pert.to_state_vector();
        let rms: f64 = (a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            / a.len() as f64)
            .sqrt();
        assert!((rms - 0.02).abs() < 0.004, "perturbation rms {rms}");
    }

    #[test]
    fn different_seeds_give_different_perturbations() {
        let st = random_large_scale(16, 0.05, 4);
        let p1 = perturb(&st, 0.02, 1).to_state_vector();
        let p2 = perturb(&st, 0.02, 2).to_state_vector();
        let diff: f64 = p1.iter().zip(&p2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6);
    }
}

//! SQG dynamics: boundary-buoyancy inversion and nonlinear tendencies.
//!
//! Interior PV is zero, so the streamfunction is fully determined by the
//! buoyancy on the two boundaries. With μ = N K H / f the spectral inversion
//! is (Tulloch & Smith 2009, as implemented in `sqgturb`):
//!
//! ```text
//! ψ̂(0) = (1 / N K) [ θ̂(H)/sinh μ − θ̂(0)/tanh μ ]
//! ψ̂(H) = (1 / N K) [ θ̂(H)/tanh μ − θ̂(0)/sinh μ ]
//! ```
//!
//! Each boundary's buoyancy is advected by the geostrophic flow plus the
//! sheared background wind, with the mean meridional buoyancy gradient
//! providing the baroclinic energy source:
//!
//! ```text
//! ∂θ/∂t = −J(ψ, θ) − u_bg ∂θ/∂x − v ∂b̄/∂y  (+ Ekman at z = 0)
//! ```

use crate::grid::SpectralGrid;
use crate::params::SqgParams;
use crate::state::LEVELS;
use fft::{plan_cache, real, Complex, Direction, Fft2, Fft2Scratch};
use std::sync::Arc;

/// Inverts boundary buoyancy to boundary streamfunction, writing into `psi`.
///
/// `theta` and `psi` are two spectral `n*n` fields each.
// lint: no_alloc
pub fn invert(
    grid: &SpectralGrid,
    theta: &[Vec<Complex>; LEVELS],
    psi: &mut [Vec<Complex>; LEVELS],
) {
    let m = grid.n * grid.n;
    debug_assert!(theta[0].len() == m && psi[0].len() == m);
    for idx in 0..m {
        let fnk = grid.inv_nk[idx];
        if fnk == 0.0 { // lint: allow(float-exact-compare, reason="inv_nk is constructed exactly 0.0 at K = 0")
            // K = 0: no flow from the mean mode.
            psi[0][idx] = Complex::ZERO;
            psi[1][idx] = Complex::ZERO;
            continue;
        }
        let it = grid.inv_tanh_mu[idx];
        let is = grid.inv_sinh_mu[idx];
        let tb = theta[0][idx];
        let tt = theta[1][idx];
        psi[0][idx] = (tt * is - tb * it) * fnk;
        psi[1][idx] = (tt * it - tb * is) * fnk;
    }
}

/// Scratch reused across tendency evaluations: the inverted streamfunction
/// (2 grids), the packed advection buffer (1 grid) and the 2-D FFT scratch
/// (used only where the transform falls back to its scalar path).
pub struct TendencyScratch {
    psi: [Vec<Complex>; LEVELS],
    adv: Vec<Complex>,
    fft: Fft2Scratch,
}

impl TendencyScratch {
    /// Allocates scratch for an `n x n` grid.
    pub fn new(n: usize) -> Self {
        let z = vec![Complex::ZERO; n * n];
        TendencyScratch { psi: [z.clone(), z.clone()], adv: z, fft: Fft2Scratch::new() }
    }
}

/// Computes `dθ̂/dt` for both levels into `tend`.
///
/// `fwd`/`ifft` are forward/inverse 2-D FFT plans for the model grid. The
/// nonlinear advection is evaluated pseudo-spectrally and dealiased with the
/// grid's 2/3 mask; the background-shear and mean-gradient terms are linear
/// and handled exactly in spectral space.
///
/// Every transformed field is real, so two ride each complex transform
/// (`fft::real`): per level `û + i·v̂ = −(kx + i·ky)·ψ̂` and
/// `θ̂x + i·θ̂y = i·(kx + i·ky)·θ̂` come back from one inverse transform each
/// as `u + i·v` and `θx + i·θy`, and the two levels' advection goes forward
/// as `adv₀ + i·adv₁` and is separated by the Hermitian split: five
/// transforms per call. `theta` must be Hermitian, which the split preserves
/// exactly. Until the final assembly `tend`'s two grids serve as the packed
/// velocity and gradient buffers.
// lint: no_alloc
#[allow(clippy::too_many_arguments)]
pub fn tendency(
    p: &SqgParams,
    grid: &SpectralGrid,
    fwd: &Fft2,
    ifft: &Fft2,
    theta: &[Vec<Complex>; LEVELS],
    tend: &mut [Vec<Complex>; LEVELS],
    scratch: &mut TendencyScratch,
) {
    let n = grid.n;
    telemetry::counter_add("sqg.tendency.calls", 1);
    invert(grid, theta, &mut scratch.psi);

    let ubg = p.background_wind();
    let bbar_y = p.mean_buoyancy_gradient();

    {
        let [vel, grad] = &mut *tend;
        for l in 0..LEVELS {
            let th = &theta[l];
            let psi = &scratch.psi[l];

            // Spectral derivatives, packed: u = -∂ψ/∂y, v = ∂ψ/∂x.
            for i in 0..n {
                let ky = grid.ky[i];
                for j in 0..n {
                    let k = Complex::new(grid.kx[j], ky);
                    let idx = i * n + j;
                    vel[idx] = -(k * psi[idx]);
                    grad[idx] = Complex::I * (k * th[idx]);
                }
            }
            {
                let _span = telemetry::span!("fft");
                ifft.process_with_scratch(vel, &mut scratch.fft);
                ifft.process_with_scratch(grad, &mut scratch.fft);
            }

            // Nonlinear advection u θx + v θy in grid space: level 0 into the
            // real part, level 1 into the imaginary part.
            for ((a, v), g) in scratch.adv.iter_mut().zip(vel.iter()).zip(grad.iter()) {
                let adv = v.re * g.re + v.im * g.im;
                if l == 0 {
                    a.re = adv;
                } else {
                    a.im = adv;
                }
            }
        }
    }
    {
        let _span = telemetry::span!("fft");
        fwd.process_with_scratch(&mut scratch.adv, &mut scratch.fft);
    }

    // Separate the two levels' advection and assemble the spectral tendency
    // with dealiasing on the product.
    let _span = telemetry::span!("dealias");
    for i in 0..n {
        for j in 0..n {
            let idx = i * n + j;
            let ikx = Complex::new(0.0, grid.kx[j]);
            let neg = real::conj_index(i, j, n, n);
            let (adv0, adv1) = real::split_pair_mode(scratch.adv[idx], scratch.adv[neg]);
            for (l, adv) in [adv0, adv1].into_iter().enumerate() {
                let mut dt = -(adv * grid.dealias_mask[idx]);
                // Background advection: -u_bg ∂θ/∂x
                dt -= ikx * theta[l][idx] * ubg[l];
                // Mean-gradient term: -v ∂b̄/∂y with v̂ = i kx ψ̂
                dt -= ikx * scratch.psi[l][idx] * bbar_y;
                tend[l][idx] = dt;
            }
        }
    }

    // Ekman damping acts on the bottom boundary only.
    if p.ekman != 0.0 { // lint: allow(float-exact-compare, reason="ekman = 0 is the exact feature-off sentinel")
        for idx in 0..n * n {
            let k2 = grid.kmag[idx] * grid.kmag[idx];
            tend[0][idx] += scratch.psi[0][idx] * (p.ekman * k2);
        }
    }
}

/// The immutable half of the time stepper: parameters, spectral tables, the
/// two cached FFT plans and the optional relaxation reference. Shared by
/// every worker; everything a step writes lives in a [`StepWorkspace`].
///
/// A step is classic RK4 on the advective terms with an integrating-factor
/// (exact exponential) treatment of hyperdiffusion, as in the reference
/// implementation.
pub struct Stepper {
    /// Model parameters.
    pub params: SqgParams,
    /// Precomputed spectral tables.
    pub grid: SpectralGrid,
    fwd: Arc<Fft2>,
    ifft: Arc<Fft2>,
    /// Spectral reference state for thermal relaxation (`None` = zeros).
    reference: Option<[Vec<Complex>; LEVELS]>,
}

/// The mutable half of the time stepper, one per worker: the current stage's
/// tendency `k`, the running RK4 sum `acc`, the stage input `tmp` (6 grids)
/// and the [`TendencyScratch`] (3 grids plus FFT scratch).
pub struct StepWorkspace {
    k: [Vec<Complex>; LEVELS],
    acc: [Vec<Complex>; LEVELS],
    tmp: [Vec<Complex>; LEVELS],
    tend: TendencyScratch,
}

impl StepWorkspace {
    /// Allocates a workspace for an `n x n` grid.
    pub fn new(n: usize) -> Self {
        let z = vec![Complex::ZERO; n * n];
        let mk = || [z.clone(), z.clone()];
        StepWorkspace { k: mk(), acc: mk(), tmp: mk(), tend: TendencyScratch::new(n) }
    }

    /// An `n²` work buffer and the FFT scratch, free between steps (the
    /// state conversions around a member forecast borrow them).
    pub(crate) fn pair_buffers(&mut self) -> (&mut [Complex], &mut Fft2Scratch) {
        (&mut self.tend.adv, &mut self.tend.fft)
    }
}

impl Stepper {
    /// Builds the tables and fetches the plans for the given parameters.
    pub fn new(params: SqgParams) -> Self {
        let grid = SpectralGrid::new(&params);
        let n = params.n;
        Stepper {
            fwd: plan_cache::fft2(n, n, Direction::Forward),
            ifft: plan_cache::fft2(n, n, Direction::Inverse),
            grid,
            params,
            reference: None,
        }
    }

    /// Sets the spectral reference state for thermal relaxation
    /// (`params.tdiab` must be positive for it to act).
    pub fn set_reference(&mut self, reference: [Vec<Complex>; LEVELS]) {
        let m = self.grid.n * self.grid.n;
        assert!(reference[0].len() == m && reference[1].len() == m);
        self.reference = Some(reference);
    }

    /// The cached forward and inverse plans of the model grid.
    pub(crate) fn plans(&self) -> (&Fft2, &Fft2) {
        (&self.fwd, &self.ifft)
    }

    /// One RK4 step of length `params.dt` applied to `theta` in place.
    // lint: no_alloc
    pub fn step(&self, theta: &mut [Vec<Complex>; LEVELS], ws: &mut StepWorkspace) {
        let _span = telemetry::span!("sqg.step");
        telemetry::counter_add("sqg.steps", 1);
        let dt = self.params.dt;
        let m = self.grid.n * self.grid.n;
        let StepWorkspace { k, acc, tmp, tend } = ws;

        // Stage inputs are θ + c·k; `acc` accumulates k1 + 2 k2 + 2 k3 in
        // that order, so the increment below sums exactly as
        // ((k1 + 2 k2) + 2 k3) + k4.
        tendency(&self.params, &self.grid, &self.fwd, &self.ifft, theta, k, tend);
        for l in 0..LEVELS {
            for idx in 0..m {
                acc[l][idx] = k[l][idx];
                tmp[l][idx] = theta[l][idx] + k[l][idx] * (0.5 * dt);
            }
        }
        for c in [0.5 * dt, dt] {
            tendency(&self.params, &self.grid, &self.fwd, &self.ifft, tmp, k, tend);
            for l in 0..LEVELS {
                for idx in 0..m {
                    acc[l][idx] += k[l][idx] * 2.0;
                    tmp[l][idx] = theta[l][idx] + k[l][idx] * c;
                }
            }
        }
        tendency(&self.params, &self.grid, &self.fwd, &self.ifft, tmp, k, tend);

        let sixth = dt / 6.0;
        // Thermal relaxation handled split-step with its exact exponential,
        // like the hyperdiffusion (both are linear and stiff-safe this way).
        let relax = if self.params.tdiab > 0.0 {
            (-dt / self.params.tdiab).exp()
        } else {
            1.0
        };
        for l in 0..LEVELS {
            let reference = self.reference.as_ref().map(|r| &r[l]);
            for idx in 0..m {
                let incr = (acc[l][idx] + k[l][idx]) * sixth;
                // Implicit hyperdiffusion: exact exponential decay per step.
                let mut next = (theta[l][idx] + incr) * self.grid.hyperdiff[idx];
                if relax < 1.0 {
                    let r = reference.map_or(Complex::ZERO, |r| r[idx]);
                    next = r + (next - r) * relax;
                }
                theta[l][idx] = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SqgState;

    fn small_params() -> SqgParams {
        SqgParams { n: 16, ..Default::default() }
    }

    fn stepper_for(p: SqgParams) -> (Stepper, StepWorkspace) {
        let ws = StepWorkspace::new(p.n);
        (Stepper::new(p), ws)
    }

    /// The tendency as it was before two real fields shared a transform:
    /// one full complex transform per real field (four inverse, one forward
    /// per level), imaginary parts of the grid fields discarded. Kept as the
    /// oracle for [`tendency`].
    fn tendency_four_transform(
        p: &SqgParams,
        grid: &SpectralGrid,
        theta: &[Vec<Complex>; LEVELS],
    ) -> [Vec<Complex>; LEVELS] {
        let n = grid.n;
        let m = n * n;
        let fwd = plan_cache::fft2(n, n, Direction::Forward);
        let ifft = plan_cache::fft2(n, n, Direction::Inverse);
        let mut psi = theta.clone();
        invert(grid, theta, &mut psi);
        let ubg = p.background_wind();
        let bbar_y = p.mean_buoyancy_gradient();
        let mut tend = theta.clone();
        for l in 0..LEVELS {
            let derivative = |field: &[Complex], along_x: bool, sign: f64| -> Vec<Complex> {
                let mut d: Vec<Complex> = (0..m)
                    .map(|idx| {
                        let k = if along_x { grid.kx[idx % n] } else { grid.ky[idx / n] };
                        Complex::new(0.0, sign * k) * field[idx]
                    })
                    .collect();
                ifft.process(&mut d);
                d
            };
            // u = -∂ψ/∂y, v = ∂ψ/∂x
            let u = derivative(&psi[l], false, -1.0);
            let v = derivative(&psi[l], true, 1.0);
            let tx = derivative(&theta[l], true, 1.0);
            let ty = derivative(&theta[l], false, 1.0);
            let mut adv: Vec<Complex> = (0..m)
                .map(|idx| Complex::from_re(u[idx].re * tx[idx].re + v[idx].re * ty[idx].re))
                .collect();
            fwd.process(&mut adv);
            for idx in 0..m {
                let ikx = Complex::new(0.0, grid.kx[idx % n]);
                let mut dt = -(adv[idx] * grid.dealias_mask[idx]);
                dt -= ikx * theta[l][idx] * ubg[l];
                dt -= ikx * psi[l][idx] * bbar_y;
                tend[l][idx] = dt;
            }
        }
        if p.ekman != 0.0 {
            for idx in 0..m {
                let k2 = grid.kmag[idx] * grid.kmag[idx];
                tend[0][idx] += psi[0][idx] * (p.ekman * k2);
            }
        }
        tend
    }

    #[test]
    fn packed_tendency_matches_four_transform_oracle() {
        for ekman in [0.0, 0.05] {
            let p = SqgParams { ekman, ..small_params() };
            let n = p.n;
            let (stepper, mut ws) = stepper_for(p.clone());
            // Spun up: every resolved scale carries energy.
            let mut theta = random_state(n, 0.05, 13);
            for _ in 0..100 {
                stepper.step(&mut theta, &mut ws);
            }
            let want = tendency_four_transform(&p, &stepper.grid, &theta);
            let mut got = theta.clone();
            let (fwd, ifft) = stepper.plans();
            tendency(&p, &stepper.grid, fwd, ifft, &theta, &mut got, &mut ws.tend);
            let scale = want.iter().flatten().map(|z| z.abs()).fold(0.0, f64::max);
            assert!(scale > 0.0);
            for l in 0..LEVELS {
                for idx in 0..n * n {
                    let err = (got[l][idx] - want[l][idx]).abs();
                    assert!(err <= 1e-12 * scale, "ekman {ekman}, level {l}, mode {idx}: {err:e} of {scale:e}");
                }
            }
        }
    }

    #[test]
    fn step_keeps_the_state_exactly_hermitian() {
        // The Hermitian split returns conjugate-symmetric advection to the
        // last bit and every other operation of a step commutes with
        // conjugation, so a state built from grid fields never leaves the
        // spectra-of-real-fields subspace the packed transforms assume.
        let p = small_params();
        let n = p.n;
        let (stepper, mut ws) = stepper_for(p);
        let mut st = random_state(n, 0.05, 31);
        for _ in 0..20 {
            stepper.step(&mut st, &mut ws);
        }
        for l in 0..LEVELS {
            assert_eq!(crate::init::hermitian_defect_2d(&st[l], n), 0.0);
        }
    }

    #[test]
    fn inversion_of_zero_is_zero() {
        let p = small_params();
        let grid = SpectralGrid::new(&p);
        let theta = [vec![Complex::ZERO; 256], vec![Complex::ZERO; 256]];
        let mut psi = theta.clone();
        invert(&grid, &theta, &mut psi);
        assert!(psi[0].iter().all(|z| z.abs() == 0.0));
    }

    #[test]
    fn inversion_sign_warm_anomaly_bottom() {
        // A warm (positive buoyancy) anomaly at the bottom boundary induces a
        // negative streamfunction there: ψ̂(0) = -(f/NK) θ̂(0) coth(μ).
        let p = small_params();
        let grid = SpectralGrid::new(&p);
        let n = p.n;
        let mut theta = [vec![Complex::ZERO; n * n], vec![Complex::ZERO; n * n]];
        let idx = 3; // mode (ky=0, kx=3)
        theta[0][idx] = Complex::ONE;
        let mut psi = theta.clone();
        invert(&grid, &theta, &mut psi);
        assert!(psi[0][idx].re < 0.0, "bottom psi should oppose bottom theta");
        // Top response is weaker in magnitude (evanescent decay).
        assert!(psi[1][idx].abs() < psi[0][idx].abs());
        // Top response has the same sign as -1/sinh < 0 times theta:
        assert!(psi[1][idx].re < 0.0);
    }

    #[test]
    fn inversion_is_linear() {
        let p = small_params();
        let grid = SpectralGrid::new(&p);
        let n = p.n;
        let mk = |seed: f64| -> [Vec<Complex>; 2] {
            let f = |i: usize| Complex::new((i as f64 * seed).sin(), (i as f64 * seed).cos());
            [(0..n * n).map(f).collect(), (0..n * n).map(|i| f(i + 7)).collect()]
        };
        let a = mk(0.37);
        let b = mk(0.91);
        let mut pa = a.clone();
        let mut pb = b.clone();
        let mut pab = a.clone();
        invert(&grid, &a, &mut pa);
        invert(&grid, &b, &mut pb);
        let sum = [
            a[0].iter().zip(&b[0]).map(|(x, y)| *x + *y).collect::<Vec<_>>(),
            a[1].iter().zip(&b[1]).map(|(x, y)| *x + *y).collect::<Vec<_>>(),
        ];
        invert(&grid, &sum, &mut pab);
        for l in 0..2 {
            for idx in 0..n * n {
                let want = pa[l][idx] + pb[l][idx];
                assert!((pab[l][idx] - want).abs() < 1e-10 * (1.0 + want.abs()));
            }
        }
    }

    #[test]
    fn zero_state_is_fixed_point() {
        let p = small_params();
        let (stepper, mut ws) = stepper_for(p.clone());
        let mut theta = [vec![Complex::ZERO; 256], vec![Complex::ZERO; 256]];
        stepper.step(&mut theta, &mut ws);
        assert!(theta[0].iter().chain(&theta[1]).all(|z| z.abs() < 1e-14));
    }

    #[test]
    fn mean_buoyancy_is_conserved() {
        // The DC mode has no dynamics (k=0 advection, no diffusion): domain
        // means of both levels are exact invariants.
        let p = small_params();
        let n = p.n;
        let (stepper, mut ws) = stepper_for(p);
        let mut st = random_state(n, 0.05, 42);
        st[0][0] = Complex::from_re(7.0 * (n * n) as f64);
        let dc0 = st[0][0];
        let dc1 = st[1][0];
        for _ in 0..10 {
            stepper.step(&mut st, &mut ws);
        }
        assert!((st[0][0] - dc0).abs() < 1e-9 * dc0.abs().max(1.0));
        assert!((st[1][0] - dc1).abs() < 1e-9);
    }

    fn random_state(n: usize, amp: f64, seed: u64) -> [Vec<Complex>; 2] {
        // Random low-wavenumber field built in grid space then transformed.
        let mut s = seed | 1;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut grids = [vec![0.0f64; n * n], vec![0.0f64; n * n]];
        for g in grids.iter_mut() {
            for kx in 1..4usize {
                for ky in 1..4usize {
                    let phase = next() * std::f64::consts::PI * 2.0;
                    let a = amp * next();
                    for i in 0..n {
                        for j in 0..n {
                            g[i * n + j] += a
                                * (2.0 * std::f64::consts::PI
                                    * (kx as f64 * j as f64 + ky as f64 * i as f64)
                                    / n as f64
                                    + phase)
                                    .cos();
                        }
                    }
                }
            }
        }
        let st = SqgState::from_grid(n, &grids);
        [st.level(0).to_vec(), st.level(1).to_vec()]
    }

    #[test]
    fn short_integration_stays_finite_and_real() {
        let p = small_params();
        let n = p.n;
        let (stepper, mut ws) = stepper_for(p);
        let mut st = random_state(n, 0.05, 7);
        for _ in 0..50 {
            stepper.step(&mut st, &mut ws);
        }
        let state = SqgState::from_spectral(n, st[0].clone(), st[1].clone());
        assert!(state.is_finite());
        // Hermitian symmetry preserved => grid fields real.
        let grids = state.to_grid();
        let back = SqgState::from_grid(n, &grids);
        for l in 0..2 {
            for (a, b) in st[l].iter().zip(back.level(l)) {
                assert!((*a - *b).abs() < 1e-8 * (1.0 + a.abs()), "lost Hermitian symmetry");
            }
        }
    }

    #[test]
    fn inviscid_unsheared_flow_conserves_variance() {
        // Without shear (no baroclinic source), Ekman or hyperdiffusion, the
        // advection conserves buoyancy variance; dealiased pseudo-spectral
        // RK4 should conserve it to high accuracy over short times.
        let p = SqgParams {
            n: 16,
            shear: 0.0,
            ekman: 0.0,
            diff_efold: 1e30, // effectively no hyperdiffusion
            ..Default::default()
        };
        let n = p.n;
        let (stepper, mut ws) = stepper_for(p);
        let mut st = random_state(n, 0.05, 99);
        let v0 = SqgState::from_spectral(n, st[0].clone(), st[1].clone()).total_variance();
        for _ in 0..20 {
            stepper.step(&mut st, &mut ws);
        }
        let v1 = SqgState::from_spectral(n, st[0].clone(), st[1].clone()).total_variance();
        assert!(
            (v1 - v0).abs() < 1e-4 * v0,
            "variance drifted: {v0} -> {v1}"
        );
    }

    #[test]
    fn hyperdiffusion_reduces_variance() {
        let p = SqgParams { n: 16, shear: 0.0, diff_efold: 900.0, ..Default::default() };
        let n = p.n;
        let (stepper, mut ws) = stepper_for(p);
        let mut st = random_state(n, 0.05, 5);
        // Put energy at small scales so the hyperdiffusion bites.
        for l in 0..2 {
            for idx in 0..n * n {
                if stepper.grid.kmag[idx] > 0.8 * stepper.grid.kmag.iter().cloned().fold(0.0, f64::max) {
                    st[l][idx] = Complex::new(0.01, 0.0);
                }
            }
        }
        // Restore Hermitian symmetry after the manual edit.
        let grids = SqgState::from_spectral(n, st[0].clone(), st[1].clone()).to_grid();
        let sym = SqgState::from_grid(n, &grids);
        let mut st = [sym.level(0).to_vec(), sym.level(1).to_vec()];
        let v0 = SqgState::from_spectral(n, st[0].clone(), st[1].clone()).total_variance();
        for _ in 0..10 {
            stepper.step(&mut st, &mut ws);
        }
        let v1 = SqgState::from_spectral(n, st[0].clone(), st[1].clone()).total_variance();
        assert!(v1 < v0, "hyperdiffusion must dissipate variance: {v0} -> {v1}");
    }

    #[test]
    fn thermal_relaxation_pulls_toward_reference() {
        // Pure relaxation (no shear/advection matters over one step): a zero
        // state relaxes toward the reference with rate dt/tdiab.
        let p = SqgParams { n: 16, shear: 0.0, tdiab: 9000.0, ..Default::default() };
        let n = p.n;
        let reference = random_state(n, 0.05, 21);
        let (mut stepper, mut ws) = stepper_for(p.clone());
        stepper.set_reference(reference.clone());
        let mut st = [vec![Complex::ZERO; n * n], vec![Complex::ZERO; n * n]];
        stepper.step(&mut st, &mut ws);
        // After one step: theta ≈ (1 - e^{-dt/tau}) * reference (plus tiny
        // advection of the relaxed increment next step; one step is clean).
        let frac = 1.0 - (-p.dt / p.tdiab).exp();
        let mut worst = 0.0f64;
        for l in 0..2 {
            for idx in 1..n * n {
                let want = reference[l][idx] * frac;
                worst = worst.max((st[l][idx] - want).abs());
            }
        }
        let scale = reference[0].iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(worst < 1e-6 * scale.max(1e-30), "relaxation off: {worst}");
    }

    #[test]
    fn relaxation_disabled_by_default() {
        let p = SqgParams { n: 16, shear: 0.0, ..Default::default() };
        let n = p.n;
        let (mut stepper, mut ws) = stepper_for(p);
        stepper.set_reference(random_state(n, 0.05, 22));
        let mut st = [vec![Complex::ZERO; n * n], vec![Complex::ZERO; n * n]];
        stepper.step(&mut st, &mut ws);
        // tdiab = 0: the reference must not leak into the state.
        assert!(st[0].iter().chain(&st[1]).all(|z| z.abs() < 1e-14));
    }

    #[test]
    fn baroclinic_instability_grows_perturbations() {
        // With shear on, small perturbations at deformation-radius scales
        // should extract energy from the mean state (Eady growth).
        let p = SqgParams { n: 32, ..Default::default() };
        let n = p.n;
        let (stepper, mut ws) = stepper_for(p);
        let mut st = random_state(n, 1e-4, 11);
        let v0 = SqgState::from_spectral(n, st[0].clone(), st[1].clone()).total_variance();
        for _ in 0..200 {
            stepper.step(&mut st, &mut ws);
        }
        let v1 = SqgState::from_spectral(n, st[0].clone(), st[1].clone()).total_variance();
        assert!(v1 > 1.5 * v0, "expected baroclinic growth: {v0} -> {v1}");
    }
}

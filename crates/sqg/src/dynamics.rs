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
//!
//! ## One RK4 stage: three sweeps around five transforms
//!
//! [`Stepper::step`] is classic RK4, and each of its four stages evaluates
//! the tendency at the stage input x̂ (θ̂ for the first stage, `tmp` after)
//! and applies the stage's update in the same pass. The nonlinear advection
//! is evaluated pseudo-spectrally; every transformed field is real, so two
//! ride each complex transform (`fft::real`).
//!
//! 1. **Pack.** ψ̂ of both levels from x̂ in registers ([`invert`]'s
//!    operations), then per level `û + i·v̂ = −(kx + i·ky)·ψ̂` and
//!    `θ̂x + i·θ̂y = i·(kx + i·ky)·x̂` into the four grids of
//!    [`TendencyScratch`]. Four inverse transforms return `u + i·v` and
//!    `θx + i·θy`.
//! 2. **Product.** `adv = (u₀θx₀ + v₀θy₀) + i·(u₁θx₁ + v₁θy₁)` in one store:
//!    the two levels' advection as the real and imaginary part of one field,
//!    which one forward transform takes back to spectral space.
//! 3. **Assemble and update.** Per mode: the Hermitian split of the
//!    transformed advection, ψ̂ again from x̂, dθ̂/dt (the dealiased
//!    advection, the background-shear and mean-gradient terms, which are
//!    linear and exact in spectral space, and Ekman at the bottom), then the
//!    stage's RK4 update ([`Stage`]). x̂ at a mode is read before `tmp` is
//!    written there, so stages 2–4 run in place and no stage stores its
//!    tendency.
//!
//! The split assumes the packed spectra are Hermitian, which every state
//! built from grid fields is and which a step preserves exactly.
//!
//! ## Conjugate pairs
//!
//! Pack and assemble sweep over conjugate pairs of modes `(k, −k)`. On an
//! even grid every column `0 < j < n/2` has a mirror column `n − j` whose
//! zonal wavenumber is exactly `−kx[j]` (`mirror_column`), and for a
//! Hermitian stage input ψ̂(−k) is `conj ψ̂(k)`, the split advection at −k
//! is the conjugate of that at k, and so are the tendency and the stage's
//! update there. So pack inverts once per pair and forms the four packed
//! fields at both modes, and assemble computes the split, the tendency and
//! the update once per pair and writes their conjugates to −k. The `kx = 0`
//! and Nyquist columns, where that negation is not exact (`kx[n/2]` is
//! `+0.0` at both ends), and every column of an odd grid are computed
//! directly. Both sweeps keep the full `n × n` layout. The full-mode sweeps
//! they replace are the tests' oracle (`full`): on stepped states the
//! paired sweeps equal them bit for bit. They can differ only in the sign
//! of an exact zero at −k: where a sum there cancels, or where an input's
//! conjugate zeros carry the same sign. Either zero is the same value.
//!
//! The scalar sweeps below are the specification. On a CPU with
//! AVX-512F+DQ, for a grid side that is a multiple of 4 and at least 8,
//! `crate::simd`'s tier runs them instead and computes their bits: each
//! element takes the same operations in the same order.

use crate::grid::SpectralGrid;
use crate::params::SqgParams;
use crate::simd::Avx512;
use crate::state::LEVELS;
use fft::{plan_cache, real, Complex, Direction, Fft2, Fft2Scratch};
use linalg::AlignedVec;
use std::sync::Arc;

/// Inverts boundary buoyancy to boundary streamfunction, writing into `psi`.
///
/// `theta` and `psi` are two spectral `n*n` fields each.
///
/// # Panics
/// Panics unless all four fields hold `n²` modes.
// lint: no_alloc
pub fn invert(
    grid: &SpectralGrid,
    theta: &[Vec<Complex>; LEVELS],
    psi: &mut [Vec<Complex>; LEVELS],
) {
    let m = grid.n * grid.n;
    assert!(
        theta.iter().chain(psi.iter()).all(|f| f.len() == m),
        "inversion fields must hold n² = {m} modes"
    );
    for idx in 0..m {
        [psi[0][idx], psi[1][idx]] = invert_mode(grid, idx, [theta[0][idx], theta[1][idx]]);
    }
}

/// ψ̂ of both levels at mode `idx` from the buoyancy there: zero at K = 0,
/// else `(θ̂₁·(1/sinh μ) − θ̂₀·(1/tanh μ))·(1/NK)` at the bottom and
/// `(θ̂₁·(1/tanh μ) − θ̂₀·(1/sinh μ))·(1/NK)` at the top.
#[inline(always)]
fn invert_mode(grid: &SpectralGrid, idx: usize, theta: [Complex; LEVELS]) -> [Complex; LEVELS] {
    let fnk = grid.inv_nk[idx];
    if fnk == 0.0 { // lint: allow(float-exact-compare, reason="inv_nk is constructed exactly 0.0 at K = 0")
        // K = 0: no flow from the mean mode.
        return [Complex::ZERO; LEVELS];
    }
    let it = grid.inv_tanh_mu[idx];
    let is = grid.inv_sinh_mu[idx];
    let [tb, tt] = theta;
    [(tt * is - tb * it) * fnk, (tt * it - tb * is) * fnk]
}

/// Scratch of one tendency evaluation, 5 grids plus the FFT scratch: the
/// four packed derivative grids `[u₀ + i·v₀, θx₀ + i·θy₀, u₁ + i·v₁,
/// θx₁ + i·θy₁]` (spectral after the pack sweep, grid values after the
/// inverse transforms), the packed advection `adv`, and the 2-D FFT scratch
/// (used only where the transform falls back to its scalar path). The
/// grids start on 64-byte boundaries, so the transforms' vector loads never
/// straddle a cache line: a 64² transform 16 bytes past a 32-byte boundary
/// measured ≈ 1.12× the aligned one.
pub struct TendencyScratch {
    fields: [AlignedVec<Complex>; 4],
    adv: AlignedVec<Complex>,
    fft: Fft2Scratch,
}

impl TendencyScratch {
    /// Allocates scratch for an `n x n` grid.
    pub fn new(n: usize) -> Self {
        TendencyScratch {
            fields: std::array::from_fn(|_| AlignedVec::zeroed(n * n)),
            adv: AlignedVec::zeroed(n * n),
            fft: Fft2Scratch::new(),
        }
    }
}

/// The column that the sweeps write from column `j` of a grid of side
/// `n`: `n − j` for `0 < j < n/2` on an even grid, where
/// [`SpectralGrid::new`]'s `kx[n − j]` is exactly `−kx[j]`. Every other
/// column — `kx = 0` (`j = 0`), the Nyquist line (`kx[n/2]` is `+0.0`, not
/// `−0.0`), the columns past `n/2` and every column of an odd grid — has
/// none.
#[inline(always)]
pub(crate) fn mirror_column(n: usize, j: usize) -> Option<usize> {
    (n.is_multiple_of(2) && 0 < j && j < n / 2).then(|| n - j)
}

/// Whether a sweep computes column `j` itself: every column but those the
/// paired columns write.
#[inline(always)]
pub(crate) fn computed(n: usize, j: usize) -> bool {
    !n.is_multiple_of(2) || j <= n / 2
}

/// The four packed derivative fields at one mode of wavenumber
/// `k = kx + i·ky` from ψ̂ and x̂ there: `−(k·ψ̂)` and `i·(k·x̂)` per level.
#[inline(always)]
fn packed(k: Complex, psi: [Complex; LEVELS], x: [Complex; LEVELS]) -> [Complex; 4] {
    // Spectral derivatives, packed: u = -∂ψ/∂y, v = ∂ψ/∂x.
    [-(k * psi[0]), Complex::I * (k * x[0]), -(k * psi[1]), Complex::I * (k * x[1])]
}

/// The pack sweep: ψ̂ from the stage input `x` at each mode, then
/// `−(kx + i·ky)·ψ̂` and `i·((kx + i·ky)·x̂)` per level into `fields`.
///
/// A paired column ([`mirror_column`]) inverts once for the pair of modes
/// `k` and `−k`: it takes `conj ψ̂(k)` and `conj x̂(k)` as the inputs at
/// `−k`, which they are for a Hermitian `x`, and forms the four fields at
/// both modes from them.
// lint: no_alloc
pub(crate) fn pack<F: AsMut<[Complex]>>(
    grid: &SpectralGrid,
    x: &[Vec<Complex>; LEVELS],
    fields: &mut [F; 4],
) {
    let n = grid.n;
    let mut fields = fields.each_mut().map(AsMut::as_mut);
    for i in 0..n {
        let ky = grid.ky[i];
        let ri = (n - i) % n;
        for j in (0..n).filter(|&j| computed(n, j)) {
            let idx = i * n + j;
            let xs = [x[0][idx], x[1][idx]];
            let psi = invert_mode(grid, idx, xs);
            let at_k = packed(Complex::new(grid.kx[j], ky), psi, xs);
            for (f, v) in fields.iter_mut().zip(at_k) {
                f[idx] = v;
            }
            if let Some(rj) = mirror_column(n, j) {
                let k = Complex::new(grid.kx[rj], grid.ky[ri]);
                let at_neg_k = packed(k, psi.map(Complex::conj), xs.map(Complex::conj));
                for (f, v) in fields.iter_mut().zip(at_neg_k) {
                    f[ri * n + rj] = v;
                }
            }
        }
    }
}

/// The product sweep: the advection `u θx + v θy` of level 0 into the real
/// part of `adv` and of level 1 into the imaginary part.
// lint: no_alloc
pub(crate) fn product<F: AsRef<[Complex]>>(fields: &[F; 4], adv: &mut [Complex]) {
    let [u0, g0, u1, g1] = fields.each_ref().map(AsRef::as_ref);
    for (idx, a) in adv.iter_mut().enumerate() {
        let (v0, t0, v1, t1) = (u0[idx], g0[idx], u1[idx], g1[idx]);
        *a = Complex::new(v0.re * t0.re + v0.im * t0.im, v1.re * t1.re + v1.im * t1.im);
    }
}

/// The RK4 stage an assemble sweep finishes, given the stage's tendency `k`
/// at a mode.
#[derive(Clone, Copy)]
pub(crate) enum Stage<'a> {
    /// Stage 1 (input θ): `acc = k`, `tmp = θ + k·c` with `c = dt/2`.
    First(f64),
    /// Stages 2 and 3 (input `tmp`): `acc += k·2`, `tmp = θ + k·c`.
    Inner(f64),
    /// Stage 4 (input `tmp`): `θ ← (θ + (acc + k)·sixth)·hyperdiff`, then
    /// `θ ← r + (θ − r)·relax` when `relax < 1`, with `r` the reference (or
    /// zero).
    Last { sixth: f64, relax: f64, reference: Option<&'a [Vec<Complex>; LEVELS]> },
}

impl Stage<'_> {
    /// Whether the stage's input is θ itself rather than `tmp`.
    pub(crate) fn reads_theta(self) -> bool {
        matches!(self, Stage::First(_))
    }
}

/// What the assemble sweep needs besides the grids: the spectral tables,
/// the linear terms of dθ̂/dt and the stage it finishes.
#[derive(Clone, Copy)]
pub(crate) struct Assembly<'a> {
    pub(crate) grid: &'a SpectralGrid,
    /// Background wind per level.
    pub(crate) ubg: [f64; LEVELS],
    /// Mean meridional buoyancy gradient.
    pub(crate) bbar_y: f64,
    /// Ekman coefficient; exactly 0 switches the term off.
    pub(crate) ekman: f64,
    pub(crate) stage: Stage<'a>,
}

impl Assembly<'_> {
    /// Whether the Ekman term acts.
    pub(crate) fn ekman_on(&self) -> bool {
        self.ekman != 0.0 // lint: allow(float-exact-compare, reason="ekman = 0 is the exact feature-off sentinel")
    }

    /// dθ̂/dt of both levels at mode `idx` (column wavenumber `kx`) from the
    /// split advection `adv` and the stage input `x` there.
    #[inline(always)]
    fn tendency(
        &self,
        idx: usize,
        kx: f64,
        adv: [Complex; LEVELS],
        x: [Complex; LEVELS],
    ) -> [Complex; LEVELS] {
        let grid = self.grid;
        let psi = invert_mode(grid, idx, x);
        let ikx = Complex::new(0.0, kx);
        let mut k = [Complex::ZERO; LEVELS];
        for l in 0..LEVELS {
            let mut dt = -(adv[l] * grid.dealias_mask[idx]);
            // Background advection: -u_bg ∂θ/∂x
            dt -= ikx * x[l] * self.ubg[l];
            // Mean-gradient term: -v ∂b̄/∂y with v̂ = i kx ψ̂
            dt -= ikx * psi[l] * self.bbar_y;
            k[l] = dt;
        }
        // Ekman damping acts on the bottom boundary only.
        if self.ekman_on() {
            let k2 = grid.kmag[idx] * grid.kmag[idx];
            k[0] += psi[0] * (self.ekman * k2);
        }
        k
    }
}

/// The assemble sweep: per mode the Hermitian split of the transformed
/// advection `adv`, dθ̂/dt at the stage input, then the stage's update of
/// `acc`, `tmp` or `theta`.
///
/// A paired column ([`mirror_column`]) computes the pair of modes `k` and
/// `−k` once: for Hermitian inputs the split, the tendency and the update
/// at `−k` are the conjugates of those at `k`, so it writes the conjugate
/// of each value it stores at `k` to `−k`.
// lint: no_alloc
pub(crate) fn assemble(
    a: &Assembly<'_>,
    adv: &[Complex],
    theta: &mut [Vec<Complex>; LEVELS],
    acc: &mut [Vec<Complex>; LEVELS],
    tmp: &mut [Vec<Complex>; LEVELS],
) {
    let n = a.grid.n;
    for i in 0..n {
        let ri = (n - i) % n;
        for j in (0..n).filter(|&j| computed(n, j)) {
            let idx = i * n + j;
            assemble_mode(a, adv, i, j, theta, acc, tmp);
            if let Some(rj) = mirror_column(n, j) {
                let conj_to = |f: &mut [Vec<Complex>; LEVELS]| {
                    for level in f {
                        level[ri * n + rj] = level[idx].conj();
                    }
                };
                match a.stage {
                    Stage::First(_) | Stage::Inner(_) => {
                        conj_to(acc);
                        conj_to(tmp);
                    }
                    Stage::Last { .. } => conj_to(theta),
                }
            }
        }
    }
}

/// One mode `(i, j)` of the assemble sweep: the Hermitian split of `adv`
/// there, dθ̂/dt at the stage input, then the stage's update.
#[inline(always)]
fn assemble_mode(
    a: &Assembly<'_>,
    adv: &[Complex],
    i: usize,
    j: usize,
    theta: &mut [Vec<Complex>; LEVELS],
    acc: &mut [Vec<Complex>; LEVELS],
    tmp: &mut [Vec<Complex>; LEVELS],
) {
    let grid = a.grid;
    let n = grid.n;
    let idx = i * n + j;
    let (a0, a1) = real::split_pair_mode(adv[idx], adv[real::conj_index(i, j, n, n)]);
    let x = if a.stage.reads_theta() { &*theta } else { &*tmp };
    let k = a.tendency(idx, grid.kx[j], [a0, a1], [x[0][idx], x[1][idx]]);
    for l in 0..LEVELS {
        let k = k[l];
        match a.stage {
            Stage::First(c) => {
                acc[l][idx] = k;
                tmp[l][idx] = theta[l][idx] + k * c;
            }
            Stage::Inner(c) => {
                acc[l][idx] += k * 2.0;
                tmp[l][idx] = theta[l][idx] + k * c;
            }
            Stage::Last { sixth, relax, reference } => {
                let incr = (acc[l][idx] + k) * sixth;
                // Implicit hyperdiffusion: exact exponential decay per step.
                let mut next = (theta[l][idx] + incr) * grid.hyperdiff[idx];
                if relax < 1.0 {
                    let r = reference.map_or(Complex::ZERO, |r| r[l][idx]);
                    next = r + (next - r) * relax;
                }
                theta[l][idx] = next;
            }
        }
    }
}

/// The sweeps as they were before the pairing, every mode computed from its
/// own inputs: the paired sweeps' oracle.
#[cfg(test)]
pub(crate) mod full {
    use super::*;

    /// [`super::pack`] at every mode.
    pub(crate) fn pack(
        grid: &SpectralGrid,
        x: &[Vec<Complex>; LEVELS],
        fields: &mut [Vec<Complex>; 4],
    ) {
        let n = grid.n;
        for i in 0..n {
            for j in 0..n {
                let idx = i * n + j;
                let xs = [x[0][idx], x[1][idx]];
                let psi = invert_mode(grid, idx, xs);
                let v = packed(Complex::new(grid.kx[j], grid.ky[i]), psi, xs);
                for (f, v) in fields.iter_mut().zip(v) {
                    f[idx] = v;
                }
            }
        }
    }

    /// [`super::assemble`] at every mode.
    pub(crate) fn assemble(
        a: &Assembly<'_>,
        adv: &[Complex],
        theta: &mut [Vec<Complex>; LEVELS],
        acc: &mut [Vec<Complex>; LEVELS],
        tmp: &mut [Vec<Complex>; LEVELS],
    ) {
        let n = a.grid.n;
        for i in 0..n {
            for j in 0..n {
                assemble_mode(a, adv, i, j, theta, acc, tmp);
            }
        }
    }
}

/// The immutable half of the time stepper: parameters, spectral tables, the
/// two cached FFT plans and the optional relaxation reference. Shared by
/// every worker; everything a step writes lives in a [`StepWorkspace`].
///
/// A step is classic RK4 on the advective terms with an integrating-factor
/// (exact exponential) treatment of hyperdiffusion, as in the reference
/// implementation, and split-step thermal relaxation with its exact
/// exponential. Each stage is three sweeps around five transforms (module
/// docs).
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

/// The mutable half of the time stepper, one per worker: 9 `n²` grids plus
/// the FFT scratch. They are the running RK4 sum `acc` and the stage input
/// `tmp` (2 grids each) and the [`TendencyScratch`] (5 grids). No stage
/// stores its tendency: the assemble sweep folds it into `acc` and `tmp`
/// (or θ) as it forms it.
pub struct StepWorkspace {
    acc: [Vec<Complex>; LEVELS],
    tmp: [Vec<Complex>; LEVELS],
    tend: TendencyScratch,
}

impl StepWorkspace {
    /// Allocates a workspace for an `n x n` grid.
    pub fn new(n: usize) -> Self {
        let z = vec![Complex::ZERO; n * n];
        let mk = || [z.clone(), z.clone()];
        StepWorkspace { acc: mk(), tmp: mk(), tend: TendencyScratch::new(n) }
    }

    /// An `n²` work buffer and the FFT scratch, free between steps (the
    /// state conversions around a member forecast borrow them).
    pub(crate) fn pair_buffers(&mut self) -> (&mut [Complex], &mut Fft2Scratch) {
        (self.tend.adv.as_mut(), &mut self.tend.fft)
    }

    /// Whether every grid holds `m` modes.
    fn holds(&self, m: usize) -> bool {
        let t = &self.tend;
        let tend = t.fields.iter().chain([&t.adv]).map(|g| g.as_ref().len());
        self.acc.iter().chain(&self.tmp).map(Vec::len).chain(tend).all(|len| len == m)
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
    ///
    /// # Panics
    /// Panics unless both levels hold `n²` modes.
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
    ///
    /// # Panics
    /// Panics unless both levels of `theta` and every grid of `ws` hold
    /// `n²` modes.
    // lint: no_alloc
    pub fn step(&self, theta: &mut [Vec<Complex>; LEVELS], ws: &mut StepWorkspace) {
        self.run_step(theta, ws, true);
    }

    /// [`Stepper::step`] on the scalar sweeps whatever the CPU: the tier's
    /// oracle.
    #[cfg(test)]
    pub(crate) fn step_scalar(&self, theta: &mut [Vec<Complex>; LEVELS], ws: &mut StepWorkspace) {
        self.run_step(theta, ws, false);
    }

    /// One step, on the AVX-512 tier when `simd` is set and the CPU and grid
    /// allow it.
    // lint: no_alloc
    fn run_step(&self, theta: &mut [Vec<Complex>; LEVELS], ws: &mut StepWorkspace, simd: bool) {
        let _span = telemetry::span!("sqg.step");
        // Every sweep indexes, and the tier reads through pointers, each
        // grid at all n² modes.
        let m = self.grid.n * self.grid.n;
        assert!(theta.iter().all(|l| l.len() == m), "state levels must hold n² = {m} modes");
        assert!(ws.holds(m), "step workspace must hold n² = {m} modes per grid");
        let tier = if simd { Avx512::detect(self.grid.n) } else { None };

        for stage in self.stages() {
            self.stage(tier, stage, theta, ws);
        }
    }

    /// The four RK4 stages of one step. Stage inputs are θ + c·k; `acc`
    /// accumulates k1 + 2 k2 + 2 k3 in that order, so the increment sums
    /// exactly as ((k1 + 2 k2) + 2 k3) + k4.
    fn stages(&self) -> [Stage<'_>; 4] {
        let dt = self.params.dt;
        let relax = if self.params.tdiab > 0.0 {
            (-dt / self.params.tdiab).exp()
        } else {
            1.0
        };
        let last = Stage::Last { sixth: dt / 6.0, relax, reference: self.reference.as_ref() };
        [Stage::First(0.5 * dt), Stage::Inner(0.5 * dt), Stage::Inner(dt), last]
    }

    /// One RK4 stage: the tendency at the stage input in three sweeps around
    /// five transforms, folded into the stage's update. Every grid holds
    /// `n²` modes (checked by [`Stepper::run_step`]) and `tier` was detected
    /// for this grid.
    // lint: no_alloc
    fn stage(
        &self,
        tier: Option<Avx512>,
        stage: Stage<'_>,
        theta: &mut [Vec<Complex>; LEVELS],
        ws: &mut StepWorkspace,
    ) {
        let grid = &self.grid;
        let StepWorkspace { acc, tmp, tend } = ws;
        let TendencyScratch { fields, adv, fft: scratch } = tend;
        let x = if stage.reads_theta() { &*theta } else { &*tmp };
        match tier {
            // SAFETY: the tier was detected for `grid.n`, and `run_step`
            // asserted that the input and `fields` hold `grid.n²` modes.
            Some(t) => unsafe { t.pack(grid, x, fields) },
            None => pack(grid, x, fields),
        }
        {
            let _span = telemetry::span!("fft");
            for f in fields.iter_mut() {
                self.ifft.process_with_scratch(f.as_mut(), scratch);
            }
        }
        let adv = adv.as_mut();
        match tier {
            // SAFETY: as for `pack`; `adv` holds `grid.n²` modes too.
            Some(t) => unsafe { t.product(fields, adv) },
            None => product(fields, adv),
        }
        {
            let _span = telemetry::span!("fft");
            self.fwd.process_with_scratch(adv, scratch);
        }

        let _span = telemetry::span!("assemble");
        let a = Assembly {
            grid,
            ubg: self.params.background_wind(),
            bbar_y: self.params.mean_buoyancy_gradient(),
            ekman: self.params.ekman,
            stage,
        };
        match tier {
            // SAFETY: as for `pack`; θ, `acc`, `tmp` and `adv` hold
            // `grid.n²` modes, and so does the reference (`set_reference`).
            Some(t) => unsafe { t.assemble(&a, adv, theta, acc, tmp) },
            None => assemble(&a, adv, theta, acc, tmp),
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

    /// dθ̂/dt at `theta` from the first stage's sweeps, dispatched as in a
    /// step: that stage's update stores the tendency itself (`acc = k₁`).
    fn tendency(
        stepper: &Stepper,
        theta: &[Vec<Complex>; LEVELS],
        ws: &mut StepWorkspace,
    ) -> [Vec<Complex>; LEVELS] {
        let mut input = theta.clone();
        let first = Stage::First(0.5 * stepper.params.dt);
        stepper.stage(Avx512::detect(stepper.grid.n), first, &mut input, ws);
        assert_eq!(&input, theta, "the first stage reads θ only");
        ws.acc.clone()
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
            let got = tendency(&stepper, &theta, &mut ws);
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

    fn bits(fields: &[Vec<Complex>]) -> Vec<(u64, u64)> {
        fields.iter().flatten().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn paired_sweeps_are_the_full_sweeps_bitwise() {
        // Every stage of 12 steps from a perturbed random state runs the
        // paired sweeps (scalar, and the AVX-512 tier where the CPU has it)
        // and the full-mode sweeps on the same inputs, and goes on from the
        // scalar paired outputs.
        for n in [8, 16, 32, 64] {
            for ekman in [0.0, 0.05] {
                for relaxed in [false, true] {
                    let tdiab = if relaxed { 5.0 * 86400.0 } else { 0.0 };
                    let mut stepper = Stepper::new(SqgParams { n, ekman, tdiab, ..Default::default() });
                    if relaxed {
                        let jet = crate::init::zonal_jet(n, 0.05);
                        stepper.set_reference([jet.level(0).to_vec(), jet.level(1).to_vec()]);
                    }
                    let (grid, m) = (&stepper.grid, n * n);
                    let tier = Avx512::detect(n);
                    let s = crate::init::perturb(&crate::init::random_large_scale(n, 0.05, 7), 1e-3, 8);
                    let mut theta = [s.level(0).to_vec(), s.level(1).to_vec()];
                    let zeros = || [vec![Complex::ZERO; m], vec![Complex::ZERO; m]];
                    let (mut acc, mut tmp) = (zeros(), zeros());
                    let mut fields: [Vec<Complex>; 4] = std::array::from_fn(|_| vec![Complex::ZERO; m]);
                    let mut adv = vec![Complex::ZERO; m];
                    let mut scratch = Fft2Scratch::new();
                    for step in 0..12 {
                        for (st, stage) in stepper.stages().into_iter().enumerate() {
                            let what = format!("n {n}, ekman {ekman}, relaxed {relaxed}, step {step}, stage {st}");
                            let x = if stage.reads_theta() { &theta } else { &tmp };
                            let mut want = fields.clone();
                            full::pack(grid, x, &mut want);
                            if let Some(t) = tier {
                                let mut got = fields.clone();
                                // SAFETY: the tier was detected for `n`; every grid holds n².
                                unsafe { t.pack(grid, x, &mut got) };
                                assert_eq!(bits(&got), bits(&want), "tier pack, {what}");
                            }
                            pack(grid, x, &mut fields);
                            assert_eq!(bits(&fields), bits(&want), "pack, {what}");
                            for f in fields.iter_mut() {
                                stepper.ifft.process_with_scratch(f, &mut scratch);
                            }
                            product(&fields, &mut adv);
                            stepper.fwd.process_with_scratch(&mut adv, &mut scratch);
                            let a = Assembly {
                                grid,
                                ubg: stepper.params.background_wind(),
                                bbar_y: stepper.params.mean_buoyancy_gradient(),
                                ekman,
                                stage,
                            };
                            let mut want = [theta.clone(), acc.clone(), tmp.clone()];
                            let [wt, wa, wm] = &mut want;
                            full::assemble(&a, &adv, wt, wa, wm);
                            if let Some(t) = tier {
                                let mut got = [theta.clone(), acc.clone(), tmp.clone()];
                                let [gt, ga, gm] = &mut got;
                                // SAFETY: as above; the reference holds n² modes too.
                                unsafe { t.assemble(&a, &adv, gt, ga, gm) };
                                for (got, want) in got.iter().zip([&*wt, &*wa, &*wm]) {
                                    assert_eq!(bits(got), bits(want), "tier assemble, {what}");
                                }
                            }
                            assemble(&a, &adv, &mut theta, &mut acc, &mut tmp);
                            for (got, want, name) in [(&theta, wt, "θ"), (&acc, wa, "acc"), (&tmp, wm, "tmp")] {
                                assert_eq!(bits(got), bits(want), "assemble {name}, {what}");
                            }
                        }
                    }
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
        // Odd grids have no Nyquist mode, so no wavenumber is zeroed there.
        for n in [9, 15, 16] {
            let (stepper, mut ws) = stepper_for(SqgParams { n, ..Default::default() });
            let mut st = random_state(n, 0.05, 31);
            for _ in 0..20 {
                stepper.step(&mut st, &mut ws);
            }
            for l in 0..LEVELS {
                assert_eq!(crate::init::hermitian_defect_2d(&st[l], n), 0.0, "n = {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "step workspace must hold n² = 256 modes per grid")]
    fn step_rejects_a_workspace_of_another_size() {
        let (stepper, _) = stepper_for(small_params());
        let mut theta = random_state(16, 0.05, 3);
        stepper.step(&mut theta, &mut StepWorkspace::new(8));
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

//! High-level model interface used by the DA framework.

use crate::dynamics::{StepWorkspace, Stepper};
use crate::init;
use crate::params::SqgParams;
use crate::state::{self, SqgState, LEVELS};
use fft::Complex;

/// The SQG forecast model: owns the stepper's shared tables and the
/// workspace of its one-state calls ([`SqgModel::forecast`],
/// [`SqgModel::step_spectral`]), and advances grid-space state vectors,
/// which is the representation the DA filters exchange.
pub struct SqgModel {
    stepper: Stepper,
    workspace: MemberWorkspace,
}

/// What one worker needs to forecast a member without allocating, 11 `n²`
/// grids plus the FFT scratch: the member's spectral state (2 grids) and the
/// step workspace (9 grids).
struct MemberWorkspace {
    theta: [Vec<Complex>; LEVELS],
    step: StepWorkspace,
}

impl MemberWorkspace {
    fn new(n: usize) -> Self {
        let z = vec![Complex::ZERO; n * n];
        MemberWorkspace { theta: [z.clone(), z], step: StepWorkspace::new(n) }
    }
}

/// Advances one grid-space member by `steps` model steps: load (one forward
/// transform), step, store (one inverse transform), all in `ws`. A pure
/// function of `member`; `ws` carries nothing between calls.
// lint: no_alloc
fn forecast_member(stepper: &Stepper, ws: &mut MemberWorkspace, member: &mut [f64], steps: usize) {
    let (fwd, inv) = stepper.plans();
    let (bottom, top) = member.split_at_mut(stepper.grid.n * stepper.grid.n);
    let (pair, scratch) = ws.step.pair_buffers();
    state::load_fields(fwd, bottom, top, &mut ws.theta, pair, scratch);
    for _ in 0..steps {
        stepper.step(&mut ws.theta, &mut ws.step);
    }
    let (pair, scratch) = ws.step.pair_buffers();
    state::store_fields(inv, &ws.theta, bottom, top, pair, scratch);
}

impl SqgModel {
    /// Creates a model for the given parameters.
    pub fn new(params: SqgParams) -> Self {
        let workspace = MemberWorkspace::new(params.n);
        SqgModel { stepper: Stepper::new(params), workspace }
    }

    /// Model parameters.
    pub fn params(&self) -> &SqgParams {
        &self.stepper.params
    }

    /// State dimension (`2 n²`).
    pub fn state_dim(&self) -> usize {
        self.stepper.params.state_dim()
    }

    /// Advances a spectral state `steps` model steps in place.
    ///
    /// # Panics
    /// Panics if the state's grid side is not the model's.
    pub fn step_spectral(&mut self, state: &mut SqgState, steps: usize) {
        let n = self.stepper.params.n;
        assert_eq!(state.n(), n, "state grid n = {} does not match the model's n = {n}", state.n());
        for _ in 0..steps {
            self.stepper.step(state.levels_mut(), &mut self.workspace.step);
        }
    }

    /// Advances a flat grid-space state vector by `steps` model steps.
    ///
    /// # Panics
    /// Panics if `state.len() != 2 n²`.
    pub fn forecast(&mut self, state: &mut [f64], steps: usize) {
        assert_eq!(state.len(), self.state_dim(), "state vector must have 2 n^2 entries");
        forecast_member(&self.stepper, &mut self.workspace, state, steps);
    }

    /// Advances every member of a member-major batch (`members.len()` a
    /// multiple of `2 n²`) by `steps` model steps, members in parallel.
    ///
    /// [`par::for_each_block`] gives each worker a contiguous block of
    /// members, and each block forecasts them in a workspace it builds on its
    /// own thread and drops with the call: resident while members are
    /// forecast, gone before the analysis allocates (which sets the process's
    /// peak RSS). A member's forecast is a pure function of its state, so the
    /// result is bitwise that of calling [`SqgModel::forecast`] member by
    /// member, whatever the core count.
    ///
    /// # Panics
    /// Panics if `members.len()` is not a multiple of `2 n²`.
    pub fn forecast_batch(&self, members: &mut [f64], steps: usize) {
        let dim = self.state_dim();
        assert_eq!(members.len() % dim, 0, "batch must hold whole 2 n^2 members");
        let stepper = &self.stepper;
        par::for_each_block(members, dim, |_, block| {
            let mut ws = MemberWorkspace::new(stepper.params.n);
            for member in block.chunks_mut(dim) {
                forecast_member(stepper, &mut ws, member, steps);
            }
        });
    }

    /// Number of model steps per `hours` of simulated time.
    pub fn steps_per_hours(&self, hours: f64) -> usize {
        (hours * 3600.0 / self.stepper.params.dt).round() as usize
    }

    /// Generates a spun-up "nature" state: random large-scale initial
    /// condition integrated through `spinup_steps` to reach the turbulent
    /// attractor.
    pub fn spinup_nature(&mut self, seed: u64, amplitude: f64, spinup_steps: usize) -> SqgState {
        let mut st = init::random_large_scale(self.stepper.params.n, amplitude, seed);
        self.step_spectral(&mut st, spinup_steps);
        st
    }

    /// Immutable access to the spectral grid tables (for diagnostics).
    pub fn grid(&self) -> &crate::grid::SpectralGrid {
        &self.stepper.grid
    }

    /// Sets the thermal-relaxation reference state (acts when
    /// `params.tdiab > 0`); typically [`init::zonal_jet`].
    pub fn set_reference(&mut self, reference: &SqgState) {
        assert_eq!(reference.n(), self.stepper.params.n, "reference grid mismatch");
        self.stepper
            .set_reference([reference.level(0).to_vec(), reference.level(1).to_vec()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_is_deterministic() {
        let p = SqgParams { n: 16, ..Default::default() };
        let mut m1 = SqgModel::new(p.clone());
        let mut m2 = SqgModel::new(p);
        let st = init::random_large_scale(16, 0.05, 3);
        let mut v1 = st.to_state_vector();
        let mut v2 = v1.clone();
        m1.forecast(&mut v1, 5);
        m2.forecast(&mut v2, 5);
        assert_eq!(v1, v2);
    }

    /// `members` perturbed copies of one spun-up n = 16 state, member-major.
    fn batch(members: usize) -> Vec<f64> {
        let base = init::random_large_scale(16, 0.05, 3);
        (0..members)
            .flat_map(|m| init::perturb(&base, 0.01, 100 + m as u64).to_state_vector())
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The batch at this machine's core count. That the result does not
    /// depend on the block layout at all is `par`'s half: every piece is
    /// visited once with its global index at any worker count.
    #[test]
    fn batch_forecast_is_bitwise_the_member_loop_at_this_core_count() {
        let p = SqgParams { n: 16, ..Default::default() };
        let dim = p.state_dim();
        for members in [1, 2, 3, 20] {
            let ic = batch(members);
            let mut want = ic.clone();
            let mut serial = SqgModel::new(p.clone());
            for member in want.chunks_mut(dim) {
                serial.forecast(member, 6);
            }
            let mut got = ic;
            SqgModel::new(p.clone()).forecast_batch(&mut got, 6);
            assert_eq!(bits(&got), bits(&want), "{members} members");
        }
    }

    #[test]
    fn workspaces_carry_no_state_between_calls() {
        let p = SqgParams { n: 16, ..Default::default() };
        let (first, second) = (batch(5), batch(3));
        let mut reused = SqgModel::new(p.clone());
        let (mut a, mut b) = (first.clone(), second.clone());
        reused.forecast_batch(&mut a, 4);
        reused.forecast(&mut b[..p.state_dim()], 4);
        reused.forecast_batch(&mut b, 4);
        let (mut a_fresh, mut b_fresh) = (first, second);
        SqgModel::new(p.clone()).forecast_batch(&mut a_fresh, 4);
        SqgModel::new(p.clone()).forecast(&mut b_fresh[..p.state_dim()], 4);
        SqgModel::new(p).forecast_batch(&mut b_fresh, 4);
        assert_eq!(bits(&a), bits(&a_fresh));
        assert_eq!(bits(&b), bits(&b_fresh));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let m = SqgModel::new(SqgParams { n: 16, ..Default::default() });
        m.forecast_batch(&mut [], 3);
    }

    /// A state of another grid size is refused before any sweep runs:
    /// unchecked, a larger state would be stepped in part and a smaller one
    /// read past its end by the tier's pointer loads.
    #[test]
    #[should_panic(expected = "state grid n = 32 does not match the model's n = 16")]
    fn step_spectral_rejects_a_larger_state() {
        let mut m = SqgModel::new(SqgParams { n: 16, ..Default::default() });
        m.step_spectral(&mut init::random_large_scale(32, 0.05, 3), 1);
    }

    #[test]
    #[should_panic(expected = "state grid n = 8 does not match the model's n = 16")]
    fn step_spectral_rejects_a_smaller_state() {
        let mut m = SqgModel::new(SqgParams { n: 16, ..Default::default() });
        m.step_spectral(&mut init::random_large_scale(8, 0.05, 3), 1);
    }

    #[test]
    fn forecast_changes_state() {
        let p = SqgParams { n: 16, ..Default::default() };
        let mut m = SqgModel::new(p);
        let st = init::random_large_scale(16, 0.05, 3);
        let v0 = st.to_state_vector();
        let mut v = v0.clone();
        m.forecast(&mut v, 5);
        let diff: f64 = v.iter().zip(&v0).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-8, "state did not evolve");
    }

    #[test]
    fn steps_per_hours_rounds() {
        let m = SqgModel::new(SqgParams { n: 16, dt: 900.0, ..Default::default() });
        assert_eq!(m.steps_per_hours(12.0), 48);
        assert_eq!(m.steps_per_hours(1.0), 4);
    }

    #[test]
    fn zero_steps_is_identity_up_to_round_trip() {
        let p = SqgParams { n: 16, ..Default::default() };
        let mut m = SqgModel::new(p);
        let st = init::random_large_scale(16, 0.05, 17);
        let v0 = st.to_state_vector();
        let mut v = v0.clone();
        m.forecast(&mut v, 0);
        for (a, b) in v.iter().zip(&v0) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn jet_forcing_sustains_turbulence() {
        // With relaxation toward a jet, the state must neither die out nor
        // blow up over a long run: statistically steady turbulence.
        let p = SqgParams { n: 16, tdiab: 5.0 * 86400.0, ekman: 0.05, ..Default::default() };
        let mut m = SqgModel::new(p);
        m.set_reference(&init::zonal_jet(16, 0.05));
        let mut st = init::random_large_scale(16, 0.01, 9);
        m.step_spectral(&mut st, 500);
        assert!(st.is_finite());
        let v_mid = st.total_variance();
        m.step_spectral(&mut st, 500);
        assert!(st.is_finite());
        let v_end = st.total_variance();
        assert!(v_end > 1e-8, "turbulence died out");
        assert!(v_end < 100.0 * v_mid.max(1e-8), "turbulence blew up");
    }

    #[test]
    fn chaotic_divergence_of_nearby_states() {
        // Two states differing by a tiny perturbation must separate — the
        // premise of the whole paper (rapid IC error growth).
        let p = SqgParams { n: 32, ..Default::default() };
        let mut m = SqgModel::new(p);
        let nature = m.spinup_nature(1, 0.05, 300);
        let mut a = nature.to_state_vector();
        let mut b = a.clone();
        b[0] += 1e-6;
        let d0: f64 = 1e-6;
        m.forecast(&mut a, 400);
        m.forecast(&mut b, 400);
        let d1: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(d1 > 10.0 * d0, "no chaotic growth: {d0} -> {d1}");
    }
}

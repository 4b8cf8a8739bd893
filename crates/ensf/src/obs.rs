//! The observation model: what is observed, and its likelihood score.
//!
//! The EnSF update needs `∇_x log p(y | x)` — the likelihood score. With
//! additive Gaussian observation error `y = h(x) + ε`, `ε ~ N(0, R)` and
//! diagonal `R`, the score is `J_h(x)ᵀ R⁻¹ (y − h(x))`. One value,
//! [`ObsSpec`], says what a scenario observes (componentwise map, network
//! mask, error); [`MaskedObs`] is its operator on a block of state,
//! providing the forward map and the score directly so the nonlinear
//! operator (a selling point of EnSF over LETKF) never materializes a
//! Jacobian.

/// An observation operator `h` with additive Gaussian error of per-component
/// standard deviation `sigma` (diagonal R).
pub trait ObservationOperator: Sync {
    /// Dimension of the observation vector.
    fn obs_dim(&self) -> usize;

    /// Applies `h` to a state, writing into `out` (`out.len() == obs_dim`).
    fn apply(&self, state: &[f64], out: &mut [f64]);

    /// Per-component observation error standard deviation.
    fn sigma(&self) -> f64;

    /// Likelihood score `∇_x log p(y | x)` accumulated into `score_out`
    /// (added, not overwritten, scaled by `weight`), so the filter can fold
    /// the damping factor in without a temporary.
    fn add_likelihood_score(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]);

    /// Overwriting variant of [`add_likelihood_score`]
    /// (Self::add_likelihood_score): writes the weighted score into
    /// `score_out` directly. The default zeroes and delegates; dense
    /// operators override to save the clearing pass in the per-step hot
    /// loop. Must produce the same values as the default.
    fn likelihood_score_into(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]) {
        score_out.fill(0.0);
        self.add_likelihood_score(state, y, weight, score_out);
    }

    /// Writes the squared row norm of the observation Jacobian per state
    /// component, `out[i] = Σ_j (∂h_j/∂x_i)²`, used by the stabilized
    /// reverse-SDE integrator to bound the likelihood pull by its *local*
    /// stiffness. Default: 1 everywhere (identity-like operators).
    fn jacobian_sq(&self, _state: &[f64], out: &mut [f64]) {
        out.fill(1.0);
    }

    /// If [`jacobian_sq`](Self::jacobian_sq) is the same state-independent
    /// constant for *every* component, that constant; otherwise `None`.
    ///
    /// Lets the batched reverse-SDE integrator compute the likelihood
    /// damping factor once per step instead of one `exp` per state element.
    /// Only return `Some` when `jacobian_sq` writes exactly this value into
    /// every slot for every state — operators with per-component patterns
    /// (e.g. strided masks) or state-dependent Jacobians must return `None`.
    fn constant_jacobian_sq(&self) -> Option<f64> {
        None
    }

    /// Log-likelihood `log p(y | x)` up to an additive constant.
    fn log_likelihood(&self, state: &[f64], y: &[f64]) -> f64 {
        let mut hx = vec![0.0; self.obs_dim()];
        self.apply(state, &mut hx);
        let inv2s2 = 0.5 / (self.sigma() * self.sigma());
        -hx.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() * inv2s2
    }
}

/// The componentwise observation map `h` of a scenario, applied to the
/// truth when observations are generated and by the filters when comparing
/// states against them.
///
/// `Identity` is the paper's baseline `h = I`; `Arctan` is the EnSF papers'
/// saturating stress operator `h(x) = arctan(γ x)` (Bao et al.,
/// arXiv:2404.00844): with γ |x| ≫ 1 the Jacobian vanishes and the
/// observation carries almost no amplitude information.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ObsOperatorKind {
    /// Direct observation of a state component (`h = I`).
    #[default]
    Identity,
    /// Componentwise saturating observation `h(x) = arctan(gain · x)`.
    Arctan {
        /// Saturation gain γ (> 0): larger values bite harder.
        gain: f64,
    },
}

impl ObsOperatorKind {
    /// Applies `h` to one state component.
    pub fn h(self, v: f64) -> f64 {
        match self {
            ObsOperatorKind::Identity => v,
            ObsOperatorKind::Arctan { gain } => (gain * v).atan(),
        }
    }

    /// `dh/dx` at one state component.
    fn dh(self, x: f64) -> f64 {
        match self {
            ObsOperatorKind::Identity => 1.0,
            ObsOperatorKind::Arctan { gain: g } => g / (1.0 + (g * x) * (g * x)),
        }
    }

    /// One component of the likelihood score, `w · (y − h(x)) · h'(x)`. The
    /// expression order is pinned by the arctan goldens.
    fn score_term(self, w: f64, yi: f64, x: f64) -> f64 {
        match self {
            ObsOperatorKind::Identity => w * (yi - x),
            ObsOperatorKind::Arctan { gain: g } => {
                w * (yi - (g * x).atan()) * g / (1.0 + (g * x) * (g * x))
            }
        }
    }
}

/// Which state components the observing network actually sees.
///
/// A mask composes with [`ObsOperatorKind`]: the operator maps state to
/// observation space componentwise, the mask then *selects* which of those
/// components reach the filter. The observation vector shrinks to the
/// observed components in ascending state-index order — unobserved state is
/// reconstructed by the filter (inpainting), never fabricated by the OSSE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskKind {
    /// Every component observed (the paper's baseline network).
    #[default]
    Full,
    /// Contiguous sensor outage: components `[start, start + len)` are
    /// unobserved (clamped to the state dimension).
    Block {
        /// First unobserved component.
        start: usize,
        /// Number of unobserved components.
        len: usize,
    },
    /// Strided network with gaps: component `i` is observed iff
    /// `i % stride == phase`.
    Strided {
        /// Spacing between observed components (≥ 1).
        stride: usize,
        /// Offset of the observed comb (< `stride`).
        phase: usize,
    },
    /// Moving satellite track: a wrapping window of `width` observed
    /// components whose start advances by `speed` components per cycle.
    /// Periodic in the cycle index with period dividing the state dim.
    Track {
        /// Observed window width (≥ 1).
        width: usize,
        /// Window advance per assimilation cycle.
        speed: usize,
    },
}

/// First observed component of a moving track at `cycle`.
fn track_start(speed: usize, dim: usize, cycle: u64) -> usize {
    let d = dim as u64;
    (((speed as u64 % d) * (cycle % d)) % d) as usize
}

impl MaskKind {
    /// True when the mask hides nothing (all fast paths stay bitwise
    /// identical to the pre-mask code under this).
    pub fn is_full(self) -> bool {
        match self {
            MaskKind::Full => true,
            MaskKind::Block { len, .. } => len == 0,
            MaskKind::Strided { stride, .. } => stride <= 1,
            MaskKind::Track { width: _, speed: _ } => false,
        }
    }

    /// Is state component `i` observed at assimilation `cycle` (0-based)
    /// in a state of dimension `dim`?
    pub fn is_observed(self, i: usize, dim: usize, cycle: u64) -> bool {
        debug_assert!(i < dim);
        match self {
            MaskKind::Full => true,
            MaskKind::Block { start, len } => !(i >= start && i < start.saturating_add(len)),
            MaskKind::Strided { stride, phase } => stride <= 1 || i % stride == phase % stride,
            MaskKind::Track { width, speed } => {
                width >= dim || (i + dim - track_start(speed, dim, cycle)) % dim < width
            }
        }
    }

    /// Ascending state indices observed at `cycle` — the bijection from
    /// observation-vector slots onto unmasked components.
    pub fn observed_indices(self, dim: usize, cycle: u64) -> Vec<usize> {
        (0..dim).filter(|&i| self.is_observed(i, dim, cycle)).collect()
    }

    /// Number of observed components at `cycle`.
    pub fn obs_dim(self, dim: usize, cycle: u64) -> usize {
        (0..dim).filter(|&i| self.is_observed(i, dim, cycle)).count()
    }

    /// Short label for scenario names and telemetry keys.
    pub fn label(self) -> String {
        match self {
            MaskKind::Full => "full".to_string(),
            MaskKind::Block { start, len } => format!("block{start}+{len}"),
            MaskKind::Strided { stride, phase } => format!("stride{stride}p{phase}"),
            MaskKind::Track { width, speed } => format!("track{width}v{speed}"),
        }
    }
}

/// The one description of "what is observed": `y = h(x)|mask + ε`,
/// `ε ~ N(0, σ² I)`. The nature run synthesizes observations from it, the
/// serial and sharded filters assimilate through it, and the diagnostics
/// and guardrails compare states against observations with it, so none of
/// them can disagree about the observation space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsSpec {
    /// Componentwise observation map `h`.
    pub operator: ObsOperatorKind,
    /// Which components the network sees (cycle-indexed).
    pub mask: MaskKind,
    /// Observation error standard deviation (in observation units).
    pub sigma: f64,
}

impl ObsSpec {
    /// The paper's setting (§IV-A): `h = I`, every component observed.
    pub fn identity(sigma: f64) -> Self {
        ObsSpec { operator: ObsOperatorKind::Identity, mask: MaskKind::Full, sigma }
    }

    /// Ascending state indices observed at `cycle`.
    pub fn observed(&self, dim: usize, cycle: u64) -> Vec<usize> {
        self.mask.observed_indices(dim, cycle)
    }

    /// Length of the observation vector at `cycle`.
    pub fn obs_len(&self, dim: usize, cycle: u64) -> usize {
        self.mask.obs_dim(dim, cycle)
    }

    /// Maps a state into this spec's observation space: `h` at the
    /// components observed at `cycle`, ascending.
    pub fn project(&self, state: &[f64], cycle: u64) -> Vec<f64> {
        if self.mask.is_full() {
            state.iter().map(|&v| self.operator.h(v)).collect()
        } else {
            let observed = self.observed(state.len(), cycle);
            observed.into_iter().map(|i| self.operator.h(state[i])).collect()
        }
    }

    /// The whole-state operator at `cycle`. Full masks yield the dense
    /// operator (no index list), which keeps
    /// [`ObservationOperator::constant_jacobian_sq`] and the overwriting
    /// score path on the paper's `h = I` setting.
    pub fn operator(&self, dim: usize, cycle: u64) -> MaskedObs {
        let observed = (!self.mask.is_full()).then(|| self.observed(dim, cycle));
        MaskedObs::new(dim, self.operator, observed, self.sigma)
    }
}

/// The observation operator of an [`ObsSpec`]: `h` at an optional list of
/// observed components — the only [`ObservationOperator`] in the tree.
///
/// With an index list the observation vector holds only the observed
/// components, in ascending state-index order, and the likelihood score
/// and its squared Jacobian are *exactly zero* elsewhere, so the
/// reverse-SDE and probability-flow integrators apply pure score-driven
/// diffusion there (inpainting, Liang et al., arXiv:2501.12419) and
/// observation-guided transport on the observed set — no special-casing in
/// the integrators themselves. Without one (`None`) every component is
/// observed and the loops are the dense ones; the indexed loops mirror
/// their expression order, so listing every index reproduces the dense
/// operator bit for bit.
#[derive(Debug, Clone)]
pub struct MaskedObs {
    state_dim: usize,
    operator: ObsOperatorKind,
    observed: Option<Vec<usize>>,
    sigma: f64,
}

impl MaskedObs {
    /// `operator` at the `observed` components (ascending, unique, all
    /// `< state_dim`; `None` = every component) of a `state_dim` block,
    /// with error std `sigma`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0`, an arctan gain is positive, and the index
    /// list is strictly ascending and in range.
    pub fn new(
        state_dim: usize,
        operator: ObsOperatorKind,
        observed: Option<Vec<usize>>,
        sigma: f64,
    ) -> Self {
        assert!(sigma > 0.0, "observation error must be positive");
        if let ObsOperatorKind::Arctan { gain } = operator {
            assert!(gain > 0.0, "arctan gain must be positive");
        }
        if let Some(observed) = &observed {
            assert!(
                observed.windows(2).all(|w| w[0] < w[1]),
                "observed indices must be strictly ascending"
            );
            if let Some(&last) = observed.last() {
                assert!(last < state_dim, "observed index {last} out of range {state_dim}");
            }
        }
        MaskedObs { state_dim, operator, observed, sigma }
    }

    /// Fully observed `h = I` on a `dim`-dimensional state (the paper's SQG
    /// experiment setting).
    pub fn identity(dim: usize, sigma: f64) -> Self {
        Self::new(dim, ObsOperatorKind::Identity, None, sigma)
    }
}

impl ObservationOperator for MaskedObs {
    fn obs_dim(&self) -> usize {
        self.observed.as_ref().map_or(self.state_dim, Vec::len)
    }

    fn apply(&self, state: &[f64], out: &mut [f64]) {
        match (&self.observed, self.operator) {
            (None, ObsOperatorKind::Identity) => out.copy_from_slice(state),
            (None, op) => {
                for (o, x) in out.iter_mut().zip(state) {
                    *o = op.h(*x);
                }
            }
            (Some(observed), op) => {
                for (o, &i) in out.iter_mut().zip(observed) {
                    *o = op.h(state[i]);
                }
            }
        }
    }

    fn sigma(&self) -> f64 {
        self.sigma
    }

    fn add_likelihood_score(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]) {
        let w = weight / (self.sigma * self.sigma);
        match (&self.observed, self.operator) {
            (None, ObsOperatorKind::Identity) => {
                for ((s, x), yi) in score_out.iter_mut().zip(state).zip(y) {
                    *s += w * (yi - x);
                }
            }
            (None, op) => {
                for ((s, x), yi) in score_out.iter_mut().zip(state).zip(y) {
                    *s += op.score_term(w, *yi, *x);
                }
            }
            (Some(observed), op) => {
                for (&i, yi) in observed.iter().zip(y) {
                    score_out[i] += op.score_term(w, *yi, state[i]);
                }
            }
        }
    }

    fn likelihood_score_into(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]) {
        if let (None, ObsOperatorKind::Identity) = (&self.observed, self.operator) {
            let w = weight / (self.sigma * self.sigma);
            for ((s, x), yi) in score_out.iter_mut().zip(state).zip(y) {
                *s = w * (yi - x);
            }
        } else {
            score_out.fill(0.0);
            self.add_likelihood_score(state, y, weight, score_out);
        }
    }

    fn jacobian_sq(&self, state: &[f64], out: &mut [f64]) {
        match (&self.observed, self.operator) {
            (None, ObsOperatorKind::Identity) => out.fill(1.0),
            (None, op) => {
                for (o, x) in out.iter_mut().zip(state) {
                    let j = op.dh(*x);
                    *o = j * j;
                }
            }
            (Some(observed), op) => {
                out.fill(0.0);
                for &i in observed {
                    let j = op.dh(state[i]);
                    out[i] = j * j;
                }
            }
        }
    }

    fn constant_jacobian_sq(&self) -> Option<f64> {
        match (&self.observed, self.operator) {
            (None, ObsOperatorKind::Identity) => Some(1.0),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARCTAN: ObsOperatorKind = ObsOperatorKind::Arctan { gain: 1.0 };

    fn finite_diff_score<O: ObservationOperator>(op: &O, x: &[f64], y: &[f64]) -> Vec<f64> {
        let h = 1e-6;
        let mut g = vec![0.0; x.len()];
        let mut xp = x.to_vec();
        for i in 0..x.len() {
            xp[i] = x[i] + h;
            let lp = op.log_likelihood(&xp, y);
            xp[i] = x[i] - h;
            let lm = op.log_likelihood(&xp, y);
            xp[i] = x[i];
            g[i] = (lp - lm) / (2.0 * h);
        }
        g
    }

    #[test]
    fn identity_score_matches_finite_difference() {
        let op = MaskedObs::identity(4, 0.7);
        let x = [0.3, -1.2, 2.0, 0.0];
        let y = [0.5, -1.0, 1.5, 0.2];
        let mut s = vec![0.0; 4];
        op.add_likelihood_score(&x, &y, 1.0, &mut s);
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in s.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn arctan_score_matches_finite_difference() {
        let op = MaskedObs::new(3, ARCTAN, None, 0.5);
        let x = [0.3, -2.0, 5.0];
        let mut y = vec![0.0; 3];
        op.apply(&[0.1, -1.8, 4.0], &mut y);
        let mut s = vec![0.0; 3];
        op.add_likelihood_score(&x, &y, 1.0, &mut s);
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in s.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn likelihood_score_into_matches_zeroed_add() {
        // The overwriting variant must agree with fill(0) + add on every
        // arm (dense identity overrides it; the rest zero and delegate).
        let x = [1.0, -2.0, 0.5, 3.0];
        let y = [0.5, 0.5, 0.5, 0.5];
        let ops = [
            MaskedObs::identity(4, 0.7),
            MaskedObs::new(4, ARCTAN, None, 0.3),
            MaskedObs::new(4, ObsOperatorKind::Identity, Some(vec![0, 3]), 0.5),
            MaskedObs::new(4, ARCTAN, Some(vec![1, 2]), 0.5),
        ];
        for op in &ops {
            let mut via_add = vec![0.0; 4];
            op.add_likelihood_score(&x, &y, 1.3, &mut via_add);
            let mut via_into = vec![f64::NAN; 4]; // must overwrite, not read
            op.likelihood_score_into(&x, &y, 1.3, &mut via_into);
            for (a, b) in via_add.iter().zip(&via_into) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn constant_jacobian_sq_agrees_with_jacobian_sq() {
        // Some(c) must mean jacobian_sq writes exactly c everywhere.
        let x = [0.4, -1.1, 2.0];
        let ident = MaskedObs::identity(3, 1.0);
        let c = ident.constant_jacobian_sq().unwrap();
        let mut js = vec![0.0; 3];
        ident.jacobian_sq(&x, &mut js);
        assert!(js.iter().all(|&j| j == c));
        // Non-uniform / state-dependent operators must opt out — including
        // an index list that happens to name every component: the choice is
        // made at spec level, not per block.
        let all = MaskedObs::new(3, ObsOperatorKind::Identity, Some(vec![0, 1, 2]), 1.0);
        assert!(all.constant_jacobian_sq().is_none());
        assert!(MaskedObs::new(3, ARCTAN, None, 0.3).constant_jacobian_sq().is_none());
    }

    #[test]
    fn score_weight_scales_linearly() {
        let op = MaskedObs::identity(2, 1.0);
        let x = [1.0, -1.0];
        let y = [0.0, 0.0];
        let mut s1 = vec![0.0; 2];
        let mut s2 = vec![0.0; 2];
        op.add_likelihood_score(&x, &y, 1.0, &mut s1);
        op.add_likelihood_score(&x, &y, 0.5, &mut s2);
        for (a, b) in s1.iter().zip(&s2) {
            assert!((0.5 * a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn arctan_gain_controls_saturation() {
        let sharp = MaskedObs::new(1, ObsOperatorKind::Arctan { gain: 1.0 }, None, 0.1);
        let mild = MaskedObs::new(1, ObsOperatorKind::Arctan { gain: 0.2 }, None, 0.1);
        let mut js = vec![0.0];
        let mut jm = vec![0.0];
        sharp.jacobian_sq(&[5.0], &mut js);
        mild.jacobian_sq(&[5.0], &mut jm);
        // At x = 5 the mild-gain operator retains far more sensitivity.
        assert!(jm[0] > 2.0 * js[0], "{jm:?} vs {js:?}");
    }

    #[test]
    fn jacobian_sq_matches_operators() {
        let id = MaskedObs::identity(3, 1.0);
        let mut out = vec![9.0; 3];
        id.jacobian_sq(&[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![1.0, 1.0, 1.0]);

        let atan = MaskedObs::new(2, ARCTAN, None, 1.0);
        let mut out = vec![0.0; 2];
        atan.jacobian_sq(&[0.0, 3.0], &mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert!((out[1] - (1.0f64 / 10.0).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn log_likelihood_peaks_at_consistent_state() {
        let op = MaskedObs::identity(2, 1.0);
        let y = [1.0, 2.0];
        assert!(op.log_likelihood(&[1.0, 2.0], &y) > op.log_likelihood(&[0.0, 0.0], &y));
    }

    #[test]
    fn tighter_sigma_means_stronger_pull() {
        let tight = MaskedObs::identity(1, 0.1);
        let loose = MaskedObs::identity(1, 1.0);
        let mut st = vec![0.0];
        let mut sl = vec![0.0];
        tight.add_likelihood_score(&[0.0], &[1.0], 1.0, &mut st);
        loose.add_likelihood_score(&[0.0], &[1.0], 1.0, &mut sl);
        assert!(st[0] > sl[0]);
    }

    #[test]
    #[should_panic(expected = "observation error must be positive")]
    fn identity_zero_sigma_rejected() {
        // A zero-variance observation makes the likelihood score singular;
        // the constructor is the only guard.
        let _ = MaskedObs::identity(4, 0.0);
    }

    #[test]
    fn masked_identity_score_matches_finite_difference() {
        let op = MaskedObs::new(5, ObsOperatorKind::Identity, Some(vec![0, 2, 4]), 0.7);
        let x = [0.3, -1.2, 2.0, 0.0, -0.4];
        let y = [0.5, 1.5, -0.1];
        let mut s = vec![0.0; 5];
        op.add_likelihood_score(&x, &y, 1.0, &mut s);
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in s.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        assert_eq!(s[1], 0.0);
        assert_eq!(s[3], 0.0);
    }

    #[test]
    fn masked_arctan_score_matches_finite_difference() {
        let op = MaskedObs::new(4, ObsOperatorKind::Arctan { gain: 3.0 }, Some(vec![1, 3]), 0.5);
        let x = [9.0, 0.3, 9.0, -0.8];
        let mut y = vec![0.0; 2];
        op.apply(&[0.0, 0.2, 0.0, -0.7], &mut y);
        let mut s = vec![0.0; 4];
        op.add_likelihood_score(&x, &y, 1.0, &mut s);
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in s.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert_eq!(s[0], 0.0);
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn masked_jacobian_vanishes_off_mask() {
        let op = MaskedObs::new(4, ObsOperatorKind::Identity, Some(vec![1, 2]), 1.0);
        let mut out = vec![9.0; 4];
        op.jacobian_sq(&[0.0; 4], &mut out);
        assert_eq!(out, vec![0.0, 1.0, 1.0, 0.0]);
        assert!(op.constant_jacobian_sq().is_none());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn masked_obs_rejects_unsorted_indices() {
        let _ = MaskedObs::new(4, ObsOperatorKind::Identity, Some(vec![2, 1]), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn masked_obs_rejects_out_of_range_index() {
        let _ = MaskedObs::new(4, ObsOperatorKind::Identity, Some(vec![0, 4]), 1.0);
    }
}

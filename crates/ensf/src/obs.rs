//! The observation model: what is observed, and its likelihood score.
//!
//! The EnSF update needs `∇_x log p(y | x)` — the likelihood score. With
//! additive Gaussian observation error `y = h(x) + ε`, `ε ~ N(0, R)` and
//! diagonal `R`, the score is `J_h(x)ᵀ R⁻¹ (y − h(x))`. One value,
//! [`ObsSpec`], says what a scenario observes (componentwise map, network
//! mask, error); [`ObsOperator`] is its dense componentwise operator,
//! providing the forward map and the score directly so the nonlinear
//! operator (a selling point of EnSF over LETKF) never materializes a
//! Jacobian. The filter always assimilates a dense observation vector: a
//! partial network's shrunk vector is completed before it reaches the
//! kernels (`da_core::Completion`), so the mask never enters them.

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
    fn is_observed(self, i: usize, dim: usize, cycle: u64) -> bool {
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
    fn obs_dim(self, dim: usize, cycle: u64) -> usize {
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

    /// The dense componentwise operator every filter kernel assimilates
    /// through (the mask is applied before them, by completing the vector).
    pub fn operator(&self) -> ObsOperator {
        ObsOperator::new(self.operator, self.sigma)
    }
}

/// The observation operator of an [`ObsSpec`]: `h` at every state
/// component with error std `sigma`, so `y` and the state have one length
/// and the likelihood score and its squared Jacobian are elementwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsOperator {
    kind: ObsOperatorKind,
    sigma: f64,
}

impl ObsOperator {
    /// `kind` at every component, with error std `sigma`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0` and an arctan gain is positive.
    pub fn new(kind: ObsOperatorKind, sigma: f64) -> Self {
        assert!(sigma > 0.0, "observation error must be positive");
        if let ObsOperatorKind::Arctan { gain } = kind {
            assert!(gain > 0.0, "arctan gain must be positive");
        }
        ObsOperator { kind, sigma }
    }

    /// Fully observed `h = I` (the paper's SQG experiment setting).
    pub fn identity(sigma: f64) -> Self {
        Self::new(ObsOperatorKind::Identity, sigma)
    }

    /// Applies `h` to a state, writing into `out` (same length).
    pub fn apply(&self, state: &[f64], out: &mut [f64]) {
        match self.kind {
            ObsOperatorKind::Identity => out.copy_from_slice(state),
            op => {
                for (o, x) in out.iter_mut().zip(state) {
                    *o = op.h(*x);
                }
            }
        }
    }

    /// Per-component observation error standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Writes the likelihood score `∇_x log p(y | x)`, scaled by `weight`,
    /// into `score_out`, so the integrators can fold the damping factor in
    /// without a temporary.
    pub fn likelihood_score_into(
        &self,
        state: &[f64],
        y: &[f64],
        weight: f64,
        score_out: &mut [f64],
    ) {
        let w = weight / (self.sigma * self.sigma);
        match self.kind {
            ObsOperatorKind::Identity => {
                for ((s, x), yi) in score_out.iter_mut().zip(state).zip(y) {
                    *s = w * (yi - x);
                }
            }
            op => {
                for ((s, x), yi) in score_out.iter_mut().zip(state).zip(y) {
                    *s = op.score_term(w, *yi, *x);
                }
            }
        }
    }

    /// Writes the squared observation Jacobian per state component,
    /// `out[i] = h'(x_i)²`, used by the integrators to bound the likelihood
    /// pull by its *local* stiffness.
    pub fn jacobian_sq(&self, state: &[f64], out: &mut [f64]) {
        match self.kind {
            ObsOperatorKind::Identity => out.fill(1.0),
            op => {
                for (o, x) in out.iter_mut().zip(state) {
                    let j = op.dh(*x);
                    *o = j * j;
                }
            }
        }
    }

    /// `x += factor · s` elementwise, `s` the likelihood score of `x` that
    /// [`likelihood_score_into`](Self::likelihood_score_into) writes, `w`
    /// being its `weight / σ²`: that call followed by an `axpy` of
    /// `factor`, one element at a time.
    #[inline(always)]
    pub(crate) fn add_scaled_score(&self, x: &mut [f64], y: &[f64], w: f64, factor: f64) {
        match self.kind {
            ObsOperatorKind::Identity => {
                for (xi, yi) in x.iter_mut().zip(y) {
                    *xi += factor * (w * (yi - *xi));
                }
            }
            op => {
                for (xi, yi) in x.iter_mut().zip(y) {
                    *xi += factor * op.score_term(w, *yi, *xi);
                }
            }
        }
    }

    /// If [`jacobian_sq`](Self::jacobian_sq) writes the same
    /// state-independent constant into every slot, that constant; otherwise
    /// `None`. Lets the batched reverse-SDE integrator compute the
    /// likelihood damping factor once per step instead of one `exp` per
    /// state element.
    pub fn constant_jacobian_sq(&self) -> Option<f64> {
        match self.kind {
            ObsOperatorKind::Identity => Some(1.0),
            ObsOperatorKind::Arctan { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARCTAN: ObsOperatorKind = ObsOperatorKind::Arctan { gain: 1.0 };

    /// Log-likelihood `log p(y | x)` up to an additive constant.
    fn log_likelihood(op: &ObsOperator, state: &[f64], y: &[f64]) -> f64 {
        let mut hx = vec![0.0; state.len()];
        op.apply(state, &mut hx);
        let inv2s2 = 0.5 / (op.sigma() * op.sigma());
        -hx.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() * inv2s2
    }

    fn finite_diff_score(op: &ObsOperator, x: &[f64], y: &[f64]) -> Vec<f64> {
        let h = 1e-6;
        let mut g = vec![0.0; x.len()];
        let mut xp = x.to_vec();
        for i in 0..x.len() {
            xp[i] = x[i] + h;
            let lp = log_likelihood(op, &xp, y);
            xp[i] = x[i] - h;
            let lm = log_likelihood(op, &xp, y);
            xp[i] = x[i];
            g[i] = (lp - lm) / (2.0 * h);
        }
        g
    }

    /// The weighted score; the buffer starts as NaN because the method must
    /// overwrite, not accumulate.
    fn score(op: &ObsOperator, x: &[f64], y: &[f64], weight: f64) -> Vec<f64> {
        let mut s = vec![f64::NAN; x.len()];
        op.likelihood_score_into(x, y, weight, &mut s);
        s
    }

    #[test]
    fn observed_indices_are_exactly_the_observed_components() {
        let dim = 97;
        let masks = [
            MaskKind::Full,
            MaskKind::Block { start: 80, len: 40 }, // clamped at dim
            MaskKind::Strided { stride: 4, phase: 9 },
            MaskKind::Track { width: 13, speed: 30 },
        ];
        for mask in masks {
            for cycle in [0u64, 1, 7, 96, 97] {
                let want: Vec<usize> =
                    (0..dim).filter(|&i| mask.is_observed(i, dim, cycle)).collect();
                assert_eq!(mask.observed_indices(dim, cycle), want, "{mask:?} cycle {cycle}");
                assert_eq!(mask.obs_dim(dim, cycle), want.len(), "{mask:?} cycle {cycle}");
            }
        }
    }

    #[test]
    fn identity_score_matches_finite_difference() {
        let op = ObsOperator::identity(0.7);
        let x = [0.3, -1.2, 2.0, 0.0];
        let y = [0.5, -1.0, 1.5, 0.2];
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in score(&op, &x, &y, 1.0).iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn arctan_score_matches_finite_difference() {
        let op = ObsOperator::new(ARCTAN, 0.5);
        let x = [0.3, -2.0, 5.0];
        let mut y = vec![0.0; 3];
        op.apply(&[0.1, -1.8, 4.0], &mut y);
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in score(&op, &x, &y, 1.0).iter().zip(&fd) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_jacobian_sq_agrees_with_jacobian_sq() {
        // Some(c) must mean jacobian_sq writes exactly c everywhere.
        let x = [0.4, -1.1, 2.0];
        let ident = ObsOperator::identity(1.0);
        let c = ident.constant_jacobian_sq().unwrap();
        let mut js = vec![0.0; 3];
        ident.jacobian_sq(&x, &mut js);
        assert!(js.iter().all(|&j| j == c));
        // State-dependent operators must opt out.
        assert!(ObsOperator::new(ARCTAN, 0.3).constant_jacobian_sq().is_none());
    }

    #[test]
    fn score_weight_scales_linearly() {
        let op = ObsOperator::identity(1.0);
        let x = [1.0, -1.0];
        let y = [0.0, 0.0];
        for (a, b) in score(&op, &x, &y, 1.0).iter().zip(&score(&op, &x, &y, 0.5)) {
            assert!((0.5 * a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn arctan_gain_controls_saturation() {
        let sharp = ObsOperator::new(ObsOperatorKind::Arctan { gain: 1.0 }, 0.1);
        let mild = ObsOperator::new(ObsOperatorKind::Arctan { gain: 0.2 }, 0.1);
        let mut js = vec![0.0];
        let mut jm = vec![0.0];
        sharp.jacobian_sq(&[5.0], &mut js);
        mild.jacobian_sq(&[5.0], &mut jm);
        // At x = 5 the mild-gain operator retains far more sensitivity.
        assert!(jm[0] > 2.0 * js[0], "{jm:?} vs {js:?}");
    }

    #[test]
    fn jacobian_sq_matches_operators() {
        let id = ObsOperator::identity(1.0);
        let mut out = vec![9.0; 3];
        id.jacobian_sq(&[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![1.0, 1.0, 1.0]);

        let atan = ObsOperator::new(ARCTAN, 1.0);
        let mut out = vec![0.0; 2];
        atan.jacobian_sq(&[0.0, 3.0], &mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert!((out[1] - (1.0f64 / 10.0).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn tighter_sigma_means_stronger_pull() {
        let tight = score(&ObsOperator::identity(0.1), &[0.0], &[1.0], 1.0);
        let loose = score(&ObsOperator::identity(1.0), &[0.0], &[1.0], 1.0);
        assert!(tight[0] > loose[0]);
    }

    #[test]
    #[should_panic(expected = "observation error must be positive")]
    fn identity_zero_sigma_rejected() {
        // A zero-variance observation makes the likelihood score singular;
        // the constructor is the only guard.
        let _ = ObsOperator::identity(0.0);
    }
}

//! Diffusion schedule (Eq. 9 of the paper).
//!
//! Following Song et al., the forward SDE uses `α_t = 1 − t`, `β_t = √t` on
//! the pseudo-time interval `[0, 1]`, giving the conditional
//! `Q(z_t | z_0) = N(α_t z_0, β_t² I)`: any initial distribution is
//! transported to `N(0, I)` at `t = 1`. The drift and diffusion of the SDE
//! follow from the schedule:
//!
//! ```text
//! b(t)  = d log α_t / dt  = −1 / (1 − t)
//! σ²(t) = dβ_t²/dt − 2 b(t) β_t² = 1 + 2 t / (1 − t)
//! ```
//!
//! Both are singular at `t = 1`, so evaluation is clamped to
//! `[eps, 1 − eps]` — the standard practice in score-based samplers.

/// Likelihood damping profile `h(t)` (Eq. 11). The paper uses the linear
/// `h(t) = T − t` and notes that "other options are also possible and will
/// be explored in future work" — the variants here implement that
/// exploration (all satisfy `h(0) = 1`, `h(1) = 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Damping {
    /// `h(t) = 1 − t` (the paper's choice).
    #[default]
    Linear,
    /// `h(t) = (1 − t)²`: concentrates the observation pull late in the
    /// reverse integration (near the data manifold).
    Quadratic,
    /// `h(t) = √(1 − t)`: spreads the pull earlier.
    Sqrt,
    /// `h(t) = (1 + cos(π t)) / 2`: smooth at both endpoints.
    Cosine,
}

impl Damping {
    /// Evaluates the profile at (already clamped) pseudo-time `t`.
    #[inline]
    fn eval(self, t: f64) -> f64 {
        match self {
            Damping::Linear => 1.0 - t,
            Damping::Quadratic => (1.0 - t) * (1.0 - t),
            Damping::Sqrt => (1.0 - t).sqrt(),
            Damping::Cosine => 0.5 * (1.0 + (std::f64::consts::PI * t).cos()),
        }
    }
}

/// The (α, β) diffusion schedule with endpoint clamping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionSchedule {
    /// Endpoint clamp: pseudo-times are restricted to `[eps, 1 − eps]`.
    pub eps: f64,
    /// Likelihood damping profile `h(t)`.
    pub damping_profile: Damping,
}

impl Default for DiffusionSchedule {
    fn default() -> Self {
        DiffusionSchedule { eps: 1e-3, damping_profile: Damping::Linear }
    }
}

impl DiffusionSchedule {
    /// Creates a schedule with the given endpoint clamp.
    ///
    /// # Panics
    /// Panics unless `0 < eps < 0.5`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5), got {eps}");
        DiffusionSchedule { eps, damping_profile: Damping::Linear }
    }

    /// Same schedule with a different damping profile.
    pub fn with_damping(mut self, profile: Damping) -> Self {
        self.damping_profile = profile;
        self
    }

    /// Clamps a pseudo-time into the valid interval.
    #[inline]
    pub fn clamp(&self, t: f64) -> f64 {
        t.clamp(self.eps, 1.0 - self.eps)
    }

    /// `α_t = 1 − t`.
    #[inline]
    pub fn alpha(&self, t: f64) -> f64 {
        1.0 - self.clamp(t)
    }

    /// `β_t² = t`.
    #[inline]
    pub fn beta_sq(&self, t: f64) -> f64 {
        self.clamp(t)
    }

    /// `β_t = √t`.
    #[inline]
    pub fn beta(&self, t: f64) -> f64 {
        self.beta_sq(t).sqrt()
    }

    /// Drift coefficient `b(t) = d log α_t / dt = −1/(1 − t)`.
    #[inline]
    pub fn drift(&self, t: f64) -> f64 {
        -1.0 / (1.0 - self.clamp(t))
    }

    /// Squared diffusion coefficient
    /// `σ²(t) = dβ²/dt − 2 b(t) β² = 1 + 2t/(1 − t)`.
    #[inline]
    pub fn sigma_sq(&self, t: f64) -> f64 {
        let t = self.clamp(t);
        1.0 + 2.0 * t / (1.0 - t)
    }

    /// Likelihood damping `h(t)` (the paper's `h(t) = T − t` with `T = 1`
    /// by default): full observation weight at `t = 0`, none at `t = 1`.
    #[inline]
    pub fn damping(&self, t: f64) -> f64 {
        self.damping_profile.eval(self.clamp(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        let s = DiffusionSchedule::default();
        // t = 0 (clamped to eps): nearly identity transport.
        assert!((s.alpha(0.0) - (1.0 - s.eps)).abs() < 1e-15);
        assert!((s.beta_sq(0.0) - s.eps).abs() < 1e-15);
        // t = 1 (clamped): nearly pure noise.
        assert!((s.alpha(1.0) - s.eps).abs() < 1e-15);
        assert!((s.beta_sq(1.0) - (1.0 - s.eps)).abs() < 1e-15);
    }

    #[test]
    fn damping_boundary_conditions() {
        let s = DiffusionSchedule::default();
        assert!((s.damping(0.0) - 1.0).abs() < 2.0 * s.eps);
        assert!(s.damping(1.0) < 2.0 * s.eps);
        // monotone decreasing
        assert!(s.damping(0.2) > s.damping(0.8));
    }

    #[test]
    fn drift_and_sigma_satisfy_defining_relations() {
        let s = DiffusionSchedule::new(1e-6);
        for &t in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            // b = d log alpha / dt via finite differences.
            let h = 1e-7;
            let num_b = ((s.alpha(t + h)).ln() - (s.alpha(t - h)).ln()) / (2.0 * h);
            assert!((s.drift(t) - num_b).abs() < 1e-5, "drift at {t}");
            // sigma^2 = d beta^2/dt - 2 b beta^2
            let num_db2 = (s.beta_sq(t + h) - s.beta_sq(t - h)) / (2.0 * h);
            let want = num_db2 - 2.0 * s.drift(t) * s.beta_sq(t);
            assert!((s.sigma_sq(t) - want).abs() < 1e-4, "sigma_sq at {t}");
        }
    }

    #[test]
    fn forward_marginal_variance_is_consistent() {
        // Var(z_t) for z_0 with variance v0: alpha^2 v0 + beta^2.
        // At t=1 this approaches 1 regardless of v0 (the N(0,I) endpoint).
        let s = DiffusionSchedule::new(1e-9);
        for &v0 in &[0.01, 1.0, 100.0] {
            let var1 = s.alpha(1.0).powi(2) * v0 + s.beta_sq(1.0);
            assert!((var1 - 1.0).abs() < 1e-6 * (1.0 + v0), "v0 = {v0}: {var1}");
        }
    }

    #[test]
    fn sigma_sq_is_positive_and_growing() {
        let s = DiffusionSchedule::default();
        let mut prev = 0.0;
        for i in 0..100 {
            let t = i as f64 / 100.0;
            let ss = s.sigma_sq(t);
            assert!(ss >= 1.0 - 1e-12);
            assert!(ss >= prev);
            prev = ss;
        }
    }

    #[test]
    fn all_damping_profiles_satisfy_boundary_conditions() {
        for profile in [Damping::Linear, Damping::Quadratic, Damping::Sqrt, Damping::Cosine] {
            assert!((profile.eval(0.0) - 1.0).abs() < 1e-12, "{profile:?} h(0) != 1");
            assert!(profile.eval(1.0).abs() < 1e-12, "{profile:?} h(1) != 0");
            // Monotone nonincreasing on a sampled grid.
            let mut prev = profile.eval(0.0);
            for i in 1..=100 {
                let v = profile.eval(i as f64 / 100.0);
                assert!(v <= prev + 1e-12, "{profile:?} not monotone at {i}");
                prev = v;
            }
        }
    }

    #[test]
    fn damping_profile_ordering() {
        // At mid-time: quadratic < linear < sqrt (pull concentration).
        let t = 0.5;
        assert!(Damping::Quadratic.eval(t) < Damping::Linear.eval(t));
        assert!(Damping::Linear.eval(t) < Damping::Sqrt.eval(t));
    }

    #[test]
    fn with_damping_changes_schedule() {
        let lin = DiffusionSchedule::default();
        let quad = DiffusionSchedule::default().with_damping(Damping::Quadratic);
        assert!(quad.damping(0.5) < lin.damping(0.5));
    }

    #[test]
    #[should_panic]
    fn invalid_eps_rejected() {
        let _ = DiffusionSchedule::new(0.7);
    }

    #[test]
    fn linear_damping_is_exactly_t_minus_t_inside_the_clamp() {
        // The paper's h(t) = T − t with T = 1: on the clamped interval the
        // implementation must be the literal subtraction, to the bit.
        let s = DiffusionSchedule::new(1e-3);
        for i in 1..1000 {
            let t = i as f64 / 1000.0;
            if t < s.eps || t > 1.0 - s.eps {
                continue;
            }
            assert_eq!(s.damping(t).to_bits(), (1.0 - t).to_bits(), "h({t}) != 1 - {t}");
        }
    }

    #[test]
    fn damping_endpoints_saturate_at_the_clamp() {
        // Out-of-range pseudo-times clamp to [eps, 1 − eps] before h is
        // evaluated: h never exceeds h(eps) and never undershoots h(1 − eps).
        let s = DiffusionSchedule::new(1e-3);
        let at_lo = (1.0 - s.eps).to_bits();
        let at_hi = (1.0 - (1.0 - s.eps)).to_bits();
        for t in [-5.0, -1e-9, 0.0, 1e-4] {
            assert_eq!(s.damping(t).to_bits(), at_lo, "h({t}) should clamp to h(eps)");
        }
        for t in [1.0 - 1e-4, 1.0, 1.0 + 1e-9, 42.0] {
            assert_eq!(s.damping(t).to_bits(), at_hi, "h({t}) should clamp to h(1 - eps)");
        }
    }
}

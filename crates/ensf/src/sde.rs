//! The pseudo-time grid of the reverse-time SDE integration (Eq. 7).
//!
//! Samples from the target distribution are produced by integrating
//!
//! ```text
//! dZ = [ b(t) Z − σ²(t) s(Z, t) ] dt + σ(t) dW̄
//! ```
//!
//! backwards from `t = 1` (standard Gaussian) to `t = 0` (target).
//!
//! ## Discretization
//!
//! The drift `b(t) = −1/(1 − t)` is stiff near `t = 1`: explicit Euler with
//! uniform steps requires `Δt ≲ (1 − t)` and otherwise amplifies particles
//! catastrophically. Every integrator ([`crate::reverse_sde_assimilate_batched`]
//! and the oracle's) combines two standard remedies:
//!
//! 1. a **log-spaced time grid** in `u = 1 − t`, so every step satisfies
//!    `Δt / (1 − t) = const ≈ ln(1/eps)/n` regardless of `n`;
//! 2. an **exponential integrator** for the linear part: over one step the
//!    homogeneous solution is exactly `z ← (α(t′)/α(t)) z`, so only the
//!    score term is treated with Euler.

use crate::schedule::DiffusionSchedule;

/// The descending pseudo-time grid `1 − eps = t_0 > t_1 > … > t_n = 0`
/// (n + 1 points) every integrator steps through.
///
/// Two-sided geometric refinement: the reverse dynamics are stiff at both
/// endpoints (drift ~ 1/(1-t) at t = 1, score scale 1/beta^2 = 1/t at
/// t = 0), so steps shrink toward both. Upper half: u = 1 - t geometric in
/// [eps, 1/2]; lower half: t geometric in [eps, 1/2]; final point t = 0.
pub fn time_grid(schedule: &DiffusionSchedule, n_steps: usize) -> Vec<f64> {
    assert!(n_steps >= 1, "need at least one Euler step");
    let eps = schedule.eps;
    let n_hi = n_steps / 2;
    let n_lo = n_steps - n_hi;
    let mut pts = Vec::with_capacity(n_steps + 1);
    if n_hi == 0 {
        pts.push(1.0 - eps);
    } else {
        let ratio = (0.5f64 / eps).ln() / n_hi as f64;
        for i in 0..=n_hi {
            let u = eps * (ratio * i as f64).exp();
            pts.push(1.0 - u);
        }
    }
    // Lower half: from t = 0.5 down to eps geometrically, then 0.
    if n_lo >= 2 {
        let ratio = (0.5f64 / eps).ln() / (n_lo - 1) as f64;
        for i in 1..n_lo {
            let t = 0.5 * (-(ratio * i as f64)).exp();
            pts.push(t);
        }
    }
    pts.push(0.0);
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Log-spaced grid: monotone descending, endpoints right, stable ratio.
    #[test]
    fn log_grid_structure() {
        let sch = DiffusionSchedule::new(1e-3);
        let pts = time_grid(&sch, 40);
        assert_eq!(pts.len(), 41);
        assert!((pts[0] - (1.0 - 1e-3)).abs() < 1e-12);
        assert!(pts[40].abs() < 1e-12);
        for w in pts.windows(2) {
            assert!(w[1] < w[0], "grid must descend");
            // Stability: dt bounded by the distance to the nearest singular
            // endpoint (floored at eps for the final step to t = 0).
            let dt = w[0] - w[1];
            let margin = w[0].min(1.0 - w[0]).max(1e-3);
            assert!(dt / margin <= 1.0 + 1e-9, "step too large at t = {}", w[0]);
        }
    }

    #[test]
    #[should_panic]
    fn zero_steps_rejected() {
        let _ = time_grid(&DiffusionSchedule::default(), 0);
    }

    #[test]
    fn single_step_grids_span_the_whole_interval() {
        // n_steps = 1 is the degenerate discretization: the grid must still
        // be exactly [1 − eps, 0] (the upper half is empty, n_hi = 0, and
        // the lower half has too few points to refine).
        let sch = DiffusionSchedule::default();
        let pts = time_grid(&sch, 1);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].to_bits(), (1.0 - sch.eps).to_bits(), "start");
        assert_eq!(pts[1].to_bits(), 0.0f64.to_bits(), "end");
    }
}

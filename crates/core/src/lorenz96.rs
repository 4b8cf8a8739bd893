//! The Lorenz-96 model (Lorenz 1996).
//!
//! The EnSF's nonlinear/non-Gaussian credentials cited by the paper
//! (refs [24], [25]) were established on Lorenz-96 with up to O(10⁶)
//! variables and highly nonlinear observations; this module provides that
//! testbed as a second [`ForecastModel`], used by the nonlinear-observation
//! demonstrations and the high-dimensional EnSF stress tests.
//!
//! ```text
//! dx_k/dt = (x_{k+1} − x_{k−2}) x_{k−1} − x_k + F,   k cyclic
//! ```
//!
//! with the classic chaotic forcing `F = 8`. Time is measured in model time
//! units (MTU); 0.05 MTU ≈ 6 h of "atmospheric" time by Lorenz's analogy, so
//! [`ForecastModel::forecast`]'s `hours` are converted at 0.05 MTU / 6 h.

use crate::traits::ForecastModel;

/// Lorenz-96 configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Lorenz96Params {
    /// Number of variables (≥ 4).
    pub dim: usize,
    /// Forcing term (8.0 = standard chaos).
    pub forcing: f64,
    /// RK4 step in MTU.
    pub dt: f64,
}

impl Default for Lorenz96Params {
    fn default() -> Self {
        Lorenz96Params { dim: 40, forcing: 8.0, dt: 0.01 }
    }
}

/// The Lorenz-96 forecast model.
#[derive(Debug, Clone)]
pub struct Lorenz96 {
    params: Lorenz96Params,
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl Lorenz96 {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics if `dim < 4` or `dt <= 0`.
    pub fn new(params: Lorenz96Params) -> Self {
        assert!(params.dim >= 4, "Lorenz-96 needs at least 4 variables");
        assert!(params.dt > 0.0);
        let z = vec![0.0; params.dim];
        Lorenz96 { params, k1: z.clone(), k2: z.clone(), k3: z.clone(), k4: z.clone(), tmp: z }
    }

    /// Model parameters.
    pub fn params(&self) -> &Lorenz96Params {
        &self.params
    }

    fn tendency(params: &Lorenz96Params, x: &[f64], out: &mut [f64]) {
        let n = params.dim;
        for k in 0..n {
            let xp1 = x[(k + 1) % n];
            let xm1 = x[(k + n - 1) % n];
            let xm2 = x[(k + n - 2) % n];
            out[k] = (xp1 - xm2) * xm1 - x[k] + params.forcing;
        }
    }

    /// One RK4 step of `dt` MTU, in place.
    pub fn step(&mut self, x: &mut [f64]) {
        let n = self.params.dim;
        assert_eq!(x.len(), n);
        let dt = self.params.dt;
        Self::tendency(&self.params, x, &mut self.k1);
        for i in 0..n {
            self.tmp[i] = x[i] + 0.5 * dt * self.k1[i];
        }
        Self::tendency(&self.params, &self.tmp, &mut self.k2);
        for i in 0..n {
            self.tmp[i] = x[i] + 0.5 * dt * self.k2[i];
        }
        Self::tendency(&self.params, &self.tmp, &mut self.k3);
        for i in 0..n {
            self.tmp[i] = x[i] + dt * self.k3[i];
        }
        Self::tendency(&self.params, &self.tmp, &mut self.k4);
        for i in 0..n {
            x[i] += dt / 6.0 * (self.k1[i] + 2.0 * self.k2[i] + 2.0 * self.k3[i] + self.k4[i]);
        }
    }

    /// Integrates for `mtu` model time units.
    fn integrate(&mut self, x: &mut [f64], mtu: f64) {
        let steps = (mtu / self.params.dt).round().max(0.0) as usize;
        for _ in 0..steps {
            self.step(x);
        }
    }

    /// A spun-up state on the attractor from a seed perturbation.
    pub fn spinup(&mut self, seed: u64, mtu: f64) -> Vec<f64> {
        let mut x = vec![self.params.forcing; self.params.dim];
        // Deterministic seed-dependent kick.
        let kick = (seed % 1000) as f64 / 1000.0 + 0.001;
        x[0] += kick;
        x[self.params.dim / 2] -= 0.5 * kick;
        self.integrate(&mut x, mtu);
        x
    }
}

impl ForecastModel for Lorenz96 {
    fn state_dim(&self) -> usize {
        self.params.dim
    }

    fn forecast(&mut self, state: &mut [f64], hours: f64) {
        // Lorenz's analogy: 0.05 MTU per 6 h.
        let mtu = hours / 6.0 * 0.05;
        self.integrate(state, mtu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_without_gradient() {
        // x = F everywhere is a (unstable) fixed point.
        let mut m = Lorenz96::new(Lorenz96Params::default());
        let mut x = vec![8.0; 40];
        m.step(&mut x);
        for v in &x {
            assert!((v - 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn chaotic_divergence() {
        let mut m = Lorenz96::new(Lorenz96Params::default());
        let a0 = m.spinup(1, 10.0);
        let mut a = a0.clone();
        let mut b = a0;
        b[0] += 1e-8;
        // Leading Lyapunov exponent ~1.7/MTU: 8 MTU amplifies 1e-8 by ~1e6.
        m.integrate(&mut a, 8.0);
        m.integrate(&mut b, 8.0);
        let d: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        assert!(d > 1e-4, "no chaotic growth: {d}");
    }

    #[test]
    fn attractor_statistics() {
        // Climatological mean ≈ 2.3, std ≈ 3.6 for F = 8 (textbook values).
        let mut m = Lorenz96::new(Lorenz96Params::default());
        let mut x = m.spinup(3, 20.0);
        let mut acc = stats::OnlineMoments::new();
        for _ in 0..2000 {
            m.step(&mut x);
            for v in &x {
                acc.push(*v);
            }
        }
        assert!((acc.mean() - 2.3).abs() < 0.6, "mean {:.2}", acc.mean());
        assert!((acc.std_dev() - 3.6).abs() < 0.8, "std {:.2}", acc.std_dev());
    }

    #[test]
    fn energy_stays_bounded() {
        let mut m = Lorenz96::new(Lorenz96Params::default());
        let mut x = m.spinup(5, 5.0);
        m.integrate(&mut x, 50.0);
        assert!(x.iter().all(|v| v.abs() < 30.0), "state escaped the attractor");
    }

    #[test]
    fn forecast_model_conversion() {
        let mut m = Lorenz96::new(Lorenz96Params::default());
        assert_eq!(m.state_dim(), 40);
        let mut x = m.spinup(7, 5.0);
        let before = x.clone();
        // 6 hours = 0.05 MTU = 5 steps at dt 0.01.
        m.forecast(&mut x, 6.0);
        let d: f64 = x.iter().zip(&before).map(|(a, b)| (a - b).abs()).sum();
        assert!(d > 1e-6);
    }

    #[test]
    fn works_at_high_dimension() {
        let mut m = Lorenz96::new(Lorenz96Params { dim: 10_000, ..Default::default() });
        let mut x = m.spinup(9, 1.0);
        m.integrate(&mut x, 0.5);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic]
    fn tiny_dimension_rejected() {
        let _ = Lorenz96::new(Lorenz96Params { dim: 3, ..Default::default() });
    }
}

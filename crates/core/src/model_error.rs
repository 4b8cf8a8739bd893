//! The paper's 4-component stochastic model-error process (§IV-A-b).
//!
//! At every forecast step of the *imperfect* model, four independent white
//! (in time) Gaussian error processes may fire, with occurrence
//! probabilities 20 %, 15 %, 10 % and 5 % and amplitudes 20 %, 30 %, 40 %
//! and 50 % of the average magnitude of the SQG state. The covariance is
//! diagonal (spatially uncorrelated).

use rand::rngs::StdRng;
use rand::Rng;
use stats::gaussian::standard_normal;
use stats::rng::seeded;

/// Configuration of the stochastic error process.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelErrorConfig {
    /// Occurrence probability of each component per forecast interval.
    pub probabilities: Vec<f64>,
    /// Amplitude of each component, as a fraction of the mean |state|.
    pub amplitudes: Vec<f64>,
}

impl Default for ModelErrorConfig {
    fn default() -> Self {
        ModelErrorConfig {
            probabilities: vec![0.20, 0.15, 0.10, 0.05],
            amplitudes: vec![0.20, 0.30, 0.40, 0.50],
        }
    }
}

impl ModelErrorConfig {
    /// Validates shape and ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.probabilities.len() != self.amplitudes.len() {
            return Err("probabilities/amplitudes length mismatch".into());
        }
        if self.probabilities.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err("probabilities must be in [0,1]".into());
        }
        if self.amplitudes.iter().any(|a| *a < 0.0) {
            return Err("amplitudes must be nonnegative".into());
        }
        Ok(())
    }
}

/// Stateful model-error generator.
///
/// The error amplitude is anchored to a *fixed* climatological scale — the
/// paper specifies amplitudes as percentages of "the average SQG model
/// values", a property of the model climate, not of the instantaneous
/// state. (Scaling by the instantaneous state creates a positive feedback
/// that blows the trajectory up within tens of cycles.) The scale is frozen
/// from the first state the generator sees, which in the OSSE is the
/// spun-up, climatologically representative initial truth.
#[derive(Debug)]
pub struct ModelError {
    config: ModelErrorConfig,
    rng: StdRng,
    /// Frozen climatological scale (mean |state|); set on first use.
    scale: Option<f64>,
}

impl ModelError {
    /// Creates the generator.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(config: ModelErrorConfig, seed: u64) -> Self {
        config.validate().expect("invalid model-error configuration");
        ModelError { config, rng: seeded(seed), scale: None }
    }

    /// Applies one interval's worth of model error to `state` in place.
    /// Returns the total noise standard deviation that fired (0 if none).
    pub fn perturb(&mut self, state: &mut [f64]) -> f64 {
        // Climatological scale, frozen on first use.
        let scale = *self.scale.get_or_insert_with(|| {
            state.iter().map(|v| v.abs()).sum::<f64>() / state.len().max(1) as f64
        });
        // Independent components; fired variances add.
        let mut var = 0.0;
        for (p, a) in self.config.probabilities.iter().zip(&self.config.amplitudes) {
            if self.rng.random::<f64>() < *p {
                let sd = a * scale;
                var += sd * sd;
            }
        }
        if var == 0.0 { // lint: allow(float-exact-compare, reason="no component fired iff the sum is exactly 0.0")
            return 0.0;
        }
        let sd = var.sqrt();
        for v in state.iter_mut() {
            *v += sd * standard_normal(&mut self.rng);
        }
        sd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_valid() {
        assert!(ModelErrorConfig::default().validate().is_ok());
        let cfg = ModelErrorConfig::default();
        // Σ p a² = .2·.04 + .15·.09 + .1·.16 + .05·.25 = 0.05
        let fraction: f64 = cfg.probabilities.iter().zip(&cfg.amplitudes).map(|(p, a)| p * a * a).sum();
        assert!((fraction - 0.05).abs() < 1e-12);
    }

    #[test]
    fn perturbation_statistics_match_expectation() {
        let mut me = ModelError::new(ModelErrorConfig::default(), 7);
        let base = vec![1.0f64; 512]; // scale = 1
        let trials = 3000;
        let mut var_sum = 0.0;
        for _ in 0..trials {
            let mut s = base.clone();
            me.perturb(&mut s);
            let dv: f64 =
                s.iter().zip(&base).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / 512.0;
            var_sum += dv;
        }
        let mean_var = var_sum / trials as f64;
        assert!(
            (mean_var - 0.05).abs() < 0.01,
            "per-interval variance should be ≈0.05·scale², got {mean_var}"
        );
    }

    #[test]
    fn fires_intermittently() {
        let mut me = ModelError::new(ModelErrorConfig::default(), 3);
        let mut fired = 0;
        let trials = 2000;
        for _ in 0..trials {
            let mut s = vec![1.0; 8];
            if me.perturb(&mut s) > 0.0 {
                fired += 1;
            }
        }
        // P(any fires) = 1 − .8·.85·.9·.95 ≈ 0.4186
        let frac = fired as f64 / trials as f64;
        assert!((frac - 0.4186).abs() < 0.04, "firing fraction {frac}");
    }

    #[test]
    fn error_scales_with_climatology_not_instantaneous_state() {
        // Different climates give proportionally different error sizes...
        let mut me_small = ModelError::new(ModelErrorConfig::default(), 11);
        let mut me_big = ModelError::new(ModelErrorConfig::default(), 11);
        let small = vec![0.01f64; 256];
        let big = vec![10.0f64; 256];
        let mut ds = 0.0;
        let mut db = 0.0;
        for _ in 0..200 {
            let mut s = small.clone();
            let mut b = big.clone();
            ds += me_small.perturb(&mut s);
            db += me_big.perturb(&mut b);
        }
        assert!(db > 100.0 * ds, "error must scale with the climate: {ds} vs {db}");

        // ...but the scale is frozen: a grown state does NOT grow the error
        // (this is what prevents the positive feedback / blow-up).
        let mut me = ModelError::new(ModelErrorConfig::default(), 13);
        me.scale = Some(1.0);
        let mut total_small_state = 0.0;
        let mut total_big_state = 0.0;
        for _ in 0..400 {
            let mut s = vec![1.0f64; 64];
            total_small_state += me.perturb(&mut s);
            let mut b = vec![100.0f64; 64];
            total_big_state += me.perturb(&mut b);
        }
        let ratio = total_big_state / total_small_state.max(1e-12);
        assert!((0.5..2.0).contains(&ratio), "frozen scale violated: ratio {ratio}");
    }

    #[test]
    fn zero_probability_never_fires() {
        let cfg = ModelErrorConfig { probabilities: vec![0.0], amplitudes: vec![0.5] };
        let mut me = ModelError::new(cfg, 5);
        let mut s = vec![1.0; 16];
        for _ in 0..100 {
            assert_eq!(me.perturb(&mut s), 0.0);
        }
        assert!(s.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ModelErrorConfig { probabilities: vec![0.5], amplitudes: vec![] }
            .validate()
            .is_err());
        assert!(ModelErrorConfig { probabilities: vec![1.5], amplitudes: vec![0.1] }
            .validate()
            .is_err());
        assert!(ModelErrorConfig { probabilities: vec![0.5], amplitudes: vec![-0.1] }
            .validate()
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut me = ModelError::new(ModelErrorConfig::default(), seed);
            let mut s = vec![1.0; 32];
            for _ in 0..10 {
                me.perturb(&mut s);
            }
            s
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}

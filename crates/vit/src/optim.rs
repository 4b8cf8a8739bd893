//! Optimizers.
//!
//! Adam is the paper's training optimizer (its 2× optimizer-state memory is
//! exactly what the FSDP/ZeRO sharding strategies of Table I partition).
//! Optimizer state is keyed by the model's deterministic parameter visit
//! order.

use crate::layers::Param;

/// A closure that walks every model parameter in a stable order, handing
/// each one to the provided callback (see [`crate::SqgVit::visit_params`]).
pub type ParamVisitor<'a> = dyn FnMut(&mut dyn FnMut(&mut Param)) + 'a;

/// Adam with bias correction (Kingma & Ba), with an optional global
/// gradient-norm clip.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// Optional global gradient-norm clip.
    pub grad_clip: Option<f32>,
    step: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// New optimizer with the usual defaults.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_clip: None,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of update steps taken.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Applies one update to all parameters produced by `visit` (a closure
    /// that calls its argument once per parameter, in a stable order).
    ///
    /// The first call sizes the moment buffers; later calls must present the
    /// same parameter shapes in the same order.
    pub fn step(&mut self, visit: &mut ParamVisitor<'_>) {
        self.step += 1;
        let t = self.step as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);

        // Optional global grad clipping: first pass to compute the norm.
        let scale = if let Some(clip) = self.grad_clip {
            let mut sq = 0.0f64;
            visit(&mut |p: &mut Param| {
                sq += p.grad.iter().map(|g| (*g as f64) * (*g as f64)).sum::<f64>();
            });
            let norm = sq.sqrt() as f32;
            if norm > clip {
                clip / norm
            } else {
                1.0
            }
        } else {
            1.0
        };

        let mut idx = 0usize;
        let first_call = self.m.is_empty();
        // Work around the borrow: temporarily move the buffers out.
        let mut m = std::mem::take(&mut self.m);
        let mut v = std::mem::take(&mut self.v);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        visit(&mut |p: &mut Param| {
            if first_call {
                m.push(vec![0.0; p.value.len()]);
                v.push(vec![0.0; p.value.len()]);
            }
            let mi = &mut m[idx];
            let vi = &mut v[idx];
            assert_eq!(mi.len(), p.value.len(), "parameter shape changed between steps");
            for ((w, g), (ms, vs)) in p
                .value
                .iter_mut()
                .zip(&p.grad)
                .zip(mi.iter_mut().zip(vi.iter_mut()))
            {
                let g = *g * scale;
                *ms = b1 * *ms + (1.0 - b1) * g;
                *vs = b2 * *vs + (1.0 - b2) * g * g;
                let mhat = *ms / bc1;
                let vhat = *vs / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
            idx += 1;
        });
        self.m = m;
        self.v = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(w) = 0.5 (w - 3)²: the optimizer must converge.
    fn quadratic_test(run: &mut dyn FnMut(&mut Param)) -> f32 {
        let mut p = Param::new(vec![0.0]);
        for _ in 0..2000 {
            p.grad[0] = p.value[0] - 3.0;
            run(&mut p);
        }
        p.value[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = quadratic_test(&mut |p| {
            opt.step(&mut |f| f(p));
        });
        assert!((w - 3.0).abs() < 0.01, "Adam converged to {w}");
        assert_eq!(opt.steps(), 2000);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // After one step with gradient g, Adam moves by ~lr (sign of g),
        // regardless of g's magnitude, thanks to bias correction.
        for g in [0.001f32, 1.0, 1000.0] {
            let mut p = Param::new(vec![0.0]);
            p.grad[0] = g;
            let mut opt = Adam::new(0.1);
            opt.step(&mut |f| f(&mut p));
            assert!(
                (p.value[0] + 0.1).abs() < 1e-3,
                "first Adam step should be ≈ -lr, got {} for g={g}",
                p.value[0]
            );
        }
    }

    #[test]
    fn grad_clip_limits_update() {
        let mut clipped = Adam::new(0.1);
        clipped.grad_clip = Some(1.0);
        let mut p1 = Param::new(vec![0.0]);
        p1.grad[0] = 1000.0;
        clipped.step(&mut |f| f(&mut p1));

        let mut unclipped = Adam::new(0.1);
        let mut p2 = Param::new(vec![0.0]);
        p2.grad[0] = 1000.0;
        unclipped.step(&mut |f| f(&mut p2));

        // Adam normalizes by RMS so the *final* update sizes coincide here,
        // but the clipped moments must be bounded.
        assert!(clipped.m[0][0].abs() <= 0.1 + 1e-6, "clipped first moment {}", clipped.m[0][0]);
        assert!(unclipped.m[0][0].abs() > 10.0);
    }

    #[test]
    #[should_panic]
    fn shape_change_detected() {
        let mut opt = Adam::new(0.1);
        let mut p = Param::new(vec![0.0; 3]);
        opt.step(&mut |f| f(&mut p));
        let mut q = Param::new(vec![0.0; 5]);
        opt.step(&mut |f| f(&mut q));
    }
}

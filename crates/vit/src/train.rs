//! Training loop: offline pre-training on model trajectories and the
//! *online* fine-tuning with observations that Fig. 1's workflow performs
//! each assimilation cycle.

use crate::model::SqgVit;
use crate::optim::Adam;
use crate::schedule::LrSchedule;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use stats::rng::seeded;

/// A supervised pair: input state and the state one observation interval
/// later (both flattened images).
#[derive(Debug, Clone)]
pub struct Sample {
    /// Input image (flattened, channel-major).
    pub x: Vec<f32>,
    /// Target image (same layout).
    pub y: Vec<f32>,
}

/// Mean-squared-error loss and its gradient.
fn mse_loss(pred: &[f32], target: &[f32]) -> (f32, Vec<f32>) {
    assert_eq!(pred.len(), target.len());
    let n = pred.len() as f32;
    let mut grad = vec![0.0f32; pred.len()];
    let mut loss = 0.0f32;
    for ((g, p), t) in grad.iter_mut().zip(pred).zip(target) {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    (loss / n, grad)
}

/// Trainer: owns the optimizer, the LR schedule and the shuffling RNG.
pub struct Trainer {
    /// Adam optimizer.
    pub optimizer: Adam,
    /// Learning-rate schedule (evaluated at each optimizer step).
    pub schedule: LrSchedule,
    /// Mini-batch size.
    pub batch_size: usize,
    rng: StdRng,
}

impl Trainer {
    /// New trainer with a constant learning rate.
    pub fn new(lr: f32, batch_size: usize, seed: u64) -> Self {
        Self::with_schedule(LrSchedule::Constant { lr }, batch_size, seed)
    }

    /// New trainer with an explicit LR schedule.
    ///
    /// # Panics
    /// Panics on an invalid schedule or zero batch size.
    fn with_schedule(schedule: LrSchedule, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size >= 1);
        schedule.validate().expect("invalid LR schedule");
        let mut optimizer = Adam::new(schedule.at(0));
        optimizer.grad_clip = Some(1.0);
        Trainer { optimizer, schedule, batch_size, rng: seeded(seed) }
    }

    /// One gradient step on a batch; returns the batch loss.
    pub fn step(&mut self, model: &mut SqgVit, batch: &[Sample]) -> f32 {
        assert!(!batch.is_empty());
        self.optimizer.lr = self.schedule.at(self.optimizer.steps());
        model.zero_grad();
        let xs: Vec<Vec<f32>> = batch.iter().map(|s| s.x.clone()).collect();
        let preds = model.forward(&xs);
        let mut total = 0.0f32;
        let mut grads = Vec::with_capacity(batch.len());
        for (pred, sample) in preds.iter().zip(batch) {
            let (loss, mut grad) = mse_loss(pred, &sample.y);
            total += loss;
            // Average over the batch.
            for g in &mut grad {
                *g /= batch.len() as f32;
            }
            grads.push(grad);
        }
        model.backward(&grads);
        self.optimizer.step(&mut |f| model.visit_params(f));
        total / batch.len() as f32
    }

    /// One epoch over `data` (shuffled); returns the mean loss.
    pub fn epoch(&mut self, model: &mut SqgVit, data: &[Sample]) -> f32 {
        assert!(!data.is_empty());
        let _span = telemetry::span!("vit.train.epoch");
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(&mut self.rng);
        let mut total = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(self.batch_size) {
            let batch: Vec<Sample> = chunk.iter().map(|&i| data[i].clone()).collect();
            total += self.step(model, &batch);
            batches += 1;
        }
        total / batches as f32
    }

    /// Mean loss over `data` without updating (validation).
    // lint: allow(dead-pub, reason="measures the loss that training_reduces_loss and online_finetuning_adapts_to_new_regime assert on")
    pub fn evaluate(&mut self, model: &mut SqgVit, data: &[Sample]) -> f32 {
        assert!(!data.is_empty());
        let mut total = 0.0;
        for s in data {
            let pred = model.predict(&s.x);
            total += mse_loss(&pred, &s.y).0;
        }
        total / data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;
    use proptest::prelude::*;

    fn tiny_model(seed: u64) -> SqgVit {
        SqgVit::new(
            VitConfig {
                input_size: 8,
                patch_size: 4,
                in_chans: 2,
                depth: 1,
                heads: 2,
                embed_dim: 16,
                mlp_ratio: 2,
            },
            seed,
        )
    }

    fn toy_dataset(n: usize) -> Vec<Sample> {
        // Learnable map: y = circular shift of x by one column (a crude
        // "advection" stand-in).
        (0..n)
            .map(|k| {
                let x: Vec<f32> =
                    (0..128).map(|i| ((i + k) as f32 * 0.7).sin() * 0.5).collect();
                let mut y = vec![0.0f32; 128];
                for ch in 0..2 {
                    for r in 0..8 {
                        for c in 0..8 {
                            y[ch * 64 + r * 8 + (c + 1) % 8] = x[ch * 64 + r * 8 + c];
                        }
                    }
                }
                Sample { x, y }
            })
            .collect()
    }

    #[test]
    fn mse_loss_and_grad() {
        let (l, g) = mse_loss(&[1.0, 2.0], &[0.0, 2.0]);
        assert!((l - 0.5).abs() < 1e-6);
        assert!((g[0] - 1.0).abs() < 1e-6);
        assert_eq!(g[1], 0.0);
        let (l0, _) = mse_loss(&[3.0], &[3.0]);
        assert_eq!(l0, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// MSE loss is nonnegative, zero iff identical, and its gradient
        /// points from target to prediction.
        #[test]
        fn mse_properties(
            p in prop::collection::vec(-10.0f32..10.0, 1..64),
            delta in prop::collection::vec(-1.0f32..1.0, 64),
        ) {
            let t: Vec<f32> = p.iter().zip(&delta).map(|(a, d)| a + d).collect();
            let (loss, grad) = mse_loss(&p, &t);
            prop_assert!(loss >= 0.0);
            let (self_loss, _) = mse_loss(&p, &p);
            prop_assert_eq!(self_loss, 0.0);
            for ((g, pi), ti) in grad.iter().zip(&p).zip(&t) {
                // gradient sign matches (pred - target)
                if (pi - ti).abs() > 1e-6 {
                    prop_assert!(g.signum() == (pi - ti).signum());
                }
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = tiny_model(1);
        let data = toy_dataset(16);
        let mut trainer = Trainer::new(3e-3, 8, 7);
        let before = trainer.evaluate(&mut model, &data);
        for _ in 0..30 {
            trainer.epoch(&mut model, &data);
        }
        let after = trainer.evaluate(&mut model, &data);
        assert!(
            after < 0.5 * before,
            "training failed to reduce loss: {before} -> {after}"
        );
    }

    #[test]
    fn step_returns_finite_loss() {
        let mut model = tiny_model(2);
        let data = toy_dataset(4);
        let mut trainer = Trainer::new(1e-3, 4, 3);
        let l = trainer.step(&mut model, &data);
        assert!(l.is_finite() && l > 0.0);
    }

    #[test]
    fn epoch_is_deterministic_given_seed() {
        let data = toy_dataset(8);
        let run = || {
            let mut model = tiny_model(5);
            let mut trainer = Trainer::new(1e-3, 4, 11);
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(trainer.epoch(&mut model, &data));
            }
            losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warmup_cosine_schedule_drives_optimizer_lr() {
        let mut model = tiny_model(9);
        let data = toy_dataset(4);
        let mut trainer = Trainer::with_schedule(
            LrSchedule::WarmupCosine {
                peak: 0.01,
                floor: 0.001,
                warmup_steps: 2,
                total_steps: 10,
            },
            4,
            3,
        );
        trainer.step(&mut model, &data);
        // After the first step the LR applied was the warmup value.
        assert!((trainer.optimizer.lr - 0.005).abs() < 1e-6);
        for _ in 0..12 {
            trainer.step(&mut model, &data);
        }
        // Past total_steps the LR sits at the floor.
        assert!((trainer.optimizer.lr - 0.001).abs() < 1e-6);
    }

    #[test]
    fn online_finetuning_adapts_to_new_regime() {
        // Pre-train on the shift map, then fine-tune on the identity map:
        // a proxy for the paper's online adaptation to observations.
        let mut model = tiny_model(6);
        let shift = toy_dataset(16);
        let mut trainer = Trainer::new(3e-3, 8, 13);
        for _ in 0..20 {
            trainer.epoch(&mut model, &shift);
        }
        let identity: Vec<Sample> =
            shift.iter().map(|s| Sample { x: s.x.clone(), y: s.x.clone() }).collect();
        let before = trainer.evaluate(&mut model, &identity);
        for _ in 0..20 {
            trainer.epoch(&mut model, &identity);
        }
        let after = trainer.evaluate(&mut model, &identity);
        assert!(after < 0.5 * before, "fine-tuning failed: {before} -> {after}");
    }
}

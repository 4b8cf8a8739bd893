//! The ViT surrogate as a forecast model, with offline pre-training on SQG
//! trajectories and the *online* fine-tuning of Fig. 1.
//!
//! Offline: roll the SQG model along its attractor and collect
//! `(state_t, state_{t+Δ})` pairs of the Δ = 12 h flow map. Online: each
//! assimilation cycle contributes the pair (previous analysis mean →
//! current analysis mean), letting the surrogate absorb information from the
//! observations — the paper's mechanism for correcting offline-trained
//! foundation models.

use crate::resilience::checkpoint::{Reader, Writer};
use crate::resilience::CheckpointError;
use crate::traits::ForecastModel;
use sqg::{SqgModel, SqgParams};
use stats::OnlineMoments;
use vit::train::{Sample, Trainer};
use vit::{SqgVit, VitConfig};

const STATE_MAGIC: u32 = 0x5351_5654; // "SQVT"
/// 2: the normalisation scale precedes the tensors.
const STATE_VERSION: u32 = 2;

/// ViT surrogate of the SQG 12-hour flow map.
pub struct VitSurrogate {
    model: SqgVit,
    trainer: Trainer,
    /// Simulated-hours step the network was trained to predict.
    interval_hours: f64,
    /// Normalization scale (states divided by this before the network).
    scale: f64,
    /// Gradient steps taken per `assimilate_feedback` call (0 disables
    /// online learning — e.g. for the "ViT only" free run).
    pub online_steps: usize,
    /// Replay buffer of online samples.
    online_buffer: Vec<Sample>,
    /// Max replay-buffer length.
    buffer_cap: usize,
    /// Loss history (diagnostics).
    pub loss_history: Vec<f32>,
}

impl VitSurrogate {
    /// Creates an untrained surrogate for an `n × n × 2` SQG state.
    pub fn new(config: VitConfig, interval_hours: f64, lr: f32, seed: u64) -> Self {
        assert!(interval_hours > 0.0);
        VitSurrogate {
            model: SqgVit::new(config, seed),
            trainer: Trainer::new(lr, 8, seed ^ 0x7A17),
            interval_hours,
            scale: 1.0,
            online_steps: 0,
            online_buffer: Vec::new(),
            buffer_cap: 256,
            loss_history: Vec::new(),
        }
    }

    /// Generates `pairs` training pairs from an SQG trajectory started at
    /// `seed`, after `spinup` model steps.
    pub fn generate_training_data(
        params: &SqgParams,
        interval_hours: f64,
        pairs: usize,
        spinup: usize,
        seed: u64,
    ) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut model = SqgModel::new(params.clone());
        let steps = model.steps_per_hours(interval_hours);
        let mut state = model.spinup_nature(seed, 0.05, spinup).to_state_vector();
        let mut out = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let x = state.clone();
            model.forecast(&mut state, steps);
            out.push((x, state.clone()));
        }
        out
    }

    /// Offline pre-training on `(x, y)` state pairs for `epochs` epochs.
    /// Sets the normalization scale from the data. Returns the final loss.
    pub fn pretrain(&mut self, pairs: &[(Vec<f64>, Vec<f64>)], epochs: usize) -> f32 {
        assert!(!pairs.is_empty(), "need training data");
        // Scale: RMS of the inputs keeps activations O(1).
        let mut acc = OnlineMoments::new();
        for (x, _) in pairs {
            for &v in x {
                acc.push(v * v);
            }
        }
        self.scale = acc.mean().sqrt().max(1e-12);

        let data: Vec<Sample> = pairs
            .iter()
            .map(|(x, y)| Sample { x: self.to_f32(x), y: self.to_f32(y) })
            .collect();
        let mut last = f32::NAN;
        for _ in 0..epochs {
            last = self.trainer.epoch(&mut self.model, &data);
            self.loss_history.push(last);
        }
        last
    }

    /// Online update: fine-tune on the latest analysis transition
    /// (previous analysis mean → current analysis mean), plus replay.
    fn online_update(&mut self, prev_analysis: &[f64], curr_analysis: &[f64], steps: usize) {
        let sample =
            Sample { x: self.to_f32(prev_analysis), y: self.to_f32(curr_analysis) };
        self.online_buffer.push(sample);
        if self.online_buffer.len() > self.buffer_cap {
            self.online_buffer.remove(0);
        }
        for _ in 0..steps {
            // Train on the freshest window of the replay buffer.
            let window = 8.min(self.online_buffer.len());
            let batch: Vec<Sample> =
                self.online_buffer[self.online_buffer.len() - window..].to_vec();
            let loss = self.trainer.step(&mut self.model, &batch);
            self.loss_history.push(loss);
        }
    }

    /// Number of learnable parameters.
    pub fn num_params(&mut self) -> usize {
        self.model.num_params()
    }

    fn to_f32(&self, state: &[f64]) -> Vec<f32> {
        state.iter().map(|&v| (v / self.scale) as f32).collect()
    }

    fn rescale_f64(&self, state: &[f32]) -> Vec<f64> {
        state.iter().map(|&v| v as f64 * self.scale).collect()
    }

    /// Reads and validates the whole blob against this network's shapes
    /// before mutating anything.
    fn read_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = Reader::new(bytes, STATE_MAGIC, STATE_VERSION)?;
        let scale = r.f64s(1, "scale")?[0];
        let mut shapes = Vec::new();
        self.model.visit_params(&mut |p| shapes.push(p.value.len()));
        if r.u32()? as usize != shapes.len() || scale <= 0.0 {
            return Err(CheckpointError::BadHeader);
        }
        let mut tensors = Vec::with_capacity(shapes.len());
        for len in shapes {
            if r.u32()? as usize != len {
                return Err(CheckpointError::BadHeader);
            }
            tensors.push(r.f32s(len, "weights")?);
        }
        r.finish()?;
        self.scale = scale;
        let mut tensors = tensors.into_iter();
        self.model.visit_params(&mut |p| {
            if let Some(t) = tensors.next() {
                p.value = t;
            }
        });
        Ok(())
    }
}

impl ForecastModel for VitSurrogate {
    fn state_dim(&self) -> usize {
        let c = self.model.config();
        c.in_chans * c.input_size * c.input_size
    }

    fn assimilate_feedback(&mut self, prev_analysis: &[f64], curr_analysis: &[f64]) {
        if self.online_steps > 0 {
            self.online_update(prev_analysis, curr_analysis, self.online_steps);
        }
    }

    /// Checkpoints the normalisation scale and the adapted network weights
    /// (the online fine-tuning state): magic, version, the scale, then the
    /// tensor count and each tensor's length-prefixed f32s in
    /// `visit_params` order. Optimizer moments are not captured, so a
    /// resumed run's *future* online updates are approximate — the
    /// restored forecasts themselves are exact.
    fn save_state(&mut self) -> Option<Vec<u8>> {
        let mut w = Writer::new(STATE_MAGIC, STATE_VERSION);
        w.f64s(&[self.scale]);
        let mut count = 0u32;
        self.model.visit_params(&mut |_| count += 1);
        w.u32(count);
        self.model.visit_params(&mut |p| {
            w.u32(p.value.len() as u32);
            w.f32s(&p.value);
        });
        Some(w.finish())
    }

    /// Restores what [`Self::save_state`] wrote into a surrogate of the
    /// same architecture; a blob of another version, another shape or
    /// with non-finite values is refused with the model untouched.
    fn load_state(&mut self, bytes: &[u8]) -> bool {
        self.read_state(bytes).is_ok()
    }

    fn forecast(&mut self, state: &mut [f64], hours: f64) {
        let intervals = (hours / self.interval_hours).round() as usize;
        assert!(
            (hours - intervals as f64 * self.interval_hours).abs() < 1e-9,
            "surrogate trained for {}h intervals, asked for {hours}h",
            self.interval_hours
        );
        for _ in 0..intervals {
            let x = self.to_f32(state);
            let y = self.model.predict(&x);
            state.copy_from_slice(&self.rescale_f64(&y));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_params() -> SqgParams {
        SqgParams { n: 16, ..Default::default() }
    }

    fn small_vit() -> VitConfig {
        VitConfig::small(16)
    }

    #[test]
    fn training_data_consecutive_pairs_chain() {
        let pairs =
            VitSurrogate::generate_training_data(&small_params(), 12.0, 4, 10, 1);
        assert_eq!(pairs.len(), 4);
        // y of pair k is x of pair k+1 (a single trajectory).
        for w in pairs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // Pairs must differ (the model moves).
        for (x, y) in &pairs {
            let d: f64 = x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum();
            assert!(d > 1e-10);
        }
    }

    #[test]
    fn pretraining_beats_persistence_proxy() {
        // After pre-training, the surrogate's prediction should be closer to
        // the true 12 h evolution than an untrained network's output is.
        let params = small_params();
        let pairs = VitSurrogate::generate_training_data(&params, 12.0, 24, 50, 2);
        let mut sur = VitSurrogate::new(small_vit(), 12.0, 3e-3, 7);
        let first_loss = sur.pretrain(&pairs[..16], 1);
        let final_loss = sur.pretrain(&pairs[..16], 30);
        assert!(
            final_loss < 0.7 * first_loss,
            "pre-training must reduce loss: {first_loss} -> {final_loss}"
        );
    }

    #[test]
    fn forecast_respects_interval() {
        let pairs = VitSurrogate::generate_training_data(&small_params(), 12.0, 4, 10, 3);
        let mut sur = VitSurrogate::new(small_vit(), 12.0, 1e-3, 5);
        sur.pretrain(&pairs, 2);
        let mut state = pairs[0].0.clone();
        sur.forecast(&mut state, 24.0); // two intervals: fine
        assert!(state.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic]
    fn fractional_interval_rejected() {
        let pairs = VitSurrogate::generate_training_data(&small_params(), 12.0, 2, 5, 4);
        let mut sur = VitSurrogate::new(small_vit(), 12.0, 1e-3, 5);
        sur.pretrain(&pairs, 1);
        let mut state = pairs[0].0.clone();
        sur.forecast(&mut state, 7.0);
    }

    #[test]
    fn online_update_reduces_loss_on_new_regime() {
        let mut sur = VitSurrogate::new(small_vit(), 12.0, 3e-3, 9);
        // Pretrain on a trivial map so scale is set.
        let dim = 512;
        let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..8)
            .map(|k| {
                let x: Vec<f64> = (0..dim).map(|i| ((i + k) as f64 * 0.1).sin()).collect();
                (x.clone(), x)
            })
            .collect();
        sur.pretrain(&pairs, 5);
        // New regime: negated identity.
        let x: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.05).cos()).collect();
        let y: Vec<f64> = x.iter().map(|v| -v).collect();
        let err_before = {
            let mut s = x.clone();
            sur.forecast(&mut s, 12.0);
            stats::metrics::rmse(&s, &y)
        };
        for _ in 0..40 {
            sur.online_update(&x, &y, 2);
        }
        let err_after = {
            let mut s = x.clone();
            sur.forecast(&mut s, 12.0);
            stats::metrics::rmse(&s, &y)
        };
        assert!(
            err_after < 0.6 * err_before,
            "online updates must adapt: {err_before} -> {err_after}"
        );
    }

    #[test]
    fn state_dim_matches_config() {
        let sur = VitSurrogate::new(small_vit(), 12.0, 1e-3, 1);
        assert_eq!(sur.state_dim(), 512);
    }

    /// An 8 × 8 × 2 network, small enough to fuzz its whole blob.
    fn tiny(seed: u64) -> VitSurrogate {
        let config = VitConfig {
            input_size: 8,
            patch_size: 4,
            in_chans: 2,
            depth: 1,
            heads: 2,
            embed_dim: 16,
            mlp_ratio: 2,
            dropout: 0.0,
            drop_path: 0.0,
        };
        VitSurrogate::new(config, 12.0, 1e-3, seed)
    }

    /// A tiny surrogate's 12 h forecast of a fixed state.
    fn probe(sur: &mut VitSurrogate) -> Vec<f64> {
        let mut state: Vec<f64> = (0..128).map(|i| (i as f64 * 0.3).sin()).collect();
        sur.forecast(&mut state, 12.0);
        state
    }

    /// `load_state` refuses `blob` and leaves the surrogate as it was.
    fn assert_refused(sur: &mut VitSurrogate, blob: &[u8]) {
        let before = probe(sur);
        assert!(!sur.load_state(blob), "blob must be refused");
        assert_eq!(probe(sur), before, "a refused blob must not touch the model");
    }

    /// Offsets in the state blob: the scale follows magic and version,
    /// then the tensor count, then the first tensor's length and values.
    const SCALE: usize = 8;
    const COUNT: usize = 16;
    const FIRST_VALUE: usize = 24;

    /// `blob` in the version-1 layout: the tensors without the scale.
    fn as_version_1(blob: &[u8]) -> Vec<u8> {
        let mut v1 = blob[..SCALE].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&blob[COUNT..]);
        v1
    }

    /// `blob` claiming `u32::MAX` tensors.
    fn with_huge_count(mut blob: Vec<u8>) -> Vec<u8> {
        blob[COUNT..COUNT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        blob
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let mut a = tiny(42);
        a.scale = 0.5;
        let before = probe(&mut a);
        let blob = a.save_state().unwrap();
        let mut b = tiny(7); // different init and scale
        assert_ne!(probe(&mut b), before);
        assert!(b.load_state(&blob));
        assert_eq!(probe(&mut b), before);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = tiny(1).save_state().unwrap();
        blob[0] ^= 0xFF;
        assert_refused(&mut tiny(2), &blob);
    }

    #[test]
    fn truncation_rejected_without_partial_load() {
        let blob = tiny(1).save_state().unwrap();
        assert_refused(&mut tiny(2), &blob[..blob.len() / 2]);
    }

    #[test]
    fn wrong_architecture_rejected() {
        let blob = tiny(1).save_state().unwrap();
        let mut bigger = VitSurrogate::new(
            VitConfig { embed_dim: 32, ..tiny(1).model.config().clone() },
            12.0,
            1e-3,
            2,
        );
        assert!(!bigger.load_state(&blob));
    }

    #[test]
    fn nan_weights_rejected_without_partial_load() {
        let blob = tiny(1).save_state().unwrap();
        let mut weight = blob.clone();
        weight[FIRST_VALUE..FIRST_VALUE + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        assert_refused(&mut tiny(2), &weight);
        let mut scale = blob;
        scale[SCALE..SCALE + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_refused(&mut tiny(2), &scale);
    }

    /// Blobs of another version are refused, among them a real version-1
    /// blob (tensors without the scale in front).
    #[test]
    fn version_checked() {
        let blob = tiny(1).save_state().unwrap();
        assert_refused(&mut tiny(2), &as_version_1(&blob));
        let mut v99 = blob;
        v99[4] = 99;
        assert_refused(&mut tiny(2), &v99);
    }

    /// A corrupt tensor count is checked against the network before
    /// anything is allocated for it.
    #[test]
    fn huge_tensor_count_is_refused() {
        let blob = with_huge_count(tiny(1).save_state().unwrap());
        assert_refused(&mut tiny(2), &blob);
    }

    /// Pretrain, run killed at cycle 2, then resume from the checkpoint's
    /// bytes into a freshly built, unpretrained surrogate: the series is
    /// the uninterrupted run's bit for bit. A blob the surrogate refuses
    /// surfaces as `ModelStateRejected`.
    #[test]
    fn resume_into_a_fresh_surrogate_is_bitwise() {
        use crate::cycle::{run_cycles, Run, SingleProcess};
        use crate::osse::{nature_run, OsseConfig};
        use crate::resilience::{Checkpoint, CheckpointError, FaultPlan, HealthPolicy};
        use crate::traits::Analysis;
        use crate::OsseError;

        let cfg = OsseConfig {
            params: SqgParams { n: 8, ..Default::default() },
            cycles: 4,
            obs_sigma: 0.005,
            ens_size: 4,
            ic_sigma: 0.01,
            spinup_steps: 30,
            seed: 11,
            ..Default::default()
        };
        let nr = nature_run(&cfg);
        let ensf = Analysis::ensf(ensf::EnsfConfig { n_steps: 10, seed: 3, ..Default::default() });
        let pretrained = || {
            let pairs = VitSurrogate::generate_training_data(&cfg.params, 12.0, 4, 10, 3);
            let mut sur = tiny(5);
            sur.pretrain(&pairs, 2);
            sur
        };
        let health = Some(HealthPolicy::for_obs_sigma(cfg.obs_sigma));
        let run = Run { health, ..Run::new("ref", cfg.clone(), ensf) };
        let drive = |run: &Run, model: &mut VitSurrogate, resume| {
            run_cycles(run, &nr, model, &mut SingleProcess, resume)
        };
        let full = drive(&run, &mut pretrained(), None).unwrap();
        let kill = FaultPlan { kill_after: Some(2), ..FaultPlan::none() };
        let killed = drive(&Run { faults: kill, ..run.clone() }, &mut pretrained(), None).unwrap();
        assert!(killed.interrupted);
        let ck = Checkpoint::from_bytes(&killed.checkpoint.to_bytes()).unwrap();
        let resume = |ck: Checkpoint| drive(&run, &mut tiny(77), Some(ck));

        let resumed = resume(ck.clone()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&resumed.series.rmse), bits(&full.series.rmse));
        assert_eq!(bits(&resumed.series.final_mean), bits(&full.series.final_mean));

        let blob = ck.model_state.clone().unwrap();
        for bad in [as_version_1(&blob), with_huge_count(blob)] {
            let err = resume(Checkpoint { model_state: Some(bad), ..ck.clone() }).unwrap_err();
            assert_eq!(err, OsseError::Checkpoint(CheckpointError::ModelStateRejected));
        }
    }

    /// A checkpoint carrying a surrogate blob, as the fuzz target, and the
    /// offset of the blob in it.
    fn checkpoint_with_surrogate() -> (Vec<u8>, usize) {
        use crate::resilience::{Checkpoint, LoopState, RecoveryCounters};
        let mut sur = tiny(7);
        sur.scale = 0.5;
        let members: Vec<Vec<f64>> =
            (0..3).map(|m| (0..128).map(|i| ((i + 7 * m) as f64 * 0.1).sin()).collect()).collect();
        let ensemble = stats::Ensemble::from_members(&members);
        let blob = sur.save_state().unwrap();
        let blob_len = blob.len();
        let bytes = Checkpoint {
            cycle: 1,
            state: LoopState::Healthy,
            scheme_epoch: 1,
            scheme_seed: 9,
            prev_mean: ensemble.mean(),
            ensemble,
            hours: vec![12.0],
            rmse: vec![0.1],
            spread: vec![0.2],
            counters: RecoveryCounters::default(),
            model_state: Some(blob),
        }
        .to_bytes();
        let blob_at = bytes.len() - blob_len;
        (bytes, blob_at)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// No input aborts a resume: every strict prefix is rejected, and a
        /// flip of any byte — header bytes included — either fails cleanly
        /// or yields an all-finite checkpoint whose surrogate blob is
        /// refused with the model untouched or loads finite weights. A
        /// third of the flips land in the checkpoint's 49-byte header and
        /// a third in the blob's 24-byte header, which uniform positions
        /// would almost never hit.
        #[test]
        fn damaged_checkpoint_never_aborts_a_resume(
            cut in 0.0f64..1.0,
            region in 0usize..3,
            pos in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            use crate::resilience::Checkpoint;
            let (full, blob_at) = checkpoint_with_surrogate();
            let cut = (cut * full.len() as f64) as usize;
            prop_assert!(Checkpoint::from_bytes(&full[..cut]).is_err());

            let (start, len) = [(0, 49), (blob_at, FIRST_VALUE), (0, full.len())][region];
            let mut raw = full;
            raw[start + (pos * len as f64) as usize] ^= flip;
            if let Ok(ck) = Checkpoint::from_bytes(&raw) {
                let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
                prop_assert!(finite(ck.ensemble.as_slice()) && finite(&ck.prev_mean));
                prop_assert!(finite(&ck.hours) && finite(&ck.rmse) && finite(&ck.spread));
                if let Some(blob) = ck.model_state {
                    let mut sur = tiny(99);
                    let before = probe(&mut sur);
                    if sur.load_state(&blob) {
                        let mut weights_finite = sur.scale.is_finite();
                        sur.model.visit_params(&mut |p| {
                            weights_finite &= p.value.iter().all(|w| w.is_finite());
                        });
                        prop_assert!(weights_finite);
                    } else {
                        prop_assert_eq!(probe(&mut sur), before);
                    }
                }
            }
        }
    }
}

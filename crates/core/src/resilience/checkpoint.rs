//! Binary checkpoint/restore of full cycling state.
//!
//! A [`Checkpoint`] captures everything the cycle loop needs to resume
//! *bit-identically* after a crash: the analysis ensemble, the analysis
//! scheme's RNG position (epoch + current seed — enough to regenerate every
//! SDE noise stream), the verification series so far, the supervisor's
//! health state and counters, and an optional opaque forecast-model blob
//! (the ViT surrogate's online-adapted weights). The format follows
//! `sqg::io`: little-endian, magic + version framing, and deserialization
//! that rejects truncated or non-finite payloads instead of propagating
//! garbage into a restarted run.

use super::supervisor::{LoopState, RecoveryCounters};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use stats::Ensemble;

const MAGIC: u32 = 0x5351_474B; // "SQGK"
const VERSION: u32 = 1;

/// Complete cycling state at a cycle boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Number of fully completed cycles (resume starts at this cycle).
    pub cycle: usize,
    /// Supervisor health state at the boundary.
    pub state: LoopState,
    /// Analysis-scheme epoch (e.g. the EnSF internal cycle counter).
    pub scheme_epoch: u64,
    /// Analysis-scheme seed *at the boundary* (retries reseed permanently,
    /// so this can differ from the configured seed).
    pub scheme_seed: u64,
    /// The analysis ensemble.
    pub ensemble: Ensemble,
    /// Previous analysis mean (the online-feedback channel input).
    pub prev_mean: Vec<f64>,
    /// Simulated hours of each completed cycle.
    pub hours: Vec<f64>,
    /// Analysis RMSE of each completed cycle.
    pub rmse: Vec<f64>,
    /// Ensemble spread of each completed cycle.
    pub spread: Vec<f64>,
    /// Accumulated recovery counters.
    pub counters: RecoveryCounters,
    /// Opaque forecast-model state (`ForecastModel::save_state`), if the
    /// model provides one.
    pub model_state: Option<Vec<u8>>,
}

impl Checkpoint {
    /// Serializes to a byte buffer.
    pub fn to_bytes(&self) -> Bytes {
        let members = self.ensemble.members();
        let dim = self.ensemble.dim();
        let mut buf = BytesMut::with_capacity(
            128 + (members * dim + dim + 3 * self.hours.len()) * 8
                + self.model_state.as_ref().map_or(0, Vec::len),
        );
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(self.cycle as u64);
        buf.put_u8(self.state as u8);
        buf.put_u64_le(self.scheme_epoch);
        buf.put_u64_le(self.scheme_seed);
        buf.put_u64_le(members as u64);
        buf.put_u64_le(dim as u64);
        for &v in self.ensemble.as_slice() {
            buf.put_f64_le(v);
        }
        for &v in &self.prev_mean {
            buf.put_f64_le(v);
        }
        buf.put_u64_le(self.hours.len() as u64);
        for series in [&self.hours, &self.rmse, &self.spread] {
            for &v in series.iter() {
                buf.put_f64_le(v);
            }
        }
        for c in self.counters.as_array() {
            buf.put_u64_le(c);
        }
        match &self.model_state {
            Some(blob) => {
                buf.put_u8(1);
                buf.put_u64_le(blob.len() as u64);
                buf.put_slice(blob);
            }
            None => buf.put_u8(0),
        }
        buf.freeze()
    }

    /// Deserializes from a byte buffer, validating framing and finiteness.
    pub fn from_bytes(bytes: &Bytes) -> Result<Self, CheckpointError> {
        let mut buf = bytes.clone();
        if buf.remaining() < 49 {
            return Err(CheckpointError::Truncated);
        }
        if buf.get_u32_le() != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let cycle = buf.get_u64_le() as usize;
        let state = LoopState::from_u8(buf.get_u8()).ok_or(CheckpointError::BadHeader)?;
        let scheme_epoch = buf.get_u64_le();
        let scheme_seed = buf.get_u64_le();
        let members = buf.get_u64_le() as usize;
        let dim = buf.get_u64_le() as usize;
        if members == 0 || dim == 0 {
            return Err(CheckpointError::BadHeader);
        }
        let ens_vals = read_finite(&mut buf, members.saturating_mul(dim), "ensemble")?;
        let mut ensemble = Ensemble::zeros(members, dim);
        ensemble.as_mut_slice().copy_from_slice(&ens_vals);
        let prev_mean = read_finite(&mut buf, dim, "prev_mean")?;
        if buf.remaining() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let series_len = buf.get_u64_le() as usize;
        if series_len < cycle {
            // Fewer series points than completed cycles: inconsistent.
            return Err(CheckpointError::BadHeader);
        }
        let hours = read_finite(&mut buf, series_len, "hours")?;
        let rmse = read_finite(&mut buf, series_len, "rmse")?;
        let spread = read_finite(&mut buf, series_len, "spread")?;
        if buf.remaining() < RecoveryCounters::FIELDS * 8 + 1 {
            return Err(CheckpointError::Truncated);
        }
        let mut raw = [0u64; RecoveryCounters::FIELDS];
        for c in raw.iter_mut() {
            *c = buf.get_u64_le();
        }
        let counters = RecoveryCounters::from_array(raw);
        let model_state = match buf.get_u8() {
            0 => None,
            1 => {
                if buf.remaining() < 8 {
                    return Err(CheckpointError::Truncated);
                }
                let len = buf.get_u64_le() as usize;
                if buf.remaining() < len {
                    return Err(CheckpointError::Truncated);
                }
                let mut blob = vec![0u8; len];
                buf.copy_to_slice(&mut blob);
                Some(blob)
            }
            _ => return Err(CheckpointError::BadHeader),
        };
        Ok(Checkpoint {
            cycle,
            state,
            scheme_epoch,
            scheme_seed,
            ensemble,
            prev_mean,
            hours,
            rmse,
            spread,
            counters,
            model_state,
        })
    }

    /// Writes the checkpoint to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.to_bytes())
            .map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Reads and validates a checkpoint from a file.
    pub fn load(path: &std::path::Path) -> Result<Self, CheckpointError> {
        let data = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Self::from_bytes(&Bytes::from(data))
    }
}

/// Reads `count` little-endian f64s, rejecting truncation and non-finite
/// values (a corrupt checkpoint must never seed a resumed run).
fn read_finite(
    buf: &mut Bytes,
    count: usize,
    field: &'static str,
) -> Result<Vec<f64>, CheckpointError> {
    if buf.remaining() < count.saturating_mul(8) {
        return Err(CheckpointError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let v = buf.get_f64_le();
        if !v.is_finite() {
            return Err(CheckpointError::NonFinite { field });
        }
        out.push(v);
    }
    Ok(out)
}

/// Why a checkpoint could not be written or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Buffer shorter than its framing promises.
    Truncated,
    /// Wrong magic number.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// Nonsensical header fields (zero dimensions, unknown state byte…).
    BadHeader,
    /// A float payload carries NaN/inf values.
    NonFinite {
        /// Which payload section was corrupt.
        field: &'static str,
    },
    /// The forecast model refused the stored model-state blob.
    ModelStateRejected,
    /// Filesystem failure while reading or writing.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadHeader => write!(f, "inconsistent checkpoint header"),
            CheckpointError::NonFinite { field } => {
                write!(f, "checkpoint {field} contains non-finite values")
            }
            CheckpointError::ModelStateRejected => {
                write!(f, "forecast model rejected the checkpointed model state")
            }
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ensemble = Ensemble::zeros(3, 4);
        for (i, v) in ensemble.as_mut_slice().iter_mut().enumerate() {
            *v = i as f64 * 0.25 - 1.0;
        }
        Checkpoint {
            cycle: 2,
            state: LoopState::Recovering,
            scheme_epoch: 2,
            scheme_seed: 0xDEAD_BEEF,
            ensemble,
            prev_mean: vec![0.1, -0.2, 0.3, -0.4],
            hours: vec![12.0, 24.0],
            rmse: vec![0.5, 0.4],
            spread: vec![0.3, 0.25],
            counters: RecoveryCounters {
                quarantined_members: 1,
                reinflations: 2,
                degraded_cycles: 3,
                analysis_retries: 4,
                analysis_fallbacks: 5,
                divergence_flags: 6,
                stale_obs_discarded: 7,
            },
            model_state: Some(vec![9, 8, 7, 6]),
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let ck = sample();
        let restored = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(restored, ck);

        let mut no_model = sample();
        no_model.model_state = None;
        assert_eq!(Checkpoint::from_bytes(&no_model.to_bytes()).unwrap(), no_model);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sqg_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle.ckpt");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let full = sample().to_bytes();
        for cut in 0..full.len() {
            let partial = Bytes::from(full[..cut].to_vec());
            assert!(
                Checkpoint::from_bytes(&partial).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn corrupt_payloads_rejected() {
        let mut raw = sample().to_bytes().to_vec();
        raw[0] ^= 0xFF;
        assert_eq!(
            Checkpoint::from_bytes(&Bytes::from(raw)).unwrap_err(),
            CheckpointError::BadMagic
        );

        let mut nan = sample().to_bytes().to_vec();
        // First ensemble value sits right after the 49-byte header.
        nan[49..57].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&Bytes::from(nan)).unwrap_err(),
            CheckpointError::NonFinite { field: "ensemble" }
        );

        let mut bad_state = sample().to_bytes().to_vec();
        bad_state[16] = 9; // state byte follows magic/version/cycle.
        assert_eq!(
            Checkpoint::from_bytes(&Bytes::from(bad_state)).unwrap_err(),
            CheckpointError::BadHeader
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Checkpoint::load(std::path::Path::new("/nonexistent/x.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}

//! Binary checkpoint/restore of full cycling state.
//!
//! A [`Checkpoint`] captures everything the cycle loop needs to resume
//! *bit-identically* after a crash: the analysis ensemble, the analysis
//! scheme's RNG position (epoch + current seed — enough to regenerate every
//! SDE noise stream), the verification series so far, the supervisor's
//! health state and counters, and an optional opaque forecast-model blob
//! (the ViT surrogate's online-adapted weights and normalisation).
//!
//! `Writer` and `Reader` are the workspace's only binary encoder and
//! decoder; the surrogate's blob goes through them too. The reader is the
//! one place the format's rules are enforced: a magic + version header,
//! little-endian fields, every length checked against the bytes that
//! remain *before* anything is allocated, finite float arrays and no
//! trailing bytes — so a damaged file is rejected with a typed error
//! instead of seeding, or aborting, a restarted run.

use super::supervisor::{LoopState, RecoveryCounters};
use stats::Ensemble;

const MAGIC: u32 = 0x5351_474B; // "SQGK"
const VERSION: u32 = 1;

/// Little-endian encoder behind a magic + version header.
pub(crate) struct Writer(Vec<u8>);

impl Writer {
    pub(crate) fn new(magic: u32, version: u32) -> Self {
        let mut w = Writer(Vec::new());
        w.u32(magic);
        w.u32(version);
        w
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// Decoder for what `Writer` wrote. Every read fails with
/// [`CheckpointError::Truncated`] rather than run past the end.
pub(crate) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// Opens `buf` after checking its header against `magic` and `version`.
    pub(crate) fn new(buf: &'a [u8], magic: u32, version: u32) -> Result<Self, CheckpointError> {
        let mut r = Reader(buf);
        if r.u32()? != magic {
            return Err(CheckpointError::BadMagic);
        }
        match r.u32()? {
            v if v == version => Ok(r),
            v => Err(CheckpointError::BadVersion(v)),
        }
    }

    /// The next `len` bytes.
    pub(crate) fn bytes(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        if len > self.0.len() {
            return Err(CheckpointError::Truncated);
        }
        let (head, tail) = self.0.split_at(len);
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` count or index; one that does not fit a `usize` cannot
    /// describe bytes that are there.
    pub(crate) fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)
    }

    /// `count` f32s, all finite (`field` names the section on failure).
    pub(crate) fn f32s(
        &mut self,
        count: usize,
        field: &'static str,
    ) -> Result<Vec<f32>, CheckpointError> {
        self.finite(count, field, f32::from_le_bytes, f32::is_finite)
    }

    /// `count` f64s, all finite (`field` names the section on failure).
    pub(crate) fn f64s(
        &mut self,
        count: usize,
        field: &'static str,
    ) -> Result<Vec<f64>, CheckpointError> {
        self.finite(count, field, f64::from_le_bytes, f64::is_finite)
    }

    fn finite<T, const N: usize>(
        &mut self,
        count: usize,
        field: &'static str,
        decode: fn([u8; N]) -> T,
        is_finite: fn(T) -> bool,
    ) -> Result<Vec<T>, CheckpointError>
    where
        T: Copy,
    {
        // The byte count is checked against the buffer before the output
        // is allocated, so a corrupt count cannot request a huge vector.
        let raw = self.bytes(count.checked_mul(N).ok_or(CheckpointError::Truncated)?)?;
        raw.chunks_exact(N)
            .map(|chunk| {
                let mut a = [0u8; N];
                a.copy_from_slice(chunk);
                let v = decode(a);
                if is_finite(v) {
                    Ok(v)
                } else {
                    Err(CheckpointError::NonFinite { field })
                }
            })
            .collect()
    }

    /// Ends the read; bytes past the last field mean the framing lied.
    pub(crate) fn finish(self) -> Result<(), CheckpointError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::BadHeader)
        }
    }
}

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
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC, VERSION);
        w.u64(self.cycle as u64);
        w.u8(self.state as u8);
        w.u64(self.scheme_epoch);
        w.u64(self.scheme_seed);
        w.u64(self.ensemble.members() as u64);
        w.u64(self.ensemble.dim() as u64);
        w.f64s(self.ensemble.as_slice());
        w.f64s(&self.prev_mean);
        w.u64(self.hours.len() as u64);
        for series in [&self.hours, &self.rmse, &self.spread] {
            w.f64s(series);
        }
        for c in self.counters.as_array() {
            w.u64(c);
        }
        match &self.model_state {
            Some(blob) => {
                w.u8(1);
                w.u64(blob.len() as u64);
                w.bytes(blob);
            }
            None => w.u8(0),
        }
        w.finish()
    }

    /// Deserializes from a byte buffer, validating framing and finiteness.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes, MAGIC, VERSION)?;
        let cycle = r.usize()?;
        let state = LoopState::from_u8(r.u8()?).ok_or(CheckpointError::BadHeader)?;
        let scheme_epoch = r.u64()?;
        let scheme_seed = r.u64()?;
        let members = r.usize()?;
        let dim = r.usize()?;
        if members == 0 || dim == 0 {
            return Err(CheckpointError::BadHeader);
        }
        let ens_vals = r.f64s(members.saturating_mul(dim), "ensemble")?;
        let mut ensemble = Ensemble::zeros(members, dim);
        ensemble.as_mut_slice().copy_from_slice(&ens_vals);
        let prev_mean = r.f64s(dim, "prev_mean")?;
        let series_len = r.usize()?;
        if series_len != cycle {
            // One series point per completed cycle, no more and no fewer.
            return Err(CheckpointError::BadHeader);
        }
        let hours = r.f64s(series_len, "hours")?;
        let rmse = r.f64s(series_len, "rmse")?;
        let spread = r.f64s(series_len, "spread")?;
        let mut raw = [0u64; RecoveryCounters::FIELDS];
        for c in raw.iter_mut() {
            *c = r.u64()?;
        }
        let counters = RecoveryCounters::from_array(raw);
        let model_state = match r.u8()? {
            0 => None,
            1 => {
                let len = r.usize()?;
                Some(r.bytes(len)?.to_vec())
            }
            _ => return Err(CheckpointError::BadHeader),
        };
        r.finish()?;
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
        Self::from_bytes(&data)
    }
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
    /// Nonsensical header fields or framing (zero dimensions, unknown
    /// state byte, trailing bytes…).
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
            assert!(
                Checkpoint::from_bytes(&full[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn corrupt_payloads_rejected() {
        let mut raw = sample().to_bytes();
        raw[0] ^= 0xFF;
        assert_eq!(
            Checkpoint::from_bytes(&raw).unwrap_err(),
            CheckpointError::BadMagic
        );

        let mut nan = sample().to_bytes();
        // First ensemble value sits right after the 49-byte header.
        nan[49..57].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&nan).unwrap_err(),
            CheckpointError::NonFinite { field: "ensemble" }
        );

        let mut bad_state = sample().to_bytes();
        bad_state[16] = 9; // state byte follows magic/version/cycle.
        assert_eq!(
            Checkpoint::from_bytes(&bad_state).unwrap_err(),
            CheckpointError::BadHeader
        );

        let mut trailing = sample().to_bytes();
        trailing.push(0);
        assert_eq!(Checkpoint::from_bytes(&trailing).unwrap_err(), CheckpointError::BadHeader);
    }

    /// A series one point longer (or shorter) than the completed cycles is
    /// refused, however well framed: a resume would verify against it.
    #[test]
    fn series_must_match_the_cycle_count() {
        for len in [1, 3] {
            let mut ck = sample();
            ck.hours = vec![12.0; len];
            ck.rmse = vec![0.5; len];
            ck.spread = vec![0.3; len];
            let err = Checkpoint::from_bytes(&ck.to_bytes()).unwrap_err();
            assert_eq!(err, CheckpointError::BadHeader, "{len} points for 2 cycles");
        }
    }

    /// Version-1 files written by an earlier build of the encoder: the
    /// writer reproduces them byte for byte and the reader reads them back.
    #[test]
    fn version_1_layout_is_pinned() {
        let with_model: &[u8] = include_bytes!("../../tests/fixtures/checkpoint_v1.bin");
        let without: &[u8] = include_bytes!("../../tests/fixtures/checkpoint_v1_no_model.bin");
        let mut no_model = sample();
        no_model.model_state = None;
        for (ck, pinned) in [(sample(), with_model), (no_model, without)] {
            assert_eq!(ck.to_bytes(), pinned);
            assert_eq!(Checkpoint::from_bytes(pinned).unwrap(), ck);
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Checkpoint::load(std::path::Path::new("/nonexistent/x.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}

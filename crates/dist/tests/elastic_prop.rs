//! Property test for the elastic checkpoint contract: a checkpoint
//! written by a run at `R` ranks restores **bit-identically** into a run
//! at any other rank count `R' ∈ 1..=8`.
//!
//! This is the invariant the rejoin protocol leans on — a rejoiner loads a
//! checkpoint written by whatever group survived, and the rank-count
//! invariance of the sharded analysis (see `tests/dist_determinism.rs` at
//! the workspace root) guarantees the resumed trajectory is the one the
//! survivors are computing. Two claims, both checked per case:
//!
//! 1. the checkpoint *file bytes* are identical no matter how many ranks
//!    wrote them, and
//! 2. resuming from it at `R'` ranks reproduces the uninterrupted
//!    reference trajectory bit for bit.

use da_core::cycle::Run;
use da_core::osse::{nature_run, NatureRun, OsseConfig};
use da_core::resilience::{Checkpoint, CheckpointConfig};
use da_core::Analysis;
use dist::{run_sharded, Sharding};
use ensf::EnsfConfig;
use proptest::prelude::*;
use sqg::SqgParams;
use std::sync::{Mutex, OnceLock};

/// Cycles before the checkpoint boundary (`ck.cycle == SPLIT`).
const SPLIT: usize = 2;
/// Total cycles of the resumed experiment.
const TOTAL: usize = 4;

/// Reduced grid (`d = 512`, 8 members), mirroring the elastic tests.
fn elastic_run(cycles: usize) -> Run {
    let osse = OsseConfig {
        params: SqgParams { n: 16, ..Default::default() },
        cycles,
        obs_sigma: 0.005,
        ens_size: 8,
        ic_sigma: 0.01,
        spinup_steps: 40,
        seed: 3,
        ..Default::default()
    };
    let ensf = EnsfConfig { n_steps: 10, seed: 5, ..Default::default() };
    Run::new("elastic-prop", osse, Analysis::ensf(ensf))
}

/// No network model, no stragglers.
fn sharding() -> Sharding {
    Sharding::default()
}

/// The nature run of the full experiment (the prefix runs on its start).
fn nature() -> &'static NatureRun {
    static NATURE: OnceLock<NatureRun> = OnceLock::new();
    NATURE.get_or_init(|| nature_run(&elastic_run(TOTAL).osse))
}

/// `(cycle, mean-bits)` pairs plus the final ensemble bits.
type ReferenceBits = (Vec<(usize, Vec<u64>)>, Vec<u64>);

/// The uninterrupted single-rank reference trajectory, computed once.
fn reference() -> &'static ReferenceBits {
    static REF: OnceLock<ReferenceBits> = OnceLock::new();
    REF.get_or_init(|| {
        let full = run_sharded(&elastic_run(TOTAL), &sharding(), 1, nature(), None).unwrap();
        let means = full
            .cycle_means
            .iter()
            .map(|(c, m)| (*c, m.iter().map(|v| v.to_bits()).collect()))
            .collect();
        let ens = full.run.checkpoint.ensemble.as_slice().iter().map(|v| v.to_bits()).collect();
        (means, ens)
    })
}

/// Checkpoint file bytes from the first case, for cross-`R` comparison.
static FIRST_BYTES: Mutex<Option<Vec<u8>>> = Mutex::new(None);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Write a cycle-2 checkpoint at `r_write` ranks, resume at `r_read`
    /// ranks, and demand the tail matches the uninterrupted reference.
    #[test]
    fn checkpoint_restores_bitwise_across_rank_counts(
        r_write in 1usize..=8,
        r_read in 1usize..=8,
    ) {
        let path = std::env::temp_dir().join(format!(
            "sqg_da_elastic_prop_{}_{r_write}_{r_read}.ckpt",
            std::process::id()
        ));
        let mut prefix = elastic_run(SPLIT);
        prefix.checkpoint = Some(CheckpointConfig { path: path.clone(), every: SPLIT });
        run_sharded(&prefix, &sharding(), r_write, nature(), None).unwrap();

        let bytes = std::fs::read(&path).expect("prefix run wrote the checkpoint");
        let ck = Checkpoint::load(&path).expect("checkpoint parses");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(ck.cycle, SPLIT);

        // Claim 1: the file is byte-identical regardless of who wrote it.
        {
            let mut first = FIRST_BYTES.lock().unwrap_or_else(|e| e.into_inner());
            match first.as_ref() {
                None => *first = Some(bytes),
                Some(expected) => prop_assert_eq!(
                    &bytes,
                    expected,
                    "checkpoint bytes depend on the writing rank count {}",
                    r_write
                ),
            }
        }

        // Claim 2: the resumed tail is bitwise the reference trajectory.
        let resumed =
            run_sharded(&elastic_run(TOTAL), &sharding(), r_read, nature(), Some(&ck)).unwrap();
        let (ref_means, ref_ens) = reference();
        prop_assert_eq!(resumed.cycle_means.len(), TOTAL - SPLIT);
        for (cycle, mean) in &resumed.cycle_means {
            let bits: Vec<u64> = mean.iter().map(|v| v.to_bits()).collect();
            let (_, expected) = ref_means
                .iter()
                .find(|(c, _)| c == cycle)
                .expect("reference covers every resumed cycle");
            prop_assert_eq!(
                &bits,
                expected,
                "cycle {} diverged (written at {}, resumed at {})",
                cycle, r_write, r_read
            );
        }
        let ens_bits: Vec<u64> =
            resumed.run.checkpoint.ensemble.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&ens_bits, ref_ens, "final ensemble diverged");
    }
}

//! Elastic shrink-determinism harness — the acceptance test of the
//! rank-failure recovery work in `crates/dist/src/elastic.rs`.
//!
//! The contract: after a seeded rank kill at cycle `k` in an 8-rank elastic
//! run, every cycle `>= k` (including the redone kill cycle) is **bitwise
//! identical** to a fresh 7-rank run started from the cycle-`k` checkpoint.
//! The shrink must not merely recover — it must land on exactly the
//! trajectory a never-faulted run at the survivor count would produce.
//!
//! The headline comparison runs each side in a re-executed subprocess (one
//! per scenario) so the two trajectories share no process state whatsoever
//! — no RNG pools, no telemetry globals — and compares the fingerprints the
//! children print.
//! An in-process companion test additionally proves the checkpoint written
//! *by the killed run itself* restores bitwise.

use sqg_da::da_core::cycle::{run_cycles, Run, SingleProcess};
use sqg_da::da_core::osse::{nature_run, NatureRun, OsseConfig};
use sqg_da::da_core::resilience::{Checkpoint, CheckpointConfig, FaultPlan, HealthPolicy, RankKill};
use sqg_da::da_core::{Analysis, SqgForecast};
use sqg_da::dist::{run_sharded, ShardedRun, Sharding};
use sqg_da::ensf::EnsfConfig;
use sqg_da::sqg::SqgParams;

/// Cycle during whose analysis the scripted victim dies.
const KILL_CYCLE: usize = 3;

/// Reduced-grid experiment matching `tests/dist_determinism.rs`:
/// `d = 512`, 8 members.
fn elastic_config(cycles: usize) -> (Run, Sharding) {
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
    (Run::new("elastic", osse, Analysis::ensf(ensf)), Sharding::default())
}

/// `run` on `ranks` ranks from `resume`: world rank 0's result.
fn sharded(
    run: &Run,
    sharding: &Sharding,
    ranks: usize,
    nature: &NatureRun,
    resume: Option<&Checkpoint>,
) -> ShardedRun {
    run_sharded(run, sharding, ranks, nature, resume).unwrap()
}

/// FNV-1a over the bit patterns of the analysis means of every cycle
/// `>= from_cycle` plus the final ensemble — any single-bit divergence in
/// the post-kill trajectory flips it.
fn fingerprint_from(result: &ShardedRun, from_cycle: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (cycle, mean) in &result.cycle_means {
        if *cycle >= from_cycle {
            mean.iter().copied().for_each(&mut eat);
        }
    }
    result.run.checkpoint.ensemble.as_slice().iter().copied().for_each(&mut eat);
    h
}

/// Child entry point for the subprocess protocol: inert unless
/// `ELASTIC_DET_CHILD` is set.
///
/// * `ELASTIC_DET_CHILD=kill` — 10-cycle 8-rank elastic run with rank 5
///   killed during cycle 3's analysis (before contributing to its gather);
///   prints the fingerprint of cycles 3.. as the shrunk 7-rank group
///   computed them.
/// * `ELASTIC_DET_CHILD=resume` — reconstructs the cycle-3 checkpoint from
///   the clean 3-cycle prefix (bitwise identical to the killed run's
///   prefix: the kill only lands at cycle 3, and clean-prefix equality is
///   pinned by the elastic unit tests), then runs a fresh **7-rank** run
///   from that checkpoint and prints the same fingerprint.
#[test]
fn elastic_child() {
    let mode = match std::env::var("ELASTIC_DET_CHILD") {
        Ok(m) => m,
        Err(_) => return,
    };
    match mode.as_str() {
        "kill" => {
            let (mut run, sharding) = elastic_config(10);
            run.faults.rank_kills.push(RankKill { cycle: KILL_CYCLE, rank: 5 });
            let result = sharded(&run, &sharding, 8, &nature_run(&run.osse), None);
            assert!(!result.run.interrupted);
            assert_eq!(result.counters.shrinks, 1);
            println!("ELASTIC_FINGERPRINT {:016x}", fingerprint_from(&result, KILL_CYCLE));
        }
        "resume" => {
            let path = std::path::PathBuf::from(
                std::env::var("ELASTIC_DET_CKPT").expect("parent sets ELASTIC_DET_CKPT"),
            );
            let (run, sharding) = elastic_config(10);
            let nature = nature_run(&run.osse);
            let mut prefix = run.clone();
            prefix.osse.cycles = KILL_CYCLE;
            prefix.checkpoint =
                Some(CheckpointConfig { path: path.clone(), every: KILL_CYCLE });
            sharded(&prefix, &sharding, 8, &nature, None);
            let ck = Checkpoint::load(&path).expect("prefix run wrote the checkpoint");
            assert_eq!(ck.cycle, KILL_CYCLE);
            std::fs::remove_file(&path).ok();
            let result = sharded(&run, &sharding, 7, &nature, Some(&ck));
            println!("ELASTIC_FINGERPRINT {:016x}", fingerprint_from(&result, KILL_CYCLE));
        }
        other => panic!("unknown ELASTIC_DET_CHILD mode {other:?}"),
    }
}

/// Runs `elastic_child` in a subprocess in the given mode and returns the
/// fingerprint it printed.
fn child_fingerprint(mode: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let ckpt = std::env::temp_dir()
        .join(format!("sqg_da_elastic_det_{}.ckpt", std::process::id()));
    let out = std::process::Command::new(exe)
        .args(["elastic_child", "--exact", "--nocapture"])
        .env("ELASTIC_DET_CHILD", mode)
        .env("ELASTIC_DET_CKPT", &ckpt)
        .output()
        .expect("spawn test subprocess");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child (mode {mode}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .split("ELASTIC_FINGERPRINT ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no fingerprint in child output:\n{stdout}"))
        .to_string()
}

/// The acceptance criterion, end to end: kill during cycle 3 of an 8-rank
/// run, and cycles 3.. match a fresh 7-rank run from the cycle-3
/// checkpoint, bit for bit, across process boundaries.
#[test]
fn killed_8_rank_run_matches_fresh_7_rank_run_from_checkpoint() {
    assert_eq!(child_fingerprint("kill"), child_fingerprint("resume"));
}

/// In-process companion: the checkpoint written *by the killed run itself*
/// (at the boundary entering the kill cycle) restores bitwise into a fresh
/// run at the survivor count. 4 ranks, kill at cycle 2, `every: 2` with 3
/// cycles writes exactly one checkpoint (`cycle == 2`), so the file the
/// fresh run loads is the killed run's own pre-kill snapshot.
#[test]
fn kill_cycle_checkpoint_from_killed_run_restores_bitwise() {
    let path = std::env::temp_dir()
        .join(format!("sqg_da_elastic_selfck_{}.ckpt", std::process::id()));
    let (clean, sharding) = elastic_config(3);
    let nature = nature_run(&clean.osse);
    let mut run = clean.clone();
    run.faults.rank_kills.push(RankKill { cycle: 2, rank: 3 });
    run.checkpoint = Some(CheckpointConfig { path: path.clone(), every: 2 });
    let killed = sharded(&run, &sharding, 4, &nature, None);
    assert_eq!(killed.group_sizes.last(), Some(&(2, 3)));

    let ck = Checkpoint::load(&path).expect("killed run wrote its cycle-2 checkpoint");
    std::fs::remove_file(&path).ok();
    assert_eq!(ck.cycle, 2, "every: 2 over 3 cycles writes only the cycle-2 boundary");
    let fresh = sharded(&clean, &sharding, 3, &nature, Some(&ck));

    let killed_tail: Vec<&(usize, Vec<f64>)> =
        killed.cycle_means.iter().filter(|(c, _)| *c >= 2).collect();
    let fresh_tail: Vec<&(usize, Vec<f64>)> = fresh.cycle_means.iter().collect();
    assert_eq!(killed_tail.len(), 1);
    for ((ca, a), (cb, b)) in killed_tail.iter().zip(&fresh_tail) {
        assert_eq!(ca, cb);
        let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "post-kill cycle {ca} diverged from the fresh 3-rank run");
    }
    let ensemble = |r: &ShardedRun| r.run.checkpoint.ensemble.as_slice().to_vec();
    assert_eq!(ensemble(&killed), ensemble(&fresh));
}

/// One checkpoint writer and one run description, so checkpoints are
/// portable between the faces of the cycle loop: a supervised serial run
/// killed at cycle 2 resumes on 1 and 2 ranks, and a 1- or 2-rank run's
/// cycle-2 checkpoint resumes serially — all onto the bits of the
/// uninterrupted serial run. The serial and the sharded face are handed
/// the same `Run`.
#[test]
fn checkpoints_are_portable_between_the_serial_and_sharded_faces() {
    let (run, sharding) = elastic_config(5);
    let osse = &run.osse;
    let nature = nature_run(osse);
    let serial = |run: &Run, resume| {
        let mut model = SqgForecast::perfect(osse.params.clone());
        run_cycles(run, &nature, &mut model, &mut SingleProcess, resume).unwrap()
    };
    let health = Some(HealthPolicy::for_obs_sigma(osse.obs_sigma));
    let supervised = Run { health, ..run.clone() };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

    let full = serial(&supervised, None);
    assert_eq!(full.checkpoint.counters.total(), 0, "the reference must be a healthy run");
    let plain = serial(&run, None);
    assert_eq!(bits(&plain.series.rmse), bits(&full.series.rmse), "the same run on both faces");

    // Serial → sharded.
    let kill = FaultPlan { kill_after: Some(2), ..FaultPlan::none() };
    let killed = serial(&Run { faults: kill, ..supervised.clone() }, None);
    assert!(killed.interrupted);
    assert_eq!(killed.checkpoint.cycle, 2);
    for ranks in [1, 2] {
        let sharded = sharded(&run, &sharding, ranks, &nature, Some(&killed.checkpoint));
        assert_eq!(bits(&sharded.run.series.rmse), bits(&full.series.rmse), "{ranks} ranks");
        assert_eq!(bits(&sharded.run.series.spread), bits(&full.series.spread));
        assert_eq!(
            bits(sharded.run.checkpoint.ensemble.as_slice()),
            bits(full.checkpoint.ensemble.as_slice())
        );
    }

    // Sharded → serial.
    let path = std::env::temp_dir()
        .join(format!("sqg_da_elastic_portable_{}.ckpt", std::process::id()));
    let mut prefix = run.clone();
    prefix.osse.cycles = 2;
    prefix.checkpoint = Some(CheckpointConfig { path: path.clone(), every: 2 });
    for ranks in [1, 2] {
        sharded(&prefix, &sharding, ranks, &nature, None);
        let ck = Checkpoint::load(&path).expect("the prefix wrote its checkpoint");
        std::fs::remove_file(&path).ok();
        assert_eq!(ck.cycle, 2);
        let resumed = serial(&supervised, Some(ck));
        assert_eq!(bits(&resumed.series.rmse), bits(&full.series.rmse), "{ranks} ranks");
        assert_eq!(bits(&resumed.series.spread), bits(&full.series.spread));
        assert_eq!(
            bits(resumed.checkpoint.ensemble.as_slice()),
            bits(full.checkpoint.ensemble.as_slice())
        );
    }
}

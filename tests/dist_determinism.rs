//! Cross-rank determinism harness for the distributed cycling runtime —
//! the central test deliverable of the sharded-DA work.
//!
//! The contract (see `crates/dist`): a full OSSE experiment — forecast,
//! observe, particle-sharded EnSF analysis, repeat — is **bitwise identical
//! for any simulated rank count**, and it is the serial driver's
//! experiment bit for bit, on full and partial observation networks alike
//! (both complete a shrunk vector by inpainting). This file proves both at
//! 1/2/4/8 ranks over a 10-cycle experiment.
//!
//! The tests run in-process at whatever SIMD level this CPU dispatches to.
//! That covers every level: `linalg`'s kernels compute the same bits at
//! each one (`linalg::simd`'s level proptest), so a trajectory that is
//! rank-invariant here is rank-invariant, with the same bits, on any CPU.

use sqg_da::da_core::cycle::{run_cycles, run_cycles_with, ProcessGroup, Run, RunResult};
use sqg_da::da_core::osse::{nature_run, MaskKind, NatureRun, ObsOperatorKind, OsseConfig};
use sqg_da::da_core::resilience::{HealthPolicy, LoopState, Rung};
use sqg_da::da_core::{Analysis, AnalysisScheme, SqgForecast};
use sqg_da::dist::{modeled_analysis_secs, run_sharded, ShardedRun, Sharding};
use sqg_da::ensf::{AnalysisMethod, EnsfConfig};
use sqg_da::sqg::SqgParams;
use sqg_da::stats::Ensemble;

/// The reverse-SDE analysis of the experiments below.
fn sde() -> EnsfConfig {
    EnsfConfig { n_steps: 10, seed: 5, ..Default::default() }
}

/// The few-step flow-matching analysis: no per-step noise at all, only
/// each particle's initial draw.
fn flow() -> EnsfConfig {
    EnsfConfig { n_steps: 6, method: AnalysisMethod::FlowMatching, ..sde() }
}

/// Reduced-grid 10-cycle experiment of `ensf`: `d = 512`, 8 members.
fn determinism_run(ensf: EnsfConfig) -> Run {
    let osse = OsseConfig {
        params: SqgParams { n: 16, ..Default::default() },
        cycles: 10,
        obs_sigma: 0.005,
        ens_size: 8,
        ic_sigma: 0.01,
        spinup_steps: 40,
        seed: 3,
        ..Default::default()
    };
    Run::new("determinism", osse, Analysis::ensf(ensf))
}

fn sharded(run: &Run, ranks: usize, nature: &NatureRun) -> ShardedRun {
    run_sharded(run, &Sharding::default(), ranks, nature, None).unwrap()
}

/// FNV-1a over the bit patterns of the full analysis trajectory (per-cycle
/// means plus the final ensemble) — any single-bit divergence flips it.
fn fingerprint(result: &ShardedRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (_, mean) in &result.cycle_means {
        mean.iter().copied().for_each(&mut eat);
    }
    result.run.checkpoint.ensemble.as_slice().iter().copied().for_each(&mut eat);
    h
}

fn assert_rank_invariant(run: Run, label: &str) {
    let nature = nature_run(&run.osse);
    let one = sharded(&run, 1, &nature);
    assert_eq!(one.cycle_means.len(), 10);
    let ensemble_bits = |r: &ShardedRun| -> Vec<u64> {
        r.run.checkpoint.ensemble.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    for ranks in [2usize, 4, 8] {
        let many = sharded(&run, ranks, &nature);
        for ((cycle, a), (_, b)) in one.cycle_means.iter().zip(&many.cycle_means) {
            let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits_a, bits_b,
                "{label}: cycle {cycle} mean diverged at {ranks} ranks"
            );
        }
        let (bits_one, bits_many) = (ensemble_bits(&one), ensemble_bits(&many));
        assert_eq!(bits_one, bits_many, "{label}: final ensemble diverged at {ranks} ranks");
        assert_eq!(fingerprint(&one), fingerprint(&many));
    }
}

#[test]
fn ten_cycle_osse_is_bitwise_rank_invariant_batched() {
    assert_rank_invariant(determinism_run(sde()), "Batched");
}

#[test]
fn ten_cycle_flow_osse_is_bitwise_rank_invariant() {
    assert_rank_invariant(determinism_run(flow()), "FlowMatching");
}

/// The same experiment with a 25 % contiguous sensor outage: the
/// observation vector shrinks to the live sensors, and the analysis bits
/// must stay independent of how particles are dealt to ranks.
fn masked_run() -> Run {
    let mut run = determinism_run(sde());
    run.osse.obs_mask = MaskKind::Block { start: 192, len: 128 };
    run
}

#[test]
fn masked_osse_is_bitwise_rank_invariant_batched() {
    assert_rank_invariant(masked_run(), "Masked/Batched");
}

/// The moving satellite-track outage under the flow analysis: the observed
/// window (and observation length) changes every cycle.
#[test]
fn masked_track_flow_osse_is_bitwise_rank_invariant() {
    let mut run = determinism_run(flow());
    run.osse.obs_mask = MaskKind::Track { width: 256, speed: 40 };
    assert_rank_invariant(run, "Masked/Flow");
}

/// An analysis at a fixed modelled price per call.
struct Priced {
    inner: Box<dyn AnalysisScheme>,
    secs: f64,
}

impl AnalysisScheme for Priced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble {
        self.inner.analyze(forecast, observation)
    }

    fn rng_state(&self) -> (u64, u64) {
        self.inner.rng_state()
    }

    fn set_rng_state(&mut self, epoch: u64, seed: u64) {
        self.inner.set_rng_state(epoch, seed);
    }

    fn modeled_secs(&self) -> Option<f64> {
        Some(self.secs)
    }
}

/// One process that logs every completed cycle's analysis mean.
struct MeanLog(Vec<Vec<f64>>);

impl ProcessGroup for MeanLog {
    fn completed(&mut self, _cycle: usize, mean: &[f64], _analysis_secs: f64) {
        self.0.push(mean.to_vec());
    }
}

/// `run` on the serial face: its result and every cycle's analysis mean.
fn serial(run: &Run, nature: &NatureRun) -> (RunResult, Vec<Vec<f64>>) {
    let mut model = SqgForecast::perfect(run.osse.params.clone());
    let mut means = MeanLog(Vec::new());
    let result = run_cycles(run, nature, &mut model, &mut means, None).unwrap();
    (result, means.0)
}

/// The sharded cycle is not merely rank-invariant: it is the serial loop
/// on the same analysis, bit for bit, at every rank count — one `Run`
/// handed to both faces.
#[test]
fn sharded_cycle_is_the_serial_driver_bitwise() {
    for (ensf, method) in [(sde(), "ReverseSde"), (flow(), "FlowMatching")] {
        let run = determinism_run(ensf);
        let nature = nature_run(&run.osse);
        let (serial, serial_means) = serial(&run, &nature);
        for ranks in [1usize, 2, 4, 8] {
            let sharded = sharded(&run, ranks, &nature);
            let means: Vec<Vec<f64>> = sharded.cycle_means.into_iter().map(|(_, m)| m).collect();
            assert_eq!(
                means, serial_means,
                "{method}: cycle means diverged from the serial driver at {ranks} ranks"
            );
            assert_eq!(
                sharded.run.checkpoint.ensemble.as_slice(),
                serial.checkpoint.ensemble.as_slice(),
                "{method}: final ensemble diverged from the serial driver at {ranks} ranks"
            );
            assert_eq!(sharded.run.series.rmse, serial.series.rmse);
        }
    }
}

/// Three faces, one run: each case's `Run` is built once and handed to the
/// serial loop unsupervised, to the serial loop under a health policy on a
/// healthy run, and to the sharded face at 1 and 2 ranks. They are the
/// same cycle loop with different slots, so they agree **bitwise** on the
/// whole RMSE and spread series, every cycle's analysis mean and the final
/// ensemble — for both transports, a linear and a nonlinear operator, and a
/// full, a blocked-out and a moving-track network. A deadline row hands one
/// `Run` with a budget that the full analysis misses and the reduced
/// fallback fits to the serial face (with and without a health policy) and
/// to the sharded face at 1 and 2 ranks: they take the same rung (the
/// fallback) on every cycle and agree bitwise.
#[test]
fn three_faces_one_run() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let rows = |m: &[Vec<f64>]| m.iter().map(|v| bits(v)).collect::<Vec<_>>();
    let cycle_means =
        |r: ShardedRun| r.cycle_means.into_iter().map(|(_, m)| m).collect::<Vec<_>>();
    for ensf in [sde(), flow()] {
        let method = ensf.method;
        let base = determinism_run(ensf.clone());
        for (operator, mask) in [
            (ObsOperatorKind::Identity, MaskKind::Full),
            (ObsOperatorKind::Arctan { gain: 1.0 }, MaskKind::Full),
            (ObsOperatorKind::Identity, MaskKind::Block { start: 192, len: 128 }),
            (ObsOperatorKind::Identity, MaskKind::Track { width: 256, speed: 40 }),
        ] {
            let mut run = base.clone();
            run.osse.cycles = 4;
            run.osse.obs_operator = operator;
            run.osse.obs_mask = mask;
            let (osse, case) = (&run.osse, format!("{method:?} x {operator:?} x {mask:?}"));
            let nature = nature_run(osse);

            let (plain, plain_means) = serial(&run, &nature);
            let plain_ensemble = &plain.checkpoint.ensemble;

            let health = Some(HealthPolicy::for_obs_sigma(osse.obs_sigma));
            let (sup, sup_means) = serial(&Run { health, ..run.clone() }, &nature);
            assert_eq!(sup.checkpoint.counters.total(), 0, "{case}: the run must be healthy");
            assert_eq!(sup.checkpoint.state, LoopState::Healthy);
            assert_eq!(bits(&sup.series.rmse), bits(&plain.series.rmse), "{case}: supervised rmse");
            assert_eq!(bits(&sup.series.spread), bits(&plain.series.spread), "{case}");
            assert_eq!(rows(&sup_means), rows(&plain_means), "{case}");
            assert_eq!(
                bits(sup.checkpoint.ensemble.as_slice()),
                bits(plain_ensemble.as_slice()),
                "{case}: supervised final ensemble"
            );

            for ranks in [1usize, 2] {
                let sharded = sharded(&run, ranks, &nature);
                let series = &sharded.run.series;
                assert_eq!(bits(&series.rmse), bits(&plain.series.rmse), "{case}@{ranks}r: rmse");
                assert_eq!(bits(&series.spread), bits(&plain.series.spread), "{case}@{ranks}r");
                assert_eq!(
                    bits(sharded.run.checkpoint.ensemble.as_slice()),
                    bits(plain_ensemble.as_slice()),
                    "{case}@{ranks}r: final ensemble"
                );
                assert_eq!(
                    rows(&cycle_means(sharded)),
                    rows(&plain_means),
                    "{case}@{ranks}r: cycle means"
                );
            }
        }

        // The deadline row: the serial schemes priced at one rank.
        let mut run = base.clone();
        run.osse.cycles = 4;
        let osse = &run.osse;
        let (dim, members) = (osse.params.state_dim(), osse.ens_size);
        let (full, reduced) = (ensf.n_steps, ensf.n_steps / 3);
        let secs = |steps, ranks| modeled_analysis_secs(None, dim, members, steps, ranks);
        let budget = 0.5 * (secs(reduced, 1) + secs(full, 2));
        assert!(
            secs(reduced, 2) < budget && secs(reduced, 1) < budget,
            "{method:?}: the reduced analysis must fit at 1 and 2 ranks"
        );
        assert!(
            secs(full, 1) > budget && secs(full, 2) > budget,
            "{method:?}: the full analysis must miss at 1 and 2 ranks"
        );
        let fallback = Analysis::ensf(EnsfConfig { n_steps: reduced, ..ensf.clone() });
        let run = Run { budget: Some(budget), fallback: Some(fallback), ..run.clone() };
        let nature = nature_run(&run.osse);
        let priced_serial = |run: &Run| {
            let priced =
                |a: &Analysis, steps| Priced { inner: a.build(&run.osse), secs: secs(steps, 1) };
            let mut primary = priced(&run.analysis, full);
            let mut fallback = priced(run.fallback.as_ref().unwrap(), reduced);
            let mut model = SqgForecast::perfect(run.osse.params.clone());
            let mut means_log = MeanLog(Vec::new());
            let result = run_cycles_with(
                run, &nature, &mut model, &mut primary, Some(&mut fallback), &mut means_log, None,
            )
            .unwrap();
            (result, means_log.0)
        };
        let (sup, means) = priced_serial(&run);
        let sup_rungs: Vec<Rung> = sup.cycles.iter().map(|c| c.rung).collect();
        assert_eq!(sup_rungs, [Rung::Fallback; 4], "{method:?}: serial rungs");
        // Under a health policy the budget picks the same rungs and bits.
        let health = Some(HealthPolicy::for_obs_sigma(run.osse.obs_sigma));
        let (supervised, supervised_means) = priced_serial(&Run { health, ..run.clone() });
        let rungs: Vec<Rung> = supervised.cycles.iter().map(|c| c.rung).collect();
        assert_eq!(rungs, sup_rungs, "{method:?}: supervised rungs");
        assert_eq!(bits(&supervised.series.rmse), bits(&sup.series.rmse), "{method:?}");
        assert_eq!(rows(&supervised_means), rows(&means), "{method:?}: supervised means");
        for ranks in [1usize, 2] {
            let case = format!("{method:?} deadline@{ranks}r");
            let sharded = sharded(&run, ranks, &nature);
            let rungs: Vec<Rung> = sharded.run.cycles.iter().map(|c| c.rung).collect();
            assert_eq!(rungs, sup_rungs, "{case}: rungs");
            assert_eq!(bits(&sharded.run.series.rmse), bits(&sup.series.rmse), "{case}: rmse");
            assert_eq!(bits(&sharded.run.series.spread), bits(&sup.series.spread), "{case}");
            assert_eq!(
                bits(sharded.run.checkpoint.ensemble.as_slice()),
                bits(sup.checkpoint.ensemble.as_slice()),
                "{case}: final ensemble"
            );
            assert_eq!(rows(&cycle_means(sharded)), rows(&means), "{case}: cycle means");
        }
    }
}

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

use sqg_da::da_core::cycle::{run_cycles, Run, SingleProcess};
use sqg_da::da_core::osse::{nature_run, MaskKind, NatureRun, ObsOperatorKind, OsseConfig};
use sqg_da::da_core::resilience::{HealthPolicy, LoopState, Rung};
use sqg_da::da_core::{AnalysisScheme, Completion, EnsfScheme, SqgForecast};
use sqg_da::dist::{modeled_analysis_secs, run_sharded, ShardedRun, Sharding};
use sqg_da::ensf::{AnalysisMethod, EnsfConfig};
use sqg_da::sqg::SqgParams;
use sqg_da::stats::Ensemble;

/// Reduced-grid 10-cycle experiment: `d = 512`, 8 members.
fn determinism_config() -> (Run, Sharding) {
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
    let ensf = EnsfConfig { n_steps: 10, seed: 5, ..Default::default() };
    (Run::new("determinism", osse), Sharding { ensf, ..Default::default() })
}

/// The same experiment driven by the few-step flow-matching analysis: no
/// per-step noise at all, only each particle's initial draw.
fn flow_determinism_config() -> (Run, Sharding) {
    let (run, mut sharding) = determinism_config();
    sharding.ensf.n_steps = 6;
    sharding.ensf.method = AnalysisMethod::FlowMatching;
    (run, sharding)
}

fn sharded(run: &Run, sharding: &Sharding, ranks: usize, nature: &NatureRun) -> ShardedRun {
    run_sharded(run, sharding, ranks, nature, None).unwrap()
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

fn assert_rank_invariant((run, sharding): (Run, Sharding), label: &str) {
    let nature = nature_run(&run.osse);
    let one = sharded(&run, &sharding, 1, &nature);
    assert_eq!(one.cycle_means.len(), 10);
    let ensemble_bits = |r: &ShardedRun| -> Vec<u64> {
        r.run.checkpoint.ensemble.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    for ranks in [2usize, 4, 8] {
        let many = sharded(&run, &sharding, ranks, &nature);
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
    assert_rank_invariant(determinism_config(), "Batched");
}

#[test]
fn ten_cycle_flow_osse_is_bitwise_rank_invariant() {
    assert_rank_invariant(flow_determinism_config(), "FlowMatching");
}

/// The same experiment with a 25 % contiguous sensor outage: the
/// observation vector shrinks to the live sensors, and the analysis bits
/// must stay independent of how particles are dealt to ranks.
fn masked_config() -> (Run, Sharding) {
    let (mut run, sharding) = determinism_config();
    run.osse.obs_mask = MaskKind::Block { start: 192, len: 128 };
    (run, sharding)
}

#[test]
fn masked_osse_is_bitwise_rank_invariant_batched() {
    assert_rank_invariant(masked_config(), "Masked/Batched");
}

/// The moving satellite-track outage under the flow analysis: the observed
/// window (and observation length) changes every cycle.
#[test]
fn masked_track_flow_osse_is_bitwise_rank_invariant() {
    let (mut run, sharding) = flow_determinism_config();
    run.osse.obs_mask = MaskKind::Track { width: 256, speed: 40 };
    assert_rank_invariant((run, sharding), "Masked/Flow");
}

/// Records what the serial driver's scheme produced each cycle, so the
/// serial experiment exposes the same fingerprint the sharded one does.
struct Recording {
    inner: EnsfScheme,
    cycle_means: Vec<Vec<f64>>,
    last: Option<Ensemble>,
}

impl AnalysisScheme for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble {
        let analysis = self.inner.analyze(forecast, observation);
        self.cycle_means.push(analysis.mean());
        self.last = Some(analysis.clone());
        analysis
    }
}

/// An EnSF scheme at a fixed modelled price per analysis.
struct Priced {
    inner: EnsfScheme,
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

/// The sharded cycle is not merely rank-invariant: it is the serial loop
/// with `EnsfScheme`, bit for bit, at every rank count — one `Run` handed
/// to both faces.
#[test]
fn sharded_cycle_is_the_serial_driver_bitwise() {
    for (run, sharding) in [determinism_config(), flow_determinism_config()] {
        let osse = &run.osse;
        let nature = nature_run(osse);
        let mut model = SqgForecast::perfect(osse.params.clone());
        let mut scheme = Recording {
            inner: EnsfScheme::new(sharding.ensf.clone(), osse.params.state_dim(), osse.obs_sigma),
            cycle_means: Vec::new(),
            last: None,
        };
        let mut one = SingleProcess;
        let series =
            run_cycles(&run, &nature, &mut model, &mut scheme, None, &mut one, None).unwrap().series;
        let serial_ensemble = scheme.last.expect("ten analyses ran");
        for ranks in [1usize, 2, 4, 8] {
            let sharded = sharded(&run, &sharding, ranks, &nature);
            let method = sharding.ensf.method;
            let means: Vec<Vec<f64>> = sharded.cycle_means.into_iter().map(|(_, m)| m).collect();
            assert_eq!(
                means, scheme.cycle_means,
                "{method:?}: cycle means diverged from the serial driver at {ranks} ranks"
            );
            assert_eq!(
                sharded.run.checkpoint.ensemble.as_slice(),
                serial_ensemble.as_slice(),
                "{method:?}: final ensemble diverged from the serial driver at {ranks} ranks"
            );
            assert_eq!(sharded.run.series.rmse, series.rmse);
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
/// `Run` with a budget that the full analysis misses and the reduced one
/// fits to the serial face (with and without a health policy) and to the
/// sharded face at 1 and 2 ranks: they take the same rung (the fallback)
/// on every cycle and agree bitwise.
#[test]
fn three_faces_one_run() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let rows = |m: &[Vec<f64>]| m.iter().map(|v| bits(v)).collect::<Vec<_>>();
    let cycle_means =
        |r: ShardedRun| r.cycle_means.into_iter().map(|(_, m)| m).collect::<Vec<_>>();
    for (base, sharding) in [determinism_config(), flow_determinism_config()] {
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
            let method = sharding.ensf.method;
            let (osse, case) = (&run.osse, format!("{method:?} x {operator:?} x {mask:?}"));
            let nature = nature_run(osse);
            let recording = || Recording {
                inner: EnsfScheme::with_obs(
                    sharding.ensf.clone(),
                    osse.params.state_dim(),
                    osse.obs_spec(),
                    Completion::Inpaint,
                ),
                cycle_means: Vec::new(),
                last: None,
            };
            let serial = |run: &Run, scheme: &mut Recording| {
                let mut model = SqgForecast::perfect(osse.params.clone());
                let mut one = SingleProcess;
                run_cycles(run, &nature, &mut model, scheme, None, &mut one, None).unwrap()
            };

            let mut plain_scheme = recording();
            let plain = serial(&run, &mut plain_scheme).series;
            let plain_ensemble = plain_scheme.last.expect("four analyses ran");

            let mut sup_scheme = recording();
            let health = Some(HealthPolicy::for_obs_sigma(osse.obs_sigma));
            let sup = serial(&Run { health, ..run.clone() }, &mut sup_scheme);
            assert_eq!(sup.checkpoint.counters.total(), 0, "{case}: the run must be healthy");
            assert_eq!(sup.checkpoint.state, LoopState::Healthy);
            assert_eq!(bits(&sup.series.rmse), bits(&plain.rmse), "{case}: supervised rmse");
            assert_eq!(bits(&sup.series.spread), bits(&plain.spread), "{case}: supervised spread");
            assert_eq!(rows(&sup_scheme.cycle_means), rows(&plain_scheme.cycle_means), "{case}");
            assert_eq!(
                bits(sup.checkpoint.ensemble.as_slice()),
                bits(plain_ensemble.as_slice()),
                "{case}: supervised final ensemble"
            );

            for ranks in [1usize, 2] {
                let sharded = sharded(&run, &sharding, ranks, &nature);
                let series = &sharded.run.series;
                assert_eq!(bits(&series.rmse), bits(&plain.rmse), "{case}@{ranks}r: rmse");
                assert_eq!(bits(&series.spread), bits(&plain.spread), "{case}@{ranks}r");
                assert_eq!(
                    bits(sharded.run.checkpoint.ensemble.as_slice()),
                    bits(plain_ensemble.as_slice()),
                    "{case}@{ranks}r: final ensemble"
                );
                assert_eq!(
                    rows(&cycle_means(sharded)),
                    rows(&plain_scheme.cycle_means),
                    "{case}@{ranks}r: cycle means"
                );
            }
        }

        // The deadline row: the serial schemes priced at one rank.
        let mut run = base.clone();
        run.osse.cycles = 4;
        let (osse, method) = (&run.osse, sharding.ensf.method);
        let (dim, members) = (osse.params.state_dim(), osse.ens_size);
        let (full, reduced) = (sharding.ensf.n_steps, sharding.ensf.n_steps / 3);
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
        let priced = |steps| Priced {
            inner: EnsfScheme::with_obs(
                sqg_da::ensf::EnsfConfig { n_steps: steps, ..sharding.ensf.clone() },
                dim,
                osse.obs_spec(),
                Completion::Inpaint,
            ),
            secs: secs(steps, 1),
        };
        let run = Run { budget: Some(budget), ..run.clone() };
        let nature = nature_run(&run.osse);
        let priced_serial = |run: &Run| {
            let (mut primary, mut fallback) = (priced(full), priced(reduced));
            let mut model = SqgForecast::perfect(run.osse.params.clone());
            let mut means_log = MeanLog(Vec::new());
            let result = run_cycles(
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
        let sharding = Sharding { degraded_steps: Some(reduced), ..sharding.clone() };
        for ranks in [1usize, 2] {
            let case = format!("{method:?} deadline@{ranks}r");
            let sharded = sharded(&run, &sharding, ranks, &nature);
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

/// One process that logs every completed cycle's analysis mean.
struct MeanLog(Vec<Vec<f64>>);

impl sqg_da::da_core::cycle::ProcessGroup for MeanLog {
    fn completed(&mut self, _cycle: usize, mean: &[f64], _analysis_secs: f64) {
        self.0.push(mean.to_vec());
    }
}

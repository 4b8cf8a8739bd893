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

use sqg_da::da_core::cycle::{run_cycles, SingleProcess};
use sqg_da::da_core::osse::{nature_run, run_experiment, MaskKind, ObsOperatorKind, OsseConfig};
use sqg_da::da_core::resilience::{
    run_supervised, FaultPlan, HealthPolicy, LoopState, ResilienceConfig, Rung,
};
use sqg_da::da_core::{AnalysisScheme, Completion, EnsfScheme, SqgForecast};
use sqg_da::dist::{
    modeled_analysis_secs, run_elastic_osse, run_osse, DeadlinePolicy, DistCycleConfig,
    DistRunResult, ElasticCycleConfig,
};
use sqg_da::ensf::{AnalysisMethod, EnsfConfig};
use sqg_da::sqg::SqgParams;
use sqg_da::stats::Ensemble;

/// Reduced-grid 10-cycle experiment: `d = 512`, 8 members.
fn determinism_config() -> DistCycleConfig {
    DistCycleConfig {
        osse: OsseConfig {
            params: SqgParams { n: 16, ..Default::default() },
            cycles: 10,
            obs_sigma: 0.005,
            ens_size: 8,
            ic_sigma: 0.01,
            spinup_steps: 40,
            seed: 3,
            ..Default::default()
        },
        ensf: EnsfConfig { n_steps: 10, seed: 5, ..Default::default() },
        ..Default::default()
    }
}

/// The same experiment driven by the few-step flow-matching analysis: no
/// per-step noise at all, only each particle's initial draw.
fn flow_determinism_config() -> DistCycleConfig {
    let mut config = determinism_config();
    config.ensf.n_steps = 6;
    config.ensf.method = AnalysisMethod::FlowMatching;
    config
}

/// FNV-1a over the bit patterns of the full analysis trajectory (per-cycle
/// means plus the final ensemble) — any single-bit divergence flips it.
fn fingerprint(result: &DistRunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for mean in &result.cycle_means {
        mean.iter().copied().for_each(&mut eat);
    }
    result.ensemble.as_slice().iter().copied().for_each(&mut eat);
    h
}

fn assert_rank_invariant(config: &DistCycleConfig, label: &str) {
    let one = run_osse(config, 1).unwrap();
    assert_eq!(one.cycle_means.len(), 10);
    for ranks in [2usize, 4, 8] {
        let many = run_osse(config, ranks).unwrap();
        for (cycle, (a, b)) in one.cycle_means.iter().zip(&many.cycle_means).enumerate() {
            let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits_a, bits_b,
                "{label}: cycle {cycle} mean diverged at {ranks} ranks"
            );
        }
        let bits_one: Vec<u64> = one.ensemble.as_slice().iter().map(|v| v.to_bits()).collect();
        let bits_many: Vec<u64> = many.ensemble.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_one, bits_many, "{label}: final ensemble diverged at {ranks} ranks");
        assert_eq!(fingerprint(&one), fingerprint(&many));
    }
}

#[test]
fn ten_cycle_osse_is_bitwise_rank_invariant_batched() {
    assert_rank_invariant(&determinism_config(), "Batched");
}

#[test]
fn ten_cycle_flow_osse_is_bitwise_rank_invariant() {
    assert_rank_invariant(&flow_determinism_config(), "FlowMatching");
}

/// The same experiment with a 25 % contiguous sensor outage: the
/// observation vector shrinks to the live sensors, and the analysis bits
/// must stay independent of how particles are dealt to ranks.
fn masked_config() -> DistCycleConfig {
    let mut config = determinism_config();
    config.osse.obs_mask = MaskKind::Block { start: 192, len: 128 };
    config
}

#[test]
fn masked_osse_is_bitwise_rank_invariant_batched() {
    assert_rank_invariant(&masked_config(), "Masked/Batched");
}

/// The moving satellite-track outage under the flow analysis: the observed
/// window (and observation length) changes every cycle.
#[test]
fn masked_track_flow_osse_is_bitwise_rank_invariant() {
    let mut config = flow_determinism_config();
    config.osse.obs_mask = MaskKind::Track { width: 256, speed: 40 };
    assert_rank_invariant(&config, "Masked/Flow");
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

/// The sharded cycle is not merely rank-invariant: it is `run_experiment`
/// with `EnsfScheme`, bit for bit, at every rank count.
#[test]
fn sharded_cycle_is_the_serial_driver_bitwise() {
    for config in [determinism_config(), flow_determinism_config()] {
        let osse = &config.osse;
        let mut model = SqgForecast::perfect(osse.params.clone());
        let mut scheme = Recording {
            inner: EnsfScheme::new(config.ensf.clone(), osse.params.state_dim(), osse.obs_sigma),
            cycle_means: Vec::new(),
            last: None,
        };
        let series =
            run_experiment("serial", osse, &nature_run(osse), &mut model, &mut scheme).unwrap();
        let serial_ensemble = scheme.last.expect("ten analyses ran");
        for ranks in [1usize, 2, 4, 8] {
            let sharded = run_osse(&config, ranks).unwrap();
            let method = config.ensf.method;
            assert_eq!(
                sharded.cycle_means, scheme.cycle_means,
                "{method:?}: cycle means diverged from the serial driver at {ranks} ranks"
            );
            assert_eq!(
                sharded.ensemble.as_slice(),
                serial_ensemble.as_slice(),
                "{method:?}: final ensemble diverged from the serial driver at {ranks} ranks"
            );
            assert_eq!(sharded.series.rmse, series.rmse);
        }
    }
}

/// Three faces, one run: the plain face, the supervised face on a healthy
/// run and the sharded face at 1 and 2 ranks are the same cycle loop with
/// different arguments, so they agree **bitwise** on the whole RMSE and
/// spread series, every cycle's analysis mean and the final ensemble — for
/// both transports, a linear and a nonlinear operator, and a full, a
/// blocked-out and a moving-track network. A deadline row holds the
/// supervised face and the sharded face at 1 and 2 ranks to one budget
/// that the full analysis misses and the reduced one fits: they take the
/// same rung (the fallback) on every cycle and agree bitwise.
#[test]
fn three_faces_one_run() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let rows = |m: &[Vec<f64>]| m.iter().map(|v| bits(v)).collect::<Vec<_>>();
    for base in [determinism_config(), flow_determinism_config()] {
        for (operator, mask) in [
            (ObsOperatorKind::Identity, MaskKind::Full),
            (ObsOperatorKind::Arctan { gain: 1.0 }, MaskKind::Full),
            (ObsOperatorKind::Identity, MaskKind::Block { start: 192, len: 128 }),
            (ObsOperatorKind::Identity, MaskKind::Track { width: 256, speed: 40 }),
        ] {
            let mut config = base.clone();
            config.osse.cycles = 4;
            config.osse.obs_operator = operator;
            config.osse.obs_mask = mask;
            let method = config.ensf.method;
            let (osse, case) = (&config.osse, format!("{method:?} x {operator:?} x {mask:?}"));
            let nature = nature_run(osse);
            let recording = || Recording {
                inner: EnsfScheme::with_obs(
                    config.ensf.clone(),
                    osse.params.state_dim(),
                    osse.obs_spec(),
                    Completion::Inpaint,
                ),
                cycle_means: Vec::new(),
                last: None,
            };

            let mut plain_scheme = recording();
            let mut model = SqgForecast::perfect(osse.params.clone());
            let plain = run_experiment("plain", osse, &nature, &mut model, &mut plain_scheme).unwrap();
            let plain_ensemble = plain_scheme.last.expect("four analyses ran");

            let mut sup_scheme = recording();
            let mut model = SqgForecast::perfect(osse.params.clone());
            let res = ResilienceConfig::default();
            let sup =
                run_supervised("sup", osse, &res, &nature, &mut model, &mut sup_scheme, None).unwrap();
            assert_eq!(sup.counters.total(), 0, "{case}: the run must be healthy");
            assert_eq!(sup.final_state, LoopState::Healthy);
            assert_eq!(bits(&sup.series.rmse), bits(&plain.rmse), "{case}: supervised rmse");
            assert_eq!(bits(&sup.series.spread), bits(&plain.spread), "{case}: supervised spread");
            assert_eq!(rows(&sup_scheme.cycle_means), rows(&plain_scheme.cycle_means), "{case}");
            assert_eq!(
                bits(sup.checkpoint.ensemble.as_slice()),
                bits(plain_ensemble.as_slice()),
                "{case}: supervised final ensemble"
            );

            for ranks in [1usize, 2] {
                let sharded = run_osse(&config, ranks).unwrap();
                assert_eq!(bits(&sharded.series.rmse), bits(&plain.rmse), "{case}@{ranks}r: rmse");
                assert_eq!(bits(&sharded.series.spread), bits(&plain.spread), "{case}@{ranks}r");
                assert_eq!(
                    rows(&sharded.cycle_means),
                    rows(&plain_scheme.cycle_means),
                    "{case}@{ranks}r: cycle means"
                );
                assert_eq!(
                    bits(sharded.ensemble.as_slice()),
                    bits(plain_ensemble.as_slice()),
                    "{case}@{ranks}r: final ensemble"
                );
            }
        }

        // The deadline row: the serial schemes priced at one rank.
        let mut config = base.clone();
        config.osse.cycles = 4;
        let (osse, method) = (&config.osse, config.ensf.method);
        let (dim, members) = (osse.params.state_dim(), osse.ens_size);
        let (full, reduced) = (config.ensf.n_steps, config.ensf.n_steps / 3);
        let secs = |steps, ranks| modeled_analysis_secs(&config, dim, members, steps, ranks);
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
                sqg_da::ensf::EnsfConfig { n_steps: steps, ..config.ensf.clone() },
                dim,
                osse.obs_spec(),
                Completion::Inpaint,
            ),
            secs: secs(steps, 1),
        };
        let (mut primary, mut fallback) = (priced(full), priced(reduced));
        let mut model = SqgForecast::perfect(osse.params.clone());
        let mut means: Vec<Vec<f64>> = Vec::new();
        let sup = run_cycles(
            "sup-deadline", osse, &nature_run(osse), &mut model, &mut primary,
            Some(&mut fallback), &FaultPlan::none(),
            Some(&HealthPolicy::for_obs_sigma(osse.obs_sigma)), Some(budget), None,
            &mut SingleProcess, &mut |_, mean, _| means.push(mean.to_vec()), None,
        )
        .unwrap();
        let sup_rungs: Vec<Rung> = sup.cycles.iter().map(|c| c.rung).collect();
        assert_eq!(sup_rungs, [Rung::Fallback; 4], "{method:?}: supervised rungs");
        let elastic = ElasticCycleConfig {
            deadline: Some(DeadlinePolicy { budget_secs: budget, degraded_steps: reduced }),
            ..ElasticCycleConfig::clean(config.clone())
        };
        for ranks in [1usize, 2] {
            let case = format!("{method:?} deadline@{ranks}r");
            let sharded = run_elastic_osse(&elastic, ranks).unwrap();
            let rungs: Vec<Rung> = sharded.cycles.iter().map(|c| c.rung).collect();
            assert_eq!(rungs, sup_rungs, "{case}: rungs");
            assert_eq!(bits(&sharded.series.rmse), bits(&sup.series.rmse), "{case}: rmse");
            assert_eq!(bits(&sharded.series.spread), bits(&sup.series.spread), "{case}");
            let sharded_means: Vec<Vec<f64>> =
                sharded.cycle_means.into_iter().map(|(_, m)| m).collect();
            assert_eq!(rows(&sharded_means), rows(&means), "{case}: cycle means");
            assert_eq!(
                bits(sharded.ensemble.as_slice()),
                bits(sup.checkpoint.ensemble.as_slice()),
                "{case}: final ensemble"
            );
        }
    }
}

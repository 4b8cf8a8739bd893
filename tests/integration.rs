//! Cross-crate integration tests: the full DA workflow assembled from its
//! substrates, exercised end-to-end at small scale.

use sqg_da::da_core::experiments::{pretrain_surrogate, run_comparison, ComparisonConfig};
use sqg_da::da_core::cycle::{run_cycles, Run, SingleProcess};
use sqg_da::da_core::osse::{nature_run, nature_run_with_error, CycleSeries, NatureRun, OsseConfig};
use sqg_da::da_core::{Analysis, ForecastModel, ModelError, ModelErrorConfig, SqgForecast};
use sqg_da::ensf::EnsfConfig;
use sqg_da::letkf::LetkfConfig;
use sqg_da::sqg::SqgParams;

/// The plain run of `analysis` in `cfg` on one process: its series.
fn run_plain(
    label: &str,
    cfg: &OsseConfig,
    nature: &NatureRun,
    model: &mut dyn ForecastModel,
    analysis: Analysis,
) -> CycleSeries {
    let run = Run::new(label, cfg.clone(), analysis);
    run_cycles(&run, nature, model, &mut SingleProcess, None).unwrap().series
}

/// The paper-tuned LETKF: 2000 km cutoff, RTPS 0.3.
fn letkf() -> Analysis {
    Analysis::Letkf(LetkfConfig { cutoff: 2.0e6, rtps_alpha: 0.3 })
}

fn tiny_osse(cycles: usize, seed: u64) -> OsseConfig {
    OsseConfig {
        params: SqgParams { n: 16, ekman: 0.05, ..Default::default() },
        cycles,
        obs_sigma: 0.005,
        ens_size: 10,
        ic_sigma: 0.01,
        spinup_steps: 60,
        seed,
        ..Default::default()
    }
}

/// The paper's central qualitative claim at miniature scale: with an
/// imperfect model, both filters assimilate, and DA beats free runs.
#[test]
fn fig4_shape_miniature() {
    let config = ComparisonConfig::small(10);
    let surrogate = pretrain_surrogate(&config);
    let cmp = run_comparison(&config, surrogate);

    let sqg_free = cmp.get("SQG only").unwrap();
    let vit_free = cmp.get("ViT only").unwrap();
    let letkf = cmp.get("SQG+LETKF").unwrap();
    let ensf = cmp.get("ViT+EnSF").unwrap();

    // Free runs drift toward climatological error; DA stays below them.
    assert!(letkf.steady_rmse() < sqg_free.steady_rmse());
    assert!(ensf.steady_rmse() < vit_free.steady_rmse());

    // Every series is finite and the right length.
    for s in &cmp.series {
        assert_eq!(s.rmse.len(), 10);
        assert!(s.rmse.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert_eq!(s.final_mean.len(), 512);
    }
}

/// EnSF with the *physics* model must track truth through many cycles
/// (filter stability — no divergence).
#[test]
fn ensf_physics_long_cycling_is_stable() {
    let cfg = tiny_osse(20, 17);
    let nr = nature_run(&cfg);
    let mut model = SqgForecast::perfect(cfg.params.clone());
    let ensf = Analysis::ensf(EnsfConfig { n_steps: 25, seed: 2, ..Default::default() });
    let series = run_plain("ensf", &cfg, &nr, &mut model, ensf);
    // Error must not blow up: last-5-cycle average below the climatological
    // scale of the field.
    let tail: f64 = series.rmse[15..].iter().sum::<f64>() / 5.0;
    assert!(
        tail < nr.climatology_sd,
        "EnSF diverged: tail RMSE {tail} vs climatology {}",
        nr.climatology_sd
    );
    // And below the free-run error at the same horizon.
    let mut free_model = SqgForecast::perfect(cfg.params.clone());
    let free_series = run_plain("free", &cfg, &nr, &mut free_model, Analysis::None);
    assert!(series.steady_rmse() < free_series.steady_rmse());
}

/// LETKF with the physics model: same stability bar as EnSF.
#[test]
fn letkf_physics_long_cycling_is_stable() {
    let cfg = tiny_osse(20, 29);
    let nr = nature_run(&cfg);
    let mut model = SqgForecast::perfect(cfg.params.clone());
    let series = run_plain("letkf", &cfg, &nr, &mut model, letkf());
    let tail: f64 = series.rmse[15..].iter().sum::<f64>() / 5.0;
    assert!(tail < nr.climatology_sd, "LETKF diverged: {tail}");
}

/// The paper's robustness claim (Fig. 4): when reality deviates from the
/// forecast model by unexpected stochastic errors, LETKF degrades sharply
/// (its underdispersive ensemble rejects the observations as the errors
/// accumulate) while EnSF keeps tracking at the observation-error level.
#[test]
fn model_error_hurts_letkf_more_than_ensf() {
    let cfg = tiny_osse(16, 31);

    let run_pair = |nature: &sqg_da::da_core::osse::NatureRun| {
        let mut m1 = SqgForecast::perfect(cfg.params.clone());
        let letkf = run_plain("letkf", &cfg, nature, &mut m1, letkf()).steady_rmse();
        let mut m2 = SqgForecast::perfect(cfg.params.clone());
        let ensf = Analysis::ensf(EnsfConfig { n_steps: 25, seed: 4, ..Default::default() });
        let ensf = run_plain("ensf", &cfg, nature, &mut m2, ensf).steady_rmse();
        (letkf, ensf)
    };

    let clean = nature_run(&cfg);
    let noisy = nature_run_with_error(
        &cfg,
        Some(ModelError::new(ModelErrorConfig::default(), 5)),
    );
    let (letkf_clean, ensf_clean) = run_pair(&clean);
    let (letkf_noisy, ensf_noisy) = run_pair(&noisy);

    // Perfect model: comparable skill.
    assert!(letkf_clean < 3.0 * cfg.obs_sigma);
    assert!(ensf_clean < 3.0 * cfg.obs_sigma);
    // Imperfect model: LETKF degrades markedly, EnSF stays near obs error.
    assert!(
        letkf_noisy > 3.0 * letkf_clean,
        "LETKF should degrade under model error: {letkf_clean} -> {letkf_noisy}"
    );
    assert!(
        ensf_noisy < 2.0 * ensf_clean,
        "EnSF should stay stable under model error: {ensf_clean} -> {ensf_noisy}"
    );
    assert!(
        ensf_noisy < letkf_noisy,
        "EnSF ({ensf_noisy}) must beat LETKF ({letkf_noisy}) under model error"
    );
}

/// The whole pipeline is reproducible end to end.
#[test]
fn comparison_is_reproducible() {
    let run = || {
        let config = ComparisonConfig::small(4);
        let surrogate = pretrain_surrogate(&config);
        run_comparison(&config, surrogate)
            .series
            .iter()
            .map(|s| s.rmse.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// EnSF and LETKF interoperate with the same ensemble layout: feeding one
/// filter's analysis into the other as the next forecast basis works.
#[test]
fn filters_can_be_chained() {
    let cfg = tiny_osse(2, 41);
    let nr = nature_run(&cfg);
    let mut model = SqgForecast::perfect(cfg.params.clone());
    let mut ensemble = sqg_da::da_core::osse::initial_ensemble(&cfg, &nr.truth[0]);

    // Cycle 1 with LETKF.
    model.forecast_ensemble(&mut ensemble, 12.0);
    ensemble = letkf().build(&cfg).analyze(&ensemble, &nr.observations[0]);

    // Cycle 2 with EnSF.
    model.forecast_ensemble(&mut ensemble, 12.0);
    let ensf = Analysis::ensf(EnsfConfig { n_steps: 20, seed: 6, ..Default::default() });
    ensemble = ensf.build(&cfg).analyze(&ensemble, &nr.observations[1]);

    let err = sqg_da::stats::metrics::rmse(&ensemble.mean(), &nr.truth[2]);
    assert!(err.is_finite());
    assert!(err < nr.climatology_sd, "chained filters should track truth: {err}");
}

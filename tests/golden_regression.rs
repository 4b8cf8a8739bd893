//! Golden-file regression harness for the two analysis schemes.
//!
//! Runs a reduced-grid OSSE (`n = 16`, `d = 512`, 10 cycles) for EnSF and
//! LETKF and compares the analysis ensemble mean and spread after cycles
//! 1, 5 and 10 against fixtures under `tests/golden/`. A drifting kernel —
//! a reassociated reduction, a changed RNG stream, a sign slip — shows up
//! here as a readable diff (max abs error, first mismatching index) rather
//! than as a silently different RMSE curve.
//!
//! A fixture pins kernels only while the filter it records is tracking the
//! truth: once a run has diverged, round-off in the forecast is amplified
//! to O(1) and the fixture would fail on any change to floating-point
//! order anywhere. The two gain-40 arctan scenarios diverge within a few
//! cycles, so they are pinned before that ([`ENSF_ARCTAN`], [`FLOW_ARCTAN`]),
//! and a non-finite value on either side of a comparison is a failure.
//!
//! The fixtures hold on any CPU: every SIMD level of the `linalg` kernels,
//! the reverse-SDE noise, the FFT and the SQG step's sweeps computes the
//! scalar specification's bits, so the run is the same whichever level
//! this machine dispatches to. The comparison keeps a
//! small tolerance (`GOLDEN_TOL`, default `1e-9` relative) only to absorb
//! libm differences (`exp`, `ln`, `atan`, …) across toolchains and
//! platforms.
//!
//! Regenerate after an *intentional* numerics change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_regression
//! ```

use sqg_da::da_core::osse::{initial_ensemble, nature_run, MaskKind, ObsOperatorKind, OsseConfig};
use sqg_da::da_core::{
    AnalysisScheme, Completion, EnsfScheme, ForecastModel, LetkfScheme, SqgForecast,
};
use sqg_da::ensf::{AnalysisMethod, EnsfConfig};
use sqg_da::letkf::LetkfConfig;
use sqg_da::sqg::SqgParams;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The cycles (1-indexed) whose analysis statistics a fixture pins, and —
/// written into the fixture's header — why, when they are not the standard
/// three.
struct Pins {
    cycles: &'static [usize],
    note: Option<&'static str>,
}

const STANDARD: Pins = Pins { cycles: &[1, 5, 10], note: None };

/// At gain 40 the reverse-SDE filter leaves the attractor at cycle 4 (mean
/// O(7) on a truth of O(1), O(31) by cycle 10). Cycle 3 is the last whose
/// mean a forecast round-off change moves by < 1e-11 relative (measured:
/// 4.7e-12; cycle 4 moves 8e-11, cycle 5 5.5e-10, cycle 10 O(1)).
const ENSF_ARCTAN: Pins = Pins {
    cycles: &[1, 2, 3],
    note: Some(
        "stops at cycle 3: at gain 40 this filter diverges from cycle 4 on (mean O(7) on a \
         truth of O(1)), after which the run amplifies forecast round-off to O(1) and pins no kernel",
    ),
};

/// Flow matching holds until cycle 6 (moves 1.7e-12), is at O(17) on a truth
/// of O(2) by cycle 7 and NaN from cycle 9.
const FLOW_ARCTAN: Pins = Pins {
    cycles: &[1, 3, 6],
    note: Some(
        "stops at cycle 6: at gain 40 this filter diverges from cycle 7 on (mean O(17) on a \
         truth of O(2), NaN from cycle 9), after which the run pins no kernel",
    ),
};

fn osse_config() -> OsseConfig {
    OsseConfig {
        params: SqgParams { n: 16, ..Default::default() },
        cycles: 10,
        obs_sigma: 0.005,
        ens_size: 8,
        ic_sigma: 0.01,
        spinup_steps: 40,
        seed: 3,
        ..Default::default()
    }
}

/// Gain of the standard saturating-observation scenario: deep enough to
/// saturate the SQG state's amplitude range (see the `nonlinear_obs`
/// promotion, ROADMAP item 2).
const ARCTAN_GAIN: f64 = 40.0;

/// The standard nonlinear-observation scenario: the same reduced-grid OSSE
/// observed through componentwise `arctan(40 · x)`.
fn arctan_config() -> OsseConfig {
    OsseConfig { obs_operator: ObsOperatorKind::Arctan { gain: ARCTAN_GAIN }, ..osse_config() }
}

/// `(cycle, analysis mean, analysis spread)` at each checkpoint.
type Trajectory = Vec<(usize, Vec<f64>, f64)>;

/// Runs the OSSE described by `config` with the given scheme up to the last
/// checkpoint, recording the analysis mean and spread at each.
fn run_trajectory(config: &OsseConfig, scheme: &mut dyn AnalysisScheme, pins: &Pins) -> Trajectory {
    let nature = nature_run(config);
    let mut model = SqgForecast::perfect(config.params.clone());
    let mut ensemble = initial_ensemble(config, &nature.truth[0]);
    let mut out = Vec::new();
    for cycle in 0..pins.cycles[pins.cycles.len() - 1] {
        model.forecast_ensemble(&mut ensemble, config.obs_interval_hours);
        ensemble = scheme.analyze(&ensemble, &nature.observations[cycle]);
        if pins.cycles.contains(&(cycle + 1)) {
            out.push((cycle + 1, ensemble.mean(), ensemble.spread()));
        }
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.golden"))
}

fn render(name: &str, note: Option<&str>, traj: &Trajectory) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {name} golden trajectory: reduced SQG OSSE (n=16, d=512)");
    let _ = writeln!(s, "# regenerate: UPDATE_GOLDEN=1 cargo test --test golden_regression");
    if let Some(note) = note {
        let _ = writeln!(s, "# {note}");
    }
    for (cycle, mean, spread) in traj {
        let _ = writeln!(s, "cycle {cycle} spread {spread:.17e}");
        let _ = writeln!(s, "cycle {cycle} mean {}", mean.len());
        for v in mean {
            let _ = writeln!(s, "{v:.17e}");
        }
    }
    s
}

/// Parses a fixture back into a trajectory.
///
/// # Panics
/// Panics with a descriptive message on any malformed line — a corrupted
/// fixture should read as corruption, not as a numerics regression.
fn parse(name: &str, text: &str) -> Trajectory {
    let mut out: Trajectory = Vec::new();
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.starts_with('#'));
    while let Some((ln, line)) = lines.next() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["cycle", c, "spread", v] => {
                let cycle: usize = c.parse().unwrap_or_else(|_| panic!("{name}:{ln}: bad cycle"));
                let spread: f64 = v.parse().unwrap_or_else(|_| panic!("{name}:{ln}: bad spread"));
                out.push((cycle, Vec::new(), spread));
            }
            ["cycle", c, "mean", n] => {
                let cycle: usize = c.parse().unwrap_or_else(|_| panic!("{name}:{ln}: bad cycle"));
                let n: usize = n.parse().unwrap_or_else(|_| panic!("{name}:{ln}: bad length"));
                let entry = out
                    .iter_mut()
                    .find(|(c, ..)| *c == cycle)
                    .unwrap_or_else(|| panic!("{name}:{ln}: mean before spread for cycle {cycle}"));
                for _ in 0..n {
                    let (ln, line) =
                        lines.next().unwrap_or_else(|| panic!("{name}: truncated mean block"));
                    entry.1.push(
                        line.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("{name}:{ln}: bad value {line:?}")),
                    );
                }
            }
            _ => panic!("{name}:{ln}: unrecognized fixture line {line:?}"),
        }
    }
    out
}

fn tolerance() -> f64 {
    std::env::var("GOLDEN_TOL").ok().and_then(|v| v.parse().ok()).unwrap_or(1e-9)
}

/// Compares a vector against its golden values, reporting the max abs
/// error and the first mismatching index on failure. A non-finite value on
/// either side is a mismatch (`NaN > tol` is false, so it must be asked).
fn assert_close(name: &str, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{name}: {what}: length {} != golden {}", got.len(), want.len());
    let tol = tolerance();
    let mut max_err = 0.0f64;
    let mut first_bad = None;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let err = (g - w).abs();
        max_err = max_err.max(err);
        let close = g.is_finite() && w.is_finite() && err <= tol * (1.0 + w.abs());
        if !close && first_bad.is_none() {
            first_bad = Some(i);
        }
    }
    if let Some(i) = first_bad {
        panic!(
            "{name}: {what} drifted from golden fixture:\n  \
             max-abs-err {max_err:.3e} (tol {tol:.1e})\n  \
             first mismatch at index {i}: got {:.17e}, golden {:.17e}\n  \
             if the numerics change was intentional, regenerate with\n  \
             UPDATE_GOLDEN=1 cargo test --test golden_regression",
            got[i], want[i]
        );
    }
}

fn check_against_golden(
    name: &str,
    pins: &Pins,
    config: &OsseConfig,
    scheme: &mut dyn AnalysisScheme,
) {
    let traj = &run_trajectory(config, scheme, pins);
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render(name, pins.note, traj)).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test golden_regression",
            path.display()
        )
    });
    let golden = parse(name, &text);
    assert_eq!(
        golden.iter().map(|(c, ..)| *c).collect::<Vec<_>>(),
        pins.cycles,
        "{name}: fixture checkpoints"
    );
    for ((gc, gmean, gspread), (c, mean, spread)) in golden.iter().zip(traj) {
        assert_eq!(gc, c);
        assert_close(name, &format!("cycle {c} mean"), mean, gmean);
        assert_close(name, &format!("cycle {c} spread"), &[*spread], &[*gspread]);
    }
}

/// The EnSF scheme of every fixture: 10 reverse-SDE steps or 6
/// probability-flow steps, observing what `config`'s nature run emits.
fn ensf_scheme(config: &OsseConfig, method: AnalysisMethod) -> EnsfScheme {
    let n_steps = match method {
        AnalysisMethod::ReverseSde => 10,
        AnalysisMethod::FlowMatching => 6,
    };
    EnsfScheme::with_obs(
        EnsfConfig { n_steps, seed: 5, method, ..Default::default() },
        config.params.state_dim(),
        config.obs_spec(),
        Completion::Inpaint,
    )
}

fn letkf_scheme(config: &OsseConfig) -> LetkfScheme {
    LetkfScheme::with_obs(LetkfConfig::default(), &config.params, config.obs_spec())
}

#[test]
fn ensf_trajectory_matches_golden() {
    let config = osse_config();
    let mut scheme = ensf_scheme(&config, AnalysisMethod::ReverseSde);
    check_against_golden("ensf", &STANDARD, &config, &mut scheme);
}

#[test]
fn letkf_trajectory_matches_golden() {
    let config = osse_config();
    let mut scheme = letkf_scheme(&config);
    check_against_golden("letkf", &STANDARD, &config, &mut scheme);
}

/// Pins the standard nonlinear-observation scenario: EnSF assimilating
/// observations taken through the saturating `arctan(40 · x)` operator.
/// Both the nature run's observation generation and the scheme's
/// observation-space pull are on the fixture's critical path.
#[test]
fn ensf_arctan_trajectory_matches_golden() {
    let config = arctan_config();
    let mut scheme = ensf_scheme(&config, AnalysisMethod::ReverseSde);
    check_against_golden("ensf_arctan", &ENSF_ARCTAN, &config, &mut scheme);
}

/// LETKF through the same saturating `arctan(40 · x)` operator: the
/// members' `H(x_m)` and their mean carry the nonlinearity into the local
/// ensemble-space solves. This filter keeps tracking through cycle 10 (RMSE
/// 0.16 on a truth of O(3)), and a 1e-15 relative change to the first
/// forecast moves the cycle-10 mean by 2e-12 relative, so the standard
/// checkpoints pin it.
#[test]
fn letkf_arctan_trajectory_matches_golden() {
    let config = arctan_config();
    let mut scheme = letkf_scheme(&config);
    check_against_golden("letkf_arctan", &STANDARD, &config, &mut scheme);
}

/// Pins the few-step flow-matching analysis (6-step probability-flow ODE)
/// on the identity-observation OSSE. Unlike the SDE fixtures this
/// trajectory consumes RNG only in the initial Gaussian fills, so any
/// drift here points at the score fold, the DDIM coefficients or the
/// prior-variance guidance — not at a noise-stream change.
#[test]
fn flow_trajectory_matches_golden() {
    let config = osse_config();
    let mut scheme = ensf_scheme(&config, AnalysisMethod::FlowMatching);
    check_against_golden("flow", &STANDARD, &config, &mut scheme);
}

/// The flow-matching scheme through the saturating `arctan(40 · x)`
/// operator: pins the nonlinear-observation guidance (Jacobian-weighted
/// Kalman correction of the denoised estimate) bit-for-bit.
#[test]
fn flow_arctan_trajectory_matches_golden() {
    let config = arctan_config();
    let mut scheme = ensf_scheme(&config, AnalysisMethod::FlowMatching);
    check_against_golden("flow_arctan", &FLOW_ARCTAN, &config, &mut scheme);
}

/// The 25 % contiguous block outage of the scenario library: covers the
/// top quarter of level 0 and the bottom quarter of level 1, so every
/// blinded pixel still has an observed vertical partner. The masked nature
/// run emits *shrunk* observation vectors (one entry per live sensor).
const BLOCK25: MaskKind = MaskKind::Block { start: 192, len: 128 };

/// Pins the inpainting EnSF on the 25 % block outage: the harmonic
/// innovation fill, the observed-component passthrough and the dense
/// assimilation of the completed vector are all on the critical path.
#[test]
fn ensf_mask_block_trajectory_matches_golden() {
    let config = OsseConfig { obs_mask: BLOCK25, ..osse_config() };
    let mut scheme = ensf_scheme(&config, AnalysisMethod::ReverseSde);
    check_against_golden("ensf_mask_block", &STANDARD, &config, &mut scheme);
}

/// The moving satellite-track mask: the observed window (and hence the
/// observation-vector length) changes every cycle, so this fixture pins
/// the cycle-indexed mask resolution end to end.
#[test]
fn ensf_track_trajectory_matches_golden() {
    let track = MaskKind::Track { width: 256, speed: 40 };
    let config = OsseConfig { obs_mask: track, ..osse_config() };
    let mut scheme = ensf_scheme(&config, AnalysisMethod::ReverseSde);
    check_against_golden("ensf_track", &STANDARD, &config, &mut scheme);
}

/// The inpainting variant of the few-step probability-flow analysis on the
/// block outage: same innovation fill, deterministic DDIM transport.
#[test]
fn flow_inpaint_trajectory_matches_golden() {
    let config = OsseConfig { obs_mask: BLOCK25, ..osse_config() };
    let mut scheme = ensf_scheme(&config, AnalysisMethod::FlowMatching);
    check_against_golden("flow_inpaint", &STANDARD, &config, &mut scheme);
}

/// Masked LETKF on the block outage: localization spreads the surviving
/// network's information into the blinded region (the strongest baseline
/// of the scenario study).
#[test]
fn letkf_mask_block_trajectory_matches_golden() {
    let config = OsseConfig { obs_mask: BLOCK25, ..osse_config() };
    let mut scheme = letkf_scheme(&config);
    check_against_golden("letkf_mask_block", &STANDARD, &config, &mut scheme);
}

#[test]
fn fixtures_roundtrip_through_the_parser() {
    let traj: Trajectory =
        vec![(1, vec![0.5, -1.25e-3], 0.125), (5, vec![2.0, 3.0], 0.25), (10, vec![], 0.0)];
    let parsed = parse("roundtrip", &render("roundtrip", Some("a note"), &traj));
    assert_eq!(parsed, traj);
}

#[test]
fn golden_diff_is_readable() {
    // A tampered value must fail with the max-abs-err / first-index report,
    // not an opaque assert.
    let got = vec![1.0, 2.0, 3.0];
    let mut want = got.clone();
    want[1] = 2.5;
    let err = std::panic::catch_unwind(|| assert_close("demo", "cycle 1 mean", &got, &want))
        .expect_err("tampered fixture must fail");
    let msg = err.downcast_ref::<String>().expect("panic carries a message");
    assert!(msg.contains("max-abs-err 5.000e-1"), "unexpected diff: {msg}");
    assert!(msg.contains("first mismatch at index 1"), "unexpected diff: {msg}");
    assert!(msg.contains("UPDATE_GOLDEN=1"), "unexpected diff: {msg}");

    // A non-finite value never compares close, not even to itself.
    for (got, want) in [([f64::NAN], [f64::NAN]), ([1.0], [f64::NAN]), ([f64::INFINITY], [1.0])] {
        let err = std::panic::catch_unwind(|| assert_close("demo", "cycle 1 spread", &got, &want))
            .expect_err("non-finite values must fail");
        let msg = err.downcast_ref::<String>().expect("panic carries a message");
        assert!(msg.contains("first mismatch at index 0"), "unexpected diff: {msg}");
    }
}


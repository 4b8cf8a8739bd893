//! EnSF with highly nonlinear observations on Lorenz-96.
//!
//! The paper's EnSF claims rest on demonstrations (its refs [24], [25])
//! that the score filter tracks high-dimensional chaotic systems observed
//! through strongly nonlinear operators — the regime where Kalman-type
//! updates break. This binary reproduces that demonstration: Lorenz-96
//! (dim 40, F = 8) observed through componentwise `arctan`, EnSF vs a free
//! run, with an identity-observation EnSF as the linear reference.

use da_core::{ForecastModel, Lorenz96, Lorenz96Params};
use ensf::{Ensf, EnsfConfig, ObsOperator, ObsOperatorKind};
use stats::gaussian::standard_normal;
use stats::rng::{member_rng, seeded};
use stats::{metrics, Ensemble};

const DIM: usize = 40;
const MEMBERS: usize = 30;
const CYCLES: usize = 120;
const OBS_SIGMA: f64 = 0.05;
/// Observation cadence [h]: 1.5 h = 0.0125 MTU, the frequent-observation
/// regime of the EnSF references (with saturating observations the filter
/// must re-anchor each component before it drifts out of arctan's
/// sensitive range).
const CYCLE_HOURS: f64 = 1.5;
/// Spread relaxation: 0.9 (the ablation's optimum in this regime; full
/// relaxation lets diffusion samples stray off the L96 attractor basin,
/// which diverges in finite time).
const RELAX: f64 = 0.9;

fn initial_ensemble(truth: &[f64], seed: u64) -> Ensemble {
    let mut ens = Ensemble::zeros(MEMBERS, DIM);
    for m in 0..MEMBERS {
        let mut rng = member_rng(seed, m);
        for (x, t) in ens.member_mut(m).iter_mut().zip(truth) {
            *x = t + 1.0 * standard_normal(&mut rng);
        }
    }
    ens
}

/// Runs a cycling experiment; `analyze` maps (ensemble, truth, rng-stream
/// cycle) to the analysis ensemble.
fn cycle<F>(label: &str, seed: u64, mut analyze: F) -> Vec<f64>
where
    F: FnMut(&Ensemble, &[f64], usize) -> Ensemble,
{
    let mut nature = Lorenz96::new(Lorenz96Params::default());
    let mut truth = nature.spinup(seed, 20.0);
    let mut model = Lorenz96::new(Lorenz96Params::default());
    let mut ens = initial_ensemble(&truth, seed ^ 0xABC);
    let mut series = Vec::with_capacity(CYCLES);
    for c in 0..CYCLES {
        nature.forecast(&mut truth, CYCLE_HOURS);
        model.forecast_ensemble(&mut ens, CYCLE_HOURS);
        ens = analyze(&ens, &truth, c);
        series.push(metrics::rmse(&ens.mean(), &truth));
    }
    let _ = label;
    series
}

fn main() {
    bench::header(
        "Nonlinear observations",
        "EnSF on Lorenz-96 observed through arctan (refs [24], [25])",
    );

    let seed = 42u64;

    // Free run (no DA).
    let free = cycle("free", seed, |ens, _truth, _c| ens.clone());

    // EnSF with componentwise arctan observations.
    let arctan_op = ObsOperator::new(ObsOperatorKind::Arctan { gain: 1.0 }, OBS_SIGMA);
    let mut obs_rng = seeded(seed ^ 0x0B5);
    let mut filter_nl = Ensf::new(EnsfConfig {
        n_steps: 40,
        seed: 1,
        spread_relaxation: RELAX,
        ..Default::default()
    });
    let nonlinear = cycle("ensf-arctan", seed, |ens, truth, _c| {
        let mut y = vec![0.0; DIM];
        arctan_op.apply(truth, &mut y);
        for v in y.iter_mut() {
            *v += OBS_SIGMA * standard_normal(&mut obs_rng);
        }
        filter_nl.analyze(ens, &y, &arctan_op)
    });

    // EnSF with identity observations (linear reference).
    let id_op = ObsOperator::identity(OBS_SIGMA);
    let mut obs_rng2 = seeded(seed ^ 0x0B5);
    let mut filter_id = Ensf::new(EnsfConfig {
        n_steps: 40,
        seed: 2,
        spread_relaxation: RELAX,
        ..Default::default()
    });
    let linear = cycle("ensf-identity", seed, |ens, truth, _c| {
        let y: Vec<f64> = truth
            .iter()
            .map(|t| t + OBS_SIGMA * standard_normal(&mut obs_rng2))
            .collect();
        filter_id.analyze(ens, &y, &id_op)
    });

    println!(
        "{:>6} {:>12} {:>14} {:>14}",
        "cycle", "free run", "EnSF arctan", "EnSF identity"
    );
    for c in (0..CYCLES).step_by(10) {
        println!(
            "{:>6} {:>12.4} {:>14.4} {:>14.4}",
            c + 1,
            free[c],
            nonlinear[c],
            linear[c]
        );
    }

    let tail = |s: &[f64]| s[CYCLES / 2..].iter().sum::<f64>() / (CYCLES / 2) as f64;
    println!("\nsteady RMSE: free {:.3} | EnSF arctan {:.3} | EnSF identity {:.3}", tail(&free), tail(&nonlinear), tail(&linear));
    println!("(L96 climatological sd ~ 3.6)");
    println!("\nshape: the free run drifts toward climatology; EnSF with arctan");
    println!("observations — whose Jacobian vanishes for large |x| — holds the");
    println!("error well below the free run; identity observations of the same");
    println!("precision recover near-perfect tracking (the Kalman-friendly case).");
}

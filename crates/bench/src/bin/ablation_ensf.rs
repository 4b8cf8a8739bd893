//! EnSF design ablations (DESIGN.md §4): damping profile h(t), reverse-SDE
//! step count, score mini-batch size J, and spread relaxation — each swept
//! on a cycling Lorenz-96 twin experiment at the edge of the filter's
//! working envelope (the regime where the prior score and sampling quality
//! actually matter; with the paper's razor-sharp SQG observations the
//! likelihood pull dominates and every variant coincides).
//!
//! The paper fixes h(t) = 1 − t and defers alternatives to future work;
//! this binary runs that exploration.

use da_core::{ForecastModel, Lorenz96, Lorenz96Params};
use ensf::{Damping, DiffusionSchedule, Ensf, EnsfConfig, ObsOperator};
use stats::gaussian::standard_normal;
use stats::rng::{member_rng, seeded};
use stats::{metrics, Ensemble};

const DIM: usize = 40;
const MEMBERS: usize = 20;
const CYCLES: usize = 80;
// At the edge of EnSF's working envelope (the filter needs informative
// observations; see EXPERIMENTS.md): noisy enough that design choices
// differentiate, informative enough that the filter tracks.
const OBS_SIGMA: f64 = 0.1;

/// Cycles EnSF on Lorenz-96 and returns the steady-state (last half) RMSE.
fn run_with(config: EnsfConfig) -> f64 {
    let mut nature = Lorenz96::new(Lorenz96Params::default());
    let mut truth = nature.spinup(11, 20.0);
    let mut model = Lorenz96::new(Lorenz96Params::default());
    let obs = ObsOperator::identity(OBS_SIGMA);
    let mut obs_rng = seeded(config.seed ^ 0x0B5);

    let mut ens = Ensemble::zeros(MEMBERS, DIM);
    for m in 0..MEMBERS {
        let mut rng = member_rng(55, m);
        for (x, t) in ens.member_mut(m).iter_mut().zip(&truth) {
            *x = t + 1.0 * standard_normal(&mut rng);
        }
    }

    let mut filter = Ensf::new(config);
    let mut rmse = Vec::with_capacity(CYCLES);
    for _ in 0..CYCLES {
        nature.forecast(&mut truth, 6.0);
        model.forecast_ensemble(&mut ens, 6.0);
        let y: Vec<f64> = truth
            .iter()
            .map(|t| t + OBS_SIGMA * standard_normal(&mut obs_rng))
            .collect();
        ens = filter.analyze(&ens, &y, &obs);
        rmse.push(metrics::rmse(&ens.mean(), &truth));
    }
    rmse[CYCLES / 2..].iter().sum::<f64>() / (CYCLES / 2) as f64
}

fn main() {
    bench::header("EnSF ablations", "damping / SDE steps / mini-batch / relaxation");
    println!(
        "(Lorenz-96 dim {DIM}, {MEMBERS} members, {CYCLES} cycles, obs sd {OBS_SIGMA}; \
         climatological sd ~3.6; steady-state RMSE)\n"
    );

    println!("damping profile h(t)  [paper: Linear; alternatives = its future work]:");
    for profile in [Damping::Linear, Damping::Quadratic, Damping::Sqrt, Damping::Cosine] {
        let cfg = EnsfConfig {
            n_steps: 30,
            seed: 1,
            schedule: DiffusionSchedule::default().with_damping(profile),
            ..Default::default()
        };
        println!("  {profile:<11?} {:.4}", run_with(cfg));
    }

    println!("\nreverse-SDE steps:");
    for steps in [5usize, 10, 20, 40, 80] {
        let cfg = EnsfConfig { n_steps: steps, seed: 2, ..Default::default() };
        println!("  {steps:>4} steps  {:.4}", run_with(cfg));
    }

    println!("\nscore mini-batch J (of {MEMBERS} members):");
    for j in [5usize, 10, 20] {
        let cfg = EnsfConfig {
            n_steps: 30,
            minibatch: if j < MEMBERS { Some(j) } else { None },
            seed: 3,
            ..Default::default()
        };
        println!("  J = {j:>3}    {:.4}", run_with(cfg));
    }

    println!("\nspread relaxation r:");
    for r in [0.0f64, 0.5, 0.9, 1.0] {
        let cfg =
            EnsfConfig { n_steps: 30, seed: 4, spread_relaxation: r, ..Default::default() };
        println!("  r = {r:<4}   {:.4}", run_with(cfg));
    }
}

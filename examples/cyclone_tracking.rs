//! Tracking a strong vortex through assimilation cycles.
//!
//! Run with:
//! ```sh
//! cargo run --release --example cyclone_tracking
//! ```
//!
//! The paper motivates real-time DA with high-impact phenomena such as
//! tropical cyclones: intense, localized vortices whose position and
//! amplitude are rapidly lost without assimilation. This example seeds a
//! strong warm-core vortex into the SQG flow, cycles EnSF and a free run
//! side by side, and reports how well each tracks the vortex center.

use sqg_da::da_core::{ForecastModel, SqgForecast};
use sqg_da::ensf::{Ensf, EnsfConfig, ObsOperator};
use sqg_da::sqg::{SqgModel, SqgParams, SqgState};
use sqg_da::stats::{gaussian, metrics, rng, Ensemble};

/// Adds a Gaussian warm anomaly ("cyclone") of amplitude `amp` and radius
/// `r` grid cells at `(cx, cy)` on the bottom boundary.
fn seed_vortex(state: &mut [f64], n: usize, cx: f64, cy: f64, amp: f64, r: f64) {
    for iy in 0..n {
        for ix in 0..n {
            // periodic distance to the center
            let dx = (ix as f64 - cx).rem_euclid(n as f64);
            let dx = dx.min(n as f64 - dx);
            let dy = (iy as f64 - cy).rem_euclid(n as f64);
            let dy = dy.min(n as f64 - dy);
            let d2 = dx * dx + dy * dy;
            state[iy * n + ix] += amp * (-d2 / (2.0 * r * r)).exp();
        }
    }
}

/// Location of the bottom-boundary buoyancy maximum (the vortex proxy).
fn vortex_center(state: &[f64], n: usize) -> (usize, usize) {
    let (mut best, mut bx, mut by) = (f64::NEG_INFINITY, 0, 0);
    for iy in 0..n {
        for ix in 0..n {
            let v = state[iy * n + ix];
            if v > best {
                best = v;
                bx = ix;
                by = iy;
            }
        }
    }
    (bx, by)
}

/// Periodic grid distance between two centers.
fn center_distance(a: (usize, usize), b: (usize, usize), n: usize) -> f64 {
    let d = |p: usize, q: usize| {
        let d = (p as isize - q as isize).unsigned_abs();
        d.min(n - d) as f64
    };
    (d(a.0, b.0).powi(2) + d(a.1, b.1).powi(2)).sqrt()
}

fn main() {
    let n = 32;
    let params = SqgParams { n, ..Default::default() };
    let dim = params.state_dim();

    // Nature: turbulent background + a strong vortex.
    let mut nature_model = SqgModel::new(params.clone());
    let mut truth = nature_model.spinup_nature(21, 0.04, 400).to_state_vector();
    seed_vortex(&mut truth, n, 10.0, 12.0, 0.15, 2.5);
    // Re-project through spectral space to keep the state consistent.
    truth = SqgState::from_state_vector(n, &truth).to_state_vector();

    // Ensembles for the DA run and the free run (same ICs).
    let members = 16;
    let ic_sigma = 0.02;
    let mut ensemble = Ensemble::zeros(members, dim);
    for m in 0..members {
        let mut mr = rng::member_rng(5150, m);
        let member = ensemble.member_mut(m);
        for (x, t) in member.iter_mut().zip(&truth) {
            *x = t + ic_sigma * gaussian::standard_normal(&mut mr);
        }
    }
    let mut free_ensemble = ensemble.clone();

    let mut da_model = SqgForecast::perfect(params.clone());
    let mut free_model = SqgForecast::perfect(params.clone());
    let obs_sigma = 0.005;
    let obs_op = ObsOperator::identity(obs_sigma);
    let mut filter = Ensf::new(EnsfConfig { seed: 3, ..Default::default() });
    let mut obs_rng = rng::seeded(777);

    println!("cycle | truth center | EnSF dist | free dist | EnSF rmse | free rmse");
    let cycles = 10;
    let mut final_da_dist = 0.0;
    let mut final_free_dist = 0.0;
    for cycle in 1..=cycles {
        // Truth evolves; vortex advects with the flow.
        let steps = nature_model.steps_per_hours(12.0);
        nature_model.forecast(&mut truth, steps);
        let tc = vortex_center(&truth, n);

        da_model.forecast_ensemble(&mut ensemble, 12.0);
        free_model.forecast_ensemble(&mut free_ensemble, 12.0);

        let y: Vec<f64> = truth
            .iter()
            .map(|&t| t + obs_sigma * gaussian::standard_normal(&mut obs_rng))
            .collect();
        ensemble = filter.analyze(&ensemble, &y, &obs_op);

        let da_mean = ensemble.mean();
        let free_mean = free_ensemble.mean();
        let da_dist = center_distance(vortex_center(&da_mean, n), tc, n);
        let free_dist = center_distance(vortex_center(&free_mean, n), tc, n);
        final_da_dist = da_dist;
        final_free_dist = free_dist;
        println!(
            "{cycle:>5} | ({:>2},{:>2})      | {da_dist:>9.2} | {free_dist:>9.2} | {:>9.5} | {:>9.5}",
            tc.0,
            tc.1,
            metrics::rmse(&da_mean, &truth),
            metrics::rmse(&free_mean, &truth),
        );
    }

    println!(
        "\nfinal vortex position error: EnSF {final_da_dist:.2} cells vs free run {final_free_dist:.2} cells"
    );
    assert!(
        final_da_dist <= final_free_dist,
        "EnSF should track the vortex at least as well as the free run"
    );
}

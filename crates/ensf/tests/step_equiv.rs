//! The batched reverse SDE's window sweep against the same step built from
//! separate public kernels, bit for bit.
//!
//! The reference runs each step as whole-block passes: the prior score
//! ([`BatchedScore::score_block_into`] on `row_sq_norms`: the Gram GEMM and
//! the recombination GEMM over the whole width), the drift (`scale_add` per
//! row), the noise (`add_scaled_normals`), then the damped likelihood pull
//! (`likelihood_score_into` + `axpy` for a constant Jacobian, else the
//! per-element Jacobian branch). The kernel runs each step column window by
//! column window, folding the score, the last three passes, the next step's
//! norms and its Gram block into one sweep over the block; every element
//! must keep its value and every particle stream its final state.

use ensf::{
    reverse_sde_assimilate_batched, time_grid, BatchScratch, BatchedScore, DiffusionSchedule,
    MaskKind, ObsOperator, ObsOperatorKind, ObsSpec,
};
use linalg::gemm::row_sq_norms;
use linalg::vector::{axpy, scale_add};
use rand::rngs::StdRng;
use stats::gaussian::{add_scaled_normals, fill_standard_normal};
use stats::rng::{member_rng, seeded};

/// The step as separate passes over the block, from public kernels.
#[allow(clippy::too_many_arguments)]
fn separate_passes(
    z: &mut [f64],
    schedule: &DiffusionSchedule,
    times: &[f64],
    score: &BatchedScore,
    obs: &ObsOperator,
    y: &[f64],
    rngs: &mut [StdRng],
) {
    let (dim, j, b) = (score.dim(), score.batch_len(), rngs.len());
    let sigma_obs_sq = obs.sigma() * obs.sigma();
    let (mut s, mut w, mut znorm) = (vec![0.0; b * dim], vec![0.0; b * j], vec![0.0; b]);
    let (mut lik, mut jsq) = (vec![0.0; dim], vec![0.0; dim]);
    let damped = |c: f64| {
        if c > 1e-8 {
            (1.0 - (-c).exp()) / c
        } else {
            1.0
        }
    };
    for win in times.windows(2) {
        let (t, t_next) = (win[0], win[1]);
        let dt = t - t_next;
        let sig2 = schedule.sigma_sq(t);
        row_sq_norms(z, b, dim, &mut znorm);
        score.score_block_into(z, b, t, &mut s, &mut w, &znorm);
        let decay = schedule.alpha(t_next) / schedule.alpha(t);
        let noise_amp = if t_next <= 1e-300 {
            0.0
        } else {
            sig2.sqrt() * dt.sqrt()
        };
        let gain = sig2 * schedule.damping(t) * dt;
        for (zrow, srow) in z.chunks_exact_mut(dim).zip(s.chunks_exact(dim)) {
            scale_add(zrow, decay, srow, sig2 * dt);
        }
        if noise_amp != 0.0 {
            add_scaled_normals(z, dim, rngs, noise_amp);
        }
        if gain > 0.0 {
            for zrow in z.chunks_exact_mut(dim) {
                obs.likelihood_score_into(zrow, y, gain, &mut lik);
                if let Some(jc) = obs.constant_jacobian_sq() {
                    axpy(damped(gain * jc / sigma_obs_sq), &lik, zrow);
                } else {
                    obs.jacobian_sq(zrow, &mut jsq);
                    for ((zi, li), ji) in zrow.iter_mut().zip(&lik).zip(&jsq) {
                        *zi += damped(gain * ji / sigma_obs_sq) * li;
                    }
                }
            }
        }
    }
}

fn block(rows: usize, dim: usize, seed: u64) -> Vec<f64> {
    let mut v = vec![0.0; rows * dim];
    fill_standard_normal(&mut seeded(seed), &mut v);
    v
}

/// The operators under test, each with its observation vector: the
/// identity, the saturating arctan, and a partial network's operator with
/// the unobserved block completed from elsewhere (the kernels see only the
/// dense operator and the completed vector).
fn operators(dim: usize) -> Vec<(&'static str, ObsOperator, Vec<f64>)> {
    let y: Vec<f64> = (0..dim).map(|i| 0.3 * (i as f64 * 0.7).sin()).collect();
    let arctan = ObsOperatorKind::Arctan { gain: 1.3 };
    let masked = ObsSpec {
        operator: arctan,
        mask: MaskKind::Block { start: 2, len: 5 },
        sigma: 0.4,
    };
    let mut completed = y.clone();
    for (i, v) in completed.iter_mut().enumerate() {
        if !masked.mask.is_observed(i, dim, 0) {
            *v = -0.1;
        }
    }
    vec![
        ("identity", ObsOperator::identity(0.7), y.clone()),
        ("arctan", ObsOperator::new(arctan, 0.5), y),
        ("masked", masked.operator(), completed),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every block height past two lane groups, dimensions with and without a
/// remainder past the last 8-chunk, each operator, on a grid whose steps
/// are noisy, noise-free and pull-free (a zero-length step has `gain = 0`)
/// and final. With the sweep's 512-column windows, 520 spans a whole window
/// and a ragged one of a single 8-chunk, and 1091 two whole windows and a
/// ragged one with a `dim % 8` tail.
#[test]
fn one_pass_step_is_the_separate_passes_bitwise() {
    let members = 6;
    let sch = DiffusionSchedule::default();
    let mut grids = vec![time_grid(&sch, 3)];
    grids.push(vec![0.7, 0.7, 0.3, 0.0]);
    for dim in [1, 7, 8, 67, 512, 520, 1091] {
        let ens = block(members, dim, dim as u64);
        let batch: Vec<usize> = (0..members).collect();
        let score = BatchedScore::new(&ens, members, dim, sch, &batch);
        for (name, obs, y) in operators(dim) {
            for b in 1..=17 {
                for times in &grids {
                    let start = block(b, dim, 100 + b as u64);
                    let streams: Vec<StdRng> = (0..b).map(|m| member_rng(9, m)).collect();

                    let (mut want, mut want_rngs) = (start.clone(), streams.clone());
                    separate_passes(&mut want, &sch, times, &score, &obs, &y, &mut want_rngs);

                    let (mut got, mut got_rngs) = (start, streams);
                    let mut scratch = BatchScratch::new(b, members, dim);
                    reverse_sde_assimilate_batched(
                        &mut got,
                        &sch,
                        times,
                        &score,
                        &obs,
                        &y,
                        &mut got_rngs,
                        &mut scratch,
                    );
                    let case = format!("{name} b={b} dim={dim} grid={times:?}");
                    assert_eq!(bits(&got), bits(&want), "{case}: values");
                    assert_eq!(got_rngs, want_rngs, "{case}: stream states");
                }
            }
        }
    }
}

/// A grid of one final step draws nothing and still pulls.
#[test]
fn final_step_alone_draws_nothing() {
    let (members, dim, b) = (5, 67, 10);
    let sch = DiffusionSchedule::default();
    let ens = block(members, dim, 3);
    let batch: Vec<usize> = (0..members).collect();
    let score = BatchedScore::new(&ens, members, dim, sch, &batch);
    let times = [0.05, 0.0];
    for (name, obs, y) in operators(dim) {
        let start = block(b, dim, 4);
        let streams: Vec<StdRng> = (0..b).map(|m| member_rng(11, m)).collect();
        let (mut want, mut want_rngs) = (start.clone(), streams.clone());
        separate_passes(&mut want, &sch, &times, &score, &obs, &y, &mut want_rngs);
        let (mut got, mut got_rngs) = (start.clone(), streams.clone());
        let mut scratch = BatchScratch::new(b, members, dim);
        reverse_sde_assimilate_batched(
            &mut got,
            &sch,
            &times,
            &score,
            &obs,
            &y,
            &mut got_rngs,
            &mut scratch,
        );
        assert_eq!(bits(&got), bits(&want), "{name}: values");
        assert_eq!(got_rngs, streams, "{name}: a stream moved");
        assert_ne!(bits(&got), bits(&start), "{name}: the step did nothing");
    }
}

//! State-dimension-sharded EnSF analysis.
//!
//! One analysis integrates the reverse-time SDE exactly like the serial
//! filter ([`ensf::Ensf`]) but with the state dimension cut into fixed
//! tiles ([`ShardPlan`]): each rank holds only its contiguous block of
//! every particle and of the forecast ensemble. Per SDE step the only
//! cross-rank coupling is the softmax normalization of the Monte-Carlo
//! score weights, which needs the full squared distances
//! `‖z_p − α x_j‖² = Σ_tiles ‖z_p − α x_j‖²_tile`. Each rank computes the
//! partials for its tiles ([`ShardKernel::tile_partials`]), an allgather
//! makes every rank's partials visible everywhere, and every rank folds
//! them in ascending tile order ([`ShardKernel::apply_step`]) — identical
//! arithmetic regardless of who owned which tile, hence bitwise identical
//! results for any rank count. Everything else in the step (drift, noise,
//! likelihood pull, spread relaxation) is elementwise or per-variable and
//! needs no communication at all.
//!
//! The per-tile arithmetic is *not* bitwise identical to the serial filter
//! (the serial kernels reduce over the full dimension in one chain; the
//! sharded kernel reassociates at tile boundaries, and draws its SDE noise
//! from per-`(particle, tile)` streams instead of per-particle streams).
//! It is a third kernel with the same reassociation-level agreement the
//! `Reference`/`Batched` pair already share, verified in the tests below.
//!
//! With [`AnalysisMethod::FlowMatching`] the same sharded score machinery
//! drives the deterministic probability-flow (DDIM) update instead of the
//! stochastic step: no per-step noise draws at all, so the rank-invariance
//! argument reduces entirely to the fixed-order tile fold, and the
//! deadline ladder can degrade `n_steps` far more aggressively (the DDIM
//! map is mean-exact at any step count for linear-Gaussian problems).

use crate::shard::ShardPlan;
use crate::DistError;
use ensf::{
    relax_spread, AnalysisMethod, DiffusionSchedule, EnsfConfig, MaskedObs, ObsSpec,
    ObservationOperator, ScoreKernel, TimeGrid,
};
use hpc::mpi::Comm;
use hpc::{collective_with_retry, Collective, RankFault, RetryPolicy, Topology};
use linalg::gemm::{matmul_abt_into, matmul_slices_affine_into, row_sq_norms};
use linalg::vector::{axpy, scale_add};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use stats::gaussian::{fill_standard_normal, NormalSampler};
use stats::rng::{seeded, split_seed};
use stats::softmax::softmax_in_place;
use stats::Ensemble;

/// Simulated-network specification for the distributed runtime: the
/// machine topology plus scripted rank faults, driving
/// [`hpc::collective_with_retry`] for every analysis collective.
///
/// The retry model is a *pure function* of this specification, so every
/// rank evaluates the same retry/shrink/abort decision locally — a failed
/// collective surfaces as the same [`DistError::Collective`] on all ranks
/// with no extra agreement round.
#[derive(Debug, Clone)]
pub struct CommSpec {
    /// Machine topology for the α–β collective cost model.
    pub topo: Topology,
    /// Scripted rank faults (transient retries and ULFM-style shrinks).
    pub faults: Vec<RankFault>,
    /// Retry/backoff policy.
    pub policy: RetryPolicy,
}

impl CommSpec {
    /// A clean Frontier-like network for `ranks` ranks: no faults, default
    /// retry policy.
    pub fn clean(ranks: usize) -> Self {
        CommSpec {
            topo: Topology::frontier(ranks.max(1)),
            faults: Vec::new(),
            policy: RetryPolicy::default(),
        }
    }
}

/// Per-rank accounting of the analysis collectives.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Collectives executed (one allgather per SDE step plus one block
    /// gather per analysis).
    pub collectives: u64,
    /// Total attempts across all modeled collectives (equals
    /// `collectives` when no fault was scripted).
    pub attempts: u64,
    /// Modeled wall time of the collectives (α–β cost model plus retry
    /// backoffs); `0.0` without a [`CommSpec`].
    pub modeled_comm_secs: f64,
    /// Bytes moved through the collectives (payload, per rank).
    pub bytes: u64,
}

/// Geometry of one locally-owned tile.
struct LocalTile {
    /// Global tile index (the fold key).
    global: usize,
    /// Offset of the tile inside the rank's block.
    off: usize,
    /// Tile width in state components.
    len: usize,
}

/// One rank's share of a single sharded EnSF analysis, exposed stepwise so
/// different drivers can interleave the collective exchange differently:
/// the MPI-threaded runtime ([`dist_analyze`]) exchanges through
/// [`Comm::allgather_concat`], while the scaling bench
/// ([`crate::bench::measure_analysis`]) runs all ranks sequentially and
/// times each rank's compute in isolation.
///
/// Protocol per SDE step `t → t_next`:
/// 1. every rank calls [`tile_partials`](Self::tile_partials)`(t)`;
/// 2. the driver concatenates all ranks' partials in rank order (which is
///    ascending-tile order, since ranks own ascending contiguous runs);
/// 3. every rank calls [`apply_step`](Self::apply_step) with the full
///    partial vector.
///
/// After the last step, [`finish`](Self::finish) applies the spread
/// relaxation and returns the rank's analysis block.
pub struct ShardKernel {
    tiles: Vec<LocalTile>,
    n_tiles: usize,
    local_len: usize,
    members: usize,
    batch_len: usize,
    schedule: DiffusionSchedule,
    kernel: ScoreKernel,
    method: AnalysisMethod,
    spread_relaxation: f64,
    /// Forecast mini-batch, per local tile: `J x len` blocks back to back
    /// in batch order (the GEMM `B` operand of each tile).
    x_tiles: Vec<f64>,
    /// Offset of each local tile's block inside `x_tiles`.
    x_off: Vec<usize>,
    /// `‖x_j‖²` per (local tile, batch member) — batched kernel only.
    xnorm: Vec<f64>,
    /// Full forecast block (`M x local_len`) for the spread relaxation.
    f_block: Vec<f64>,
    /// Per-component prior ensemble variance over the score mini-batch
    /// (`local_len`; flow-matching only, empty for the SDE). Per-variable
    /// and batch-ordered, so identical for any rank layout.
    prior_var: Vec<f64>,
    /// Particle block, `P x local_len` row-major.
    z: Vec<f64>,
    /// One RNG per `(particle, local tile)`, indexed `p * n_local + lt`.
    rngs: Vec<StdRng>,
    sampler: NormalSampler,
    /// Each local tile's (possibly empty) run of the observation vector.
    y_tiles: Vec<Vec<f64>>,
    /// Observation operator restricted to each local tile
    /// ([`ObsSpec::operator_on`]: componentwise operators restrict cleanly
    /// to a contiguous block; ones that couple state across tiles would
    /// need an observation-space exchange and are out of scope here).
    ops: Vec<MaskedObs>,
    sigma_obs_sq: f64,
    // Scratch (allocated once; the step loop is allocation-free).
    partials: Vec<f64>,
    weights: Vec<f64>,
    z_tile: Vec<f64>,
    s_tile: Vec<f64>,
    gram: Vec<f64>,
    znorm: Vec<f64>,
    lik: Vec<f64>,
    jsq: Vec<f64>,
    /// Tweedie denoised estimate `x̂` for one (particle, tile) row
    /// (flow-matching only).
    xh: Vec<f64>,
}

/// RNG stream for one `(particle, tile)` pair of one analysis cycle. Keyed
/// by *global* indices so whichever rank owns a tile draws the same
/// numbers — the noise analogue of the tile-fixed reductions.
fn tile_rng(cycle_seed: u64, particle: usize, tile: usize) -> StdRng {
    let particle_seed = split_seed(cycle_seed, 0xD157_0000_u64.wrapping_add(particle as u64));
    seeded(split_seed(particle_seed, tile as u64))
}

impl ShardKernel {
    /// Prepares rank `rank`'s share of one analysis: gathers the local
    /// forecast tiles, derives the replicated mini-batch, and fills the
    /// particle block with the initial `N(0, I)` draw from the tile-keyed
    /// streams.
    ///
    /// `cycle` is the analysis-cycle counter; together with `config.seed`
    /// it pins every RNG stream (the same contract as [`ensf::Ensf`]).
    ///
    /// # Panics
    /// Panics when the forecast dimension or observation length disagrees
    /// with the plan, when `rank` is out of range, or when the filter
    /// configuration is invalid.
    pub fn new(
        plan: &ShardPlan,
        rank: usize,
        config: &EnsfConfig,
        cycle: u64,
        forecast: &Ensemble,
        y: &[f64],
        obs: &ObsSpec,
    ) -> Self {
        config.validate().expect("invalid EnSF configuration");
        assert_eq!(forecast.dim(), plan.dim(), "forecast dimension mismatch");
        assert_eq!(y.len(), obs.obs_len(plan.dim(), cycle), "observation length mismatch");
        assert!(rank < plan.ranks(), "rank {rank} out of range");
        let members = forecast.members();
        assert!(members > 0, "need at least one forecast member");

        let cycle_seed = split_seed(config.seed, cycle.wrapping_add(0x5151));
        // Mini-batch selection: replicated on every rank (same derivation
        // as the serial filter, so it is a pure function of (seed, cycle)).
        let batch: Vec<usize> = match config.minibatch {
            Some(j) if j < members => {
                let mut idx: Vec<usize> = (0..members).collect();
                let mut rng = seeded(split_seed(cycle_seed, 0xBA7C4));
                idx.shuffle(&mut rng);
                idx.truncate(j);
                idx
            }
            _ => (0..members).collect(),
        };
        let batch_len = batch.len();

        let (t0, t1) = plan.rank_tiles(rank);
        let (rank_lo, rank_hi) = plan.rank_range(rank);
        let local_len = rank_hi - rank_lo;
        let mut tiles = Vec::with_capacity(t1 - t0);
        for t in t0..t1 {
            let (lo, hi) = plan.tile_bounds(t);
            tiles.push(LocalTile { global: t, off: lo - rank_lo, len: hi - lo });
        }
        let n_local = tiles.len();
        let tile_max = tiles.iter().map(|t| t.len).max().unwrap_or(0);

        // Gather the mini-batch tiles (GEMM operands) and the full forecast
        // block (relaxation statistics).
        let mut x_tiles = Vec::with_capacity(batch_len * local_len);
        let mut x_off = Vec::with_capacity(n_local);
        for tile in &tiles {
            x_off.push(x_tiles.len());
            for &j in &batch {
                let row = forecast.member(j);
                x_tiles.extend_from_slice(&row[rank_lo + tile.off..rank_lo + tile.off + tile.len]);
            }
        }
        let mut xnorm = vec![0.0; n_local * batch_len];
        if config.kernel == ScoreKernel::Batched {
            for (lt, tile) in tiles.iter().enumerate() {
                row_sq_norms(
                    &x_tiles[x_off[lt]..x_off[lt] + batch_len * tile.len],
                    batch_len,
                    tile.len,
                    &mut xnorm[lt * batch_len..(lt + 1) * batch_len],
                );
            }
        }
        let mut f_block = Vec::with_capacity(members * local_len);
        for m in 0..members {
            f_block.extend_from_slice(&forecast.member(m)[rank_lo..rank_hi]);
        }
        // Flow-matching guidance needs the per-component prior variance of
        // the score mini-batch. `f_block` is member-major over the local
        // block, so the serial helper applies directly; per-variable
        // statistics in batch order are bitwise rank-layout invariant.
        let prior_var = match config.method {
            AnalysisMethod::FlowMatching => {
                let mut var = ensf::batch_variance(&f_block, members, local_len, &batch);
                // Variance shrinkage is applied per *global* tile — the
                // tile grid is fixed by the plan regardless of how tiles
                // are grouped onto ranks, so the smoothed gains stay
                // bitwise rank-layout invariant (the serial path smooths
                // over the whole state instead; the two agree only
                // statistically, like everything else across the runtimes).
                for tile in &tiles {
                    ensf::smooth_variance(
                        &mut var[tile.off..tile.off + tile.len],
                        config.variance_smoothing,
                    );
                }
                var
            }
            AnalysisMethod::ReverseSde => Vec::new(),
        };

        // Initial N(0, I) fill from the tile-keyed streams, in (particle,
        // tile) order; each stream is consumed only by its own tile, so the
        // fill order does not couple streams.
        let mut z = vec![0.0; members * local_len];
        let mut rngs = Vec::with_capacity(members * n_local);
        for p in 0..members {
            for tile in &tiles {
                let mut rng = tile_rng(cycle_seed, p, tile.global);
                let row = &mut z[p * local_len + tile.off..p * local_len + tile.off + tile.len];
                fill_standard_normal(&mut rng, row);
                rngs.push(rng);
            }
        }

        // Per-tile observation slices and operators: pure functions of the
        // *global* tile bounds and the cycle, so whichever rank owns a tile
        // builds identical bits.
        let (y_tiles, ops): (Vec<Vec<f64>>, Vec<MaskedObs>) = tiles
            .iter()
            .map(|tile| {
                let lo = rank_lo + tile.off;
                let (op, slots) = obs.operator_on(lo..lo + tile.len, plan.dim(), cycle);
                (y[slots].to_vec(), op)
            })
            .unzip();

        ShardKernel {
            n_tiles: plan.n_tiles(),
            local_len,
            members,
            batch_len,
            schedule: config.schedule,
            kernel: config.kernel,
            method: config.method,
            spread_relaxation: config.spread_relaxation,
            x_tiles,
            x_off,
            xnorm,
            f_block,
            prior_var,
            z,
            rngs,
            sampler: NormalSampler::new(),
            y_tiles,
            ops,
            sigma_obs_sq: obs.sigma * obs.sigma,
            partials: vec![0.0; n_local * members * batch_len],
            weights: vec![0.0; members * batch_len],
            z_tile: vec![0.0; members * tile_max],
            s_tile: vec![0.0; members * tile_max],
            gram: vec![0.0; members * batch_len],
            znorm: vec![0.0; members],
            lik: vec![0.0; tile_max],
            jsq: vec![0.0; tile_max],
            xh: vec![0.0; tile_max],
            tiles,
        }
    }

    /// Length of one tile's partial block (`P · J`): the full exchanged
    /// vector has `n_tiles` such blocks in ascending tile order.
    pub fn partials_per_tile(&self) -> usize {
        self.members * self.batch_len
    }

    /// Total number of tiles in the plan (all ranks).
    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    /// Number of state components this rank owns.
    pub fn local_len(&self) -> usize {
        self.local_len
    }

    /// Computes this rank's per-tile squared-distance partials
    /// `‖z_p − α_t x_j‖²_tile` at pseudo-time `t`, tile-major
    /// (`partials[lt · P·J + p · J + j]`, local tiles ascending). The
    /// arithmetic depends only on the tile contents, never on the rank
    /// layout.
    // lint: no_alloc
    pub fn tile_partials(&mut self, t: f64) -> &[f64] {
        let (p_n, j_n) = (self.members, self.batch_len);
        let alpha = self.schedule.alpha(t);
        let alpha_sq = alpha * alpha;
        for (lt, tile) in self.tiles.iter().enumerate() {
            let x_block = &self.x_tiles[self.x_off[lt]..self.x_off[lt] + j_n * tile.len];
            let out = &mut self.partials[lt * p_n * j_n..(lt + 1) * p_n * j_n];
            match self.kernel {
                ScoreKernel::Reference => {
                    // Per-(particle, member) strided squared distance — the
                    // ScoreEstimator inner loop restricted to one tile.
                    for p in 0..p_n {
                        let zrow = &self.z
                            [p * self.local_len + tile.off..p * self.local_len + tile.off + tile.len];
                        for (slot, xj) in
                            out[p * j_n..(p + 1) * j_n].iter_mut().zip(x_block.chunks_exact(tile.len))
                        {
                            let mut d2 = 0.0;
                            for (zi, xi) in zrow.iter().zip(xj) {
                                let d = zi - alpha * xi;
                                d2 += d * d;
                            }
                            *slot = d2;
                        }
                    }
                }
                ScoreKernel::Batched => {
                    // Norm expansion with the Gram block as a per-tile GEMM:
                    // tile-fixed shapes make the reduction order a function
                    // of the tile alone.
                    let zt = &mut self.z_tile[..p_n * tile.len];
                    for p in 0..p_n {
                        zt[p * tile.len..(p + 1) * tile.len].copy_from_slice(
                            &self.z[p * self.local_len + tile.off
                                ..p * self.local_len + tile.off + tile.len],
                        );
                    }
                    row_sq_norms(zt, p_n, tile.len, &mut self.znorm);
                    matmul_abt_into(zt, x_block, p_n, j_n, tile.len, &mut self.gram);
                    let xn = &self.xnorm[lt * j_n..(lt + 1) * j_n];
                    for p in 0..p_n {
                        let zn = self.znorm[p];
                        for ((slot, &g), &x2) in out[p * j_n..(p + 1) * j_n]
                            .iter_mut()
                            .zip(&self.gram[p * j_n..(p + 1) * j_n])
                            .zip(xn)
                        {
                            *slot = zn - 2.0 * alpha * g + alpha_sq * x2;
                        }
                    }
                }
            }
        }
        &self.partials
    }

    /// Applies one reverse-SDE step `t → t_next` to the local block, given
    /// the concatenated partials of **all** tiles (ascending tile order,
    /// `n_tiles · P · J` values).
    ///
    /// The fold over tiles and the softmax run replicated on every rank;
    /// drift, noise and the damped likelihood pull touch only local tiles.
    ///
    /// # Panics
    /// Panics when `all_partials` has the wrong length.
    // lint: no_alloc
    pub fn apply_step(&mut self, t: f64, t_next: f64, all_partials: &[f64]) {
        let (p_n, j_n) = (self.members, self.batch_len);
        let pj = p_n * j_n;
        assert_eq!(all_partials.len(), self.n_tiles * pj, "partial vector length mismatch");

        // Fold the per-tile distance partials in ascending tile order —
        // one fixed-order chain per (particle, member) slot, replicated on
        // every rank — then the softmax weights.
        let beta_sq = self.schedule.beta_sq(t);
        let inv_2b2 = 0.5 / beta_sq;
        let inv_b2 = 1.0 / beta_sq;
        let alpha = self.schedule.alpha(t);
        self.weights.fill(0.0);
        for tile_block in all_partials.chunks_exact(pj) {
            for (w, &d2) in self.weights.iter_mut().zip(tile_block) {
                *w += d2;
            }
        }
        for row in self.weights.chunks_exact_mut(j_n) {
            for w in row.iter_mut() {
                *w = -*w * inv_2b2;
            }
            softmax_in_place(row);
        }

        let dt = t - t_next;
        let sig2 = self.schedule.sigma_sq(t);
        let sig = sig2.sqrt();
        let decay = self.schedule.alpha(t_next) / self.schedule.alpha(t);
        let is_final = t_next <= 1e-300;
        let noise_amp = if is_final { 0.0 } else { sig * dt.sqrt() };
        let gain = sig2 * self.schedule.damping(t) * dt;
        // Constant-Jacobian operators admit one damping factor per step
        // (same arithmetic as the per-element branch, so the two paths
        // agree bitwise for such operators). The spec decides it, so every
        // tile's operator gives the same answer.
        let jac_const = self.ops.first().and_then(|op| op.constant_jacobian_sq());
        let hoisted_factor = jac_const.map(|jc| {
            let c = gain * jc / self.sigma_obs_sq;
            if c > 1e-8 {
                (1.0 - (-c).exp()) / c
            } else {
                1.0
            }
        });
        // Flow-matching (DDIM) coefficients; unused by the SDE branch.
        let alpha_next = self.schedule.alpha(t_next);
        let beta_ratio = (self.schedule.beta_sq(t_next) / beta_sq).sqrt();

        let n_local = self.tiles.len();
        for (lt, tile) in self.tiles.iter().enumerate() {
            let x_block = &self.x_tiles[self.x_off[lt]..self.x_off[lt] + j_n * tile.len];
            let s_t = &mut self.s_tile[..p_n * tile.len];
            match self.kernel {
                ScoreKernel::Reference => {
                    // Weighted conditional scores, member-outer like the
                    // ScoreEstimator: s_i = Σ_j w_j (α x_ji − z_i)/β².
                    s_t.fill(0.0);
                    for p in 0..p_n {
                        let zrow = &self.z
                            [p * self.local_len + tile.off..p * self.local_len + tile.off + tile.len];
                        let srow = &mut s_t[p * tile.len..(p + 1) * tile.len];
                        for (&wj, xj) in self.weights[p * j_n..(p + 1) * j_n]
                            .iter()
                            .zip(x_block.chunks_exact(tile.len))
                        {
                            if wj == 0.0 { // lint: allow(float-exact-compare, reason="exact-zero softmax weight skip is a bitwise no-op")
                                continue;
                            }
                            for ((si, zi), xi) in srow.iter_mut().zip(zrow).zip(xj) {
                                *si -= wj * (zi - alpha * xi) * inv_b2;
                            }
                        }
                    }
                }
                ScoreKernel::Batched => {
                    // S = (α W X − Z)/β² as the second per-tile GEMM with
                    // the affine part fused into the store.
                    let zt = &mut self.z_tile[..p_n * tile.len];
                    for p in 0..p_n {
                        zt[p * tile.len..(p + 1) * tile.len].copy_from_slice(
                            &self.z[p * self.local_len + tile.off
                                ..p * self.local_len + tile.off + tile.len],
                        );
                    }
                    matmul_slices_affine_into(
                        &self.weights,
                        x_block,
                        p_n,
                        j_n,
                        tile.len,
                        zt,
                        alpha * inv_b2,
                        -inv_b2,
                        s_t,
                    );
                }
            }

            let y_tile: &[f64] = &self.y_tiles[lt];
            let op = &self.ops[lt];
            if self.method == AnalysisMethod::FlowMatching {
                // Deterministic probability-flow update, mirroring the
                // serial `flow_step` elementwise: Tweedie denoising, the
                // per-component Kalman correction of `x̂`, and the DDIM map
                // to the next grid point. Consumes no RNG, so the
                // tile-keyed streams stay at their post-fill state and the
                // rank-invariance contract reduces to the score fold above.
                let v_tile = &self.prior_var[tile.off..tile.off + tile.len];
                let r = self.sigma_obs_sq;
                for p in 0..p_n {
                    let zrow = &mut self.z
                        [p * self.local_len + tile.off..p * self.local_len + tile.off + tile.len];
                    let srow = &s_t[p * tile.len..(p + 1) * tile.len];
                    let xh = &mut self.xh[..tile.len];
                    for ((xi, zi), si) in xh.iter_mut().zip(&*zrow).zip(srow) {
                        *xi = (*zi + beta_sq * si) / alpha;
                    }
                    let lik = &mut self.lik[..tile.len];
                    op.likelihood_score_into(xh, y_tile, 1.0, lik);
                    let jsq = &mut self.jsq[..tile.len];
                    op.jacobian_sq(xh, jsq);
                    for (k, (zi, xi)) in zrow.iter_mut().zip(&mut *xh).enumerate() {
                        let v = v_tile[k];
                        let vh = v * beta_sq / (alpha * alpha * v + beta_sq);
                        *xi += vh * lik[k] * r / (r + jsq[k] * vh);
                        *zi = alpha_next * *xi + beta_ratio * (*zi - alpha * *xi);
                    }
                }
                continue;
            }
            for p in 0..p_n {
                let zrow = &mut self.z
                    [p * self.local_len + tile.off..p * self.local_len + tile.off + tile.len];
                let srow = &s_t[p * tile.len..(p + 1) * tile.len];
                // Drift: each kernel mirrors its serial counterpart's
                // association (they agree to reassociation, not bitwise).
                match self.kernel {
                    ScoreKernel::Batched => scale_add(zrow, decay, srow, sig2 * dt),
                    ScoreKernel::Reference => {
                        for (zi, si) in zrow.iter_mut().zip(srow) {
                            *zi = decay * *zi + sig2 * si * dt;
                        }
                    }
                }
                // Noise from the (particle, tile) stream: one draw per
                // component per non-final step, the serial consumption
                // contract transplanted to tile streams.
                if noise_amp != 0.0 { // lint: allow(float-exact-compare, reason="noise_amp is set to exactly 0.0 on the final step")
                    let rng = &mut self.rngs[p * n_local + lt];
                    for zi in zrow.iter_mut() {
                        *zi += noise_amp * self.sampler.sample(rng);
                    }
                }
                // Damped likelihood pull, elementwise on the tile.
                if gain > 0.0 {
                    let lik = &mut self.lik[..tile.len];
                    op.likelihood_score_into(zrow, y_tile, gain, lik);
                    if let Some(factor) = hoisted_factor {
                        axpy(factor, lik, zrow);
                    } else {
                        let jsq = &mut self.jsq[..tile.len];
                        op.jacobian_sq(zrow, jsq);
                        for ((zi, li), ji) in zrow.iter_mut().zip(&*lik).zip(&*jsq) {
                            let c = gain * ji / self.sigma_obs_sq;
                            let factor = if c > 1e-8 { (1.0 - (-c).exp()) / c } else { 1.0 };
                            *zi += factor * li;
                        }
                    }
                }
            }
        }
    }

    /// Applies the spread relaxation to the local block and returns it
    /// (`P x local_len` row-major). Relaxation statistics are per-variable,
    /// so the block-local application equals the serial full-state one.
    pub fn finish(self) -> Vec<f64> {
        if self.spread_relaxation > 0.0 && self.local_len > 0 {
            let mut analysis = Ensemble::zeros(self.members, self.local_len);
            analysis.as_mut_slice().copy_from_slice(&self.z);
            let mut forecast = Ensemble::zeros(self.members, self.local_len);
            forecast.as_mut_slice().copy_from_slice(&self.f_block);
            let mut z = self.z;
            relax_spread(&mut analysis, &forecast, self.spread_relaxation);
            z.copy_from_slice(analysis.as_slice());
            z
        } else {
            self.z
        }
    }
}

/// Accounts one modeled collective against `spec` (when present) and
/// updates `stats`. Pure given its arguments: every rank reaches the same
/// `Ok`/`Err` verdict locally.
pub(crate) fn model_collective(
    spec: Option<&CommSpec>,
    stats: &mut CommStats,
    op: Collective,
    ranks: usize,
    bytes: u64,
) -> Result<(), DistError> {
    stats.collectives += 1;
    stats.bytes += bytes;
    match spec {
        None => {
            stats.attempts += 1;
            Ok(())
        }
        Some(spec) => {
            let r = collective_with_retry(&spec.topo, op, ranks, bytes, &spec.faults, &spec.policy)?;
            stats.attempts += u64::from(r.attempts);
            stats.modeled_comm_secs += r.time;
            Ok(())
        }
    }
}

/// Runs one sharded EnSF analysis over the communicator, returning this
/// rank's analysis block (`P x local_len` row-major).
///
/// Per SDE step the ranks exchange their tile partials through
/// [`Comm::try_allgather_concat`]; with a [`CommSpec`] each exchange is
/// also priced (and possibly failed) by the fault-tolerant collective
/// model — a retry-budget exhaustion surfaces as [`DistError::Collective`]
/// on every rank in the same step, and a peer dying mid-exchange as
/// [`DistError::Mpi`] (never a hang).
///
/// # Panics
/// Panics when the plan's rank count disagrees with the communicator size
/// or the inputs disagree with the plan (see [`ShardKernel::new`]).
#[allow(clippy::too_many_arguments)]
pub fn dist_analyze(
    comm: &Comm,
    plan: &ShardPlan,
    config: &EnsfConfig,
    cycle: u64,
    forecast: &Ensemble,
    y: &[f64],
    obs: &ObsSpec,
    spec: Option<&CommSpec>,
    stats: &mut CommStats,
) -> Result<Vec<f64>, DistError> {
    let local = analyze_steps(comm, plan, config, cycle, forecast, y, obs, spec, stats, None)?;
    // INVARIANT: the stepping returns `None` only for a scripted kill.
    Ok(local.expect("no kill was scripted"))
}

/// The stepping behind [`dist_analyze`] and the elastic driver, with the
/// latter's scripted suicide: when `kill_after = Some(n)` this rank
/// registers itself dead after completing `n` partial exchanges (after the
/// last one, i.e. before the caller's reassembly gather, when `n` exceeds
/// the step count) and returns `Ok(None)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze_steps(
    comm: &Comm,
    plan: &ShardPlan,
    config: &EnsfConfig,
    cycle: u64,
    forecast: &Ensemble,
    y: &[f64],
    obs: &ObsSpec,
    spec: Option<&CommSpec>,
    stats: &mut CommStats,
    kill_after: Option<usize>,
) -> Result<Option<Vec<f64>>, DistError> {
    assert_eq!(plan.ranks(), comm.size(), "plan/communicator size mismatch");
    let _span = telemetry::span!("dist.analysis");
    let mut kernel = ShardKernel::new(plan, comm.rank(), config, cycle, forecast, y, obs);
    let times = TimeGrid::LogSpaced.points(&config.schedule, config.n_steps);
    let exchanged_bytes = (kernel.n_tiles() * kernel.partials_per_tile() * 8) as u64;

    for (step, win) in times.windows(2).enumerate() {
        if kill_after == Some(step) {
            comm.kill();
            return Ok(None);
        }
        let partials = kernel.tile_partials(win[0]);
        model_collective(spec, stats, Collective::AllGather, comm.size(), exchanged_bytes)?;
        let full = comm.try_allgather_concat(partials)?;
        kernel.apply_step(win[0], win[1], &full);
    }
    if kill_after.is_some() {
        comm.kill();
        return Ok(None);
    }
    telemetry::counter_add("dist.analyses", 1);
    match config.method {
        AnalysisMethod::ReverseSde => {
            telemetry::counter_add("dist.sde_steps", (times.len() - 1) as u64)
        }
        AnalysisMethod::FlowMatching => {
            telemetry::counter_add("dist.flow_steps", (times.len() - 1) as u64)
        }
    }
    Ok(Some(kernel.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensf::{MaskKind, ObsOperatorKind};
    use hpc::mpi::run_world;
    use stats::rng::member_rng;

    fn gaussian_ensemble(members: usize, dim: usize, seed: u64) -> Ensemble {
        let mut e = Ensemble::zeros(members, dim);
        for m in 0..members {
            let mut rng = member_rng(seed, m);
            fill_standard_normal(&mut rng, e.member_mut(m));
        }
        e
    }

    fn analyze_with_ranks(
        ranks: usize,
        kernel: ScoreKernel,
        tile: usize,
        minibatch: Option<usize>,
    ) -> Vec<f64> {
        let dim = 96;
        let forecast = gaussian_ensemble(6, dim, 11);
        let y = vec![0.25; dim];
        let obs = ObsSpec::identity(0.4);
        let config = EnsfConfig { n_steps: 12, seed: 9, minibatch, kernel, ..Default::default() };
        let plan = ShardPlan::new(dim, tile, ranks);
        let blocks = run_world(ranks, |comm| {
            let mut stats = CommStats::default();
            dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, None, &mut stats).unwrap()
        });
        // Reassemble rank blocks into the member-major full ensemble.
        let mut full = vec![0.0; 6 * dim];
        for (r, block) in blocks.iter().enumerate() {
            let (lo, hi) = plan.rank_range(r);
            for p in 0..6 {
                full[p * dim + lo..p * dim + hi]
                    .copy_from_slice(&block[p * (hi - lo)..(p + 1) * (hi - lo)]);
            }
        }
        full
    }

    #[test]
    fn analysis_is_bitwise_identical_for_any_rank_count() {
        for kernel in [ScoreKernel::Reference, ScoreKernel::Batched] {
            let one = analyze_with_ranks(1, kernel, 16, None);
            for ranks in [2, 3, 4, 6] {
                let many = analyze_with_ranks(ranks, kernel, 16, None);
                assert_eq!(one, many, "{kernel:?} diverged at {ranks} ranks");
            }
        }
    }

    #[test]
    fn minibatch_analysis_is_rank_count_invariant() {
        let one = analyze_with_ranks(1, ScoreKernel::Batched, 16, Some(3));
        let four = analyze_with_ranks(4, ScoreKernel::Batched, 16, Some(3));
        assert_eq!(one, four);
    }

    #[test]
    fn kernels_agree_to_reassociation() {
        let a = analyze_with_ranks(2, ScoreKernel::Reference, 16, None);
        let b = analyze_with_ranks(2, ScoreKernel::Batched, 16, None);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn analysis_moves_toward_observation_like_serial() {
        // Behavioral check on the full reassembled state: the sharded
        // analysis pulls the ensemble toward the observation and lands at
        // (statistically) the same posterior as the serial filter. The two
        // draw different SDE noise streams — member-keyed serially,
        // (particle, tile)-keyed here — so the means agree only to
        // Monte-Carlo tolerance, never bitwise.
        let dim = 16;
        let members = 40;
        let forecast = gaussian_ensemble(members, dim, 3);
        let y = vec![2.0; dim];
        let obs = ObsSpec::identity(0.3);
        let config = EnsfConfig { n_steps: 50, seed: 4, ..Default::default() };
        let plan = ShardPlan::new(dim, 4, 2);
        let blocks = run_world(2, |comm| {
            let mut stats = CommStats::default();
            dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, None, &mut stats).unwrap()
        });
        let n_elems: usize = blocks.iter().map(Vec::len).sum();
        assert_eq!(n_elems, members * dim);
        let dist_mean: f64 = blocks.iter().flatten().sum::<f64>() / n_elems as f64;

        let mut serial = ensf::Ensf::new(config);
        let analysis = serial.analyze(&forecast, &y, &obs.operator(dim, 0));
        let serial_mean: f64 =
            analysis.as_slice().iter().sum::<f64>() / (members * dim) as f64;

        let prior_mean: f64 =
            forecast.as_slice().iter().sum::<f64>() / (members * dim) as f64;
        assert!(
            dist_mean > prior_mean + 0.25,
            "analysis mean {dist_mean} did not move toward obs from {prior_mean}"
        );
        assert!(dist_mean < 2.4, "analysis mean {dist_mean} overshot");
        assert!(
            (dist_mean - serial_mean).abs() < 0.1,
            "distributed mean {dist_mean} disagrees with serial mean {serial_mean}"
        );
    }

    #[test]
    fn arctan_observation_is_rank_count_invariant() {
        let dim = 48;
        let forecast = gaussian_ensemble(5, dim, 21);
        let y = vec![0.3; dim];
        let obs = ObsSpec { operator: ObsOperatorKind::Arctan { gain: 1.0 }, ..ObsSpec::identity(0.3) };
        let config = EnsfConfig { n_steps: 10, seed: 2, ..Default::default() };
        let run = |ranks: usize| {
            let plan = ShardPlan::new(dim, 8, ranks);
            let blocks = run_world(ranks, |comm| {
                let mut stats = CommStats::default();
                dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, None, &mut stats)
                    .unwrap()
            });
            let mut full = vec![0.0; 5 * dim];
            for (r, block) in blocks.iter().enumerate() {
                let (lo, hi) = plan.rank_range(r);
                for p in 0..5 {
                    full[p * dim + lo..p * dim + hi]
                        .copy_from_slice(&block[p * (hi - lo)..(p + 1) * (hi - lo)]);
                }
            }
            full
        };
        assert_eq!(run(1), run(3), "arctan path diverged across rank counts");
    }

    fn flow_analyze_with_ranks(
        ranks: usize,
        kernel: ScoreKernel,
        tile: usize,
        n_steps: usize,
    ) -> Vec<f64> {
        let dim = 96;
        let forecast = gaussian_ensemble(6, dim, 11);
        let y = vec![0.25; dim];
        let obs = ObsSpec::identity(0.4);
        let config = EnsfConfig {
            n_steps,
            seed: 9,
            kernel,
            method: AnalysisMethod::FlowMatching,
            ..Default::default()
        };
        let plan = ShardPlan::new(dim, tile, ranks);
        let blocks = run_world(ranks, |comm| {
            let mut stats = CommStats::default();
            dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, None, &mut stats).unwrap()
        });
        let mut full = vec![0.0; 6 * dim];
        for (r, block) in blocks.iter().enumerate() {
            let (lo, hi) = plan.rank_range(r);
            for p in 0..6 {
                full[p * dim + lo..p * dim + hi]
                    .copy_from_slice(&block[p * (hi - lo)..(p + 1) * (hi - lo)]);
            }
        }
        full
    }

    #[test]
    fn flow_analysis_is_bitwise_identical_for_any_rank_count() {
        for kernel in [ScoreKernel::Reference, ScoreKernel::Batched] {
            let one = flow_analyze_with_ranks(1, kernel, 16, 6);
            for ranks in [2, 3, 4, 6] {
                let many = flow_analyze_with_ranks(ranks, kernel, 16, 6);
                assert_eq!(one, many, "flow {kernel:?} diverged at {ranks} ranks");
            }
        }
    }

    #[test]
    fn single_step_flow_analysis_stays_finite_and_rank_invariant() {
        // The deepest deadline-ladder degradation: one DDIM step.
        let one = flow_analyze_with_ranks(1, ScoreKernel::Batched, 16, 1);
        assert!(one.iter().all(|v| v.is_finite()));
        assert_eq!(one, flow_analyze_with_ranks(4, ScoreKernel::Batched, 16, 1));
    }

    #[test]
    fn smoothed_flow_variance_stays_rank_layout_invariant() {
        // Variance shrinkage is folded per global tile, so the smoothed
        // gains must stay bitwise identical no matter how the tile grid is
        // split across ranks.
        let dim = 96;
        let forecast = gaussian_ensemble(6, dim, 13);
        let y = vec![0.25; dim];
        let obs = ObsSpec::identity(0.4);
        let config = EnsfConfig {
            n_steps: 5,
            seed: 9,
            kernel: ScoreKernel::Batched,
            method: AnalysisMethod::FlowMatching,
            variance_smoothing: 0.6,
            ..Default::default()
        };
        let run = |ranks: usize| {
            let plan = ShardPlan::new(dim, 16, ranks);
            let blocks = run_world(ranks, |comm| {
                let mut stats = CommStats::default();
                dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, None, &mut stats)
                    .unwrap()
            });
            let mut full = vec![0.0; 6 * dim];
            for (r, block) in blocks.iter().enumerate() {
                let (lo, hi) = plan.rank_range(r);
                for p in 0..6 {
                    full[p * dim + lo..p * dim + hi]
                        .copy_from_slice(&block[p * (hi - lo)..(p + 1) * (hi - lo)]);
                }
            }
            full
        };
        let one = run(1);
        assert!(one.iter().all(|v| v.is_finite()));
        for ranks in [2, 3, 6] {
            assert_eq!(one, run(ranks), "smoothed flow diverged at {ranks} ranks");
        }
    }

    #[test]
    fn flow_analysis_moves_toward_observation_like_serial() {
        // Statistical agreement only: the sharded flow starts from
        // tile-keyed initial fills, the serial one from member-keyed fills,
        // so individual particles differ while the posterior agrees.
        let dim = 16;
        let members = 40;
        let forecast = gaussian_ensemble(members, dim, 3);
        let y = vec![2.0; dim];
        let obs = ObsSpec::identity(0.3);
        let config = EnsfConfig {
            n_steps: 6,
            seed: 4,
            method: AnalysisMethod::FlowMatching,
            ..Default::default()
        };
        let plan = ShardPlan::new(dim, 4, 2);
        let blocks = run_world(2, |comm| {
            let mut stats = CommStats::default();
            dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, None, &mut stats).unwrap()
        });
        let n_elems: usize = blocks.iter().map(Vec::len).sum();
        assert_eq!(n_elems, members * dim);
        let dist_mean: f64 = blocks.iter().flatten().sum::<f64>() / n_elems as f64;

        let mut serial = ensf::Ensf::new(config.clone());
        let analysis = serial.analyze(&forecast, &y, &obs.operator(dim, 0));
        let serial_mean: f64 = analysis.as_slice().iter().sum::<f64>() / (members * dim) as f64;

        let prior_mean: f64 = forecast.as_slice().iter().sum::<f64>() / (members * dim) as f64;
        assert!(
            dist_mean > prior_mean + 0.25,
            "flow analysis mean {dist_mean} did not move toward obs from {prior_mean}"
        );
        assert!(dist_mean < 2.4, "flow analysis mean {dist_mean} overshot");
        assert!(
            (dist_mean - serial_mean).abs() < 0.1,
            "distributed flow mean {dist_mean} disagrees with serial flow mean {serial_mean}"
        );
    }

    #[test]
    fn arctan_flow_is_rank_count_invariant() {
        let dim = 48;
        let forecast = gaussian_ensemble(5, dim, 21);
        let y = vec![0.3; dim];
        let obs = ObsSpec { operator: ObsOperatorKind::Arctan { gain: 1.0 }, ..ObsSpec::identity(0.3) };
        let config = EnsfConfig {
            n_steps: 8,
            seed: 2,
            method: AnalysisMethod::FlowMatching,
            ..Default::default()
        };
        let run = |ranks: usize| {
            let plan = ShardPlan::new(dim, 8, ranks);
            let blocks = run_world(ranks, |comm| {
                let mut stats = CommStats::default();
                dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, None, &mut stats)
                    .unwrap()
            });
            let mut full = vec![0.0; 5 * dim];
            for (r, block) in blocks.iter().enumerate() {
                let (lo, hi) = plan.rank_range(r);
                for p in 0..5 {
                    full[p * dim + lo..p * dim + hi]
                        .copy_from_slice(&block[p * (hi - lo)..(p + 1) * (hi - lo)]);
                }
            }
            full
        };
        assert_eq!(run(1), run(3), "arctan flow path diverged across rank counts");
    }

    fn masked_analyze_with_ranks(
        ranks: usize,
        kernel: ScoreKernel,
        method: AnalysisMethod,
        mask: MaskKind,
        cycle: u64,
    ) -> Vec<f64> {
        let dim = 96;
        let members = 6;
        let forecast = gaussian_ensemble(members, dim, 11);
        let obs = ObsSpec { mask, ..ObsSpec::identity(0.05) };
        // Shrunk observation vector: one value per observed component.
        let y: Vec<f64> = (0..obs.obs_len(dim, cycle)).map(|k| 0.25 + 0.001 * k as f64).collect();
        let config = EnsfConfig {
            n_steps: 20,
            seed: 9,
            kernel,
            method,
            ..Default::default()
        };
        let plan = ShardPlan::new(dim, 16, ranks);
        let blocks = run_world(ranks, |comm| {
            let mut stats = CommStats::default();
            dist_analyze(comm, &plan, &config, cycle, &forecast, &y, &obs, None, &mut stats)
                .unwrap()
        });
        let mut full = vec![0.0; members * dim];
        for (r, block) in blocks.iter().enumerate() {
            let (lo, hi) = plan.rank_range(r);
            for p in 0..members {
                full[p * dim + lo..p * dim + hi]
                    .copy_from_slice(&block[p * (hi - lo)..(p + 1) * (hi - lo)]);
            }
        }
        full
    }

    #[test]
    fn masked_block_analysis_is_bitwise_identical_for_any_rank_count() {
        // The outage spans tiles 0–2 entirely and cuts tile 3 in half, so
        // some ranks own tiles with empty observation slices — the
        // partition must stay invariant to who owns what.
        let mask = MaskKind::Block { start: 0, len: 56 };
        for kernel in [ScoreKernel::Reference, ScoreKernel::Batched] {
            let one =
                masked_analyze_with_ranks(1, kernel, AnalysisMethod::ReverseSde, mask, 0);
            assert!(one.iter().all(|v| v.is_finite()));
            for ranks in [2, 3, 4, 6] {
                let many =
                    masked_analyze_with_ranks(ranks, kernel, AnalysisMethod::ReverseSde, mask, 0);
                assert_eq!(one, many, "masked {kernel:?} diverged at {ranks} ranks");
            }
        }
    }

    #[test]
    fn masked_track_flow_is_rank_count_invariant_at_any_cycle() {
        // Moving-track mask: the observed window depends on the cycle
        // index, which reaches the kernel directly — the per-tile partition
        // must re-resolve identically on every rank layout.
        let mask = MaskKind::Track { width: 40, speed: 7 };
        for cycle in [0, 3] {
            let one = masked_analyze_with_ranks(
                1,
                ScoreKernel::Batched,
                AnalysisMethod::FlowMatching,
                mask,
                cycle,
            );
            assert!(one.iter().all(|v| v.is_finite()));
            for ranks in [2, 4] {
                let many = masked_analyze_with_ranks(
                    ranks,
                    ScoreKernel::Batched,
                    AnalysisMethod::FlowMatching,
                    mask,
                    cycle,
                );
                assert_eq!(one, many, "masked flow diverged at {ranks} ranks, cycle {cycle}");
            }
        }
    }

    #[test]
    fn masked_guidance_pulls_only_observed_components() {
        // With guidance confined to the observed window, observed
        // components must track the observations much more tightly than
        // the score-only outage.
        let dim = 96;
        let mask = MaskKind::Block { start: 48, len: 48 };
        let full = masked_analyze_with_ranks(
            2,
            ScoreKernel::Batched,
            AnalysisMethod::ReverseSde,
            mask,
            0,
        );
        let members = 6;
        let mut mean = vec![0.0; dim];
        for p in 0..members {
            for i in 0..dim {
                mean[i] += full[p * dim + i] / members as f64;
            }
        }
        let err_obs: f64 = (0..48).map(|i| (mean[i] - 0.25).abs()).sum::<f64>() / 48.0;
        let err_out: f64 = (48..96).map(|i| (mean[i] - 0.25).abs()).sum::<f64>() / 48.0;
        assert!(
            err_obs < 0.35 && err_out > 1.5 * err_obs,
            "observed err {err_obs} vs outage err {err_out}"
        );
    }

    #[test]
    fn faulty_collective_fails_identically_on_all_ranks() {
        let dim = 32;
        let forecast = gaussian_ensemble(4, dim, 7);
        let y = vec![0.0; dim];
        let obs = ObsSpec::identity(1.0);
        let config = EnsfConfig { n_steps: 5, seed: 1, ..Default::default() };
        let plan = ShardPlan::new(dim, 8, 2);
        let spec = CommSpec {
            faults: vec![RankFault { rank: 0, failures: 99, permanent: false }],
            ..CommSpec::clean(2)
        };
        let results = run_world(2, |comm| {
            let mut stats = CommStats::default();
            dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, Some(&spec), &mut stats)
                .err()
        });
        let want = DistError::Collective(hpc::CollectiveError::Exhausted { attempts: 4 });
        for r in &results {
            assert_eq!(r.as_ref(), Some(&want), "all ranks must observe the same failure");
        }
    }

    #[test]
    fn clean_commspec_accounts_time_without_failing() {
        let dim = 32;
        let forecast = gaussian_ensemble(4, dim, 7);
        let y = vec![0.0; dim];
        let obs = ObsSpec::identity(1.0);
        let config = EnsfConfig { n_steps: 5, seed: 1, ..Default::default() };
        let plan = ShardPlan::new(dim, 8, 2);
        let spec = CommSpec::clean(2);
        let stats = run_world(2, |comm| {
            let mut stats = CommStats::default();
            dist_analyze(comm, &plan, &config, 0, &forecast, &y, &obs, Some(&spec), &mut stats)
                .unwrap();
            stats
        });
        for s in &stats {
            assert_eq!(s.collectives, 5, "one allgather per SDE step");
            assert_eq!(s.attempts, 5);
            assert!(s.modeled_comm_secs > 0.0);
            assert!(s.bytes > 0);
        }
    }

    #[test]
    fn tile_streams_are_decorrelated() {
        // Distinct (particle, tile) pairs must give distinct first draws.
        let mut firsts = Vec::new();
        for p in 0..4 {
            for t in 0..4 {
                let mut rng = tile_rng(42, p, t);
                let mut buf = [0.0];
                fill_standard_normal(&mut rng, &mut buf);
                firsts.push(buf[0].to_bits());
            }
        }
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 16, "tile RNG streams must not collide");
    }
}

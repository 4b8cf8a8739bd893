//! Observation-space inpainting for partially observed networks.
//!
//! The EnSF kernels assimilate a dense observation vector, so a partial
//! network's shrunk vector is completed first: [`Completion::complete`] is
//! the one place that happens, for the serial schemes and the sharded
//! runtime alike. The inpainting completion reconstructs the missing
//! entries of an observation-space field (the innovation `y − h(x̄_f)` at
//! the masked components) before assimilation. [`harmonic_fill`] solves
//! the discrete Laplace equation on the two-level SQG grid graph — the
//! four periodic horizontal neighbours plus the vertically colocated
//! partner level — with the observed entries as Dirichlet data, using a
//! fixed number of Gauss–Seidel sweeps in ascending index order so the
//! fill is bitwise deterministic. States whose dimension is not a
//! two-level square grid (unit tests, toy problems) fall back to a
//! periodic 1-D chain stencil.

use ensf::ObsSpec;
use stats::Ensemble;
use std::borrow::Cow;

/// How a partial network's shrunk observation vector is completed to the
/// dense one the EnSF score kernels assimilate (irrelevant under a full
/// mask, where the vector is dense already).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Harmonic inpainting of the obs-space innovation field `y − h(x̄_f)`
    /// on the two-level grid ([`harmonic_fill`]; Liang et al.,
    /// arXiv:2501.12419). Observed pixels keep their real measurements, so
    /// guidance there is exact; masked pixels receive spatially
    /// interpolated pseudo-observations, anchoring the diffusion inside the
    /// outage to real information from the surrounding network instead of
    /// leaving it to the prior score alone (which lets small ensembles
    /// drift; see the scenario bench).
    Inpaint,
    /// The canonical outage bug, kept as the baseline inpainting must beat
    /// on unobserved regions: dead sensors flat-line at zero in observation
    /// space and those zeros are assimilated as real measurements with
    /// full guidance weight.
    ZeroFill,
}

impl Completion {
    /// The dense observation vector for analysis number `cycle` of
    /// `forecast`: `observation` itself under a full mask, otherwise the
    /// real measurements at the components `obs` observes at `cycle` and
    /// this completion everywhere else.
    ///
    /// # Panics
    /// Panics unless `observation` holds exactly the observed components.
    pub fn complete<'a>(
        self,
        obs: &ObsSpec,
        cycle: u64,
        forecast: &Ensemble,
        observation: &'a [f64],
    ) -> Cow<'a, [f64]> {
        if obs.mask.is_full() {
            return Cow::Borrowed(observation);
        }
        let dim = forecast.dim();
        let observed = obs.observed(dim, cycle);
        assert_eq!(
            observation.len(),
            observed.len(),
            "observation vector must hold exactly the mask's observed components"
        );
        let mut y_full = vec![0.0; dim];
        if self == Completion::Inpaint {
            // Dirichlet data at observed pixels, Laplace fill across the
            // outage, then back to observation space about h(x̄_f).
            let mean = forecast.mean();
            let mut known = vec![false; dim];
            for (&i, y) in observed.iter().zip(observation) {
                y_full[i] = y - obs.operator.h(mean[i]);
                known[i] = true;
            }
            harmonic_fill(&mut y_full, &known, FILL_SWEEPS);
            for i in (0..dim).filter(|&i| !known[i]) {
                y_full[i] += obs.operator.h(mean[i]);
            }
        }
        // Real measurements pass through exactly.
        for (&i, &y) in observed.iter().zip(observation) {
            y_full[i] = y;
        }
        Cow::Owned(y_full)
    }
}

/// Gauss–Seidel sweep count used by [`Completion::Inpaint`]. With every
/// unobserved pixel at most a few cells from Dirichlet data (and usually
/// vertically anchored), 64 sweeps converge far below the observation
/// noise floor while keeping the fill cost at `O(sweeps · dim)` —
/// negligible next to one diffusion step.
pub const FILL_SWEEPS: usize = 64;

/// Side length `n` when `dim` is a two-level `n × n` row-major state.
fn grid_side(dim: usize) -> Option<usize> {
    if dim == 0 || !dim.is_multiple_of(sqg::LEVELS) {
        return None;
    }
    let n2 = dim / sqg::LEVELS;
    let n = (n2 as f64).sqrt().round() as usize;
    (n >= 2 && n * n == n2).then_some(n)
}

/// Fills the entries of `field` where `known` is `false` by harmonic
/// interpolation from the `true` entries (which are never modified).
/// Unknown entries are taken as pre-initialised (scatter zeros before
/// calling for a cold start). No-op when everything is known; if nothing
/// is known the field keeps its initial values.
///
/// # Panics
/// Panics if `field` and `known` differ in length.
fn harmonic_fill(field: &mut [f64], known: &[bool], sweeps: usize) {
    assert_eq!(field.len(), known.len(), "mask/field length mismatch");
    let dim = field.len();
    if dim == 0 || known.iter().all(|&k| k) {
        return;
    }
    match grid_side(dim) {
        Some(n) => {
            let level = n * n;
            for _ in 0..sweeps {
                for i in 0..dim {
                    if known[i] {
                        continue;
                    }
                    let (l, rc) = (i / level, i % level);
                    let (r, c) = (rc / n, rc % n);
                    let base = l * level;
                    let up = base + ((r + n - 1) % n) * n + c;
                    let down = base + ((r + 1) % n) * n + c;
                    let left = base + r * n + (c + n - 1) % n;
                    let right = base + r * n + (c + 1) % n;
                    // LEVELS == 2: the vertically colocated partner.
                    let vert = if l == 0 { i + level } else { i - level };
                    field[i] =
                        (field[up] + field[down] + field[left] + field[right] + field[vert]) / 5.0;
                }
            }
        }
        None => {
            for _ in 0..sweeps {
                for i in 0..dim {
                    if known[i] {
                        continue;
                    }
                    let l = (i + dim - 1) % dim;
                    let r = (i + 1) % dim;
                    field[i] = 0.5 * (field[l] + field[r]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_known_field_is_untouched() {
        let mut f = vec![1.0, -2.0, 3.0, 0.5];
        let orig = f.clone();
        harmonic_fill(&mut f, &[true; 4], 10);
        assert_eq!(f, orig);
    }

    #[test]
    fn chain_fill_interpolates_between_known_points() {
        // dim = 6 is not a two-level square, so the 1-D chain stencil runs:
        // knowns at 0 and 3 with values 0 and 3 give the linear ramp.
        let mut f = vec![0.0, 0.0, 0.0, 3.0, 0.0, 0.0];
        let known = vec![true, false, false, true, false, false];
        harmonic_fill(&mut f, &known, 200);
        assert!((f[1] - 1.0).abs() < 1e-9, "f[1] = {}", f[1]);
        assert!((f[2] - 2.0).abs() < 1e-9);
        assert!((f[4] - 2.0).abs() < 1e-9, "periodic wrap: {}", f[4]);
        assert!((f[5] - 1.0).abs() < 1e-9);
        assert_eq!(f[3], 3.0, "Dirichlet data never moves");
    }

    #[test]
    fn grid_fill_recovers_a_constant_field_exactly() {
        // 2 levels x 4x4: every unknown is surrounded by the constant, so
        // harmonic interpolation converges to the constant.
        let n = 4;
        let dim = 2 * n * n;
        let mut f = vec![0.0; dim];
        let mut known = vec![true; dim];
        for i in 8..24 {
            known[i] = false;
        }
        for i in 0..dim {
            if known[i] {
                f[i] = 2.5;
            }
        }
        harmonic_fill(&mut f, &known, 300);
        for (i, v) in f.iter().enumerate() {
            assert!((v - 2.5).abs() < 1e-9, "f[{i}] = {v}");
        }
    }

    #[test]
    fn grid_fill_uses_the_vertical_partner() {
        // Blind an entire level: every unknown pixel's only Dirichlet
        // anchor is its vertical partner, so the fill must reproduce the
        // other level's (constant) field.
        let n = 4;
        let level = n * n;
        let mut f = vec![0.0; 2 * level];
        let mut known = vec![false; 2 * level];
        for i in level..2 * level {
            known[i] = true;
            f[i] = -1.25;
        }
        harmonic_fill(&mut f, &known, 300);
        for i in 0..level {
            assert!((f[i] + 1.25).abs() < 1e-9, "f[{i}] = {}", f[i]);
        }
    }

    #[test]
    fn fill_is_deterministic() {
        let n = 4;
        let dim = 2 * n * n;
        let mut known = vec![true; dim];
        let mut a = vec![0.0; dim];
        for i in 0..dim {
            if i % 3 == 0 {
                known[i] = false;
            } else {
                a[i] = (i as f64 * 0.37).sin();
            }
        }
        let mut b = a.clone();
        harmonic_fill(&mut a, &known, FILL_SWEEPS);
        harmonic_fill(&mut b, &known, FILL_SWEEPS);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }
}

//! SQG model state: spectral potential temperature (buoyancy) at the two
//! boundary levels, with conversions to/from the flat grid-space state
//! vector the DA filters operate on.

use fft::{plan_cache, real, Complex, Direction, Fft2, Fft2Scratch};
use linalg::AlignedVec;

/// Number of vertical levels (the two boundaries of the Eady model).
pub const LEVELS: usize = 2;

/// Spectral state: buoyancy θ̂ at the bottom (`levels[0]`, z = 0) and top
/// (`levels[1]`, z = H) boundaries, each a row-major `n x n` complex field.
#[derive(Debug, Clone, PartialEq)]
pub struct SqgState {
    n: usize,
    levels: [Vec<Complex>; LEVELS],
}

impl SqgState {
    /// Zero state on an `n x n` grid.
    pub fn zeros(n: usize) -> Self {
        SqgState { n, levels: [vec![Complex::ZERO; n * n], vec![Complex::ZERO; n * n]] }
    }

    /// Builds a state from two spectral fields.
    ///
    /// # Panics
    /// Panics if the fields are not both `n * n` long.
    pub fn from_spectral(n: usize, bottom: Vec<Complex>, top: Vec<Complex>) -> Self {
        assert_eq!(bottom.len(), n * n);
        assert_eq!(top.len(), n * n);
        SqgState { n, levels: [bottom, top] }
    }

    /// Grid points per side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Spectral field of level `l` (0 = bottom, 1 = top).
    pub fn level(&self, l: usize) -> &[Complex] {
        &self.levels[l]
    }

    /// Both levels as a mutable pair (for the time stepper).
    pub fn levels_mut(&mut self) -> &mut [Vec<Complex>; LEVELS] {
        &mut self.levels
    }

    /// Converts grid-space fields (row-major, one per level) to a state.
    ///
    /// Both levels ride one forward transform (see [`load_fields`]); the
    /// resulting spectra are exactly Hermitian.
    pub fn from_grid(n: usize, grid: &[Vec<f64>; LEVELS]) -> Self {
        Self::from_fields(n, &grid[0], &grid[1])
    }

    /// Converts the spectral state to grid-space fields (one inverse
    /// transform for both levels).
    pub fn to_grid(&self) -> [Vec<f64>; LEVELS] {
        let m = self.n * self.n;
        let mut out = [vec![0.0; m], vec![0.0; m]];
        let [bottom, top] = &mut out;
        self.store(bottom, top);
        out
    }

    /// Flattens to the DA state vector: bottom grid field then top grid
    /// field, `2 n²` values.
    pub fn to_state_vector(&self) -> Vec<f64> {
        let m = self.n * self.n;
        let mut v = vec![0.0; 2 * m];
        let (bottom, top) = v.split_at_mut(m);
        self.store(bottom, top);
        v
    }

    /// Rebuilds a spectral state from a DA state vector.
    ///
    /// # Panics
    /// Panics if `v.len() != 2 n²`.
    pub fn from_state_vector(n: usize, v: &[f64]) -> Self {
        assert_eq!(v.len(), 2 * n * n, "state vector must have 2 n^2 entries");
        let (bottom, top) = v.split_at(n * n);
        Self::from_fields(n, bottom, top)
    }

    fn from_fields(n: usize, bottom: &[f64], top: &[f64]) -> Self {
        let mut state = SqgState::zeros(n);
        let fwd = plan_cache::fft2(n, n, Direction::Forward);
        let mut pair = AlignedVec::zeroed(n * n);
        load_fields(&fwd, bottom, top, &mut state.levels, pair.as_mut(), &mut Fft2Scratch::new());
        state
    }

    fn store(&self, bottom: &mut [f64], top: &mut [f64]) {
        let inv = plan_cache::fft2(self.n, self.n, Direction::Inverse);
        let mut pair = AlignedVec::zeroed(self.n * self.n);
        store_fields(&inv, &self.levels, bottom, top, pair.as_mut(), &mut Fft2Scratch::new());
    }

    /// Mean (domain-averaged) buoyancy of each level, read off the DC mode.
    pub fn mean_buoyancy(&self) -> [f64; LEVELS] {
        let norm = 1.0 / (self.n * self.n) as f64;
        [self.levels[0][0].re * norm, self.levels[1][0].re * norm]
    }

    /// Total buoyancy variance (about the level means) summed over levels,
    /// computed spectrally via Parseval.
    pub fn total_variance(&self) -> f64 {
        let n2 = (self.n * self.n) as f64;
        let mut total = 0.0;
        for spec in &self.levels {
            let all: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / (n2 * n2);
            let dc = spec[0].norm_sqr() / (n2 * n2);
            total += all - dc;
        }
        total
    }

    /// True if every coefficient is finite (blow-up guard used by tests and
    /// the forecast wrapper).
    pub fn is_finite(&self) -> bool {
        self.levels.iter().all(|spec| spec.iter().all(|z| z.is_finite()))
    }
}

/// Grid fields → spectral levels with one forward transform: the two real
/// fields are packed as `bottom + i·top` in `pair`, transformed, and separated
/// by the Hermitian split. `pair` is an `n²` work buffer.
// lint: no_alloc
pub(crate) fn load_fields(
    fwd: &Fft2,
    bottom: &[f64],
    top: &[f64],
    levels: &mut [Vec<Complex>; LEVELS],
    pair: &mut [Complex],
    scratch: &mut Fft2Scratch,
) {
    real::pack_pair(bottom, top, pair);
    fwd.process_with_scratch(pair, scratch);
    let [l0, l1] = levels;
    real::split_pair(pair, fwd.rows(), fwd.cols(), l0, l1);
}

/// Spectral levels → grid fields with one inverse transform of
/// `θ̂₀ + i·θ̂₁`. The levels must be Hermitian (spectra of real fields), as
/// every state built from grid fields and advanced by the stepper is.
// lint: no_alloc
pub(crate) fn store_fields(
    inv: &Fft2,
    levels: &[Vec<Complex>; LEVELS],
    bottom: &mut [f64],
    top: &mut [f64],
    pair: &mut [Complex],
    scratch: &mut Fft2Scratch,
) {
    real::pack_spectra(&levels[0], &levels[1], pair);
    inv.process_with_scratch(pair, scratch);
    real::unpack_pair(pair, bottom, top);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_round_trip() {
        let n = 16;
        let bottom: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.13).sin()).collect();
        let top: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.07).cos()).collect();
        let st = SqgState::from_grid(n, &[bottom.clone(), top.clone()]);
        let [b2, t2] = st.to_grid();
        for (a, b) in bottom.iter().zip(&b2) {
            assert!((a - b).abs() < 1e-10);
        }
        for (a, b) in top.iter().zip(&t2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn state_vector_round_trip() {
        let n = 8;
        let v: Vec<f64> = (0..2 * n * n).map(|i| ((i * 37 % 101) as f64 - 50.0) / 50.0).collect();
        let st = SqgState::from_state_vector(n, &v);
        let v2 = st.to_state_vector();
        for (a, b) in v.iter().zip(&v2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn mean_buoyancy_reads_dc_mode() {
        let n = 8;
        let bottom = vec![3.0; n * n];
        let top = vec![-1.5; n * n];
        let st = SqgState::from_grid(n, &[bottom, top]);
        let m = st.mean_buoyancy();
        assert!((m[0] - 3.0).abs() < 1e-10);
        assert!((m[1] + 1.5).abs() < 1e-10);
    }

    #[test]
    fn variance_matches_grid_computation() {
        let n = 16;
        let bottom: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.31).sin()).collect();
        let top = vec![0.0; n * n];
        let grid_var: f64 = {
            let mean = bottom.iter().sum::<f64>() / (n * n) as f64;
            bottom.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n * n) as f64
        };
        let st = SqgState::from_grid(n, &[bottom, top]);
        assert!((st.total_variance() - grid_var).abs() < 1e-10);
    }

    #[test]
    fn finite_check() {
        let n = 4;
        let mut st = SqgState::zeros(n);
        assert!(st.is_finite());
        st.levels_mut()[0][3] = Complex::new(f64::NAN, 0.0);
        assert!(!st.is_finite());
    }

    #[test]
    #[should_panic]
    fn wrong_state_vector_length_panics() {
        let _ = SqgState::from_state_vector(8, &[0.0; 10]);
    }
}

//! Ensemble containers and statistics.
//!
//! An [`Ensemble`] is `M` state vectors of equal dimension `d`, stored
//! contiguously (member-major) so that per-member forecast loops and
//! per-variable statistics both stride predictably.
//!
//! The buffer starts on a 64-byte cache line ([`linalg::AlignedVec`]) —
//! every constructor's and a clone's — so when
//! `d` is a multiple of 8 every member does too: the EnSF score kernels
//! borrow the forecast's buffer as their ensemble operand, and their
//! 512-bit loads of it then never straddle two lines.

use linalg::AlignedVec;

/// A collection of `M` equally sized state vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Ensemble {
    members: usize,
    dim: usize,
    data: AlignedVec<f64>, // member-major: member m occupies data[m*dim..(m+1)*dim]
}

impl Ensemble {
    /// Creates an ensemble of `members` zero vectors of dimension `dim`.
    pub fn zeros(members: usize, dim: usize) -> Self {
        Ensemble { members, dim, data: AlignedVec::zeroed(members * dim) }
    }

    /// Builds an ensemble from member vectors.
    ///
    /// # Panics
    /// Panics if members have inconsistent dimensions or the list is empty.
    pub fn from_members(members: &[Vec<f64>]) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let dim = members[0].len();
        let mut out = Ensemble::zeros(members.len(), dim);
        for (m, row) in members.iter().zip(out.iter_mut()) {
            assert_eq!(m.len(), dim, "ragged ensemble members");
            row.copy_from_slice(m);
        }
        out
    }

    /// Number of members `M`.
    pub fn members(&self) -> usize {
        self.members
    }

    /// State dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of member `m`.
    pub fn member(&self, m: usize) -> &[f64] {
        &self.data[m * self.dim..(m + 1) * self.dim]
    }

    /// Mutable borrow of member `m`.
    pub fn member_mut(&mut self, m: usize) -> &mut [f64] {
        &mut self.data[m * self.dim..(m + 1) * self.dim]
    }

    /// Iterator over the `M` members (empty slices when `d = 0`).
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.members).map(|m| self.member(m))
    }

    /// Mutable iterator over the `M` members (a parallel member loop takes
    /// [`Ensemble::as_mut_slice`] in `dim`-long pieces instead).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let dim = self.dim;
        let mut rest = &mut self.data[..];
        (0..self.members).map(move |_| {
            let (member, tail) = std::mem::take(&mut rest).split_at_mut(dim);
            rest = tail;
            member
        })
    }

    /// The raw member-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Ensemble mean vector (all zeros for an empty ensemble).
    pub fn mean(&self) -> Vec<f64> {
        let m = self.members();
        if m == 0 {
            return vec![0.0; self.dim];
        }
        let mut out = vec![0.0; self.dim];
        for member in self.iter() {
            for (o, x) in out.iter_mut().zip(member) {
                *o += x;
            }
        }
        let inv = 1.0 / m as f64;
        for o in &mut out {
            *o *= inv;
        }
        out
    }

    /// Per-variable ensemble variance (unbiased, divides by `M - 1`).
    ///
    /// Degenerate ensembles (`M < 2`) carry no sampled spread: the variance
    /// is defined as all zeros rather than panicking or dividing by zero,
    /// so health checks on collapsed/quarantined ensembles stay total.
    pub fn variance(&self) -> Vec<f64> {
        self.mean_and_variance().1
    }

    /// [`mean`](Self::mean) and [`variance`](Self::variance) together, the
    /// variance's passes reusing the one mean: the two calls' bits for one
    /// read of the members fewer.
    pub fn mean_and_variance(&self) -> (Vec<f64>, Vec<f64>) {
        let mean = self.mean();
        let mut var = vec![0.0; self.dim];
        let m = self.members();
        if m < 2 {
            return (mean, var);
        }
        for member in self.iter() {
            for ((v, x), mu) in var.iter_mut().zip(member).zip(&mean) {
                let d = x - mu;
                *v += d * d;
            }
        }
        let inv = 1.0 / (m - 1) as f64;
        for v in &mut var {
            *v *= inv;
        }
        (mean, var)
    }

    /// Scalar ensemble spread: sqrt of the mean of the per-variable variances.
    /// This is the quantity RTPS inflation relaxes. Zero for degenerate
    /// ensembles (`M < 2` or zero-dimensional states).
    pub fn spread(&self) -> f64 {
        if self.dim == 0 {
            return 0.0;
        }
        let var = self.variance();
        (var.iter().sum::<f64>() / self.dim as f64).sqrt()
    }

    /// Scales all anomalies by `factor` about the current mean
    /// (multiplicative covariance inflation).
    pub fn inflate(&mut self, factor: f64) {
        let mean = self.mean();
        for member in self.iter_mut() {
            for (x, mu) in member.iter_mut().zip(&mean) {
                *x = mu + factor * (*x - mu);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ensemble {
        Ensemble::from_members(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
        ])
    }

    #[test]
    fn shape_and_access() {
        let e = small();
        assert_eq!(e.members(), 3);
        assert_eq!(e.dim(), 2);
        assert_eq!(e.member(1), &[3.0, 4.0]);
    }

    #[test]
    fn mean_and_variance() {
        let e = small();
        assert_eq!(e.mean(), vec![3.0, 4.0]);
        // variance per variable: ((1-3)^2 + 0 + (5-3)^2)/2 = 4
        assert_eq!(e.variance(), vec![4.0, 4.0]);
        assert_eq!(e.mean_and_variance(), (e.mean(), e.variance()));
        assert!((e.spread() - 2.0).abs() < 1e-14);
        // One member: its own mean, no spread.
        let one = Ensemble::from_members(&[vec![1.5, -2.0]]);
        assert_eq!(one.mean_and_variance(), (vec![1.5, -2.0], vec![0.0, 0.0]));
    }

    #[test]
    fn inflate_scales_spread() {
        let mut e = small();
        let sp = e.spread();
        e.inflate(1.5);
        assert!((e.spread() - 1.5 * sp).abs() < 1e-12);
        // mean unchanged
        assert_eq!(e.mean(), vec![3.0, 4.0]);
    }

    #[test]
    fn inflate_by_one_is_identity() {
        let mut e = small();
        let before = e.clone();
        e.inflate(1.0);
        for (a, b) in e.iter().zip(before.iter()) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-14);
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_ensemble_rejected() {
        let _ = Ensemble::from_members(&[]);
    }

    #[test]
    fn degenerate_ensembles_have_defined_statistics() {
        // M = 1: no sampled spread, but no panic / NaN either.
        let single = Ensemble::from_members(&[vec![1.0, -2.0]]);
        assert_eq!(single.mean(), vec![1.0, -2.0]);
        assert_eq!(single.variance(), vec![0.0, 0.0]);
        assert_eq!(single.spread(), 0.0);
        // M = 0 (constructed via zeros): everything zero and finite.
        let empty = Ensemble::zeros(0, 3);
        assert_eq!(empty.members(), 0);
        assert_eq!(empty.mean(), vec![0.0; 3]);
        assert_eq!(empty.variance(), vec![0.0; 3]);
        assert!(empty.spread().is_finite());
        // dim = 0: spread must not divide 0/0.
        let flat = Ensemble::zeros(4, 0);
        assert_eq!(flat.spread(), 0.0);
    }

    #[test]
    fn zero_dimensional_ensembles_keep_their_members() {
        // `M × 0`: what a network that observes nothing projects to.
        let mut e = Ensemble::zeros(6, 0);
        assert_eq!((e.members(), e.dim()), (6, 0));
        assert_eq!(e.iter().map(<[f64]>::len).collect::<Vec<_>>(), vec![0; 6]);
        assert_eq!(e.iter_mut().map(|m| m.len()).collect::<Vec<_>>(), vec![0; 6]);
        assert_eq!(e.mean(), Vec::<f64>::new());
        assert_eq!(e.variance(), Vec::<f64>::new());
        assert_eq!(e.spread(), 0.0);
        let e = Ensemble::from_members(&[vec![], vec![], vec![]]);
        assert_eq!((e.members(), e.iter().count()), (3, 3));
    }

    /// Every way an ensemble comes about starts its buffer on a cache
    /// line, whatever the allocator's offset.
    #[test]
    fn storage_is_cache_line_aligned() {
        let aligned = |e: &Ensemble| e.as_slice().as_ptr().align_offset(64) == 0;
        for (members, dim) in [(1, 1), (3, 2), (5, 13), (20, 8192), (10, 8192)] {
            let mut e = Ensemble::zeros(members, dim);
            assert!(aligned(&e), "zeros {members}x{dim}");
            for (m, row) in e.iter_mut().enumerate() {
                row.iter_mut().enumerate().for_each(|(i, x)| *x = (m * dim + i) as f64);
            }
            let rows: Vec<Vec<f64>> = e.iter().map(<[f64]>::to_vec).collect();
            let built = Ensemble::from_members(&rows);
            assert!(aligned(&built), "from_members {members}x{dim}");
            assert_eq!(built, e);
            let copy = e.clone();
            assert!(aligned(&copy), "clone {members}x{dim}");
            assert_eq!(copy, e);
        }
    }

    #[test]
    #[should_panic]
    fn ragged_members_rejected() {
        let _ = Ensemble::from_members(&[vec![1.0], vec![1.0, 2.0]]);
    }
}

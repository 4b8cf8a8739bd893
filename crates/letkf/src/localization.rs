//! Covariance localization: the Gaspari–Cohn correlation function and the
//! doubly periodic grid geometry with Rossby-coupled vertical distance.

/// Gaspari–Cohn 5th-order piecewise rational compactly supported correlation
/// function (Gaspari & Cohn 1999, Eq. 4.10).
///
/// `r = d / c` where `c` is the localization length scale; the support ends
/// at `r = 2` (so a "cutoff radius" of `D` corresponds to `c = D / 2`).
pub fn gaspari_cohn(r: f64) -> f64 {
    let r = r.abs();
    if r >= 2.0 {
        0.0
    } else if r >= 1.0 {
        // 2nd branch on [1, 2)
        let r2 = r * r;
        let r3 = r2 * r;
        let r4 = r3 * r;
        let r5 = r4 * r;
        (r5 / 12.0 - r4 / 2.0 + r3 * 5.0 / 8.0 + r2 * 5.0 / 3.0 - 5.0 * r + 4.0
            - (2.0 / 3.0) / r)
            .max(0.0)
    } else {
        // 1st branch on [0, 1)
        let r2 = r * r;
        let r3 = r2 * r;
        let r4 = r3 * r;
        let r5 = r4 * r;
        -r5 / 4.0 + r4 / 2.0 + r3 * 5.0 / 8.0 - r2 * 5.0 / 3.0 + 1.0
    }
}

/// Geometry of the two-level doubly periodic SQG grid.
///
/// Flat state index `level * n² + iy * n + ix` maps to a physical position;
/// distances combine the periodic horizontal separation with a vertical term
/// expressed as an equivalent horizontal distance (`vertical_scale`, set to
/// the Rossby radius `N H / f` following the paper's dynamically coupled
/// localization extents).
#[derive(Debug, Clone, PartialEq)]
pub struct GridGeometry {
    /// Grid points per side.
    pub n: usize,
    /// Number of vertical levels.
    pub levels: usize,
    /// Domain side length [m].
    pub domain: f64,
    /// Equivalent horizontal distance between adjacent levels [m].
    pub vertical_scale: f64,
}

impl GridGeometry {
    /// Creates the geometry.
    pub fn new(n: usize, levels: usize, domain: f64, vertical_scale: f64) -> Self {
        assert!(n > 0 && levels > 0 && domain > 0.0 && vertical_scale >= 0.0);
        GridGeometry { n, levels, domain, vertical_scale }
    }

    /// Total number of state variables.
    pub fn state_dim(&self) -> usize {
        self.levels * self.n * self.n
    }

    /// Decomposes a flat index into `(ix, iy, level)`.
    fn decompose(&self, idx: usize) -> (usize, usize, usize) {
        let per_level = self.n * self.n;
        let level = idx / per_level;
        let rem = idx % per_level;
        (rem % self.n, rem / self.n, level)
    }

    /// Grid spacing [m].
    pub fn dx(&self) -> f64 {
        self.domain / self.n as f64
    }

    /// Minimum-image (periodic) separation of two grid coordinates, in
    /// meters.
    fn periodic_axis_dist(&self, a: usize, b: usize) -> f64 {
        let d = (a as isize - b as isize).unsigned_abs();
        let d = d.min(self.n - d);
        d as f64 * self.dx()
    }

    /// Effective 3-D distance between two flat state indices [m].
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        let (ax, ay, al) = self.decompose(a);
        let (bx, by, bl) = self.decompose(b);
        let dx = self.periodic_axis_dist(ax, bx);
        let dy = self.periodic_axis_dist(ay, by);
        let dz = (al as f64 - bl as f64).abs() * self.vertical_scale;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_boundary_values() {
        assert!((gaspari_cohn(0.0) - 1.0).abs() < 1e-15);
        assert_eq!(gaspari_cohn(2.0), 0.0);
        assert_eq!(gaspari_cohn(5.0), 0.0);
        // Continuity at the branch point r = 1: both branches give 5/12...
        // evaluate numerically from both sides.
        let below = gaspari_cohn(1.0 - 1e-9);
        let above = gaspari_cohn(1.0 + 1e-9);
        assert!((below - above).abs() < 1e-6, "{below} vs {above}");
    }

    #[test]
    fn gc_monotone_decreasing_and_bounded() {
        let mut prev = gaspari_cohn(0.0);
        for i in 1..=200 {
            let r = i as f64 * 0.01;
            let v = gaspari_cohn(r);
            assert!((0.0..=1.0).contains(&v), "out of range at r={r}: {v}");
            assert!(v <= prev + 1e-12, "not monotone at r={r}");
            prev = v;
        }
    }

    #[test]
    fn gc_symmetric() {
        assert_eq!(gaspari_cohn(-0.7), gaspari_cohn(0.7));
    }

    #[test]
    fn gc_continuous_near_support_edge() {
        assert!(gaspari_cohn(2.0 - 1e-9) < 1e-6);
    }

    #[test]
    fn geometry_decompose_round_trip() {
        let g = GridGeometry::new(8, 2, 8.0e5, 1.0e5);
        for idx in [0usize, 7, 8, 63, 64, 127] {
            let (ix, iy, l) = g.decompose(idx);
            assert_eq!(l * 64 + iy * 8 + ix, idx);
        }
        assert_eq!(g.state_dim(), 128);
    }

    #[test]
    fn periodic_distance_wraps() {
        let g = GridGeometry::new(8, 1, 8.0e5, 0.0);
        // dx = 1e5; points 0 and 7 on a ring of 8 are 1 cell apart.
        assert!((g.distance(0, 7) - 1.0e5).abs() < 1e-6);
        assert!((g.distance(0, 4) - 4.0e5).abs() < 1e-6);
        // symmetric
        assert_eq!(g.distance(2, 5), g.distance(5, 2));
        // zero to itself
        assert_eq!(g.distance(3, 3), 0.0);
    }

    #[test]
    fn vertical_separation_adds_in_quadrature() {
        let g = GridGeometry::new(8, 2, 8.0e5, 3.0e5);
        let a = 0; // (0,0,level 0)
        let b = 64; // (0,0,level 1)
        assert!((g.distance(a, b) - 3.0e5).abs() < 1e-6);
        let c = 64 + 4; // (4,0,level 1): horizontal 4e5, vertical 3e5 -> 5e5
        assert!((g.distance(a, c) - 5.0e5).abs() < 1e-6);
    }
}

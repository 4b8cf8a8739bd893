//! Fixed-tile partition of the state dimension across ranks.
//!
//! Not part of the sharded analysis, whose ranks own particles
//! ([`ensf::parallel::RankPlan`]). [`ShardPlan`] survives only to name the
//! state block [`crate::dist_analyze`] hands back to callers that
//! reassemble state blocks themselves (`benchmark/`'s traced replica); a
//! benchmark issue retires both together.

/// Contiguous-tile decomposition of a `dim`-dimensional state over ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    dim: usize,
    tile: usize,
    n_tiles: usize,
    /// Tile range `[t0, t1)` owned by each rank, contiguous and ascending.
    tile_ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Cuts `dim` state components into tiles of width `tile` and assigns
    /// contiguous tile runs to `ranks` ranks (earlier ranks get the extra
    /// tile when the count does not divide evenly). Ranks beyond the tile
    /// count own an empty range.
    ///
    /// # Panics
    /// Panics when `dim`, `tile` or `ranks` is zero.
    pub fn new(dim: usize, tile: usize, ranks: usize) -> Self {
        assert!(dim > 0, "state dimension must be positive");
        assert!(tile > 0, "tile width must be positive");
        assert!(ranks > 0, "need at least one rank");
        let n_tiles = dim.div_ceil(tile);
        let base = n_tiles / ranks;
        let extra = n_tiles % ranks;
        let mut tile_ranges = Vec::with_capacity(ranks);
        let mut t0 = 0;
        for r in 0..ranks {
            let count = base + usize::from(r < extra);
            tile_ranges.push((t0, t0 + count));
            t0 += count;
        }
        ShardPlan { dim, tile, n_tiles, tile_ranges }
    }

    /// State dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Tile width (the last tile may be narrower).
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Number of ranks in the plan.
    pub fn ranks(&self) -> usize {
        self.tile_ranges.len()
    }

    /// Element range `[lo, hi)` of tile `t`.
    ///
    /// # Panics
    /// Panics when `t` is out of range.
    fn tile_bounds(&self, t: usize) -> (usize, usize) {
        assert!(t < self.n_tiles, "tile {t} out of range");
        (t * self.tile, self.dim.min((t + 1) * self.tile))
    }

    /// Element range `[lo, hi)` owned by rank `r`.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    pub fn rank_range(&self, r: usize) -> (usize, usize) {
        let (t0, t1) = self.tile_ranges[r];
        if t0 == t1 {
            let lo = self.dim.min(t0 * self.tile);
            return (lo, lo);
        }
        (self.tile_bounds(t0).0, self.tile_bounds(t1 - 1).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_dim_exactly_once() {
        for (dim, tile, ranks) in [(512, 64, 4), (513, 64, 8), (100, 7, 3), (8, 64, 4)] {
            let plan = ShardPlan::new(dim, tile, ranks);
            // Tile bounds tile the dimension.
            let mut next = 0;
            for t in 0..plan.n_tiles {
                let (lo, hi) = plan.tile_bounds(t);
                assert_eq!(lo, next);
                assert!(hi > lo && hi <= dim);
                next = hi;
            }
            assert_eq!(next, dim);
            // Rank ranges are contiguous, ascending and cover the dimension.
            let mut elem = 0;
            for r in 0..ranks {
                let (lo, hi) = plan.rank_range(r);
                assert_eq!(lo, elem, "rank {r} range not contiguous");
                elem = hi;
            }
            assert_eq!(elem, dim);
        }
    }

    #[test]
    fn tile_layout_is_independent_of_rank_count() {
        // The partition into tiles must not change with the rank count —
        // only the ownership does.
        let reference = ShardPlan::new(8192, 64, 1);
        for ranks in [2, 3, 4, 8, 16, 200] {
            let plan = ShardPlan::new(8192, 64, ranks);
            assert_eq!(plan.n_tiles, reference.n_tiles);
            for t in 0..plan.n_tiles {
                assert_eq!(plan.tile_bounds(t), reference.tile_bounds(t));
            }
        }
    }

    #[test]
    fn more_ranks_than_tiles_leaves_trailing_ranks_empty() {
        let plan = ShardPlan::new(100, 64, 4); // 2 tiles, 4 ranks
        assert_eq!(plan.n_tiles, 2);
        assert_eq!(plan.rank_range(0), (0, 64));
        assert_eq!(plan.rank_range(1), (64, 100));
        // Empty ranges still sit at valid offsets.
        assert_eq!(plan.rank_range(2), (100, 100));
        assert_eq!(plan.rank_range(3), (100, 100));
    }

    #[test]
    fn extra_tiles_go_to_leading_ranks() {
        let plan = ShardPlan::new(7 * 64, 64, 3); // 7 tiles over 3 ranks
        assert_eq!(plan.tile_ranges, vec![(0, 3), (3, 5), (5, 7)]);
        assert_eq!(plan.rank_range(1), (3 * 64, 5 * 64));
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        let _ = ShardPlan::new(64, 64, 0);
    }
}

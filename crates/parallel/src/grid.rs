//! Spatial decomposition of the periodic cell into a rank grid.

use dp_md::Cell;

/// A `px × py × pz` grid of axis-aligned subdomains tiling a periodic
/// orthorhombic cell.
#[derive(Debug, Clone)]
pub struct DomainGrid {
    pub dims: [usize; 3],
    pub cell: Cell,
}

impl DomainGrid {
    pub fn new(cell: Cell, dims: [usize; 3]) -> Self {
        assert!(
            cell.periodic,
            "domain decomposition expects a periodic cell"
        );
        assert!(dims.iter().all(|&d| d >= 1));
        Self { dims, cell }
    }

    /// Pick a near-cubic grid for `n_ranks` (greedy factorization).
    pub fn balanced(cell: Cell, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1);
        let mut best = [n_ranks, 1, 1];
        let mut best_score = f64::INFINITY;
        for px in 1..=n_ranks {
            if !n_ranks.is_multiple_of(px) {
                continue;
            }
            let rest = n_ranks / px;
            for py in 1..=rest {
                if !rest.is_multiple_of(py) {
                    continue;
                }
                let pz = rest / py;
                let l = [
                    cell.lengths[0] / px as f64,
                    cell.lengths[1] / py as f64,
                    cell.lengths[2] / pz as f64,
                ];
                // prefer near-cubic subdomains (minimize surface/volume)
                let score = (l[0] * l[1] + l[1] * l[2] + l[0] * l[2])
                    / (l[0] * l[1] * l[2]).powf(2.0 / 3.0);
                if score < best_score {
                    best_score = score;
                    best = [px, py, pz];
                }
            }
        }
        Self::new(cell, best)
    }

    pub fn n_ranks(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Rank coordinates of a flat rank id.
    pub fn coords_of(&self, rank: usize) -> [usize; 3] {
        let z = rank % self.dims[2];
        let y = (rank / self.dims[2]) % self.dims[1];
        let x = rank / (self.dims[1] * self.dims[2]);
        [x, y, z]
    }

    pub fn rank_at(&self, coords: [usize; 3]) -> usize {
        (coords[0] * self.dims[1] + coords[1]) * self.dims[2] + coords[2]
    }

    /// Which rank owns a (wrapped) position.
    pub fn rank_of_position(&self, p: [f64; 3]) -> usize {
        let q = self.cell.wrap(p);
        let mut c = [0usize; 3];
        for d in 0..3 {
            let f = q[d] / self.cell.lengths[d] * self.dims[d] as f64;
            c[d] = (f as usize).min(self.dims[d] - 1);
        }
        self.rank_at(c)
    }

    /// `[lo, hi)` bounds of a rank's subdomain.
    pub fn bounds(&self, rank: usize) -> ([f64; 3], [f64; 3]) {
        let c = self.coords_of(rank);
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for d in 0..3 {
            let w = self.cell.lengths[d] / self.dims[d] as f64;
            lo[d] = c[d] as f64 * w;
            hi[d] = (c[d] + 1) as f64 * w;
        }
        (lo, hi)
    }

    /// Periodic distance from a point to a rank's subdomain (0 if inside).
    pub fn distance_to_domain(&self, p: [f64; 3], rank: usize) -> f64 {
        let q = self.cell.wrap(p);
        let (lo, hi) = self.bounds(rank);
        let mut d2 = 0.0;
        for d in 0..3 {
            let l = self.cell.lengths[d];
            let x = q[d];
            let dd = if x >= lo[d] && x < hi[d] {
                0.0
            } else {
                let a = (lo[d] - x).rem_euclid(l);
                let b = (x - hi[d]).rem_euclid(l);
                a.min(b)
            };
            d2 += dd * dd;
        }
        d2.sqrt()
    }

    /// Ranks (other than `rank`) whose domains come within `h` of `rank`'s
    /// domain — the communication partners for halo width `h`.
    pub fn neighbors_within(&self, rank: usize, h: f64) -> Vec<usize> {
        let (lo, hi) = self.bounds(rank);
        (0..self.n_ranks())
            .filter(|&r| {
                if r == rank {
                    return false;
                }
                let (rlo, rhi) = self.bounds(r);
                // min distance between the two boxes under PBC, per dim
                let mut d2 = 0.0;
                for d in 0..3 {
                    let l = self.cell.lengths[d];
                    // distance between intervals [lo,hi) and [rlo,rhi) on a circle
                    let a = (rlo[d] - hi[d]).rem_euclid(l);
                    let b = (lo[d] - rhi[d]).rem_euclid(l);
                    let dd = if intervals_overlap(lo[d], hi[d], rlo[d], rhi[d], l) {
                        0.0
                    } else {
                        a.min(b)
                    };
                    d2 += dd * dd;
                }
                d2.sqrt() < h
            })
            .collect()
    }
}

fn intervals_overlap(alo: f64, ahi: f64, blo: f64, bhi: f64, _l: f64) -> bool {
    // grid intervals never wrap, so plain overlap suffices
    alo < bhi && blo < ahi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> DomainGrid {
        DomainGrid::new(Cell::cubic(24.0), [2, 2, 2])
    }

    #[test]
    fn rank_coords_roundtrip() {
        let g = grid();
        for r in 0..g.n_ranks() {
            assert_eq!(g.rank_at(g.coords_of(r)), r);
        }
    }

    #[test]
    fn every_position_has_one_owner() {
        let g = grid();
        assert_eq!(g.rank_of_position([0.0, 0.0, 0.0]), 0);
        assert_eq!(g.rank_of_position([23.9, 23.9, 23.9]), 7);
        // boundary positions land in exactly one domain
        let r = g.rank_of_position([12.0, 0.0, 0.0]);
        let (lo, hi) = g.bounds(r);
        assert!(lo[0] <= 12.0 && 12.0 < hi[0]);
    }

    #[test]
    fn wrap_before_owning() {
        let g = grid();
        assert_eq!(
            g.rank_of_position([25.0, -1.0, 0.0]),
            g.rank_of_position([1.0, 23.0, 0.0])
        );
    }

    #[test]
    fn distance_to_own_domain_is_zero() {
        let g = grid();
        assert_eq!(g.distance_to_domain([3.0, 3.0, 3.0], 0), 0.0);
    }

    #[test]
    fn distance_wraps_periodically() {
        let g = grid();
        // point just below the top face is close to rank 0 via wrap in x
        let d = g.distance_to_domain([23.5, 1.0, 1.0], 0);
        assert!((d - 0.5).abs() < 1e-12, "wrapped distance {d}");
    }

    #[test]
    fn all_ranks_are_neighbors_in_2cubed() {
        // with 12 Å subdomains and 5 Å halo every pair touches
        let g = grid();
        for r in 0..8 {
            assert_eq!(g.neighbors_within(r, 5.0).len(), 7);
        }
    }

    #[test]
    fn distant_ranks_excluded_in_long_grid() {
        let g = DomainGrid::new(Cell::orthorhombic(60.0, 10.0, 10.0), [6, 1, 1]);
        let nb = g.neighbors_within(0, 4.0);
        // only the two x-adjacent ranks (1 and 5 via wrap)
        assert_eq!(nb, vec![1, 5]);
    }

    #[test]
    fn balanced_grid_is_near_cubic() {
        let g = DomainGrid::balanced(Cell::cubic(30.0), 8);
        assert_eq!(g.dims, [2, 2, 2]);
        let g = DomainGrid::balanced(Cell::orthorhombic(40.0, 20.0, 20.0), 4);
        assert_eq!(g.n_ranks(), 4);
        assert!(g.dims[0] >= g.dims[1]);
    }
}

//! O(N) cell-list neighbor search with a skin buffer.
//!
//! The paper updates the neighbor list "with a 2 Å buffer region ... every
//! 50 time steps" (§6.1). We reproduce that protocol: lists are built with
//! `cutoff + skin`, and [`NeighborList::needs_rebuild`] reports when any
//! atom has moved more than half the skin since the last build, which is
//! the standard sufficient condition for list validity.
//!
//! Lists are *full* (each pair appears in both atoms' lists) because the
//! DP descriptor needs every atom's complete environment, and are stored in
//! CSR form: one offsets array plus one flat `u32` neighbor array — the
//! cache-friendly analogue of the paper's contiguous GPU layout.

use crate::system::System;
use dp_obs::par;

/// CSR full neighbor list for the first `n_local` atoms of a system.
#[derive(Debug, Clone)]
pub struct NeighborList {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    /// Cutoff (including skin) the list was built with.
    pub cutoff: f64,
    /// Positions snapshot at build time, used by `needs_rebuild`.
    ref_positions: Vec<[f64; 3]>,
}

/// Reusable construction scratch for [`NeighborList::build_into`]: the
/// cell-list bins and the variable-length per-atom rows, each of which
/// keeps its capacity across rebuilds so the steady-state rebuild performs
/// no heap allocation (§5.2.2 arena reuse).
#[derive(Debug, Default, Clone)]
pub struct NlScratch {
    bins: Vec<Vec<u32>>,
    per_atom: Vec<Vec<u32>>,
}

impl NeighborList {
    /// An empty list, ready to be filled by [`build_into`](Self::build_into).
    pub fn empty() -> Self {
        Self {
            offsets: vec![0],
            neighbors: Vec::new(),
            cutoff: 0.0,
            ref_positions: Vec::new(),
        }
    }

    /// Build with a cell-list (falls back to brute force when the box is
    /// too small to bin at this cutoff).
    pub fn build(sys: &System, cutoff: f64) -> Self {
        let mut nl = Self::empty();
        nl.build_into(sys, cutoff, &mut NlScratch::default());
        nl
    }

    /// Rebuild in place, reusing this list's CSR buffers and the caller's
    /// scratch. Steady-state rebuilds (same system size, similar density)
    /// allocate nothing.
    pub fn build_into(&mut self, sys: &System, cutoff: f64, scratch: &mut NlScratch) {
        assert!(cutoff > 0.0, "cutoff must be positive");
        if sys.cell.periodic {
            assert!(
                cutoff <= sys.cell.max_cutoff() + 1e-9,
                "cutoff {cutoff} exceeds minimum-image limit {}",
                sys.cell.max_cutoff()
            );
        }
        let nbins = Self::bin_counts(sys, cutoff);
        if sys.cell.periodic && nbins.iter().any(|&b| b < 3) {
            Self::fill_brute_force(sys, cutoff, &mut scratch.per_atom);
        } else {
            Self::fill_binned(sys, cutoff, nbins, scratch);
        }
        self.fill_from_per_atom(sys, cutoff, &scratch.per_atom[..sys.n_local]);
    }

    /// Reference O(N²) construction, used for small systems and as the
    /// oracle the cell-list implementation is tested against.
    pub fn build_brute_force(sys: &System, cutoff: f64) -> Self {
        let mut per_atom = Vec::new();
        Self::fill_brute_force(sys, cutoff, &mut per_atom);
        let mut nl = Self::empty();
        nl.fill_from_per_atom(sys, cutoff, &per_atom[..sys.n_local]);
        nl
    }

    fn ensure_rows(rows: &mut Vec<Vec<u32>>, n: usize) {
        if rows.len() < n {
            rows.resize_with(n, Vec::new);
        }
    }

    fn fill_brute_force(sys: &System, cutoff: f64, per_atom: &mut Vec<Vec<u32>>) {
        let n = sys.len();
        let c2 = cutoff * cutoff;
        Self::ensure_rows(per_atom, sys.n_local);
        par::chunks_mut(&mut per_atom[..sys.n_local], 1, |i, row| {
            let list = &mut row[0];
            list.clear();
            for j in 0..n {
                if j != i && sys.cell.distance2(sys.positions[i], sys.positions[j]) < c2 {
                    list.push(j as u32);
                }
            }
        });
    }

    fn bin_counts(sys: &System, cutoff: f64) -> [usize; 3] {
        let mut nbins = [1usize; 3];
        if sys.cell.periodic {
            for (n, l) in nbins.iter_mut().zip(sys.cell.lengths) {
                *n = (l / cutoff).floor().max(1.0) as usize;
            }
        } else {
            let (lo, hi) = Self::extent(sys);
            for (d, n) in nbins.iter_mut().enumerate() {
                *n = (((hi[d] - lo[d]) / cutoff).floor().max(1.0) as usize).max(1);
            }
        }
        nbins
    }

    fn extent(sys: &System) -> ([f64; 3], [f64; 3]) {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in &sys.positions {
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        for d in 0..3 {
            // Avoid zero-width extents for planar/degenerate inputs.
            if hi[d] - lo[d] < 1e-9 {
                hi[d] = lo[d] + 1e-9;
            }
        }
        (lo, hi)
    }

    fn fill_binned(sys: &System, cutoff: f64, nbins: [usize; 3], scratch: &mut NlScratch) {
        let c2 = cutoff * cutoff;
        let periodic = sys.cell.periodic;
        let (lo, hi) = if periodic {
            ([0.0; 3], sys.cell.lengths)
        } else {
            Self::extent(sys)
        };
        let width = [
            (hi[0] - lo[0]) / nbins[0] as f64,
            (hi[1] - lo[1]) / nbins[1] as f64,
            (hi[2] - lo[2]) / nbins[2] as f64,
        ];

        let bin_of = |p: [f64; 3]| -> [isize; 3] {
            let q = if periodic { sys.cell.wrap(p) } else { p };
            let mut b = [0isize; 3];
            for d in 0..3 {
                let idx = ((q[d] - lo[d]) / width[d]).floor() as isize;
                b[d] = idx.clamp(0, nbins[d] as isize - 1);
            }
            b
        };
        let flat = |b: [isize; 3]| -> usize {
            (b[0] as usize * nbins[1] + b[1] as usize) * nbins[2] + b[2] as usize
        };

        // Bucket every atom (locals and ghosts both act as sources).
        let nbin_total = nbins[0] * nbins[1] * nbins[2];
        Self::ensure_rows(&mut scratch.bins, nbin_total);
        for b in &mut scratch.bins[..nbin_total] {
            b.clear();
        }
        for (i, &p) in sys.positions.iter().enumerate() {
            scratch.bins[flat(bin_of(p))].push(i as u32);
        }
        let bins = &scratch.bins;

        Self::ensure_rows(&mut scratch.per_atom, sys.n_local);
        par::chunks_mut(&mut scratch.per_atom[..sys.n_local], 1, |i, row| {
            let list = &mut row[0];
            list.clear();
            let pi = sys.positions[i];
            let bi = bin_of(pi);
            for dx in -1..=1isize {
                for dy in -1..=1isize {
                    for dz in -1..=1isize {
                        let mut nb = [bi[0] + dx, bi[1] + dy, bi[2] + dz];
                        if periodic {
                            for d in 0..3 {
                                nb[d] = nb[d].rem_euclid(nbins[d] as isize);
                            }
                        } else {
                            if nb.iter().zip(&nbins).any(|(&b, &n)| b < 0 || b >= n as isize) {
                                continue;
                            }
                        }
                        for &j in &bins[flat(nb)] {
                            if j as usize != i
                                && sys.cell.distance2(pi, sys.positions[j as usize]) < c2
                            {
                                list.push(j);
                            }
                        }
                    }
                }
            }
            // Deduplicate: with <3 bins along an axis in the open case a
            // neighbor bin can be visited twice.
            list.sort_unstable();
            list.dedup();
        });
    }

    fn fill_from_per_atom(&mut self, sys: &System, cutoff: f64, per_atom: &[Vec<u32>]) {
        self.offsets.clear();
        self.offsets.push(0usize);
        self.neighbors.clear();
        for list in per_atom {
            self.neighbors.extend_from_slice(list);
            self.offsets.push(self.neighbors.len());
        }
        self.cutoff = cutoff;
        self.ref_positions.clone_from(&sys.positions);
    }

    /// Number of atoms that have lists (the local atoms at build time).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbor indices of atom `i`.
    #[inline]
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total number of (directed) pairs.
    pub fn num_pairs(&self) -> usize {
        self.neighbors.len()
    }

    /// Mean neighbor count.
    pub fn mean_neighbors(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.neighbors.len() as f64 / self.len() as f64
        }
    }

    /// True when some atom has moved more than `skin/2` since the list was
    /// built, i.e. a pair could have entered the bare cutoff unseen.
    pub fn needs_rebuild(&self, sys: &System, skin: f64) -> bool {
        let lim2 = (0.5 * skin) * (0.5 * skin);
        sys.positions
            .iter()
            .zip(self.ref_positions.iter())
            .any(|(&p, &q)| sys.cell.distance2(p, q) > lim2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::units;
    use crate::CounterRng;

    fn random_system(n: usize, l: f64, seed: u64) -> System {
        let mut rng = CounterRng::new(seed);
        let positions = (0..n)
            .map(|_| [rng.range(0.0, l), rng.range(0.0, l), rng.range(0.0, l)])
            .collect();
        System::new(Cell::cubic(l), positions, vec![0; n], vec![units::MASS_CU])
    }

    #[test]
    fn cell_list_matches_brute_force() {
        let sys = random_system(400, 24.0, 5);
        let fast = NeighborList::build(&sys, 6.0);
        let slow = NeighborList::build_brute_force(&sys, 6.0);
        assert_eq!(fast.len(), slow.len());
        for i in 0..fast.len() {
            let mut a = fast.neighbors_of(i).to_vec();
            let mut b = slow.neighbors_of(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "atom {i}");
        }
    }

    #[test]
    fn list_is_symmetric() {
        let sys = random_system(200, 18.0, 6);
        let nl = NeighborList::build(&sys, 5.0);
        for i in 0..nl.len() {
            for &j in nl.neighbors_of(i) {
                assert!(
                    nl.neighbors_of(j as usize).contains(&(i as u32)),
                    "pair ({i},{j}) not symmetric"
                );
            }
        }
    }

    #[test]
    fn small_box_brute_force_fallback() {
        // 2 bins per axis would alias images; must still be correct.
        let sys = random_system(50, 10.0, 7);
        let nl = NeighborList::build(&sys, 5.0);
        let slow = NeighborList::build_brute_force(&sys, 5.0);
        for i in 0..nl.len() {
            let mut a = nl.neighbors_of(i).to_vec();
            let mut b = slow.neighbors_of(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn no_self_neighbors() {
        let sys = random_system(100, 15.0, 8);
        let nl = NeighborList::build(&sys, 5.0);
        for i in 0..nl.len() {
            assert!(!nl.neighbors_of(i).contains(&(i as u32)));
        }
    }

    #[test]
    fn ghost_atoms_are_sources_not_owners() {
        let mut sys = random_system(100, 30.0, 9);
        sys.cell = Cell::open(30.0, 30.0, 30.0);
        sys.n_local = 60;
        let nl = NeighborList::build(&sys, 6.0);
        assert_eq!(nl.len(), 60);
        // ghosts can appear in neighbor lists
        let any_ghost = (0..nl.len())
            .flat_map(|i| nl.neighbors_of(i))
            .any(|&j| j as usize >= 60);
        assert!(any_ghost, "expected some ghost neighbors");
    }

    #[test]
    fn rebuild_trigger() {
        let mut sys = random_system(20, 20.0, 10);
        let nl = NeighborList::build(&sys, 6.0);
        assert!(!nl.needs_rebuild(&sys, 2.0));
        sys.positions[3][0] += 1.5; // > skin/2 = 1.0
        assert!(nl.needs_rebuild(&sys, 2.0));
    }

    #[test]
    fn neighbor_counts_match_density() {
        // Ideal-gas estimate: 4/3 π r³ ρ neighbors on average.
        let n = 2000;
        let l = 40.0;
        let sys = random_system(n, l, 11);
        let rc = 6.0;
        let nl = NeighborList::build(&sys, rc);
        let expect = 4.0 / 3.0 * std::f64::consts::PI * rc.powi(3) * (n as f64 / l.powi(3));
        let got = nl.mean_neighbors();
        assert!(
            (got - expect).abs() / expect < 0.15,
            "mean {got} vs ideal {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds minimum-image limit")]
    fn oversized_cutoff_panics() {
        let sys = random_system(10, 8.0, 12);
        let _ = NeighborList::build(&sys, 5.0);
    }
}

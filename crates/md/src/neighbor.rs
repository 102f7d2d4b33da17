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
//!
//! One search serves every cell, periodic or open, whatever its shape.
//! Positions are wrapped once and counting-sorted into bins at least the
//! cutoff wide, at most one bin per atom, so a dilute box costs O(N), not
//! its volume. Each atom visits each neighboring bin exactly once: per
//! axis `{b−1, b, b+1}` (mod `n` in a periodic cell) when the axis has
//! three or more bins, otherwise every bin on it. No pair is seen twice
//! and no box falls back to all-pairs. A candidate is tested on a
//! compare-and-subtract minimum image of the wrapped coordinates, and only
//! a pair within rounding of the cutoff consults [`Cell::distance2`], whose
//! verdict alone decides membership: a list holds exactly the pairs
//! [`NeighborList::build_brute_force`] (the test oracle) holds, each row in
//! ascending atom order.
//!
//! [`Cell::distance2`]: crate::Cell::distance2

use crate::system::System;

/// CSR full neighbor list for the first `n_local` atoms of a system.
#[derive(Debug, Clone)]
pub struct NeighborList {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    /// Cutoff (including skin) the list was built with.
    pub cutoff: f64,
    /// Owned positions (`..n_local`) at build time, for `needs_rebuild`.
    ref_positions: Vec<[f64; 3]>,
}

/// Reusable construction scratch for [`NeighborList::build_into`]: the
/// wrapped positions and the counting-sorted bins, flat arrays that keep
/// their capacity across rebuilds so the steady-state rebuild performs no
/// heap allocation (§5.2.2 arena reuse).
#[derive(Debug, Default, Clone)]
pub struct NlScratch {
    /// Per atom, in atom order: wrapped position and flat bin index.
    wrapped: Vec<[f64; 3]>,
    bin: Vec<u32>,
    /// `start[b]..start[b + 1]` is bin `b`'s range of `by_bin` and
    /// `ids`.
    start: Vec<u32>,
    /// Wrapped coordinates, one array per axis, and atom indices, grouped
    /// by bin, ascending index within a bin.
    by_bin: [Vec<f64>; 3],
    ids: Vec<u32>,
    /// One atom's candidates and their cheap squared distances.
    cand: Vec<u32>,
    cand_d2: Vec<f64>,
}

/// The bin grid of one build.
struct Grid {
    n: [usize; 3],
    origin: [f64; 3],
    /// Bins per unit length.
    inv_w: [f64; 3],
    periodic: bool,
}

impl Grid {
    /// Bins of width at least `reach` plus rounding slack over `ext`, at
    /// most one per atom.
    ///
    /// Bin coordinates `(q − origin)·n/ext` carry an absolute error of a
    /// few `ε·n`, and two coordinates less than `reach` apart (as the
    /// candidate test computes them, to within `ε·ext`) differ by less
    /// than `reach·n/ext` in it; `8ε·ext` of extra width keeps that sum
    /// below one bin, so such a pair always lands in the same or adjacent
    /// bins. Wider bins stay correct, which is what lets the cap merge
    /// them.
    fn new(periodic: bool, origin: [f64; 3], ext: [f64; 3], reach: f64, atoms: usize) -> Self {
        let mut n: [f64; 3] = std::array::from_fn(|d| {
            (ext[d] / (reach + 8.0 * f64::EPSILON * ext[d]))
                .floor()
                .max(1.0)
        });
        // Without the cap the grid grows with the box volume, not with N
        // (and its size overflows `usize` past about 1e7 Å of edge).
        // Shrink all axes alike first, then the longest until it fits.
        let cap = atoms.max(1) as f64;
        let total = |n: &[f64; 3]| n[0] * n[1] * n[2];
        if total(&n) > cap {
            let s = (cap / total(&n)).cbrt();
            n = n.map(|x| (x * s).floor().max(1.0));
        }
        while total(&n) > cap {
            let d = (0..3).fold(0, |a, b| if n[b] > n[a] { b } else { a });
            n[d] = (n[d] * cap / total(&n)).floor().max(1.0);
        }
        let n = n.map(|x| x as usize);
        Self {
            n,
            origin,
            inv_w: std::array::from_fn(|d| n[d] as f64 / ext[d]),
            periodic,
        }
    }

    fn len(&self) -> usize {
        self.n[0] * self.n[1] * self.n[2]
    }

    /// Flat bin of a wrapped position. `as` truncates toward zero and
    /// saturates, and the `min` keeps a coordinate that rounds up to the
    /// far edge in the last bin.
    fn flat(&self, q: [f64; 3]) -> usize {
        let b: [usize; 3] = std::array::from_fn(|d| {
            (((q[d] - self.origin[d]) * self.inv_w[d]) as usize).min(self.n[d] - 1)
        });
        (b[0] * self.n[1] + b[1]) * self.n[2] + b[2]
    }

    /// The bins on axis `d` that neighbor bin `b` (itself included), each
    /// once: the first `len` entries of the array.
    fn axis(&self, d: usize, b: usize) -> ([usize; 3], usize) {
        let n = self.n[d];
        if n < 3 {
            ([0, 1, 2], n)
        } else if self.periodic {
            ([(b + n - 1) % n, b, (b + 1) % n], 3)
        } else if b == 0 {
            ([0, 1, 0], 2)
        } else if b == n - 1 {
            ([b - 1, b, 0], 2)
        } else {
            ([b - 1, b, b + 1], 3)
        }
    }
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

    /// Build with the cell list, for any box (see the module doc).
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
        let cell = &sys.cell;
        if cell.periodic {
            assert!(
                cutoff <= cell.max_cutoff() + 1e-9,
                "cutoff {cutoff} exceeds minimum-image limit {}",
                cell.max_cutoff()
            );
        }
        let NlScratch {
            wrapped,
            bin,
            start,
            by_bin,
            ids,
            cand,
            cand_d2,
        } = scratch;

        // Wrap once. The extent bins an open cell; the largest coordinate
        // sizes the rounding band below.
        wrapped.clear();
        let (mut lo, mut hi) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
        let mut x_max = 0.0f64;
        for &p in &sys.positions {
            let q = cell.wrap(p);
            for d in 0..3 {
                x_max = x_max.max(p[d].abs());
                lo[d] = lo[d].min(q[d]);
                hi[d] = hi[d].max(q[d]);
            }
            wrapped.push(q);
        }
        let (origin, ext) = if cell.periodic {
            ([0.0; 3], cell.lengths)
        } else {
            // a planar or single-atom extent still gets its one bin
            (lo, std::array::from_fn(|d| (hi[d] - lo[d]).max(1e-9)))
        };

        // The rounding band. Per axis the cheap displacement below (a
        // difference of `Cell::wrap`ped coordinates, each within about
        // 3u·X of an exact image, u = ε/2, X = the largest |coordinate|
        // plus the longest edge) and `Cell::displacement`'s (a raw
        // difference up to 2X less `l·round(d/l)`) each land within about
        // 8u·X of the exact minimum-image length, which is continuous
        // where the two pick different images at a half-box tie. So they
        // differ by at most δ = 8ε·X (2× spare), their lengths by √3·δ,
        // and each computed square sum is within 2ε of its own: a cheap d²
        // below r_c² − tol has the exact expression below r_c², above
        // r_c² + tol not, for tol = 4r_c·δ + 4δ² + 8ε·r_c² (≥ 2√3·r_c·δ +
        // 3δ² + 4ε·r_c²). That is about 1e-13·r_c² for atoms near the
        // box, 1e-8·r_c² a million boxes out; in an open cell the cheap
        // and the exact expression are the same bits anyway.
        let c2 = cutoff * cutoff;
        let eps = f64::EPSILON;
        let delta = 8.0 * eps * (x_max + ext[0].max(ext[1]).max(ext[2]));
        let tol = 4.0 * cutoff * delta + 4.0 * delta * delta + 8.0 * eps * c2;
        let (inside, outside) = (c2 - tol, c2 + tol);
        let grid = Grid::new(cell.periodic, origin, ext, outside.sqrt(), sys.len());

        // Counting sort by bin: count, prefix sum, scatter (which leaves
        // each `start[b]` at bin b's end), shift back.
        let nbins = grid.len();
        start.clear();
        start.resize(nbins + 1, 0);
        bin.clear();
        for &q in wrapped.iter() {
            let b = grid.flat(q);
            bin.push(b as u32);
            start[b + 1] += 1;
        }
        for b in 0..nbins {
            start[b + 1] += start[b];
        }
        let n_atoms = wrapped.len();
        for c in by_bin.iter_mut() {
            c.resize(n_atoms, 0.0);
        }
        ids.resize(n_atoms, 0);
        for (i, (&q, &b)) in wrapped.iter().zip(bin.iter()).enumerate() {
            let slot = &mut start[b as usize];
            let t = *slot as usize;
            for d in 0..3 {
                by_bin[d][t] = q[d];
            }
            ids[t] = i as u32;
            *slot += 1;
        }
        start.copy_within(0..nbins, 1);
        start[0] = 0;

        let (half, len) = if cell.periodic {
            (cell.lengths.map(|l| 0.5 * l), cell.lengths)
        } else {
            ([f64::INFINITY; 3], [0.0; 3])
        };
        let (ny, nz) = (grid.n[1], grid.n[2]);
        let [cx, cy, cz] = &*by_bin;
        self.offsets.clear();
        self.offsets.push(0);
        self.neighbors.clear();
        for i in 0..sys.n_local {
            let pi = wrapped[i];
            let b = bin[i] as usize;
            let (xs, kx) = grid.axis(0, b / (ny * nz));
            let (ys, ky) = grid.axis(1, b / nz % ny);
            let (zs, kz) = grid.axis(2, b % nz);
            // Gather the candidates' indices and cheap squared distances
            // (a loop the compiler vectorizes), then keep the near ones.
            let mut m = 0;
            for &bx in &xs[..kx] {
                for &by in &ys[..ky] {
                    let base = (bx * ny + by) * nz;
                    for &bz in &zs[..kz] {
                        let (s, e) = (start[base + bz] as usize, start[base + bz + 1] as usize);
                        let next = m + e - s;
                        if cand.len() < next {
                            cand.resize(next, 0);
                            cand_d2.resize(next, 0.0);
                        }
                        cand[m..next].copy_from_slice(&ids[s..e]);
                        let out = &mut cand_d2[m..next];
                        for (((o, &x), &y), &z) in
                            out.iter_mut().zip(&cx[s..e]).zip(&cy[s..e]).zip(&cz[s..e])
                        {
                            let d = [x - pi[0], y - pi[1], z - pi[2]];
                            // minimum image as two selects, not branches
                            let d: [f64; 3] = std::array::from_fn(|a| {
                                let up = if d[a] > half[a] { len[a] } else { 0.0 };
                                let down = if d[a] < -half[a] { len[a] } else { 0.0 };
                                d[a] - up + down
                            });
                            *o = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                        }
                        m = next;
                    }
                }
            }
            let row = self.neighbors.len();
            for (&j, &d2) in cand[..m].iter().zip(&cand_d2[..m]) {
                if d2 < outside
                    && j as usize != i
                    && (d2 < inside
                        || cell.distance2(sys.positions[i], sys.positions[j as usize]) < c2)
                {
                    self.neighbors.push(j);
                }
            }
            self.neighbors[row..].sort_unstable();
            self.offsets.push(self.neighbors.len());
        }
        self.cutoff = cutoff;
        self.ref_positions.clear();
        self.ref_positions
            .extend_from_slice(&sys.positions[..sys.n_local]);
    }

    /// Reference O(N²) construction: every pair through
    /// [`Cell::distance2`](crate::Cell::distance2). It is the oracle the
    /// cell list is tested against, and nothing else builds with it.
    pub fn build_brute_force(sys: &System, cutoff: f64) -> Self {
        let c2 = cutoff * cutoff;
        let mut nl = Self::empty();
        for i in 0..sys.n_local {
            for j in 0..sys.len() {
                if j != i && sys.cell.distance2(sys.positions[i], sys.positions[j]) < c2 {
                    nl.neighbors.push(j as u32);
                }
            }
            nl.offsets.push(nl.neighbors.len());
        }
        nl.cutoff = cutoff;
        nl.ref_positions
            .extend_from_slice(&sys.positions[..sys.n_local]);
        nl
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

    /// True when some owned atom (`..n_local`) has moved more than
    /// `skin/2` since the list was built, i.e. a pair could have entered
    /// the bare cutoff unseen.
    ///
    /// Owned atoms suffice on a domain-decomposed rank too, when the halo is
    /// `cutoff + skin` and the verdict is all-reduced over the ranks: every
    /// ghost is an image of an atom some rank owns, so "no owned atom on
    /// any rank moved more than skin/2" bounds every atom's motion. An atom
    /// that was no ghost at the build lay beyond `cutoff + skin` of the
    /// domain, which held every owned atom then, so it is still at least
    /// `cutoff + skin − skin/2 − skin/2 = cutoff` from each of them.
    pub fn needs_rebuild(&self, sys: &System, skin: f64) -> bool {
        let lim2 = (0.5 * skin) * (0.5 * skin);
        sys.positions[..sys.n_local]
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

    /// Same rows in the same order as the all-pairs oracle.
    fn assert_matches_brute_force(sys: &System, cutoff: f64) {
        let fast = NeighborList::build(sys, cutoff);
        let slow = NeighborList::build_brute_force(sys, cutoff);
        assert_eq!(fast.len(), slow.len());
        for i in 0..fast.len() {
            assert_eq!(fast.neighbors_of(i), slow.neighbors_of(i), "atom {i}");
        }
    }

    #[test]
    fn cell_list_matches_brute_force() {
        assert_matches_brute_force(&random_system(400, 24.0, 5), 6.0);
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
    fn few_bins_per_axis_match_brute_force() {
        // one or two bins on an axis: every bin on it is visited, once
        assert_matches_brute_force(&random_system(50, 10.0, 7), 5.0);
        let mut line = random_system(200, 12.0, 13);
        line.cell = Cell::orthorhombic(12.0, 12.0, 240.0);
        for p in &mut line.positions {
            p[2] *= 20.0;
        }
        assert_matches_brute_force(&line, 5.5);
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
        // a ghost's motion is its owner's business
        sys.n_local = 10;
        let nl = NeighborList::build(&sys, 6.0);
        sys.positions[13][0] += 1.5;
        assert!(!nl.needs_rebuild(&sys, 2.0));
        sys.positions[3][0] += 1.5;
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
        let got = nl.num_pairs() as f64 / nl.len() as f64;
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

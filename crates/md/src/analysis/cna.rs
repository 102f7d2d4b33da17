//! Common neighbor analysis (CNA).
//!
//! Fig 7 of the paper colors a deformed nanocrystalline copper sample by
//! local structure: fcc atoms in grains, hcp atoms marking stacking faults,
//! and "other" atoms at grain boundaries. The paper cites the classic CNA
//! scheme of Clarke & Jónsson; we implement the standard signature
//! classification: for each bonded pair, the triple
//! `(common neighbors, bonds among them, longest bond chain)` — an atom is
//! fcc when all 12 of its pairs are (4,2,1) and hcp when 6 are (4,2,1) and
//! 6 are (4,2,2).

use crate::neighbor::NeighborList;
use crate::system::System;
use dp_obs::par;

/// Per-atom structural class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CnaClass {
    Fcc,
    Hcp,
    Other,
}

/// Aggregate counts over a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CnaCounts {
    pub fcc: usize,
    pub hcp: usize,
    pub other: usize,
}

impl CnaCounts {
    pub fn total(&self) -> usize {
        self.fcc + self.hcp + self.other
    }

    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.fcc as f64 / t,
            self.hcp as f64 / t,
            self.other as f64 / t,
        )
    }
}

/// Recommended CNA cutoff for an fcc lattice constant `a0`: halfway between
/// the first (a/√2) and second (a) neighbor shells.
pub fn fcc_cutoff(a0: f64) -> f64 {
    0.5 * (1.0 / 2f64.sqrt() + 1.0) * a0
}

/// The (ncn, nb, lmax) signature of one bonded pair.
fn pair_signature(bonds: &[Vec<u32>], i: usize, j: usize) -> (u8, u8, u8) {
    // common neighbors of i and j (bonded to both)
    let (a, b) = (&bonds[i], &bonds[j]);
    let mut common: Vec<u32> = Vec::with_capacity(8);
    let (mut p, mut q) = (0usize, 0usize);
    while p < a.len() && q < b.len() {
        match a[p].cmp(&b[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                if a[p] as usize != i && a[p] as usize != j {
                    common.push(a[p]);
                }
                p += 1;
                q += 1;
            }
        }
    }
    let ncn = common.len();
    if ncn == 0 {
        return (0, 0, 0);
    }
    // bonds among the common neighbors
    let mut adj = vec![0u32; ncn]; // bitmask adjacency (ncn <= 32 always here)
    let mut nb = 0usize;
    for x in 0..ncn {
        for y in (x + 1)..ncn {
            let (cx, cy) = (common[x] as usize, common[y]);
            if bonds[cx].binary_search(&cy).is_ok() {
                adj[x] |= 1 << y;
                adj[y] |= 1 << x;
                nb += 1;
            }
        }
    }
    // longest simple chain of bonds among common neighbors (standard third
    // CNA index). Sets are tiny (<= ~6), so DFS is fine.
    fn dfs(adj: &[u32], visited: u32, node: usize) -> u8 {
        let mut best = 0u8;
        let mut nbrs = adj[node] & !visited;
        while nbrs != 0 {
            let nxt = nbrs.trailing_zeros() as usize;
            nbrs &= nbrs - 1;
            let len = 1 + dfs(adj, visited | (1 << nxt), nxt);
            best = best.max(len);
        }
        best
    }
    let mut lmax = 0u8;
    for start in 0..ncn {
        lmax = lmax.max(dfs(&adj, 1 << start, start));
    }
    (ncn as u8, nb as u8, lmax)
}

/// Classify every local atom. `nl` must have been built with the CNA
/// cutoff (see [`fcc_cutoff`]), *not* the potential cutoff.
pub fn classify(sys: &System, nl: &NeighborList) -> Vec<CnaClass> {
    // Sorted bond lists for every atom (including ghosts as bond targets;
    // ghosts themselves get empty lists and classify as Other).
    let n = sys.len();
    let mut bonds: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, b) in bonds.iter_mut().enumerate().take(nl.len()) {
        let mut v = nl.neighbors_of(i).to_vec();
        v.sort_unstable();
        *b = v;
    }

    par::map(sys.n_local, |i| {
        if bonds[i].len() != 12 {
            return CnaClass::Other;
        }
        let mut n421 = 0;
        let mut n422 = 0;
        for &j in &bonds[i] {
            // signature needs j's bonds too; ghost bonds are empty,
            // which safely classifies boundary atoms as Other.
            match pair_signature(&bonds, i, j as usize) {
                (4, 2, 1) => n421 += 1,
                (4, 2, 2) => n422 += 1,
                _ => {}
            }
        }
        match (n421, n422) {
            (12, 0) => CnaClass::Fcc,
            (6, 6) => CnaClass::Hcp,
            _ => CnaClass::Other,
        }
    })
}

/// Classify and count.
pub fn count(sys: &System, nl: &NeighborList) -> CnaCounts {
    let mut c = CnaCounts::default();
    for class in classify(sys, nl) {
        match class {
            CnaClass::Fcc => c.fcc += 1,
            CnaClass::Hcp => c.hcp += 1,
            CnaClass::Other => c.other += 1,
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice;
    use crate::units;

    #[test]
    fn perfect_fcc_is_all_fcc() {
        let sys = lattice::fcc(3.615, [4, 4, 4], units::MASS_CU);
        let nl = NeighborList::build(&sys, fcc_cutoff(3.615));
        let c = count(&sys, &nl);
        assert_eq!(c.fcc, sys.len());
        assert_eq!(c.hcp, 0);
        assert_eq!(c.other, 0);
    }

    #[test]
    fn hcp_lattice_is_all_hcp() {
        // Build an ideal hcp crystal: ABAB stacking of close-packed planes.
        let a = 2.556; // nearest-neighbor distance
        let c_over_2 = a * (2.0f64 / 3.0).sqrt();
        let nx = 6;
        let ny = 4;
        let nz = 4; // 2 planes per c cell
        let mut positions = Vec::new();
        let row_h = a * 3f64.sqrt() / 2.0;
        for iz in 0..nz {
            for layer in 0..2 {
                let z = (iz * 2 + layer) as f64 * c_over_2;
                let (ox, oy) = if layer == 0 {
                    (0.0, 0.0)
                } else {
                    (a / 2.0, row_h / 3.0)
                };
                for iy in 0..ny {
                    for ix in 0..nx {
                        let x = ix as f64 * a + (iy % 2) as f64 * (a / 2.0) + ox;
                        let y = iy as f64 * row_h + oy;
                        positions.push([x, y, z]);
                    }
                }
            }
        }
        let cell = crate::cell::Cell::orthorhombic(
            nx as f64 * a,
            ny as f64 * row_h,
            nz as f64 * 2.0 * c_over_2,
        );
        let n = positions.len();
        let sys = System::new(cell, positions, vec![0; n], vec![units::MASS_CU]);
        let nl = NeighborList::build(&sys, fcc_cutoff(a * 2f64.sqrt()));
        let c = count(&sys, &nl);
        assert!(
            c.hcp as f64 / c.total() as f64 > 0.9,
            "hcp fraction too low: {c:?}"
        );
    }

    #[test]
    fn molten_structure_is_mostly_other() {
        use crate::CounterRng;
        let mut rng = CounterRng::new(55);
        let n = 500;
        let l = 18.0;
        let positions: Vec<[f64; 3]> = (0..n)
            .map(|_| [rng.range(0.0, l), rng.range(0.0, l), rng.range(0.0, l)])
            .collect();
        let sys = System::new(
            crate::cell::Cell::cubic(l),
            positions,
            vec![0; n],
            vec![units::MASS_CU],
        );
        let nl = NeighborList::build(&sys, fcc_cutoff(3.615));
        let c = count(&sys, &nl);
        assert!(
            c.other as f64 / c.total() as f64 > 0.95,
            "random gas misclassified: {c:?}"
        );
    }

    #[test]
    fn thermal_noise_tolerated() {
        use crate::CounterRng;
        let mut sys = lattice::fcc(3.615, [4, 4, 4], units::MASS_CU);
        let mut rng = CounterRng::new(56);
        sys.perturb(0.08, &mut rng); // small thermal-ish displacement
        let nl = NeighborList::build(&sys, fcc_cutoff(3.615));
        let c = count(&sys, &nl);
        assert!(
            c.fcc as f64 / c.total() as f64 > 0.9,
            "thermal fcc misclassified: {c:?}"
        );
    }

    #[test]
    fn fcc_cutoff_between_shells() {
        let rc = fcc_cutoff(3.615);
        assert!(rc > 3.615 / 2f64.sqrt());
        assert!(rc < 3.615);
    }
}

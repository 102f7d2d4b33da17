//! Nanocrystalline sample generation (Fig 7 substrate).
//!
//! The paper's showcase application is a 10,401,218-atom nanocrystalline
//! copper sample of 64 randomly oriented grains. We reproduce the standard
//! Voronoi construction at configurable scale: seed points partition the
//! periodic box; each Voronoi cell is filled with an fcc lattice in a
//! random orientation; atoms closer than a merge distance at the resulting
//! grain boundaries are pruned.

use crate::cell::Cell;
use crate::system::System;
use crate::units;
use crate::CounterRng;

/// A grain: a Voronoi seed plus a lattice orientation.
#[derive(Debug, Clone, Copy)]
pub struct Grain {
    pub seed: [f64; 3],
    /// Row-major 3×3 rotation matrix.
    pub rotation: [[f64; 3]; 3],
}

/// Random rotation matrix via Gram–Schmidt on Gaussian vectors.
fn random_rotation(rng: &mut CounterRng) -> [[f64; 3]; 3] {
    let mut a = [rng.gauss(), rng.gauss(), rng.gauss()];
    let mut b = [rng.gauss(), rng.gauss(), rng.gauss()];
    let norm = |v: [f64; 3]| {
        let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        [v[0] / n, v[1] / n, v[2] / n]
    };
    a = norm(a);
    let dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
    for d in 0..3 {
        b[d] -= dot * a[d];
    }
    b = norm(b);
    let c = [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ];
    [a, b, c]
}

/// Build a periodic Voronoi polycrystal of fcc grains.
///
/// * `box_len` — cubic box edge (Å),
/// * `n_grains` — number of Voronoi seeds (paper: 64),
/// * `a0` — fcc lattice constant (copper: 3.615 Å),
/// * `merge_dist` — prune one of any boundary pair closer than this
///   (typical: ~0.7 of nearest-neighbor distance).
pub fn voronoi_fcc(
    box_len: f64,
    n_grains: usize,
    a0: f64,
    merge_dist: f64,
    rng: &mut CounterRng,
) -> System {
    assert!(n_grains >= 1);
    let grains: Vec<Grain> = (0..n_grains)
        .map(|_| Grain {
            seed: [
                rng.range(0.0, box_len),
                rng.range(0.0, box_len),
                rng.range(0.0, box_len),
            ],
            rotation: random_rotation(rng),
        })
        .collect();
    voronoi_fcc_with_grains(box_len, &grains, a0, merge_dist)
}

/// Deterministic variant of [`voronoi_fcc`] with caller-supplied grains.
pub fn voronoi_fcc_with_grains(box_len: f64, grains: &[Grain], a0: f64, merge_dist: f64) -> System {
    assert!(!grains.is_empty());
    let cell = Cell::cubic(box_len);

    // Which grain owns a point: nearest seed under PBC.
    let owner = |p: [f64; 3]| -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (g, grain) in grains.iter().enumerate() {
            let d = cell.distance2(p, grain.seed);
            if d < best_d {
                best_d = d;
                best = g;
            }
        }
        best
    };

    // Fill each grain: enumerate lattice points of the rotated fcc lattice
    // and keep those that (a) fall inside the primary box *without*
    // wrapping — wrapping would stack incoherent shifted copies of the
    // lattice on top of itself — and (b) are owned by this grain under the
    // periodic Voronoi metric. Rotated grains remain incoherent with their
    // own periodic images at the box faces, which simply adds boundary
    // area, exactly as in published polycrystal generators.
    let basis = [
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
    ];
    let mut positions: Vec<[f64; 3]> = Vec::new();
    // The farthest box corner is at most the full diagonal from the seed.
    let reach = ((3.0f64).sqrt() * box_len / a0).ceil() as i64 + 1;
    for (g, grain) in grains.iter().enumerate() {
        let rot = grain.rotation;
        for ix in -reach..=reach {
            for iy in -reach..=reach {
                for iz in -reach..=reach {
                    for b in &basis {
                        let l = [
                            (ix as f64 + b[0]) * a0,
                            (iy as f64 + b[1]) * a0,
                            (iz as f64 + b[2]) * a0,
                        ];
                        // rotate, then translate to the seed
                        let mut p = [0.0; 3];
                        for r in 0..3 {
                            p[r] = grain.seed[r]
                                + rot[r][0] * l[0]
                                + rot[r][1] * l[1]
                                + rot[r][2] * l[2];
                        }
                        if p.iter().any(|&x| x < 0.0 || x >= box_len) {
                            continue;
                        }
                        if owner(p) == g {
                            positions.push(p);
                        }
                    }
                }
            }
        }
    }

    // Prune boundary overlaps: greedy scan over a fine grid.
    let pruned = prune_close(&cell, positions, merge_dist);
    let n = pruned.len();
    System::new(cell, pruned, vec![0; n], vec![units::MASS_CU])
}

/// Remove atoms so that no pair is closer than `min_dist` (keeps the first
/// of each offending pair). Cell-list based, O(N).
fn prune_close(cell: &Cell, positions: Vec<[f64; 3]>, min_dist: f64) -> Vec<[f64; 3]> {
    let nb = ((cell.lengths[0] / min_dist).floor() as usize).max(1);
    let nbins = [
        nb,
        ((cell.lengths[1] / min_dist).floor() as usize).max(1),
        ((cell.lengths[2] / min_dist).floor() as usize).max(1),
    ];
    let md2 = min_dist * min_dist;
    let bin_of = |p: [f64; 3]| -> [usize; 3] {
        let mut b = [0usize; 3];
        for d in 0..3 {
            b[d] = (((p[d] / cell.lengths[d]) * nbins[d] as f64) as usize).min(nbins[d] - 1);
        }
        b
    };
    let flat = |b: [usize; 3]| (b[0] * nbins[1] + b[1]) * nbins[2] + b[2];
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); nbins[0] * nbins[1] * nbins[2]];
    let mut keep = Vec::with_capacity(positions.len());
    'outer: for (idx, &p) in positions.iter().enumerate() {
        let b = bin_of(p);
        for dx in -1..=1isize {
            for dy in -1..=1isize {
                for dz in -1..=1isize {
                    let nbn = [
                        (b[0] as isize + dx).rem_euclid(nbins[0] as isize) as usize,
                        (b[1] as isize + dy).rem_euclid(nbins[1] as isize) as usize,
                        (b[2] as isize + dz).rem_euclid(nbins[2] as isize) as usize,
                    ];
                    for &j in &bins[flat(nbn)] {
                        if cell.distance2(p, positions[j]) < md2 {
                            continue 'outer;
                        }
                    }
                }
            }
        }
        bins[flat(b)].push(idx);
        keep.push(p);
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::cna;
    use crate::neighbor::NeighborList;

    #[test]
    fn polycrystal_density_near_fcc() {
        // Larger box so grain interiors dominate over pruned boundaries.
        let mut rng = CounterRng::new(77);
        let sys = voronoi_fcc(40.0, 4, 3.615, 1.8, &mut rng);
        let nd = sys.len() as f64 / sys.cell.volume();
        let fcc_nd = 4.0 / 3.615f64.powi(3);
        assert!(
            (nd / fcc_nd - 1.0).abs() < 0.16,
            "number density {nd} vs fcc {fcc_nd}"
        );
    }

    #[test]
    fn no_close_pairs_survive() {
        let mut rng = CounterRng::new(78);
        let sys = voronoi_fcc(24.0, 3, 3.615, 2.2, &mut rng);
        let nl = NeighborList::build(&sys, 2.19);
        assert_eq!(nl.num_pairs(), 0, "close pairs remain");
    }

    #[test]
    fn grains_are_mostly_fcc_with_boundaries() {
        let mut rng = CounterRng::new(79);
        let sys = voronoi_fcc(44.0, 4, 3.615, 2.2, &mut rng);
        let nl = NeighborList::build(&sys, cna::fcc_cutoff(3.615));
        let c = cna::count(&sys, &nl);
        let (fcc, _hcp, other) = c.fractions();
        assert!(fcc > 0.3, "fcc fraction too low: {c:?}");
        assert!(other > 0.05, "no grain boundaries detected: {c:?}");
    }

    #[test]
    fn axis_aligned_single_grain_is_perfect_crystal() {
        // With identity rotation, a commensurate seed and a box that is an
        // integer multiple of a0, the construction must reproduce the
        // perfect fcc crystal exactly.
        let a0 = 3.615;
        let box_len = 6.0 * a0;
        let grain = Grain {
            seed: [0.0, 0.0, 0.0],
            rotation: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        };
        let sys = voronoi_fcc_with_grains(box_len, &[grain], a0, 2.0);
        assert_eq!(sys.len(), 4 * 6 * 6 * 6);
        let nl = NeighborList::build(&sys, cna::fcc_cutoff(a0));
        let c = cna::count(&sys, &nl);
        assert_eq!(c.fcc, sys.len(), "not a perfect crystal: {c:?}");
    }

    #[test]
    fn rotated_single_grain_interior_is_fcc() {
        // A rotated grain is incommensurate with the periodic box, so its
        // faces are incoherent boundaries, but the interior must be fcc.
        let mut rng = CounterRng::new(80);
        let grain = Grain {
            seed: [11.0, 11.0, 11.0],
            rotation: random_rotation(&mut rng),
        };
        let sys = voronoi_fcc_with_grains(30.0, &[grain], 3.615, 2.2);
        let nl = NeighborList::build(&sys, cna::fcc_cutoff(3.615));
        let classes = cna::classify(&sys, &nl);
        // check atoms well inside the box (more than 6.5 A from any face)
        let mut interior = 0usize;
        let mut interior_fcc = 0usize;
        for (i, p) in sys.positions.iter().enumerate() {
            if p.iter().all(|&x| (6.5..=23.5).contains(&x)) {
                interior += 1;
                if classes[i] == cna::CnaClass::Fcc {
                    interior_fcc += 1;
                }
            }
        }
        assert!(interior > 100, "too few interior atoms: {interior}");
        let frac = interior_fcc as f64 / interior as f64;
        assert!(frac > 0.9, "interior fcc fraction {frac}");
    }

    #[test]
    fn rotation_matrices_are_orthonormal() {
        let mut rng = CounterRng::new(81);
        for _ in 0..10 {
            let r = random_rotation(&mut rng);
            for i in 0..3 {
                for j in 0..3 {
                    let dot: f64 = (0..3).map(|k| r[i][k] * r[j][k]).sum();
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!((dot - expect).abs() < 1e-10);
                }
            }
        }
    }
}

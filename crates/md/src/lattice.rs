//! Configuration builders: fcc crystals and water boxes.

use crate::cell::Cell;
use crate::system::System;
use crate::units;

/// Perfect fcc crystal with lattice constant `a0`, replicated `reps` unit
/// cells along each axis.
pub fn fcc(a0: f64, reps: [usize; 3], mass: f64) -> System {
    let basis = [
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
    ];
    let mut positions = Vec::with_capacity(4 * reps[0] * reps[1] * reps[2]);
    for ix in 0..reps[0] {
        for iy in 0..reps[1] {
            for iz in 0..reps[2] {
                for b in &basis {
                    positions.push([
                        (ix as f64 + b[0]) * a0,
                        (iy as f64 + b[1]) * a0,
                        (iz as f64 + b[2]) * a0,
                    ]);
                }
            }
        }
    }
    let n = positions.len();
    let cell = Cell::orthorhombic(
        reps[0] as f64 * a0,
        reps[1] as f64 * a0,
        reps[2] as f64 * a0,
    );
    System::new(cell, positions, vec![0; n], vec![mass])
}

/// Copper fcc at the experimental lattice constant (3.615 Å).
pub fn copper(reps: [usize; 3]) -> System {
    fcc(3.615, reps, units::MASS_CU)
}

/// Water molecules on a simple-cubic molecular lattice with experimental
/// geometry (O–H 0.9572 Å, H–O–H 104.52°), one molecule per `spacing³`
/// cube — `spacing = 3.104` Å reproduces liquid density (0.997 g/cm³).
///
/// Types: 0 = O, 1 = H. Molecules are oriented in a repeating pattern so
/// the initial state is not artificially polarized.
pub fn water_box(mols_per_axis: [usize; 3], spacing: f64) -> System {
    let theta = 104.52_f64.to_radians();
    let r_oh = 0.9572;
    let dx = r_oh * (theta / 2.0).sin();
    let dy = r_oh * (theta / 2.0).cos();
    // Four orientations cycled over molecules.
    let orientations = [
        ([dx, dy, 0.0], [-dx, dy, 0.0]),
        ([-dx, -dy, 0.0], [dx, -dy, 0.0]),
        ([0.0, dx, dy], [0.0, -dx, dy]),
        ([0.0, -dx, -dy], [0.0, dx, -dy]),
    ];
    let mut positions = Vec::new();
    let mut types = Vec::new();
    let mut count = 0usize;
    for ix in 0..mols_per_axis[0] {
        for iy in 0..mols_per_axis[1] {
            for iz in 0..mols_per_axis[2] {
                let o = [
                    (ix as f64 + 0.5) * spacing,
                    (iy as f64 + 0.5) * spacing,
                    (iz as f64 + 0.5) * spacing,
                ];
                let (h1, h2) = orientations[count % orientations.len()];
                positions.push(o);
                types.push(0);
                positions.push([o[0] + h1[0], o[1] + h1[1], o[2] + h1[2]]);
                types.push(1);
                positions.push([o[0] + h2[0], o[1] + h2[1], o[2] + h2[2]]);
                types.push(1);
                count += 1;
            }
        }
    }
    let cell = Cell::orthorhombic(
        mols_per_axis[0] as f64 * spacing,
        mols_per_axis[1] as f64 * spacing,
        mols_per_axis[2] as f64 * spacing,
    );
    System::new(cell, positions, types, vec![units::MASS_O, units::MASS_H])
}

/// The paper's single-GPU benchmark config: 4,096 water molecules
/// (12,288 atoms) — `16×16×16` molecules (§6.1, §7.1).
pub fn water_12288() -> System {
    water_box([16, 16, 16], 3.104)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcc_atom_count_and_density() {
        let sys = fcc(3.615, [4, 4, 4], units::MASS_CU);
        assert_eq!(sys.len(), 4 * 64);
        // Cu density ≈ 8.96 g/cm³: n/V * m / avogadro...
        // number density = 4 / a0³ ≈ 0.0847 atoms/Å³
        let nd = sys.len() as f64 / sys.cell.volume();
        assert!((nd - 4.0 / 3.615f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn fcc_nearest_neighbor_distance() {
        let sys = fcc(3.615, [3, 3, 3], units::MASS_CU);
        let d2min = (1..sys.len())
            .map(|j| sys.cell.distance2(sys.positions[0], sys.positions[j]))
            .fold(f64::INFINITY, f64::min);
        let expect = 3.615 / 2f64.sqrt();
        assert!((d2min.sqrt() - expect).abs() < 1e-9);
    }

    #[test]
    fn fcc_coordination_is_12() {
        let sys = fcc(3.615, [3, 3, 3], units::MASS_CU);
        let nl = crate::neighbor::NeighborList::build(&sys, 3.0);
        assert_eq!(nl.neighbors_of(0).len(), 12);
    }

    #[test]
    fn water_counts_and_geometry() {
        let sys = water_box([2, 2, 2], 3.104);
        assert_eq!(sys.len(), 24);
        assert_eq!(sys.type_counts(), vec![8, 16]);
        // O-H distance within each molecule
        for m in 0..8 {
            let o = sys.positions[3 * m];
            for h in 1..=2 {
                let d = sys.cell.distance2(o, sys.positions[3 * m + h]).sqrt();
                assert!((d - 0.9572).abs() < 1e-9, "O-H {d}");
            }
        }
    }

    #[test]
    fn water_12288_matches_paper_size() {
        let sys = water_12288();
        assert_eq!(sys.len(), 12_288);
        assert_eq!(sys.type_counts()[0], 4096);
        // density ≈ 1 g/cm³: 18.015 amu per 3.104³ Å³ -> 0.997 g/cm³
        let g_per_cm3 = (4096.0 * (units::MASS_O + 2.0 * units::MASS_H)) * 1.66053906660
            / sys.cell.volume()
            / 1.0e3
            * 1.0e3;
        assert!((g_per_cm3 - 1.0).abs() < 0.05, "density {g_per_cm3}");
    }
}

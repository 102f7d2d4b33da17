//! Atom state: positions, velocities, forces, species.

use crate::cell::Cell;
use crate::units;
use crate::CounterRng;

/// A collection of atoms in a cell.
///
/// When used by the domain-decomposition driver, the first `n_local` atoms
/// are owned by this rank and any atoms beyond are ghosts (read-only copies
/// of neighbors' atoms); for serial simulations `n_local == len()`.
#[derive(Debug, Clone)]
pub struct System {
    pub cell: Cell,
    pub positions: Vec<[f64; 3]>,
    pub velocities: Vec<[f64; 3]>,
    pub forces: Vec<[f64; 3]>,
    /// Species index per atom (0-based, dense).
    pub types: Vec<usize>,
    /// Mass (amu) per species.
    pub masses: Vec<f64>,
    /// Number of locally-owned atoms; the rest are ghosts.
    pub n_local: usize,
}

impl System {
    pub fn new(cell: Cell, positions: Vec<[f64; 3]>, types: Vec<usize>, masses: Vec<f64>) -> Self {
        assert_eq!(positions.len(), types.len(), "positions/types length");
        let n = positions.len();
        for &t in &types {
            assert!(t < masses.len(), "type {t} has no mass entry");
        }
        Self {
            cell,
            positions,
            velocities: vec![[0.0; 3]; n],
            forces: vec![[0.0; 3]; n],
            types,
            masses,
            n_local: n,
        }
    }

    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of distinct species.
    pub fn num_types(&self) -> usize {
        self.masses.len()
    }

    /// Initialize velocities from the Boltzmann distribution at temperature
    /// `t` (K), then remove center-of-mass drift — the paper's setup (§6.1:
    /// "velocities ... randomly initialized subjected to the Boltzmann
    /// distribution at 330 K").
    pub fn init_velocities(&mut self, t: f64, rng: &mut CounterRng) {
        assert!(t >= 0.0);
        let n = self.n_local;
        if n == 0 {
            return;
        }
        for i in 0..n {
            let m = self.masses[self.types[i]];
            let sigma = (units::KB * t * units::FORCE_TO_ACCEL / m).sqrt();
            for d in 0..3 {
                self.velocities[i][d] = sigma * rng.gauss();
            }
        }
        self.zero_momentum();
        // Rescale to hit the target temperature exactly.
        let cur = self.temperature();
        if cur > 0.0 {
            let s = (t / cur).sqrt();
            for v in self.velocities[..n].iter_mut().flatten() {
                *v *= s;
            }
        }
    }

    /// Remove center-of-mass momentum of the local atoms.
    pub fn zero_momentum(&mut self) {
        let n = self.n_local;
        let mut p = [0.0; 3];
        let mut mtot = 0.0;
        for i in 0..n {
            let m = self.masses[self.types[i]];
            mtot += m;
            for (pd, vd) in p.iter_mut().zip(self.velocities[i]) {
                *pd += m * vd;
            }
        }
        if mtot == 0.0 {
            return;
        }
        for v in &mut self.velocities[..n] {
            for (vd, pd) in v.iter_mut().zip(p) {
                *vd -= pd / mtot;
            }
        }
    }

    /// Kinetic energy (eV) of local atoms.
    pub fn kinetic_energy(&self) -> f64 {
        let mut ke = 0.0;
        for i in 0..self.n_local {
            let m = self.masses[self.types[i]];
            let v = self.velocities[i];
            ke += 0.5 * m * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
        }
        ke * units::MV2E
    }

    /// Instantaneous temperature (K) from equipartition over local atoms.
    pub fn temperature(&self) -> f64 {
        units::temperature(self.kinetic_energy(), self.n_local)
    }

    /// Wrap all positions into the primary cell image.
    pub fn wrap_positions(&mut self) {
        for p in &mut self.positions {
            *p = self.cell.wrap(*p);
        }
    }

    /// Count atoms of each type among the local atoms.
    pub fn type_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_types()];
        for &t in &self.types[..self.n_local] {
            counts[t] += 1;
        }
        counts
    }

    /// Randomly displace local atoms by up to `amp` in each coordinate —
    /// used to generate off-lattice training configurations.
    pub fn perturb(&mut self, amp: f64, rng: &mut CounterRng) {
        for x in self.positions[..self.n_local].iter_mut().flatten() {
            *x += rng.unit() * (2.0 * amp) - amp;
        }
        self.wrap_positions();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_system(n: usize) -> System {
        let cell = Cell::cubic(20.0);
        let positions = (0..n)
            .map(|i| [1.0 + (i % 10) as f64, (i / 10) as f64 * 2.0, 3.0])
            .collect();
        System::new(cell, positions, vec![0; n], vec![units::MASS_CU])
    }

    #[test]
    fn velocity_init_hits_temperature() {
        let mut sys = simple_system(500);
        let mut rng = CounterRng::new(42);
        sys.init_velocities(330.0, &mut rng);
        assert!((sys.temperature() - 330.0).abs() < 1e-9);
    }

    #[test]
    fn momentum_is_zero_after_init() {
        let mut sys = simple_system(100);
        let mut rng = CounterRng::new(7);
        sys.init_velocities(300.0, &mut rng);
        let mut p = [0.0; 3];
        for i in 0..sys.len() {
            for (d, pd) in p.iter_mut().enumerate() {
                *pd += sys.masses[sys.types[i]] * sys.velocities[i][d];
            }
        }
        for d in 0..3 {
            assert!(p[d].abs() < 1e-9, "momentum {p:?}");
        }
    }

    #[test]
    fn zero_temperature_is_stable() {
        let mut sys = simple_system(10);
        let mut rng = CounterRng::new(1);
        sys.init_velocities(0.0, &mut rng);
        assert_eq!(sys.temperature(), 0.0);
    }

    #[test]
    fn type_counts() {
        let cell = Cell::cubic(10.0);
        let sys = System::new(
            cell,
            vec![[1.0; 3], [2.0; 3], [3.0; 3]],
            vec![0, 1, 1],
            vec![units::MASS_O, units::MASS_H],
        );
        assert_eq!(sys.type_counts(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "has no mass entry")]
    fn type_without_mass_panics() {
        let cell = Cell::cubic(10.0);
        let _ = System::new(cell, vec![[1.0; 3]], vec![1], vec![units::MASS_O]);
    }

    #[test]
    fn perturb_keeps_atoms_in_cell() {
        let mut sys = simple_system(50);
        let mut rng = CounterRng::new(3);
        sys.perturb(5.0, &mut rng);
        for p in &sys.positions {
            for x in p {
                assert!((0.0..20.0).contains(x));
            }
        }
    }
}

//! Pairwise potentials: Lennard-Jones and the per-type-pair table used as
//! the water reference model.

use super::{accumulate_virial, switch, Potential, PotentialOutput};
use crate::neighbor::NeighborList;
use crate::system::System;
use dp_obs::par;

/// Functional form of one type-pair interaction.
#[derive(Debug, Clone, Copy)]
pub enum PairKind {
    /// `4ε[(σ/r)¹² − (σ/r)⁶]`
    LennardJones { eps: f64, sigma: f64 },
    /// `D (1 − e^{−a(r−r0)})² − D`
    Morse { d: f64, a: f64, r0: f64 },
    /// `A e^{−r/ρ}` (purely repulsive)
    SoftRepulsion { a: f64, rho: f64 },
}

impl PairKind {
    /// Energy and its radial derivative `dE/dr` at distance `r` (before the
    /// cutoff switch).
    #[inline]
    pub fn energy_deriv(&self, r: f64) -> (f64, f64) {
        match *self {
            PairKind::LennardJones { eps, sigma } => {
                let sr = sigma / r;
                let sr6 = sr.powi(6);
                let sr12 = sr6 * sr6;
                let e = 4.0 * eps * (sr12 - sr6);
                let de = 4.0 * eps * (-12.0 * sr12 + 6.0 * sr6) / r;
                (e, de)
            }
            PairKind::Morse { d, a, r0 } => {
                let x = (-a * (r - r0)).exp();
                let e = d * (1.0 - x) * (1.0 - x) - d;
                let de = 2.0 * d * a * (1.0 - x) * x;
                (e, de)
            }
            PairKind::SoftRepulsion { a, rho } => {
                let e = a * (-r / rho).exp();
                (e, -e / rho)
            }
        }
    }
}

/// A symmetric table of pair interactions between `n_types` species, with a
/// smooth cutoff switch on `[r_on, r_cut]`.
#[derive(Debug, Clone)]
pub struct PairTable {
    n_types: usize,
    /// Row-major `n_types × n_types`, symmetric.
    table: Vec<PairKind>,
    pub r_cut: f64,
    pub r_on: f64,
    name: &'static str,
}

impl PairTable {
    pub fn new(n_types: usize, fill: PairKind, r_cut: f64, name: &'static str) -> Self {
        Self {
            n_types,
            table: vec![fill; n_types * n_types],
            r_cut,
            r_on: r_cut - 1.0,
            name,
        }
    }

    pub fn set(&mut self, a: usize, b: usize, kind: PairKind) {
        self.table[a * self.n_types + b] = kind;
        self.table[b * self.n_types + a] = kind;
    }

    #[inline]
    fn kind(&self, a: usize, b: usize) -> &PairKind {
        &self.table[a * self.n_types + b]
    }

    /// The pairwise water reference model (the stand-in for DFT water
    /// labels, DESIGN.md §2): O–O Lennard-Jones, O–H Morse well binding
    /// hydrogens to oxygens, H–H soft repulsion opening the HOH angle.
    /// Types: 0 = O, 1 = H. Cutoff 6 Å like the paper's water DP model.
    pub fn water_reference() -> Self {
        let mut t = Self::new(
            2,
            PairKind::SoftRepulsion { a: 0.0, rho: 1.0 },
            6.0,
            "water-ref",
        );
        t.set(
            0,
            0,
            PairKind::LennardJones {
                eps: 0.0067,
                sigma: 3.166,
            },
        );
        t.set(
            0,
            1,
            PairKind::Morse {
                d: 0.8,
                a: 2.5,
                r0: 0.9572,
            },
        );
        // steep enough that H–H fusion is excluded even for a model that
        // extrapolates: ~2.7 eV at 0.5 Å, negligible at the 1.51 Å
        // intramolecular H–H distance
        t.set(1, 1, PairKind::SoftRepulsion { a: 20.0, rho: 0.25 });
        t
    }

    /// Same table with a different cutoff (e.g. 4.5 Å so small training
    /// boxes satisfy minimum image). The switch window stays 1 Å wide.
    pub fn with_cutoff(mut self, r_cut: f64) -> Self {
        assert!(r_cut > 1.0);
        self.r_cut = r_cut;
        self.r_on = r_cut - 1.0;
        self
    }
}

impl Potential for PairTable {
    fn compute(&self, sys: &System, nl: &NeighborList) -> PotentialOutput {
        let c2 = self.r_cut * self.r_cut;
        // One parallel pass over local atoms. Each directed pair (i,j)
        // contributes half its energy to i (so locals sum correctly even
        // with ghosts) and the full pair force to i only — j accumulates
        // its share when it is the center, exactly like LAMMPS full lists.
        let results: Vec<(f64, [f64; 3], [f64; 6])> = par::map(sys.n_local, |i| {
            let mut e = 0.0;
            let mut f = [0.0; 3];
            let mut w = [0.0; 6];
            let ti = sys.types[i];
            for &j in nl.neighbors_of(i) {
                let j = j as usize;
                let d = sys.cell.displacement(sys.positions[j], sys.positions[i]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if r2 >= c2 || r2 < 1e-12 {
                    continue;
                }
                let r = r2.sqrt();
                let (e0, de0) = self.kind(ti, sys.types[j]).energy_deriv(r);
                let (s, ds) = switch(r, self.r_on, self.r_cut);
                let e_pair = e0 * s;
                let de_pair = de0 * s + e0 * ds;
                e += 0.5 * e_pair;
                // force on i = -dE/dr * d̂ with d = r_i - r_j
                let coef = -de_pair / r;
                let fp = [coef * d[0], coef * d[1], coef * d[2]];
                for k in 0..3 {
                    f[k] += fp[k];
                }
                accumulate_virial(&mut w, d, fp);
            }
            (e, f, w)
        });

        let mut out = PotentialOutput::zeros(sys.len());
        for (i, (e, f, w)) in results.into_iter().enumerate() {
            out.energy += e;
            out.forces[i] = f;
            for (v, wk) in out.virial.iter_mut().zip(w) {
                *v += wk;
            }
        }
        out
    }

    fn cutoff(&self) -> f64 {
        self.r_cut
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Single-species Lennard-Jones, the classic EFF baseline.
#[derive(Debug, Clone)]
pub struct LennardJones {
    table: PairTable,
}

impl LennardJones {
    pub fn new(eps: f64, sigma: f64, r_cut: f64) -> Self {
        let mut table = PairTable::new(
            1,
            PairKind::LennardJones { eps, sigma },
            r_cut,
            "lennard-jones",
        );
        table.r_on = r_cut - 1.0;
        Self { table }
    }

    /// Argon-like parameters, handy for quickstart examples.
    pub fn argon() -> Self {
        Self::new(0.0104, 3.405, 8.5)
    }
}

impl Potential for LennardJones {
    fn compute(&self, sys: &System, nl: &NeighborList) -> PotentialOutput {
        self.table.compute(sys, nl)
    }

    fn cutoff(&self) -> f64 {
        self.table.r_cut
    }

    fn name(&self) -> &'static str {
        "lennard-jones"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::potential::force_consistency_error;
    use crate::units;
    use crate::CounterRng;

    #[test]
    fn lj_minimum_at_r0() {
        let lj = PairKind::LennardJones {
            eps: 1.0,
            sigma: 1.0,
        };
        let r0 = 2f64.powf(1.0 / 6.0);
        let (e, de) = lj.energy_deriv(r0);
        assert!((e + 1.0).abs() < 1e-12);
        assert!(de.abs() < 1e-12);
    }

    #[test]
    fn morse_minimum_at_r0() {
        let m = PairKind::Morse {
            d: 0.8,
            a: 2.5,
            r0: 0.9572,
        };
        let (e, de) = m.energy_deriv(0.9572);
        assert!((e + 0.8).abs() < 1e-12);
        assert!(de.abs() < 1e-12);
    }

    #[test]
    fn pair_derivatives_match_fd() {
        for kind in [
            PairKind::LennardJones {
                eps: 0.3,
                sigma: 2.5,
            },
            PairKind::Morse {
                d: 0.8,
                a: 2.5,
                r0: 0.96,
            },
            PairKind::SoftRepulsion { a: 2.0, rho: 0.4 },
        ] {
            for &r in &[0.8, 1.5, 3.0, 4.5] {
                let (_, de) = kind.energy_deriv(r);
                let h = 1e-7;
                let fd = (kind.energy_deriv(r + h).0 - kind.energy_deriv(r - h).0) / (2.0 * h);
                // relative tolerance: steep LJ walls reach ~1e6 eV/Å
                assert!((de - fd).abs() < 1e-5 * de.abs().max(1.0), "{kind:?} r={r}");
            }
        }
    }

    fn two_atom_system(r: f64) -> System {
        System::new(
            Cell::cubic(30.0),
            vec![[5.0, 5.0, 5.0], [5.0 + r, 5.0, 5.0]],
            vec![0, 0],
            vec![units::MASS_CU],
        )
    }

    #[test]
    fn dimer_forces_newton_third_law() {
        let lj = LennardJones::new(0.5, 3.0, 8.0);
        // separation beyond the LJ minimum (2^{1/6}·3 ≈ 3.37): attractive
        let sys = two_atom_system(4.0);
        let nl = NeighborList::build(&sys, 8.0);
        let out = lj.compute(&sys, &nl);
        for d in 0..3 {
            assert!((out.forces[0][d] + out.forces[1][d]).abs() < 1e-12);
        }
        // attractive: force on atom 0 points toward atom 1 (+x)
        assert!(out.forces[0][0] > 0.0);
    }

    #[test]
    fn lj_forces_match_fd_random_config() {
        // Perturbed lattice keeps pairs off the singular LJ wall so central
        // differences stay numerically meaningful.
        let mut rng = CounterRng::new(21);
        let mut sys = crate::lattice::fcc(4.0, [3, 3, 3], units::MASS_CU);
        sys.perturb(0.25, &mut rng);
        let lj = LennardJones::new(0.2, 2.8, 5.5);
        let err = force_consistency_error(&lj, &sys, 1e-6, &[0, 5, 17, 31]);
        assert!(err < 1e-4, "force FD error {err}");
    }

    #[test]
    fn water_reference_forces_match_fd() {
        // one water molecule plus a nearby one
        let mut positions = Vec::new();
        let mut types = Vec::new();
        for &base in &[[8.0, 8.0, 8.0], [11.0, 8.0, 8.0]] {
            positions.push(base);
            types.push(0);
            positions.push([base[0] + 0.76, base[1] + 0.59, base[2]]);
            types.push(1);
            positions.push([base[0] - 0.76, base[1] + 0.59, base[2]]);
            types.push(1);
        }
        let sys = System::new(
            Cell::cubic(20.0),
            positions,
            types,
            vec![units::MASS_O, units::MASS_H],
        );
        let w = PairTable::water_reference();
        let err = force_consistency_error(&w, &sys, 1e-6, &[0, 1, 3, 5]);
        assert!(err < 1e-4, "water FD error {err}");
    }

    #[test]
    fn energy_vanishes_beyond_cutoff() {
        let lj = LennardJones::new(0.5, 3.0, 8.0);
        let sys = two_atom_system(9.0);
        let nl = NeighborList::build(&sys, 8.0);
        let out = lj.compute(&sys, &nl);
        assert_eq!(out.energy, 0.0);
    }

    #[test]
    fn ghost_partitioned_energy_matches_periodic() {
        // Evaluating each half as "local" with the other half present must
        // sum to the full energy (the property domain decomposition needs).
        let mut rng = CounterRng::new(22);
        let n = 40;
        let l = 16.0;
        let positions: Vec<[f64; 3]> = (0..n)
            .map(|_| [rng.range(0.0, l), rng.range(0.0, l), rng.range(0.0, l)])
            .collect();
        let lj = LennardJones::new(0.2, 2.8, 6.0);

        let sys = System::new(
            Cell::cubic(l),
            positions.clone(),
            vec![0; n],
            vec![units::MASS_CU],
        );
        let nl = NeighborList::build(&sys, 6.0);
        let full = lj.compute(&sys, &nl).energy;

        let mut half = 0.0;
        for lo in [0, n / 2] {
            let hi = lo + n / 2;
            // reorder so the "local" block comes first
            let mut pos = positions[lo..hi].to_vec();
            pos.extend_from_slice(&positions[..lo]);
            pos.extend_from_slice(&positions[hi..]);
            let mut part = System::new(Cell::cubic(l), pos, vec![0; n], vec![units::MASS_CU]);
            part.n_local = n / 2;
            let nl = NeighborList::build(&part, 6.0);
            half += lj.compute(&part, &nl).energy;
        }
        assert!((full - half).abs() < 1e-9, "{full} vs {half}");
    }
}

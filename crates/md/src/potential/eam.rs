//! Sutton–Chen embedded-atom potential for copper.
//!
//! The paper's copper DP model is trained on DFT; our stand-in label source
//! must be *many-body* so the DP network has something beyond pair physics
//! to learn (surface/stacking-fault energies are exactly where EFF pair
//! potentials fail, §8.1). Sutton–Chen provides that with four parameters:
//!
//! `E = Σ_i [ ½ Σ_j ε (a/r_ij)^n  −  ε c √ρ_i ]`,  `ρ_i = Σ_j (a/r_ij)^m`.

use super::{accumulate_virial, switch, Potential, PotentialOutput};
use crate::neighbor::NeighborList;
use crate::system::System;
use dp_obs::par;

/// Sutton–Chen EAM. Defaults are the classic copper parameterization.
#[derive(Debug, Clone)]
pub struct SuttonChen {
    pub eps: f64,
    pub a: f64,
    pub c: f64,
    pub n: i32,
    pub m: i32,
    pub r_cut: f64,
    pub r_on: f64,
}

impl SuttonChen {
    /// Sutton & Chen (1990) copper: n=9, m=6, ε=12.382 meV, c=39.432,
    /// a=3.61 Å, with the paper's 8 Å cutoff.
    pub fn copper() -> Self {
        Self {
            eps: 1.2382e-2,
            a: 3.61,
            c: 39.432,
            n: 9,
            m: 6,
            r_cut: 8.0,
            r_on: 7.0,
        }
    }

    /// Same parameterization with a compact 4.8 Å cutoff — captures the
    /// first two neighbor shells. Intended for small test/training boxes
    /// where the paper's 8 Å cutoff would violate minimum image.
    pub fn copper_short() -> Self {
        Self {
            r_cut: 4.8,
            r_on: 3.8,
            ..Self::copper()
        }
    }

    /// Pair term and density kernel with the cutoff switch applied:
    /// returns (φ, dφ/dr, ψ, dψ/dr).
    #[inline]
    fn kernels(&self, r: f64) -> (f64, f64, f64, f64) {
        let (s, ds) = switch(r, self.r_on, self.r_cut);
        let ar = self.a / r;
        let phi0 = self.eps * ar.powi(self.n);
        let dphi0 = -self.eps * self.n as f64 * ar.powi(self.n) / r;
        let psi0 = ar.powi(self.m);
        let dpsi0 = -self.m as f64 * ar.powi(self.m) / r;
        (
            phi0 * s,
            dphi0 * s + phi0 * ds,
            psi0 * s,
            dpsi0 * s + psi0 * ds,
        )
    }

    /// Electron densities ρ_i for all atoms (locals and ghosts need them;
    /// ghosts get densities from their own neighbor lists when present, so
    /// the caller must provide lists covering every atom that contributes —
    /// here we recompute ghost densities from the same geometry).
    fn densities(&self, sys: &System, nl: &NeighborList) -> Vec<f64> {
        let c2 = self.r_cut * self.r_cut;
        // Density for every atom, including ghosts: ghosts don't have their
        // own lists, so compute them with a direct pass over all atoms that
        // list them. Full lists make ρ_j reconstructible: ρ is symmetric in
        // pair contributions, so accumulate from the directed pairs.
        let mut rho = vec![0.0; sys.len()];
        // Locals: straightforward.
        let local_rho: Vec<f64> = par::map(nl.len(), |i| {
            let mut acc = 0.0;
            for &j in nl.neighbors_of(i) {
                let d = sys
                    .cell
                    .displacement(sys.positions[j as usize], sys.positions[i]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if r2 < c2 && r2 > 1e-12 {
                    acc += self.kernels(r2.sqrt()).2;
                }
            }
            acc
        });
        rho[..nl.len()].copy_from_slice(&local_rho);
        // Ghosts: symmetric accumulation from local lists.
        if sys.len() > nl.len() {
            for i in 0..nl.len() {
                for &j in nl.neighbors_of(i) {
                    let j = j as usize;
                    if j >= nl.len() {
                        let d = sys.cell.displacement(sys.positions[j], sys.positions[i]);
                        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                        if r2 < c2 && r2 > 1e-12 {
                            rho[j] += self.kernels(r2.sqrt()).2;
                        }
                    }
                }
            }
        }
        rho
    }
}

impl Potential for SuttonChen {
    fn compute(&self, sys: &System, nl: &NeighborList) -> PotentialOutput {
        let c2 = self.r_cut * self.r_cut;
        let rho = self.densities(sys, nl);

        // Embedding derivative dF/dρ = -εc / (2√ρ); guard empty environments.
        let demb: Vec<f64> = rho
            .iter()
            .map(|&r| {
                if r > 1e-30 {
                    -self.eps * self.c * 0.5 / r.sqrt()
                } else {
                    0.0
                }
            })
            .collect();

        let results: Vec<(f64, [f64; 3], [f64; 6])> = par::map(sys.n_local, |i| {
            let mut e = 0.0;
            let mut f = [0.0; 3];
            let mut w = [0.0; 6];
            for &j in nl.neighbors_of(i) {
                let j = j as usize;
                let d = sys.cell.displacement(sys.positions[j], sys.positions[i]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if r2 >= c2 || r2 < 1e-12 {
                    continue;
                }
                let r = r2.sqrt();
                let (phi, dphi, _psi, dpsi) = self.kernels(r);
                e += 0.5 * phi;
                // dE/dr for the directed pair: pair term (half from each
                // side) plus both atoms' embedding terms acting on ψ'.
                let de = dphi + (demb[i] + demb[j]) * dpsi;
                let coef = -de / r;
                let fp = [coef * d[0], coef * d[1], coef * d[2]];
                for k in 0..3 {
                    f[k] += fp[k];
                }
                accumulate_virial(&mut w, d, fp);
            }
            // embedding energy of atom i
            if rho[i] > 1e-30 {
                e -= self.eps * self.c * rho[i].sqrt();
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
        "sutton-chen-eam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::lattice;
    use crate::potential::force_consistency_error;
    use crate::units;
    use crate::CounterRng;

    #[test]
    fn fcc_copper_cohesive_energy_reasonable() {
        // Experimental cohesive energy of Cu is ~3.49 eV/atom; Sutton-Chen
        // with a modest cutoff lands in the same ballpark.
        let sys = lattice::fcc(3.615, [6, 6, 6], units::MASS_CU);
        let sc = SuttonChen::copper();
        let nl = NeighborList::build(&sys, sc.r_cut);
        let out = sc.compute(&sys, &nl);
        let e_per_atom = out.energy / sys.len() as f64;
        assert!(
            (-4.0..=-2.5).contains(&e_per_atom),
            "cohesive energy {e_per_atom} eV/atom"
        );
    }

    #[test]
    fn perfect_lattice_has_zero_force() {
        let sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        let sc = SuttonChen::copper_short();
        let nl = NeighborList::build(&sys, sc.r_cut);
        let out = sc.compute(&sys, &nl);
        for f in &out.forces[..sys.len()] {
            for d in 0..3 {
                assert!(f[d].abs() < 1e-9, "residual force {f:?}");
            }
        }
    }

    #[test]
    fn forces_match_fd_on_perturbed_lattice() {
        let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        let mut rng = CounterRng::new(33);
        sys.perturb(0.15, &mut rng);
        let sc = SuttonChen::copper_short();
        let err = force_consistency_error(&sc, &sys, 1e-6, &[0, 7, 20, 50]);
        assert!(err < 5e-5, "EAM FD error {err}");
    }

    #[test]
    fn many_body_nature() {
        // EAM is not pairwise: E(trimer) != 3 * E(dimer pair energy). Place
        // three atoms in a line and compare with pair decomposition.
        let sc = SuttonChen::copper();
        let r = 2.55;
        let dimer = System::new(
            Cell::cubic(40.0),
            vec![[10.0, 10.0, 10.0], [10.0 + r, 10.0, 10.0]],
            vec![0, 0],
            vec![units::MASS_CU],
        );
        let nl = NeighborList::build(&dimer, sc.r_cut);
        let e_dimer = sc.compute(&dimer, &nl).energy;

        let trimer = System::new(
            Cell::cubic(40.0),
            vec![
                [10.0 - r, 10.0, 10.0],
                [10.0, 10.0, 10.0],
                [10.0 + r, 10.0, 10.0],
            ],
            vec![0, 0, 0],
            vec![units::MASS_CU],
        );
        let nl = NeighborList::build(&trimer, sc.r_cut);
        let e_trimer = sc.compute(&trimer, &nl).energy;
        // pairwise prediction: two nearest pairs + one 2r pair
        let far = System::new(
            Cell::cubic(40.0),
            vec![[10.0, 10.0, 10.0], [10.0 + 2.0 * r, 10.0, 10.0]],
            vec![0, 0],
            vec![units::MASS_CU],
        );
        let nl = NeighborList::build(&far, sc.r_cut);
        let e_far = sc.compute(&far, &nl).energy;
        let pairwise = 2.0 * e_dimer + e_far;
        assert!(
            (e_trimer - pairwise).abs() > 0.05,
            "trimer {e_trimer} vs pairwise {pairwise} — potential looks pairwise"
        );
    }

    #[test]
    fn ghost_partitioned_energy_matches_periodic() {
        let sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        let sc = SuttonChen::copper_short();
        let nl = NeighborList::build(&sys, sc.r_cut);
        let full = sc.compute(&sys, &nl).energy;

        // Split into two halves, each evaluated with the rest as context
        // via the periodic cell (n_local marks ownership).
        let n = sys.len();
        let mut half_total = 0.0;
        for lo in [0, n / 2] {
            let hi = (lo + n / 2).min(n);
            let mut pos = sys.positions[lo..hi].to_vec();
            pos.extend_from_slice(&sys.positions[..lo]);
            pos.extend_from_slice(&sys.positions[hi..]);
            let mut part = System::new(sys.cell, pos, vec![0; n], vec![units::MASS_CU]);
            part.n_local = hi - lo;
            let nl = NeighborList::build(&part, sc.r_cut);
            half_total += sc.compute(&part, &nl).energy;
        }
        assert!((full - half_total).abs() < 1e-8, "{full} vs {half_total}");
    }
}

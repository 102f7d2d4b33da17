//! The potential interface and the classical reference potentials.
//!
//! In the paper the interatomic potential is the DP network; the empirical
//! force fields (EFFs) it is compared against — and the DFT that labels its
//! training data — are external. Here all three roles are filled by
//! implementors of [`Potential`]:
//!
//! * [`pair::LennardJones`] — generic EFF baseline,
//! * [`pair::PairTable`] — the two-species pairwise water reference model
//!   (our stand-in for the DFT water labels),
//! * [`eam::SuttonChen`] — many-body EAM copper (our stand-in for the DFT
//!   copper labels, and the classical baseline for Fig 7),
//! * `deepmd_core::DeepPotential` — the paper's contribution (downstream
//!   crate).

pub mod eam;
pub mod pair;

use crate::neighbor::NeighborList;
use crate::system::System;

/// Energy, per-atom forces, and virial for one configuration.
#[derive(Debug, Clone)]
pub struct PotentialOutput {
    /// Total potential energy (eV) attributed to the local atoms.
    pub energy: f64,
    /// Force (eV/Å) on every atom (locals first, then ghosts).
    pub forces: Vec<[f64; 3]>,
    /// Virial tensor `Σ r ⊗ f` in eV: `[xx, yy, zz, xy, xz, yz]`.
    pub virial: [f64; 6],
}

impl PotentialOutput {
    pub fn zeros(n: usize) -> Self {
        Self {
            energy: 0.0,
            forces: vec![[0.0; 3]; n],
            virial: [0.0; 6],
        }
    }

    /// Instantaneous pressure (bar) combining the virial with kinetic
    /// contributions of the system.
    pub fn pressure(&self, sys: &System) -> f64 {
        crate::units::pressure(
            sys.n_local,
            sys.temperature(),
            &self.virial,
            sys.cell.volume(),
        )
    }
}

/// An interatomic potential: maps a configuration (plus its neighbor list)
/// to energy, forces and virial.
pub trait Potential: Send + Sync {
    /// Evaluate energy/forces/virial. The neighbor list must have been
    /// built with at least [`cutoff`](Potential::cutoff).
    fn compute(&self, sys: &System, nl: &NeighborList) -> PotentialOutput;

    /// Evaluate into a caller-owned output, reusing its force buffer
    /// (§5.2.2 arena reuse). Implementors with internal workspaces
    /// override this to make the steady-state MD step allocation-free;
    /// the default delegates to [`compute`](Potential::compute).
    fn compute_into(&self, sys: &System, nl: &NeighborList, out: &mut PotentialOutput) {
        let fresh = self.compute(sys, nl);
        out.energy = fresh.energy;
        out.virial = fresh.virial;
        out.forces.clear();
        out.forces.extend_from_slice(&fresh.forces);
    }

    /// Interaction cutoff radius (Å), excluding any skin.
    fn cutoff(&self) -> f64;

    /// Human-readable name for logs and reports.
    fn name(&self) -> &'static str;
}

/// Smooth switching function: 1 below `r_on`, 0 above `r_off`, with a C¹
/// cosine ramp in between. Applied to the reference potentials so MD
/// trajectories conserve energy despite the finite cutoff.
#[inline]
pub fn switch(r: f64, r_on: f64, r_off: f64) -> (f64, f64) {
    if r <= r_on {
        (1.0, 0.0)
    } else if r >= r_off {
        (0.0, 0.0)
    } else {
        let x = (r - r_on) / (r_off - r_on);
        let s = 0.5 * (1.0 + (std::f64::consts::PI * x).cos());
        let ds = -0.5 * std::f64::consts::PI * (std::f64::consts::PI * x).sin() / (r_off - r_on);
        (s, ds)
    }
}

/// Accumulate the per-pair virial: `w += 0.5 * d ⊗ f` with `d = r_i - r_j`
/// and `f` the force on atom `i` due to `j`. The 0.5 compensates for full
/// lists visiting each pair twice.
#[inline]
pub fn accumulate_virial(w: &mut [f64; 6], d: [f64; 3], f: [f64; 3]) {
    w[0] += 0.5 * d[0] * f[0];
    w[1] += 0.5 * d[1] * f[1];
    w[2] += 0.5 * d[2] * f[2];
    w[3] += 0.5 * d[0] * f[1];
    w[4] += 0.5 * d[0] * f[2];
    w[5] += 0.5 * d[1] * f[2];
}

/// Finite-difference force check utility shared by the potential tests and
/// by `deepmd-core`'s validation suite: returns the maximum absolute error
/// between analytic forces and `-dE/dr` by central differences.
pub fn force_consistency_error(
    pot: &dyn Potential,
    sys: &System,
    eps: f64,
    atoms_to_check: &[usize],
) -> f64 {
    let nl = NeighborList::build(sys, pot.cutoff());
    let out = pot.compute(sys, &nl);
    let mut max_err: f64 = 0.0;
    for &i in atoms_to_check {
        for d in 0..3 {
            let mut sp = sys.clone();
            sp.positions[i][d] += eps;
            let nlp = NeighborList::build(&sp, pot.cutoff());
            let ep = pot.compute(&sp, &nlp).energy;

            let mut sm = sys.clone();
            sm.positions[i][d] -= eps;
            let nlm = NeighborList::build(&sm, pot.cutoff());
            let em = pot.compute(&sm, &nlm).energy;

            let fd = -(ep - em) / (2.0 * eps);
            max_err = max_err.max((fd - out.forces[i][d]).abs());
        }
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_endpoints_and_smoothness() {
        let (s, _) = switch(1.0, 2.0, 3.0);
        assert_eq!(s, 1.0);
        let (s, _) = switch(3.5, 2.0, 3.0);
        assert_eq!(s, 0.0);
        let (s, _) = switch(2.5, 2.0, 3.0);
        assert!((s - 0.5).abs() < 1e-12);
        // derivative matches finite differences inside the ramp
        for &r in &[2.1, 2.5, 2.9] {
            let (_, ds) = switch(r, 2.0, 3.0);
            let h = 1e-7;
            let fd = (switch(r + h, 2.0, 3.0).0 - switch(r - h, 2.0, 3.0).0) / (2.0 * h);
            assert!((ds - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn virial_accumulation_is_symmetric_in_pairs() {
        // For a pair seen from both sides (d, f) and (-d, -f) the two
        // contributions are equal, so a full list double-counts exactly 2x,
        // compensated by the 0.5 factor.
        let mut w1 = [0.0; 6];
        accumulate_virial(&mut w1, [1.0, 2.0, 3.0], [0.4, 0.5, 0.6]);
        let mut w2 = [0.0; 6];
        accumulate_virial(&mut w2, [-1.0, -2.0, -3.0], [-0.4, -0.5, -0.6]);
        assert_eq!(w1, w2);
    }
}

//! Labelled training frames.

use dp_md::integrate::{run_md, Berendsen, MdOptions};
use dp_md::{CounterRng, NeighborList, Potential, System};

/// One labelled configuration: the inputs DFT would be asked for, with the
/// energy/force labels our reference potential supplies instead.
#[derive(Debug, Clone)]
pub struct Frame {
    pub cell: dp_md::Cell,
    pub positions: Vec<[f64; 3]>,
    pub types: Vec<usize>,
    pub energy: f64,
    pub forces: Vec<[f64; 3]>,
}

impl Frame {
    /// Label a system with a reference potential.
    pub fn label(sys: &System, pot: &dyn Potential) -> Self {
        let nl = NeighborList::build(sys, pot.cutoff());
        let out = pot.compute(sys, &nl);
        Self {
            cell: sys.cell,
            positions: sys.positions.clone(),
            types: sys.types.clone(),
            energy: out.energy,
            forces: out.forces[..sys.n_local].to_vec(),
        }
    }

    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }

    /// Mean energy per atom — used to initialize the model's `e0`.
    pub fn energy_per_atom(&self) -> f64 {
        self.energy / self.n_atoms() as f64
    }
}

/// Random-perturbation sampling: displace every atom of the base system by
/// up to `amp·k/n_frames` (growing amplitude spans the configuration space
/// from harmonic to strongly anharmonic).
pub fn perturbed_frames(
    base: &System,
    pot: &dyn Potential,
    n_frames: usize,
    amp: f64,
    rng: &mut CounterRng,
) -> Vec<Frame> {
    (0..n_frames)
        .map(|k| {
            let mut sys = base.clone();
            let a = amp * (k + 1) as f64 / n_frames as f64;
            sys.perturb(a, rng);
            Frame::label(&sys, pot)
        })
        .collect()
}

/// MD-trajectory sampling: run thermostatted MD with the reference
/// potential and snapshot every `stride` steps — the way real DP datasets
/// sample the relevant thermodynamic region.
pub fn md_frames(
    base: &System,
    pot: &dyn Potential,
    temperature: f64,
    n_frames: usize,
    stride: usize,
    dt: f64,
    rng: &mut CounterRng,
) -> Vec<Frame> {
    let mut sys = base.clone();
    sys.init_velocities(temperature, rng);
    // fit the neighbor skin to the box: small training cells cannot host
    // the default 2 Å buffer on top of the cutoff
    let max_skin = (sys.cell.max_cutoff() - pot.cutoff()).max(0.0);
    let opts = MdOptions {
        dt,
        skin: max_skin.min(2.0),
        thermostat: Some(Berendsen {
            target_t: temperature,
            tau: 0.1,
        }),
        ..MdOptions::default()
    };
    assert!(
        opts.skin > 0.0,
        "training box too small for the potential cutoff"
    );
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        run_md(&mut sys, pot, &opts, stride, |_| {});
        frames.push(Frame::label(&sys, pot));
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_md::potential::pair::LennardJones;
    use dp_md::CounterRng;
    use dp_md::{lattice, units};

    fn base() -> (System, LennardJones) {
        (
            lattice::fcc(4.0, [2, 2, 2], units::MASS_CU),
            LennardJones::new(0.2, 2.6, 3.9),
        )
    }

    #[test]
    fn labels_match_direct_computation() {
        let (sys, lj) = base();
        let f = Frame::label(&sys, &lj);
        assert_eq!(f.n_atoms(), 32);
        let nl = NeighborList::build(&sys, lj.cutoff());
        let out = lj.compute(&sys, &nl);
        assert_eq!(f.energy, out.energy);
        assert_eq!(f.forces.len(), 32);
    }

    #[test]
    fn perturbed_frames_have_growing_disorder() {
        let (sys, lj) = base();
        let mut rng = CounterRng::new(5);
        let frames = perturbed_frames(&sys, &lj, 10, 0.3, &mut rng);
        assert_eq!(frames.len(), 10);
        // later frames (bigger perturbation) have higher energy on average
        let early: f64 = frames[..3].iter().map(|f| f.energy).sum::<f64>() / 3.0;
        let late: f64 = frames[7..].iter().map(|f| f.energy).sum::<f64>() / 3.0;
        assert!(late > early, "early {early} late {late}");
    }

    #[test]
    fn md_frames_are_decorrelated_configs() {
        // bigger box: MD adds a 2 Å neighbor skin on top of the cutoff
        let sys = lattice::fcc(4.0, [3, 3, 3], units::MASS_CU);
        let lj = LennardJones::new(0.2, 2.6, 3.9);
        let mut rng = CounterRng::new(6);
        let frames = md_frames(&sys, &lj, 50.0, 4, 10, 2e-3, &mut rng);
        assert_eq!(frames.len(), 4);
        // frames differ from each other
        let d01: f64 = frames[0]
            .positions
            .iter()
            .zip(&frames[1].positions)
            .map(|(a, b)| (a[0] - b[0]).abs() + (a[1] - b[1]).abs())
            .sum();
        assert!(d01 > 1e-6, "MD frames identical");
    }
}

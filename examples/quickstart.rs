//! Quickstart: the full Deep Potential workflow in one file.
//!
//! 1. Generate "ab initio" training data (here: a Lennard-Jones reference
//!    potential labels perturbed fcc-argon configurations),
//! 2. train a small DP model with the energy+force loss,
//! 3. run NVE molecular dynamics with the trained network as the force
//!    field and watch energy conservation,
//! 4. compare DP against the reference on held-out configurations.
//!
//! Run with: `cargo run --release --example quickstart`

use deepmd_repro::core::{DeepPotential, DpConfig, DpModel, PrecisionMode};
use deepmd_repro::md::integrate::{run_md, MdOptions};
use deepmd_repro::md::potential::pair::LennardJones;
use deepmd_repro::md::rng::CounterRng;
use deepmd_repro::md::{lattice, Potential};
use deepmd_repro::train::dataset::perturbed_frames;
use deepmd_repro::train::trainer::rmse_on_frames;
use deepmd_repro::train::{LossWeights, Trainer};

fn main() {
    let mut rng = CounterRng::new(1);

    // --- 1. training data from the reference potential ("the DFT") ---
    let reference = LennardJones::new(0.0104, 3.405, 5.0);
    let base = lattice::fcc(5.26, [2, 2, 2], 39.948); // 32 argon atoms
    let frames = perturbed_frames(&base, &reference, 10, 0.35, &mut rng);
    let held_out = perturbed_frames(&base, &reference, 4, 0.30, &mut rng);
    println!(
        "labelled {} training + {} held-out frames",
        frames.len(),
        held_out.len()
    );

    // --- 2. train a Deep Potential ---
    let cfg = DpConfig {
        rcut: 5.0,
        rcut_smth: 1.5,
        sel: vec![24],
        embedding: vec![8, 16],
        fitting: vec![32, 32],
        axis_neurons: 4,
    };
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    let mut trainer = Trainer::new(model, &frames, 0.02, LossWeights::default());
    for k in 0..120 {
        let r = trainer.step();
        if k % 30 == 0 {
            println!("  step {:3}: loss {:.3e} (lr {:.2e})", r.step, r.loss, r.lr);
        }
    }
    let fit = trainer.rmse();
    let test = rmse_on_frames(&trainer.model, &held_out);
    println!(
        "train RMSE: {:.3e} eV/atom, {:.3e} eV/Å | held-out: {:.3e} eV/atom, {:.3e} eV/Å",
        fit.energy_per_atom, fit.force, test.energy_per_atom, test.force
    );

    // --- 3. NVE MD driven by the trained network ---
    let dp = DeepPotential::new(trainer.model, PrecisionMode::Double);
    let mut sys = lattice::fcc(5.26, [3, 3, 3], 39.948);
    sys.init_velocities(40.0, &mut rng);
    let opts = MdOptions {
        dt: 2.0e-3,
        skin: 1.5,
        thermo_every: 25,
        ..MdOptions::default()
    };
    let run = run_md(&mut sys, &dp, &opts, 150, |s| {
        println!(
            "  step {:4}  E = {:+.4} eV  T = {:5.1} K",
            s.step,
            s.total_energy(),
            s.temperature
        );
    });
    let drift = (run.thermo.last().unwrap().total_energy()
        - run.thermo.first().unwrap().total_energy())
    .abs()
        / sys.len() as f64;
    println!(
        "NVE drift over {} steps: {:.2e} eV/atom ({} neighbor rebuilds)",
        run.steps, drift, run.neighbor_rebuilds
    );

    // --- 4. sanity: DP forces vs reference forces on the final state ---
    let nl = deepmd_repro::md::NeighborList::build(&sys, 5.0);
    let f_dp = dp.compute(&sys, &nl);
    let f_ref = reference.compute(&sys, &nl);
    let mut se = 0.0;
    for (a, b) in f_dp.forces.iter().zip(&f_ref.forces) {
        for k in 0..3 {
            se += (a[k] - b[k]).powi(2);
        }
    }
    println!(
        "force RMSE vs reference on the MD end state: {:.3e} eV/Å",
        (se / (3 * sys.len()) as f64).sqrt()
    );
}

//! End-to-end integration: train a Deep Potential against a reference
//! potential, verify accuracy on held-out data, and drive stable MD with
//! the trained network — the full workflow the paper's system exists for.

use deepmd_repro::core::{DeepPotential, DpConfig, DpModel, PrecisionMode};
use deepmd_repro::md::integrate::{run_md, MdOptions};
use deepmd_repro::md::potential::pair::LennardJones;
use deepmd_repro::md::{lattice, NeighborList, Potential};
use deepmd_repro::train::dataset::perturbed_frames;
use deepmd_repro::train::trainer::rmse_on_frames;
use deepmd_repro::train::{LossWeights, Trainer};
use dp_md::CounterRng;

fn train_lj_model(steps: usize, seed: u64) -> (DpModel<f64>, LennardJones) {
    let mut rng = CounterRng::new(seed);
    let reference = LennardJones::new(0.0104, 3.405, 5.0);
    let base = lattice::fcc(5.26, [2, 2, 2], 39.948);
    let frames = perturbed_frames(&base, &reference, 8, 0.3, &mut rng);
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
    trainer.run(steps);
    (trainer.model, reference)
}

#[test]
fn trained_model_generalizes_to_held_out_frames() {
    let (model, reference) = train_lj_model(120, 11);
    let mut rng = CounterRng::new(99);
    let base = lattice::fcc(5.26, [2, 2, 2], 39.948);
    let held_out = perturbed_frames(&base, &reference, 4, 0.25, &mut rng);
    let rmse = rmse_on_frames(&model, &held_out);

    // scale reference: thermal force magnitude in this ensemble
    let mut f2 = 0.0;
    let mut n = 0usize;
    for f in &held_out {
        for row in &f.forces {
            for x in row {
                f2 += x * x;
                n += 1;
            }
        }
    }
    let f_scale = (f2 / n as f64).sqrt();
    assert!(
        rmse.force < 0.5 * f_scale,
        "force RMSE {:.3e} not below half the force scale {:.3e}",
        rmse.force,
        f_scale
    );
    assert!(
        rmse.energy_per_atom < 5e-3,
        "energy RMSE {:.3e} eV/atom too large",
        rmse.energy_per_atom
    );
}

#[test]
fn dp_driven_nve_conserves_energy() {
    let (model, _) = train_lj_model(60, 12);
    let dp = DeepPotential::new(model, PrecisionMode::Double);
    let mut sys = lattice::fcc(5.26, [3, 3, 3], 39.948);
    let mut rng = CounterRng::new(13);
    sys.init_velocities(40.0, &mut rng);
    let opts = MdOptions {
        dt: 2.0e-3,
        skin: 1.5,
        thermo_every: 20,
        ..MdOptions::default()
    };
    let run = run_md(&mut sys, &dp, &opts, 120, |_| {});
    let drift = (run.thermo.last().unwrap().total_energy()
        - run.thermo.first().unwrap().total_energy())
    .abs()
        / sys.len() as f64;
    assert!(drift < 5e-5, "NVE drift with DP forces: {drift} eV/atom");
}

#[test]
fn dp_energy_is_extensive() {
    // E(2x system) ≈ 2 E(system) for a periodic crystal — the per-atom
    // decomposition of the descriptor guarantees extensivity.
    let (model, _) = train_lj_model(40, 14);
    let dp = DeepPotential::new(model, PrecisionMode::Double);
    let small = lattice::fcc(5.26, [3, 3, 3], 39.948);
    let big = lattice::fcc(5.26, [3, 3, 6], 39.948);
    let nl_s = NeighborList::build(&small, dp.cutoff());
    let nl_b = NeighborList::build(&big, dp.cutoff());
    let e_small = dp.compute(&small, &nl_s).energy;
    let e_big = dp.compute(&big, &nl_b).energy;
    assert!(
        (e_big - 2.0 * e_small).abs() < 1e-8 * e_small.abs().max(1.0),
        "not extensive: {e_small} vs {e_big}"
    );
}

//! Integration: the Deep Potential under the domain-decomposition driver
//! must reproduce the serial results — forces, energy, and trajectories.

use deepmd_repro::core::{DeepPotential, DpConfig, DpModel, PrecisionMode};
use deepmd_repro::md::integrate::{run_md, MdOptions};
use deepmd_repro::md::{lattice, NeighborList, Potential, System};
use deepmd_repro::parallel::{run_parallel_md, ParallelOptions};
use dp_md::CounterRng;
use std::sync::Arc;

fn dp_and_system() -> (Arc<DeepPotential>, System) {
    let mut rng = CounterRng::new(42);
    let cfg = DpConfig {
        rcut: 4.0,
        rcut_smth: 1.0,
        sel: vec![32],
        embedding: vec![8, 16],
        fitting: vec![24, 24],
        axis_neurons: 4,
    };
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    let dp = Arc::new(DeepPotential::new(model, PrecisionMode::Double));
    let mut sys = lattice::copper([6, 6, 6]);
    sys.init_velocities(150.0, &mut rng);
    (dp, sys)
}

#[test]
fn parallel_dp_energy_matches_serial() {
    let (dp, sys) = dp_and_system();
    let nl = NeighborList::build(&sys, dp.cutoff() + 2.0);
    let serial = dp.compute(&sys, &nl);

    let run = run_parallel_md(&sys, dp.clone(), [2, 2, 2], &ParallelOptions::default(), 0).unwrap();
    let pe = run.thermo[0].potential_energy;
    assert!(
        (pe - serial.energy).abs() < 1e-8,
        "parallel {pe} vs serial {}",
        serial.energy
    );
}

#[test]
fn parallel_dp_trajectory_matches_serial() {
    let (dp, sys) = dp_and_system();
    let opts = ParallelOptions {
        md: MdOptions {
            dt: 1.0e-3,
            skin: 1.5,
            rebuild_every: 10,
            thermo_every: 10,
            ..MdOptions::default()
        },
        ..ParallelOptions::default()
    };
    let steps = 20;

    let mut serial_sys = sys.clone();
    run_md(&mut serial_sys, dp.as_ref(), &opts.md, steps, |_| {});

    let par = run_parallel_md(&sys, dp.clone(), [2, 2, 1], &opts, steps).unwrap();

    let mut max_d = 0.0f64;
    for i in 0..serial_sys.len() {
        let d = serial_sys
            .cell
            .distance2(serial_sys.positions[i], par.system.positions[i])
            .sqrt();
        max_d = max_d.max(d);
    }
    assert!(max_d < 1e-7, "DP trajectories diverged by {max_d} Å");
}

#[test]
fn parallel_dp_nve_is_stable() {
    let (dp, sys) = dp_and_system();
    let opts = ParallelOptions {
        md: MdOptions {
            dt: 1.0e-3,
            skin: 1.5,
            rebuild_every: 10,
            thermo_every: 20,
            ..MdOptions::default()
        },
        ..ParallelOptions::default()
    };
    let run = run_parallel_md(&sys, dp, [2, 2, 2], &opts, 80).unwrap();
    let drift = (run.thermo.last().unwrap().total_energy()
        - run.thermo.first().unwrap().total_energy())
    .abs()
        / sys.len() as f64;
    assert!(drift < 5e-5, "parallel DP NVE drift {drift} eV/atom");
}

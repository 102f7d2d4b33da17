//! Domain-decomposed Deep Potential MD on copper — the paper's metallic
//! benchmark driven by the parallel rank driver: spatial partitioning,
//! ghost exchange, reverse force communication, deferred reductions.
//!
//! Demonstrates that parallel DP-MD conserves energy and reports the
//! Table 4-style per-rank statistics (ghost counts, rebuilds, reduce ops).
//!
//! Run with: `cargo run --release --example copper_parallel`

use deepmd_repro::core::{DeepPotential, DpConfig, DpModel, PrecisionMode};
use deepmd_repro::md::integrate::MdOptions;
use deepmd_repro::md::lattice;
use deepmd_repro::md::rng::CounterRng;
use deepmd_repro::parallel::{run_parallel_md, ParallelOptions};
use std::sync::Arc;

fn main() {
    let mut rng = CounterRng::new(12);
    // Untrained small network — parallel mechanics are weight-agnostic,
    // and a smooth random PES still conserves energy under NVE.
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

    let mut sys = lattice::copper([6, 6, 6]); // 864 atoms, 21.7 Å box
    sys.init_velocities(300.0, &mut rng);

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
    println!("running 100 parallel MD steps on a 2x2x2 rank grid...");
    let run = run_parallel_md(&sys, dp, [2, 2, 2], &opts, 100).expect("parallel run failed");

    for s in &run.thermo {
        println!(
            "  step {:4}  E = {:+.4} eV  T = {:5.1} K  P = {:+.0} bar",
            s.step,
            s.total_energy(),
            s.temperature,
            s.pressure
        );
    }
    let drift = (run.thermo.last().unwrap().total_energy()
        - run.thermo.first().unwrap().total_energy())
    .abs()
        / sys.len() as f64;
    println!("\nNVE drift: {drift:.2e} eV/atom over {} steps", run.steps);
    println!("thermo allreduce operations: {}", run.reduce_operations);
    println!("\nper-rank statistics:");
    for s in &run.rank_stats {
        println!(
            "  rank {}: {} locals, {} ghosts (max), {} rebuilds, compute {:?}, comm {:?}",
            s.rank, s.final_local, s.max_ghosts, s.rebuilds, s.compute_time, s.comm_time
        );
    }
}

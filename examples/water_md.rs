//! Water MD with a two-species Deep Potential (the paper's insulating
//! benchmark system): train on the pairwise water reference model, run
//! thermostatted MD at 330 K (the paper's temperature), and compare the
//! oxygen–oxygen radial distribution function of DP-driven MD against
//! reference-driven MD.
//!
//! Run with: `cargo run --release --example water_md`

use deepmd_repro::core::{DeepPotential, DpConfig, DpModel, PrecisionMode};
use deepmd_repro::md::analysis::rdf::Rdf;
use deepmd_repro::md::integrate::{run_md, Berendsen, MdOptions};
use deepmd_repro::md::potential::pair::PairTable;
use deepmd_repro::md::rng::CounterRng;
use deepmd_repro::md::{lattice, NeighborList, Potential, System};
use deepmd_repro::train::dataset::{md_frames, perturbed_frames};
use deepmd_repro::train::{LossWeights, Trainer};

fn rdf_oo(pot: &dyn Potential, label: &str) -> Vec<(f64, f64)> {
    let mut sys: System = lattice::water_box([5, 5, 5], 3.104);
    let mut rng = CounterRng::new(9);
    sys.init_velocities(330.0, &mut rng);
    let opts = MdOptions {
        dt: 5.0e-4,
        skin: 1.5,
        thermostat: Some(Berendsen {
            target_t: 330.0,
            tau: 0.05,
        }),
        ..MdOptions::default()
    };
    run_md(&mut sys, pot, &opts, 120, |_| {});
    let mut rdf = Rdf::new(0, 0, 4.4, 44);
    for _ in 0..20 {
        run_md(&mut sys, pot, &opts, 15, |_| {});
        let nl = NeighborList::build(&sys, 4.4);
        rdf.accumulate(&sys, &nl);
    }
    println!("{label}: final T = {:.0} K", sys.temperature());
    rdf.finish()
}

fn main() {
    let mut rng = CounterRng::new(3);
    let reference = PairTable::water_reference().with_cutoff(4.5);

    // train a small two-species model (O and H embeddings + fitting nets)
    let base = lattice::water_box([3, 3, 3], 3.104);
    let mut frames = perturbed_frames(&base, &reference, 6, 0.2, &mut rng);
    frames.extend(md_frames(&base, &reference, 330.0, 4, 25, 5e-4, &mut rng));
    let cfg = DpConfig {
        rcut: 4.5,
        rcut_smth: 1.0,
        sel: vec![12, 24],
        embedding: vec![8, 16],
        fitting: vec![32, 32],
        axis_neurons: 4,
    };
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    let mut trainer = Trainer::new(model, &frames, 0.02, LossWeights::default());
    for k in 0..120 {
        let r = trainer.step();
        if k % 40 == 0 {
            println!("train step {:3}: loss {:.3e}", r.step, r.loss);
        }
    }
    let rmse = trainer.rmse();
    println!(
        "trained water DP: {:.2e} eV/atom, {:.2e} eV/Å",
        rmse.energy_per_atom, rmse.force
    );

    let dp = DeepPotential::new(trainer.model, PrecisionMode::Double);
    let g_dp = rdf_oo(&dp, "DP water MD");
    let g_ref = rdf_oo(&reference, "reference water MD");

    println!("\n# gOO(r): r, DP, reference");
    for (&(r, gd), &(_, gr)) in g_dp.iter().zip(&g_ref) {
        println!("{r:6.3}  {gd:8.4}  {gr:8.4}");
    }
    println!(
        "\nmax |gOO_DP - gOO_ref| = {:.3}",
        Rdf::max_deviation(&g_dp, &g_ref)
    );
}

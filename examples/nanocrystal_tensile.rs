//! Scaled-down Fig 7: tensile deformation of nanocrystalline copper with
//! an empirical many-body potential (Sutton–Chen EAM), using the same
//! substrate pieces the DP-driven fig7 harness uses — Voronoi polycrystal
//! builder, anneal, affine strain, common neighbor analysis.
//!
//! Run with: `cargo run --release --example nanocrystal_tensile`

use deepmd_repro::md::analysis::cna;
use deepmd_repro::md::deform::{tensile_test, TensileOptions};
use deepmd_repro::md::integrate::{run_md, Berendsen, MdOptions};
use deepmd_repro::md::polycrystal::voronoi_fcc;
use deepmd_repro::md::potential::eam::SuttonChen;
use deepmd_repro::md::rng::CounterRng;
use deepmd_repro::md::NeighborList;

fn main() {
    let mut rng = CounterRng::new(2718);
    let mut sys = voronoi_fcc(32.0, 4, 3.615, 2.0, &mut rng);
    println!("polycrystal: {} atoms, 4 grains, 32 Å box", sys.len());

    let report = |stage: &str, sys: &deepmd_repro::md::System| {
        let nl = NeighborList::build(sys, cna::fcc_cutoff(3.615));
        let c = cna::count(sys, &nl);
        let (f, h, o) = c.fractions();
        println!(
            "{stage:>12}: fcc {:5.1}%  hcp {:5.1}%  other {:5.1}%",
            f * 100.0,
            h * 100.0,
            o * 100.0
        );
    };
    report("as built", &sys);

    let eam = SuttonChen::copper_short();
    sys.init_velocities(300.0, &mut rng);
    let opts = MdOptions {
        dt: 5.0e-4,
        skin: 1.5,
        thermostat: Some(Berendsen {
            target_t: 300.0,
            tau: 0.05,
        }),
        ..MdOptions::default()
    };
    println!("annealing at 300 K...");
    run_md(&mut sys, &eam, &opts, 400, |_| {});
    report("annealed", &sys);

    println!("pulling to 10% strain along z...");
    let topts = TensileOptions {
        axis: 2,
        total_strain: 0.10,
        n_increments: 10,
        steps_per_increment: 50,
        md: opts,
        temperature: 300.0,
    };
    let curve = tensile_test(&mut sys, &eam, &topts);
    report("10% strain", &sys);

    println!("\n# strain, stress [GPa]");
    for p in &curve {
        println!("{:6.3}  {:7.3}", p.strain, p.stress_gpa);
    }
    let peak = curve.iter().map(|p| p.stress_gpa).fold(f64::MIN, f64::max);
    println!("\npeak tensile stress {peak:.2} GPa (nanocrystalline Cu experiments/MD: ~2-4 GPa)");
}

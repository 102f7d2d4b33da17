//! Fig 7 — tensile deformation of nanocrystalline copper.
//!
//! The paper anneals a 10,401,218-atom, 64-grain Voronoi polycrystal and
//! pulls it to 10% strain along z at 5×10⁸ s⁻¹, identifying grains (fcc),
//! stacking faults (hcp) and grain boundaries (other) by common neighbor
//! analysis. We reproduce the full protocol at reduced scale with the
//! trained DP copper model: build polycrystal → anneal → strain → CNA,
//! reporting the structure fractions before/after and the stress–strain
//! curve, next to the same protocol driven by the Sutton–Chen EFF (the
//! classical baseline whose accuracy limits motivate DP in §8.1).
//!
//! Run with: `cargo run --release -p dp-bench --bin fig7`

use deepmd_core::{DeepPotential, PrecisionMode};
use dp_bench::models;
use dp_bench::report::print_table;
use dp_md::analysis::cna;
use dp_md::deform::{tensile_test, TensileOptions};
use dp_md::integrate::{run_md, Berendsen, MdOptions};
use dp_md::polycrystal;
use dp_md::potential::eam::SuttonChen;
use dp_md::CounterRng;
use dp_md::{NeighborList, Potential, System};

/// CNA fractions after a brief quench: thermal displacement at 300 K
/// blurs the signatures, so structures are identified on a configuration
/// relaxed toward 0 K (the paper renders quenched snapshots).
fn cna_fractions(sys: &System, pot: &dyn Potential) -> (f64, f64, f64) {
    let mut quenched = sys.clone();
    let opts = MdOptions {
        dt: 5.0e-4,
        skin: 1.5,
        thermostat: Some(Berendsen {
            target_t: 1.0,
            tau: 0.01,
        }),
        ..MdOptions::default()
    };
    run_md(&mut quenched, pot, &opts, 60, |_| {});
    let nl = NeighborList::build(&quenched, cna::fcc_cutoff(3.615));
    cna::count(&quenched, &nl).fractions()
}

fn deform_protocol(pot: &dyn Potential, label: &str) -> Vec<Vec<String>> {
    // scaled-down Fig 7 sample: 4 grains in a 30 Å box (~2,300 atoms)
    let mut rng = CounterRng::new(314);
    let mut sys = polycrystal::voronoi_fcc(34.0, 4, 3.615, 2.0, &mut rng);
    eprintln!("[fig7] {label}: {} atoms in 4 grains", sys.len());
    sys.init_velocities(300.0, &mut rng);

    let (fcc0, hcp0, other0) = cna_fractions(&sys, pot);

    // anneal (paper: 10,000 steps at 300 K; scaled: 200)
    let opts = MdOptions {
        dt: 5.0e-4,
        skin: 1.5,
        thermostat: Some(Berendsen {
            target_t: 300.0,
            tau: 0.05,
        }),
        ..MdOptions::default()
    };
    eprintln!("[fig7] {label}: annealing...");
    run_md(&mut sys, pot, &opts, 200, |_| {});
    let (fcc1, hcp1, other1) = cna_fractions(&sys, pot);

    // tensile deformation to 10% along z (paper: 40,000 steps; scaled)
    eprintln!("[fig7] {label}: straining to 10%...");
    let topts = TensileOptions {
        axis: 2,
        total_strain: 0.10,
        n_increments: 10,
        steps_per_increment: 40,
        md: opts,
        temperature: 300.0,
    };
    let curve = tensile_test(&mut sys, pot, &topts);
    let (fcc2, hcp2, other2) = cna_fractions(&sys, pot);

    println!("\n# {label}: stress-strain (strain, stress_GPa, T)");
    for p in &curve {
        println!(
            "{:7.4}  {:8.3}  {:6.0}",
            p.strain, p.stress_gpa, p.temperature
        );
    }
    let peak = curve.iter().map(|p| p.stress_gpa).fold(f64::MIN, f64::max);
    println!("# {label}: peak tensile stress {peak:.2} GPa");

    vec![
        vec![
            label.into(),
            "as built".into(),
            format!("{:.1}", fcc0 * 100.0),
            format!("{:.1}", hcp0 * 100.0),
            format!("{:.1}", other0 * 100.0),
        ],
        vec![
            label.into(),
            "annealed".into(),
            format!("{:.1}", fcc1 * 100.0),
            format!("{:.1}", hcp1 * 100.0),
            format!("{:.1}", other1 * 100.0),
        ],
        vec![
            label.into(),
            "10% strain".into(),
            format!("{:.1}", fcc2 * 100.0),
            format!("{:.1}", hcp2 * 100.0),
            format!("{:.1}", other2 * 100.0),
        ],
    ]
}

fn main() {
    let dp = DeepPotential::new(models::copper_model(), PrecisionMode::Double);
    let eam = SuttonChen::copper_short();

    let mut rows = deform_protocol(&dp, "DP (this work)");
    rows.extend(deform_protocol(&eam, "Sutton-Chen EFF"));

    print_table(
        "Fig 7: CNA structure fractions through the tensile protocol [%]",
        &[
            "driver",
            "stage",
            "fcc (grains)",
            "hcp (stacking faults)",
            "other (boundaries)",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: grains stay fcc; deformation nucleates stacking faults\n\
         (hcp fraction grows from ~0) while grain boundaries (other) persist.\n\
         The DP and EFF protocols should agree qualitatively — DP's value is\n\
         matching ab initio stacking-fault energetics, which the EFF cannot."
    );
}

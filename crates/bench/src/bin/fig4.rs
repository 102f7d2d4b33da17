//! Fig 4 — water radial distribution functions, double vs mixed precision.
//!
//! The paper's claim: g_OO, g_OH and g_HH computed from mixed-precision MD
//! "agree perfectly" with the double-precision curves, so mixed precision
//! loses no accuracy in physical observables. We run NVT water MD with a
//! trained scaled-down DP model in both precisions from identical initial
//! conditions and overlay the three RDFs. As an extension, the reference-
//! potential ("ab initio ground truth") RDF is printed alongside, showing
//! how well the DP model reproduces the physics it was trained on.
//!
//! Run with: `cargo run --release -p dp-bench --bin fig4`

use deepmd_core::{DeepPotential, PrecisionMode};
use dp_bench::models;
use dp_md::analysis::rdf::Rdf;
use dp_md::integrate::{run_md, Berendsen, MdOptions};
use dp_md::potential::pair::PairTable;
use dp_md::CounterRng;
use dp_md::{lattice, NeighborList, Potential, System};

const R_MAX: f64 = 4.4;
const BINS: usize = 60;
const EQUIL: usize = 150;
const SAMPLE_STEPS: usize = 450;
const STRIDE: usize = 15;

fn rdf_of_md(pot: &dyn Potential, label: &str) -> [Vec<(f64, f64)>; 3] {
    let mut sys = lattice::water_box([6, 6, 6], 3.104);
    let mut rng = CounterRng::new(77);
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
    eprintln!("[fig4] equilibrating {label}...");
    run_md(&mut sys, pot, &opts, EQUIL, |_| {});

    let mut goo = Rdf::new(0, 0, R_MAX, BINS);
    let mut goh = Rdf::new(0, 1, R_MAX, BINS);
    let mut ghh = Rdf::new(1, 1, R_MAX, BINS);
    let mut accumulate = |sys: &System| {
        let nl = NeighborList::build(sys, R_MAX);
        goo.accumulate(sys, &nl);
        goh.accumulate(sys, &nl);
        ghh.accumulate(sys, &nl);
    };
    for _ in 0..SAMPLE_STEPS / STRIDE {
        run_md(&mut sys, pot, &opts, STRIDE, |_| {});
        accumulate(&sys);
    }
    eprintln!("[fig4] {label} done (T = {:.0} K)", sys.temperature());
    [goo.finish(), goh.finish(), ghh.finish()]
}

fn main() {
    let model = models::water_model();
    let dp_double = DeepPotential::new(model.clone(), PrecisionMode::Double);
    let dp_mixed = DeepPotential::new(model, PrecisionMode::Mixed);
    let reference = PairTable::water_reference().with_cutoff(4.5);

    let rdf_double = rdf_of_md(&dp_double, "DP double");
    let rdf_mixed = rdf_of_md(&dp_mixed, "DP mixed");
    let rdf_ref = rdf_of_md(&reference, "reference potential");

    for (k, name) in ["gOO", "gOH", "gHH"].iter().enumerate() {
        println!("\n# {name}(r): r, double, mixed, reference");
        for ((&(r, gd), &(_, gm)), &(_, gr)) in
            rdf_double[k].iter().zip(&rdf_mixed[k]).zip(&rdf_ref[k])
        {
            println!("{r:6.3}  {gd:8.4}  {gm:8.4}  {gr:8.4}");
        }
        let dev = Rdf::max_deviation(&rdf_double[k], &rdf_mixed[k]);
        println!("# max |double - mixed| for {name}: {dev:.4}");
    }

    let worst = (0..3)
        .map(|k| Rdf::max_deviation(&rdf_double[k], &rdf_mixed[k]))
        .fold(0.0f64, f64::max);
    println!(
        "\nFig 4 claim check: worst double-vs-mixed RDF deviation = {worst:.4}\n\
         (paper: the curves 'agree perfectly'; thermal sampling noise over a\n\
         finite trajectory sets the floor, so values well below the first-peak\n\
         height ~3 confirm the claim)."
    );
}

//! Integration: the ProdVirial operator is validated against the numeric
//! strain derivative of the energy — `tr(W) = -dE/dλ` at λ=1 for uniform
//! scaling of cell and coordinates — for both a classical potential and
//! the Deep Potential.

use deepmd_repro::core::{DeepPotential, DpConfig, DpModel, PrecisionMode};
use deepmd_repro::md::potential::pair::LennardJones;
use deepmd_repro::md::{lattice, NeighborList, Potential, System};
use dp_md::CounterRng;

fn scaled(sys: &System, lambda: f64) -> System {
    let mut out = sys.clone();
    out.cell = out.cell.scaled([lambda, lambda, lambda]);
    for p in &mut out.positions {
        for x in p {
            *x *= lambda;
        }
    }
    out
}

fn check_virial_trace(pot: &dyn Potential, sys: &System, tol: f64) {
    let nl = NeighborList::build(sys, pot.cutoff());
    let out = pot.compute(sys, &nl);
    let trace = out.virial[0] + out.virial[1] + out.virial[2];

    let eps = 1e-6;
    let e_of = |lambda: f64| {
        let s = scaled(sys, lambda);
        let nl = NeighborList::build(&s, pot.cutoff());
        pot.compute(&s, &nl).energy
    };
    let de_dlambda = (e_of(1.0 + eps) - e_of(1.0 - eps)) / (2.0 * eps);
    assert!(
        (trace + de_dlambda).abs() < tol * de_dlambda.abs().max(1.0),
        "virial trace {trace} vs -dE/dλ {}",
        -de_dlambda
    );
}

#[test]
fn lj_virial_matches_strain_derivative() {
    let mut rng = CounterRng::new(3);
    let mut sys = lattice::fcc(5.0, [3, 3, 3], 39.948);
    sys.perturb(0.15, &mut rng);
    let lj = LennardJones::new(0.2, 2.8, 6.0);
    check_virial_trace(&lj, &sys, 1e-5);
}

#[test]
fn dp_virial_matches_strain_derivative() {
    let mut rng = CounterRng::new(4);
    let cfg = DpConfig::small(1, 4.5, 20);
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    let dp = DeepPotential::new(model, PrecisionMode::Double);
    let mut sys = lattice::fcc(3.615, [3, 3, 3], 63.546);
    sys.perturb(0.1, &mut rng);
    check_virial_trace(&dp, &sys, 1e-5);
}

//! Integration: precision modes (§5.2.3) and the physical invariances the
//! descriptor construction must guarantee.

use deepmd_repro::core::{DeepPotential, DpConfig, DpModel, PrecisionMode};
use deepmd_repro::md::{lattice, Cell, NeighborList, Potential, System};
use dp_md::CounterRng;

fn setup() -> (DpModel<f64>, System) {
    let mut rng = CounterRng::new(7);
    let cfg = DpConfig::small(1, 4.5, 16);
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    let mut sys = lattice::fcc(3.615, [3, 3, 3], 63.546);
    sys.perturb(0.12, &mut rng);
    (model, sys)
}

#[test]
fn precision_ladder_orders_deviations() {
    // double is the reference; mixed deviates a little (the fp16 rung is
    // `dp_bench::fp16`'s test).
    let (model, sys) = setup();
    let mut dp = DeepPotential::new(model, PrecisionMode::Double);
    let nl = NeighborList::build(&sys, dp.cutoff());
    let d = dp.compute(&sys, &nl);
    dp.set_mode(PrecisionMode::Mixed);
    let m = dp.compute(&sys, &nl);

    let mut dev_m = 0.0f64;
    for (a, b) in d.forces.iter().zip(&m.forces) {
        for k in 0..3 {
            dev_m = dev_m.max((a[k] - b[k]).abs());
        }
    }
    assert!(dev_m > 0.0, "mixed precision must differ from double");
    assert!(dev_m < 1e-3, "mixed force deviation too large: {dev_m}");
}

#[test]
fn energy_is_translation_invariant() {
    let (model, sys) = setup();
    let dp = DeepPotential::new(model, PrecisionMode::Double);
    let nl = NeighborList::build(&sys, dp.cutoff());
    let e0 = dp.compute(&sys, &nl).energy;

    let mut shifted = sys.clone();
    for p in &mut shifted.positions {
        p[0] += 1.37;
        p[1] -= 0.81;
        p[2] += 2.02;
    }
    shifted.wrap_positions();
    let nl = NeighborList::build(&shifted, dp.cutoff());
    let e1 = dp.compute(&shifted, &nl).energy;
    assert!(
        (e0 - e1).abs() < 1e-9,
        "translation changed E: {e0} vs {e1}"
    );
}

#[test]
fn energy_is_permutation_invariant() {
    let (model, sys) = setup();
    let dp = DeepPotential::new(model, PrecisionMode::Double);
    let nl = NeighborList::build(&sys, dp.cutoff());
    let e0 = dp.compute(&sys, &nl).energy;

    // reverse the atom order
    let mut permuted = sys.clone();
    permuted.positions.reverse();
    permuted.types.reverse();
    let nl = NeighborList::build(&permuted, dp.cutoff());
    let e1 = dp.compute(&permuted, &nl).energy;
    assert!(
        (e0 - e1).abs() < 1e-9,
        "permutation changed E: {e0} vs {e1}"
    );
}

#[test]
fn energy_is_rotation_invariant() {
    // Build an open (non-periodic) cluster so a rigid rotation is exact.
    let mut rng = CounterRng::new(8);
    let cfg = DpConfig::small(1, 4.5, 24);
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    let dp = DeepPotential::new(model, PrecisionMode::Double);

    let mut positions = Vec::new();
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..2 {
                positions.push([
                    20.0 + i as f64 * 2.6,
                    20.0 + j as f64 * 2.6,
                    20.0 + k as f64 * 2.6,
                ]);
            }
        }
    }
    let n = positions.len();
    let mut sys = System::new(
        Cell::open(60.0, 60.0, 60.0),
        positions,
        vec![0; n],
        vec![63.5],
    );
    sys.perturb(0.1, &mut rng);
    let nl = NeighborList::build(&sys, dp.cutoff());
    let e0 = dp.compute(&sys, &nl).energy;

    // rotate 30° about z around the cluster centroid
    let (s30, c30) = (30f64.to_radians().sin(), 30f64.to_radians().cos());
    let mut centroid = [0.0; 3];
    for p in &sys.positions {
        for k in 0..3 {
            centroid[k] += p[k] / n as f64;
        }
    }
    let mut rotated = sys.clone();
    for p in &mut rotated.positions {
        let x = p[0] - centroid[0];
        let y = p[1] - centroid[1];
        p[0] = centroid[0] + c30 * x - s30 * y;
        p[1] = centroid[1] + s30 * x + c30 * y;
    }
    let nl = NeighborList::build(&rotated, dp.cutoff());
    let e1 = dp.compute(&rotated, &nl).energy;
    assert!((e0 - e1).abs() < 1e-9, "rotation changed E: {e0} vs {e1}");
}

#[test]
fn model_roundtrips_through_disk() {
    let (model, sys) = setup();
    let back = DpModel::from_json(&model.to_json()).unwrap();

    let dp_a = DeepPotential::new(model, PrecisionMode::Double);
    let dp_b = DeepPotential::new(back, PrecisionMode::Double);
    let nl = NeighborList::build(&sys, dp_a.cutoff());
    let ea = dp_a.compute(&sys, &nl).energy;
    let eb = dp_b.compute(&sys, &nl).energy;
    assert!((ea - eb).abs() < 1e-10);
}

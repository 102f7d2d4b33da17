//! Golden `to_bits` fold of `DeepPotential` results: energy, forces and
//! virial of `compute_into`, and energies, per-atom energies and forces of
//! `compute_batch_into`, in `Double` and `Mixed`, for a one-type and a
//! two-type random model. The constants pin the evaluation pipeline bit
//! for bit on each SIMD backend (`DPMD_SIMD=off` selects `Scalar`); they
//! are never edited to make a change pass.

use deepmd_core::{BatchItem, BatchOutput, DeepPotential, DpConfig, DpModel, PrecisionMode};
use dp_linalg::simd::{self, Backend};
use dp_md::{lattice, units, CounterRng, NeighborList, Potential, PotentialOutput, System};

/// FNV-1a over the bit patterns of `xs`.
fn fold(h: &mut u64, xs: impl IntoIterator<Item = f64>) {
    for x in xs {
        *h = (*h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A copper crystal (one type) and a water box (two types), each with a
/// second, differently perturbed copy for the batch.
fn cases() -> Vec<(DpModel<f64>, Vec<System>)> {
    let mut rng = CounterRng::new(2027);
    let copper = DpModel::new_random(DpConfig::small(1, 4.5, 16), &mut rng);
    let water = DpModel::new_random(DpConfig::small(2, 4.5, 24), &mut rng);
    let mut perturbed = |base: &System| {
        (0..2)
            .map(|_| {
                let mut s = base.clone();
                s.perturb(0.1, &mut rng);
                s
            })
            .collect::<Vec<_>>()
    };
    let cu = perturbed(&lattice::fcc(3.615, [3, 3, 3], units::MASS_CU));
    let h2o = perturbed(&lattice::water_box([3, 3, 3], 3.104));
    vec![(copper, cu), (water, h2o)]
}

fn golden_fold() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (model, systems) in cases() {
        let nls: Vec<NeighborList> = systems
            .iter()
            .map(|s| NeighborList::build(s, model.config.rcut))
            .collect();
        for mode in [PrecisionMode::Double, PrecisionMode::Mixed] {
            let pot = DeepPotential::new(model.clone(), mode);
            let mut out = PotentialOutput::zeros(0);
            for (sys, nl) in systems.iter().zip(&nls) {
                pot.compute_into(sys, nl, &mut out);
                fold(&mut h, [out.energy]);
                fold(&mut h, out.forces.iter().flatten().copied());
                fold(&mut h, out.virial);
            }
            let items: Vec<BatchItem> = systems
                .iter()
                .zip(&nls)
                .map(|(sys, nl)| BatchItem { sys, nl })
                .collect();
            let mut res = BatchOutput::new();
            pot.compute_batch_into(&items, mode, &mut res);
            fold(&mut h, res.energies.iter().copied());
            fold(&mut h, res.per_atom_energy.iter().copied());
            fold(&mut h, res.forces.iter().flatten().copied());
        }
    }
    h
}

#[test]
fn golden_bits_double_and_mixed() {
    let expect = match simd::active() {
        Backend::Avx2 => 3_263_847_848_061_486_263,
        Backend::Scalar => 15_163_206_069_177_496_725,
        other => {
            eprintln!("no golden constant for the {} backend", other.name());
            return;
        }
    };
    assert_eq!(golden_fold(), expect);
}

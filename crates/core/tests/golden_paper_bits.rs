//! Golden `to_bits` fold of `DeepPotential` results at the paper's network
//! widths: embedding 25×50×100, 16 axis neurons, fitting 240×240×240, on
//! an 81-atom water box (r_c 4.5 Å, sel [20, 40], no neighbor overflow).
//! The same fold as `golden_bits.rs` — energy, forces and virial of
//! `compute_into`, energies, per-atom energies and forces of
//! `compute_batch_into` over two perturbed copies, in `Double` and `Mixed`
//! — but at shapes the small-width golden never reaches: reductions of 16
//! in the descriptor dots, 16-column GEMM tiles and the f64 k = 4 dot.
//! One constant per SIMD backend (`DPMD_SIMD=off` selects `Scalar`); the
//! constants are never edited to make a change pass.

use deepmd_core::codec::Codec;
use deepmd_core::format::format_optimized;
use deepmd_core::{BatchItem, BatchOutput, DeepPotential, DpConfig, DpModel, PrecisionMode};
use dp_linalg::simd::{self, Backend};
use dp_md::{lattice, CounterRng, NeighborList, Potential, PotentialOutput, System};

/// FNV-1a over the bit patterns of `xs`.
fn fold(h: &mut u64, xs: impl IntoIterator<Item = f64>) {
    for x in xs {
        *h = (*h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn golden_fold() -> u64 {
    let cfg = DpConfig {
        rcut: 4.5,
        rcut_smth: 0.5,
        sel: vec![20, 40],
        embedding: vec![25, 50, 100],
        fitting: vec![240, 240, 240],
        axis_neurons: 16,
    };
    let mut rng = CounterRng::new(2028);
    let model = DpModel::new_random(cfg, &mut rng);
    let base = lattice::water_box([3, 3, 3], 3.104);
    let systems: Vec<System> = (0..2)
        .map(|_| {
            let mut s = base.clone();
            s.perturb(0.1, &mut rng);
            s
        })
        .collect();
    let nls: Vec<NeighborList> = systems
        .iter()
        .map(|s| NeighborList::build(s, model.config.rcut))
        .collect();
    for (sys, nl) in systems.iter().zip(&nls) {
        let codec = Codec::auto(model.config.n_types(), sys.n_local, model.config.rcut);
        let env = format_optimized(sys, nl, &model.config, codec);
        assert_eq!(env.overflowed, 0, "sel must cover every neighbor");
    }

    let mut h = 0xcbf2_9ce4_8422_2325u64;
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
    h
}

#[test]
fn golden_paper_widths_double_and_mixed() {
    let expect = match simd::active() {
        Backend::Avx2 => 14_860_934_407_770_600_584,
        Backend::Scalar => 1_114_970_082_783_514_709,
        other => {
            eprintln!("no golden constant for the {} backend", other.name());
            return;
        }
    };
    assert_eq!(golden_fold(), expect);
}

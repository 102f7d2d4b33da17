//! §5.2.2 correctness side of the memory-trunk tentpole: reusing a dirty
//! workspace must be *bit-identical* to the allocating paths, no matter
//! what the buffers held before, which precision the model runs in, or how
//! the atom count changed between calls (domain migration resizes the
//! trunk in place).
//!
//! Property-style sweep: several seeds × several system sizes, visited in
//! an order that forces both grow-in-place and shrink-in-place reuse,
//! always comparing against a freshly allocated reference.

use deepmd_repro::core::codec::Codec;
use deepmd_repro::core::eval::{evaluate, evaluate_into, EvalOutput};
use deepmd_repro::core::format::{format_optimized, format_optimized_into, FormattedEnv};
use deepmd_repro::core::{DpConfig, DpModel, EvalWorkspace};
use deepmd_repro::md::{lattice, units, NeighborList, System};
use dp_md::CounterRng;

fn make_system(reps: [usize; 3], seed: u64) -> (System, NeighborList) {
    let mut sys = lattice::fcc(3.615, reps, units::MASS_CU);
    let mut rng = CounterRng::new(seed);
    sys.perturb(0.1, &mut rng);
    let nl = NeighborList::build(&sys, 4.5);
    (sys, nl)
}

fn assert_fmt_bits_equal(reused: &FormattedEnv, fresh: &FormattedEnv, what: &str) {
    assert_eq!(reused.n_atoms, fresh.n_atoms, "{what}: n_atoms");
    assert_eq!(reused.sel, fresh.sel, "{what}: sel");
    assert_eq!(reused.indices, fresh.indices, "{what}: indices");
    assert_eq!(reused.overflowed, fresh.overflowed, "{what}: overflowed");
    for (name, a, b) in [
        ("env", &reused.env, &fresh.env),
        ("radial", &reused.radial, &fresh.radial),
        ("disp", &reused.disp, &fresh.disp),
    ] {
        assert_eq!(a.len(), b.len(), "{what}: {name} length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: {name}[{i}] differs: {x} vs {y}"
            );
        }
    }
}

fn assert_eval_bits_equal(reused: &EvalOutput, fresh: &EvalOutput, what: &str) {
    assert_eq!(
        reused.energy.to_bits(),
        fresh.energy.to_bits(),
        "{what}: energy {} vs {}",
        reused.energy,
        fresh.energy
    );
    assert_eq!(
        reused.per_atom_energy.len(),
        fresh.per_atom_energy.len(),
        "{what}: per-atom energy length"
    );
    for (i, (a, b)) in reused
        .per_atom_energy
        .iter()
        .zip(&fresh.per_atom_energy)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: per_atom_energy[{i}]");
    }
    assert_eq!(
        reused.forces.len(),
        fresh.forces.len(),
        "{what}: forces length"
    );
    for (i, (a, b)) in reused.forces.iter().zip(&fresh.forces).enumerate() {
        for k in 0..3 {
            assert_eq!(a[k].to_bits(), b[k].to_bits(), "{what}: forces[{i}][{k}]");
        }
    }
    for k in 0..6 {
        assert_eq!(
            reused.virial[k].to_bits(),
            fresh.virial[k].to_bits(),
            "{what}: virial[{k}]"
        );
    }
}

#[test]
fn dirty_formatted_env_is_bit_identical_to_fresh() {
    let cfg = DpConfig::small(1, 4.5, 16);
    // One long-lived trunk, visited across sizes 108 → 144 → 256 → 108
    // atoms so reuse has to both shrink and grow in place.
    let mut ws = FormattedEnv::alloc(0, &cfg);
    // Poison the reusable buffers so stale contents would be caught.
    ws.env.iter_mut().for_each(|v| *v = f64::NAN);
    for (reps, seed) in [
        ([3, 3, 3], 11u64),
        ([4, 3, 3], 12),
        ([4, 4, 4], 13),
        ([3, 3, 3], 14),
    ] {
        let (sys, nl) = make_system(reps, seed);
        for codec in [Codec::PaperDecimal, Codec::Binary] {
            format_optimized_into(&mut ws, &sys, &nl, &cfg, codec);
            let fresh = format_optimized(&sys, &nl, &cfg, codec);
            assert_fmt_bits_equal(&ws, &fresh, &format!("reps {reps:?} codec {codec:?}"));
        }
    }
}

#[test]
fn dirty_eval_workspace_is_bit_identical_to_fresh_f64() {
    let cfg = DpConfig::small(1, 4.5, 16);
    let mut rng = CounterRng::new(21);
    let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
    let mut ws = EvalWorkspace::<f64>::new(&cfg);
    let mut out = EvalOutput {
        energy: f64::NAN,
        per_atom_energy: vec![f64::NAN; 7],
        forces: vec![[f64::NAN; 3]; 7],
        virial: [f64::NAN; 6],
    };
    for (reps, seed) in [([3, 3, 3], 31u64), ([4, 3, 3], 32), ([3, 3, 3], 33)] {
        let (sys, nl) = make_system(reps, seed);
        let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        evaluate_into(&model, &fmt, &sys.types, sys.len(), None, &mut ws, &mut out);
        let fresh = evaluate(&model, &fmt, &sys.types, sys.len(), None);
        assert_eval_bits_equal(&out, &fresh, &format!("f64 reps {reps:?}"));
    }
}

#[test]
fn dirty_eval_workspace_is_bit_identical_to_fresh_f32() {
    let cfg = DpConfig::small(1, 4.5, 16);
    let mut rng = CounterRng::new(22);
    let model64 = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
    let model = model64.cast::<f32>();
    let mut ws = EvalWorkspace::<f32>::new(&cfg);
    let mut out = EvalOutput {
        energy: 0.0,
        per_atom_energy: Vec::new(),
        forces: Vec::new(),
        virial: [0.0; 6],
    };
    for (reps, seed) in [([4, 3, 3], 41u64), ([3, 3, 3], 42), ([4, 3, 3], 43)] {
        let (sys, nl) = make_system(reps, seed);
        let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        evaluate_into(&model, &fmt, &sys.types, sys.len(), None, &mut ws, &mut out);
        let fresh = evaluate(&model, &fmt, &sys.types, sys.len(), None);
        assert_eval_bits_equal(&out, &fresh, &format!("f32 reps {reps:?}"));
    }
}

#[test]
fn two_type_system_reuses_workspace_bit_identically() {
    // Multi-type path: per-type embedding slots and blocks in the trunk.
    let cfg = DpConfig::small(2, 4.5, 12);
    let mut rng = CounterRng::new(51);
    let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
    let mut ws = EvalWorkspace::<f64>::new(&cfg);
    let mut fmt_ws = FormattedEnv::alloc(0, &cfg);
    let mut out = EvalOutput {
        energy: 0.0,
        per_atom_energy: Vec::new(),
        forces: Vec::new(),
        virial: [0.0; 6],
    };
    for (reps, seed) in [([3, 3, 3], 61u64), ([4, 3, 3], 62)] {
        let mut sys = {
            let base = lattice::fcc(3.615, reps, units::MASS_CU);
            let n = base.len();
            let types: Vec<usize> = (0..n).map(|i| i % 2).collect();
            System::new(
                base.cell,
                base.positions.clone(),
                types,
                vec![units::MASS_CU, 58.693],
            )
        };
        sys.perturb(0.1, &mut CounterRng::new(seed));
        let nl = NeighborList::build(&sys, 4.5);

        format_optimized_into(&mut fmt_ws, &sys, &nl, &cfg, Codec::PaperDecimal);
        let fresh_fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        assert_fmt_bits_equal(&fmt_ws, &fresh_fmt, &format!("two-type reps {reps:?}"));

        evaluate_into(
            &model,
            &fmt_ws,
            &sys.types,
            sys.len(),
            None,
            &mut ws,
            &mut out,
        );
        let fresh = evaluate(&model, &fresh_fmt, &sys.types, sys.len(), None);
        assert_eval_bits_equal(&out, &fresh, &format!("two-type reps {reps:?}"));
    }
}

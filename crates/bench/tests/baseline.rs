//! The shipped path against the 2018 baseline and the §5.3 variants of
//! `dp_bench::baseline`: formatter, full evaluation, ProdForce /
//! ProdVirial, and the unfused linear-algebra operators. Inputs come from
//! `dp_md::CounterRng`; the property cases are seeded loops (a failure
//! names the case, which replays alone).

use deepmd_core::codec::Codec;
use deepmd_core::eval::evaluate;
use deepmd_core::format::{format_optimized, FormattedEnv};
use deepmd_core::ops::{prod_force_into, prod_virial_into};
use deepmd_core::{DpConfig, DpModel};
use dp_bench::baseline::eval::evaluate_baseline;
use dp_bench::baseline::format::format_baseline;
use dp_bench::baseline::linalg::{
    concat_sum_baseline, concat_sum_gemm, dup_sum_fused, gemm_bias, hcat, identity_pair,
    matmul_then_sum, tanh_fused, tanh_then_grad_baseline,
};
use dp_bench::baseline::{env_row_jacobian, jacobian, prod_force, prod_virial, type_blocks};
use dp_linalg::simd::env::{env_row, smooth_weight};
use dp_linalg::{Matrix, Real};
use dp_md::rng::for_cases;
use dp_md::{lattice, units, CounterRng, NeighborList, System};

// ---------------------------------------------------------------------------
// The Environment operator
// ---------------------------------------------------------------------------

fn copper_test_system() -> (System, NeighborList) {
    let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
    let mut rng = CounterRng::new(7);
    sys.perturb(0.1, &mut rng);
    let nl = NeighborList::build(&sys, 4.5);
    (sys, nl)
}

#[test]
fn optimized_equals_baseline() {
    let (sys, nl) = copper_test_system();
    let cfg = DpConfig::small(1, 4.5, 16);
    for codec in [Codec::PaperDecimal, Codec::Binary] {
        let a = format_optimized(&sys, &nl, &cfg, codec);
        let b = format_baseline(&sys, &nl, &cfg).table;
        assert_eq!(a.indices, b.indices, "{codec:?}");
        assert_eq!(a.env, b.env);
        assert_eq!(a.disp, b.disp);
        assert_eq!(a.overflowed, b.overflowed);
    }
}

/// On an unperturbed lattice distances tie, and the two formatters may
/// order tied slots differently (the u64 key breaks ties by gather
/// position, the struct sort by exact distance), but with room for
/// all 42 neighbors every row holds the same ones. (Under overflow a
/// tied shell cut by `sel` may keep different members.)
#[test]
fn tied_distances_keep_the_baseline_neighbor_sets() {
    let sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
    let nl = NeighborList::build(&sys, 4.5);
    let cfg = DpConfig::small(1, 4.5, 48);
    let sets = |f: &FormattedEnv| -> Vec<std::collections::BTreeSet<i32>> {
        f.indices
            .chunks(f.nm)
            .map(|r| r.iter().copied().collect())
            .collect()
    };
    let base = format_baseline(&sys, &nl, &cfg).table;
    for codec in [Codec::PaperDecimal, Codec::Binary] {
        let opt = format_optimized(&sys, &nl, &cfg, codec);
        assert_eq!((opt.overflowed, base.overflowed), (0, 0));
        assert_eq!(sets(&opt), sets(&base), "{codec:?}");
    }
}

#[test]
fn env_row_jacobian_matches_fd() {
    let d0: [f64; 3] = [1.2, -0.7, 2.1];
    let rcs = 1.0;
    let rc = 6.0;
    let row_of = |d: [f64; 3]| {
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        env_row(d, r, smooth_weight(r, rcs, rc).0)
    };
    let r0 = (d0[0] * d0[0] + d0[1] * d0[1] + d0[2] * d0[2]).sqrt();
    let (s0, ds0) = smooth_weight(r0, rcs, rc);
    let dw = env_row_jacobian(d0, r0, s0, ds0);
    let h = 1e-7;
    for k in 0..3 {
        let mut dp = d0;
        dp[k] += h;
        let mut dm = d0;
        dm[k] -= h;
        let wp = row_of(dp);
        let wm = row_of(dm);
        for m in 0..4 {
            let fd = (wp[m] - wm[m]) / (2.0 * h);
            assert!(
                (fd - dw[m][k]).abs() < 1e-6,
                "m={m} k={k}: fd {fd} vs {}",
                dw[m][k]
            );
        }
    }
}

/// The Jacobian the baseline formatter stores slot by slot is the one
/// [`jacobian`] rebuilds from a table's displacements, bit for bit, so
/// `table3` can build it for the shipped table outside its timed region.
#[test]
fn stored_jacobian_is_the_table_jacobian() {
    let (sys, nl) = copper_test_system();
    let cfg = DpConfig::small(1, 4.5, 16);
    let base = format_baseline(&sys, &nl, &cfg);
    let bits = |j: &[[[f64; 3]; 4]]| -> Vec<u64> {
        j.iter().flatten().flatten().map(|x| x.to_bits()).collect()
    };
    assert_eq!(bits(&base.jacobian), bits(&jacobian(&base.table, &cfg)));
}

// ---------------------------------------------------------------------------
// ProdForce / ProdVirial and the whole pipeline
// ---------------------------------------------------------------------------

/// The shipped ProdForce + ProdVirial against the baseline's 12-value
/// contraction on a two-species table with padding, the check `table3`
/// makes before timing: the closed form and the stored Jacobian round
/// differently, so the outputs agree to 1e-12 of their norm.
#[test]
fn prod_force_and_virial_match_the_shipped_operators() {
    let cfg = DpConfig {
        rcut: 5.0,
        rcut_smth: 1.0,
        sel: vec![12, 24],
        embedding: vec![4, 8],
        fitting: vec![16, 16],
        axis_neurons: 3,
    };
    let mut rng = CounterRng::new(24);
    let mut sys = lattice::water_box([3, 3, 3], 3.5);
    sys.perturb(0.05, &mut rng);
    let nl = NeighborList::build(&sys, cfg.rcut);
    let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
    let gw: Vec<[f64; 4]> = (0..fmt.n_atoms * fmt.nm)
        .map(|_| [(); 4].map(|_| rng.range(-1.0, 1.0)))
        .collect();
    let dedr = type_blocks(&fmt, &gw);
    let mut slot_grads = Vec::new();
    let mut forces = vec![[0.0f64; 3]; sys.len()];
    let mut virial = [0.0f64; 6];
    prod_force_into(fmt.rows(0..fmt.n_atoms), &dedr, &mut slot_grads);
    prod_virial_into(
        fmt.rows(0..fmt.n_atoms),
        0,
        &slot_grads,
        &mut forces,
        &mut virial,
    );

    let jac = jacobian(&fmt, &cfg);
    let rel_err = |a: &[f64], b: &[f64]| {
        let norm = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        let diff = a.iter().zip(b).map(|(x, y)| (x - y).abs());
        diff.fold(0.0, f64::max) / norm
    };
    let fb = prod_force(&fmt, &jac, &gw, sys.len());
    assert!(rel_err(forces.as_flattened(), fb.as_flattened()) <= 1e-12);
    assert!(rel_err(&virial, &prod_virial(&fmt, &jac, &gw)) <= 1e-12);
}

#[test]
fn optimized_matches_baseline_single_species() {
    let cfg = DpConfig::small(1, 4.5, 16);
    let mut rng = CounterRng::new(21);
    let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
    let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
    sys.perturb(0.12, &mut rng);
    let nl = NeighborList::build(&sys, cfg.rcut);

    let base = evaluate_baseline(&model, &sys, &nl);
    let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
    let fast = evaluate(&model, &fmt, &sys.types, sys.len(), None);

    assert!(
        (base.energy - fast.energy).abs() < 1e-9,
        "energy {} vs {}",
        base.energy,
        fast.energy
    );
    for (a, b) in base.forces.iter().zip(&fast.forces) {
        for k in 0..3 {
            assert!((a[k] - b[k]).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }
    for k in 0..6 {
        assert!((base.virial[k] - fast.virial[k]).abs() < 1e-8);
    }
}

#[test]
fn optimized_matches_baseline_two_species() {
    let cfg = DpConfig {
        rcut: 5.0,
        rcut_smth: 1.0,
        sel: vec![12, 24],
        embedding: vec![4, 8],
        fitting: vec![16, 16],
        axis_neurons: 3,
    };
    let mut rng = CounterRng::new(22);
    let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
    let mut sys = lattice::water_box([3, 3, 3], 3.5);
    sys.perturb(0.05, &mut rng);
    let nl = NeighborList::build(&sys, cfg.rcut);

    let base = evaluate_baseline(&model, &sys, &nl);
    let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
    let fast = evaluate(&model, &fmt, &sys.types, sys.len(), None);

    assert!((base.energy - fast.energy).abs() < 1e-9);
    for (a, b) in base.forces.iter().zip(&fast.forces) {
        for k in 0..3 {
            assert!((a[k] - b[k]).abs() < 1e-8, "{a:?} vs {b:?}");
        }
    }
}

#[test]
fn baseline_forces_match_fd() {
    let cfg = DpConfig::small(1, 4.5, 16);
    let mut rng = CounterRng::new(23);
    let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
    let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
    sys.perturb(0.1, &mut rng);

    let compute = |sys: &System| {
        let nl = NeighborList::build(sys, cfg.rcut);
        evaluate_baseline(&model, sys, &nl)
    };
    let out = compute(&sys);
    let eps = 1e-6;
    for k in 0..3 {
        let orig = sys.positions[30][k];
        sys.positions[30][k] = orig + eps;
        let ep = compute(&sys).energy;
        sys.positions[30][k] = orig - eps;
        let em = compute(&sys).energy;
        sys.positions[30][k] = orig;
        let fd = -(ep - em) / (2.0 * eps);
        assert!((fd - out.forces[30][k]).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------------
// The §5.3 operator variants
// ---------------------------------------------------------------------------

const CASES: u64 = 256;

fn dim(rng: &mut CounterRng, max: usize) -> usize {
    1 + rng.below(max as u64) as usize
}

fn matrix(rng: &mut CounterRng, rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| rng.range(-10.0, 10.0))
}

/// Any shape up to `max × max`.
fn any_matrix(max: usize) -> impl Fn(&mut CounterRng) -> Matrix<f64> {
    move |rng| {
        let (r, c) = (dim(rng, max), dim(rng, max));
        matrix(rng, r, c)
    }
}

/// `(m×k, k×n)` with every dimension up to `max`.
fn compatible_pair(max: usize) -> impl Fn(&mut CounterRng) -> (Matrix<f64>, Matrix<f64>) {
    move |rng| {
        let (m, k, n) = (dim(rng, max), dim(rng, max), dim(rng, max));
        (matrix(rng, m, k), matrix(rng, k, n))
    }
}

fn bits<T: Real>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn m(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f64) * 0.1 - 1.3)
}

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    // Small deterministic LCG.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    })
}

#[test]
fn fused_bias_matches_unfused() {
    let a = rand_matrix(33, 25, 10);
    let w = rand_matrix(25, 50, 11);
    let bias: Vec<f64> = (0..50).map(|i| i as f64 * 0.01).collect();
    let fused = gemm_bias(&a, &w, &bias);
    let unfused = matmul_then_sum(&a, &w, &bias);
    assert!(fused.max_abs_diff(&unfused) < 1e-12);
}

#[test]
fn fused_bias_equals_two_ops() {
    let draw = |rng: &mut CounterRng| (compatible_pair(10)(rng), rng.below(1000));
    for_cases(0x6E05, CASES, draw, |((a, b), bias_seed)| {
        let bias: Vec<f64> = (0..b.cols())
            .map(|i| ((bias_seed + i as u64) % 17) as f64 * 0.3 - 2.0)
            .collect();
        let fused = gemm_bias(a, b, &bias);
        let two = matmul_then_sum(a, b, &bias);
        assert!(fused.max_abs_diff(&two) < 1e-10);
    });
}

#[test]
fn fused_tanh_matches_baseline() {
    let x = m(13, 7);
    let (t0, g0) = tanh_then_grad_baseline(&x);
    let (t1, g1) = tanh_fused(&x);
    // 1e-13, not 1e-15: the vectorized tanh (Cephes exp) deviates
    // from std tanh by a few ULPs — the documented tolerance-gated
    // deviation of the SIMD rewrite.
    assert!(t0.max_abs_diff(&t1) < 1e-13);
    assert!(g0.max_abs_diff(&g1) < 1e-13);
}

#[test]
fn fused_tanh_equals_baseline() {
    for_cases(0x6E06, CASES, any_matrix(12), |x| {
        let (t0, g0) = tanh_then_grad_baseline(x);
        let (t1, g1) = tanh_fused(x);
        // 1e-13: the SIMD tanh (Cephes exp) is a few ULPs off std tanh —
        // the documented tolerance-gated deviation of the vector path.
        assert!(t0.max_abs_diff(&t1) < 1e-13);
        assert!(g0.max_abs_diff(&g1) < 1e-13);
    });
}

#[test]
fn skip_connection_variants_agree() {
    let x = m(9, 4);
    let h = m(9, 8);
    let a = concat_sum_baseline(&x, &h);
    let b = concat_sum_gemm(&x, &identity_pair(4), &h);
    let c = dup_sum_fused(&x, &h);
    assert!(a.max_abs_diff(&b) < 1e-12);
    assert!(a.max_abs_diff(&c) < 1e-12);
}

#[test]
fn concat_sum_gemm_matches_concat_across_widths() {
    // Two widths, interleaved, twice each, with the (I,I) operand of each.
    for _ in 0..2 {
        for k in [3usize, 5] {
            let x = m(4, k);
            let h = m(4, 2 * k);
            let fast = concat_sum_gemm(&x, &identity_pair(k), &h);
            let slow = concat_sum_baseline(&x, &h);
            assert!(fast.max_abs_diff(&slow) < 1e-12, "k={k}");
        }
    }
    // and in f32
    let x32 = m(4, 3).cast::<f32>();
    let h32 = m(4, 6).cast::<f32>();
    let fast32 = concat_sum_gemm(&x32, &identity_pair(3), &h32);
    let slow32 = concat_sum_baseline(&x32, &h32);
    assert!(fast32.max_abs_diff(&slow32) < 1e-5);
}

#[test]
fn skip_connection_fused_equals_concat() {
    for_cases(0x6E07, CASES, any_matrix(8), |x| {
        let h = Matrix::from_fn(x.rows(), 2 * x.cols(), |i, j| (i + j) as f64 * 0.25 - 1.0);
        // bit for bit: the one-pass `h + x` against CONCAT then `fma(h, 1, xx)`
        let base = concat_sum_baseline(x, &h);
        let fused = dup_sum_fused(x, &h);
        assert_eq!(bits(fused.as_slice()), bits(base.as_slice()));
        let (x, h) = (x.cast::<f32>(), h.cast::<f32>());
        let base = concat_sum_baseline(&x, &h);
        let fused = dup_sum_fused(&x, &h);
        assert_eq!(bits(fused.as_slice()), bits(base.as_slice()));
    });
}

#[test]
fn hcat_layout() {
    let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
    let b = Matrix::full(2, 1, 9.0_f64);
    let c = hcat(&a, &b);
    assert_eq!(c.shape(), (2, 3));
    assert_eq!(c.row(0), &[0.0, 1.0, 9.0]);
    assert_eq!(c.row(1), &[2.0, 3.0, 9.0]);
}

#[test]
fn hcat_preserves_halves() {
    for_cases(0x6E08, CASES, any_matrix(8), |x| {
        let c = hcat(x, x);
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                assert_eq!(c[(i, j)], x[(i, j)]);
                assert_eq!(c[(i, j + x.cols())], x[(i, j)]);
            }
        }
    });
}

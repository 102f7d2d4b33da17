//! Table 3 — performance of the customized TensorFlow operators.
//!
//! The paper times the Environment, ProdViral and ProdForce operators in
//! the baseline (CPU, serial, AoS) and optimized (GPU, sorted/compressed,
//! fine-grained parallel) implementations on the 12,288-atom water system,
//! reporting 130× / 38× / 17× speedups. Here the optimized column is the
//! shipped operators of `deepmd_core::ops`, the code every force call runs,
//! on the same workload and network hyper-parameters; the baseline column
//! is the serial struct-sort formatter and the per-slot loops below.
//!
//! The shipped ProdForce only contracts each slot's `∂E/∂R̃` with its
//! Jacobian; the force scatter runs fused with ProdVirial. The baselines
//! each contract on their own, so the per-operator rows time different
//! splits of the work and the sum row compares like with like.
//!
//! Run with: `cargo run --release -p dp-bench --bin table3`

use deepmd_core::format::{format_baseline, FormattedEnv, NONE};
use deepmd_core::ops::{format_optimized_into, prod_force_into, prod_virial_into};
use dp_bench::report::{median_ms, print_provenance, print_table};
use dp_bench::workloads;
use dp_md::{CounterRng, NeighborList};
use std::collections::BTreeSet;
use std::hint::black_box;

const REPS: usize = 9;

/// Synthetic per-slot ∂E/∂R̃ rows (4 values, the embedding-input gradient
/// folded into the first), standing in for what the network backward pass
/// produces; the ProdForce / ProdVirial operators are pure functions of
/// these plus the geometry.
fn synthetic_gw(fmt: &FormattedEnv, seed: u64) -> Vec<[f64; 4]> {
    let mut rng = CounterRng::new(seed);
    let n_slots = fmt.n_atoms * fmt.nm;
    (0..n_slots).map(|_| [(); 4].map(|_| rng.range(-1.0, 1.0))).collect()
}

/// `gw` regrouped into the per-neighbor-type blocks the shipped operators
/// read.
fn type_blocks(fmt: &FormattedEnv, gw: &[[f64; 4]]) -> Vec<Vec<f64>> {
    (0..fmt.sel.len())
        .map(|t| {
            let slots = (0..fmt.n_atoms).flat_map(|a| {
                let b = fmt.block_start(a, t);
                b..b + fmt.sel[t]
            });
            slots.flat_map(|s| gw[s]).collect()
        })
        .collect()
}

/// Baseline ProdForce: single-threaded slot loop, scalar scatter.
fn prod_force_baseline(fmt: &FormattedEnv, gw: &[[f64; 4]], n_total: usize) -> Vec<[f64; 3]> {
    let mut forces = vec![[0.0f64; 3]; n_total];
    for atom in 0..fmt.n_atoms {
        for s in 0..fmt.nm {
            let slot = atom * fmt.nm + s;
            let j = fmt.indices[slot];
            if j == NONE {
                continue;
            }
            let jac = &fmt.denv[slot * 12..slot * 12 + 12];
            let g = gw[slot];
            for kk in 0..3 {
                let grad =
                    g[0] * jac[kk] + g[1] * jac[3 + kk] + g[2] * jac[6 + kk] + g[3] * jac[9 + kk];
                forces[atom][kk] += grad;
                forces[j as usize][kk] -= grad;
            }
        }
    }
    forces
}

/// Baseline ProdVirial: single-threaded.
fn prod_virial_baseline(fmt: &FormattedEnv, gw: &[[f64; 4]]) -> [f64; 6] {
    let mut w = [0.0f64; 6];
    for slot in 0..fmt.n_atoms * fmt.nm {
        if fmt.indices[slot] == NONE {
            continue;
        }
        let jac = &fmt.denv[slot * 12..slot * 12 + 12];
        let g = gw[slot];
        let d = &fmt.disp[slot * 3..slot * 3 + 3];
        let mut grad = [0.0; 3];
        for kk in 0..3 {
            grad[kk] =
                g[0] * jac[kk] + g[1] * jac[3 + kk] + g[2] * jac[6 + kk] + g[3] * jac[9 + kk];
        }
        w[0] -= d[0] * grad[0];
        w[1] -= d[1] * grad[1];
        w[2] -= d[2] * grad[2];
        w[3] -= d[0] * grad[1];
        w[4] -= d[0] * grad[2];
        w[5] -= d[1] * grad[2];
    }
    w
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let sys = workloads::water_12288();
    let cfg = deepmd_core::DpConfig::water_paper();
    let codec = cfg.codec(sys.len());
    let nl = NeighborList::build(&sys, cfg.rcut);
    print_provenance();
    println!(
        "Table 3 reproduction: water, {} atoms, rcut {} Å, sel {:?}",
        sys.len(),
        cfg.rcut,
        cfg.sel
    );

    // --- Environment operator (neighbor formatting + environment matrix) ---
    let mut fmt = FormattedEnv::alloc(0, &cfg);
    format_optimized_into(&mut fmt, &sys, &nl, &cfg, codec);
    // the same neighbors per atom; slots whose distances tie to within the
    // codec's 1e-8 Å may come in another order
    let neighbor_sets = |f: &FormattedEnv| -> Vec<BTreeSet<i32>> {
        f.indices.chunks(f.nm).map(|r| r.iter().copied().collect()).collect()
    };
    assert!(
        neighbor_sets(&format_baseline(&sys, &nl, &cfg)) == neighbor_sets(&fmt),
        "Environment implementations disagree"
    );
    let t_env_base = median_ms(REPS, || {
        black_box(format_baseline(&sys, &nl, &cfg));
    });
    let t_env_opt = median_ms(REPS, || {
        format_optimized_into(&mut fmt, &sys, &nl, &cfg, codec);
        black_box(&fmt);
    });

    let gw = synthetic_gw(&fmt, 99);
    let dedr = type_blocks(&fmt, &gw);
    let rows = fmt.rows(0..fmt.n_atoms);
    let mut slot_grads = Vec::new();
    let mut forces = vec![[0.0f64; 3]; sys.len()];
    let mut virial = [0.0f64; 6];

    // correctness cross-checks before timing: the same sums in the same
    // order, so the same bits
    prod_force_into(rows, &dedr, &mut slot_grads);
    prod_virial_into(rows, 0, &slot_grads, &mut forces, &mut virial);
    let fb = prod_force_baseline(&fmt, &gw, sys.len());
    assert!(
        bits(fb.as_flattened()) == bits(forces.as_flattened()),
        "ProdForce implementations disagree"
    );
    let vb = prod_virial_baseline(&fmt, &gw);
    assert!(bits(&vb) == bits(&virial), "ProdVirial implementations disagree");

    let t_force_base = median_ms(REPS, || {
        black_box(prod_force_baseline(&fmt, &gw, sys.len()));
    });
    let t_force_opt = median_ms(REPS, || {
        prod_force_into(rows, &dedr, &mut slot_grads);
        black_box(&slot_grads);
    });
    let t_virial_base = median_ms(REPS, || {
        black_box(prod_virial_baseline(&fmt, &gw));
    });
    let t_virial_opt = median_ms(REPS, || {
        forces.fill([0.0; 3]);
        virial = [0.0; 6];
        prod_virial_into(rows, 0, &slot_grads, &mut forces, &mut virial);
        black_box((&forces, &virial));
    });

    let row = |name: &str, base: f64, opt: f64, paper: &str| {
        vec![
            name.to_string(),
            format!("{base:.2}"),
            format!("{opt:.2}"),
            format!("{:.1}x", base / opt),
            paper.to_string(),
        ]
    };
    print_table(
        &format!("Table 3: customized operators, baseline vs shipped [ms, median of {REPS}]"),
        &["operator", "baseline", "shipped", "speedup", "paper speedup"],
        &[
            row("Environment", t_env_base, t_env_opt, "130x"),
            row("ProdViral", t_virial_base, t_virial_opt, "38x"),
            row("ProdForce", t_force_base, t_force_opt, "17x"),
            row(
                "ProdForce+ProdViral",
                t_force_base + t_virial_base,
                t_force_opt + t_virial_opt,
                "-",
            ),
        ],
    );
    println!(
        "\nShipped ProdForce is the per-slot contraction alone; shipped ProdViral\n\
         also scatters the forces. Each baseline contracts on its own, so only\n\
         the sum row times the same work on both sides. All on one thread: the\n\
         paper's optimized side is a V100."
    );
}

//! §7.1 — end-to-end speedup of the optimized pipeline over the baseline.
//!
//! The paper stacks three gains on one V100 for 12,288-atom water:
//! custom-operator optimization (6.2× on the MD loop), TensorFlow-graph
//! fusion (×1.21), and mixed precision (×1.5) — 7.5× double / 11.3× mixed
//! overall against the 2018 baseline. Our baseline is the faithful serial
//! per-atom pipeline (`dp_bench::baseline::eval`); the optimized path adds
//! the sorted/padded layout, batched tall GEMMs, fused kernels and the
//! reusable formatting workspace.
//!
//! Run with: `cargo run --release -p dp-bench --bin speedup`

use deepmd_core::codec::Codec;
use deepmd_core::eval::evaluate;
use deepmd_core::format::{format_optimized, format_optimized_into};
use dp_bench::baseline::eval::evaluate_baseline;
use dp_bench::models;
use dp_bench::report::{median_ms, print_provenance, print_table};
use dp_md::{lattice, NeighborList};

const REPS: usize = 3;

fn main() {
    // Paper hyper-parameters on a 192-atom water slice: the baseline is
    // O(atoms) with a huge constant, so a slice keeps the harness minutes-
    // scale while per-atom costs transfer directly.
    let sys = lattice::water_box([4, 4, 4], 3.104);
    let model = models::water_model_paper_size(7);
    let model32 = model.cast::<f32>();
    let nl = NeighborList::build(&sys, model.config.rcut);
    print_provenance();
    println!(
        "Speedup harness: water, {} atoms, paper nets (emb 25x50x100, fit 240^3)",
        sys.len()
    );

    // correctness pin before timing
    let base_out = evaluate_baseline(&model, &sys, &nl);
    let fmt0 = format_optimized(&sys, &nl, &model.config, Codec::PaperDecimal);
    let opt_out = evaluate(&model, &fmt0, &sys.types, sys.len(), None);
    assert!(
        (base_out.energy - opt_out.energy).abs() < 1e-8,
        "pipelines disagree"
    );

    // 1. baseline: struct-sort formatting + per-atom small-matrix pipeline
    let t_baseline = median_ms(REPS, || {
        std::hint::black_box(evaluate_baseline(&model, &sys, &nl));
    });

    // 2. optimized double: sorted/padded/compressed + batched + fused,
    //    formatting workspace reused across steps
    let mut ws = format_optimized(&sys, &nl, &model.config, Codec::PaperDecimal);
    let t_opt = median_ms(REPS, || {
        format_optimized_into(&mut ws, &sys, &nl, &model.config, Codec::PaperDecimal);
        std::hint::black_box(evaluate(&model, &ws, &sys.types, sys.len(), None));
    });

    // 3. optimized mixed precision
    let t_mixed = median_ms(REPS, || {
        format_optimized_into(&mut ws, &sys, &nl, &model.config, Codec::PaperDecimal);
        std::hint::black_box(evaluate(&model32, &ws, &sys.types, sys.len(), None));
    });

    print_table(
        &format!("End-to-end evaluation time per step [ms, median of {REPS}]"),
        &["pipeline", "time", "speedup vs baseline", "paper"],
        &[
            vec![
                "baseline (2018 serial)".into(),
                format!("{t_baseline:.1}"),
                "1.0x".into(),
                "1.0x".into(),
            ],
            vec![
                "optimized double".into(),
                format!("{t_opt:.1}"),
                format!("{:.2}x", t_baseline / t_opt),
                "7.5x".into(),
            ],
            vec![
                "optimized mixed".into(),
                format!("{t_mixed:.1}"),
                format!("{:.2}x", t_baseline / t_mixed),
                "11.3x".into(),
            ],
        ],
    );
    println!(
        "\nNote: the paper's optimized side runs on a V100 (7 TF fp64 + 900 GB/s);\n\
         this host is a single CPU core, so absolute speedups compress. The shape\n\
         to check: optimized > baseline, and mixed >= double. The mixed gain on a\n\
         scalar CPU is small because our GEMM is compute-bound, not bandwidth-bound\n\
         like the GPU kernels the paper accelerates."
    );
}

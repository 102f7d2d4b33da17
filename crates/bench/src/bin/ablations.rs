//! §5.3 / §5.2.2 ablations — each paper optimization timed against the
//! unfused / struct baseline it replaced, plus the SIMD-backend and
//! tabulated-embedding comparisons (EXPERIMENTS.md "Ablations").
//!
//! Every row is the median of `REPS` timed calls after one warm-up
//! ([`dp_bench::report::median_ms`]).
//!
//! Run with: `cargo run --release -p dp-bench --bin ablations`

use deepmd_core::codec::Codec;
use deepmd_core::compress::{evaluate_compressed, CompressedModel};
use deepmd_core::eval::evaluate;
use deepmd_core::format::format_optimized;
use deepmd_core::{DpConfig, DpModel};
use dp_bench::report::{median_ms, print_table};
use dp_linalg::fused::{
    concat_sum_baseline, concat_sum_gemm, dup_sum_fused, tanh_fused, tanh_then_grad_baseline,
};
use dp_linalg::gemm::{gemm_bias, matmul_then_sum};
use dp_linalg::simd::{self, Acc, Backend, Panel, PanelGemm};
use dp_linalg::Matrix;
use dp_md::{lattice, CounterRng, NeighborList};
use std::hint::black_box;

const REPS: usize = 9;

fn tall_matrix(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 31 + j * 7) % 13) as f64 * 0.11 - 0.7
    })
}

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |group: &str, variant: &str, ms: f64| {
        rows.push(vec![
            group.to_string(),
            variant.to_string(),
            format!("{ms:.4}"),
        ]);
    };

    // §5.3.1: MATMUL+SUM vs fused GEMM on the paper's tall-skinny shape
    // ("x of size 376,832 by 50 with W of size 50 by 100" — scaled 8× down).
    let x = tall_matrix(47_104, 50);
    let w = tall_matrix(50, 100);
    let bias: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
    let g = "§5.3.1 matmul_sum_vs_gemm";
    row(
        g,
        "baseline: MATMUL then SUM",
        median_ms(REPS, || {
            black_box(matmul_then_sum(&x, &w, &bias));
        }),
    );
    row(
        g,
        "optimized: fused GEMM+bias",
        median_ms(REPS, || {
            black_box(gemm_bias(&x, &w, &bias));
        }),
    );

    // §5.3.2: CONCAT+SUM vs GEMM-with-(I,I) vs direct fused write.
    let h = tall_matrix(47_104, 100);
    let g = "§5.3.2 concat_sum_vs_gemm";
    row(
        g,
        "baseline: CONCAT then SUM",
        median_ms(REPS, || {
            black_box(concat_sum_baseline(&x, &h));
        }),
    );
    row(
        g,
        "paper: GEMM with (I,I)",
        median_ms(REPS, || {
            black_box(concat_sum_gemm(&x, &h));
        }),
    );
    row(
        g,
        "fused: direct dup+sum",
        median_ms(REPS, || {
            black_box(dup_sum_fused(&x, &h));
        }),
    );

    // §5.3.3: separate TANH + TANHGrad (recompute) vs the fused kernel.
    let g = "§5.3.3 tanh_fusion";
    row(
        g,
        "baseline: TANH + TANHGrad",
        median_ms(REPS, || {
            black_box(tanh_then_grad_baseline(&h));
        }),
    );
    row(
        g,
        "fused: one pass",
        median_ms(REPS, || {
            black_box(tanh_fused(&h));
        }),
    );

    // SIMD dispatch: the scalar baseline vs every backend the host can
    // run, on the two vectorized hot kernels — the shape-resolved view of
    // perfbench's `linalg.*` ledger rows.
    let (m, k, n) = (2048usize, 64usize, 64usize);
    let a: Vec<f64> = (0..m * k).map(|i| (i % 97) as f64 * 1e-2 - 0.5).collect();
    let b_op: Vec<f64> = (0..k * n).map(|i| (i % 89) as f64 * 1e-2 - 0.4).collect();
    let act: Vec<f64> = (0..m * n).map(|i| (i % 101) as f64 * 4e-2 - 2.0).collect();
    let mut out = vec![0.0f64; m * n];
    let mut t = vec![0.0f64; m * n];
    let mut grad = vec![0.0f64; m * n];
    let mut backends = vec![Backend::Scalar];
    backends.extend(
        simd::available()
            .into_iter()
            .filter(|&b| b != Backend::Scalar),
    );
    for backend in backends {
        let ld = |ld| Panel { ld, stride: 0 };
        let g = PanelGemm {
            m,
            k,
            n,
            alpha: 1.0,
            a: ld(k),
            b: ld(n),
            c: ld(n),
            acc: Acc::Overwrite,
        };
        let ms = median_ms(REPS, || {
            simd::row_panel_with(backend, &g, false, 0..1, &a, &b_op, &mut out);
            black_box(&mut out);
        });
        row("simd row_gemm 2048x64x64", backend.name(), ms);
        let ms = median_ms(REPS, || {
            simd::tanh_fused_with(backend, &act, &mut t, &mut grad);
            black_box((&mut t, &mut grad));
        });
        row("simd tanh_fused 128k", backend.name(), ms);
    }

    // §5.2.2: struct-comparator sort vs u64 scalar sort of compressed
    // keys; one atom's raw neighborhood, paper water scale (~500).
    let raw: Vec<(u32, f64, u32)> = (0..500u32)
        .map(|k| ((k % 2), ((k * 2654435761u32) % 6000) as f64 * 1e-3, k))
        .collect();
    let g = "§5.2.2 neighbor_sort";
    for codec in [Codec::PaperDecimal, Codec::Binary] {
        let ms = median_ms(REPS, || {
            let mut keys: Vec<u64> = raw
                .iter()
                .map(|&(t, r, j)| codec.encode(t as usize, r, j as usize))
                .collect();
            keys.sort_unstable();
            black_box(keys);
        });
        row(g, &format!("u64 compress+sort {codec:?}"), ms);
    }
    row(
        g,
        "struct sort (3-field comparator)",
        median_ms(REPS, || {
            let mut v = raw.clone();
            v.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
            black_box(v);
        }),
    );

    // Extension: spline-compressed embedding (DeePMD-kit "model
    // compression") vs the exact batched pipeline, 256 copper atoms.
    let cfg = DpConfig::small(1, 4.5, 20);
    let mut rng = CounterRng::new(77);
    let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
    let mut sys = lattice::fcc(3.615, [4, 4, 4], 63.546);
    sys.perturb(0.1, &mut rng);
    let nl = NeighborList::build(&sys, cfg.rcut);
    let fmt = format_optimized(&sys, &nl, &cfg, Codec::Binary);
    let cm = CompressedModel::build(model.clone(), 1.0, 1024);
    let g = "model_compression_256_copper";
    row(
        g,
        "exact embedding nets",
        median_ms(REPS, || {
            black_box(evaluate(&model, &fmt, &sys.types, sys.len(), None).energy);
        }),
    );
    row(
        g,
        "tabulated embeddings",
        median_ms(REPS, || {
            black_box(evaluate_compressed(&cm, &fmt, &sys.types, sys.len()).energy);
        }),
    );

    print_table(
        &format!("Ablations (median of {REPS}, ms)"),
        &["ablation", "variant", "ms"],
        &rows,
    );
}

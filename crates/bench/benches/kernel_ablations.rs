//! Ablation benches for the §5.3 graph-level optimizations and the §5.2.2
//! u64 sort: each paper optimization measured against the unfused/struct
//! baseline it replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_linalg::fused::{
    concat_sum_baseline, concat_sum_gemm, dup_sum_fused, tanh_fused, tanh_then_grad_baseline,
};
use dp_linalg::gemm::{gemm_bias, matmul_then_sum};
use dp_linalg::Matrix;
use std::time::Duration;

fn tall_matrix(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 31 + j * 7) % 13) as f64 * 0.11 - 0.7
    })
}

/// §5.3.1: MATMUL+SUM vs fused GEMM on the paper's tall-skinny shape
/// ("x of size 376,832 by 50 with W of size 50 by 100" — scaled 8× down).
fn bench_gemm_fusion(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_sum_vs_gemm");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let x = tall_matrix(47_104, 50);
    let w = tall_matrix(50, 100);
    let bias: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
    g.bench_function("baseline: MATMUL then SUM", |b| {
        b.iter(|| std::hint::black_box(matmul_then_sum(&x, &w, &bias)))
    });
    g.bench_function("optimized: fused GEMM+bias", |b| {
        b.iter(|| std::hint::black_box(gemm_bias(&x, &w, &bias)))
    });
    g.finish();
}

/// §5.3.2: CONCAT+SUM vs GEMM-with-(I,I) vs direct fused write.
fn bench_concat_fusion(c: &mut Criterion) {
    let mut g = c.benchmark_group("concat_sum_vs_gemm");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let x = tall_matrix(47_104, 50);
    let h = tall_matrix(47_104, 100);
    g.bench_function("baseline: CONCAT then SUM", |b| {
        b.iter(|| std::hint::black_box(concat_sum_baseline(&x, &h)))
    });
    g.bench_function("paper: GEMM with (I,I)", |b| {
        b.iter(|| std::hint::black_box(concat_sum_gemm(&x, &h)))
    });
    g.bench_function("fused: direct dup+sum", |b| {
        b.iter(|| std::hint::black_box(dup_sum_fused(&x, &h)))
    });
    g.finish();
}

/// §5.3.3: separate TANH + TANHGrad (recompute) vs the fused kernel.
fn bench_tanh_fusion(c: &mut Criterion) {
    let mut g = c.benchmark_group("tanh_fusion");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let x = tall_matrix(47_104, 100);
    g.bench_function("baseline: TANH + TANHGrad", |b| {
        b.iter(|| std::hint::black_box(tanh_then_grad_baseline(&x)))
    });
    g.bench_function("fused: one pass", |b| {
        b.iter(|| std::hint::black_box(tanh_fused(&x)))
    });
    g.finish();
}

/// SIMD dispatch ablation: the scalar baseline vs every backend the host
/// can run, on the two vectorized hot kernels (GEMM row microkernel and
/// fused tanh). Complements perfbench's `linalg.*` ledger rows — this is
/// the shape-resolved criterion view.
fn bench_simd_backends(c: &mut Criterion) {
    use dp_linalg::simd::{self, Backend};
    let (rows, k, n) = (2048usize, 64usize, 64usize);
    let a: Vec<f64> = (0..rows * k).map(|i| (i % 97) as f64 * 1e-2 - 0.5).collect();
    let b_op: Vec<f64> = (0..k * n).map(|i| (i % 89) as f64 * 1e-2 - 0.4).collect();
    let x: Vec<f64> = (0..rows * n).map(|i| (i % 101) as f64 * 4e-2 - 2.0).collect();
    let mut out = vec![0.0f64; rows * n];
    let mut t = vec![0.0f64; rows * n];
    let mut grad = vec![0.0f64; rows * n];

    let mut g = c.benchmark_group("simd_backends");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let mut backends = vec![Backend::Scalar];
    backends.extend(
        simd::available()
            .into_iter()
            .filter(|&b| b != Backend::Scalar),
    );
    for &backend in &backends {
        g.bench_with_input(
            BenchmarkId::new("row_gemm 2048x64x64", backend.name()),
            &backend,
            |bch, &backend| {
                bch.iter(|| {
                    out.fill(0.0);
                    for row in 0..rows {
                        simd::row_gemm_with(
                            backend,
                            &mut out[row * n..(row + 1) * n],
                            &a[row * k..(row + 1) * k],
                            &b_op,
                            n,
                            1.0,
                        );
                    }
                    std::hint::black_box(&mut out);
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("tanh_fused 128k", backend.name()),
            &backend,
            |bch, &backend| {
                bch.iter(|| {
                    simd::tanh_fused_with(backend, &x, &mut t, &mut grad);
                    std::hint::black_box((&mut t, &mut grad));
                })
            },
        );
    }
    g.finish();
}

/// §5.2.2: struct-comparator sort vs u64 scalar sort of compressed keys.
fn bench_sort_codec(c: &mut Criterion) {
    use deepmd_core::codec::Codec;
    let mut g = c.benchmark_group("neighbor_sort");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    // one atom's raw neighborhood, paper water scale: ~500 candidates
    let raw: Vec<(u32, f64, u32)> = (0..500u32)
        .map(|k| ((k % 2), ((k * 2654435761u32) % 6000) as f64 * 1e-3, k))
        .collect();
    for codec in [Codec::PaperDecimal, Codec::Binary] {
        g.bench_with_input(
            BenchmarkId::new("u64 compress+sort", format!("{codec:?}")),
            &codec,
            |b, &codec| {
                b.iter(|| {
                    let mut keys: Vec<u64> = raw
                        .iter()
                        .map(|&(t, r, j)| codec.encode(t as usize, r, j as usize))
                        .collect();
                    keys.sort_unstable();
                    std::hint::black_box(keys)
                })
            },
        );
    }
    g.bench_function("struct sort (3-field comparator)", |b| {
        b.iter(|| {
            let mut v = raw.clone();
            v.sort_by(|a, b| {
                a.0.cmp(&b.0)
                    .then(a.1.partial_cmp(&b.1).unwrap())
                    .then(a.2.cmp(&b.2))
            });
            std::hint::black_box(v)
        })
    });
    g.finish();
}

/// Extension: spline-compressed embedding (DeePMD-kit "model compression",
/// the paper's future-work direction) vs the exact batched pipeline.
fn bench_compression(c: &mut Criterion) {
    use deepmd_core::codec::Codec;
    use deepmd_core::compress::{evaluate_compressed, CompressedModel};
    use deepmd_core::eval::evaluate;
    use deepmd_core::format::format_optimized;
    use deepmd_core::{DpConfig, DpModel};
    use dp_md::{lattice, NeighborList};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let cfg = DpConfig::small(1, 4.5, 20);
    let mut rng = StdRng::seed_from_u64(77);
    let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
    let mut sys = lattice::fcc(3.615, [4, 4, 4], 63.546);
    sys.perturb(0.1, &mut rng);
    let nl = NeighborList::build(&sys, cfg.rcut);
    let fmt = format_optimized(&sys, &nl, &cfg, Codec::Binary);
    let cm = CompressedModel::build(model.clone(), 1.0, 1024);

    let mut g = c.benchmark_group("model_compression_256_copper");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("exact embedding nets", |b| {
        b.iter(|| std::hint::black_box(evaluate(&model, &fmt, &sys.types, sys.len(), None).energy))
    });
    g.bench_function("tabulated embeddings", |b| {
        b.iter(|| {
            std::hint::black_box(evaluate_compressed(&cm, &fmt, &sys.types, sys.len()).energy)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm_fusion,
    bench_concat_fusion,
    bench_tanh_fusion,
    bench_simd_backends,
    bench_sort_codec,
    bench_compression
);
criterion_main!(benches);

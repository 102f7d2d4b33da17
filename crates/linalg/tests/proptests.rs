//! Property tests for the linear-algebra kernels: seeded case loops on
//! `dp_md::CounterRng` (no generator crate, no shrinking — a failure names
//! the case, which replays alone).

use dp_linalg::fused::{concat_sum_baseline, dup_sum_fused, tanh_fused, tanh_then_grad_baseline};
use dp_linalg::gemm::{gemm_bias, matmul, matmul_nt, matmul_then_sum, matmul_tn, naive_gemm};
use dp_linalg::Matrix;
use dp_md::rng::for_cases;
use dp_md::CounterRng;

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

#[test]
fn gemm_matches_naive() {
    for_cases(0x6E01, CASES, compatible_pair(12), |(a, b)| {
        assert!(matmul(a, b).max_abs_diff(&naive_gemm(a, b)) < 1e-9);
    });
}

#[test]
fn transpose_is_involution() {
    for_cases(0x6E02, CASES, any_matrix(16), |m| {
        assert_eq!(&m.transpose().transpose(), m);
    });
}

#[test]
fn gemm_transpose_identity() {
    for_cases(0x6E03, CASES, compatible_pair(10), |(a, b)| {
        // (A x B)^T == B^T x A^T
        let left = matmul(a, b).transpose();
        let right = matmul(&b.transpose(), &a.transpose());
        assert!(left.max_abs_diff(&right) < 1e-9);
    });
}

#[test]
fn tn_nt_consistency() {
    for_cases(0x6E04, CASES, compatible_pair(10), |(a, b)| {
        // matmul_tn(A^T stored as A) == matmul of explicit transpose
        let tn = matmul_tn(a, &matmul(a, b));
        let explicit = matmul(&a.transpose(), &matmul(a, b));
        assert!(tn.max_abs_diff(&explicit) < 1e-8);

        let nt = matmul_nt(b, b);
        let explicit = matmul(b, &b.transpose());
        assert!(nt.max_abs_diff(&explicit) < 1e-8);
    });
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
fn skip_connection_fused_equals_concat() {
    for_cases(0x6E07, CASES, any_matrix(8), |x| {
        let h = Matrix::from_fn(x.rows(), 2 * x.cols(), |i, j| (i + j) as f64 * 0.25 - 1.0);
        let base = concat_sum_baseline(x, &h);
        let fused = dup_sum_fused(x, &h);
        assert!(base.max_abs_diff(&fused) < 1e-14);
    });
}

#[test]
fn hcat_preserves_halves() {
    for_cases(0x6E08, CASES, any_matrix(8), |x| {
        let c = x.hcat(x);
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                assert_eq!(c[(i, j)], x[(i, j)]);
                assert_eq!(c[(i, j + x.cols())], x[(i, j)]);
            }
        }
    });
}

#[test]
fn f16_truncation_monotone_pairs() {
    let draw = |rng: &mut CounterRng| (rng.range(-1e4, 1e4), rng.range(-1e4, 1e4));
    for_cases(0x6E09, CASES, draw, |&(a, b)| {
        // Rounding to fp16 must preserve (weak) ordering.
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(dp_linalg::real::truncate_to_f16(lo) <= dp_linalg::real::truncate_to_f16(hi));
    });
}

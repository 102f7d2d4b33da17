//! General matrix-matrix multiplication kernels.
//!
//! The optimized DeePMD-kit replaces TensorFlow's MATMUL+SUM pairs with a
//! single cuBLAS GEMM call `C = alpha * A x B + beta * C` (§5.3.1). This
//! module provides the CPU equivalent: a single-threaded GEMM on the
//! vectorised panels of [`crate::simd`] (one backend dispatch per call,
//! AVX2/NEON with a scalar fallback), with transpose variants (needed by
//! back-propagation). The unfused MATMUL + SUM it replaces, timed against
//! it in the §5.3.1 ablation, is `dp_bench::baseline::linalg`.
//!
//! Multiply-adds are never skipped on zero operands: `0 · inf` and
//! `0 · NaN` must produce NaN per IEEE-754, exactly as cuBLAS would (an
//! earlier revision shortcut zero `A` elements, silently masking
//! non-finite `B`).

use crate::flops;
use crate::matrix::Matrix;
use crate::real::Real;
use crate::simd::{self, Acc, Panel, PanelGemm};

/// Which operand layout a GEMM input uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Use the matrix as stored.
    No,
    /// Use the mathematical transpose of the stored matrix.
    Yes,
}

/// `C = alpha * op(A) x op(B) + beta * C`.
///
/// FLOPs are charged to the global counter: `2*m*n*k`, plus `m*n` when
/// `beta != 0` — a `beta == 1` accumulate reads and adds every `C`
/// element just like any other non-zero `beta` (an earlier revision only
/// charged `beta ∉ {0, 1}`, under-counting accumulating GEMMs and skewing
/// achieved-vs-modeled GFLOPS in the bench rows).
pub fn gemm_ex<T: Real>(
    trans_a: Transpose,
    trans_b: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, k) = match trans_a {
        Transpose::No => (a.rows(), a.cols()),
        Transpose::Yes => (a.cols(), a.rows()),
    };
    let (kb, n) = match trans_b {
        Transpose::No => (b.rows(), b.cols()),
        Transpose::Yes => (b.cols(), b.rows()),
    };
    assert_eq!(k, kb, "gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");

    flops::add(flops::gemm_flops(m, n, k));
    if beta != T::ZERO {
        flops::add((m * n) as u64);
    }

    // Normalize to the NN kernel: transposed inputs are materialized once.
    // For DP shapes (m >> k, n) the transpose cost is negligible next to the
    // multiply, and the NN kernel then streams contiguous rows.
    let at;
    let a_nn = match trans_a {
        Transpose::No => a,
        Transpose::Yes => {
            at = a.transpose();
            &at
        }
    };
    let bt;
    let b_nn = match trans_b {
        Transpose::No => b,
        Transpose::Yes => {
            bt = b.transpose();
            &bt
        }
    };

    gemm_nn(alpha, a_nn, b_nn, beta, c);
}

/// One `m×k×n` problem as a single-item panel: row-major operands at
/// their natural leading dimensions.
fn single<T>(
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
    lda: usize,
    ldb: usize,
    acc: Acc,
) -> PanelGemm<T> {
    let ld = |ld| Panel { ld, stride: 0 };
    PanelGemm {
        m,
        k,
        n,
        alpha,
        a: ld(lda),
        b: ld(ldb),
        c: ld(n),
        acc,
    }
}

/// Core NN kernel: `C = alpha * A x B + beta * C`.
fn gemm_nn<T: Real>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let acc = if beta == T::ZERO {
        Acc::Overwrite
    } else {
        if beta != T::ONE {
            simd::scale(c.as_mut_slice(), beta);
        }
        Acc::Add
    };
    // No zero-skip: every A element contributes a multiply-add so
    // non-finite B values propagate per IEEE-754.
    let g = single(m, k, n, alpha, k, n, acc);
    simd::row_panel(
        &g,
        false,
        0..1,
        a.as_slice(),
        b.as_slice(),
        c.as_mut_slice(),
    );
}

/// Fused `C = A x B + 1 ⊗ bias`: GEMM with the bias row broadcast-added,
/// replacing the separate MATMUL and SUM operators (§5.3.1, Fig 2 (g1)),
/// into a caller-provided output matrix (§5.2.2 arena reuse): `c` is
/// re-shaped in place and never re-allocates once its capacity covers the
/// steady-state problem size.
pub fn gemm_bias_into<T: Real>(a: &Matrix<T>, b: &Matrix<T>, bias: &[T], c: &mut Matrix<T>) {
    assert_eq!(a.cols(), b.rows(), "gemm inner dimension mismatch");
    assert_eq!(bias.len(), b.cols(), "bias length mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    flops::add(flops::gemm_flops(m, n, k) + (m * n) as u64);

    c.reuse_shape(m, n);
    // Bias rows, then the GEMM over them, a block at a time, so the GEMM
    // reads back rows still in cache. No zero-skip (see `gemm_nn`):
    // NaN/Inf in B must reach C.
    const ROWS: usize = 32;
    for r0 in (0..m).step_by(ROWS) {
        let rows = ROWS.min(m - r0);
        for r in r0..r0 + rows {
            c.row_mut(r).copy_from_slice(bias);
        }
        let g = single(rows, k, n, T::ONE, k, n, Acc::Add);
        let c_blk = &mut c.as_mut_slice()[r0 * n..(r0 + rows) * n];
        simd::row_panel(
            &g,
            false,
            0..1,
            &a.as_slice()[r0 * k..],
            b.as_slice(),
            c_blk,
        );
    }
}

/// `C = A x B^T` writing into a caller-provided matrix without materializing
/// the transpose (unlike `gemm_ex` with `Transpose::Yes`). Rows of both
/// operands are contiguous, so the dot-product kernel streams both linearly.
pub fn matmul_nt_into<T: Real>(a: &Matrix<T>, b: &Matrix<T>, c: &mut Matrix<T>) {
    assert_eq!(a.cols(), b.cols(), "gemm inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    flops::add(flops::gemm_flops(m, n, k));

    c.reuse_shape(m, n);
    let g = single(m, k, n, T::ONE, k, k, Acc::Overwrite);
    simd::dot_panel(&g, 0..1, a.as_slice(), b.as_slice(), c.as_mut_slice());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Textbook `C = A x B` (no vectorisation, no accounting): the
    /// reference the fast kernels are tested against.
    pub(crate) fn naive_gemm<T: Real>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        assert_eq!(a.cols(), b.rows(), "gemm inner dimension mismatch");
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for p in 0..k {
                let aip = a[(i, p)];
                for j in 0..n {
                    c[(i, j)] += aip * b[(p, j)];
                }
            }
        }
        c
    }

    /// `op(A) x op(B)` into a fresh matrix through [`gemm_ex`].
    fn product<T: Real>(ta: Transpose, tb: Transpose, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        let rows = if ta == Transpose::No {
            a.rows()
        } else {
            a.cols()
        };
        let cols = if tb == Transpose::No {
            b.cols()
        } else {
            b.rows()
        };
        let mut c = Matrix::zeros(rows, cols);
        gemm_ex(ta, tb, T::ONE, a, b, T::ZERO, &mut c);
        c
    }

    fn matmul<T: Real>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        product(Transpose::No, Transpose::No, a, b)
    }

    /// [`gemm_bias_into`] into a fresh matrix.
    fn gemm_bias<T: Real>(a: &Matrix<T>, b: &Matrix<T>, bias: &[T]) -> Matrix<T> {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        gemm_bias_into(a, b, bias, &mut c);
        c
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        // Small deterministic LCG so tests need no rand dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn blocked_matches_naive() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (17, 31, 13),
            (64, 25, 50),
            (130, 7, 3),
        ] {
            let a = rand_matrix(m, k, 1);
            let b = rand_matrix(k, n, 2);
            let fast = matmul(&a, &b);
            let slow = naive_gemm(&a, &b);
            assert!(fast.max_abs_diff(&slow) < 1e-12, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn transpose_variants() {
        let a = rand_matrix(7, 5, 3);
        let b = rand_matrix(7, 4, 4);
        // A^T (5x7) x B (7x4) = 5x4
        let tn = product(Transpose::Yes, Transpose::No, &a, &b);
        let reference = naive_gemm(&a.transpose(), &b);
        assert!(tn.max_abs_diff(&reference) < 1e-12);

        let c = rand_matrix(6, 5, 5);
        let d = rand_matrix(9, 5, 6);
        // C (6x5) x D^T (5x9) = 6x9
        let nt = product(Transpose::No, Transpose::Yes, &c, &d);
        let reference = naive_gemm(&c, &d.transpose());
        assert!(nt.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = rand_matrix(4, 4, 7);
        let b = rand_matrix(4, 4, 8);
        let mut c = rand_matrix(4, 4, 9);
        let c0 = c.clone();
        gemm_ex(Transpose::No, Transpose::No, 2.0, &a, &b, 0.5, &mut c);
        let mut want = naive_gemm(&a, &b);
        want.scale(2.0);
        let mut c0_scaled = c0;
        c0_scaled.scale(0.5);
        want.axpy(1.0, &c0_scaled);
        assert!(c.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn nt_into_matches_nt() {
        let a = rand_matrix(6, 5, 40);
        let b = rand_matrix(9, 5, 41);
        let want = product(Transpose::No, Transpose::Yes, &a, &b);
        // Deliberately dirty + wrongly-shaped output buffer.
        let mut c = rand_matrix(2, 17, 42);
        matmul_nt_into(&a, &b, &mut c);
        assert_eq!(c.shape(), want.shape());
        assert!(c.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn bias_into_matches_alloc() {
        let a = rand_matrix(33, 25, 43);
        let w = rand_matrix(25, 50, 44);
        let bias: Vec<f64> = (0..50).map(|i| i as f64 * 0.01).collect();
        let want = gemm_bias(&a, &w, &bias);
        let mut c = rand_matrix(50, 33, 45);
        gemm_bias_into(&a, &w, &bias, &mut c);
        assert_eq!(c, want);
    }

    /// Satellite 1 regression: a zero in `A` must not mask NaN/Inf in the
    /// corresponding `B` row — `0 · inf = NaN` per IEEE-754, and the fast
    /// kernels must agree with `naive_gemm` about which outputs poison.
    #[test]
    fn non_finite_b_propagates_through_zero_a() {
        // A has an explicit zero row-element; B's matching row carries
        // inf and NaN. Column 2 of B stays finite everywhere so outputs
        // mixing finite and poisoned columns are both covered.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 0.0]);
        let b = Matrix::from_vec(2, 3, vec![f64::INFINITY, f64::NAN, 1.0, 2.0, 3.0, 4.0]);
        let slow = naive_gemm(&a, &b);
        let fast = matmul(&a, &b);
        for i in 0..2 {
            for j in 0..3 {
                let (s, f) = (slow[(i, j)], fast[(i, j)]);
                assert_eq!(s.is_nan(), f.is_nan(), "({i},{j}): naive={s} fast={f}");
                if !s.is_nan() {
                    assert_eq!(s, f, "({i},{j})");
                }
            }
        }
        // Row 0: 0·inf = NaN, 0·NaN = NaN, 0·1 + 1·4 finite.
        assert!(fast[(0, 0)].is_nan());
        assert!(fast[(0, 1)].is_nan());
        assert!(fast[(0, 2)].is_finite());
        // Row 1: 2·inf = inf survives the 0·2 term only as inf + 0.
        assert_eq!(fast[(1, 0)], f64::INFINITY);
        assert!(fast[(1, 1)].is_nan());

        // Same contract for the fused-bias kernel.
        let bias = vec![0.5, 0.5, 0.5];
        let biased = gemm_bias(&a, &b, &bias);
        assert!(biased[(0, 0)].is_nan());
        assert!(biased[(0, 1)].is_nan());
        assert!((biased[(0, 2)] - (4.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn large_parallel_path_matches() {
        // Big enough that the old row-parallel split would have taken it.
        let a = rand_matrix(256, 64, 20);
        let b = rand_matrix(64, 96, 21);
        let fast = matmul(&a, &b);
        let slow = naive_gemm(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-10);
    }

    #[test]
    fn f32_kernel_works() {
        let a = rand_matrix(12, 8, 30).cast::<f32>();
        let b = rand_matrix(8, 6, 31).cast::<f32>();
        let c = matmul(&a, &b);
        let slow = naive_gemm(&a, &b);
        assert!(c.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(4, 2);
        let _ = matmul(&a, &b);
    }
}

//! Fused elementwise kernels (§5.3.2–5.3.3).
//!
//! The DP nets need both `tanh(x)` (forward) and `1 - tanh²(x)` (backward,
//! for force evaluation) in *every* MD step. Stock TensorFlow runs TANH and
//! TANHGrad as two operators; the optimized DeePMD-kit fuses them into one
//! kernel since `∇tanh(x) = 1 − tanh²(x)` lets the gradient reuse the
//! forward value (Fig 2 (g3)). Likewise the skip connection `(x,x) + h`
//! is executed without materializing the CONCAT (Fig 2 (g2)).
//!
//! Both baseline and fused versions are kept so the ablation benches can
//! measure the same before/after delta the paper reports (1.6–1.7×).

use crate::flops;
use crate::matrix::Matrix;
use crate::real::Real;
use crate::simd;
use std::any::{Any, TypeId};
use std::cell::RefCell;

/// Nominal FLOP charge per tanh evaluation. NVPROF counts the FP
/// instructions of the device `tanh`; on CPU a polynomial/rational `tanh`
/// is on the order of ten FLOPs, which is what we charge.
pub const TANH_FLOPS: u64 = 10;

/// Elementwise `tanh` (the baseline TANH operator).
pub fn tanh_forward<T: Real>(x: &Matrix<T>) -> Matrix<T> {
    flops::add(x.len() as u64 * TANH_FLOPS);
    x.map(|v| v.tanh())
}

/// Baseline TANH + TANHGrad as two separate passes, the second recomputing
/// `tanh` the way two independent TF operators would.
pub fn tanh_then_grad_baseline<T: Real>(x: &Matrix<T>) -> (Matrix<T>, Matrix<T>) {
    let t = tanh_forward(x);
    flops::add(x.len() as u64 * (TANH_FLOPS + 2));
    let g = x.map(|v| {
        let tv = v.tanh();
        T::ONE - tv * tv
    });
    (t, g)
}

/// Fused kernel: one pass producing both `tanh(x)` and `1 - tanh²(x)`.
///
/// This trades memory for time exactly as the paper describes: the gradient
/// buffer is produced during the forward pass so the backward pass reads it
/// instead of recomputing.
pub fn tanh_fused<T: Real>(x: &Matrix<T>) -> (Matrix<T>, Matrix<T>) {
    let mut t = Matrix::zeros(0, 0);
    let mut g = Matrix::zeros(0, 0);
    tanh_fused_into(x, &mut t, &mut g);
    (t, g)
}

/// `tanh_fused` writing into caller-provided buffers (§5.2.2 arena reuse).
///
/// Routed through the runtime-dispatched [`crate::simd`] kernel: on AVX2
/// the vectorized path (Cephes-style `exp`) deviates from `std` `tanh` by
/// a few ULPs — callers comparing against a `std`-tanh baseline must use
/// a ≥ 1e-13 tolerance in f64. NaN/±inf inputs behave exactly like `std`.
pub fn tanh_fused_into<T: Real>(x: &Matrix<T>, t: &mut Matrix<T>, g: &mut Matrix<T>) {
    flops::add(x.len() as u64 * (TANH_FLOPS + 2));
    let (rows, cols) = x.shape();
    t.reuse_shape(rows, cols);
    g.reuse_shape(rows, cols);
    simd::tanh_fused(x.as_slice(), t.as_mut_slice(), g.as_mut_slice());
}

/// Baseline skip connection for the embedding net's growth layers:
/// materialize `(x, x)` with CONCAT, then SUM with `h` (two operators).
pub fn concat_sum_baseline<T: Real>(x: &Matrix<T>, h: &Matrix<T>) -> Matrix<T> {
    let xx = x.hcat(x);
    assert_eq!(xx.shape(), h.shape(), "skip-connection shape mismatch");
    flops::add(xx.len() as u64);
    let mut out = xx;
    out.axpy(T::ONE, h);
    out
}

/// `(element TypeId, k, (I,I) matrix)` entries of [`II_CACHE`].
type IiCache = Vec<(TypeId, usize, Box<dyn Any>)>;

thread_local! {
    /// `(element TypeId, k) → (I,I)` matrices for `concat_sum_gemm`. The
    /// identity operand depends only on the layer width, which is fixed
    /// per net, so rebuilding it every call (as an earlier revision did)
    /// wasted an O(k²) fill + allocation in the hot loop. Thread-local:
    /// the kernel is called from rank and serve-worker threads.
    static II_CACHE: RefCell<IiCache> =
        const { RefCell::new(Vec::new()) };
}

/// Run `f` with the cached `k x 2k` `(I, I)` matrix for element type `T`,
/// building it on first use per (thread, type, width).
fn with_ii<T: Real, R>(k: usize, f: impl FnOnce(&Matrix<T>) -> R) -> R {
    II_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let tid = TypeId::of::<T>();
        let idx = match cache.iter().position(|(t, kk, _)| *t == tid && *kk == k) {
            Some(i) => i,
            None => {
                let ii = Matrix::from_fn(k, 2 * k, |i, j| {
                    if j == i || j == i + k {
                        T::ONE
                    } else {
                        T::ZERO
                    }
                });
                cache.push((tid, k, Box::new(ii)));
                cache.len() - 1
            }
        };
        let ii = cache[idx]
            .2
            .downcast_ref::<Matrix<T>>()
            .expect("II_CACHE entry type matches its TypeId key");
        f(ii)
    })
}

/// The paper's replacement: `(x,x) = x × (I,I)` merged with the SUM into a
/// single GEMM call. We expose the literal GEMM formulation for fidelity
/// with §5.3.2 (the benefit the paper measures comes from merging the SUM
/// into the GEMM epilogue). The `(I,I)` operand is cached per width — the
/// GEMM itself, and its FLOP charge, are unchanged.
pub fn concat_sum_gemm<T: Real>(x: &Matrix<T>, h: &Matrix<T>) -> Matrix<T> {
    assert_eq!(h.cols(), 2 * x.cols(), "skip-connection shape mismatch");
    let k = x.cols();
    let mut out = h.clone();
    with_ii::<T, _>(k, |ii| {
        crate::gemm::gemm_ex(
            crate::gemm::Transpose::No,
            crate::gemm::Transpose::No,
            T::ONE,
            x,
            ii,
            T::ONE,
            &mut out,
        );
    });
    out
}

/// Fastest form used in the hot inference path: write `h + (x,x)` directly
/// with no intermediate at all.
pub fn dup_sum_fused<T: Real>(x: &Matrix<T>, h: &Matrix<T>) -> Matrix<T> {
    let mut out = Matrix::zeros(0, 0);
    dup_sum_fused_into(x, h, &mut out);
    out
}

/// `dup_sum_fused` writing into a caller-provided buffer (§5.2.2 arena
/// reuse): `out = h + (x,x)` in one pass, with no intermediate and no
/// allocation. Each element is the single-rounded `h + x`, bit-identical
/// to the `fma(x, 1, h)` of a unit-alpha axpy.
pub fn dup_sum_fused_into<T: Real>(x: &Matrix<T>, h: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(h.rows(), x.rows(), "skip-connection row mismatch");
    assert_eq!(h.cols(), 2 * x.cols(), "skip-connection shape mismatch");
    flops::add(h.len() as u64);
    let k = x.cols();
    out.reuse_shape(h.rows(), h.cols());
    if k == 0 {
        return;
    }
    let rows = out.as_mut_slice().chunks_exact_mut(2 * k).zip(h.as_slice().chunks_exact(2 * k));
    for ((o_row, h_row), x_row) in rows.zip(x.as_slice().chunks_exact(k)) {
        let (o_lo, o_hi) = o_row.split_at_mut(k);
        let (h_lo, h_hi) = h_row.split_at(k);
        let halves = o_lo.iter_mut().zip(o_hi).zip(h_lo.iter().zip(h_hi));
        for (((lo, hi), (&h_l, &h_h)), &xj) in halves.zip(x_row) {
            *lo = h_l + xj;
            *hi = h_h + xj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f64) * 0.1 - 1.3)
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
    fn tanh_grad_identity() {
        // d/dx tanh(x) via finite differences equals the fused gradient.
        let x = m(5, 5);
        let (_, g) = tanh_fused(&x);
        let eps = 1e-6;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (xp.as_slice()[idx].tanh() - xm.as_slice()[idx].tanh()) / (2.0 * eps);
            assert!((fd - g.as_slice()[idx]).abs() < 1e-8);
        }
    }

    #[test]
    fn skip_connection_variants_agree() {
        let x = m(9, 4);
        let h = m(9, 8);
        let a = concat_sum_baseline(&x, &h);
        let b = concat_sum_gemm(&x, &h);
        let c = dup_sum_fused(&x, &h);
        assert!(a.max_abs_diff(&b) < 1e-12);
        assert!(a.max_abs_diff(&c) < 1e-12);
    }

    #[test]
    fn concat_sum_gemm_reuses_cached_identity() {
        // Two widths, interleaved, twice each: results must stay correct
        // with the (I,I) operand coming from the thread-local cache.
        for _ in 0..2 {
            for k in [3usize, 5] {
                let x = m(4, k);
                let h = m(4, 2 * k);
                let fast = concat_sum_gemm(&x, &h);
                let slow = concat_sum_baseline(&x, &h);
                assert!(fast.max_abs_diff(&slow) < 1e-12, "k={k}");
            }
        }
        // f32 entries must not collide with f64 entries of the same k.
        let x32 = m(4, 3).cast::<f32>();
        let h32 = m(4, 6).cast::<f32>();
        let fast32 = concat_sum_gemm(&x32, &h32);
        let slow32 = concat_sum_baseline(&x32, &h32);
        assert!(fast32.max_abs_diff(&slow32) < 1e-5);
    }

    #[test]
    fn skip_connection_values() {
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let h = Matrix::from_vec(1, 4, vec![10.0, 20.0, 30.0, 40.0]);
        let out = dup_sum_fused(&x, &h);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 31.0, 42.0]);
    }

    #[test]
    fn skip_connection_zero_width() {
        let x = Matrix::<f64>::zeros(3, 0);
        let h = Matrix::<f64>::zeros(3, 0);
        let mut out = m(2, 5);
        dup_sum_fused_into(&x, &h, &mut out);
        assert_eq!(out.shape(), (3, 0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn skip_connection_bad_shapes() {
        let x = Matrix::<f64>::zeros(3, 2);
        let h = Matrix::<f64>::zeros(3, 5);
        let _ = dup_sum_fused(&x, &h);
    }
}

//! Fused elementwise kernels (§5.3.2–5.3.3).
//!
//! The DP nets need both `tanh(x)` (forward) and `1 - tanh²(x)` (backward,
//! for force evaluation) in *every* MD step. Stock TensorFlow runs TANH and
//! TANHGrad as two operators; the optimized DeePMD-kit fuses them into one
//! kernel since `∇tanh(x) = 1 − tanh²(x)` lets the gradient reuse the
//! forward value (Fig 2 (g3)). Likewise the skip connection `(x,x) + h`
//! is executed without materializing the CONCAT (Fig 2 (g2)).
//!
//! The unfused operators they replace, which the `ablations` bench times
//! against them for the paper's before/after delta (1.6–1.7×), are
//! `dp_bench::baseline::linalg`.

use crate::flops;
use crate::matrix::Matrix;
use crate::real::Real;
use crate::simd;

/// Nominal FLOP charge per tanh evaluation. NVPROF counts the FP
/// instructions of the device `tanh`; on CPU a polynomial/rational `tanh`
/// is on the order of ten FLOPs, which is what we charge.
pub const TANH_FLOPS: u64 = 10;

/// Fused kernel: one pass producing both `tanh(x)` and `1 - tanh²(x)`,
/// into caller-provided buffers (§5.2.2 arena reuse).
///
/// This trades memory for time exactly as the paper describes: the gradient
/// buffer is produced during the forward pass so the backward pass reads it
/// instead of recomputing.
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

/// The skip connection `(x,x) + h` of the hot inference path, written
/// directly into a caller-provided buffer (§5.2.2 arena reuse): `out = h +
/// (x,x)` in one pass, with no CONCAT intermediate and no allocation. Each
/// element is the single-rounded `h + x`, bit-identical to the
/// `fma(x, 1, h)` of a unit-alpha axpy.
pub fn dup_sum_fused_into<T: Real>(x: &Matrix<T>, h: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(h.rows(), x.rows(), "skip-connection row mismatch");
    assert_eq!(h.cols(), 2 * x.cols(), "skip-connection shape mismatch");
    flops::add(h.len() as u64);
    let k = x.cols();
    out.reuse_shape(h.rows(), h.cols());
    if k == 0 {
        return;
    }
    let rows = out
        .as_mut_slice()
        .chunks_exact_mut(2 * k)
        .zip(h.as_slice().chunks_exact(2 * k));
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

    /// [`dup_sum_fused_into`] into a fresh matrix.
    fn dup_sum_fused(x: &Matrix<f64>, h: &Matrix<f64>) -> Matrix<f64> {
        let mut out = Matrix::zeros(0, 0);
        dup_sum_fused_into(x, h, &mut out);
        out
    }

    #[test]
    fn tanh_grad_identity() {
        // d/dx tanh(x) via finite differences equals the fused gradient.
        let x = m(5, 5);
        let (mut t, mut g) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        tanh_fused_into(&x, &mut t, &mut g);
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

//! The §5.3 operator variants the shipped `dp_linalg` kernels replaced,
//! beside the allocating form of each shipped kernel that `ablations`
//! times against them:
//!
//! * §5.3.1 — MATMUL then SUM ([`matmul_then_sum`]) against the GEMM with
//!   fused bias ([`gemm_bias`]);
//! * §5.3.2 — CONCAT then SUM ([`concat_sum_baseline`]) against the
//!   paper's GEMM with `(I,I)` ([`concat_sum_gemm`]) and the direct
//!   one-pass write ([`dup_sum_fused`]);
//! * §5.3.3 — TANH + TANHGrad recomputing `tanh`
//!   ([`tanh_then_grad_baseline`]) against the fused kernel
//!   ([`tanh_fused`]).
//!
//! FLOPs are charged to `dp_linalg::flops` as the shipped kernels charge
//! them.

use dp_linalg::flops;
use dp_linalg::fused::{dup_sum_fused_into, tanh_fused_into, TANH_FLOPS};
use dp_linalg::gemm::{gemm_bias_into, gemm_ex, Transpose};
use dp_linalg::{Matrix, Real};

/// `op(A) x op(B)` into a fresh matrix.
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

/// `A x B`, allocated.
pub fn matmul<T: Real>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    product(Transpose::No, Transpose::No, a, b)
}

/// `Aᵀ x B`, allocated.
pub fn matmul_tn<T: Real>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    product(Transpose::Yes, Transpose::No, a, b)
}

/// `A x Bᵀ`, allocated.
pub fn matmul_nt<T: Real>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    product(Transpose::No, Transpose::Yes, a, b)
}

/// Separate MATMUL then row-broadcast SUM, the way a stock TensorFlow
/// graph executes `x·W + b`.
pub fn matmul_then_sum<T: Real>(a: &Matrix<T>, b: &Matrix<T>, bias: &[T]) -> Matrix<T> {
    let mut c = matmul(a, b);
    let n = c.cols();
    assert_eq!(bias.len(), n);
    flops::add(c.len() as u64);
    for i in 0..c.rows() {
        let row = c.row_mut(i);
        for (x, &bb) in row.iter_mut().zip(bias.iter()) {
            *x += bb;
        }
    }
    c
}

/// The shipped fused `A x B + 1 ⊗ bias` into a fresh matrix.
pub fn gemm_bias<T: Real>(a: &Matrix<T>, b: &Matrix<T>, bias: &[T]) -> Matrix<T> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_bias_into(a, b, bias, &mut c);
    c
}

/// Elementwise `tanh` (the baseline TANH operator).
pub fn tanh_forward<T: Real>(x: &Matrix<T>) -> Matrix<T> {
    flops::add(x.len() as u64 * TANH_FLOPS);
    x.map(|v| v.tanh())
}

/// TANH + TANHGrad as two separate passes, the second recomputing `tanh`
/// the way two independent TF operators would.
pub fn tanh_then_grad_baseline<T: Real>(x: &Matrix<T>) -> (Matrix<T>, Matrix<T>) {
    let t = tanh_forward(x);
    flops::add(x.len() as u64 * (TANH_FLOPS + 2));
    let g = x.map(|v| {
        let tv = v.tanh();
        T::ONE - tv * tv
    });
    (t, g)
}

/// The shipped fused `tanh(x)`, `1 − tanh²(x)` into fresh matrices.
pub fn tanh_fused<T: Real>(x: &Matrix<T>) -> (Matrix<T>, Matrix<T>) {
    let mut t = Matrix::zeros(0, 0);
    let mut g = Matrix::zeros(0, 0);
    tanh_fused_into(x, &mut t, &mut g);
    (t, g)
}

/// Horizontal concatenation `[a | b]`: the CONCAT operator.
pub fn hcat<T: Real>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.rows(), b.rows(), "hcat row mismatch");
    let cols = a.cols() + b.cols();
    let mut data = Vec::with_capacity(a.rows() * cols);
    for i in 0..a.rows() {
        data.extend_from_slice(a.row(i));
        data.extend_from_slice(b.row(i));
    }
    Matrix::from_vec(a.rows(), cols, data)
}

/// Skip connection for the embedding net's growth layers: materialize
/// `(x, x)` with CONCAT, then SUM with `h` (two operators).
pub fn concat_sum_baseline<T: Real>(x: &Matrix<T>, h: &Matrix<T>) -> Matrix<T> {
    let xx = hcat(x, x);
    assert_eq!(xx.shape(), h.shape(), "skip-connection shape mismatch");
    flops::add(xx.len() as u64);
    let mut out = xx;
    out.axpy(T::ONE, h);
    out
}

/// The `k x 2k` matrix `(I, I)`, so that `x·(I, I) = (x, x)`.
pub fn identity_pair<T: Real>(k: usize) -> Matrix<T> {
    Matrix::from_fn(k, 2 * k, |i, j| {
        if j == i || j == i + k {
            T::ONE
        } else {
            T::ZERO
        }
    })
}

/// The paper's §5.3.2 replacement: `h + (x,x) = h + x × (I,I)` as one
/// GEMM with `beta = 1`, `ii` from [`identity_pair`] (the benefit the paper
/// measures comes from merging the SUM into the GEMM epilogue).
pub fn concat_sum_gemm<T: Real>(x: &Matrix<T>, ii: &Matrix<T>, h: &Matrix<T>) -> Matrix<T> {
    assert_eq!(h.cols(), 2 * x.cols(), "skip-connection shape mismatch");
    let mut out = h.clone();
    gemm_ex(
        Transpose::No,
        Transpose::No,
        T::ONE,
        x,
        ii,
        T::ONE,
        &mut out,
    );
    out
}

/// The shipped one-pass `h + (x,x)` into a fresh matrix.
pub fn dup_sum_fused<T: Real>(x: &Matrix<T>, h: &Matrix<T>) -> Matrix<T> {
    let mut out = Matrix::zeros(0, 0);
    dup_sum_fused_into(x, h, &mut out);
    out
}

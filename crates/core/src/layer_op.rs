//! The network layer operator: all the pipeline knows about the four layer
//! kinds of Fig 1 (e)–(g), written once.
//!
//! A layer is `y = skip(x, h)` with `h = tanh(xW + b)`, or `h = xW + b`
//! for the linear fitting head. The skip adds nothing (`Plain`, `Linear`),
//! `x` (`Residual`, square `W`) or `(x, x)` (`Growth`, `W: k → 2k`, with no
//! CONCAT, §5.3.2). The operator has four parts, each writing into
//! caller-owned buffers so the §5.2.2 workspaces stay allocation-free:
//!
//! - [`forward`]: `z = xW + b` (GEMM with fused bias, §5.3.1), `h = tanh z`
//!   with its cached gradient `1 − h²` (fused TANH + TANHGrad, §5.3.3), then
//!   the skip;
//! - [`tangent`]: `ẏ` from `ẋ`: `ż = ẋW`, `ḣ = (1 − h²)⊙ż`, the skip;
//! - [`input_adjoint`]: `x̄ = z̄Wᵀ` plus the skip's adjoint of `ȳ`;
//! - [`param_grad`]: `W̄ += xᵀz̄ + ẋᵀż̄` and `b̄ += Σ_rows z̄`.
//!
//! [`crate::eval`]'s inference net pass and [`crate::train_grad`]'s pass on
//! primal/tangent pairs are loops over these four. The adjoint through the
//! tanh, `z̄` from `ȳ`, stays with each caller: forces need its first-order
//! form `(1 − h²)⊙ȳ` ([`tanh_chain`]), the training gradient a second-order
//! one.

use crate::profile::{maybe_time, Kernel, Profiler};
use dp_linalg::batch::{gemm_batch_tn, Acc, Panel};
use dp_linalg::fused::{dup_sum_fused_into, tanh_fused_into};
use dp_linalg::gemm::{gemm_bias_into, gemm_ex, matmul_nt_into, Transpose};
use dp_linalg::{simd, Matrix, Real};
use dp_nn::layer::{Layer, LayerKind};

/// Whether the layer applies tanh: every kind but the linear head.
pub(crate) fn is_tanh<T>(l: &Layer<T>) -> bool {
    l.kind != LayerKind::Linear
}

/// `out = c⊙v` for the cached `c = 1 − h²`: the chain rule through the
/// tanh, `ḣ` from `ż` and `z̄` from `ȳ`.
pub(crate) fn tanh_chain<T: Real>(c: &Matrix<T>, v: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(c.shape(), v.shape(), "tanh gradient shape mismatch");
    out.reuse_shape(v.rows(), v.cols());
    let terms = c.as_slice().iter().zip(v.as_slice());
    for (o, (&c, &v)) in out.as_mut_slice().iter_mut().zip(terms) {
        *o = v * c;
    }
}

/// `y = skip(x, h)`. The skip is linear, so the tangent runs it on
/// `(ẋ, ḣ)`.
fn skip_into<T: Real>(kind: LayerKind, x: &Matrix<T>, h: &Matrix<T>, y: &mut Matrix<T>) {
    match kind {
        LayerKind::Plain | LayerKind::Linear => y.copy_from(h),
        LayerKind::Residual => {
            y.copy_from(h);
            y.axpy(T::ONE, x);
        }
        LayerKind::Growth => dup_sum_fused_into(x, h, y),
    }
}

/// The layer on the rows of `x`, output in `y`. A tanh layer leaves
/// `h = tanh z` in `h` and `1 − h²` in `c`; the linear head leaves `c`
/// empty and does not touch `h`. `z` is scratch. GEMM, tanh and skip time
/// are attributed to their Fig 3 categories.
pub(crate) fn forward<T: Real>(
    l: &Layer<T>,
    x: &Matrix<T>,
    z: &mut Matrix<T>,
    h: &mut Matrix<T>,
    c: &mut Matrix<T>,
    y: &mut Matrix<T>,
    prof: Option<&Profiler>,
) {
    maybe_time(prof, Kernel::Gemm, || gemm_bias_into(x, &l.w, &l.b, z));
    let h = if is_tanh(l) {
        maybe_time(prof, Kernel::Tanh, || tanh_fused_into(z, h, c));
        &*h
    } else {
        c.reuse_shape(0, 0);
        &*z
    };
    maybe_time(prof, Kernel::Other, || skip_into(l.kind, x, h, y));
}

/// The tangent of [`forward`] along `ẋ`: `ż = ẋW` in `zd` and `ẏ` in `yd`;
/// `c` is the forward's `1 − h²` and `hd` is scratch (it holds `ḣ`).
pub(crate) fn tangent<T: Real>(
    l: &Layer<T>,
    xd: &Matrix<T>,
    c: &Matrix<T>,
    zd: &mut Matrix<T>,
    hd: &mut Matrix<T>,
    yd: &mut Matrix<T>,
) {
    zd.reuse_shape(xd.rows(), l.w.cols());
    gemm_ex(Transpose::No, Transpose::No, T::ONE, xd, &l.w, T::ZERO, zd);
    let hd = if is_tanh(l) {
        tanh_chain(c, zd, hd);
        &*hd
    } else {
        &*zd
    };
    skip_into(l.kind, xd, hd, yd);
}

/// The input adjoint `x̄ = z̄Wᵀ` plus the skip's adjoint of the output
/// adjoint `ȳ`, into `xb`. A `Growth` layer adds `ȳ_lo + ȳ_hi`, the two
/// halves summed first.
pub(crate) fn input_adjoint<T: Real>(
    l: &Layer<T>,
    zb: &Matrix<T>,
    yb: &Matrix<T>,
    xb: &mut Matrix<T>,
    prof: Option<&Profiler>,
) {
    maybe_time(prof, Kernel::Gemm, || matmul_nt_into(zb, &l.w, xb));
    maybe_time(prof, Kernel::Other, || match l.kind {
        LayerKind::Plain | LayerKind::Linear => {}
        LayerKind::Residual => xb.axpy(T::ONE, yb),
        LayerKind::Growth => {
            for i in 0..yb.rows() {
                let (lo, hi) = yb.row(i).split_at(l.w.rows());
                for (dx, (&a, &b)) in xb.row_mut(i).iter_mut().zip(lo.iter().zip(hi)) {
                    *dx += a + b;
                }
            }
        }
    });
}

/// The parameter gradient of a layer run on the pair `(x, ẋ)`, from the
/// adjoints `(z̄, ż̄)` of `z` and `ż`: `W̄ += xᵀz̄ + ẋᵀż̄` and
/// `b̄ += Σ_rows z̄` (the bias does not reach `ż`). `grad` is the layer's
/// slice of the flat parameters: `W` row-major, then `b`.
pub(crate) fn param_grad<T: Real>(
    l: &Layer<T>,
    x: &Matrix<T>,
    xd: &Matrix<T>,
    zb: &Matrix<T>,
    zdb: &Matrix<T>,
    grad: &mut [T],
) {
    let (rows, k, n) = (x.rows(), l.w.rows(), l.w.cols());
    let (wg, bg) = grad.split_at_mut(l.w.len());
    let (pk, pn) = (Panel { ld: k, stride: 0 }, Panel { ld: n, stride: 0 });
    for (x, z) in [(x, zb), (xd, zdb)] {
        let (x, z) = (x.as_slice(), z.as_slice());
        gemm_batch_tn(1, k, rows, n, T::ONE, x, pk, z, pn, wg, pn, Acc::Add);
    }
    for r in 0..rows {
        simd::axpy(T::ONE, zb.row(r), bg);
    }
}

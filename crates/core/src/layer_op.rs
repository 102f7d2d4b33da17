//! The network layer operator: all the pipeline knows about the four layer
//! kinds of Fig 1 (e)–(g), written once.
//!
//! A layer is `y = skip(x, h)` with `h = tanh(xW + b)`, or `h = xW + b`
//! for the linear fitting head. The skip adds nothing (`Plain`, `Linear`),
//! `x` (`Residual`, square `W`) or `(x, x)` (`Growth`, `W: k → 2k`, with no
//! CONCAT, §5.3.2). Besides the [`LayerKind`]s and the [`Layer`]
//! parameters, the module holds each kind's rules: its output width, its
//! weight shape ([`Layer::validate`]), its model-file name, and which kind
//! [`Net::embedding`] and [`Net::fitting`] give each layer of the paper's
//! nets. The operator has four parts, each writing into caller-owned
//! buffers so the §5.2.2 workspaces stay allocation-free:
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

use crate::model::Net;
use crate::profile::{maybe_time, Kernel, Profiler};
use dp_linalg::batch::{gemm_batch_tn, Acc, Panel};
use dp_linalg::fused::{dup_sum_fused_into, tanh_fused_into};
use dp_linalg::gemm::{gemm_bias_into, gemm_ex, matmul_nt_into, Transpose};
use dp_linalg::{simd, Matrix, Real};
use dp_md::CounterRng;

/// The four layer kinds of the DP nets (Fig 1 (e)–(g)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// `y = tanh(xW + b)`
    Plain,
    /// `y = (x,x) + tanh(xW + b)`, `W: k -> 2k`
    Growth,
    /// `y = x + tanh(xW + b)`, square `W`
    Residual,
    /// `y = xW + b`
    Linear,
}

impl LayerKind {
    /// The kind's name in the model file.
    pub(crate) fn name(self) -> &'static str {
        match self {
            LayerKind::Plain => "Plain",
            LayerKind::Growth => "Growth",
            LayerKind::Residual => "Residual",
            LayerKind::Linear => "Linear",
        }
    }

    /// The kind the model file calls `name`.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        use LayerKind::*;
        [Plain, Growth, Residual, Linear]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// Weights of one layer, in some precision `T`.
#[derive(Clone)]
pub struct Layer<T> {
    pub kind: LayerKind,
    /// `in_dim × out_dim` weight matrix.
    pub w: Matrix<T>,
    /// `out_dim` bias row.
    pub b: Vec<T>,
}

impl<T: Real> Layer<T> {
    /// Glorot-normal weights `rows × cols` drawn from `rng` in row-major
    /// order, zero biases.
    fn xavier(kind: LayerKind, rows: usize, cols: usize, rng: &mut CounterRng) -> Self {
        let std = (2.0 / (rows + cols) as f64).sqrt();
        Layer {
            kind,
            w: Matrix::from_fn(rows, cols, |_, _| T::from_f64(rng.gauss() * std)),
            b: vec![T::ZERO; cols],
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    pub fn out_dim(&self) -> usize {
        match self.kind {
            LayerKind::Growth => 2 * self.w.rows(),
            _ => self.w.cols(),
        }
    }

    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// The weight shape against the layer kind, as an error.
    pub fn validate(&self) -> Result<(), String> {
        let (rows, cols) = (self.w.rows(), self.w.cols());
        let broken = match self.kind {
            _ if self.b.len() != cols => "bias/width mismatch",
            LayerKind::Growth if cols != 2 * rows => "growth layer must double width",
            LayerKind::Residual if rows != cols => "residual layer must be square",
            _ => return Ok(()),
        };
        Err(format!("{broken} ({rows}x{cols}, {} biases)", self.b.len()))
    }

    /// Panic unless [`validate`](Self::validate) passes.
    pub fn check(&self) {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Convert the layer to another precision (used to derive the f32 model
    /// for the mixed-precision path from the trained f64 model, §5.2.3).
    pub fn cast<U: Real>(&self) -> Layer<U> {
        Layer {
            kind: self.kind,
            w: self.w.cast(),
            b: self.b.iter().map(|&x| U::from_f64(x.to_f64())).collect(),
        }
    }
}

/// The paper's layer layout, drawing every weight from `rng` in layer
/// order.
impl<T: Real> Net<T> {
    /// Embedding net (Fig 1 (c)): input is the scalar `s(r)` per neighbor,
    /// `sizes` are the paper's `[25, 50, 100]`-style widths where each later
    /// width doubles the previous one (growth layers).
    pub fn embedding(sizes: &[usize], rng: &mut CounterRng) -> Self {
        assert!(!sizes.is_empty(), "embedding net needs at least one layer");
        let mut layers = vec![Layer::xavier(LayerKind::Plain, 1, sizes[0], rng)];
        for win in sizes.windows(2) {
            let (prev, next) = (win[0], win[1]);
            assert_eq!(
                next,
                2 * prev,
                "embedding widths must double (paper layout), got {prev} -> {next}"
            );
            layers.push(Layer::xavier(LayerKind::Growth, prev, next, rng));
        }
        let net = Self { layers };
        net.check();
        net
    }

    /// Fitting net (Fig 1 (d)): descriptor in, scalar atomic energy out.
    /// `hidden` are the paper's `[240, 240, 240]`-style widths; equal
    /// consecutive widths become residual (skip) layers.
    pub fn fitting(d_in: usize, hidden: &[usize], rng: &mut CounterRng) -> Self {
        assert!(!hidden.is_empty(), "fitting net needs hidden layers");
        let mut layers = vec![Layer::xavier(LayerKind::Plain, d_in, hidden[0], rng)];
        for win in hidden.windows(2) {
            let (prev, next) = (win[0], win[1]);
            let kind = if prev == next {
                LayerKind::Residual
            } else {
                LayerKind::Plain
            };
            layers.push(Layer::xavier(kind, prev, next, rng));
        }
        let last = hidden[hidden.len() - 1];
        layers.push(Layer::xavier(LayerKind::Linear, last, 1, rng));
        let net = Self { layers };
        net.check();
        net
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(kind: LayerKind, rows: usize, cols: usize) -> Layer<f64> {
        Layer {
            kind,
            w: Matrix::from_fn(rows, cols, |i, j| 0.3 * ((i * cols + j) as f64 % 7.0) - 0.9),
            b: (0..cols).map(|j| 0.1 * j as f64 - 0.2).collect(),
        }
    }

    #[test]
    #[should_panic(expected = "growth layer must double width")]
    fn growth_shape_check() {
        layer(LayerKind::Growth, 4, 7).check();
    }

    #[test]
    fn cast_roundtrip_close() {
        let l = layer(LayerKind::Plain, 3, 3);
        let l32: Layer<f32> = l.cast();
        let back: Layer<f64> = l32.cast();
        assert!(l.w.max_abs_diff(&back.w) < 1e-7);
    }

    #[test]
    fn embedding_shapes() {
        let mut rng = CounterRng::new(1);
        let net = Net::<f64>::embedding(&[4, 8, 16], &mut rng);
        assert_eq!(net.in_dim(), 1);
        assert_eq!(net.out_dim(), 16);
        assert_eq!(net.layers[1].kind, LayerKind::Growth);
    }

    #[test]
    fn fitting_shapes() {
        let mut rng = CounterRng::new(2);
        let net = Net::<f64>::fitting(12, &[24, 24, 24], &mut rng);
        assert_eq!(net.in_dim(), 12);
        assert_eq!(net.out_dim(), 1);
        assert_eq!(net.layers[1].kind, LayerKind::Residual);
    }
}

//! A single network layer in the fast (non-tape) path.

use dp_linalg::fused::{dup_sum_fused, tanh_fused};
use dp_linalg::gemm::{gemm_bias, matmul_nt};
use dp_linalg::{Matrix, Real};

/// The four layer shapes used by the DP nets (Fig 1 (e)–(g)).
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

/// Weights of one layer, in some precision `T`.
#[derive(Clone)]
pub struct Layer<T> {
    pub kind: LayerKind,
    /// `in_dim × out_dim` weight matrix.
    pub w: Matrix<T>,
    /// `out_dim` bias row.
    pub b: Vec<T>,
}

/// Activations cached by the forward pass, consumed by the backward pass.
///
/// Holding `1 - tanh²` from the fused forward kernel is the paper's
/// "trading space for time" (§5.3.3): the backward pass for forces reads the
/// cached gradient instead of re-evaluating `tanh`.
pub struct LayerCache<T> {
    /// `1 - tanh²(xW+b)`; empty for `Linear` layers.
    pub tgrad: Matrix<T>,
}

impl<T: Real> Layer<T> {
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

    /// Forward pass returning the output and the cache for backward.
    ///
    /// Uses the paper's fused kernels: GEMM with fused bias (§5.3.1),
    /// CONCAT-free skip (§5.3.2), fused tanh+grad (§5.3.3).
    pub fn forward(&self, x: &Matrix<T>) -> (Matrix<T>, LayerCache<T>) {
        debug_assert_eq!(x.cols(), self.in_dim(), "layer input width");
        let pre = gemm_bias(x, &self.w, &self.b);
        match self.kind {
            LayerKind::Linear => (
                pre,
                LayerCache {
                    tgrad: Matrix::zeros(0, 0),
                },
            ),
            LayerKind::Plain => {
                let (t, g) = tanh_fused(&pre);
                (t, LayerCache { tgrad: g })
            }
            LayerKind::Growth => {
                let (t, g) = tanh_fused(&pre);
                (dup_sum_fused(x, &t), LayerCache { tgrad: g })
            }
            LayerKind::Residual => {
                let (mut t, g) = tanh_fused(&pre);
                t.axpy(T::ONE, x);
                (t, LayerCache { tgrad: g })
            }
        }
    }

    /// Backward pass: given `dL/dy`, return `dL/dx`.
    ///
    /// Parameter gradients are *not* computed here — the MD hot path only
    /// needs input gradients (forces); training uses the autograd tape.
    pub fn backward_input(&self, cache: &LayerCache<T>, dy: &Matrix<T>) -> Matrix<T> {
        match self.kind {
            LayerKind::Linear => matmul_nt(dy, &self.w),
            LayerKind::Plain => {
                let dpre = dy.hadamard(&cache.tgrad);
                matmul_nt(&dpre, &self.w)
            }
            LayerKind::Residual => {
                let dpre = dy.hadamard(&cache.tgrad);
                let mut dx = matmul_nt(&dpre, &self.w);
                dx.axpy(T::ONE, dy);
                dx
            }
            LayerKind::Growth => {
                let dpre = dy.hadamard(&cache.tgrad);
                let mut dx = matmul_nt(&dpre, &self.w);
                // adjoint of (x,x): add both halves of dy
                let k = self.w.rows();
                for i in 0..dy.rows() {
                    let dy_row = dy.row(i);
                    let dx_row = dx.row_mut(i);
                    for j in 0..k {
                        dx_row[j] += dy_row[j] + dy_row[j + k];
                    }
                }
                dx
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(kind: LayerKind, rows: usize, cols: usize) -> Layer<f64> {
        Layer {
            kind,
            w: Matrix::from_fn(rows, cols, |i, j| {
                0.3 * ((i * cols + j) as f64 % 7.0) - 0.9
            }),
            b: (0..cols).map(|j| 0.1 * j as f64 - 0.2).collect(),
        }
    }

    fn input(rows: usize, cols: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |i, j| 0.2 * ((i + 2 * j) as f64 % 5.0) - 0.4)
    }

    /// Finite-difference check of backward_input for every layer kind.
    fn check_backward(kind: LayerKind, in_dim: usize, out_cols: usize) {
        let l = layer(kind, in_dim, out_cols);
        l.check();
        let x0 = input(3, in_dim);
        let (y0, cache) = l.forward(&x0);
        // scalar objective: sum of squares of outputs
        let dy = {
            let mut d = y0.clone();
            d.scale(2.0);
            d
        };
        let dx = l.backward_input(&cache, &dy);

        let f = |x: &Matrix<f64>| {
            let (y, _) = l.forward(x);
            y.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let eps = 1e-6;
        for idx in 0..x0.len() {
            let mut xp = x0.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[idx]).abs() < 1e-6,
                "{kind:?} idx {idx}: fd {fd} analytic {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn plain_backward_matches_fd() {
        check_backward(LayerKind::Plain, 4, 6);
    }

    #[test]
    fn growth_backward_matches_fd() {
        check_backward(LayerKind::Growth, 3, 6);
    }

    #[test]
    fn residual_backward_matches_fd() {
        check_backward(LayerKind::Residual, 5, 5);
    }

    #[test]
    fn linear_backward_matches_fd() {
        check_backward(LayerKind::Linear, 4, 1);
    }

    #[test]
    fn growth_output_shape_doubles() {
        let l = layer(LayerKind::Growth, 4, 8);
        let (y, _) = l.forward(&input(2, 4));
        assert_eq!(y.shape(), (2, 8));
        assert_eq!(l.out_dim(), 8);
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
}

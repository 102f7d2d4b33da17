//! The weights of a single network layer. Its arithmetic lives in
//! `deepmd_core` only: `eval`'s net pass (inference) and `train_grad`'s
//! pass on primal/tangent pairs (training).

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
}

//! Stacks of layers: the embedding net and the fitting net.

use crate::layer::{Layer, LayerKind};
use dp_linalg::{Matrix, Real};

/// A feed-forward network: an ordered stack of [`Layer`]s.
#[derive(Clone)]
pub struct Net<T> {
    pub layers: Vec<Layer<T>>,
}

/// Glorot-normal weights from `gauss`, a standard-normal sampler (this
/// crate sits below `dp_md::CounterRng`, which `DpModel::new_random`
/// passes in as `|| rng.gauss()`).
fn xavier<T: Real>(gauss: &mut impl FnMut() -> f64, rows: usize, cols: usize) -> Matrix<T> {
    let std = (2.0 / (rows + cols) as f64).sqrt();
    Matrix::from_fn(rows, cols, |_, _| T::from_f64(gauss() * std))
}

impl<T: Real> Net<T> {
    /// Embedding net (Fig 1 (c)): input is the scalar `s(r)` per neighbor,
    /// `sizes` are the paper's `[25, 50, 100]`-style widths where each later
    /// width doubles the previous one (growth layers).
    pub fn embedding(sizes: &[usize], gauss: &mut impl FnMut() -> f64) -> Self {
        assert!(!sizes.is_empty(), "embedding net needs at least one layer");
        let mut layers = Vec::with_capacity(sizes.len());
        layers.push(Layer {
            kind: LayerKind::Plain,
            w: xavier(gauss, 1, sizes[0]),
            b: vec![T::ZERO; sizes[0]],
        });
        for win in sizes.windows(2) {
            let (prev, next) = (win[0], win[1]);
            assert_eq!(
                next,
                2 * prev,
                "embedding widths must double (paper layout), got {prev} -> {next}"
            );
            layers.push(Layer {
                kind: LayerKind::Growth,
                w: xavier(gauss, prev, next),
                b: vec![T::ZERO; next],
            });
        }
        let net = Self { layers };
        net.check();
        net
    }

    /// Fitting net (Fig 1 (d)): descriptor in, scalar atomic energy out.
    /// `hidden` are the paper's `[240, 240, 240]`-style widths; equal
    /// consecutive widths become residual (skip) layers.
    pub fn fitting(d_in: usize, hidden: &[usize], gauss: &mut impl FnMut() -> f64) -> Self {
        assert!(!hidden.is_empty(), "fitting net needs hidden layers");
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        layers.push(Layer {
            kind: LayerKind::Plain,
            w: xavier(gauss, d_in, hidden[0]),
            b: vec![T::ZERO; hidden[0]],
        });
        for win in hidden.windows(2) {
            let (prev, next) = (win[0], win[1]);
            let kind = if prev == next {
                LayerKind::Residual
            } else {
                LayerKind::Plain
            };
            layers.push(Layer {
                kind,
                w: xavier(gauss, prev, next),
                b: vec![T::ZERO; next],
            });
        }
        layers.push(Layer {
            kind: LayerKind::Linear,
            w: xavier(gauss, *hidden.last().unwrap(), 1),
            b: vec![T::ZERO; 1],
        });
        let net = Self { layers };
        net.check();
        net
    }

    /// Every layer's shape and the widths between layers, as an error.
    pub fn validate(&self) -> Result<(), String> {
        self.layers.iter().try_for_each(Layer::validate)?;
        let mut pairs = self.layers.windows(2);
        match pairs.all(|w| w[0].out_dim() == w[1].in_dim()) {
            true => Ok(()),
            false => Err("consecutive layers disagree on width".into()),
        }
    }

    /// Panic unless [`validate`](Self::validate) passes.
    pub fn check(&self) {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_dim())
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim())
    }

    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Flatten all parameters (row-major weights then biases, layer order)
    /// into an `f64` vector — the canonical order shared with the
    /// training gradient and the optimizer.
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        self.extend_flat_params(&mut out);
        out
    }

    /// Append the parameters to `out` in [`flat_params`](Self::flat_params)
    /// order.
    pub fn extend_flat_params(&self, out: &mut Vec<f64>) {
        for l in &self.layers {
            out.extend(l.w.as_slice().iter().map(|x| x.to_f64()));
            out.extend(l.b.iter().map(|x| x.to_f64()));
        }
    }

    /// Overwrite all parameters from a flat vector (inverse of
    /// [`flat_params`](Self::flat_params)).
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params(), "flat parameter length");
        let mut off = 0;
        for l in &mut self.layers {
            for x in l.w.as_mut_slice() {
                *x = T::from_f64(flat[off]);
                off += 1;
            }
            for x in &mut l.b {
                *x = T::from_f64(flat[off]);
                off += 1;
            }
        }
    }

    pub fn cast<U: Real>(&self) -> Net<U> {
        Net {
            layers: self.layers.iter().map(|l| l.cast()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_md::CounterRng;

    #[test]
    fn embedding_shapes() {
        let mut rng = CounterRng::new(1);
        let net = Net::<f64>::embedding(&[4, 8, 16], &mut || rng.gauss());
        assert_eq!(net.in_dim(), 1);
        assert_eq!(net.out_dim(), 16);
        assert_eq!(net.layers[1].kind, LayerKind::Growth);
    }

    #[test]
    fn fitting_shapes() {
        let mut rng = CounterRng::new(2);
        let net = Net::<f64>::fitting(12, &[24, 24, 24], &mut || rng.gauss());
        assert_eq!(net.in_dim(), 12);
        assert_eq!(net.out_dim(), 1);
        assert_eq!(net.layers[1].kind, LayerKind::Residual);
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut rng = CounterRng::new(4);
        let mut net = Net::<f64>::embedding(&[4, 8], &mut || rng.gauss());
        let p = net.flat_params();
        assert_eq!(p.len(), net.num_params());
        let mut p2 = p.clone();
        for x in &mut p2 {
            *x += 1.0;
        }
        net.set_flat_params(&p2);
        assert_eq!(net.flat_params(), p2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut r1, mut r2) = (CounterRng::new(7), CounterRng::new(7));
        let n1 = Net::<f64>::embedding(&[4, 8], &mut || r1.gauss());
        let n2 = Net::<f64>::embedding(&[4, 8], &mut || r2.gauss());
        assert_eq!(n1.flat_params(), n2.flat_params());
    }
}

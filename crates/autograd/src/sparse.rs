//! Constant sparse linear maps between matrices.
//!
//! The force on atom `k` is `F_k = -Σ_{i,j} (∂E/∂R̃_i[j,·]) · (∂R̃_i[j,·]/∂r_k)`.
//! The Jacobian `∂R̃/∂r` depends only on the geometry (not on network
//! parameters), so inside the training graph the contraction is a *constant
//! linear map* applied to the differentiable adjoint `∂E/∂R̃`. A linear map
//! is its own best derivative: the VJP is the transpose map, which keeps the
//! operation differentiable to any order — exactly what the force loss needs.

use dp_linalg::Matrix;

/// One coefficient of the sparse map: `out[out_idx] += coeff * in[in_idx]`,
/// with matrices indexed in row-major flattened order.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    pub out_idx: u32,
    pub in_idx: u32,
    pub coeff: f64,
}

/// A constant sparse linear map `R^{in_shape} -> R^{out_shape}`.
#[derive(Debug, Clone)]
pub struct SparseLinear {
    pub in_shape: (usize, usize),
    pub out_shape: (usize, usize),
    pub entries: Vec<Entry>,
}

impl SparseLinear {
    pub fn new(in_shape: (usize, usize), out_shape: (usize, usize)) -> Self {
        Self {
            in_shape,
            out_shape,
            entries: Vec::new(),
        }
    }

    /// Record `out[(oi, oj)] += coeff * in[(ii, ij)]`.
    pub fn push(&mut self, (oi, oj): (usize, usize), (ii, ij): (usize, usize), coeff: f64) {
        debug_assert!(oi < self.out_shape.0 && oj < self.out_shape.1);
        debug_assert!(ii < self.in_shape.0 && ij < self.in_shape.1);
        self.entries.push(Entry {
            out_idx: (oi * self.out_shape.1 + oj) as u32,
            in_idx: (ii * self.in_shape.1 + ij) as u32,
            coeff,
        });
    }

    /// Apply the map: `y = L(x)`.
    pub fn apply(&self, x: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(x.shape(), self.in_shape, "sparse map input shape");
        let mut y = Matrix::zeros(self.out_shape.0, self.out_shape.1);
        self.apply_into(x.as_slice(), y.as_mut_slice());
        y
    }

    /// Apply the transpose map: `x = Lᵀ(y)` (the VJP of [`apply`](Self::apply)).
    pub fn apply_transpose(&self, y: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(y.shape(), self.out_shape, "sparse map adjoint shape");
        let mut x = Matrix::zeros(self.in_shape.0, self.in_shape.1);
        self.apply_transpose_into(y.as_slice(), x.as_mut_slice());
        x
    }

    /// `y += L(x)` on flat row-major buffers (the tape hands in a zeroed
    /// pool buffer).
    pub fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            x.len(),
            self.in_shape.0 * self.in_shape.1,
            "sparse map input length"
        );
        assert_eq!(
            y.len(),
            self.out_shape.0 * self.out_shape.1,
            "sparse map output length"
        );
        for e in &self.entries {
            y[e.out_idx as usize] += e.coeff * x[e.in_idx as usize];
        }
    }

    /// `x += Lᵀ(y)` on flat row-major buffers.
    pub fn apply_transpose_into(&self, y: &[f64], x: &mut [f64]) {
        assert_eq!(
            x.len(),
            self.in_shape.0 * self.in_shape.1,
            "sparse map input length"
        );
        assert_eq!(
            y.len(),
            self.out_shape.0 * self.out_shape.1,
            "sparse map output length"
        );
        for e in &self.entries {
            x[e.in_idx as usize] += e.coeff * y[e.out_idx as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_map() -> SparseLinear {
        let mut l = SparseLinear::new((2, 2), (3, 1));
        l.push((0, 0), (0, 0), 2.0);
        l.push((1, 0), (0, 1), -1.0);
        l.push((1, 0), (1, 0), 0.5);
        l.push((2, 0), (1, 1), 3.0);
        l
    }

    #[test]
    fn apply_values() {
        let l = example_map();
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = l.apply(&x);
        assert_eq!(y.as_slice(), &[2.0, -2.0 + 1.5, 12.0]);
    }

    #[test]
    fn transpose_is_adjoint() {
        // <L x, y> == <x, L^T y> for all x, y.
        let l = example_map();
        let x = Matrix::from_vec(2, 2, vec![0.3, -1.2, 2.5, 0.7]);
        let y = Matrix::from_vec(3, 1, vec![1.1, -0.4, 0.9]);
        let lx = l.apply(&x);
        let lty = l.apply_transpose(&y);
        let lhs: f64 = lx
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(lty.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn empty_map_is_zero() {
        let l = SparseLinear::new((2, 3), (4, 1));
        let x = Matrix::full(2, 3, 5.0);
        let y = l.apply(&x);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }
}

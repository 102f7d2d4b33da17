//! Row-major dense matrix.
//!
//! The DP model is dominated by "tall and skinny" matrices (§5.3): the row
//! count is `n_atoms × n_neighbors` (hundreds of thousands) while columns are
//! network widths (25–240). Row-major storage keeps each row contiguous so
//! per-neighbor rows stream linearly through the cache, which is the same
//! reason the paper's layout puts the long axis outermost on the GPU.

use crate::real::Real;

/// Dense row-major matrix; the default is 0×0.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Real> Matrix<T> {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a row-major data vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// (rows, cols) pair.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Contiguous row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable contiguous row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Consume into the backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Out-of-place transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        // Block the loops so both source and destination stay cache-resident.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(T) -> T) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Re-shape in place for arena reuse (§5.2.2): the backing vector grows
    /// only when the new element count exceeds its capacity, so a workspace
    /// matrix sized once at startup never re-allocates in steady state.
    /// Existing element values are unspecified afterwards — callers are
    /// expected to overwrite every element (as all `_into` kernels do).
    pub fn reuse_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Copy another matrix's shape and contents into this one, reusing the
    /// existing allocation when capacity suffices.
    pub fn copy_from(&mut self, other: &Self) {
        self.reuse_shape(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// In-place elementwise (Hadamard) product: `self *= other`.
    pub fn hadamard_assign(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
    }

    /// `self += alpha * other` (elementwise AXPY).
    pub fn axpy(&mut self, alpha: T, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = b.mul_add(alpha, *a);
        }
    }

    /// Scale every element by `alpha`.
    pub fn scale(&mut self, alpha: T) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Elementwise sum of all entries.
    pub fn sum(&self) -> T {
        self.data.iter().copied().sum()
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Self) -> T {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(T::ZERO, |acc, x| acc.max(x))
    }

    /// Convert elementwise to another precision.
    pub fn cast<U: Real>(&self) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| U::from_f64(x.to_f64())).collect(),
        }
    }
}

impl<T: Real> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Real> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Real> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)].to_f64())?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(37, 53, |i, j| (i * 53 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (53, 37));
        assert_eq!(t[(5, 30)], m[(30, 5)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::full(2, 2, 1.0_f64);
        let b = Matrix::full(2, 2, 2.0_f64);
        a.axpy(0.5, &b);
        assert_eq!(a[(0, 0)], 2.0);
        a.scale(2.0);
        assert_eq!(a[(1, 1)], 4.0);
    }

    #[test]
    fn cast_f64_to_f32_and_back() {
        let m = Matrix::from_fn(4, 4, |i, j| (i + j) as f64 + 0.125);
        let s: Matrix<f32> = m.cast();
        let back: Matrix<f64> = s.cast();
        // 0.125 offsets are exactly representable in f32.
        assert_eq!(back, m);
    }

    #[test]
    fn max_abs_diff_reads_the_largest_gap() {
        let a = Matrix::from_vec(1, 2, vec![3.0_f64, 4.0]);
        let b = Matrix::from_vec(1, 2, vec![3.0_f64, 4.5]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reuse_shape_keeps_capacity() {
        let mut m = Matrix::<f64>::zeros(8, 8);
        let cap_ptr = m.as_slice().as_ptr();
        m.reuse_shape(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(m.len(), 16);
        m.reuse_shape(8, 8);
        assert_eq!(m.shape(), (8, 8));
        // Shrinking then growing back must not re-allocate.
        assert_eq!(m.as_slice().as_ptr(), cap_ptr);
    }

    #[test]
    fn copy_from_and_hadamard_assign() {
        let a = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let mut b = Matrix::<f64>::zeros(1, 1);
        b.copy_from(&a);
        assert_eq!(b, a);
        let mut c = Matrix::full(3, 2, 2.0_f64);
        c.hadamard_assign(&a);
        assert_eq!(c, a.map(|x| 2.0 * x));
    }
}

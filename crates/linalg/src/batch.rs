//! Strided batched GEMM over flat buffers (the cuBLAS
//! `gemmStridedBatched` analogue).
//!
//! §5.2.1's fixed-shape padded neighbor layout means every atom of a
//! given type contributes descriptor GEMMs of *identical* shape. Instead
//! of looping per atom with per-matrix dispatch overhead, `deepmd-core`
//! hands the whole chunk to one of these kernels: `batch` problems of
//! shape `m×k×n` laid out back-to-back in flat slices at fixed strides.
//! No operand is ever materialized in transposed form — the `tn`/`nt`
//! variants read `A` with a column stride or reduce along rows directly,
//! which keeps the §5.2.2 zero-allocation contract intact.
//!
//! Each call is one [`simd`] panel: the backend is resolved once and the
//! whole item × row loop runs inside one vectorised kernel. FLOPs are
//! charged once per call (`batch · 2mnk`, plus `batch · mn` when
//! accumulating), matching the per-call accounting in [`crate::gemm`].

use crate::flops;
use crate::real::Real;
use crate::simd::{self, PanelGemm};

pub use crate::simd::{Acc, Panel};

fn charge(batch: usize, m: usize, n: usize, k: usize, acc: Acc) {
    flops::add(batch as u64 * flops::gemm_flops(m, n, k));
    if acc == Acc::Add {
        flops::add((batch * m * n) as u64);
    }
}

/// Batched `C_i (+)= alpha · A_i × B_i` with `A_i` `(m×k)` and `B_i`
/// `(k×n)` row-major.
#[allow(clippy::too_many_arguments)]
pub fn gemm_batch_nn<T: Real>(
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
    a: &[T],
    pa: Panel,
    b: &[T],
    pb: Panel,
    c: &mut [T],
    pc: Panel,
    acc: Acc,
) {
    charge(batch, m, n, k, acc);
    let g = PanelGemm {
        m,
        k,
        n,
        alpha,
        a: pa,
        b: pb,
        c: pc,
        acc,
    };
    simd::row_panel(&g, false, 0..batch, a, b, c);
}

/// Batched `C_i (+)= alpha · A_iᵀ × B_i` with `A_i` stored `(k×m)`
/// row-major (so `Aᵀ` is `m×k`) and `B_i` `(k×n)`. `A` is read with a
/// column stride — no transpose is materialized.
#[allow(clippy::too_many_arguments)]
pub fn gemm_batch_tn<T: Real>(
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
    a: &[T],
    pa: Panel,
    b: &[T],
    pb: Panel,
    c: &mut [T],
    pc: Panel,
    acc: Acc,
) {
    charge(batch, m, n, k, acc);
    let g = PanelGemm {
        m,
        k,
        n,
        alpha,
        a: pa,
        b: pb,
        c: pc,
        acc,
    };
    simd::row_panel(&g, true, 0..batch, a, b, c);
}

/// Batched `C_i (+)= alpha · A_i × B_iᵀ` with `A_i` `(m×k)` and `B_i`
/// stored `(n×k)` row-major (so `Bᵀ` is `k×n`). Row-against-row dot
/// products — both operands stream contiguously.
#[allow(clippy::too_many_arguments)]
pub fn gemm_batch_nt<T: Real>(
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
    a: &[T],
    pa: Panel,
    b: &[T],
    pb: Panel,
    c: &mut [T],
    pc: Panel,
    acc: Acc,
) {
    charge(batch, m, n, k, acc);
    let g = PanelGemm {
        m,
        k,
        n,
        alpha,
        a: pa,
        b: pb,
        c: pc,
        acc,
    };
    simd::dot_panel(&g, 0..batch, a, b, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::naive_gemm;
    use crate::matrix::Matrix;

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    fn tight(ld: usize, rows: usize) -> Panel {
        Panel {
            ld,
            stride: ld * rows,
        }
    }

    #[test]
    fn batch_nn_matches_naive_loop() {
        let (batch, m, k, n) = (5, 7, 4, 9);
        let a = rand_matrix(batch * m, k, 1);
        let b = rand_matrix(batch * k, n, 2);
        let mut c = vec![0.5; batch * m * n];
        gemm_batch_nn(
            batch,
            m,
            k,
            n,
            2.0,
            a.as_slice(),
            tight(k, m),
            b.as_slice(),
            tight(n, k),
            &mut c,
            tight(n, m),
            Acc::Overwrite,
        );
        for i in 0..batch {
            let ai = Matrix::from_fn(m, k, |r, cc| a[(i * m + r, cc)]);
            let bi = Matrix::from_fn(k, n, |r, cc| b[(i * k + r, cc)]);
            let want = naive_gemm(&ai, &bi);
            for r in 0..m {
                for j in 0..n {
                    let got = c[i * m * n + r * n + j];
                    assert!(
                        (got - 2.0 * want[(r, j)]).abs() < 1e-12,
                        "item {i} ({r},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_tn_matches_transposed_naive() {
        let (batch, m, k, n) = (3, 6, 8, 5);
        // A stored k x m per item.
        let a = rand_matrix(batch * k, m, 3);
        let b = rand_matrix(batch * k, n, 4);
        let mut c = vec![1.0; batch * m * n];
        gemm_batch_tn(
            batch,
            m,
            k,
            n,
            1.0,
            a.as_slice(),
            tight(m, k),
            b.as_slice(),
            tight(n, k),
            &mut c,
            tight(n, m),
            Acc::Add,
        );
        for i in 0..batch {
            let ai = Matrix::from_fn(k, m, |r, cc| a[(i * k + r, cc)]);
            let bi = Matrix::from_fn(k, n, |r, cc| b[(i * k + r, cc)]);
            let want = naive_gemm(&ai.transpose(), &bi);
            for r in 0..m {
                for j in 0..n {
                    let got = c[i * m * n + r * n + j];
                    assert!(
                        (got - (1.0 + want[(r, j)])).abs() < 1e-12,
                        "item {i} ({r},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_nt_matches_transposed_naive() {
        let (batch, m, k, n) = (4, 5, 11, 6);
        let a = rand_matrix(batch * m, k, 5);
        // B stored n x k per item.
        let b = rand_matrix(batch * n, k, 6);
        let mut c = vec![9.0; batch * m * n];
        gemm_batch_nt(
            batch,
            m,
            k,
            n,
            1.0,
            a.as_slice(),
            tight(k, m),
            b.as_slice(),
            tight(k, n),
            &mut c,
            tight(n, m),
            Acc::Overwrite,
        );
        for i in 0..batch {
            let ai = Matrix::from_fn(m, k, |r, cc| a[(i * m + r, cc)]);
            let bi = Matrix::from_fn(n, k, |r, cc| b[(i * n + r, cc)]);
            let want = naive_gemm(&ai, &bi.transpose());
            for r in 0..m {
                for j in 0..n {
                    let got = c[i * m * n + r * n + j];
                    assert!((got - want[(r, j)]).abs() < 1e-12, "item {i} ({r},{j})");
                }
            }
        }
    }

    #[test]
    fn wide_ld_reads_submatrix() {
        // B with ld wider than n: only the first n columns participate
        // (the eval path reads the m2-column prefix of the m_w-wide G).
        let (m, k, n, ldb) = (3, 4, 2, 7);
        let b_full = rand_matrix(k, ldb, 7);
        let a = rand_matrix(m, k, 8);
        let mut c = vec![0.0; m * n];
        gemm_batch_nn(
            1,
            m,
            k,
            n,
            1.0,
            a.as_slice(),
            tight(k, m),
            b_full.as_slice(),
            Panel { ld: ldb, stride: 0 },
            &mut c,
            tight(n, m),
            Acc::Overwrite,
        );
        let b_sub = Matrix::from_fn(k, n, |r, cc| b_full[(r, cc)]);
        let want = naive_gemm(&a, &b_sub);
        for r in 0..m {
            for j in 0..n {
                assert!((c[r * n + j] - want[(r, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut c: Vec<f64> = vec![];
        gemm_batch_nn(
            0,
            3,
            3,
            3,
            1.0,
            &[],
            tight(3, 3),
            &[],
            tight(3, 3),
            &mut c,
            tight(3, 3),
            Acc::Overwrite,
        );
    }
}

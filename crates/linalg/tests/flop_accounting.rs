//! Exact FLOP-count assertions. The counter is process-global, so these
//! live in their own test binary — no other test adds to it here — and
//! take one lock, because the harness runs them on parallel threads.

use dp_linalg::batch::{gemm_batch_nn, Acc, Panel};
use dp_linalg::flops::{self, FlopCounter};
use dp_linalg::gemm::{gemm_ex, Transpose};
use dp_linalg::Matrix;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn matrix(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64 * 0.01 - 0.5)
}

#[test]
fn counter_accumulates_and_scopes() {
    let _only = exclusive();
    let c0 = FlopCounter::start();
    flops::add(100);
    let c1 = FlopCounter::start();
    flops::add(50);
    assert_eq!(c1.elapsed(), 50);
    assert_eq!(c0.elapsed(), 150);
}

#[test]
fn matmul_charges_two_mnk() {
    let _only = exclusive();
    let mut c = Matrix::zeros(10, 30);
    flops::reset();
    gemm_ex(
        Transpose::No,
        Transpose::No,
        1.0,
        &matrix(10, 20),
        &matrix(20, 30),
        0.0,
        &mut c,
    );
    assert_eq!(flops::reset(), 2 * 10 * 20 * 30);
}

/// The `m*n` accumulate is charged for every non-zero `beta`, including
/// `beta == 1` (which an early accounting skipped, under-counting
/// accumulating GEMMs).
#[test]
fn gemm_ex_charges_the_accumulate_for_nonzero_beta() {
    let _only = exclusive();
    let (a, b) = (matrix(10, 20), matrix(20, 30));
    let mut c = matrix(10, 30);
    let gemm = 2 * 10 * 20 * 30u64;
    let accum = 10 * 30u64;
    for (beta, want) in [(0.0, gemm), (1.0, gemm + accum), (0.5, gemm + accum)] {
        flops::reset();
        gemm_ex(Transpose::No, Transpose::No, 1.0, &a, &b, beta, &mut c);
        assert_eq!(flops::reset(), want, "beta = {beta}");
    }
}

#[test]
fn batched_gemm_charges_the_batch_once() {
    let _only = exclusive();
    let (batch, m, k, n) = (3, 2, 4, 5);
    let tight = |ld: usize, rows: usize| Panel {
        ld,
        stride: rows * ld,
    };
    let a = vec![0.1; batch * m * k];
    let b = vec![0.2; batch * k * n];
    let mut c = vec![0.0; batch * m * n];
    for (acc, extra) in [(Acc::Overwrite, 0), (Acc::Add, batch * m * n)] {
        flops::reset();
        gemm_batch_nn(
            batch,
            m,
            k,
            n,
            1.0,
            &a,
            tight(k, m),
            &b,
            tight(n, k),
            &mut c,
            tight(n, m),
            acc,
        );
        assert_eq!(flops::reset(), (batch * 2 * m * n * k + extra) as u64);
    }
}

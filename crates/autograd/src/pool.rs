//! Size-keyed buffer pool behind every tape value (§5.2.2's "trunk of
//! memory", for the training graph).
//!
//! A training step builds and drops one [`crate::Tape`] per frame, and every
//! frame of a fixed dataset produces nodes of the same shapes. Each node
//! value is therefore taken from a per-thread free list keyed by exact
//! element count and handed back when the tape drops, so after the first
//! frame a worker thread allocates nothing for node values. The pool is
//! per *thread*, not per frame: it holds what one tape held at its peak,
//! however many frames that thread goes on to process.
//!
//! Everything on a tape originates here (leaves are copied in), so the pool
//! never grows beyond the largest set of buffers simultaneously checked out.

use dp_linalg::Matrix;
use std::cell::RefCell;
use std::collections::BTreeMap;

thread_local! {
    static FREE: RefCell<BTreeMap<usize, Vec<Vec<f64>>>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// A `rows × cols` matrix whose contents are unspecified: the caller
/// overwrites every element.
pub(crate) fn uninit(rows: usize, cols: usize) -> Matrix<f64> {
    let len = rows * cols;
    let buf = FREE
        .with(|free| free.borrow_mut().get_mut(&len).and_then(Vec::pop))
        .unwrap_or_else(|| vec![0.0; len]);
    Matrix::from_vec(rows, cols, buf)
}

/// A zero-filled `rows × cols` matrix.
pub(crate) fn zeros(rows: usize, cols: usize) -> Matrix<f64> {
    let mut m = uninit(rows, cols);
    m.fill_zero();
    m
}

/// Hand a value's buffer back for reuse.
pub(crate) fn recycle(m: Matrix<f64>) {
    let buf = m.into_vec();
    if buf.is_empty() {
        return;
    }
    // During thread teardown the free list may already be gone; the
    // buffer is then simply freed.
    let _ = FREE.try_with(|free| free.borrow_mut().entry(buf.len()).or_default().push(buf));
}

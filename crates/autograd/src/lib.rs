//! Tape-based reverse-mode automatic differentiation over dense matrices.
//!
//! This crate plays the role TensorFlow plays in DeePMD-kit: a flexible
//! graph engine used to *train* Deep Potential models, while the MD hot path
//! uses the hand-fused kernels in `deepmd-core` (verified against this
//! reference). Its heavy ops run on the same `dp-linalg` kernels as that hot
//! path — the fused dense layer and the block-batched GEMMs of the
//! fixed-shape neighbor layout — and node values come from a per-thread
//! buffer pool that outlives the tape.
//!
//! The defining feature is **grad-of-grad**: [`Tape::grad`] performs
//! symbolic backpropagation — the backward pass emits new differentiable
//! nodes onto the same tape — so the mixed second derivative `∂²E/∂θ∂r`
//! needed by the force-matching loss is obtained by calling `grad` twice.
//!
//! ```
//! use dp_autograd::Tape;
//! use dp_linalg::Matrix;
//!
//! let mut t = Tape::new();
//! let x = t.leaf(&Matrix::from_vec(1, 1, vec![3.0]));
//! let y = t.mul(x, x);            // y = x^2
//! let dy = t.grad(y, &[x])[0];    // dy/dx = 2x = 6
//! let d2y = t.grad(dy, &[x])[0];  // d2y/dx2 = 2
//! assert_eq!(t.value(dy)[(0, 0)], 6.0);
//! assert_eq!(t.value(d2y)[(0, 0)], 2.0);
//! ```

pub mod gradcheck;
mod pool;
pub mod sparse;
pub mod tape;

pub use sparse::SparseLinear;
pub use tape::{Tape, Trans, Var};

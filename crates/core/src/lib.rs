//! Deep Potential: the paper's primary contribution, re-engineered in Rust.
//!
//! The crate implements the DeepPot-SE descriptor and its optimized
//! evaluation pipeline exactly along the lines of §5 of the paper:
//!
//! * [`codec`] — the 64-bit compressed neighbor encoding
//!   `type·10¹⁵ + ⌊r·10⁸⌋·10⁵ + j` (§5.2.2), plus a binary-split variant
//!   for systems larger than the decimal layout allows,
//! * `format` — the type-sorted, distance-sorted, padded neighbor layout
//!   that removes branching from the embedding computation (§5.2.1), with
//!   the smoothed environment rows `R̃` and the `(1/r, s′)` pairs the force
//!   pass consumes (from `dp_linalg::simd::env`),
//! * [`model`] — model parameters (embedding nets per neighbor type,
//!   fitting nets per center type, each a [`Net`] of [`Layer`]s) in any
//!   precision, and the model-file format,
//! * [`eval`] — the optimized batched forward/backward: one tall GEMM per
//!   (neighbor-type, layer) instead of per-atom small kernels,
//! * `layer_op` — the network layer operator, the only code that knows the
//!   four [`LayerKind`]s: their shape rules and model-file names, the
//!   paper's net layouts, and forward (fused bias/tanh/skip kernels),
//!   tangent, input adjoint and parameter gradient, under both [`eval`] and
//!   [`train_grad`],
//! * [`ops`] — the customized operators of Table 3 (Environment,
//!   ProdForce, ProdVirial, and ProdForce's transpose for training), one
//!   copy each, called by [`eval`], [`train_grad`] and the `table3` bench,
//! * [`batch`] — cross-request concatenation of formatted tables: the
//!   serving scheduler's coalescing primitive (§5.2.1 applied across
//!   systems, bit-identical per-request results),
//! * [`potential_impl`] — [`DeepPotential`], the `dp_md::Potential`
//!   implementation with double and mixed precision modes (§5.2.3),
//! * [`train_grad`] — the training gradient of the energy + force loss:
//!   a tangent forward and one reverse pass over [`eval`]'s kernels,
//! * [`profile`] — per-kernel-category timers reproducing Fig 3's GEMM /
//!   TANH / CUSTOM / SLICE breakdown,
//! * [`compress`] — tabulated (spline-compressed) embedding nets, the
//!   paper's future-work direction that became DeePMD-kit's model
//!   compression: no embedding GEMMs or tanh in the MD hot path; tables
//!   are sampled and evaluated on [`eval`]'s pipeline.
//!
//! The 2018 serial baseline that Table 3 and §7.1 compare against lives in
//! `dp_bench::baseline`, outside the shipped crates.

pub mod batch;
pub mod codec;
pub mod compress;
pub mod config;
pub mod eval;
pub mod format;
mod layer_op;
pub mod model;
pub mod ops;
pub mod potential_impl;
pub mod profile;
pub mod train_grad;
pub mod workspace;

pub use config::DpConfig;
pub use layer_op::{Layer, LayerKind};
pub use model::{DpModel, Net};
pub use potential_impl::{BatchItem, BatchOutput, BatchResult, DeepPotential, PrecisionMode};
pub use workspace::EvalWorkspace;

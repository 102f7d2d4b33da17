//! Neural-network building blocks for the Deep Potential model.
//!
//! Implements the three layer shapes of Fig 1 (e)–(g) of the paper:
//!
//! * **plain dense** `y = tanh(xW + b)` — first embedding layer,
//! * **growth skip** `y = (x, x) + tanh(xW + b)` with `W: k → 2k` — the
//!   embedding net's widening layers,
//! * **residual skip** `y = x + tanh(xW + b)` with square `W` — the fitting
//!   net's hidden layers,
//! * **linear head** `y = xW + b` — the scalar atomic-energy output.
//!
//! The crate holds the parameters ([`net::Net`], generic over precision),
//! their tape leaves ([`net::Net::tape_leaves`] / [`net::NetVars::forward`]
//! on `dp-autograd`, for training, where parameter gradients and
//! grad-of-grad for the force loss are required) and [`Adam`]. Inference —
//! MD, serve, the ensemble engine and the tabulated embeddings — runs
//! `deepmd_core::eval`'s net pass over these parameters. Both run the
//! same fused `dp-linalg` kernels: a tape layer is one `Tape::dense` node.

pub mod adam;
pub mod layer;
pub mod net;

pub use adam::{Adam, AdamState};
pub use layer::{Layer, LayerKind};
pub use net::{Net, NetVars};

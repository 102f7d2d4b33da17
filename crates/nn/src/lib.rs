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
//! The crate holds the parameters ([`net::Net`], generic over precision)
//! and [`Adam`], nothing that computes with them. Every network pass —
//! inference in MD, serve, the ensemble engine and the tabulated
//! embeddings, and the training gradient — runs in `deepmd_core`
//! (`eval`'s net pass and `train_grad`'s tangent + reverse pass) over
//! these parameters.

pub mod adam;
pub mod layer;
pub mod net;

pub use adam::{Adam, AdamState};
pub use layer::{Layer, LayerKind};
pub use net::Net;

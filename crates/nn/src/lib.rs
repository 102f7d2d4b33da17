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
//! Each net exists in two forms kept in exact correspondence:
//! a *fast path* ([`net::Net::forward_cached`] / [`net::Net::backward_input`])
//! generic over precision — this is what MD uses — and a *tape form*
//! ([`net::Net::tape_leaves`] / [`net::NetVars::forward`]) on `dp-autograd`,
//! used for training where parameter gradients (and grad-of-grad for the
//! force loss) are required. Both run the same fused `dp-linalg` kernels:
//! a tape layer is one `Tape::dense` node.

pub mod adam;
pub mod layer;
pub mod net;

pub use adam::{Adam, AdamState};
pub use layer::{Layer, LayerKind};
pub use net::{Net, NetVars};

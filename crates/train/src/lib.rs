//! Training pipeline for Deep Potential models.
//!
//! The paper's models are trained (separately, on GPUs, over hours) against
//! DFT data; this crate reproduces the full pipeline against our analytic
//! reference potentials (the DFT stand-ins, DESIGN.md §2):
//!
//! * [`dataset`] — frame generation: perturbed-lattice and short-MD
//!   sampling labelled by any `dp_md::Potential`,
//! * [`graph`] — the training graph on `dp-autograd`: descriptor, fitting,
//!   atomic energies, and *forces as tape nodes* (via constant sparse
//!   contractions), so the force-matching loss
//!   `L = p_e |ΔE/N|² + p_f Σ|ΔF|²/(3N)` is differentiable in the
//!   parameters through the force term (grad-of-grad),
//! * [`trainer`] — Adam loop with exponential learning-rate decay and
//!   energy/force RMSE reporting,
//! * [`deviation`] — ensemble force deviation, the selection criterion of
//!   the concurrent-learning scheme (DP-GEN) the paper's models come from.
//!   The loop itself (train ensemble → explore with MD → flag
//!   disagreements → label with the reference → retrain) is
//!   `dp_replica::active`.

pub mod checkpoint;
pub mod dataset;
pub mod deviation;
pub mod graph;
pub mod trainer;

pub use checkpoint::TrainCheckpoint;
pub use dataset::Frame;
pub use trainer::{LossWeights, TrainReport, Trainer};

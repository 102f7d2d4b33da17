//! Training pipeline for Deep Potential models.
//!
//! The paper's models are trained (separately, on GPUs, over hours) against
//! DFT data; this crate reproduces the full pipeline against our analytic
//! reference potentials (the DFT stand-ins, DESIGN.md §2):
//!
//! * [`dataset`] — frame generation: perturbed-lattice and short-MD
//!   sampling labelled by any `dp_md::Potential`,
//! * [`adam`] — Adam with exponential learning-rate decay, over the
//!   model's flat parameter vector,
//! * [`trainer`] — the [`adam`] loop with energy/force RMSE reporting;
//!   each step takes the gradient of the force-matching loss
//!   `L = p_e |ΔE/N|² + p_f Σ|ΔF|²/(3N)` from `deepmd_core::train_grad`,
//!   which differentiates through the forces on the inference pipeline's
//!   kernels,
//! * [`deviation`] — ensemble force deviation, the selection criterion of
//!   the concurrent-learning scheme (DP-GEN) the paper's models come from.
//!   The loop itself (train ensemble → explore with MD → flag
//!   disagreements → label with the reference → retrain) is
//!   `dp_replica::active`.

pub mod adam;
pub mod checkpoint;
pub mod dataset;
pub mod deviation;
pub mod trainer;

pub use adam::{Adam, AdamState};
pub use checkpoint::TrainCheckpoint;
pub use dataset::Frame;
pub use trainer::{LossWeights, TrainReport, Trainer};

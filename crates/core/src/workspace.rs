//! Reusable evaluation arena (§5.2.2).
//!
//! The paper eliminates per-step allocation by "allocat[ing] a trunk of
//! memory at the initialization stage" and reusing it for the whole MD run.
//! [`EvalWorkspace`] is the CPU analogue for the optimized evaluation
//! pipeline in [`crate::eval`]: every intermediate the pipeline needs —
//! per-layer network activations and cached tanh gradients, descriptor
//! contraction scratch, backward buffers, per-slot force gradients — lives
//! in one struct whose buffers grow to the steady-state problem size on the
//! first call and are never re-allocated afterwards. Every buffer is sized
//! by one chunk of atoms ([`crate::eval::chunk_size`]), the formatted rows
//! of the force call included, so the workspace does not grow with the
//! system. `evaluate_into` borrows it; `evaluate` remains the convenience
//! wrapper that builds a fresh one per call.
//!
//! Buffer rotation inside a network pass uses `std::mem::swap` of matrices,
//! so capacities migrate between roles but are never dropped; after a few
//! warm-up evaluations the capacity assignment reaches a fixed point and
//! the steady state performs zero heap allocations (enforced by
//! `tests/alloc_regression.rs` at the workspace root).

use crate::config::DpConfig;
use crate::format::FormattedEnv;
use dp_linalg::{Matrix, Real};

/// Buffers for one network forward/backward pass: the final activation,
/// the per-layer cached tanh gradients (`1 - tanh²`, §5.3.3), and the
/// scratch of the layer operator ([`crate::layer_op::forward`]) while
/// walking the layers.
#[derive(Default)]
pub struct NetPass<T> {
    /// Final activation of the forward pass (the embedding matrix `G` for
    /// embedding nets, the energy column for fitting nets).
    pub out: Matrix<T>,
    /// Cached tanh gradient per layer; empty (0×0) for `Linear` layers.
    pub tgrads: Vec<Matrix<T>>,
    /// Pre-activation scratch.
    pub pre: Matrix<T>,
    /// tanh output scratch; on the tabulated path (`crate::compress`),
    /// which runs no embedding net, `dG/ds` from the table lookup.
    pub act: Matrix<T>,
    /// The current layer's output, swapped into `out` after each layer.
    pub next: Matrix<T>,
}

/// The §5.2.2 "trunk of memory" for [`crate::eval::evaluate_into`]: every
/// per-chunk intermediate of the evaluation pipeline, allocated once and
/// reused across chunks, steps, and atom-count changes.
pub struct EvalWorkspace<T> {
    /// Per-neighbor-type embedding pass (activations persist across the
    /// descriptor and backward stages).
    pub emb_passes: Vec<NetPass<T>>,
    /// Shared fitting-net pass (forward + backward complete per center
    /// type before the next, so one set of buffers suffices).
    pub fit_pass: NetPass<T>,
    /// Backward-pass gradient and ping-pong scratch.
    pub bwd_g: Matrix<T>,
    pub bwd_a: Matrix<T>,
    pub bwd_b: Matrix<T>,
    /// Embedding input column `s(r)` (reused across neighbor types).
    pub s_col: Matrix<T>,
    /// Fitting input rows gathered per center type.
    pub fit_x: Matrix<T>,
    /// All-ones seed for the fitting backward pass.
    pub ones: Matrix<T>,
    /// dE/dG per neighbor type (descriptor backward → embedding backward).
    pub dg_mats: Vec<Matrix<T>>,
    /// dE/dR̃ per neighbor type, 4 per slot, f64, with the embedding
    /// backward's dE/ds added to the first column: the input of
    /// [`crate::ops::prod_force_into`].
    pub denv_blocks: Vec<Vec<f64>>,
    /// dE/dR̃ scratch in evaluation precision (one type at a time),
    /// filled by the batched descriptor-backward GEMMs before the f64
    /// conversion into `denv_blocks`.
    pub denv_t: Vec<T>,
    /// Per-neighbor-type environment block `R̃` gathered in evaluation
    /// precision (`nc·sel[t]` rows × 4): the dense operand of the
    /// strided batched descriptor GEMMs (§5.2.1 fixed-shape layout).
    pub envm: Vec<Vec<T>>,
    /// Flat per-atom descriptor matrix `D` (chunk × m_w·m2).
    pub desc: Vec<T>,
    /// Flat per-atom `T1` (chunk × m_w·4) and `T2` (chunk × 4·m2).
    pub t1: Vec<T>,
    pub t2: Vec<T>,
    /// Flat per-atom backward scratch dT1/dT2.
    pub dt1: Vec<T>,
    pub dt2: Vec<T>,
    /// Flat per-atom dE/dD (chunk × descriptor_dim).
    pub d_desc: Vec<T>,
    /// Chunk atoms grouped by center type.
    pub by_type: Vec<Vec<usize>>,
    /// Per-slot force gradient from ProdForce.
    pub slot_grads: Vec<[f64; 3]>,
    /// The current chunk's formatted rows and center types, when the
    /// force call formats its atoms chunk by chunk: the only formatted
    /// table a force call holds (§5.2.2).
    pub chunk_env: FormattedEnv,
    pub chunk_types: Vec<usize>,
}

impl<T: Real> EvalWorkspace<T> {
    pub fn new(cfg: &DpConfig) -> Self {
        let n_types = cfg.n_types();
        Self {
            emb_passes: (0..n_types).map(|_| NetPass::default()).collect(),
            fit_pass: NetPass::default(),
            bwd_g: Matrix::zeros(0, 0),
            bwd_a: Matrix::zeros(0, 0),
            bwd_b: Matrix::zeros(0, 0),
            s_col: Matrix::zeros(0, 0),
            fit_x: Matrix::zeros(0, 0),
            ones: Matrix::zeros(0, 0),
            dg_mats: (0..n_types).map(|_| Matrix::zeros(0, 0)).collect(),
            denv_blocks: vec![Vec::new(); n_types],
            denv_t: Vec::new(),
            envm: (0..n_types).map(|_| Vec::new()).collect(),
            desc: Vec::new(),
            t1: Vec::new(),
            t2: Vec::new(),
            dt1: Vec::new(),
            dt2: Vec::new(),
            d_desc: Vec::new(),
            by_type: vec![Vec::new(); n_types],
            slot_grads: Vec::new(),
            chunk_env: FormattedEnv::alloc(0, cfg),
            chunk_types: Vec::new(),
        }
    }
}

/// Clear + zero-fill a vector to `n` elements, reusing its allocation.
pub(crate) fn reuse_zeroed<T: Clone>(v: &mut Vec<T>, n: usize, zero: T) {
    v.clear();
    v.resize(n, zero);
}

/// Resize a vector to `n` elements without caring about contents (every
/// element is overwritten by the caller), reusing its allocation.
pub(crate) fn reuse_uninit<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    if v.len() < n {
        v.resize(n, fill);
    } else {
        v.truncate(n);
    }
}

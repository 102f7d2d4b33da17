//! The training graph: Deep Potential energy *and forces* as autodiff
//! nodes.
//!
//! Forces are `-∂E/∂r`, so the force-matching loss needs `∂²E/∂θ∂r`. The
//! graph here makes that mechanical: the environment matrix `R̃` enters as
//! tape leaves, `∂E/∂R̃` is produced by [`dp_autograd::Tape::grad`] (which
//! emits differentiable nodes), and the purely geometric chain rule
//! `∂E/∂R̃ → F` is a constant [`SparseLinear`] contraction. Calling `grad`
//! once more on the loss then differentiates *through* the force
//! computation.
//!
//! The graph has the shape `core::eval` gave inference (§5.2.1): one `R̃`
//! leaf per neighbor type covering every atom, each embedding net run once
//! per type and each fitting net once per centre type, and the descriptor
//! formed by block-batched products over the fixed `sel_t`-row blocks — so
//! a frame is O(n_types × layers) nodes whatever its atom count.

use deepmd_core::config::DpConfig;
use deepmd_core::format::{FormattedEnv, NONE};
use deepmd_core::model::DpModel;
use dp_autograd::{SparseLinear, Tape, Trans, Var};
use dp_linalg::Matrix;
use dp_nn::NetVars;
use std::sync::Arc;

/// Tape leaves for all model parameters.
pub struct ModelVars {
    pub emb: Vec<NetVars>,
    pub fit: Vec<NetVars>,
}

impl ModelVars {
    /// All parameter vars in the canonical `DpModel::flat_params` order.
    pub fn param_vars(&self) -> Vec<Var> {
        self.emb
            .iter()
            .chain(self.fit.iter())
            .flat_map(|nv| nv.param_vars())
            .collect()
    }
}

/// Create parameter leaves holding the model's current values.
pub fn model_leaves(tape: &mut Tape, model: &DpModel<f64>) -> ModelVars {
    ModelVars {
        emb: model
            .embeddings
            .iter()
            .map(|n| n.tape_leaves(tape))
            .collect(),
        fit: model.fittings.iter().map(|n| n.tape_leaves(tape)).collect(),
    }
}

/// Everything about one frame that depends on its geometry alone, in the
/// per-type layout the graph consumes. Built once per frame, not per step.
pub struct FrameGeometry {
    pub n_atoms: usize,
    /// `R̃` of every atom's type-`t` neighbor block, `n_atoms·sel[t] × 4`
    /// (padded slots are zero rows).
    pub env: Vec<Matrix<f64>>,
    /// Per neighbor type, the contraction `∂E/∂R̃_t → F`:
    /// `(n_atoms·sel[t] × 4) → (n_atoms × 3)`.
    pub force_maps: Vec<Arc<SparseLinear>>,
    /// Atom indices of each centre type, ascending.
    pub by_type: Vec<Arc<[u32]>>,
}

impl FrameGeometry {
    pub fn new(cfg: &DpConfig, fmt: &FormattedEnv, types: &[usize]) -> Self {
        let n = fmt.n_atoms;
        assert_eq!(types.len(), n);
        let mut env = Vec::with_capacity(cfg.n_types());
        let mut force_maps = Vec::with_capacity(cfg.n_types());
        for (t, &sel_t) in cfg.sel.iter().enumerate() {
            let mut r = Matrix::zeros(n * sel_t, 4);
            fmt.gather_env_block(0, n, t, r.as_mut_slice());
            env.push(r);

            let mut map = SparseLinear::new((n * sel_t, 4), (n, 3));
            for atom in 0..n {
                let block = fmt.block_start(atom, t);
                for k in 0..sel_t {
                    let j = fmt.indices[block + k];
                    if j == NONE {
                        continue;
                    }
                    let jac = &fmt.denv[(block + k) * 12..(block + k) * 12 + 12];
                    for m in 0..4 {
                        for kk in 0..3 {
                            let c = jac[m * 3 + kk];
                            if c != 0.0 {
                                // F_i += gw·jac ; F_j -= gw·jac
                                map.push((atom, kk), (atom * sel_t + k, m), c);
                                map.push((j as usize, kk), (atom * sel_t + k, m), -c);
                            }
                        }
                    }
                }
            }
            force_maps.push(Arc::new(map));
        }
        let by_type = (0..cfg.n_types())
            .map(|t| {
                let atoms = (0..n).filter(|&a| types[a] == t).map(|a| a as u32);
                atoms.collect::<Vec<u32>>().into()
            })
            .collect();
        Self {
            n_atoms: n,
            env,
            force_maps,
            by_type,
        }
    }
}

/// Energy and forces of one frame as tape nodes.
pub struct FrameGraph {
    /// Total energy, 1×1.
    pub energy: Var,
    /// Forces, `n_atoms × 3`.
    pub forces: Var,
}

fn sum_terms(tape: &mut Tape, terms: impl IntoIterator<Item = Var>) -> Var {
    terms
        .into_iter()
        .reduce(|acc, term| tape.add(acc, term))
        .expect("a model has at least one type")
}

/// Build the symbolic DP evaluation of one frame.
pub fn build_frame_graph(
    tape: &mut Tape,
    mv: &ModelVars,
    cfg: &DpConfig,
    geom: &FrameGeometry,
    e0: &[f64],
) -> FrameGraph {
    let n = geom.n_atoms;
    let m_w = cfg.emb_width();
    let m2 = cfg.axis_neurons;
    let nm = cfg.nm() as f64;

    // R̃ leaf, embedding and the two descriptor factors per neighbor type:
    // T1 = Σ_t G_tᵀ R̃_t (m_w × 4 per atom), T2 = Σ_t R̃_tᵀ G_t< (4 × m2).
    let r_leaves: Vec<Var> = geom.env.iter().map(|r| tape.leaf(r)).collect();
    let mut t1_terms = Vec::with_capacity(r_leaves.len());
    let mut t2_terms = Vec::with_capacity(r_leaves.len());
    for (&r, emb) in r_leaves.iter().zip(&mv.emb) {
        let s = tape.slice_cols(r, 0, 1);
        let g = emb.forward(tape, s);
        t1_terms.push(tape.bmm(g, r, Trans::TN, n));
        let g_lt = tape.slice_cols(g, 0, m2);
        t2_terms.push(tape.bmm(r, g_lt, Trans::TN, n));
    }
    let t1 = sum_terms(tape, t1_terms);
    let t2 = sum_terms(tape, t2_terms);
    // D = (T1/Nm)(T2/Nm), one descriptor row per atom
    let d = tape.bmm(t1, t2, Trans::NN, n);
    let d = tape.scale(d, 1.0 / (nm * nm));
    let d = tape.reshape(d, n, m_w * m2);

    // fitting net once per centre type, over that type's descriptor rows
    let mut e_shift = 0.0;
    let mut e_terms = Vec::with_capacity(mv.fit.len());
    for ((fit, atoms), &e0_t) in mv.fit.iter().zip(&geom.by_type).zip(e0) {
        if atoms.is_empty() {
            continue;
        }
        let rows = tape.select_rows(d, atoms.clone());
        let e_atoms = fit.forward(tape, rows);
        e_terms.push(tape.sum_all(e_atoms));
        e_shift += e0_t * atoms.len() as f64;
    }
    e_terms.push(tape.scalar(e_shift));
    let energy = sum_terms(tape, e_terms);

    // forces: contract ∂E/∂R̃ with the constant geometric maps
    let dr = tape.grad(energy, &r_leaves);
    let contribs: Vec<Var> = dr
        .into_iter()
        .zip(&geom.force_maps)
        .map(|(g, map)| tape.sparse_apply(g, map.clone()))
        .collect();
    let forces = sum_terms(tape, contribs);

    FrameGraph { energy, forces }
}

/// Scalar loss `p_e (ΔE/N)² + p_f Σ|ΔF|²/(3N)` as a tape node;
/// `forces_ref` is `n_atoms × 3`.
pub fn build_loss(
    tape: &mut Tape,
    fg: &FrameGraph,
    energy_ref: f64,
    forces_ref: &Matrix<f64>,
    pe: f64,
    pf: f64,
) -> Var {
    let n = forces_ref.rows() as f64;
    let e_ref = tape.scalar(energy_ref);
    let de = tape.sub(fg.energy, e_ref);
    let de2 = tape.mul(de, de);
    let term_e = tape.scale(de2, pe / (n * n));

    let f_ref = tape.leaf(forces_ref);
    let df = tape.sub(fg.forces, f_ref);
    let df2 = tape.sum_squares(df);
    let term_f = tape.scale(df2, pf / (3.0 * n));

    tape.add(term_e, term_f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmd_core::codec::Codec;
    use deepmd_core::eval::evaluate;
    use deepmd_core::format::format_optimized;
    use dp_md::CounterRng;
    use dp_md::{lattice, units, NeighborList, System};

    struct Case {
        model: DpModel<f64>,
        sys: System,
        fmt: FormattedEnv,
        geom: FrameGeometry,
    }

    fn case(cfg: DpConfig, mut sys: System, seed: u64) -> Case {
        let mut rng = CounterRng::new(seed);
        let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
        sys.perturb(0.15, &mut rng);
        let nl = NeighborList::build(&sys, cfg.rcut);
        let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        let geom = FrameGeometry::new(&cfg, &fmt, &sys.types);
        Case {
            model,
            sys,
            fmt,
            geom,
        }
    }

    fn copper() -> Case {
        let sys = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
        case(DpConfig::small(1, 4.0, 14), sys, 41)
    }

    /// Two species, and a cutoff short enough that most `sel` slots of both
    /// types are padding (`NONE`).
    fn water() -> Case {
        let cfg = DpConfig {
            rcut: 3.0,
            rcut_smth: 0.8,
            sel: vec![10, 20],
            embedding: vec![4, 8],
            fitting: vec![12, 12],
            axis_neurons: 2,
        };
        let c = case(cfg, lattice::water_box([2, 2, 2], 3.104), 43);
        let slots = c.fmt.n_atoms * c.fmt.nm;
        assert!(
            c.fmt.real_neighbors() < slots * 3 / 4,
            "frame has no padding"
        );
        c
    }

    fn graph(c: &Case, tape: &mut Tape) -> (ModelVars, FrameGraph) {
        let mv = model_leaves(tape, &c.model);
        let fg = build_frame_graph(tape, &mv, &c.model.config, &c.geom, &c.model.e0);
        (mv, fg)
    }

    #[test]
    fn tape_energy_and_forces_match_fast_eval() {
        for c in [copper(), water()] {
            let n = c.sys.len();
            let fast = evaluate(&c.model, &c.fmt, &c.sys.types, n, None);

            let mut tape = Tape::new();
            let (_, fg) = graph(&c, &mut tape);
            let e_tape = tape.value(fg.energy)[(0, 0)];
            assert!(
                (e_tape - fast.energy).abs() < 1e-9,
                "tape {e_tape} vs fast {}",
                fast.energy
            );
            let f_tape = tape.value(fg.forces);
            assert_eq!(f_tape.shape(), (n, 3));
            for i in 0..n {
                for k in 0..3 {
                    assert!(
                        (f_tape[(i, k)] - fast.forces[i][k]).abs() < 1e-9,
                        "atom {i} dim {k}: {} vs {}",
                        f_tape[(i, k)],
                        fast.forces[i][k]
                    );
                }
            }
        }
    }

    #[test]
    fn loss_is_zero_on_own_labels() {
        let c = copper();
        let n = c.sys.len();
        let fast = evaluate(&c.model, &c.fmt, &c.sys.types, n, None);

        let mut tape = Tape::new();
        let (_, fg) = graph(&c, &mut tape);
        let forces = Matrix::from_fn(n, 3, |i, k| fast.forces[i][k]);
        let loss = build_loss(&mut tape, &fg, fast.energy, &forces, 1.0, 1.0);
        assert!(tape.value(loss)[(0, 0)].abs() < 1e-16);
    }

    #[test]
    fn loss_gradient_matches_fd_in_params() {
        // the decisive grad-of-grad test: d(loss)/dθ via tape equals
        // central differences of the loss (which itself contains forces)
        for mut c in [copper(), water()] {
            // a nonzero per-type shift, so the energy term sees e0
            c.model
                .e0
                .iter_mut()
                .enumerate()
                .for_each(|(t, e)| *e = 0.1 * (t + 1) as f64);
            let forces = Matrix::zeros(c.sys.len(), 3);
            let loss_of = |c: &Case, tape: &mut Tape| {
                let (mv, fg) = graph(c, tape);
                (mv, build_loss(tape, &fg, -1.0, &forces, 1.0, 1.0))
            };

            let mut tape = Tape::new();
            let (mv, loss) = loss_of(&c, &mut tape);
            let grads = tape.grad(loss, &mv.param_vars());
            let flat_grad: Vec<f64> = grads
                .iter()
                .flat_map(|&g| tape.value(g).as_slice().to_vec())
                .collect();
            assert_eq!(flat_grad.len(), c.model.num_params());

            // check a scattered subset of parameters by finite differences
            let p0 = c.model.flat_params();
            let eps = 1e-5;
            let step = (p0.len() / 23).max(1);
            for idx in (0..p0.len()).step_by(step) {
                let mut loss_at = |v: f64| {
                    let mut p = p0.clone();
                    p[idx] = v;
                    c.model.set_flat_params(&p);
                    let mut tape = Tape::new();
                    let (_, loss) = loss_of(&c, &mut tape);
                    tape.value(loss)[(0, 0)]
                };
                let fd = (loss_at(p0[idx] + eps) - loss_at(p0[idx] - eps)) / (2.0 * eps);
                let an = flat_grad[idx];
                assert!(
                    (fd - an).abs() < 1e-5 * fd.abs().max(an.abs()).max(1.0),
                    "param {idx}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn benchmark_frame_stays_within_node_budget() {
        // perfbench's train_step_8f frame: 81-atom water, sel [12, 24],
        // 8×16 embedding, 32³ fitting. The per-atom builder this replaced
        // put 41 630 nodes on the tape for it.
        let cfg = DpConfig {
            rcut: 4.5,
            rcut_smth: 1.0,
            sel: vec![12, 24],
            embedding: vec![8, 16],
            fitting: vec![32, 32, 32],
            axis_neurons: 4,
        };
        let mut rng = CounterRng::new(47);
        let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
        let sys = lattice::water_box([3, 3, 3], 3.104);
        assert_eq!(sys.len(), 81);
        let nl = NeighborList::build(&sys, cfg.rcut);
        let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        let geom = FrameGeometry::new(&cfg, &fmt, &sys.types);

        let mut tape = Tape::new();
        let mv = model_leaves(&mut tape, &model);
        let fg = build_frame_graph(&mut tape, &mv, &cfg, &geom, &model.e0);
        let forces = Matrix::zeros(81, 3);
        let loss = build_loss(&mut tape, &fg, 0.0, &forces, 1.0, 10.0);
        tape.grad(loss, &mv.param_vars());
        assert!(tape.len() <= 2000, "{} tape nodes", tape.len());
    }
}

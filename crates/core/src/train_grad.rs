//! The training gradient: `∂L/∂θ` of the force-matching loss, on
//! [`crate::eval`]'s kernels.
//!
//! The loss of one frame (arXiv 1707.09571),
//! `L = p_e (ΔE/N)² + p_f Σ|ΔF|²/(3N)`, depends on the parameters θ through
//! the energy and through the forces `F = −∂E/∂r`. With
//! `a = 2 p_e ΔE/N²` and `w = −(2 p_f/3N)(F − F_ref)` taken from an
//! ordinary [`evaluate_into`] pass and held fixed,
//! `∂L/∂θ = ∂/∂θ (a·E + Ė)`, where `Ė = w·∂E/∂r` is the derivative of the
//! energy along `w`. One more sweep over the frame gives it:
//!
//! 1. **Tangent forward.** `Ṙ = (∂R̃/∂r)·w` comes from
//!    [`crate::ops::env_tangent_into`] (ProdForce transposed). Every net
//!    carries the pair `(x, ẋ)` through each layer — the layer operator's
//!    forward (`z = xW + b`, `h = tanh z`, the skip), which is inference's,
//!    and its tangent (`ż = ẋW`, `ḣ = (1−h²)⊙ż`, the skip) — and the
//!    descriptor carries `Ṫ1`, `Ṫ2` and `Ḋ = Ṫ1·T2 + T1·Ṫ2`.
//! 2. **Reverse over the pair `(E, Ė)`.** Every value `x` gets two
//!    adjoints, `x̄ = ∂J/∂x` and `ẋ̄ = ∂J/∂ẋ` for `J = a·E + Ė`. Through a
//!    tanh layer `ż̄ = (1−h²)⊙ḣ̄` and `z̄ = (1−h²)⊙(h̄ − 2h⊙ż⊙ḣ̄)`, the
//!    second-order term that is this module's own; the operator's input
//!    adjoint and parameter gradient then take `(z̄, ż̄)` to `(x̄, ẋ̄)` and to
//!    `W̄ = xᵀz̄ + ẋᵀż̄`, `b̄ = Σ_rows z̄`.
//!
//! Every stage has a fixed shape the inference pipeline already runs, so
//! the sweep uses the same layer operator ([`crate::layer_op`]) and strided
//! batched descriptor GEMMs, works through the frame in the same atom
//! chunks, and keeps every buffer in a reusable [`TrainWorkspace`].
//! Training is f64 throughout, as in the paper.

use crate::config::DpConfig;
use crate::eval::{chunk_size, evaluate_into, EvalOutput};
use crate::format::FormattedEnv;
use crate::layer_op;
use crate::model::{DpModel, Net};
use crate::ops::env_tangent_into;
use crate::workspace::{reuse_uninit, reuse_zeroed, EvalWorkspace};
use dp_linalg::batch::{gemm_batch_nn, gemm_batch_nt, gemm_batch_tn, Acc, Panel};
use dp_linalg::{simd, Matrix};

/// Loss prefactors, constant over training. DeePMD-kit ramps the energy
/// prefactor up and the force prefactor down with the learning rate; how
/// the constants compare with that schedule is unmeasured (ROADMAP item 24).
#[derive(Debug, Clone, Copy)]
pub struct LossWeights {
    pub pe: f64,
    pub pf: f64,
}

impl Default for LossWeights {
    fn default() -> Self {
        Self { pe: 1.0, pf: 10.0 }
    }
}

/// The reference energy and forces a frame's loss is measured against.
#[derive(Debug, Clone, Copy)]
pub struct Labels<'a> {
    pub energy: f64,
    pub forces: &'a [[f64; 3]],
}

/// What [`loss_grad_into`] reports besides the gradient.
#[derive(Debug, Clone, Copy)]
pub struct LossGrad {
    pub loss: f64,
    /// `E` as the tangent sweep recomputes it.
    pub energy: f64,
    /// `Ė = w·∂E/∂r`, the directional derivative the sweep carries.
    pub energy_dot: f64,
}

/// `(&v[l], &mut v[l + 1])`.
fn step_pair<T>(v: &mut [T], l: usize) -> (&T, &mut T) {
    let (lo, hi) = v.split_at_mut(l + 1);
    (&lo[l], &mut hi[0])
}

/// One net run on a primal/tangent pair, keeping what its reverse reads.
struct PairPass {
    /// `xs[l]` / `xds[l]`: the input of layer `l` and its tangent; the
    /// last entries are the net's output.
    xs: Vec<Matrix<f64>>,
    xds: Vec<Matrix<f64>>,
    /// Per layer: `h = tanh z`, `1 − h²` (both empty for the linear head)
    /// and `ż`.
    h: Vec<Matrix<f64>>,
    c: Vec<Matrix<f64>>,
    zd: Vec<Matrix<f64>>,
}

/// The reverse sweep's ping-pong adjoints.
#[derive(Default)]
struct RevScratch {
    /// `ȳ` / `ẏ̄` of the current layer's output.
    yb: Matrix<f64>,
    ydb: Matrix<f64>,
    zb: Matrix<f64>,
    zdb: Matrix<f64>,
    xb: Matrix<f64>,
    xdb: Matrix<f64>,
    /// Pre-activation scratch of the forward pass.
    pre: Matrix<f64>,
}

impl PairPass {
    fn new() -> Self {
        Self {
            xs: vec![Matrix::default()],
            xds: vec![Matrix::default()],
            h: Vec::new(),
            c: Vec::new(),
            zd: Vec::new(),
        }
    }

    /// Run `net` on `xs[0]` / `xds[0]`, which the caller has filled: the
    /// layer operator's forward, which is the inference pass's, then its
    /// tangent, layer after layer.
    fn forward(&mut self, net: &Net<f64>, pre: &mut Matrix<f64>) {
        let n = net.layers.len();
        for v in [&mut self.xs, &mut self.xds] {
            v.resize_with(v.len().max(n + 1), Matrix::default);
        }
        for v in [&mut self.h, &mut self.c, &mut self.zd] {
            v.resize_with(v.len().max(n), Matrix::default);
        }
        for (l, layer) in net.layers.iter().enumerate() {
            let (x, y) = step_pair(&mut self.xs, l);
            let (xd, yd) = step_pair(&mut self.xds, l);
            let (h, c, zd) = (&mut self.h[l], &mut self.c[l], &mut self.zd[l]);
            layer_op::forward(layer, x, pre, h, c, y, None);
            layer_op::tangent(layer, xd, c, zd, pre, yd);
        }
    }

    /// The output of [`forward`](Self::forward) and its tangent.
    fn output(&self, net: &Net<f64>) -> (&[f64], &[f64]) {
        let n = net.layers.len();
        (self.xs[n].as_slice(), self.xds[n].as_slice())
    }

    /// Reverse over the pair after [`forward`](Self::forward): `s.yb` /
    /// `s.ydb` hold the output adjoints `ȳ` / `ẏ̄` on entry. `∂J/∂θ` is
    /// added to `grad`, this net's slice of the flat parameters in
    /// `Net::flat_params` order. With `input`, the input adjoints `x̄` /
    /// `ẋ̄` are left in `s.yb` / `s.ydb`.
    fn reverse(&self, net: &Net<f64>, grad: &mut [f64], s: &mut RevScratch, input: bool) {
        let RevScratch {
            yb,
            ydb,
            zb,
            zdb,
            xb,
            xdb,
            ..
        } = s;
        let mut off = net.num_params();
        for (l, layer) in net.layers.iter().enumerate().rev() {
            off -= layer.num_params();
            let (zb, zdb) = if layer_op::is_tanh(layer) {
                let (h, c, zd) = (&self.h[l], &self.c[l], &self.zd[l]);
                // ż̄ = (1−h²)⊙ḣ̄ ; z̄ = (1−h²)⊙(h̄ − 2h⊙ż⊙ḣ̄)
                layer_op::tanh_chain(c, ydb, zdb);
                zb.reuse_shape(yb.rows(), yb.cols());
                let terms = yb.as_slice().iter().zip(ydb.as_slice()).zip(h.as_slice());
                let terms = terms.zip(c.as_slice()).zip(zd.as_slice());
                for (z, ((((&hb, &hdb), &h), &c), &zd)) in zb.as_mut_slice().iter_mut().zip(terms) {
                    *z = c * (hb - 2.0 * h * zd * hdb);
                }
                (&*zb, &*zdb)
            } else {
                (&*yb, &*ydb)
            };
            let params = &mut grad[off..off + layer.num_params()];
            layer_op::param_grad(layer, &self.xs[l], &self.xds[l], zb, zdb, params);
            if l == 0 && !input {
                break;
            }
            layer_op::input_adjoint(layer, zb, yb, xb, None);
            layer_op::input_adjoint(layer, zdb, ydb, xdb, None);
            std::mem::swap(yb, xb);
            std::mem::swap(ydb, xdb);
        }
    }
}

/// Every buffer [`loss_grad_into`] needs, allocated on the first frames
/// and reused after (the §5.2.2 arena, for training).
pub struct TrainWorkspace {
    eval: EvalWorkspace<f64>,
    /// Energy and forces of the last frame, from the ordinary pass.
    pub(crate) out: EvalOutput,
    /// Force-loss weights `w`, one per atom.
    w: Vec<[f64; 3]>,
    emb: Vec<PairPass>,
    fit: PairPass,
    rev: RevScratch,
    /// `R̃` and `Ṙ` of each neighbor type's block (`nc·sel[t]` × 4).
    env: Vec<Vec<f64>>,
    env_d: Vec<Vec<f64>>,
    /// Descriptor factors, the descriptor and their tangents.
    t1: Vec<f64>,
    t2: Vec<f64>,
    t1d: Vec<f64>,
    t2d: Vec<f64>,
    desc: Vec<f64>,
    desc_d: Vec<f64>,
    /// Adjoints of `D`, `Ḋ`, `T1`, `T2`, `Ṫ1`, `Ṫ2`.
    desc_b: Vec<f64>,
    desc_db: Vec<f64>,
    t1b: Vec<f64>,
    t2b: Vec<f64>,
    t1db: Vec<f64>,
    t2db: Vec<f64>,
    by_type: Vec<Vec<usize>>,
}

impl TrainWorkspace {
    pub fn new(cfg: &DpConfig) -> Self {
        let n_types = cfg.n_types();
        Self {
            eval: EvalWorkspace::new(cfg),
            out: EvalOutput::default(),
            w: Vec::new(),
            emb: (0..n_types).map(|_| PairPass::new()).collect(),
            fit: PairPass::new(),
            rev: RevScratch::default(),
            env: vec![Vec::new(); n_types],
            env_d: vec![Vec::new(); n_types],
            t1: Vec::new(),
            t2: Vec::new(),
            t1d: Vec::new(),
            t2d: Vec::new(),
            desc: Vec::new(),
            desc_d: Vec::new(),
            desc_b: Vec::new(),
            desc_db: Vec::new(),
            t1b: Vec::new(),
            t2b: Vec::new(),
            t1db: Vec::new(),
            t2db: Vec::new(),
            by_type: vec![Vec::new(); n_types],
        }
    }
}

/// Loss of one frame against `labels`, and its parameter gradient *added*
/// to `grad` (in `DpModel::flat_params` order).
pub fn loss_grad_into(
    model: &DpModel<f64>,
    fmt: &FormattedEnv,
    types: &[usize],
    labels: Labels,
    weights: LossWeights,
    ws: &mut TrainWorkspace,
    grad: &mut [f64],
) -> LossGrad {
    let n = fmt.n_atoms;
    assert_eq!(labels.forces.len(), n, "one reference force per atom");
    assert_eq!(grad.len(), model.num_params(), "flat gradient length");
    assert_eq!(
        ws.emb.len(),
        model.config.n_types(),
        "workspace sized for another config"
    );
    evaluate_into(model, fmt, types, n, None, &mut ws.eval, &mut ws.out);

    let nf = n as f64;
    let de = ws.out.energy - labels.energy;
    let wf = -2.0 * weights.pf / (3.0 * nf);
    let mut df2 = 0.0;
    ws.w.clear();
    for (f, f_ref) in ws.out.forces.iter().zip(labels.forces) {
        let d = [f[0] - f_ref[0], f[1] - f_ref[1], f[2] - f_ref[2]];
        df2 += d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        ws.w.push([wf * d[0], wf * d[1], wf * d[2]]);
    }
    let loss = weights.pe / (nf * nf) * de * de + weights.pf / (3.0 * nf) * df2;
    let a = 2.0 * weights.pe * de / (nf * nf);
    let (energy, energy_dot) = sweep(model, fmt, types, a, ws, grad);
    LossGrad {
        loss,
        energy,
        energy_dot,
    }
}

/// Tangent forward and pair reverse over every chunk; returns `(E, Ė)`.
fn sweep(
    model: &DpModel<f64>,
    fmt: &FormattedEnv,
    types: &[usize],
    a: f64,
    ws: &mut TrainWorkspace,
    grad: &mut [f64],
) -> (f64, f64) {
    let cfg = &model.config;
    let n_types = cfg.n_types();
    let (m_w, m2, d_in) = (cfg.emb_width(), cfg.axis_neurons, cfg.descriptor_dim());
    let inv_nm = 1.0 / fmt.nm as f64;
    let TrainWorkspace {
        w,
        emb,
        fit,
        rev,
        env,
        env_d,
        t1,
        t2,
        t1d,
        t2d,
        desc,
        desc_d,
        desc_b,
        desc_db,
        t1b,
        t2b,
        t1db,
        t2db,
        by_type,
        ..
    } = ws;
    // flat-parameter slices: embeddings in type order, then fittings
    let n_emb: usize = model.embeddings.iter().map(Net::num_params).sum();
    let (emb_grad, fit_grad) = grad.split_at_mut(n_emb);
    let net_slice = |nets: &[Net<f64>], t: usize| {
        let off: usize = nets[..t].iter().map(Net::num_params).sum();
        off..off + nets[t].num_params()
    };

    let p1 = Panel {
        ld: 4,
        stride: m_w * 4,
    };
    let p2 = Panel {
        ld: m2,
        stride: 4 * m2,
    };
    let pd = Panel {
        ld: m2,
        stride: m_w * m2,
    };
    let (mut energy, mut energy_dot) = (0.0, 0.0);
    let chunk = chunk_size(cfg.sel.iter().copied().max().unwrap_or(1));
    let mut chunk_start = 0;
    while chunk_start < fmt.n_atoms {
        let nc = chunk.min(fmt.n_atoms - chunk_start);

        // ---- embedding nets on (s, ṡ), and T1, T2 with their tangents ----
        reuse_zeroed(t1, nc * m_w * 4, 0.0);
        reuse_zeroed(t2, nc * 4 * m2, 0.0);
        reuse_zeroed(t1d, nc * m_w * 4, 0.0);
        reuse_zeroed(t2d, nc * 4 * m2, 0.0);
        let chunk_rows = fmt.rows(chunk_start..chunk_start + nc);
        env_tangent_into(chunk_rows, chunk_start, w, env_d);
        for t in 0..n_types {
            let sel_t = cfg.sel[t];
            let rows = nc * sel_t;
            reuse_uninit(&mut env[t], rows * 4, 0.0);
            chunk_rows.gather_env_block(t, &mut env[t]);
            let pass = &mut emb[t];
            for (x, e) in [(&mut pass.xs[0], &env[t]), (&mut pass.xds[0], &env_d[t])] {
                x.reuse_shape(rows, 1);
                for (s, row) in x.as_mut_slice().iter_mut().zip(e.chunks_exact(4)) {
                    *s = row[0];
                }
            }
            let net = &model.embeddings[t];
            pass.forward(net, &mut rev.pre);

            let (g, gd) = pass.output(net);
            let (e, ed) = (env[t].as_slice(), env_d[t].as_slice());
            let pg = Panel {
                ld: m_w,
                stride: sel_t * m_w,
            };
            let pe = Panel {
                ld: 4,
                stride: sel_t * 4,
            };
            // T1 += GᵀR̃ ; Ṫ1 += ĠᵀR̃ + GᵀṘ
            gemm_batch_tn(nc, m_w, sel_t, 4, 1.0, g, pg, e, pe, t1, p1, Acc::Add);
            gemm_batch_tn(nc, m_w, sel_t, 4, 1.0, gd, pg, e, pe, t1d, p1, Acc::Add);
            gemm_batch_tn(nc, m_w, sel_t, 4, 1.0, g, pg, ed, pe, t1d, p1, Acc::Add);
            // T2 += R̃ᵀG< ; Ṫ2 += ṘᵀG< + R̃ᵀĠ<
            gemm_batch_tn(nc, 4, sel_t, m2, 1.0, e, pe, g, pg, t2, p2, Acc::Add);
            gemm_batch_tn(nc, 4, sel_t, m2, 1.0, ed, pe, g, pg, t2d, p2, Acc::Add);
            gemm_batch_tn(nc, 4, sel_t, m2, 1.0, e, pe, gd, pg, t2d, p2, Acc::Add);
        }
        for v in [&mut *t1, &mut *t2, &mut *t1d, &mut *t2d] {
            simd::scale(v, inv_nm);
        }
        // D = T1·T2 ; Ḋ = Ṫ1·T2 + T1·Ṫ2
        reuse_uninit(desc, nc * d_in, 0.0);
        reuse_uninit(desc_d, nc * d_in, 0.0);
        gemm_batch_nn(
            nc,
            m_w,
            4,
            m2,
            1.0,
            t1,
            p1,
            t2,
            p2,
            desc,
            pd,
            Acc::Overwrite,
        );
        gemm_batch_nn(
            nc,
            m_w,
            4,
            m2,
            1.0,
            t1d,
            p1,
            t2,
            p2,
            desc_d,
            pd,
            Acc::Overwrite,
        );
        gemm_batch_nn(nc, m_w, 4, m2, 1.0, t1, p1, t2d, p2, desc_d, pd, Acc::Add);

        // ---- fitting nets forward on (D, Ḋ), then reverse from (a, 1) ----
        for v in by_type.iter_mut() {
            v.clear();
        }
        for i in 0..nc {
            by_type[types[chunk_start + i]].push(i);
        }
        reuse_uninit(desc_b, nc * d_in, 0.0);
        reuse_uninit(desc_db, nc * d_in, 0.0);
        for t in 0..n_types {
            let atoms = &by_type[t];
            if atoms.is_empty() {
                continue;
            }
            let rows = atoms.len();
            for (x, d) in [(&mut fit.xs[0], &*desc), (&mut fit.xds[0], &*desc_d)] {
                x.reuse_shape(rows, d_in);
                for (r, &i) in atoms.iter().enumerate() {
                    x.row_mut(r).copy_from_slice(&d[i * d_in..(i + 1) * d_in]);
                }
            }
            let net = &model.fittings[t];
            fit.forward(net, &mut rev.pre);
            let (e_atoms, e_dot) = fit.output(net);
            energy += e_atoms.iter().sum::<f64>() + model.e0[t] * rows as f64;
            energy_dot += e_dot.iter().sum::<f64>();

            rev.yb.reuse_shape(rows, 1);
            rev.yb.as_mut_slice().fill(a);
            rev.ydb.reuse_shape(rows, 1);
            rev.ydb.as_mut_slice().fill(1.0);
            fit.reverse(net, &mut fit_grad[net_slice(&model.fittings, t)], rev, true);
            for (r, &i) in atoms.iter().enumerate() {
                desc_b[i * d_in..(i + 1) * d_in].copy_from_slice(rev.yb.row(r));
                desc_db[i * d_in..(i + 1) * d_in].copy_from_slice(rev.ydb.row(r));
            }
        }

        // ---- descriptor reverse: T̄1 = D̄T2ᵀ + Ḋ̄Ṫ2ᵀ, T̄2 = T1ᵀD̄ + Ṫ1ᵀḊ̄,
        // Ṫ̄1 = Ḋ̄T2ᵀ, Ṫ̄2 = T1ᵀḊ̄ ----
        for v in [&mut *t1b, &mut *t1db] {
            reuse_uninit(v, nc * m_w * 4, 0.0);
        }
        for v in [&mut *t2b, &mut *t2db] {
            reuse_uninit(v, nc * 4 * m2, 0.0);
        }
        gemm_batch_nt(
            nc,
            m_w,
            m2,
            4,
            1.0,
            desc_b,
            pd,
            t2,
            p2,
            t1b,
            p1,
            Acc::Overwrite,
        );
        gemm_batch_nt(nc, m_w, m2, 4, 1.0, desc_db, pd, t2d, p2, t1b, p1, Acc::Add);
        gemm_batch_tn(
            nc,
            4,
            m_w,
            m2,
            1.0,
            t1,
            p1,
            desc_b,
            pd,
            t2b,
            p2,
            Acc::Overwrite,
        );
        gemm_batch_tn(nc, 4, m_w, m2, 1.0, t1d, p1, desc_db, pd, t2b, p2, Acc::Add);
        gemm_batch_nt(
            nc,
            m_w,
            m2,
            4,
            1.0,
            desc_db,
            pd,
            t2,
            p2,
            t1db,
            p1,
            Acc::Overwrite,
        );
        gemm_batch_tn(
            nc,
            4,
            m_w,
            m2,
            1.0,
            t1,
            p1,
            desc_db,
            pd,
            t2db,
            p2,
            Acc::Overwrite,
        );

        // ---- embedding nets reverse from (Ḡ, Ġ̄) ----
        for t in 0..n_types {
            let sel_t = cfg.sel[t];
            let rows = nc * sel_t;
            let (e, ed) = (env[t].as_slice(), env_d[t].as_slice());
            let pg = Panel {
                ld: m_w,
                stride: sel_t * m_w,
            };
            let pe = Panel {
                ld: 4,
                stride: sel_t * 4,
            };
            // Ḡ = (R̃T̄1ᵀ + ṘṪ̄1ᵀ)/Nm, and on the m2 prefix + (R̃T̄2 + ṘṪ̄2)/Nm
            rev.yb.reuse_shape(rows, m_w);
            let gb = rev.yb.as_mut_slice();
            gemm_batch_nt(
                nc,
                sel_t,
                4,
                m_w,
                inv_nm,
                e,
                pe,
                t1b,
                p1,
                gb,
                pg,
                Acc::Overwrite,
            );
            gemm_batch_nt(
                nc,
                sel_t,
                4,
                m_w,
                inv_nm,
                ed,
                pe,
                t1db,
                p1,
                gb,
                pg,
                Acc::Add,
            );
            gemm_batch_nn(nc, sel_t, 4, m2, inv_nm, e, pe, t2b, p2, gb, pg, Acc::Add);
            gemm_batch_nn(nc, sel_t, 4, m2, inv_nm, ed, pe, t2db, p2, gb, pg, Acc::Add);
            // Ġ̄ = R̃Ṫ̄1ᵀ/Nm, and on the m2 prefix + R̃Ṫ̄2/Nm
            rev.ydb.reuse_shape(rows, m_w);
            let gdb = rev.ydb.as_mut_slice();
            gemm_batch_nt(
                nc,
                sel_t,
                4,
                m_w,
                inv_nm,
                e,
                pe,
                t1db,
                p1,
                gdb,
                pg,
                Acc::Overwrite,
            );
            gemm_batch_nn(nc, sel_t, 4, m2, inv_nm, e, pe, t2db, p2, gdb, pg, Acc::Add);
            let net = &model.embeddings[t];
            emb[t].reverse(
                net,
                &mut emb_grad[net_slice(&model.embeddings, t)],
                rev,
                false,
            );
        }

        chunk_start += nc;
    }
    (energy, energy_dot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::format::format_optimized;
    use dp_md::{lattice, units, CounterRng, NeighborList, System};

    struct Case {
        model: DpModel<f64>,
        sys: System,
        fmt: FormattedEnv,
    }

    fn case(cfg: DpConfig, mut sys: System, seed: u64) -> Case {
        let mut rng = CounterRng::new(seed);
        let mut model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
        // a nonzero per-type shift, so the energy term sees e0
        for (t, e) in model.e0.iter_mut().enumerate() {
            *e = 0.1 * (t + 1) as f64;
        }
        sys.perturb(0.15, &mut rng);
        let nl = NeighborList::build(&sys, cfg.rcut);
        let fmt = format_optimized(&sys, &nl, &cfg, cfg.codec(sys.len()));
        Case { model, sys, fmt }
    }

    /// One type: Plain and Growth embedding layers, Plain, Residual and
    /// Linear fitting layers.
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

    /// Reference forces that differ from the model's in every component.
    fn ref_forces(n: usize) -> Vec<[f64; 3]> {
        (0..n)
            .map(|i| [0.3 * (i as f64).sin(), -0.2, 0.1 * (i % 3) as f64])
            .collect()
    }

    fn grad_of(
        c: &Case,
        labels: Labels,
        weights: LossWeights,
    ) -> (LossGrad, Vec<f64>, TrainWorkspace) {
        let mut ws = TrainWorkspace::new(&c.model.config);
        let mut grad = vec![0.0; c.model.num_params()];
        let types = &c.sys.types;
        let lg = loss_grad_into(&c.model, &c.fmt, types, labels, weights, &mut ws, &mut grad);
        (lg, grad, ws)
    }

    /// The loss from `evaluate`, written out independently of the pass.
    fn loss(c: &Case, labels: Labels, weights: LossWeights) -> f64 {
        let n = c.sys.len();
        let out = evaluate(&c.model, &c.fmt, &c.sys.types, n, None);
        let de = (out.energy - labels.energy) / n as f64;
        let df2: f64 = out
            .forces
            .iter()
            .zip(labels.forces)
            .flat_map(|(f, r)| (0..3).map(move |k| (f[k] - r[k]).powi(2)))
            .sum();
        weights.pe * de * de + weights.pf * df2 / (3.0 * n as f64)
    }

    #[test]
    fn loss_gradient_matches_fd_in_params() {
        // d(loss)/dθ, which runs through the forces, against central
        // differences of the loss
        for mut c in [copper(), water()] {
            let forces = vec![[0.0; 3]; c.sys.len()];
            let labels = Labels {
                energy: -1.0,
                forces: &forces,
            };
            let weights = LossWeights { pe: 1.0, pf: 1.0 };
            let (lg, grad, _) = grad_of(&c, labels, weights);
            assert!((lg.loss - loss(&c, labels, weights)).abs() <= 1e-12 * lg.loss);

            // check a scattered subset of parameters by finite differences
            let p0 = c.model.flat_params();
            let eps = 1e-5;
            let step = (p0.len() / 23).max(1);
            for idx in (0..p0.len()).step_by(step) {
                let mut loss_at = |v: f64| {
                    let mut p = p0.clone();
                    p[idx] = v;
                    c.model.set_flat_params(&p);
                    loss(&c, labels, weights)
                };
                let fd = (loss_at(p0[idx] + eps) - loss_at(p0[idx] - eps)) / (2.0 * eps);
                let an = grad[idx];
                assert!(
                    (fd - an).abs() < 1e-5 * fd.abs().max(an.abs()).max(1.0),
                    "param {idx}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn energy_forces_and_tangent_match_evaluate() {
        // the two frames, and one of 500 atoms that spans two chunks
        let mut big = lattice::fcc(3.615, [5, 5, 5], units::MASS_CU);
        big.perturb(0.05, &mut CounterRng::new(44));
        let big = case(DpConfig::small(1, 4.5, 16), big, 45);
        assert!(big.sys.len() > chunk_size(16));
        for c in [copper(), water(), big] {
            let n = c.sys.len();
            let fast = evaluate(&c.model, &c.fmt, &c.sys.types, n, None);
            let forces = ref_forces(n);
            let labels = Labels {
                energy: 0.0,
                forces: &forces,
            };
            let weights = LossWeights::default();
            let (lg, _, ws) = grad_of(&c, labels, weights);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0);
            assert!(
                close(lg.energy, fast.energy),
                "{} vs {}",
                lg.energy,
                fast.energy
            );
            assert!(close(ws.out.energy, fast.energy));
            for (f, g) in ws.out.forces.iter().zip(&fast.forces) {
                assert!((0..3).all(|k| close(f[k], g[k])), "{f:?} vs {g:?}");
            }
            // Ė = w·∂E/∂r = −w·F
            let wf = -2.0 * weights.pf / (3.0 * n as f64);
            let w_dot_f: f64 = (0..n)
                .flat_map(|i| (0..3).map(move |k| (i, k)))
                .map(|(i, k)| wf * (fast.forces[i][k] - forces[i][k]) * fast.forces[i][k])
                .sum();
            assert!(
                close(lg.energy_dot, -w_dot_f),
                "{} vs {}",
                lg.energy_dot,
                -w_dot_f
            );
        }
    }

    /// `PairPass`'s primal is the inference pass: the same output and
    /// cached tanh gradients, bit for bit, through all four layer kinds.
    #[test]
    fn pair_pass_primal_is_the_inference_pass_bit_for_bit() {
        use crate::eval::net_forward_into;
        use crate::layer_op::{Layer, LayerKind};
        use crate::workspace::NetPass;

        let mut rng = CounterRng::new(47);
        let mut layer = |kind, k, n| {
            let w = Matrix::from_fn(k, n, |_, _| 0.6 * rng.gauss());
            let b = (0..n).map(|_| 0.2 * rng.gauss()).collect();
            let l = Layer { kind, w, b };
            l.check();
            l
        };
        let net = Net {
            layers: vec![
                layer(LayerKind::Plain, 3, 6),
                layer(LayerKind::Growth, 6, 12),
                layer(LayerKind::Residual, 12, 12),
                layer(LayerKind::Linear, 12, 1),
            ],
        };
        let x = Matrix::from_fn(5, 3, |i, j| 0.3 * i as f64 - 0.2 * j as f64);
        let mut inference = NetPass::default();
        net_forward_into(&net, &x, &mut inference, None);
        let mut pair = PairPass::new();
        pair.xs[0] = x;
        pair.xds[0] = Matrix::from_fn(5, 3, |i, j| 0.1 * (i + j) as f64);
        pair.forward(&net, &mut Matrix::default());

        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(pair.output(&net).0), bits(inference.out.as_slice()));
        assert_eq!(pair.c.len(), inference.tgrads.len());
        for (c, t) in pair.c.iter().zip(&inference.tgrads) {
            assert_eq!(bits(c.as_slice()), bits(t.as_slice()));
        }
    }

    #[test]
    fn loss_and_gradient_vanish_on_own_labels() {
        let c = copper();
        let n = c.sys.len();
        let out = evaluate(&c.model, &c.fmt, &c.sys.types, n, None);
        let labels = Labels {
            energy: out.energy,
            forces: &out.forces,
        };
        let (lg, grad, _) = grad_of(&c, labels, LossWeights::default());
        assert!(lg.loss.abs() < 1e-16);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn energy_and_force_terms_add() {
        // ∂L/∂θ is linear in (p_e, p_f): each term alone sums to both
        let c = water();
        let forces = ref_forces(c.sys.len());
        let labels = Labels {
            energy: 2.0,
            forces: &forces,
        };
        let (_, both, _) = grad_of(&c, labels, LossWeights { pe: 1.0, pf: 10.0 });
        let (_, e, _) = grad_of(&c, labels, LossWeights { pe: 1.0, pf: 0.0 });
        let (_, f, _) = grad_of(&c, labels, LossWeights { pe: 0.0, pf: 10.0 });
        let scale = both.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        for ((b, e), f) in both.iter().zip(&e).zip(&f) {
            assert!((b - (e + f)).abs() <= 1e-12 * scale);
        }
    }

    #[test]
    fn dirty_workspace_gives_the_same_bits_and_grad_accumulates() {
        let c = water();
        let forces = ref_forces(c.sys.len());
        let labels = Labels {
            energy: 1.0,
            forces: &forces,
        };
        let weights = LossWeights::default();
        let (_, fresh, _) = grad_of(&c, labels, weights);
        // dirty the workspace with another geometry of the same model
        let mut other = c.sys.clone();
        other.perturb(0.1, &mut CounterRng::new(46));
        let nl = NeighborList::build(&other, c.model.config.rcut);
        let fmt = format_optimized(
            &other,
            &nl,
            &c.model.config,
            c.model.config.codec(other.len()),
        );
        let mut ws = TrainWorkspace::new(&c.model.config);
        let mut scratch = vec![0.0; c.model.num_params()];
        loss_grad_into(
            &c.model,
            &fmt,
            &other.types,
            labels,
            weights,
            &mut ws,
            &mut scratch,
        );

        let mut grad = vec![0.0; c.model.num_params()];
        loss_grad_into(
            &c.model,
            &c.fmt,
            &c.sys.types,
            labels,
            weights,
            &mut ws,
            &mut grad,
        );
        assert!(grad
            .iter()
            .zip(&fresh)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // a second call adds its gradient to the first
        loss_grad_into(
            &c.model,
            &c.fmt,
            &c.sys.types,
            labels,
            weights,
            &mut ws,
            &mut grad,
        );
        let scale = fresh.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        for (g, f) in grad.iter().zip(&fresh) {
            assert!((g - 2.0 * f).abs() <= 1e-14 * scale);
        }
    }
}

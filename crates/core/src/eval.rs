//! Optimized Deep Potential evaluation (§5.2–§5.3).
//!
//! The pipeline mirrors the optimized GPU DeePMD-kit:
//!
//! 1. **Batched embedding**: thanks to the fixed-shape formatted layout,
//!    the `s(r)` inputs of *all* atoms' neighbors of one type form a single
//!    tall column, so each embedding layer is one tall GEMM + one fused
//!    tanh kernel instead of per-atom small ops — the "computational
//!    granularity" innovation of §5.2.1.
//! 2. **Descriptor contraction**: `T1 = Ḡᵀ R̃ / Nm`, `T2 = R̃ᵀ G⁻ / Nm`,
//!    `D = T1 T2`. The fixed-shape layout makes every per-atom problem
//!    identical, so the whole chunk runs as strided batched GEMMs
//!    ([`dp_linalg::batch`], the cuBLAS `gemmStridedBatched` analogue)
//!    instead of per-atom scalar loops; likewise the backward pass.
//! 3. **Batched fitting** per center type, 240-wide residual layers with
//!    fused GEMM+bias and fused tanh+grad.
//! 4. **Backward** through fitting, descriptor and embedding using the
//!    cached tanh gradients (no recomputation, §5.3.3); the embedding
//!    input `s` is `R̃`'s first column, so `∂E/∂s` is added there.
//! 5. **ProdForce / ProdVirial** ([`crate::ops`]): chain `∂E/∂R̃` through
//!    the geometric Jacobian and scatter into per-atom forces and the
//!    virial.
//!
//! The whole pipeline is generic over precision `T`; the mixed-precision
//! mode (§5.2.3) runs it in `f32` on an environment matrix built in `f64`,
//! converting the per-slot force gradients back to `f64` before
//! accumulation — exactly the paper's conversion points.
//!
//! Atoms are processed in chunks ([`chunk_size`]) so peak memory stays
//! bounded at paper-size neighbor counts (the GPU code relies on 16 GB
//! device memory instead). The force call formats each chunk's neighbors
//! right before its embedding stage, so its memory is O(chunk), not
//! O(system); [`evaluate_into`] runs the same chunk loop on views of a
//! table formatted beforehand.
//!
//! [`net_forward_into`] / [`net_backward_into`] are the inference net
//! pass: the pipeline runs every embedding and fitting net through them,
//! and [`crate::compress`] samples its tables with them. Training
//! differentiates the same pipeline in [`crate::train_grad`], on the same
//! kernels. The tabulated model shares the rest of the pipeline and
//! swaps only stage 1 (table lookup of `G` and `dG/ds`) and the embedding
//! backward (`dE/ds` as the row-wise dot product of `dE/dG` with `dG/ds`).

use crate::compress::EmbeddingTable;
use crate::format::FormattedEnv;
use crate::model::DpModel;
use crate::ops::{prod_force_into, prod_virial_into};
use crate::potential_impl::BatchItem;
use crate::profile::{maybe_time, Kernel, Profiler};
use crate::workspace::{reuse_uninit, reuse_zeroed, EvalWorkspace, NetPass};
use dp_linalg::batch::{gemm_batch_nn, gemm_batch_nt, gemm_batch_tn, Acc, Panel};
use dp_linalg::fused::{dup_sum_fused_into, tanh_fused_into};
use dp_linalg::gemm::{gemm_bias_into, matmul_nt_into};
use dp_linalg::{simd, Matrix, Real};
use dp_nn::layer::LayerKind;
use dp_nn::net::Net;

/// Result of one evaluation.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    pub energy: f64,
    pub per_atom_energy: Vec<f64>,
    pub forces: Vec<[f64; 3]>,
    pub virial: [f64; 6],
}

/// Upper bound on atoms per pipeline chunk.
pub const CHUNK: usize = 256;

/// Embedding rows per neighbor type that one chunk aims for.
const CHUNK_ROWS: usize = 4096;

/// Atoms per pipeline chunk: `CHUNK_ROWS` (4 096) embedding rows of the
/// widest neighbor type, between 16 and [`CHUNK`] atoms.
///
/// Every per-chunk buffer — embedding activations and cached tanh
/// gradients, backward scratch, the chunk's formatted rows — scales with
/// this, so it sets the force call's working set: on the paper's water
/// model (`sel` 46/92, 25×50×100 embedding, f64) a 44-atom chunk puts the
/// whole force call at about 48 MB of heap. Peak RSS at 2 048, 4 096 and
/// 8 192 rows, measured with perfbench on a 2-core x86-64 host:
///
/// | rows | `water_paper_f64` | `copper_small_f32` |
/// |---|---|---|
/// | 2 048 | 34.4 MB | 10.5–12.3 MB |
/// | 4 096 | 59.5 MB | 12.6–14.5 MB |
/// | 8 192 | 110.6 MB | 16.7–18.5 MB |
///
/// Step time does not pick a side: in six alternating pairs, 2 048 rows
/// beat 4 096 on water (median 640 vs 736 µs per atom-step) and lost on
/// copper (19.2 vs 15.6 µs). 4 096 is the smallest budget that leaves the
/// training sweep's chunks ([`crate::train_grad`] groups its parameter
/// sums by chunk) where they were: every `sel` ≤ 16 stays at 256 atoms
/// and 81-atom frames at `sel` 24 stay one chunk.
pub fn chunk_size(max_sel: usize) -> usize {
    (CHUNK_ROWS / max_sel.max(1)).clamp(16, CHUNK)
}

/// Network forward pass (Fig 1 (e)–(g) layers) over the rows of `x`,
/// writing into a [`NetPass`] (no allocation in steady state) with the
/// paper's fused kernels — GEMM with fused bias (§5.3.1), CONCAT-free skip
/// (§5.3.2), fused tanh+grad (§5.3.3) — and attributing GEMM and
/// activation time to their Fig 3 categories. The final activation lands
/// in `pass.out`; the cached tanh gradients in `pass.tgrads`.
pub(crate) fn net_forward_into<T: Real>(
    net: &Net<T>,
    x: &Matrix<T>,
    pass: &mut NetPass<T>,
    prof: Option<&Profiler>,
) {
    pass.ensure_layers(net.layers.len());
    let NetPass {
        out,
        tgrads,
        pre,
        act,
        skip,
    } = pass;
    out.copy_from(x);
    for (li, l) in net.layers.iter().enumerate() {
        maybe_time(prof, Kernel::Gemm, || gemm_bias_into(out, &l.w, &l.b, pre));
        match l.kind {
            LayerKind::Linear => {
                tgrads[li].reuse_shape(0, 0);
                std::mem::swap(out, pre);
            }
            LayerKind::Plain => {
                maybe_time(prof, Kernel::Tanh, || {
                    tanh_fused_into(pre, act, &mut tgrads[li])
                });
                std::mem::swap(out, act);
            }
            LayerKind::Growth => {
                maybe_time(prof, Kernel::Tanh, || {
                    tanh_fused_into(pre, act, &mut tgrads[li])
                });
                maybe_time(prof, Kernel::Other, || dup_sum_fused_into(out, act, skip));
                std::mem::swap(out, skip);
            }
            LayerKind::Residual => {
                maybe_time(prof, Kernel::Tanh, || {
                    tanh_fused_into(pre, act, &mut tgrads[li])
                });
                act.axpy(T::ONE, out);
                std::mem::swap(out, act);
            }
        }
    }
}

/// Input gradient `dL/dx` given `dL/dy = dy`, using the tanh gradients
/// cached by [`net_forward_into`] (no tanh is re-evaluated). Parameter
/// gradients are not computed: forces need input gradients only, and
/// training takes them from [`crate::train_grad`]. Same Fig 3 taxonomy.
/// The input gradient lands in `g`; `sa` and `sb` are ping-pong scratch.
pub(crate) fn net_backward_into<T: Real>(
    net: &Net<T>,
    tgrads: &[Matrix<T>],
    dy: &Matrix<T>,
    g: &mut Matrix<T>,
    sa: &mut Matrix<T>,
    sb: &mut Matrix<T>,
    prof: Option<&Profiler>,
) {
    g.copy_from(dy);
    for (l, c) in net.layers.iter().zip(&tgrads[..net.layers.len()]).rev() {
        match l.kind {
            LayerKind::Linear => {
                maybe_time(prof, Kernel::Gemm, || matmul_nt_into(g, &l.w, sa));
                std::mem::swap(g, sa);
            }
            LayerKind::Plain => {
                maybe_time(prof, Kernel::Tanh, || g.hadamard_assign(c));
                maybe_time(prof, Kernel::Gemm, || matmul_nt_into(g, &l.w, sa));
                std::mem::swap(g, sa);
            }
            LayerKind::Residual => {
                maybe_time(prof, Kernel::Tanh, || {
                    sa.copy_from(g);
                    sa.hadamard_assign(c);
                });
                maybe_time(prof, Kernel::Gemm, || matmul_nt_into(sa, &l.w, sb));
                sb.axpy(T::ONE, g);
                std::mem::swap(g, sb);
            }
            LayerKind::Growth => {
                maybe_time(prof, Kernel::Tanh, || {
                    sa.copy_from(g);
                    sa.hadamard_assign(c);
                });
                maybe_time(prof, Kernel::Gemm, || matmul_nt_into(sa, &l.w, sb));
                let k = l.w.rows();
                for i in 0..g.rows() {
                    let g_row = g.row(i);
                    let dx_row = sb.row_mut(i);
                    for j in 0..k {
                        dx_row[j] += g_row[j] + g_row[j + k];
                    }
                }
                std::mem::swap(g, sb);
            }
        }
    }
}

/// Evaluate energy, forces and virial for the formatted environment.
///
/// `types` are the species of the `fmt.n_atoms` local atoms; `n_total`
/// includes ghosts (forces on ghosts are accumulated for the reverse
/// communication pass of the parallel driver).
///
/// Convenience wrapper over [`evaluate_into`] that allocates a fresh
/// workspace and output per call.
pub fn evaluate<T: Real>(
    model: &DpModel<T>,
    fmt: &FormattedEnv,
    types: &[usize],
    n_total: usize,
    prof: Option<&Profiler>,
) -> EvalOutput {
    evaluate_fresh(model, Embedding::Nets, fmt, types, n_total, prof)
}

/// [`evaluate`] into caller-provided workspace and output buffers — the
/// §5.2.2 "trunk of memory" hot path. After a few warm-up calls at a fixed
/// problem size this performs zero heap allocations; results are identical
/// to [`evaluate`] regardless of what the workspace previously held.
///
/// Each chunk reads a view of `fmt`'s rows; the force call
/// ([`crate::DeepPotential`]) runs the same chunk loop but formats each
/// chunk itself, so the two give the same bits.
pub fn evaluate_into<T: Real>(
    model: &DpModel<T>,
    fmt: &FormattedEnv,
    types: &[usize],
    n_total: usize,
    prof: Option<&Profiler>,
    ws: &mut EvalWorkspace<T>,
    out: &mut EvalOutput,
) {
    let src = Source::Table { fmt, types, n_total };
    pipeline(model, Embedding::Nets, src, prof, ws, out);
}

/// The force call's evaluation: `items` are formatted chunk by chunk into
/// `ws`'s chunk-sized table (inside a `span` span, timed as
/// [`Kernel::Custom`]), so no table of the whole system is ever built.
/// Item `k`'s local atoms are rows `Σ_{i<k} n_local_i ..`; its neighbor
/// indices shift by `Σ_{i<k} len_i`. The two agree, as the center atoms'
/// force slots require, for a single item (ghosts allowed) and for any run
/// of standalone items (`n_local == len`).
pub(crate) fn evaluate_items_into<T: Real>(
    model: &DpModel<T>,
    items: &[BatchItem],
    span: &'static str,
    prof: Option<&Profiler>,
    ws: &mut EvalWorkspace<T>,
    out: &mut EvalOutput,
) {
    let src = Source::Items { items, span };
    pipeline(model, Embedding::Nets, src, prof, ws, out);
}

/// How stage 1 produces the embedding matrix `G` of each neighbor type.
#[derive(Clone, Copy)]
pub(crate) enum Embedding<'a, T> {
    /// Run `model.embeddings` (and their backward in stage 6).
    Nets,
    /// Look `G` and `dG/ds` up in one table per neighbor type.
    Tables(&'a [EmbeddingTable<T>]),
}

/// Where the chunk loop takes each chunk's formatted rows from.
enum Source<'a> {
    /// Views of an already formatted table.
    Table {
        fmt: &'a FormattedEnv,
        types: &'a [usize],
        n_total: usize,
    },
    /// Systems formatted one chunk at a time (see [`evaluate_items_into`]).
    Items {
        items: &'a [BatchItem<'a>],
        span: &'static str,
    },
}

/// The pipeline on a fresh workspace and output.
pub(crate) fn evaluate_fresh<T: Real>(
    model: &DpModel<T>,
    embedding: Embedding<T>,
    fmt: &FormattedEnv,
    types: &[usize],
    n_total: usize,
    prof: Option<&Profiler>,
) -> EvalOutput {
    let mut ws = EvalWorkspace::new(&model.config);
    let mut out = EvalOutput {
        energy: 0.0,
        per_atom_energy: Vec::new(),
        forces: Vec::new(),
        virial: [0.0; 6],
    };
    let src = Source::Table { fmt, types, n_total };
    pipeline(model, embedding, src, prof, &mut ws, &mut out);
    out
}

fn pipeline<T: Real>(
    model: &DpModel<T>,
    embedding: Embedding<T>,
    src: Source,
    prof: Option<&Profiler>,
    ws: &mut EvalWorkspace<T>,
    out: &mut EvalOutput,
) {
    let cfg = &model.config;
    let (n_rows, n_total) = match src {
        Source::Table { fmt, types, n_total } => {
            assert_eq!(types.len(), fmt.n_atoms);
            assert_eq!(fmt.sel, cfg.sel, "table formatted for another config");
            (fmt.n_atoms, n_total)
        }
        Source::Items { items, .. } => items
            .iter()
            .fold((0, 0), |(r, n), it| (r + it.sys.n_local, n + it.sys.len())),
    };
    assert!(n_total >= n_rows);
    let n_types = cfg.n_types();
    let m_w = cfg.emb_width();
    let m2 = cfg.axis_neurons;
    let d_in = cfg.descriptor_dim();
    let nm = cfg.nm();
    let inv_nm = T::from_f64(1.0 / nm as f64);

    // Grow per-type slots if the workspace was built for a smaller model.
    while ws.emb_passes.len() < n_types {
        ws.emb_passes.push(NetPass::default());
    }
    while ws.dg_mats.len() < n_types {
        ws.dg_mats.push(Matrix::zeros(0, 0));
    }
    while ws.denv_blocks.len() < n_types {
        ws.denv_blocks.push(Vec::new());
    }
    while ws.envm.len() < n_types {
        ws.envm.push(Vec::new());
    }
    while ws.by_type.len() < n_types {
        ws.by_type.push(Vec::new());
    }

    let EvalWorkspace {
        emb_passes,
        fit_pass,
        bwd_g,
        bwd_a,
        bwd_b,
        s_col,
        fit_x,
        ones,
        dg_mats,
        denv_blocks,
        desc,
        t1,
        t2,
        dt1,
        dt2,
        d_desc,
        denv_t,
        envm,
        by_type,
        slot_grads,
        chunk_env,
        chunk_types,
    } = ws;

    let EvalOutput {
        energy,
        per_atom_energy,
        forces,
        virial,
    } = out;
    reuse_zeroed(per_atom_energy, n_rows, 0.0);
    reuse_zeroed(forces, n_total, [0.0; 3]);
    *virial = [0.0; 6];

    let chunk = chunk_size(cfg.sel.iter().copied().max().unwrap_or(1));
    let mut chunk_start = 0usize;
    while chunk_start < n_rows {
        let chunk_end = (chunk_start + chunk).min(n_rows);
        let nc = chunk_end - chunk_start;

        // ---- 0. this chunk's formatted rows and center types ----
        let (fmt, types) = match src {
            Source::Table { fmt, types, .. } => {
                (fmt.rows(chunk_start..chunk_end), &types[chunk_start..chunk_end])
            }
            Source::Items { items, span } => {
                let _span = dp_obs::span(span);
                maybe_time(prof, Kernel::Custom, || {
                    crate::batch::format_chunk(
                        items,
                        chunk_start..chunk_end,
                        cfg,
                        chunk_env,
                        chunk_types,
                    )
                });
                (chunk_env.rows(0..nc), &chunk_types[..])
            }
        };

        // ---- 1. batched embedding per neighbor type ----
        let emb_span = dp_obs::span("embedding_gemm");
        for t in 0..n_types {
            let rows = nc * cfg.sel[t];
            maybe_time(prof, Kernel::Slice, || {
                // gather the type block once in evaluation precision; it
                // doubles as the R̃ operand of the batched descriptor
                // GEMMs in stages 2 and 5
                reuse_uninit(&mut envm[t], rows * 4, T::ZERO);
                fmt.gather_env_block(t, &mut envm[t]);
                s_col.reuse_shape(rows, 1);
                let data = s_col.as_mut_slice();
                let e = &envm[t];
                for i in 0..rows {
                    data[i] = e[i * 4];
                }
            });
            match embedding {
                Embedding::Nets => {
                    net_forward_into(&model.embeddings[t], s_col, &mut emb_passes[t], prof)
                }
                // the table path has no activations to cache, so the
                // pass's `act` buffer carries dG/ds to stage 6
                Embedding::Tables(tables) => maybe_time(prof, Kernel::Custom, || {
                    let NetPass { out, act, .. } = &mut emb_passes[t];
                    out.reuse_shape(rows, m_w);
                    act.reuse_shape(rows, m_w);
                    for (i, s) in s_col.as_slice().iter().enumerate() {
                        tables[t].eval_into(s.to_f64(), out.row_mut(i), act.row_mut(i));
                    }
                }),
            }
        }
        drop(emb_span);

        // ---- 2. descriptor contraction (batched GEMMs) ----
        // T1 = ḠᵀR̃/Nm, T2 = R̃ᵀG⁻/Nm, D = T1·T2 for the whole chunk at
        // once: the fixed-shape layout makes every per-atom problem
        // identical, so each contraction is one strided batched GEMM per
        // neighbor type. Padded slots have all-zero R̃ rows and
        // contribute exact zeros — no per-slot branching remains.
        let desc_span = dp_obs::span("descriptor");
        reuse_zeroed(t1, nc * m_w * 4, T::ZERO);
        reuse_zeroed(t2, nc * 4 * m2, T::ZERO);
        reuse_uninit(desc, nc * m_w * m2, T::ZERO);
        maybe_time(prof, Kernel::Custom, || {
            for t in 0..n_types {
                let sel_t = cfg.sel[t];
                if sel_t == 0 {
                    continue;
                }
                let g = emb_passes[t].out.as_slice();
                let e = envm[t].as_slice();
                let pg = Panel { ld: m_w, stride: sel_t * m_w };
                let pe = Panel { ld: 4, stride: sel_t * 4 };
                // T1 += Ḡᵀ × R̃ (A stored sel_t×m_w, read with column stride)
                gemm_batch_tn(
                    nc, m_w, sel_t, 4, T::ONE,
                    g, pg,
                    e, pe,
                    t1, Panel { ld: 4, stride: m_w * 4 },
                    Acc::Add,
                );
                // T2 += R̃ᵀ × G⁻ (the m2-column prefix of the m_w-wide G)
                gemm_batch_tn(
                    nc, 4, sel_t, m2, T::ONE,
                    e, pe,
                    g, pg,
                    t2, Panel { ld: m2, stride: 4 * m2 },
                    Acc::Add,
                );
            }
            simd::scale(t1, inv_nm);
            simd::scale(t2, inv_nm);
            // D = T1 (m_w × 4) × T2 (4 × m2) per atom
            gemm_batch_nn(
                nc, m_w, 4, m2, T::ONE,
                t1, Panel { ld: 4, stride: m_w * 4 },
                t2, Panel { ld: m2, stride: 4 * m2 },
                desc, Panel { ld: m2, stride: m_w * m2 },
                Acc::Overwrite,
            );
        });
        drop(desc_span);

        // ---- 3. batched fitting per center type ----
        let fit_span = dp_obs::span("fitting_net");
        // gather chunk atoms by type
        for v in by_type.iter_mut() {
            v.clear();
        }
        for (a, &t) in types.iter().enumerate() {
            by_type[t].push(a);
        }
        // dE/dD per atom (filled from fitting backward; every chunk atom
        // belongs to exactly one center type, so every row is written)
        reuse_uninit(d_desc, nc * d_in, T::ZERO);
        for (t, atoms) in by_type[..n_types].iter().enumerate() {
            if atoms.is_empty() {
                continue;
            }
            let rows = atoms.len();
            maybe_time(prof, Kernel::Slice, || {
                fit_x.reuse_shape(rows, d_in);
                for (r, &a) in atoms.iter().enumerate() {
                    fit_x
                        .row_mut(r)
                        .copy_from_slice(&desc[a * d_in..(a + 1) * d_in]);
                }
            });
            net_forward_into(&model.fittings[t], fit_x, fit_pass, prof);
            for (r, &a) in atoms.iter().enumerate() {
                per_atom_energy[chunk_start + a] = fit_pass.out[(r, 0)].to_f64() + model.e0[t];
            }
            // ---- 4. fitting backward: dE/dD ----
            ones.reuse_shape(rows, 1);
            ones.as_mut_slice().fill(T::ONE);
            net_backward_into(
                &model.fittings[t],
                &fit_pass.tgrads,
                ones,
                bwd_g,
                bwd_a,
                bwd_b,
                prof,
            );
            maybe_time(prof, Kernel::Slice, || {
                for (r, &a) in atoms.iter().enumerate() {
                    d_desc[a * d_in..(a + 1) * d_in].copy_from_slice(bwd_g.row(r));
                }
            });
        }
        drop(fit_span);

        // ---- 5. descriptor backward (batched GEMMs) ----
        let desc_bwd_span = dp_obs::span("descriptor_backward");
        // dT1 = dD×T2ᵀ and dT2 = T1ᵀ×dD depend only on per-atom data, so
        // they are computed ONCE per chunk — the earlier revision
        // recomputed them identically inside every neighbor-type pass.
        reuse_uninit(dt1, nc * m_w * 4, T::ZERO);
        reuse_uninit(dt2, nc * 4 * m2, T::ZERO);
        maybe_time(prof, Kernel::Custom, || {
            let pd = Panel { ld: m2, stride: m_w * m2 };
            let p1 = Panel { ld: 4, stride: m_w * 4 };
            let p2 = Panel { ld: m2, stride: 4 * m2 };
            gemm_batch_nt(
                nc, m_w, m2, 4, T::ONE,
                d_desc, pd,
                t2, p2,
                dt1, p1,
                Acc::Overwrite,
            );
            gemm_batch_tn(
                nc, 4, m_w, m2, T::ONE,
                t1, p1,
                d_desc, pd,
                dt2, p2,
                Acc::Overwrite,
            );
            for t in 0..n_types {
                let sel_t = cfg.sel[t];
                dg_mats[t].reuse_shape(nc * sel_t, m_w);
                reuse_uninit(&mut denv_blocks[t], nc * sel_t * 4, 0.0);
                if sel_t == 0 {
                    continue;
                }
                let e = envm[t].as_slice();
                let g = emb_passes[t].out.as_slice();
                let pe = Panel { ld: 4, stride: sel_t * 4 };
                let pg = Panel { ld: m_w, stride: sel_t * m_w };
                // dG = (R̃ × dT1ᵀ + R̃ × dT2 on the m2 prefix) / Nm.
                // Padded slots have zero R̃ rows, so their dG rows come
                // out zero exactly as the old slot-skipping loop left
                // them.
                gemm_batch_nt(
                    nc, sel_t, 4, m_w, inv_nm,
                    e, pe,
                    dt1, p1,
                    dg_mats[t].as_mut_slice(), pg,
                    Acc::Overwrite,
                );
                gemm_batch_nn(
                    nc, sel_t, 4, m2, inv_nm,
                    e, pe,
                    dt2, p2,
                    dg_mats[t].as_mut_slice(), pg,
                    Acc::Add,
                );
                // dE/dR̃ = (G × dT1 + G⁻ × dT2ᵀ) / Nm, in evaluation
                // precision, then converted once to f64 for ProdForce.
                // Padded slots get nonzero values here (their G rows are
                // not zero) but ProdForce never reads NONE slots.
                reuse_uninit(denv_t, nc * sel_t * 4, T::ZERO);
                gemm_batch_nn(
                    nc, sel_t, m_w, 4, inv_nm,
                    g, pg,
                    dt1, p1,
                    denv_t, pe,
                    Acc::Overwrite,
                );
                gemm_batch_nt(
                    nc, sel_t, m2, 4, inv_nm,
                    g, pg,
                    dt2, p2,
                    denv_t, pe,
                    Acc::Add,
                );
                for (d, &s) in denv_blocks[t].iter_mut().zip(denv_t.iter()) {
                    *d = s.to_f64();
                }
            }
        });
        drop(desc_bwd_span);

        // ---- 6. embedding backward: dE/ds per slot, added to dE/dR̃'s
        // first column (s is that column) ----
        let emb_bwd_span = dp_obs::span("embedding_backward");
        for t in 0..n_types {
            let dedr = denv_blocks[t].chunks_exact_mut(4);
            match embedding {
                Embedding::Nets => {
                    net_backward_into(
                        &model.embeddings[t],
                        &emb_passes[t].tgrads,
                        &dg_mats[t],
                        bwd_g,
                        bwd_a,
                        bwd_b,
                        prof,
                    );
                    maybe_time(prof, Kernel::Custom, || {
                        for (row, ds) in dedr.zip(bwd_g.as_slice()) {
                            row[0] += ds.to_f64();
                        }
                    });
                }
                Embedding::Tables(_) => maybe_time(prof, Kernel::Custom, || {
                    let (dg, dgds) = (&dg_mats[t], &emb_passes[t].act);
                    for (i, row) in dedr.enumerate() {
                        row[0] += simd::dot(dg.row(i), dgds.row(i)).to_f64();
                    }
                }),
            }
        }
        drop(emb_bwd_span);

        // ---- 7/8. ProdForce + ProdVirial (custom ops, f64) ----
        maybe_time(prof, Kernel::Custom, || {
            let force_span = dp_obs::span("prod_force");
            prod_force_into(fmt, &denv_blocks[..n_types], slot_grads);
            drop(force_span);
            let _virial_span = dp_obs::span("prod_virial");
            prod_virial_into(fmt, chunk_start, slot_grads, forces, virial);
        });

        chunk_start = chunk_end;
    }

    *energy = per_atom_energy.iter().sum();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::config::DpConfig;
    use crate::format::format_optimized;
    use dp_md::CounterRng;
    use dp_md::{lattice, units, NeighborList, System};

    fn test_setup() -> (DpModel<f64>, System, FormattedEnv) {
        let cfg = DpConfig::small(1, 4.5, 16);
        let mut rng = CounterRng::new(11);
        let model = DpModel::new_random(cfg.clone(), &mut rng);
        let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        sys.perturb(0.1, &mut rng);
        let nl = NeighborList::build(&sys, cfg.rcut);
        let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        (model, sys, fmt)
    }

    #[test]
    fn energy_is_sum_of_atomic_contributions() {
        let (model, sys, fmt) = test_setup();
        let out = evaluate(&model, &fmt, &sys.types, sys.len(), None);
        let sum: f64 = out.per_atom_energy.iter().sum();
        assert!((out.energy - sum).abs() < 1e-10);
        assert_eq!(out.per_atom_energy.len(), sys.len());
    }

    #[test]
    fn forces_sum_to_zero() {
        // translation invariance => ΣF = 0
        let (model, sys, fmt) = test_setup();
        let out = evaluate(&model, &fmt, &sys.types, sys.len(), None);
        let mut total = [0.0; 3];
        for f in &out.forces {
            for k in 0..3 {
                total[k] += f[k];
            }
        }
        for k in 0..3 {
            assert!(total[k].abs() < 1e-9, "net force {total:?}");
        }
    }

    #[test]
    fn forces_match_finite_difference() {
        let (model, mut sys, _) = test_setup();
        let cfg = &model.config;
        let compute = |sys: &System| {
            let nl = NeighborList::build(sys, cfg.rcut);
            let fmt = format_optimized(sys, &nl, cfg, Codec::PaperDecimal);
            evaluate(&model, &fmt, &sys.types, sys.len(), None)
        };
        let out = compute(&sys);
        let eps = 1e-6;
        for &i in &[0usize, 13, 50] {
            for k in 0..3 {
                let orig = sys.positions[i][k];
                sys.positions[i][k] = orig + eps;
                let ep = compute(&sys).energy;
                sys.positions[i][k] = orig - eps;
                let em = compute(&sys).energy;
                sys.positions[i][k] = orig;
                let fd = -(ep - em) / (2.0 * eps);
                assert!(
                    (fd - out.forces[i][k]).abs() < 1e-6,
                    "atom {i} dim {k}: fd {fd} vs {}",
                    out.forces[i][k]
                );
            }
        }
    }

    #[test]
    fn e0_shifts_energy_linearly() {
        let (mut model, sys, fmt) = test_setup();
        let out0 = evaluate(&model, &fmt, &sys.types, sys.len(), None);
        model.e0[0] += 1.5;
        let out1 = evaluate(&model, &fmt, &sys.types, sys.len(), None);
        let expect = out0.energy + 1.5 * sys.len() as f64;
        assert!((out1.energy - expect).abs() < 1e-9);
        // forces unchanged
        for (a, b) in out0.forces.iter().zip(&out1.forces) {
            for k in 0..3 {
                assert!((a[k] - b[k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn profiled_forward_matches_plain() {
        let (model, sys, fmt) = test_setup();
        let prof = Profiler::new();
        let a = evaluate(&model, &fmt, &sys.types, sys.len(), Some(&prof));
        let b = evaluate(&model, &fmt, &sys.types, sys.len(), None);
        assert!((a.energy - b.energy).abs() < 1e-12);
        assert!(prof.grand_total().as_nanos() > 0);
        let pct = prof.percentages();
        assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    /// The net pass on `x`: output in `.out`, tanh gradients in `.tgrads`.
    fn forward<T: Real>(net: &Net<T>, x: &Matrix<T>) -> NetPass<T> {
        let mut pass = NetPass::default();
        net_forward_into(net, x, &mut pass, None);
        pass
    }

    /// `dL/dx` for `dL/dy = dy` after [`forward`].
    fn backward(net: &Net<f64>, pass: &NetPass<f64>, dy: &Matrix<f64>) -> Matrix<f64> {
        let mut g = Matrix::zeros(0, 0);
        let (mut sa, mut sb) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        net_backward_into(net, &pass.tgrads, dy, &mut g, &mut sa, &mut sb, None);
        g
    }

    fn one_layer(kind: LayerKind, rows: usize, cols: usize) -> Net<f64> {
        let layer = dp_nn::Layer {
            kind,
            w: Matrix::from_fn(rows, cols, |i, j| {
                0.3 * ((i * cols + j) as f64 % 7.0) - 0.9
            }),
            b: (0..cols).map(|j| 0.1 * j as f64 - 0.2).collect(),
        };
        layer.check();
        Net { layers: vec![layer] }
    }

    fn input(rows: usize, cols: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |i, j| 0.2 * ((i + 2 * j) as f64 % 5.0) - 0.4)
    }

    /// Central differences of `f(x) = Σ y²` against the net pass's input
    /// gradient.
    fn check_backward(net: &Net<f64>, x0: &Matrix<f64>) {
        let pass = forward(net, x0);
        let mut dy = pass.out.clone();
        dy.scale(2.0);
        let dx = backward(net, &pass, &dy);
        let f = |x: &Matrix<f64>| {
            let y = forward(net, x).out;
            y.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let eps = 1e-6;
        for idx in 0..x0.len() {
            let mut xp = x0.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!((fd - analytic).abs() < 1e-6, "idx {idx}: fd {fd} analytic {analytic}");
        }
    }

    #[test]
    fn plain_backward_matches_fd() {
        check_backward(&one_layer(LayerKind::Plain, 4, 6), &input(3, 4));
    }

    #[test]
    fn growth_backward_matches_fd() {
        check_backward(&one_layer(LayerKind::Growth, 3, 6), &input(3, 3));
    }

    #[test]
    fn residual_backward_matches_fd() {
        check_backward(&one_layer(LayerKind::Residual, 5, 5), &input(3, 5));
    }

    #[test]
    fn linear_backward_matches_fd() {
        check_backward(&one_layer(LayerKind::Linear, 4, 1), &input(3, 4));
    }

    #[test]
    fn backward_matches_fd_through_whole_net() {
        let mut rng = CounterRng::new(3);
        let net = Net::<f64>::fitting(3, &[6, 6], &mut || rng.gauss());
        let x0 = Matrix::from_fn(2, 3, |i, j| 0.2 * (i as f64) - 0.1 * (j as f64));
        let pass = forward(&net, &x0);
        assert_eq!(pass.out.shape(), (2, 1));
        let dx = backward(&net, &pass, &Matrix::full(2, 1, 1.0));

        let f = |x: &Matrix<f64>| forward(&net, x).out.sum();
        let eps = 1e-6;
        for idx in 0..x0.len() {
            let mut xp = x0.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((fd - dx.as_slice()[idx]).abs() < 1e-7);
        }
    }

    #[test]
    fn growth_output_shape_doubles() {
        let net = one_layer(LayerKind::Growth, 4, 8);
        assert_eq!(forward(&net, &input(2, 4)).out.shape(), (2, 8));
        assert_eq!(net.out_dim(), 8);
    }

    /// Textbook forward of `net` on `x`, one row and one layer at a time.
    fn reference_forward(net: &Net<f64>, x: &Matrix<f64>) -> Matrix<f64> {
        let mut y = x.clone();
        for l in &net.layers {
            let k = l.w.rows();
            y = Matrix::from_fn(y.rows(), l.out_dim(), |r, j| {
                let z = (0..k).map(|i| y[(r, i)] * l.w[(i, j)]).sum::<f64>() + l.b[j];
                match l.kind {
                    LayerKind::Linear => z,
                    LayerKind::Plain => z.tanh(),
                    LayerKind::Residual => y[(r, j)] + z.tanh(),
                    LayerKind::Growth => y[(r, j % k)] + z.tanh(),
                }
            });
        }
        y
    }

    /// The net pass against the textbook forward, and its input gradient
    /// against central differences, through multi-layer nets that hold
    /// all four layer kinds between them.
    #[test]
    fn net_pass_matches_reference_and_fd_over_every_layer_kind() {
        let mut rng = CounterRng::new(11);
        let fitting = Net::<f64>::fitting(5, &[10, 10, 10], &mut || rng.gauss());
        let embedding = Net::<f64>::embedding(&[6, 12, 24], &mut || rng.gauss());
        let kinds = [LayerKind::Plain, LayerKind::Growth, LayerKind::Residual, LayerKind::Linear];
        let nets = [fitting, embedding];
        assert!(kinds
            .iter()
            .all(|k| nets.iter().any(|n| n.layers.iter().any(|l| l.kind == *k))));
        let inputs = [
            Matrix::from_fn(4, 5, |i, j| 0.1 * (i as f64) - 0.07 * (j as f64)),
            Matrix::from_fn(7, 1, |i, _| 0.15 * i as f64 + 0.02),
        ];
        for (net, x) in nets.iter().zip(&inputs) {
            assert!(forward(net, x).out.max_abs_diff(&reference_forward(net, x)) < 1e-12);
            check_backward(net, x);
        }
    }

    #[test]
    fn cast_to_f32_stays_close() {
        let mut rng = CounterRng::new(6);
        let net = Net::<f64>::embedding(&[4, 8], &mut || rng.gauss());
        let x = Matrix::from_fn(6, 1, |i, _| 0.3 * i as f64);
        let y64 = forward(&net, &x).out;
        let y32: Matrix<f64> = forward(&net.cast::<f32>(), &x.cast()).out.cast();
        assert!(y64.max_abs_diff(&y32) < 1e-5);
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    /// The force call formats each chunk inside the chunk loop. That must
    /// give the bits of formatting the whole table first and evaluating
    /// views of it, with and without ghosts, in both precisions; and a
    /// batch of three systems, whose chunks straddle the systems, must
    /// give the bits of each solo call.
    #[test]
    fn per_chunk_formatting_matches_the_whole_table_bit_for_bit() {
        use crate::format::format_optimized_into;
        use crate::potential_impl::{BatchOutput, DeepPotential, PrecisionMode};
        use dp_md::Potential;

        let cfg = DpConfig::small(1, 4.5, 48);
        let chunk = chunk_size(48);
        let mut rng = CounterRng::new(12);
        let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
        let systems: Vec<System> = [[4, 4, 4], [3, 3, 4], [4, 3, 3]]
            .into_iter()
            .map(|reps| {
                let mut s = lattice::fcc(3.615, reps, units::MASS_CU);
                s.perturb(0.05, &mut rng);
                s
            })
            .collect();
        // the last 40 atoms become ghosts: sources, not centers
        let mut ghosted = systems[0].clone();
        ghosted.n_local -= 40;
        assert!(ghosted.n_local > 2 * chunk, "the ghosted system must span three chunks");
        let lists: Vec<NeighborList> =
            systems.iter().map(|s| NeighborList::build(s, cfg.rcut)).collect();
        let ghosted_nl = NeighborList::build(&ghosted, cfg.rcut);

        for mode in [PrecisionMode::Double, PrecisionMode::Mixed] {
            let pot = DeepPotential::new(model.clone(), mode);
            let model32 = model.cast::<f32>();
            for (s, nl) in [(&systems[0], &lists[0]), (&ghosted, &ghosted_nl)] {
                let what = format!("{mode:?}, {} of {} atoms local", s.n_local, s.len());
                let solo = pot.compute(s, nl);
                let mut fmt = FormattedEnv::alloc(0, &cfg);
                format_optimized_into(&mut fmt, s, nl, &cfg, cfg.codec(s.len()));
                let types = &s.types[..s.n_local];
                let whole = match mode {
                    PrecisionMode::Double => evaluate(&model, &fmt, types, s.len(), None),
                    PrecisionMode::Mixed => evaluate(&model32, &fmt, types, s.len(), None),
                };
                assert_bits(&[solo.energy], &[whole.energy], &format!("{what}: energy"));
                assert_bits(
                    solo.forces.as_flattened(),
                    whole.forces.as_flattened(),
                    &format!("{what}: forces"),
                );
                assert_bits(&solo.virial, &whole.virial, &format!("{what}: virial"));
            }

            let items: Vec<BatchItem> = systems
                .iter()
                .zip(&lists)
                .map(|(sys, nl)| BatchItem { sys, nl })
                .collect();
            let mut batch = BatchOutput::new();
            pot.compute_batch_into(&items, mode, &mut batch);
            for (k, (s, nl)) in systems.iter().zip(&lists).enumerate() {
                let what = format!("{mode:?}, batch item {k}");
                let solo = pot.compute(s, nl);
                assert_bits(&[batch.energies[k]], &[solo.energy], &format!("{what}: energy"));
                assert_bits(
                    batch.forces_of(k).as_flattened(),
                    solo.forces.as_flattened(),
                    &format!("{what}: forces"),
                );
            }
        }
    }
}

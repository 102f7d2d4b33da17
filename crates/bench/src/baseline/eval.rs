//! The unoptimized reference pipeline, standing in for the 2018 serial
//! DeePMD-kit that the paper uses as its baseline (§4, §7.1).
//!
//! Everything is done the slow way, on purpose: single-threaded per-atom
//! loops, struct-comparator neighbor sorting, per-atom small GEMMs,
//! materialized slices and concatenations, and fresh allocations for every
//! intermediate. The physics is identical: `tests/baseline.rs` pins it to
//! the shipped `deepmd_core::eval` to machine precision.

use super::format::format_baseline;
use super::linalg::{
    concat_sum_baseline, matmul, matmul_nt, matmul_then_sum, matmul_tn, tanh_forward,
};
use deepmd_core::eval::EvalOutput;
use deepmd_core::format::NONE;
use deepmd_core::{DpModel, LayerKind, Net};
use dp_linalg::Matrix;
use dp_md::{NeighborList, System};

/// Unfused network forward, as the 2018 TensorFlow graph executed it:
/// separate MATMUL and SUM operators, CONCAT materialized for the skip
/// connections, plain TANH with no gradient caching. Returns the output
/// and the pre-activation inputs (`xW+b`) each layer saw, which the
/// backward pass uses to *recompute* tanh (the TANHGrad operator).
fn unfused_forward(net: &Net<f64>, x: &Matrix<f64>) -> (Matrix<f64>, Vec<Matrix<f64>>) {
    let mut pres = Vec::with_capacity(net.layers.len());
    let mut h = x.clone();
    for l in &net.layers {
        let pre = matmul_then_sum(&h, &l.w, &l.b);
        h = match l.kind {
            LayerKind::Linear => pre.clone(),
            LayerKind::Plain => tanh_forward(&pre),
            LayerKind::Growth => {
                let t = tanh_forward(&pre);
                concat_sum_baseline(&h, &t)
            }
            LayerKind::Residual => {
                let mut t = tanh_forward(&pre);
                t.axpy(1.0, &h);
                t
            }
        };
        pres.push(pre);
    }
    (h, pres)
}

/// Unfused backward: recomputes `1 - tanh²(xW+b)` from the stored
/// pre-activations (two TANH evaluations per layer per step, exactly the
/// redundancy the fused kernel of §5.3.3 removes).
fn unfused_backward_input(net: &Net<f64>, pres: &[Matrix<f64>], dy: &Matrix<f64>) -> Matrix<f64> {
    let mut g = dy.clone();
    for (l, pre) in net.layers.iter().zip(pres.iter()).rev() {
        if l.kind == LayerKind::Linear {
            g = matmul_nt(&g, &l.w);
            continue;
        }
        let mut dpre = pre.map(|v| {
            let t = v.tanh();
            1.0 - t * t
        });
        dpre.hadamard_assign(&g);
        let mut dx = matmul_nt(&dpre, &l.w);
        match l.kind {
            LayerKind::Residual => dx.axpy(1.0, &g),
            LayerKind::Growth => {
                let k = l.w.rows();
                for i in 0..g.rows() {
                    let g_row = g.row(i);
                    let dx_row = dx.row_mut(i);
                    for j in 0..k {
                        dx_row[j] += g_row[j] + g_row[j + k];
                    }
                }
            }
            _ => {}
        }
        g = dx;
    }
    g
}

/// Evaluate with the baseline pipeline (always f64): the struct-sort
/// formatter, then per atom the unfused nets on small matrices, then the
/// stored-Jacobian ProdForce and ProdVirial over every slot.
pub fn evaluate_baseline(model: &DpModel<f64>, sys: &System, nl: &NeighborList) -> EvalOutput {
    let base = format_baseline(sys, nl, &model.config);
    let fmt = &base.table;
    let cfg = &model.config;
    let n_types = cfg.n_types();
    let m_w = cfg.emb_width();
    let m2 = cfg.axis_neurons;
    let nm = fmt.nm;
    let inv_nm = 1.0 / nm as f64;

    let mut block_off = vec![0usize; n_types + 1];
    for t in 0..n_types {
        block_off[t + 1] = block_off[t] + cfg.sel[t];
    }

    let mut per_atom_energy = vec![0.0f64; fmt.n_atoms];
    // ∂E/∂R̃ per slot, the embedding-input gradient folded into the first
    let mut gw = vec![[0.0f64; 4]; fmt.n_atoms * nm];

    for atom in 0..fmt.n_atoms {
        // R̃ as an nm x 4 matrix (fresh allocation, as the baseline would)
        let r_tilde = Matrix::from_fn(nm, 4, |s, c| fmt.env[(atom * nm + s) * 4 + c]);

        // per-type embedding on small matrices, then CONCAT into G
        let mut g = Matrix::<f64>::zeros(nm, m_w);
        let mut caches_per_type = Vec::with_capacity(n_types);
        for (t, &sel_t) in cfg.sel.iter().enumerate() {
            let s_col =
                Matrix::from_fn(sel_t, 1, |k, _| fmt.env[(atom * nm + block_off[t] + k) * 4]);
            let (g_t, caches) = unfused_forward(&model.embeddings[t], &s_col);
            for k in 0..sel_t {
                g.row_mut(block_off[t] + k).copy_from_slice(g_t.row(k));
            }
            caches_per_type.push(caches);
        }

        // zero G rows of padded slots so the full-matrix contraction below
        // matches the skip-padded optimized path exactly
        for s in 0..nm {
            if fmt.indices[atom * nm + s] == NONE {
                g.row_mut(s).fill(0.0);
            }
        }

        // T1 = Gᵀ R̃ / nm ; T2 = R̃ᵀ G< / nm ; D = T1 T2
        let mut t1 = matmul_tn(&g, &r_tilde);
        t1.scale(inv_nm);
        let g_lt = Matrix::from_fn(nm, m2, |s, a| g[(s, a)]);
        let mut t2 = matmul_tn(&r_tilde, &g_lt);
        t2.scale(inv_nm);
        let d = matmul(&t1, &t2); // m_w x m2

        // fitting on a single row
        let d_row = Matrix::from_vec(1, m_w * m2, d.as_slice().to_vec());
        let ty = sys.types[atom];
        let (e, fit_caches) = unfused_forward(&model.fittings[ty], &d_row);
        per_atom_energy[atom] = e[(0, 0)] + model.e0[ty];

        // backward: dE/dD
        let ones = Matrix::full(1, 1, 1.0);
        let dd_row = unfused_backward_input(&model.fittings[ty], &fit_caches, &ones);
        let dd = Matrix::from_vec(m_w, m2, dd_row.as_slice().to_vec());

        // dT1 = dD T2ᵀ ; dT2 = T1ᵀ dD
        let dt1 = matmul_nt(&dd, &t2); // m_w x 4
        let dt2 = matmul_tn(&t1, &dd); // 4 x m2

        // dG = R̃ dT1ᵀ / nm (+ G< path), dR̃ = G dT1 / nm + G< dT2ᵀ / nm
        let mut dg = matmul_nt(&r_tilde, &dt1); // nm x m_w
        dg.scale(inv_nm);
        let dg_lt = {
            let mut x = matmul(&r_tilde, &dt2); // nm x m2
            x.scale(inv_nm);
            x
        };
        for s in 0..nm {
            for a in 0..m2 {
                dg[(s, a)] += dg_lt[(s, a)];
            }
        }
        let mut dr = matmul(&g, &dt1); // nm x 4
        dr.scale(inv_nm);
        let dr2 = {
            let mut x = matmul_nt(&g_lt, &dt2); // nm x 4
            x.scale(inv_nm);
            x
        };
        dr.axpy(1.0, &dr2);

        // embedding backward per type: dE/ds
        let mut ds = vec![0.0f64; nm];
        for t in 0..n_types {
            let sel_t = cfg.sel[t];
            let dg_t = Matrix::from_fn(sel_t, m_w, |k, mi| dg[(block_off[t] + k, mi)]);
            let ds_t = unfused_backward_input(&model.embeddings[t], &caches_per_type[t], &dg_t);
            for k in 0..sel_t {
                ds[block_off[t] + k] = ds_t[(k, 0)];
            }
        }

        for s in 0..nm {
            gw[atom * nm + s] = [dr[(s, 0)] + ds[s], dr[(s, 1)], dr[(s, 2)], dr[(s, 3)]];
        }
    }

    EvalOutput {
        energy: per_atom_energy.iter().sum(),
        per_atom_energy,
        forces: super::prod_force(fmt, &base.jacobian, &gw, sys.len()),
        virial: super::prod_virial(fmt, &base.jacobian, &gw),
    }
}

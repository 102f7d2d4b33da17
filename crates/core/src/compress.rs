//! Tabulated (compressed) embedding nets — the paper's future-work
//! direction that became DeePMD-kit's "model compression".
//!
//! The embedding net is a function of one scalar `s(r)`, so after training
//! it can be *tabulated*: sample `G(s)` and `dG/ds` on a uniform grid over
//! the reachable range of `s` and replace the three-layer network with a
//! cubic Hermite interpolation per output channel. This removes the
//! embedding GEMMs and every tanh from the MD hot path at a small,
//! controlled accuracy cost.

use crate::model::DpModel;
use dp_linalg::{Matrix, Real};
use dp_nn::net::Net;

/// Cubic-Hermite table of one embedding net: `m` output channels sampled
/// at `n_knots` uniformly spaced `s` values.
#[derive(Clone)]
pub struct EmbeddingTable<T> {
    pub s_min: f64,
    pub s_max: f64,
    n_knots: usize,
    m: usize,
    /// values[k*m + c] = G_c(s_k)
    values: Vec<T>,
    /// derivs[k*m + c] = dG_c/ds (s_k)
    derivs: Vec<T>,
}

impl<T: Real> EmbeddingTable<T> {
    /// Tabulate a trained embedding net over `[s_min, s_max]`.
    ///
    /// `s_max` should be the largest smoothed weight the model can see —
    /// `s(r)` is monotone decreasing, so that is `s(r_min)` for the
    /// shortest physical pair distance (≈ 1/r_min).
    pub fn build(net: &Net<T>, s_min: f64, s_max: f64, n_knots: usize) -> Self {
        assert!(net.in_dim() == 1, "embedding nets take scalar input");
        assert!(n_knots >= 4 && s_max > s_min);
        let m = net.out_dim();
        let mut values = Vec::with_capacity(n_knots * m);
        let mut derivs = Vec::with_capacity(n_knots * m);
        let h = (s_max - s_min) / (n_knots - 1) as f64;
        for k in 0..n_knots {
            let s = s_min + k as f64 * h;
            let x = Matrix::from_vec(1, 1, vec![T::from_f64(s)]);
            let (g, caches) = net.forward_cached(&x);
            values.extend_from_slice(g.as_slice());
            // dG_c/ds via one backward pass per channel would be m passes;
            // instead use the Jacobian-row trick: backward with unit seeds.
            // For a 1-input net, dG/ds is the full Jacobian column, which
            // we get channel-by-channel (m is small: 16–100).
            for c in 0..m {
                let mut dy = Matrix::zeros(1, m);
                dy[(0, c)] = T::ONE;
                let dx = net.backward_input(&caches, &dy);
                derivs.push(dx[(0, 0)]);
            }
        }
        Self {
            s_min,
            s_max,
            n_knots,
            m,
            values,
            derivs,
        }
    }

    pub fn channels(&self) -> usize {
        self.m
    }

    /// Interpolate `G(s)` and `dG/ds` into the provided row buffers.
    /// Inputs outside the table range are clamped to the end knots.
    pub fn eval_into(&self, s: f64, g_out: &mut [T], dg_out: &mut [T]) {
        debug_assert_eq!(g_out.len(), self.m);
        debug_assert_eq!(dg_out.len(), self.m);
        let h = (self.s_max - self.s_min) / (self.n_knots - 1) as f64;
        let x = ((s - self.s_min) / h).clamp(0.0, (self.n_knots - 1) as f64);
        let k = (x as usize).min(self.n_knots - 2);
        let t = T::from_f64(x - k as f64);
        let hh = T::from_f64(h);

        // Hermite basis
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = T::TWO * t3 - T::from_f64(3.0) * t2 + T::ONE;
        let h10 = t3 - T::TWO * t2 + t;
        let h01 = -T::TWO * t3 + T::from_f64(3.0) * t2;
        let h11 = t3 - t2;
        // derivative basis w.r.t. s (chain rule through t = (s-s_k)/h)
        let six = T::from_f64(6.0);
        let d00 = (six * t2 - six * t) / hh;
        let d10 = T::from_f64(3.0) * t2 - T::from_f64(4.0) * t + T::ONE;
        let d01 = (six * t - six * t2) / hh;
        let d11 = T::from_f64(3.0) * t2 - T::TWO * t;

        let v0 = &self.values[k * self.m..(k + 1) * self.m];
        let v1 = &self.values[(k + 1) * self.m..(k + 2) * self.m];
        let m0 = &self.derivs[k * self.m..(k + 1) * self.m];
        let m1 = &self.derivs[(k + 1) * self.m..(k + 2) * self.m];
        for c in 0..self.m {
            g_out[c] = h00 * v0[c] + h10 * hh * m0[c] + h01 * v1[c] + h11 * hh * m1[c];
            dg_out[c] = d00 * v0[c] + d10 * m0[c] + d01 * v1[c] + d11 * m1[c];
        }
    }
}

/// A model with all embedding nets tabulated.
pub struct CompressedModel<T> {
    pub model: DpModel<T>,
    pub tables: Vec<EmbeddingTable<T>>,
}

impl<T: Real> CompressedModel<T> {
    /// Compress a model for geometries whose shortest pair distance is
    /// `r_min` (sets the table's upper `s` bound to `s(r_min) ≈ 1/r_min`).
    pub fn build(model: DpModel<T>, r_min: f64, n_knots: usize) -> Self {
        let s_max = 1.0 / r_min;
        let tables = model
            .embeddings
            .iter()
            .map(|net| EmbeddingTable::build(net, 0.0, s_max, n_knots))
            .collect();
        Self { model, tables }
    }
}

/// Evaluate energy/forces/virial with tabulated embeddings: no embedding
/// GEMMs, no tanh in the hot path. Fitting nets still run as networks.
pub fn evaluate_compressed(
    cm: &CompressedModel<f64>,
    fmt: &crate::format::FormattedEnv,
    types: &[usize],
    n_total: usize,
) -> crate::eval::EvalOutput {
    use crate::format::NONE;
    let model = &cm.model;
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
    let mut forces = vec![[0.0f64; 3]; n_total];
    let mut virial = [0.0f64; 6];

    // reusable row buffers
    let mut g_rows = vec![0.0f64; nm * m_w];
    let mut dgds_rows = vec![0.0f64; nm * m_w];

    for atom in 0..fmt.n_atoms {
        // table lookups for all real slots
        for t in 0..n_types {
            for k in 0..cfg.sel[t] {
                let within = block_off[t] + k;
                let slot = atom * nm + within;
                if fmt.indices[slot] == NONE {
                    g_rows[within * m_w..(within + 1) * m_w].fill(0.0);
                    dgds_rows[within * m_w..(within + 1) * m_w].fill(0.0);
                    continue;
                }
                let sv = fmt.env[slot * 4];
                let (gr, dgr) = {
                    let (a, b) = (&mut g_rows, &mut dgds_rows);
                    (
                        &mut a[within * m_w..(within + 1) * m_w],
                        &mut b[within * m_w..(within + 1) * m_w],
                    )
                };
                cm.tables[t].eval_into(sv, gr, dgr);
            }
        }

        // descriptor forward (same math as the optimized path)
        let mut t1 = vec![0.0f64; m_w * 4];
        let mut t2 = vec![0.0f64; 4 * m2];
        for within in 0..nm {
            let slot = atom * nm + within;
            if fmt.indices[slot] == NONE {
                continue;
            }
            let w = &fmt.env[slot * 4..slot * 4 + 4];
            let g = &g_rows[within * m_w..(within + 1) * m_w];
            for (mi, &gm) in g.iter().enumerate() {
                for c in 0..4 {
                    t1[mi * 4 + c] += gm * w[c];
                }
            }
            for c in 0..4 {
                for ai in 0..m2 {
                    t2[c * m2 + ai] += w[c] * g[ai];
                }
            }
        }
        for x in &mut t1 {
            *x *= inv_nm;
        }
        for x in &mut t2 {
            *x *= inv_nm;
        }
        let mut d = vec![0.0f64; m_w * m2];
        for mi in 0..m_w {
            for c in 0..4 {
                let v = t1[mi * 4 + c];
                for ai in 0..m2 {
                    d[mi * m2 + ai] += v * t2[c * m2 + ai];
                }
            }
        }

        // fitting net (still a network)
        let ty = types[atom];
        let d_row = Matrix::from_vec(1, m_w * m2, d);
        let (e, caches) = model.fittings[ty].forward_cached(&d_row);
        per_atom_energy[atom] = e[(0, 0)] + model.e0[ty];
        let ones = Matrix::full(1, 1, 1.0);
        let dd_row = model.fittings[ty].backward_input(&caches, &ones);
        let dd = dd_row.as_slice();

        // descriptor backward
        let mut dt1 = vec![0.0f64; m_w * 4];
        let mut dt2 = vec![0.0f64; 4 * m2];
        for mi in 0..m_w {
            for c in 0..4 {
                let mut acc = 0.0;
                for ai in 0..m2 {
                    acc += dd[mi * m2 + ai] * t2[c * m2 + ai];
                }
                dt1[mi * 4 + c] = acc;
            }
        }
        for c in 0..4 {
            for ai in 0..m2 {
                let mut acc = 0.0;
                for mi in 0..m_w {
                    acc += t1[mi * 4 + c] * dd[mi * m2 + ai];
                }
                dt2[c * m2 + ai] = acc;
            }
        }

        // per-slot force/virial with the table derivative closing ds
        for within in 0..nm {
            let slot = atom * nm + within;
            let j = fmt.indices[slot];
            if j == NONE {
                continue;
            }
            let j = j as usize;
            let w = &fmt.env[slot * 4..slot * 4 + 4];
            let g = &g_rows[within * m_w..(within + 1) * m_w];
            let dgds = &dgds_rows[within * m_w..(within + 1) * m_w];
            // dG rows and dE/dR̃
            let mut dr = [0.0f64; 4];
            let mut ds = 0.0f64;
            for (mi, (&gm, &dgm)) in g.iter().zip(dgds).enumerate() {
                let mut dgrow = 0.0;
                for c in 0..4 {
                    dgrow += w[c] * dt1[mi * 4 + c];
                    dr[c] += gm * dt1[mi * 4 + c];
                }
                if mi < m2 {
                    for c in 0..4 {
                        dgrow += w[c] * dt2[c * m2 + mi];
                    }
                }
                ds += dgrow * inv_nm * dgm;
            }
            // T2 path of dE/dR̃: Σ_ai dT2[c][ai] * g[ai]
            for c in 0..4 {
                let mut acc = 0.0;
                for ai in 0..m2 {
                    acc += dt2[c * m2 + ai] * g[ai];
                }
                dr[c] = dr[c] * inv_nm + acc * inv_nm;
            }
            let gw = [dr[0] + ds, dr[1], dr[2], dr[3]];
            let jac = &fmt.denv[slot * 12..slot * 12 + 12];
            let mut grad = [0.0; 3];
            for kk in 0..3 {
                grad[kk] =
                    gw[0] * jac[kk] + gw[1] * jac[3 + kk] + gw[2] * jac[6 + kk] + gw[3] * jac[9 + kk];
            }
            let dvec = &fmt.disp[slot * 3..slot * 3 + 3];
            for kk in 0..3 {
                forces[atom][kk] += grad[kk];
                forces[j][kk] -= grad[kk];
            }
            virial[0] -= dvec[0] * grad[0];
            virial[1] -= dvec[1] * grad[1];
            virial[2] -= dvec[2] * grad[2];
            virial[3] -= dvec[0] * grad[1];
            virial[4] -= dvec[0] * grad[2];
            virial[5] -= dvec[1] * grad[2];
        }
    }

    crate::eval::EvalOutput {
        energy: per_atom_energy.iter().sum(),
        per_atom_energy,
        forces,
        virial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpConfig;
    use dp_md::CounterRng;

    fn net() -> Net<f64> {
        let mut rng = CounterRng::new(5);
        Net::embedding(&[8, 16], &mut || rng.gauss())
    }

    #[test]
    fn table_matches_net_at_knots() {
        let n = net();
        let table = EmbeddingTable::build(&n, 0.0, 1.0, 64);
        let mut g = vec![0.0; 16];
        let mut dg = vec![0.0; 16];
        for &s in &[0.0, 1.0 / 63.0 * 7.0, 1.0] {
            table.eval_into(s, &mut g, &mut dg);
            let exact = n.forward(&Matrix::from_vec(1, 1, vec![s]));
            for c in 0..16 {
                assert!(
                    (g[c] - exact[(0, c)]).abs() < 1e-12,
                    "knot mismatch at s={s} channel {c}"
                );
            }
        }
    }

    #[test]
    fn table_interpolates_between_knots() {
        let n = net();
        let table = EmbeddingTable::build(&n, 0.0, 1.0, 256);
        let mut g = vec![0.0; 16];
        let mut dg = vec![0.0; 16];
        let mut worst = 0.0f64;
        for i in 0..500 {
            let s = i as f64 / 499.0;
            table.eval_into(s, &mut g, &mut dg);
            let exact = n.forward(&Matrix::from_vec(1, 1, vec![s]));
            for c in 0..16 {
                worst = worst.max((g[c] - exact[(0, c)]).abs());
            }
        }
        assert!(worst < 1e-6, "interpolation error {worst}");
    }

    #[test]
    fn table_derivative_matches_fd() {
        let n = net();
        let table = EmbeddingTable::build(&n, 0.0, 1.0, 256);
        let mut g = vec![0.0; 16];
        let mut dg = vec![0.0; 16];
        let mut gp = vec![0.0; 16];
        let mut gm = vec![0.0; 16];
        let mut scratch = vec![0.0; 16];
        for &s in &[0.1, 0.33, 0.57, 0.9] {
            table.eval_into(s, &mut g, &mut dg);
            let h = 1e-6;
            table.eval_into(s + h, &mut gp, &mut scratch);
            table.eval_into(s - h, &mut gm, &mut scratch);
            for c in 0..16 {
                let fd = (gp[c] - gm[c]) / (2.0 * h);
                assert!(
                    (fd - dg[c]).abs() < 1e-5,
                    "s={s} channel {c}: fd {fd} vs {}",
                    dg[c]
                );
            }
        }
    }

    #[test]
    fn out_of_range_clamps() {
        let n = net();
        let table = EmbeddingTable::build(&n, 0.0, 1.0, 32);
        let mut g1 = vec![0.0; 16];
        let mut g2 = vec![0.0; 16];
        let mut dg = vec![0.0; 16];
        table.eval_into(1.0, &mut g1, &mut dg);
        table.eval_into(5.0, &mut g2, &mut dg);
        assert_eq!(g1, g2);
    }

    #[test]
    fn compressed_eval_matches_exact_eval() {
        use crate::codec::Codec;
        use crate::eval::evaluate;
        use crate::format::format_optimized;
        use dp_md::{lattice, units, NeighborList};

        let cfg = DpConfig::small(1, 4.5, 16);
        let mut rng = CounterRng::new(9);
        let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
        let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        sys.perturb(0.1, &mut rng);
        let nl = NeighborList::build(&sys, cfg.rcut);
        let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);

        let exact = evaluate(&model, &fmt, &sys.types, sys.len(), None);
        let cm = CompressedModel::build(model, 1.0, 1024);
        let fast = evaluate_compressed(&cm, &fmt, &sys.types, sys.len());

        let e_dev = (exact.energy - fast.energy).abs() / sys.len() as f64;
        assert!(e_dev < 1e-6, "energy {} vs {}", exact.energy, fast.energy);
        let mut worst = 0.0f64;
        for (a, b) in exact.forces.iter().zip(&fast.forces) {
            for k in 0..3 {
                worst = worst.max((a[k] - b[k]).abs());
            }
        }
        assert!(worst < 1e-4, "force deviation {worst}");
    }

    #[test]
    fn compressed_error_shrinks_with_knots() {
        use crate::codec::Codec;
        use crate::eval::evaluate;
        use crate::format::format_optimized;
        use dp_md::{lattice, units, NeighborList};

        let cfg = DpConfig::small(1, 4.5, 16);
        let mut rng = CounterRng::new(10);
        let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
        let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        sys.perturb(0.1, &mut rng);
        let nl = NeighborList::build(&sys, cfg.rcut);
        let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        let exact = evaluate(&model, &fmt, &sys.types, sys.len(), None).energy;

        let err_of = |knots: usize| {
            let cm = CompressedModel::build(model.clone(), 1.0, knots);
            (evaluate_compressed(&cm, &fmt, &sys.types, sys.len()).energy - exact).abs()
        };
        let coarse = err_of(32);
        let fine = err_of(512);
        assert!(
            fine < coarse || fine < 1e-12,
            "refinement did not help: {coarse} -> {fine}"
        );
    }

    #[test]
    fn compressed_model_builds_per_type() {
        let mut rng = CounterRng::new(6);
        let model = DpModel::<f64>::new_random(DpConfig::small(2, 5.0, 12), &mut rng);
        let c = CompressedModel::build(model, 0.8, 64);
        assert_eq!(c.tables.len(), 2);
        assert_eq!(c.tables[0].channels(), 16);
    }
}

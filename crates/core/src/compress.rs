//! Tabulated (compressed) embedding nets — the paper's future-work
//! direction that became DeePMD-kit's "model compression".
//!
//! The embedding net is a function of one scalar `s(r)`, so after training
//! it can be *tabulated*: sample `G(s)` and `dG/ds` on a uniform grid over
//! the reachable range of `s` and replace the three-layer network with a
//! cubic Hermite interpolation per output channel. This removes the
//! embedding GEMMs and every tanh from the MD hot path at a small,
//! controlled accuracy cost.
//!
//! Tables are sampled with `core::eval`'s net pass, and
//! [`evaluate_compressed`] is `core::eval`'s pipeline with the lookup in
//! place of the embedding nets.

use crate::eval::{evaluate_fresh, net_backward_into, net_forward_into, Embedding, EvalOutput};
use crate::format::FormattedEnv;
use crate::model::{DpModel, Net};
use crate::workspace::NetPass;
use dp_linalg::{Matrix, Real};

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
        let h = (s_max - s_min) / (n_knots - 1) as f64;
        let knots = Matrix::from_fn(n_knots, 1, |k, _| T::from_f64(s_min + k as f64 * h));
        let mut pass = NetPass::default();
        net_forward_into(net, &knots, &mut pass, None);
        // For a 1-input net dG_c/ds is channel c's Jacobian column: one
        // backward pass per channel, seeded with that channel's unit
        // vector at every knot (m is small: 16–100).
        let mut derivs = vec![T::ZERO; n_knots * m];
        let mut seed = Matrix::zeros(n_knots, m);
        let mut ds = Matrix::zeros(0, 0);
        let (mut sa, mut sb) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for c in 0..m {
            seed.fill_zero();
            for k in 0..n_knots {
                seed[(k, c)] = T::ONE;
            }
            net_backward_into(net, &pass.tgrads, &seed, &mut ds, &mut sa, &mut sb, None);
            for k in 0..n_knots {
                derivs[k * m + c] = ds[(k, 0)];
            }
        }
        Self {
            s_min,
            s_max,
            n_knots,
            m,
            values: pass.out.into_vec(),
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
/// GEMMs, no tanh in the embedding stage. Fitting nets still run as
/// networks; every other stage is [`crate::eval::evaluate`]'s.
pub fn evaluate_compressed<T: Real>(
    cm: &CompressedModel<T>,
    fmt: &FormattedEnv,
    types: &[usize],
    n_total: usize,
) -> EvalOutput {
    let tables = Embedding::Tables(&cm.tables);
    evaluate_fresh(&cm.model, tables, fmt, types, n_total, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpConfig;
    use dp_md::CounterRng;

    fn net() -> Net<f64> {
        let mut rng = CounterRng::new(5);
        Net::embedding(&[8, 16], &mut rng)
    }

    /// `G(s)` by the core net pass.
    fn exact(n: &Net<f64>, s: f64) -> Vec<f64> {
        let mut pass = NetPass::default();
        net_forward_into(n, &Matrix::from_vec(1, 1, vec![s]), &mut pass, None);
        pass.out.into_vec()
    }

    #[test]
    fn table_matches_net_at_knots() {
        let n = net();
        let table = EmbeddingTable::build(&n, 0.0, 1.0, 64);
        let mut g = vec![0.0; 16];
        let mut dg = vec![0.0; 16];
        for &s in &[0.0, 1.0 / 63.0 * 7.0, 1.0] {
            table.eval_into(s, &mut g, &mut dg);
            let exact = exact(&n, s);
            for c in 0..16 {
                assert!(
                    (g[c] - exact[c]).abs() < 1e-12,
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
            let exact = exact(&n, s);
            for c in 0..16 {
                worst = worst.max((g[c] - exact[c]).abs());
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
    fn compressed_two_type_eval_matches_exact_in_both_precisions() {
        use crate::codec::Codec;
        use crate::eval::evaluate;
        use crate::format::format_optimized;
        use dp_md::{lattice, NeighborList};

        // water: two neighbor-type blocks, padded slots in both, and O–H
        // pairs under 1 Å (the tables reach s = 1/0.5)
        let cfg = DpConfig::small(2, 4.5, 24);
        let mut rng = CounterRng::new(8);
        let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);
        let mut sys = lattice::water_box([3, 3, 3], 3.104);
        sys.perturb(0.05, &mut rng);
        let nl = NeighborList::build(&sys, cfg.rcut);
        let fmt = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        let exact = evaluate(&model, &fmt, &sys.types, sys.len(), None);

        let worst_force = |out: &EvalOutput| {
            let ours = out.forces.iter().flatten();
            let pairs = exact.forces.iter().flatten().zip(ours);
            pairs.map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
        };
        let f64_tables = CompressedModel::build(model.clone(), 0.5, 2048);
        let f32_tables = CompressedModel::build(model.cast::<f32>(), 0.5, 2048);
        let n = sys.len();
        for (out, tol) in [
            (evaluate_compressed(&f64_tables, &fmt, &sys.types, n), 1e-8),
            (evaluate_compressed(&f32_tables, &fmt, &sys.types, n), 1e-4),
        ] {
            let e_dev = (exact.energy - out.energy).abs() / n as f64;
            assert!(e_dev < tol, "energy {} vs {}", exact.energy, out.energy);
            let f_dev = worst_force(&out);
            assert!(f_dev < tol, "force deviation {f_dev}");
        }
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

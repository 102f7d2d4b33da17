//! The customized operators of the paper's Table 3 (§5.2.2), one shipped
//! copy each. The force call ([`crate::eval`]), the training gradient
//! ([`crate::train_grad`]) and the `table3` harness all call these.
//!
//! * **Environment**: [`format_optimized_into`] builds the sorted, padded
//!   rows of `R̃`, their Jacobians `∂R̃/∂d` and the displacements `d`.
//! * **ProdForce**: [`prod_force_into`] contracts each slot's `∂E/∂R̃`
//!   with its Jacobian into the slot gradient `g = (∂R̃/∂d)ᵀ·∂E/∂R̃`.
//! * **ProdVirial**: [`prod_virial_into`] scatters each `g` onto the slot's
//!   center (`+g`) and neighbor (`−g`) and adds `−d ⊗ g` to the virial.
//! * [`env_tangent_into`] is ProdForce's transpose, `Ṙ = (∂R̃/∂d)·ḋ`,
//!   the tangent the training gradient carries.
//!
//! Each works over one chunk's rows of a table (an [`EnvRows`] view) into
//! buffers the caller owns, and allocates nothing once those have grown.
//! `∂E/∂R̃` and `Ṙ` come in per-neighbor-type blocks laid out like
//! [`EnvRows::gather_env_block`]: block `t` holds `n_atoms·sel[t]` rows of
//! 4, row `a·sel[t] + k` for slot `k` of row `a`'s type-`t` block.
//! Padded slots read nothing and produce zeros.

pub use crate::format::format_optimized_into;
use crate::format::{EnvRows, NONE};
use crate::workspace::reuse_uninit;
use dp_obs::par;

/// ProdForce: `slot_grads[s] = Σ_m dedr[s][m]·∂R̃_m/∂d` for every slot `s`
/// of `rows`, slot-major (`rows.n_atoms·nm` entries).
pub fn prod_force_into(rows: EnvRows, dedr: &[Vec<f64>], slot_grads: &mut Vec<[f64; 3]>) {
    let nm = rows.nm;
    assert_eq!(dedr.len(), rows.sel.len(), "one block per neighbor type");
    reuse_uninit(slot_grads, rows.n_atoms * nm, [0.0; 3]);
    par::chunks_mut(slot_grads, nm, |a, sg| {
        // the atom's slots, one type block after another
        let mut block = 0;
        for (&sel_t, dedr_t) in rows.sel.iter().zip(dedr) {
            let gws = dedr_t[a * sel_t * 4..(a + 1) * sel_t * 4].chunks_exact(4);
            for (k, (out_g, gw)) in sg[block..block + sel_t].iter_mut().zip(gws).enumerate() {
                let slot = a * nm + block + k;
                if rows.indices[slot] == NONE {
                    *out_g = [0.0; 3];
                    continue;
                }
                let jac = &rows.denv[slot * 12..slot * 12 + 12];
                let mut g = [0.0; 3];
                for kk in 0..3 {
                    g[kk] = gw[0] * jac[kk]
                        + gw[1] * jac[3 + kk]
                        + gw[2] * jac[6 + kk]
                        + gw[3] * jac[9 + kk];
                }
                *out_g = g;
            }
            block += sel_t;
        }
    });
}

/// ProdVirial, fused with the force scatter: each real slot's gradient is
/// added to the force on its center atom (`atom0 + row`) and subtracted
/// from its neighbor's, and `−d ⊗ g` (xx, yy, zz, xy, xz, yz) is added to
/// `virial`, in slot order.
pub fn prod_virial_into(
    rows: EnvRows,
    atom0: usize,
    slot_grads: &[[f64; 3]],
    forces: &mut [[f64; 3]],
    virial: &mut [f64; 6],
) {
    assert_eq!(slot_grads.len(), rows.indices.len());
    for (slot, g) in slot_grads.iter().enumerate() {
        let j = rows.indices[slot];
        if j == NONE {
            continue;
        }
        let atom = atom0 + slot / rows.nm;
        let j = j as usize;
        let d = &rows.disp[slot * 3..slot * 3 + 3];
        for kk in 0..3 {
            forces[atom][kk] += g[kk];
            forces[j][kk] -= g[kk];
        }
        virial[0] -= d[0] * g[0];
        virial[1] -= d[1] * g[1];
        virial[2] -= d[2] * g[2];
        virial[3] -= d[0] * g[1];
        virial[4] -= d[0] * g[2];
        virial[5] -= d[1] * g[2];
    }
}

/// ProdForce transposed: `out[t]` gets `Ṙ = (∂R̃/∂d)·(w_j − w_i)` for every
/// type-`t` slot of `rows`, where `i = atom0 + row` is the center and `j`
/// the neighbor, so `⟨Ṙ, dedr⟩ = −⟨w, forces⟩` for the forces
/// [`prod_force_into`] and [`prod_virial_into`] make of `dedr`.
pub fn env_tangent_into(rows: EnvRows, atom0: usize, w: &[[f64; 3]], out: &mut [Vec<f64>]) {
    let mut before = 0;
    for (&sel_t, out_t) in rows.sel.iter().zip(out) {
        reuse_uninit(out_t, rows.n_atoms * sel_t * 4, 0.0);
        for a in 0..rows.n_atoms {
            let out_a = &mut out_t[a * sel_t * 4..(a + 1) * sel_t * 4];
            let wi = w[atom0 + a];
            for (k, dst) in out_a.chunks_exact_mut(4).enumerate() {
                let slot = a * rows.nm + before + k;
                let j = rows.indices[slot];
                if j == NONE {
                    dst.fill(0.0);
                    continue;
                }
                let wj = w[j as usize];
                let dd = [wj[0] - wi[0], wj[1] - wi[1], wj[2] - wi[2]];
                let jac = &rows.denv[slot * 12..slot * 12 + 12];
                for (m, r) in dst.iter_mut().enumerate() {
                    *r = jac[m * 3] * dd[0] + jac[m * 3 + 1] * dd[1] + jac[m * 3 + 2] * dd[2];
                }
            }
        }
        before += sel_t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpConfig;
    use crate::format::{format_optimized, FormattedEnv};
    use dp_md::{lattice, CounterRng, NeighborList, System};

    /// Two species, the last atoms ghosts, and a cutoff short enough that
    /// most slots of both types are padding.
    fn water() -> (System, FormattedEnv) {
        let cfg = DpConfig {
            rcut: 3.0,
            rcut_smth: 0.8,
            sel: vec![10, 20],
            embedding: vec![4, 8],
            fitting: vec![12, 12],
            axis_neurons: 2,
        };
        let mut sys = lattice::water_box([3, 3, 2], 3.104);
        sys.perturb(0.15, &mut CounterRng::new(5));
        sys.n_local -= 12;
        let nl = NeighborList::build(&sys, cfg.rcut);
        let fmt = format_optimized(&sys, &nl, &cfg, cfg.codec(sys.len()));
        let slots = fmt.n_atoms * fmt.nm;
        assert!(fmt.real_neighbors() < slots * 3 / 4, "table has no padding");
        let ghost = |&j: &i32| j != NONE && j as usize >= sys.n_local;
        assert!(fmt.indices.iter().any(ghost), "no ghost is a neighbor");
        (sys, fmt)
    }

    /// Random `∂E/∂R̃` per type block, padded slots included.
    fn dedr(fmt: &FormattedEnv, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = CounterRng::new(seed);
        fmt.sel
            .iter()
            .map(|&s| {
                (0..fmt.n_atoms * s * 4)
                    .map(|_| rng.range(-1.0, 1.0))
                    .collect()
            })
            .collect()
    }

    /// ProdForce and ProdVirial as one naive serial loop over the slots.
    fn naive(fmt: &FormattedEnv, dedr: &[Vec<f64>], n_total: usize) -> (Vec<[f64; 3]>, [f64; 6]) {
        let mut forces = vec![[0.0; 3]; n_total];
        let mut virial = [0.0; 6];
        for atom in 0..fmt.n_atoms {
            for (t, &sel_t) in fmt.sel.iter().enumerate() {
                for k in 0..sel_t {
                    let slot = fmt.block_start(atom, t) + k;
                    let j = fmt.indices[slot];
                    if j == NONE {
                        continue;
                    }
                    let gw = &dedr[t][(atom * sel_t + k) * 4..][..4];
                    let jac = &fmt.denv[slot * 12..slot * 12 + 12];
                    let d = &fmt.disp[slot * 3..slot * 3 + 3];
                    let mut g = [0.0; 3];
                    for kk in 0..3 {
                        g[kk] = gw[0] * jac[kk]
                            + gw[1] * jac[3 + kk]
                            + gw[2] * jac[6 + kk]
                            + gw[3] * jac[9 + kk];
                        forces[atom][kk] += g[kk];
                        forces[j as usize][kk] -= g[kk];
                    }
                    virial[0] -= d[0] * g[0];
                    virial[1] -= d[1] * g[1];
                    virial[2] -= d[2] * g[2];
                    virial[3] -= d[0] * g[1];
                    virial[4] -= d[0] * g[2];
                    virial[5] -= d[1] * g[2];
                }
            }
        }
        (forces, virial)
    }

    /// The rows of `fmt` in chunks starting at `starts`, with each chunk's
    /// slice of the type blocks.
    fn chunks<'a>(
        fmt: &'a FormattedEnv,
        dedr: &[Vec<f64>],
        starts: &[usize],
    ) -> Vec<(usize, EnvRows<'a>, Vec<Vec<f64>>)> {
        let mut bounds = starts.to_vec();
        bounds.push(fmt.n_atoms);
        bounds
            .windows(2)
            .map(|w| {
                let blocks = fmt
                    .sel
                    .iter()
                    .zip(dedr)
                    .map(|(&s, d)| d[w[0] * s * 4..w[1] * s * 4].to_vec())
                    .collect();
                (w[0], fmt.rows(w[0]..w[1]), blocks)
            })
            .collect()
    }

    #[test]
    fn prod_force_and_virial_match_the_naive_loop_bit_for_bit() {
        let (sys, fmt) = water();
        let dedr = dedr(&fmt, 7);
        let (forces_ref, virial_ref) = naive(&fmt, &dedr, sys.len());
        // the whole table at once, and in uneven chunks
        for starts in [vec![0], vec![0, 5, 17]] {
            let mut forces = vec![[0.0; 3]; sys.len()];
            let mut virial = [0.0; 6];
            let mut slot_grads = vec![[f64::NAN; 3]; 3];
            for (atom0, rows, blocks) in chunks(&fmt, &dedr, &starts) {
                prod_force_into(rows, &blocks, &mut slot_grads);
                prod_virial_into(rows, atom0, &slot_grads, &mut forces, &mut virial);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(forces.as_flattened()),
                bits(forces_ref.as_flattened()),
                "{starts:?}"
            );
            assert_eq!(bits(&virial), bits(&virial_ref), "{starts:?}");
        }
    }

    #[test]
    fn env_tangent_is_prod_force_transposed() {
        let (sys, fmt) = water();
        let dedr = dedr(&fmt, 8);
        let mut rng = CounterRng::new(9);
        let w: Vec<[f64; 3]> = (0..sys.len())
            .map(|_| {
                [
                    rng.range(-1.0, 1.0),
                    rng.range(-1.0, 1.0),
                    rng.range(-1.0, 1.0),
                ]
            })
            .collect();
        let (mut lhs, mut rhs) = (0.0, 0.0);
        let mut tangent = vec![Vec::new(); fmt.sel.len()];
        let mut slot_grads = Vec::new();
        let mut forces = vec![[0.0; 3]; sys.len()];
        let mut virial = [0.0; 6];
        for (atom0, rows, blocks) in chunks(&fmt, &dedr, &[0, 9]) {
            env_tangent_into(rows, atom0, &w, &mut tangent);
            for (td, gw) in tangent.iter().zip(&blocks) {
                assert_eq!(td.len(), gw.len());
                lhs += td.iter().zip(gw).map(|(a, b)| a * b).sum::<f64>();
            }
            prod_force_into(rows, &blocks, &mut slot_grads);
            prod_virial_into(rows, atom0, &slot_grads, &mut forces, &mut virial);
        }
        for (wi, f) in w.iter().zip(&forces) {
            rhs += wi[0] * f[0] + wi[1] * f[1] + wi[2] * f[2];
        }
        assert!(lhs.abs() > 1e-3, "degenerate pairing {lhs}");
        assert!(
            (lhs + rhs).abs() <= 1e-12 * lhs.abs(),
            "⟨Ṙ, gw⟩ = {lhs}, ⟨w, F⟩ = {rhs}"
        );
    }
}

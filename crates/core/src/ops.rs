//! The customized operators of the paper's Table 3 (§5.2.2), one shipped
//! copy each. The force call ([`crate::eval`]), the training gradient
//! ([`crate::train_grad`]) and the `table3` harness all call these.
//!
//! * **Environment**: [`format_optimized_into`] builds the sorted, padded
//!   rows `R̃ = (s, s·d/r)`, the displacements `d` and, per slot, the pair
//!   `(1/r, s′)` that with `s` and `d` makes the Jacobian `∂R̃/∂d`.
//! * **ProdForce**: [`prod_force_into`] contracts each slot's `∂E/∂R̃`
//!   with its Jacobian into the slot gradient `g = (∂R̃/∂d)ᵀ·∂E/∂R̃`.
//! * **ProdVirial**: [`prod_virial_into`] scatters each `g` onto the slot's
//!   center (`+g`) and neighbor (`−g`) and adds `−d ⊗ g` to the virial.
//! * [`env_tangent_into`] is ProdForce's transpose, `Ṙ = (∂R̃/∂d)·ḋ`,
//!   the tangent the training gradient carries.
//!
//! The Jacobian is never stored. With `u = d/r`, `β = s/r` and a slot's
//! `a = (a₀, a_v) = ∂E/∂R̃`, ProdForce is `g = α·u + β·a_v`,
//! `α = a₀·s′ + (s′ − β)·(a_v·u)`, and the tangent of a move `δ` is
//! `ẇ₀ = s′·(u·δ)`, `ẇ_v = s′·(u·δ)·u + β·(δ − (u·δ)·u)`.
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

/// `(u, β, s′)` of slot `slot`: the unit vector `d/r`, `s/r` and `ds/dr`.
#[inline]
fn slot_frame(rows: &EnvRows, slot: usize) -> ([f64; 3], f64, f64) {
    let (inv_r, ds) = (rows.radial[2 * slot], rows.radial[2 * slot + 1]);
    let d = &rows.disp[3 * slot..3 * slot + 3];
    let u = [d[0] * inv_r, d[1] * inv_r, d[2] * inv_r];
    (u, rows.env[4 * slot] * inv_r, ds)
}

/// ProdForce: `slot_grads[s] = Σ_m dedr[s][m]·∂R̃_m/∂d` for every slot `s`
/// of `rows`, slot-major (`rows.n_atoms·nm` entries), in closed form.
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
                let (u, beta, ds) = slot_frame(&rows, slot);
                let au = gw[1] * u[0] + gw[2] * u[1] + gw[3] * u[2];
                let alpha = gw[0] * ds + (ds - beta) * au;
                *out_g = [
                    alpha * u[0] + beta * gw[1],
                    alpha * u[1] + beta * gw[2],
                    alpha * u[2] + beta * gw[3],
                ];
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
                let (u, beta, ds) = slot_frame(&rows, slot);
                let ud = u[0] * dd[0] + u[1] * dd[1] + u[2] * dd[2];
                let w0 = ds * ud;
                let v = |k: usize| w0 * u[k] + beta * (dd[k] - ud * u[k]);
                dst.copy_from_slice(&[w0, v(0), v(1), v(2)]);
            }
        }
        before += sel_t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::config::DpConfig;
    use crate::format::{format_optimized, FormattedEnv};
    use dp_linalg::simd::env::smooth_weight;
    use dp_md::rng::for_cases;
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

    /// ProdForce (in closed form) and ProdVirial as one naive serial loop
    /// over the slots.
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
                    let d = &fmt.disp[slot * 3..slot * 3 + 3];
                    let inv_r = fmt.radial[slot * 2];
                    let (beta, ds) = (fmt.env[slot * 4] * inv_r, fmt.radial[slot * 2 + 1]);
                    let u = [d[0] * inv_r, d[1] * inv_r, d[2] * inv_r];
                    let alpha =
                        gw[0] * ds + (ds - beta) * (gw[1] * u[0] + gw[2] * u[1] + gw[3] * u[2]);
                    let mut g = [0.0; 3];
                    for kk in 0..3 {
                        g[kk] = alpha * u[kk] + beta * gw[kk + 1];
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

    /// One pin-suite input: a perturbed two-species water box whose last
    /// atoms are ghosts, with two ghost probes around atom 0 placed within
    /// 1e-6 Å of `rcut_smth` and of `rcut`, and `sel` wide enough that at
    /// least a quarter of the slots are padding.
    struct Pin {
        sys: System,
        cfg: DpConfig,
        codec: Codec,
        split: usize,
    }

    impl std::fmt::Debug for Pin {
        fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
            let (n, n_local) = (self.sys.len(), self.sys.n_local);
            write!(
                f,
                "{n} atoms ({n_local} local), {:?}, {:?}, split at {}",
                self.cfg, self.codec, self.split
            )
        }
    }

    fn draw_pin(rng: &mut CounterRng) -> Pin {
        let rcut = rng.range(3.0, 4.5);
        let cfg = DpConfig {
            rcut,
            rcut_smth: rng.range(0.5, 0.6 * rcut),
            sel: vec![24, 48],
            embedding: vec![4, 8],
            fitting: vec![12, 12],
            axis_neurons: 2,
        };
        let mut sys = lattice::water_box([3, 3, 3], 3.104);
        sys.perturb(rng.range(0.05, 0.3), rng);
        sys.n_local -= 3 * (1 + rng.below(4) as usize);
        for r in [
            cfg.rcut_smth + rng.range(-1e-6, 1e-6),
            cfg.rcut - rng.range(1e-9, 1e-6),
        ] {
            let u = [(); 3].map(|_| rng.range(-1.0, 1.0));
            let n = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt();
            let p0 = sys.positions[0];
            let p = [0, 1, 2].map(|k| p0[k] + r * u[k] / n);
            sys.positions.push(sys.cell.wrap(p));
            sys.types.push(rng.below(2) as usize);
            sys.velocities.push([0.0; 3]);
            sys.forces.push([0.0; 3]);
        }
        let codec = [Codec::PaperDecimal, Codec::Binary][rng.below(2) as usize];
        let split = 1 + rng.below(sys.n_local as u64 - 1) as usize;
        Pin {
            sys,
            cfg,
            codec,
            split,
        }
    }

    /// The 12-value Jacobian `∂row_m/∂d_k` of the row at displacement
    /// `d`, distance `r`, with `s(r)` and `s′`: `∂s/∂d_k = s′·u_k` and
    /// `∂(s·u_m)/∂d_k = s′·u_k·u_m + s·(δ_mk − u_m·u_k)/r`, `u = d/r`.
    /// The pin's own copy, independent of the closed form under test.
    fn env_row_jacobian(d: [f64; 3], r: f64, s: f64, ds: f64) -> [[f64; 3]; 4] {
        let inv_r = 1.0 / r;
        let u = d.map(|x| x * inv_r);
        let delta = |m: usize, k: usize| if m == k { 1.0 } else { 0.0 };
        let row = |m: usize| {
            [0, 1, 2].map(|k| ds * u[k] * u[m] + s * (delta(m, k) - u[m] * u[k]) * inv_r)
        };
        [u.map(|uk| ds * uk), row(0), row(1), row(2)]
    }

    /// `(r, Jacobian)` of a real slot: `r` from the displacement as the
    /// gather computes it, then the 12-value `∂row/∂d`.
    fn slot_jacobian(fmt: &FormattedEnv, cfg: &DpConfig, slot: usize) -> (f64, [[f64; 3]; 4]) {
        let d: [f64; 3] = fmt.disp[slot * 3..slot * 3 + 3].try_into().unwrap();
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        let (s, ds) = smooth_weight(r, cfg.rcut_smth, cfg.rcut);
        (r, env_row_jacobian(d, r, s, ds))
    }

    /// The slot gradient as the 12-value contraction `Σ_m a_m·∂row_m/∂d`.
    fn slot_grad(fmt: &FormattedEnv, cfg: &DpConfig, slot: usize, a: &[f64]) -> [f64; 3] {
        let jac = slot_jacobian(fmt, cfg, slot).1;
        [0, 1, 2].map(|k| (0..4).map(|m| a[m] * jac[m][k]).sum())
    }

    /// The tangent of a slot moved by `δ` as `(∂row/∂d)·δ`.
    fn slot_tangent(fmt: &FormattedEnv, cfg: &DpConfig, slot: usize, dd: [f64; 3]) -> [f64; 4] {
        let jac = slot_jacobian(fmt, cfg, slot).1;
        jac.map(|row| row[0] * dd[0] + row[1] * dd[1] + row[2] * dd[2])
    }

    /// ProdForce, the ProdVirial scatter and the tangent of the shipped
    /// operators (the closed form in `(1/r, s′)`) against the 12-value
    /// Jacobian contraction above, on the same slots: they agree to 1e-14
    /// of each output's norm, padding and ghosts included, at both edges
    /// of the switch window and with both codecs.
    #[test]
    fn jacobian_contraction_and_closed_form_agree() {
        let worst = std::cell::Cell::new(0.0f64);
        for_cases(0x9a11, 24, draw_pin, |c| {
            let Pin {
                sys,
                cfg,
                codec,
                split,
            } = c;
            let nl = NeighborList::build(sys, cfg.rcut);
            let fmt = format_optimized(sys, &nl, cfg, *codec);
            assert!(
                fmt.real_neighbors() < fmt.n_atoms * fmt.nm * 3 / 4,
                "no padding"
            );
            let ghost = |&j: &i32| j != NONE && j as usize >= sys.n_local;
            assert!(fmt.indices.iter().any(ghost), "no ghost is a neighbor");
            let mut edges = [false; 2];
            for slot in 0..fmt.nm {
                if fmt.indices[slot] != NONE {
                    let r = slot_jacobian(&fmt, cfg, slot).0;
                    edges[0] |= (r - cfg.rcut_smth).abs() <= 1e-6;
                    edges[1] |= (cfg.rcut - r).abs() <= 1e-6;
                }
            }
            assert_eq!(edges, [true; 2], "a probe is not a neighbor of atom 0");
            let types: Vec<usize> = fmt
                .indices
                .iter()
                .filter(|&&j| j != NONE)
                .map(|&j| sys.types[j as usize])
                .collect();
            assert!(
                types.contains(&0) && types.contains(&1),
                "one species block is empty"
            );

            let dedr = dedr(&fmt, 11);
            let mut rng = CounterRng::new(12);
            let w: Vec<[f64; 3]> = (0..sys.len())
                .map(|_| [(); 3].map(|_| rng.range(-1.0, 1.0)))
                .collect();
            // the shipped operators, in two chunks
            let (mut slot_grads, mut grads) = (Vec::new(), Vec::new());
            let mut tangent = vec![Vec::new(); fmt.sel.len()];
            let mut tangents = vec![Vec::new(); fmt.sel.len()];
            let mut forces = vec![[0.0; 3]; sys.len()];
            let mut virial = [0.0; 6];
            for (atom0, rows, blocks) in chunks(&fmt, &dedr, &[0, *split]) {
                prod_force_into(rows, &blocks, &mut slot_grads);
                prod_virial_into(rows, atom0, &slot_grads, &mut forces, &mut virial);
                grads.extend_from_slice(&slot_grads);
                env_tangent_into(rows, atom0, &w, &mut tangent);
                for (all, t) in tangents.iter_mut().zip(&tangent) {
                    all.extend_from_slice(t);
                }
            }
            // the slot formulas, scattered the same way
            let mut grads_ref = vec![[0.0; 3]; grads.len()];
            let mut tangents_ref: Vec<Vec<f64>> =
                tangents.iter().map(|t| vec![0.0; t.len()]).collect();
            let mut forces_ref = vec![[0.0; 3]; sys.len()];
            let mut virial_ref = [0.0; 6];
            for atom in 0..fmt.n_atoms {
                for (t, &sel_t) in fmt.sel.iter().enumerate() {
                    for k in 0..sel_t {
                        let slot = fmt.block_start(atom, t) + k;
                        let j = fmt.indices[slot];
                        if j == NONE {
                            continue;
                        }
                        let j = j as usize;
                        let row = (atom * sel_t + k) * 4;
                        let g = slot_grad(&fmt, cfg, slot, &dedr[t][row..row + 4]);
                        let d = &fmt.disp[slot * 3..slot * 3 + 3];
                        for kk in 0..3 {
                            forces_ref[atom][kk] += g[kk];
                            forces_ref[j][kk] -= g[kk];
                        }
                        virial_ref[0] -= d[0] * g[0];
                        virial_ref[1] -= d[1] * g[1];
                        virial_ref[2] -= d[2] * g[2];
                        virial_ref[3] -= d[0] * g[1];
                        virial_ref[4] -= d[0] * g[2];
                        virial_ref[5] -= d[1] * g[2];
                        grads_ref[slot] = g;
                        let dd = [0, 1, 2].map(|kk| w[j][kk] - w[atom][kk]);
                        tangents_ref[t][row..row + 4]
                            .copy_from_slice(&slot_tangent(&fmt, cfg, slot, dd));
                    }
                }
            }
            let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
            let max_diff = |a: &[f64], b: &[f64]| {
                assert_eq!(a.len(), b.len());
                a.iter()
                    .zip(b)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0, f64::max)
            };
            let f_norm = norm(forces_ref.as_flattened());
            let errs = [
                max_diff(grads.as_flattened(), grads_ref.as_flattened()) / f_norm,
                max_diff(forces.as_flattened(), forces_ref.as_flattened()) / f_norm,
                max_diff(&virial, &virial_ref) / norm(&virial_ref),
                max_diff(&tangents.concat(), &tangents_ref.concat()) / norm(&tangents_ref.concat()),
            ];
            for (what, e) in ["slot gradients", "forces", "virial", "tangent"]
                .iter()
                .zip(errs)
            {
                assert!(e <= 1e-14, "{what}: relative error {e:e}");
                worst.set(worst.get().max(e));
            }
        });
        eprintln!("worst relative error {:e}", worst.get());
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

//! The "before" side of the paper's comparisons: the 2018 serial
//! DeePMD-kit that Table 3, §5.3 and §7.1 measure the shipped path
//! against, written once and kept out of the shipped crates.
//!
//! * [`format`] — the AoS struct-sort formatter, which also stores each
//!   slot's full 12-value Jacobian (`table3`'s Environment baseline);
//! * [`eval`] — the per-atom pipeline on small unfused GEMMs (`speedup`);
//! * [`linalg`] — the unfused §5.3 operator variants (`ablations`);
//! * here — the 12-value Jacobian and the ProdForce / ProdVirial loops
//!   that contract it, which `table3` times and [`eval`] runs.
//!
//! The shipped table keeps two numbers of a slot's Jacobian, `(1/r, s′)`,
//! and `deepmd_core::ops` builds the rest from the row and the
//! displacement; the baseline stores and contracts all twelve.
//!
//! The contraction loops are `#[inline]`, so `table3` compiles them in its
//! own crate as it did when it carried its own copy: called across the
//! crate boundary, its ProdVirial baseline read about 20 % slower.

pub mod eval;
pub mod format;
pub mod linalg;

use deepmd_core::format::{FormattedEnv, NONE};
use deepmd_core::DpConfig;
use dp_linalg::simd::env::smooth_weight;

/// The Jacobian `∂row_m/∂d_k` of the row at displacement `d`, distance `r`,
/// with `s(r)` and `s′`: `∂s/∂d_k = s′·u_k` and
/// `∂(s·u_m)/∂d_k = s′·u_k·u_m + s·(δ_mk − u_m·u_k)/r`, `u = d/r`.
pub fn env_row_jacobian(d: [f64; 3], r: f64, s: f64, ds: f64) -> [[f64; 3]; 4] {
    let inv_r = 1.0 / r;
    let u = d.map(|x| x * inv_r);
    let delta = |m: usize, k: usize| if m == k { 1.0 } else { 0.0 };
    let row =
        |m: usize| [0, 1, 2].map(|k| ds * u[k] * u[m] + s * (delta(m, k) - u[m] * u[k]) * inv_r);
    [u.map(|uk| ds * uk), row(0), row(1), row(2)]
}

/// The 12-value Jacobian of every slot of `fmt` (zeros on padding), as the
/// baseline formatter stores it beside its table.
pub fn jacobian(fmt: &FormattedEnv, cfg: &DpConfig) -> Vec<[[f64; 3]; 4]> {
    let slots = fmt.disp.chunks_exact(3).zip(&fmt.indices);
    slots
        .map(|(d, &j)| {
            if j == NONE {
                return [[0.0; 3]; 4];
            }
            let d = [d[0], d[1], d[2]];
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            let (s, ds) = smooth_weight(r, cfg.rcut_smth, cfg.rcut);
            env_row_jacobian(d, r, s, ds)
        })
        .collect()
}

/// Per-slot `∂E/∂R̃` rows `gw` regrouped into the per-neighbor-type
/// blocks the shipped `deepmd_core::ops` operators read.
pub fn type_blocks(fmt: &FormattedEnv, gw: &[[f64; 4]]) -> Vec<Vec<f64>> {
    (0..fmt.sel.len())
        .map(|t| {
            let slots = (0..fmt.n_atoms).flat_map(|a| {
                let b = fmt.block_start(a, t);
                b..b + fmt.sel[t]
            });
            slots.flat_map(|s| gw[s]).collect()
        })
        .collect()
}

/// One slot's gradient `Σ_m g_m·∂row_m/∂d` from its stored Jacobian.
#[inline]
fn contract(g: [f64; 4], jac: &[[f64; 3]; 4]) -> [f64; 3] {
    [0, 1, 2].map(|k| g[0] * jac[0][k] + g[1] * jac[1][k] + g[2] * jac[2][k] + g[3] * jac[3][k])
}

/// Baseline ProdForce: single-threaded slot loop over `∂E/∂R̃` rows `gw`
/// (one per slot, the embedding-input gradient folded into the first),
/// scalar scatter.
#[inline]
pub fn prod_force(
    fmt: &FormattedEnv,
    jac: &[[[f64; 3]; 4]],
    gw: &[[f64; 4]],
    n_total: usize,
) -> Vec<[f64; 3]> {
    let mut forces = vec![[0.0f64; 3]; n_total];
    for atom in 0..fmt.n_atoms {
        for s in 0..fmt.nm {
            let slot = atom * fmt.nm + s;
            let j = fmt.indices[slot];
            if j == NONE {
                continue;
            }
            let grad = contract(gw[slot], &jac[slot]);
            for kk in 0..3 {
                forces[atom][kk] += grad[kk];
                forces[j as usize][kk] -= grad[kk];
            }
        }
    }
    forces
}

/// Baseline ProdVirial: single-threaded.
#[inline]
pub fn prod_virial(fmt: &FormattedEnv, jac: &[[[f64; 3]; 4]], gw: &[[f64; 4]]) -> [f64; 6] {
    let mut w = [0.0f64; 6];
    for slot in 0..fmt.n_atoms * fmt.nm {
        if fmt.indices[slot] == NONE {
            continue;
        }
        let grad = contract(gw[slot], &jac[slot]);
        let d = &fmt.disp[slot * 3..slot * 3 + 3];
        w[0] -= d[0] * grad[0];
        w[1] -= d[1] * grad[1];
        w[2] -= d[2] * grad[2];
        w[3] -= d[0] * grad[1];
        w[4] -= d[0] * grad[2];
        w[5] -= d[1] * grad[2];
    }
    w
}

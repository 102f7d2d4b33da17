//! Neighbor-list formatting: the paper's data-layout innovation (§5.2.1).
//!
//! Each atom's raw neighbor list is sorted by type, then by distance;
//! within each type the neighbors are padded to the cut-off count
//! `sel[type]`. The result is a fixed-shape table — every atom contributes
//! exactly `Nm = Σ sel[t]` rows to the environment matrix, with padded rows
//! zero — so the embedding computation contains *no per-neighbor
//! branching* and can run as a handful of tall GEMMs.
//!
//! Two implementations are kept deliberately:
//! * [`format_optimized`] — compress each neighbor into a `u64` key
//!   ([`crate::codec`]), sort scalars, decode (§5.2.2);
//! * [`format_baseline`] — the AoS struct sort the baseline code used.
//!
//! Both keep the same neighbors in every row (Table 3 times them against
//! each other), but distances tied to within the codec's 1e-8 Å can sort
//! differently: by list position in the u64 key, by exact distance in the
//! struct sort. Perturbed lattices have no such ties (tables tested equal).
//!
//! The optimized path has one formatter, [`format_rows_into`]: atoms `a..b`
//! of one system into consecutive rows of a table, neighbor indices shifted
//! by the system's atom offset. [`format_optimized_into`] runs it over every
//! local atom; the force call ([`crate::eval`]) runs it once per chunk into a
//! chunk-sized table right before the embedding stage, so a force call never
//! holds more than one chunk of formatted rows (§5.2.2 "trunk of memory").

use crate::codec::Codec;
use crate::config::DpConfig;
use crate::env::{env_row, smooth_weight};
use dp_md::{NeighborList, System};
use std::ops::Range;

/// Slot marker for padding.
pub const NONE: i32 = -1;

/// The formatted, fixed-shape environment of every local atom.
#[derive(Debug, Clone)]
pub struct FormattedEnv {
    pub n_atoms: usize,
    /// Padded per-type widths (copied from the config).
    pub sel: Vec<usize>,
    /// Total slots per atom.
    pub nm: usize,
    /// Neighbor atom index per slot (`NONE` = padding); `n_atoms × nm`.
    pub indices: Vec<i32>,
    /// Environment matrix rows, 4 per slot; `n_atoms × nm × 4`.
    pub env: Vec<f64>,
    /// Jacobian `∂row/∂d`, 12 per slot; `n_atoms × nm × 12` (row-major
    /// `[m][k]`).
    pub denv: Vec<f64>,
    /// Displacement `d = r_j − r_i` per slot; `n_atoms × nm × 3`.
    pub disp: Vec<f64>,
    /// Neighbors dropped because a type exceeded its `sel` capacity
    /// (diagnostic; the sort guarantees the *nearest* are kept).
    pub overflowed: usize,
}

impl FormattedEnv {
    /// Allocate a table for `n_atoms` local atoms — the workspace that
    /// [`format_optimized_into`] reuses across MD steps (§5.2.2).
    pub fn alloc(n_atoms: usize, cfg: &DpConfig) -> Self {
        let nm = cfg.nm();
        Self {
            n_atoms,
            sel: cfg.sel.clone(),
            nm,
            indices: vec![NONE; n_atoms * nm],
            env: vec![0.0; n_atoms * nm * 4],
            denv: vec![0.0; n_atoms * nm * 12],
            disp: vec![0.0; n_atoms * nm * 3],
            overflowed: 0,
        }
    }

    /// Size the table for `n_atoms` rows of `cfg`, keeping its capacity
    /// (no allocation when it shrinks or regrows within what it held).
    /// Row contents are left for the formatter to overwrite.
    pub(crate) fn resize(&mut self, n_atoms: usize, cfg: &DpConfig) {
        assert_eq!(self.nm, cfg.nm(), "workspace sized for another config");
        let nm = self.nm;
        self.n_atoms = n_atoms;
        self.indices.resize(n_atoms * nm, NONE);
        self.env.resize(n_atoms * nm * 4, 0.0);
        self.denv.resize(n_atoms * nm * 12, 0.0);
        self.disp.resize(n_atoms * nm * 3, 0.0);
        self.sel.clone_from(&cfg.sel);
    }

    /// The rows of atoms `atoms`, borrowed: what one eval chunk and the
    /// [`crate::ops`] operators read.
    pub fn rows(&self, atoms: Range<usize>) -> EnvRows<'_> {
        let nm = self.nm;
        let (a, b) = (atoms.start * nm, atoms.end * nm);
        EnvRows {
            sel: &self.sel,
            nm,
            n_atoms: atoms.len(),
            indices: &self.indices[a..b],
            env: &self.env[a * 4..b * 4],
            denv: &self.denv[a * 12..b * 12],
            disp: &self.disp[a * 3..b * 3],
        }
    }

    /// Base slot offset of (atom, type) block.
    #[inline]
    pub fn block_start(&self, atom: usize, ty: usize) -> usize {
        let before: usize = self.sel[..ty].iter().sum();
        atom * self.nm + before
    }

    /// Count of real (non-padding) neighbors.
    pub fn real_neighbors(&self) -> usize {
        self.indices.iter().filter(|&&i| i != NONE).count()
    }
}

/// Borrowed rows of consecutive atoms of a [`FormattedEnv`], slot-major
/// like the table itself: slot `s` of row `a` is entry `a·nm + s`.
#[derive(Clone, Copy)]
pub struct EnvRows<'a> {
    pub sel: &'a [usize],
    pub nm: usize,
    pub n_atoms: usize,
    pub indices: &'a [i32],
    pub env: &'a [f64],
    pub denv: &'a [f64],
    pub disp: &'a [f64],
}

impl EnvRows<'_> {
    /// Gather the type-`ty` environment block of every row into `out`
    /// (`rows·sel[ty]` rows × 4, row-major, atoms back-to-back), converting
    /// to the evaluation precision `T`.
    ///
    /// This is the §5.2.1 payoff: each atom's type block is contiguous in
    /// `env`, so the whole chunk lands as one dense operand for the
    /// strided batched descriptor GEMMs in `eval`. Padded slots carry
    /// all-zero rows (re-zeroed on every format call), so batched kernels
    /// may include them — they contribute exact zeros.
    pub fn gather_env_block<T: dp_linalg::Real>(&self, ty: usize, out: &mut [T]) {
        let nc = self.n_atoms;
        let sel_t = self.sel[ty];
        let before: usize = self.sel[..ty].iter().sum();
        assert!(out.len() >= nc * sel_t * 4, "gather output too short");
        for a in 0..nc {
            let src0 = (a * self.nm + before) * 4;
            let src = &self.env[src0..src0 + sel_t * 4];
            let dst = &mut out[a * sel_t * 4..(a + 1) * sel_t * 4];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = T::from_f64(s);
            }
        }
    }
}

/// Scratch entry used by both formatters.
#[derive(Clone, Copy)]
struct RawNeighbor {
    ty: u32,
    r: f64,
    j: u32,
    d: [f64; 3],
}

/// Per-thread formatter scratch (raw neighbors, sort keys, type cursors),
/// reused across atoms and steps so the per-atom formatting closure is
/// allocation-free in steady state (§5.2.2).
#[derive(Default)]
struct FmtScratch {
    raw: Vec<RawNeighbor>,
    keys: Vec<u64>,
    sorted: Vec<RawNeighbor>,
    cursor: Vec<usize>,
    limit: Vec<usize>,
}

thread_local! {
    static FMT_SCRATCH: std::cell::RefCell<FmtScratch> =
        std::cell::RefCell::new(FmtScratch::default());
}

// one atom's output rows plus the shared inputs, each a different buffer;
// neighbor indices are shifted by `offset` (the system's first atom in the
// table's atom numbering)
#[allow(clippy::too_many_arguments)]
fn fill_atom_slots(
    out_indices: &mut [i32],
    out_env: &mut [f64],
    out_denv: &mut [f64],
    out_disp: &mut [f64],
    sel: &[usize],
    sorted: &[RawNeighbor],
    cfg: &DpConfig,
    offset: usize,
    cursor: &mut Vec<usize>,
    limit: &mut Vec<usize>,
) -> usize {
    let mut overflow = 0usize;
    // type-block cursors; cursor[t] runs from block start to limit[t]
    cursor.clear();
    limit.clear();
    let mut start = 0usize;
    for &s in sel {
        cursor.push(start);
        start += s;
        limit.push(start);
    }
    for n in sorted {
        let t = n.ty as usize;
        if cursor[t] >= limit[t] {
            overflow += 1;
            continue;
        }
        let slot = cursor[t];
        cursor[t] += 1;
        out_indices[slot] = (n.j as usize + offset) as i32;
        let (s, ds) = smooth_weight(n.r, cfg.rcut_smth, cfg.rcut);
        let (w, dw) = env_row(n.d, n.r, s, ds);
        out_env[slot * 4..slot * 4 + 4].copy_from_slice(&w);
        for m in 0..4 {
            out_denv[slot * 12 + m * 3..slot * 12 + m * 3 + 3].copy_from_slice(&dw[m]);
        }
        out_disp[slot * 3..slot * 3 + 3].copy_from_slice(&n.d);
    }
    overflow
}

fn gather_raw_into(
    raw: &mut Vec<RawNeighbor>,
    sys: &System,
    nl: &NeighborList,
    cfg: &DpConfig,
    i: usize,
) {
    let c2 = cfg.rcut * cfg.rcut;
    raw.clear();
    for &j in nl.neighbors_of(i) {
        let j = j as usize;
        let d = sys.cell.displacement(sys.positions[i], sys.positions[j]);
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if r2 >= c2 || r2 < 1e-12 {
            continue;
        }
        raw.push(RawNeighbor {
            ty: sys.types[j] as u32,
            r: r2.sqrt(),
            j: j as u32,
            d,
        });
    }
}

/// Optimized formatter: u64-compress, scalar sort, decode (§5.2.2).
pub fn format_optimized(sys: &System, nl: &NeighborList, cfg: &DpConfig, codec: Codec) -> FormattedEnv {
    let mut out = FormattedEnv::alloc(sys.n_local, cfg);
    format_optimized_into(&mut out, sys, nl, cfg, codec);
    out
}

/// In-place variant reusing an existing [`FormattedEnv`]'s buffers — the
/// paper's "allocate a trunk of GPU memory at the initialization stage and
/// re-use it throughout the MD simulation" (§5.2.2). If the atom count
/// changed (migration between domains), the buffers resize in place; in the
/// steady state (same count, same config) no heap allocation occurs.
pub fn format_optimized_into(
    out: &mut FormattedEnv,
    sys: &System,
    nl: &NeighborList,
    cfg: &DpConfig,
    codec: Codec,
) {
    out.resize(sys.n_local, cfg);
    out.overflowed = format_rows_into(out, 0, sys, nl, cfg, codec, 0..sys.n_local, 0);
}

/// The optimized formatter: local atoms `atoms` of `sys` into the rows of
/// `out` from `row0` on (u64-compress, scalar sort, decode; §5.2.2), every
/// neighbor index shifted by `offset`. The rows are cleared first, so
/// whatever they held before never shows. Returns the neighbors dropped by
/// `sel` overflow.
#[allow(clippy::too_many_arguments)]
pub(crate) fn format_rows_into(
    out: &mut FormattedEnv,
    row0: usize,
    sys: &System,
    nl: &NeighborList,
    cfg: &DpConfig,
    codec: Codec,
    atoms: Range<usize>,
    offset: usize,
) -> usize {
    assert!(sys.num_types() <= cfg.n_types(), "model has too few types");
    assert!(atoms.end <= sys.n_local, "only local atoms are formatted");
    let nm = out.nm;
    let (a, b) = (row0 * nm, (row0 + atoms.len()) * nm);
    let FormattedEnv {
        sel,
        indices,
        env,
        denv,
        disp,
        ..
    } = out;
    let sel: &[usize] = sel;
    indices[a..b]
        .chunks_mut(nm)
        .zip(env[a * 4..b * 4].chunks_mut(nm * 4))
        .zip(denv[a * 12..b * 12].chunks_mut(nm * 12))
        .zip(disp[a * 3..b * 3].chunks_mut(nm * 3))
        .zip(atoms)
        .map(|((((idx, env), denv), disp), i)| {
            idx.fill(NONE);
            env.fill(0.0);
            denv.fill(0.0);
            disp.fill(0.0);
            FMT_SCRATCH.with(|cell| {
                let s = &mut *cell.borrow_mut();
                gather_raw_into(&mut s.raw, sys, nl, cfg, i);
                // compress -> sort scalars -> decode
                s.keys.clear();
                s.keys.extend(
                    s.raw
                        .iter()
                        .enumerate()
                        .map(|(k, n)| codec.encode(n.ty as usize, n.r, k)),
                );
                s.keys.sort_unstable();
                s.sorted.clear();
                let raw = &s.raw;
                s.sorted.extend(s.keys.iter().map(|&key| {
                    let (_, _, k) = codec.decode(key);
                    raw[k]
                }));
                fill_atom_slots(
                    idx,
                    env,
                    denv,
                    disp,
                    sel,
                    &s.sorted,
                    cfg,
                    offset,
                    &mut s.cursor,
                    &mut s.limit,
                )
            })
        })
        .sum()
}

/// Baseline formatter: sort an array of structs with a three-field
/// comparator (what the 2018 DeePMD-kit did on the CPU), single-threaded
/// like the baseline.
pub fn format_baseline(sys: &System, nl: &NeighborList, cfg: &DpConfig) -> FormattedEnv {
    assert!(sys.num_types() <= cfg.n_types(), "model has too few types");
    let mut out = FormattedEnv::alloc(sys.n_local, cfg);
    let nm = out.nm;
    let sel = out.sel.clone();
    let mut overflow = 0usize;
    let mut raw: Vec<RawNeighbor> = Vec::new();
    let mut cursor: Vec<usize> = Vec::new();
    let mut limit: Vec<usize> = Vec::new();
    for i in 0..sys.n_local {
        gather_raw_into(&mut raw, sys, nl, cfg, i);
        raw.sort_by(|a, b| {
            a.ty.cmp(&b.ty)
                .then(a.r.partial_cmp(&b.r).unwrap())
                .then(a.j.cmp(&b.j))
        });
        let idx = &mut out.indices[i * nm..(i + 1) * nm];
        let env = &mut out.env[i * nm * 4..(i + 1) * nm * 4];
        let denv = &mut out.denv[i * nm * 12..(i + 1) * nm * 12];
        let disp = &mut out.disp[i * nm * 3..(i + 1) * nm * 3];
        overflow += fill_atom_slots(idx, env, denv, disp, &sel, &raw, cfg, 0, &mut cursor, &mut limit);
    }
    out.overflowed = overflow;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_md::lattice;
    use dp_md::units;
    use dp_md::CounterRng;

    fn small_cfg() -> DpConfig {
        DpConfig::small(1, 4.5, 16)
    }

    fn copper_test_system() -> (System, NeighborList) {
        let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        let mut rng = CounterRng::new(7);
        sys.perturb(0.1, &mut rng);
        let nl = NeighborList::build(&sys, 4.5);
        (sys, nl)
    }

    #[test]
    fn optimized_equals_baseline() {
        let (sys, nl) = copper_test_system();
        let cfg = small_cfg();
        for codec in [Codec::PaperDecimal, Codec::Binary] {
            let a = format_optimized(&sys, &nl, &cfg, codec);
            let b = format_baseline(&sys, &nl, &cfg);
            assert_eq!(a.indices, b.indices, "{codec:?}");
            assert_eq!(a.env, b.env);
            assert_eq!(a.denv, b.denv);
            assert_eq!(a.overflowed, b.overflowed);
        }
    }

    #[test]
    fn slots_sorted_by_distance_within_type() {
        let (sys, nl) = copper_test_system();
        let cfg = small_cfg();
        let f = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        for i in 0..f.n_atoms {
            let mut last_r = 0.0;
            for s in 0..f.nm {
                let slot = i * f.nm + s;
                if f.indices[slot] == NONE {
                    continue;
                }
                let d = &f.disp[slot * 3..slot * 3 + 3];
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                assert!(r >= last_r - 1e-9, "atom {i} slot {s}: {r} < {last_r}");
                last_r = r;
            }
        }
    }

    #[test]
    fn padding_rows_are_zero() {
        let (sys, nl) = copper_test_system();
        let cfg = small_cfg();
        let f = format_optimized(&sys, &nl, &cfg, Codec::Binary);
        for slot in 0..f.n_atoms * f.nm {
            if f.indices[slot] == NONE {
                assert!(f.env[slot * 4..slot * 4 + 4].iter().all(|&x| x == 0.0));
                assert!(f.denv[slot * 12..slot * 12 + 12].iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn overflow_keeps_nearest() {
        // capacity 4 with 12 fcc nearest neighbors: keep the 4 closest
        let sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        let nl = NeighborList::build(&sys, 4.5);
        let mut cfg = small_cfg();
        cfg.sel = vec![4];
        let f = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        assert!(f.overflowed > 0);
        // all kept slots are at the nearest-neighbor distance
        let nn = 3.615 / 2f64.sqrt();
        for s in 0..4 {
            let slot = s; // atom 0
            assert_ne!(f.indices[slot], NONE);
            let d = &f.disp[slot * 3..slot * 3 + 3];
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            assert!((r - nn).abs() < 1e-6, "kept non-nearest neighbor at {r}");
        }
    }

    #[test]
    fn two_type_blocks_are_type_pure() {
        let sys = lattice::water_box([4, 4, 4], 3.104);
        let nl = NeighborList::build(&sys, 5.0);
        let cfg = DpConfig {
            rcut: 5.0,
            rcut_smth: 1.0,
            sel: vec![20, 40],
            embedding: vec![4, 8],
            fitting: vec![16, 16],
            axis_neurons: 4,
        };
        let f = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        for i in 0..f.n_atoms {
            for (t, &cap) in cfg.sel.iter().enumerate() {
                let start = f.block_start(i, t);
                for s in 0..cap {
                    let j = f.indices[start + s];
                    if j != NONE {
                        assert_eq!(sys.types[j as usize], t, "type block violated");
                    }
                }
            }
        }
    }

    #[test]
    fn reused_workspace_matches_fresh() {
        let (sys, nl) = copper_test_system();
        let cfg = small_cfg();
        let fresh = format_optimized(&sys, &nl, &cfg, Codec::Binary);
        // dirty workspace from a different geometry, then reuse
        let mut ws = {
            let mut sys2 = sys.clone();
            sys2.positions.swap(0, 5);
            let nl2 = NeighborList::build(&sys2, cfg.rcut);
            format_optimized(&sys2, &nl2, &cfg, Codec::Binary)
        };
        format_optimized_into(&mut ws, &sys, &nl, &cfg, Codec::Binary);
        assert_eq!(ws.indices, fresh.indices);
        assert_eq!(ws.env, fresh.env);
        assert_eq!(ws.denv, fresh.denv);
    }

    #[test]
    fn real_neighbor_count_matches_list() {
        let (sys, nl) = copper_test_system();
        let cfg = small_cfg();
        let f = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        // cfg cutoff equals list cutoff, capacity is ample -> same count
        assert_eq!(f.real_neighbors() + f.overflowed, nl.num_pairs());
    }
}

//! Neighbor-list formatting: the paper's data-layout innovation (§5.2.1).
//!
//! Each atom's raw neighbor list is sorted by type, then by distance;
//! within each type the neighbors are padded to the cut-off count
//! `sel[type]`. The result is a fixed-shape table — every atom contributes
//! exactly `Nm = Σ sel[t]` rows to the environment matrix, with padded rows
//! zero — so the embedding computation contains *no per-neighbor
//! branching* and can run as a handful of tall GEMMs.
//!
//! Each neighbor is compressed into a `u64` key ([`crate::codec`]); the
//! keys are sorted as scalars and decoded (§5.2.2). Table 3 times this
//! against the 2018 AoS struct sort, `dp_bench::baseline::format`.
//!
//! The optimized path has one formatter, [`format_rows_into`]: atoms `a..b`
//! of one system into consecutive rows of a table, neighbor indices shifted
//! by the system's atom offset. [`format_optimized_into`] runs it over every
//! local atom; the force call ([`crate::eval`]) runs it once per chunk into a
//! chunk-sized table right before the embedding stage, so a force call never
//! holds more than one chunk of formatted rows (§5.2.2 "trunk of memory").
//! Per atom it is one pass over struct-of-arrays scratch borrowed once per
//! call: the branch-free SIMD gather of kept neighbors
//! ([`dp_linalg::simd::env::gather_with`]), keys carrying each neighbor's
//! gather position (the sort permutes indices, never neighbor records), the
//! kept slots' geometry in slot order, one switch + row sweep per type
//! block straight into the table ([`dp_linalg::simd::env::env_rows_with`]),
//! and zeros written to each block's padding tail only.
//!
//! A slot of the table is 76 bytes: a 4-byte index, the 32-byte row, the
//! 24-byte displacement and the 16-byte pair `(1/r, s′)`.

use crate::codec::Codec;
use crate::config::DpConfig;
use dp_linalg::simd::{self, env::Gathered};
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
    /// Environment matrix rows `(s, s·d/r)`, 4 per slot; `n_atoms × nm × 4`.
    pub env: Vec<f64>,
    /// `(1/r, s′)` per slot, `s′ = ds/dr`; `n_atoms × nm × 2`. With the
    /// row's `s` and the displacement they are the Jacobian `∂row/∂d`,
    /// which [`crate::ops`] applies in closed form.
    pub radial: Vec<f64>,
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
            radial: vec![0.0; n_atoms * nm * 2],
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
        self.radial.resize(n_atoms * nm * 2, 0.0);
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
            radial: &self.radial[a * 2..b * 2],
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
    pub radial: &'a [f64],
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

/// Per-thread scratch of the optimized formatter, borrowed once per
/// call and reused across atoms and steps, so formatting allocates
/// nothing in steady state (§5.2.2): the kept neighbors of the current
/// atom, their sort keys, the slot-ordered geometry the row sweep reads
/// (`stage[0..3]` displacement, `stage[3]` distance, `nm` each), and the
/// type blocks' fill cursors and ends.
#[derive(Default)]
struct FmtScratch {
    kept: Gathered,
    keys: Vec<u64>,
    stage: [Vec<f64>; 4],
    cursor: Vec<usize>,
    limit: Vec<usize>,
}

thread_local! {
    static FMT_SCRATCH: std::cell::RefCell<FmtScratch> =
        std::cell::RefCell::new(FmtScratch::default());
}

/// Optimized formatter: u64-compress, scalar sort, decode (§5.2.2).
pub fn format_optimized(
    sys: &System,
    nl: &NeighborList,
    cfg: &DpConfig,
    codec: Codec,
) -> FormattedEnv {
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
/// `out` from `row0` on, every neighbor index shifted by `offset`. Per
/// atom: the branch-free gather of kept neighbors
/// ([`dp_linalg::simd::env::gather_with`]), one u64 key per kept neighbor
/// carrying its gather position, a scalar sort, the kept slots' geometry
/// in slot order, then one switch + row sweep per type block
/// ([`dp_linalg::simd::env::env_rows_with`]) straight into the table. Only
/// each block's padding tail is cleared, so whatever the rows held before
/// never shows. Returns the neighbors dropped by `sel` overflow.
///
/// Panics if the system is outside `codec`'s ranges ([`Codec::check`]).
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
    codec.check(sys.num_types(), sys.len(), cfg.rcut);
    let backend = simd::active();
    let periodic = sys.cell.periodic.then_some(sys.cell.lengths);
    let nm = out.nm;
    let FormattedEnv {
        sel,
        indices,
        env,
        radial,
        disp,
        ..
    } = out;
    FMT_SCRATCH.with(|cell| {
        let FmtScratch {
            kept,
            keys,
            stage,
            cursor,
            limit,
        } = &mut *cell.borrow_mut();
        for v in stage.iter_mut() {
            v.resize(nm, 0.0);
        }
        limit.clear();
        limit.extend(sel.iter().scan(0, |end, &s| {
            *end += s;
            Some(*end)
        }));
        let mut overflow = 0;
        for (row, i) in (row0..).zip(atoms) {
            let base = row * nm;
            simd::env::gather_with(
                backend,
                kept,
                sys.positions[i],
                &sys.positions,
                nl.neighbors_of(i),
                periodic,
                cfg.rcut,
            );
            let ([dx, dy, dz], r, j) = (kept.d(), kept.r(), kept.j());
            keys.clear();
            keys.extend(
                j.iter()
                    .zip(r)
                    .enumerate()
                    .map(|(k, (&j, &r))| codec.encode(sys.types[j as usize], r, k)),
            );
            keys.sort_unstable();
            // cursor[t] runs from type block t's start to its end limit[t]
            cursor.clear();
            cursor.extend(limit.iter().zip(sel.iter()).map(|(&e, &s)| e - s));
            let row_idx = &mut indices[base..base + nm];
            let row_disp = &mut disp[base * 3..(base + nm) * 3];
            let [sx, sy, sz, sr] = stage;
            for &key in keys.iter() {
                let (t, _, k) = codec.decode(key);
                let slot = cursor[t];
                if slot == limit[t] {
                    overflow += 1;
                    continue;
                }
                cursor[t] = slot + 1;
                row_idx[slot] = (j[k] as usize + offset) as i32;
                row_disp[slot * 3..slot * 3 + 3].copy_from_slice(&[dx[k], dy[k], dz[k]]);
                (sx[slot], sy[slot], sz[slot], sr[slot]) = (dx[k], dy[k], dz[k], r[k]);
            }
            let mut start = 0;
            for (&fill, &s) in cursor.iter().zip(sel.iter()) {
                let (a, b, c) = (base + start, base + fill, base + start + s);
                let [x, y, z, r] = stage.each_ref().map(|v| &v[start..fill]);
                simd::env::env_rows_with(
                    backend,
                    cfg.rcut_smth,
                    cfg.rcut,
                    [x, y, z],
                    r,
                    &mut env[a * 4..b * 4],
                    &mut radial[a * 2..b * 2],
                );
                indices[b..c].fill(NONE);
                env[b * 4..c * 4].fill(0.0);
                radial[b * 2..c * 2].fill(0.0);
                disp[b * 3..c * 3].fill(0.0);
                start += s;
            }
        }
        overflow
    })
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
                assert!(f.radial[slot * 2..slot * 2 + 2].iter().all(|&x| x == 0.0));
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
        assert_eq!(ws.radial, fresh.radial);
    }

    #[test]
    fn real_neighbor_count_matches_list() {
        let (sys, nl) = copper_test_system();
        let cfg = small_cfg();
        let f = format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal);
        // cfg cutoff equals list cutoff, capacity is ample -> same count
        assert_eq!(f.real_neighbors() + f.overflowed, nl.num_pairs());
    }

    /// The decimal codec holds fewer than 10 species; the check runs in
    /// release builds too, where the encoder's own check is compiled out.
    #[test]
    #[should_panic(expected = "PaperDecimal codec holds < 10 types, the system has 10")]
    fn ten_types_overflow_the_decimal_codec() {
        let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        sys.masses = vec![units::MASS_CU; 10];
        for (i, t) in sys.types.iter_mut().enumerate() {
            *t = i % 10;
        }
        let nl = NeighborList::build(&sys, 4.5);
        format_optimized(
            &sys,
            &nl,
            &DpConfig::small(10, 4.5, 16),
            Codec::PaperDecimal,
        );
    }
}

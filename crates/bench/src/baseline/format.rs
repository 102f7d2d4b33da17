//! The baseline formatter: sort an array of structs with a three-field
//! comparator (what the 2018 DeePMD-kit did on the CPU), single-threaded,
//! and store each slot's full 12-value Jacobian beside the table, as that
//! code did. Table 3 times it against `deepmd_core::format`'s u64 path.
//!
//! Both formatters keep the same neighbors in every row, but distances
//! tied to within the codec's 1e-8 Å can sort differently: by gather
//! position in the u64 key, by exact distance here.

use super::env_row_jacobian;
use deepmd_core::format::FormattedEnv;
use deepmd_core::DpConfig;
use dp_linalg::simd::env::{env_row, smooth_weight};
use dp_md::{NeighborList, System};

/// One neighbor of the baseline formatter's array of structs.
#[derive(Clone, Copy)]
struct RawNeighbor {
    ty: u32,
    r: f64,
    j: u32,
    d: [f64; 3],
}

/// The baseline formatter's output: the table's indices, rows and
/// displacements, and in place of its `radial` pairs (left zero) the full
/// Jacobian `∂row_m/∂d_k` of every slot (`[m][k]`, zeros on padding) that
/// the 2018 code stored and its ProdForce and ProdVirial contracted.
#[derive(Debug, Clone)]
pub struct BaselineEnv {
    pub table: FormattedEnv,
    pub jacobian: Vec<[[f64; 3]; 4]>,
}

// one atom's output rows from its sorted neighbors, slot by slot
fn fill_atom_slots(
    out: &mut BaselineEnv,
    atom: usize,
    sorted: &[RawNeighbor],
    cfg: &DpConfig,
    cursor: &mut Vec<usize>,
    limit: &mut Vec<usize>,
) -> usize {
    let table = &mut out.table;
    let mut overflow = 0usize;
    // type-block cursors; cursor[t] runs from block start to limit[t]
    cursor.clear();
    limit.clear();
    let mut start = atom * table.nm;
    for &s in &table.sel {
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
        table.indices[slot] = n.j as i32;
        let (s, ds) = smooth_weight(n.r, cfg.rcut_smth, cfg.rcut);
        table.env[slot * 4..slot * 4 + 4].copy_from_slice(&env_row(n.d, n.r, s));
        table.disp[slot * 3..slot * 3 + 3].copy_from_slice(&n.d);
        out.jacobian[slot] = env_row_jacobian(n.d, n.r, s, ds);
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

/// Format every local atom of `sys` the baseline way.
pub fn format_baseline(sys: &System, nl: &NeighborList, cfg: &DpConfig) -> BaselineEnv {
    assert!(sys.num_types() <= cfg.n_types(), "model has too few types");
    let table = FormattedEnv::alloc(sys.n_local, cfg);
    let jacobian = vec![[[0.0; 3]; 4]; table.indices.len()];
    let mut out = BaselineEnv { table, jacobian };
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
        overflow += fill_atom_slots(&mut out, i, &raw, cfg, &mut cursor, &mut limit);
    }
    out.table.overflowed = overflow;
    out
}

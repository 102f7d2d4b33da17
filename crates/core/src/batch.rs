//! Cross-request batching (§5.2.1 across systems).
//!
//! The fixed-shape padded layout makes every atom contribute exactly
//! `Nm = Σ sel[t]` rows to the environment matrix, independent of which
//! *system* the atom belongs to. The local atoms of several standalone
//! configurations, laid end to end, therefore form one taller table of the
//! same shape class, and one evaluation over it runs the same tall GEMMs
//! the paper uses to batch atoms within one system — now amortized across
//! requests (the serving scheduler's coalescing primitive).
//!
//! That table is never built whole. The force call's chunk loop
//! ([`crate::eval`]) asks [`format_chunk`] for the rows of one chunk at a
//! time; a chunk may straddle requests, and each request's part comes from
//! the one range formatter ([`crate::format`]) with the request's neighbor
//! indices shifted by its atom offset. A solo force call is a batch of one.
//!
//! Correctness argument for bit-identical per-request results: every
//! pipeline stage is per-atom-row independent (embedding GEMM rows,
//! elementwise activations, per-atom descriptor contraction, per-row
//! fitting, per-slot force gradients), neighbor indices never cross a
//! request boundary after offsetting, the force scatter visits slots in
//! row-major order (so each request's accumulation order is unchanged),
//! and a request's energy is the left-to-right sum of its contiguous
//! `per_atom_energy` slice — the same summation the solo evaluation
//! performs. The one global quantity is the virial, which is accumulated
//! across the whole batch and is therefore *not* attributable to a single
//! request; batched results omit it.
//!
//! Only standalone configurations batch: every atom must be local
//! (`n_local == len`), because the batch indexes one flat atom array and a
//! ghost region would interleave the offsets. A solo call may carry ghosts.

use crate::config::DpConfig;
use crate::format::{format_rows_into, FormattedEnv, NONE};
use crate::potential_impl::BatchItem;
use std::ops::Range;

/// Format rows `rows` of the items' local atoms, laid end to end, into
/// `out` (resized to `rows.len()` atoms) and their species into `types`.
/// Item `k`'s neighbor indices shift by the atoms (`len`, ghosts included)
/// of the items before it. Neighbors dropped by `sel` overflow are added to
/// the `format.overflowed` counter, so truncation shows in telemetry.
pub(crate) fn format_chunk(
    items: &[BatchItem],
    rows: Range<usize>,
    cfg: &DpConfig,
    out: &mut FormattedEnv,
    types: &mut Vec<usize>,
) {
    out.resize(rows.len(), cfg);
    out.overflowed = 0;
    types.clear();
    let (mut row0, mut atom0) = (0, 0);
    for it in items {
        let n = it.sys.n_local;
        let (lo, hi) = (rows.start.max(row0), rows.end.min(row0 + n));
        if lo < hi {
            let atoms = lo - row0..hi - row0;
            types.extend_from_slice(&it.sys.types[atoms.clone()]);
            let codec = cfg.codec(it.sys.len());
            out.overflowed += format_rows_into(
                out,
                lo - rows.start,
                it.sys,
                it.nl,
                cfg,
                codec,
                atoms,
                atom0,
            );
        }
        row0 += n;
        atom0 += it.sys.len();
        if row0 >= rows.end {
            break;
        }
    }
    if out.overflowed > 0 {
        dp_obs::counter("format.overflowed").add(out.overflowed as u64);
    }
}

/// Reset a table to an empty batch accumulator for `cfg`, keeping the
/// backing capacity (steady-state appends never reallocate).
///
/// Not on the force call's path, which formats requests chunk by chunk
/// ([`format_chunk`]): perfbench's `core.batch.join_us` probe is the only
/// caller.
pub fn reset_joined(dst: &mut FormattedEnv, cfg: &DpConfig) {
    dst.sel.clear();
    dst.sel.extend_from_slice(&cfg.sel);
    dst.nm = cfg.nm();
    dst.n_atoms = 0;
    dst.indices.clear();
    dst.env.clear();
    dst.radial.clear();
    dst.disp.clear();
    dst.overflowed = 0;
}

/// Append one request's formatted table to a joined table, shifting its
/// neighbor indices into the joined table's flat atom numbering
/// (`atom_offset` = atoms appended so far). Padding slots stay `NONE`.
///
/// Like [`reset_joined`], only perfbench's `core.batch.join_us` probe
/// calls it.
pub fn append_joined(dst: &mut FormattedEnv, src: &FormattedEnv, atom_offset: usize) {
    assert_eq!(
        dst.sel, src.sel,
        "batched requests must share one model config"
    );
    assert_eq!(dst.nm, src.nm);
    let off = atom_offset as i32;
    dst.n_atoms += src.n_atoms;
    dst.indices.extend(
        src.indices
            .iter()
            .map(|&j| if j == NONE { NONE } else { j + off }),
    );
    dst.env.extend_from_slice(&src.env);
    dst.radial.extend_from_slice(&src.radial);
    dst.disp.extend_from_slice(&src.disp);
    dst.overflowed += src.overflowed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::config::DpConfig;
    use crate::format::format_optimized_into;
    use crate::model::DpModel;
    use crate::potential_impl::{BatchItem, DeepPotential, PrecisionMode};
    use dp_md::{lattice, units, CounterRng, NeighborList, Potential, System};

    fn sample_systems() -> Vec<System> {
        let mut rng = CounterRng::new(97);
        // heterogeneous sizes so batch offsets are non-trivial; every
        // axis ≥ 3 cells keeps the 4.5 Å cutoff under the minimum-image
        // limit (3 · 3.615 / 2 = 5.42)
        [[3, 3, 3], [4, 3, 3], [4, 4, 4]]
            .into_iter()
            .map(|reps| {
                let mut s = lattice::fcc(3.615, reps, units::MASS_CU);
                s.perturb(0.12, &mut rng);
                s
            })
            .collect()
    }

    fn potential() -> DeepPotential {
        let cfg = DpConfig::small(1, 4.5, 16);
        let mut rng = CounterRng::new(31);
        DeepPotential::new(
            DpModel::<f64>::new_random(cfg, &mut rng),
            PrecisionMode::Double,
        )
    }

    #[test]
    fn joined_table_is_the_concatenation_with_offset_indices() {
        let cfg = DpConfig::small(1, 4.5, 16);
        let systems = sample_systems();
        let mut joined = FormattedEnv::alloc(0, &cfg);
        reset_joined(&mut joined, &cfg);
        let mut parts = Vec::new();
        let mut off = 0usize;
        for sys in &systems {
            let nl = NeighborList::build(sys, cfg.rcut);
            let mut fmt = FormattedEnv::alloc(sys.len(), &cfg);
            format_optimized_into(
                &mut fmt,
                sys,
                &nl,
                &cfg,
                Codec::auto(1, sys.len(), cfg.rcut),
            );
            append_joined(&mut joined, &fmt, off);
            parts.push((fmt, off));
            off += sys.len();
        }
        assert_eq!(
            joined.n_atoms,
            systems.iter().map(|s| s.len()).sum::<usize>()
        );
        let mut slot = 0usize;
        for (fmt, off) in &parts {
            for (k, &j) in fmt.indices.iter().enumerate() {
                let joined_j = joined.indices[slot + k];
                if j == NONE {
                    assert_eq!(joined_j, NONE);
                } else {
                    assert_eq!(joined_j, j + *off as i32);
                }
            }
            let rows = fmt.n_atoms * fmt.nm;
            assert_eq!(
                &joined.env[slot * 4..(slot + rows) * 4],
                &fmt.env[..rows * 4],
                "environment rows must concatenate unchanged"
            );
            slot += rows;
        }
    }

    #[test]
    fn batched_eval_is_bit_identical_to_serial_in_every_mode() {
        let pot = potential();
        let systems = sample_systems();
        let nls: Vec<NeighborList> = systems
            .iter()
            .map(|s| NeighborList::build(s, pot.cutoff()))
            .collect();
        for mode in [PrecisionMode::Double, PrecisionMode::Mixed] {
            let items: Vec<BatchItem> = systems
                .iter()
                .zip(&nls)
                .map(|(sys, nl)| BatchItem { sys, nl })
                .collect();
            let batched = pot.compute_batch(&items, mode);
            assert_eq!(batched.len(), systems.len());
            for ((sys, nl), res) in systems.iter().zip(&nls).zip(&batched) {
                let solo = DeepPotential::new(pot.model().clone(), mode);
                let out = solo.compute(sys, nl);
                assert_eq!(
                    res.energy.to_bits(),
                    out.energy.to_bits(),
                    "energy must be bit-identical in {mode:?}"
                );
                assert_eq!(res.forces.len(), out.forces.len());
                for (a, b) in res.forces.iter().zip(&out.forces) {
                    for k in 0..3 {
                        assert_eq!(
                            a[k].to_bits(),
                            b[k].to_bits(),
                            "forces must be bit-identical in {mode:?}"
                        );
                    }
                }
                let slice_sum: f64 = res.per_atom_energy.iter().sum();
                assert_eq!(slice_sum.to_bits(), res.energy.to_bits());
            }
        }
    }

    #[test]
    fn singleton_batch_matches_compute_into() {
        let pot = potential();
        let systems = sample_systems();
        let sys = &systems[2];
        let nl = NeighborList::build(sys, pot.cutoff());
        let batched = pot.compute_batch(&[BatchItem { sys, nl: &nl }], PrecisionMode::Mixed);
        let solo = DeepPotential::new(pot.model().clone(), PrecisionMode::Mixed).compute(sys, &nl);
        assert_eq!(batched[0].energy.to_bits(), solo.energy.to_bits());
    }

    #[test]
    fn flat_batch_output_matches_per_request_results() {
        use crate::potential_impl::BatchOutput;
        let pot = potential();
        let systems = sample_systems();
        let nls: Vec<NeighborList> = systems
            .iter()
            .map(|s| NeighborList::build(s, pot.cutoff()))
            .collect();
        let items: Vec<BatchItem> = systems
            .iter()
            .zip(&nls)
            .map(|(sys, nl)| BatchItem { sys, nl })
            .collect();
        let per_request = pot.compute_batch(&items, PrecisionMode::Mixed);
        let mut flat = BatchOutput::new();
        pot.compute_batch_into(&items, PrecisionMode::Mixed, &mut flat);
        assert_eq!(flat.len(), per_request.len());
        for (k, res) in per_request.iter().enumerate() {
            assert_eq!(flat.energies[k].to_bits(), res.energy.to_bits());
            assert_eq!(flat.forces_of(k).len(), res.forces.len());
            for (a, b) in flat.forces_of(k).iter().zip(&res.forces) {
                for d in 0..3 {
                    assert_eq!(a[d].to_bits(), b[d].to_bits());
                }
            }
            for (a, b) in flat.per_atom_energy_of(k).iter().zip(&res.per_atom_energy) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // steady state: re-dispatching the same batch must not grow the
        // flat output (the ensemble engine calls this once per tick)
        let cap = (flat.forces.capacity(), flat.per_atom_energy.capacity());
        pot.compute_batch_into(&items, PrecisionMode::Mixed, &mut flat);
        assert_eq!(
            cap,
            (flat.forces.capacity(), flat.per_atom_energy.capacity())
        );
    }

    #[test]
    fn steady_state_batch_reuses_the_joined_capacity() {
        let cfg = DpConfig::small(1, 4.5, 16);
        let systems = sample_systems();
        let mut joined = FormattedEnv::alloc(0, &cfg);
        let mut fmts = Vec::new();
        for sys in &systems {
            let nl = NeighborList::build(sys, cfg.rcut);
            let mut fmt = FormattedEnv::alloc(sys.len(), &cfg);
            format_optimized_into(
                &mut fmt,
                sys,
                &nl,
                &cfg,
                Codec::auto(1, sys.len(), cfg.rcut),
            );
            fmts.push(fmt);
        }
        let fill = |joined: &mut FormattedEnv| {
            reset_joined(joined, &cfg);
            let mut off = 0;
            for fmt in &fmts {
                append_joined(joined, fmt, off);
                off += fmt.n_atoms;
            }
        };
        fill(&mut joined);
        let cap = (joined.indices.capacity(), joined.env.capacity());
        fill(&mut joined);
        assert_eq!(
            cap,
            (joined.indices.capacity(), joined.env.capacity()),
            "re-filling the same batch must not grow the joined table"
        );
    }

    /// A chunk table that held a denser chunk (42 neighbors per atom)
    /// reformatted with a sparser one (18) equals a fresh table: every
    /// padding tail the dense rows had filled is cleared.
    #[test]
    fn chunk_table_reused_after_a_denser_chunk_equals_a_fresh_one() {
        let cfg = DpConfig::small(1, 4.5, 64);
        let mut rng = CounterRng::new(5);
        let mut lattice_at = |a0: f64| {
            let mut s = lattice::fcc(a0, [3, 3, 3], units::MASS_CU);
            s.perturb(0.05, &mut rng);
            let nl = NeighborList::build(&s, cfg.rcut);
            (s, nl)
        };
        let (dense, dense_nl) = lattice_at(3.3);
        let (sparse, sparse_nl) = lattice_at(3.9);
        let n = sparse.len();
        let mut types = Vec::new();
        let mut reused = FormattedEnv::alloc(0, &cfg);
        let dense_item = [BatchItem {
            sys: &dense,
            nl: &dense_nl,
        }];
        format_chunk(&dense_item, 0..n, &cfg, &mut reused, &mut types);
        assert!(
            reused.real_neighbors() >= 42 * n,
            "the first chunk must be the denser"
        );
        let sparse_item = [BatchItem {
            sys: &sparse,
            nl: &sparse_nl,
        }];
        format_chunk(&sparse_item, 0..n, &cfg, &mut reused, &mut types);
        let mut fresh = FormattedEnv::alloc(0, &cfg);
        format_chunk(&sparse_item, 0..n, &cfg, &mut fresh, &mut types);
        assert!(fresh.real_neighbors() <= 18 * n);
        assert_eq!(reused.indices, fresh.indices);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused.env), bits(&fresh.env));
        assert_eq!(bits(&reused.radial), bits(&fresh.radial));
        assert_eq!(bits(&reused.disp), bits(&fresh.disp));
    }

    /// `sel = [4]` on fcc drops 38 of 42 neighbors per atom; the force call
    /// reports them on the `format.overflowed` counter.
    #[test]
    fn sel_overflow_moves_the_counter() {
        let mut cfg = DpConfig::small(1, 4.5, 16);
        cfg.sel = vec![4];
        let sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        let nl = NeighborList::build(&sys, cfg.rcut);
        let dropped =
            crate::format::format_optimized(&sys, &nl, &cfg, Codec::PaperDecimal).overflowed;
        assert_eq!(dropped, 38 * sys.len());
        let mut rng = CounterRng::new(3);
        let pot = DeepPotential::new(
            DpModel::<f64>::new_random(cfg, &mut rng),
            PrecisionMode::Double,
        );
        let counter = dp_obs::counter("format.overflowed");
        let before = counter.get();
        pot.compute(&sys, &nl);
        // other tests of this binary may add to the counter meanwhile
        assert!(counter.get() - before >= dropped as u64);
    }
}

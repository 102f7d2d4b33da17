//! Parallel setup (§7.3).
//!
//! The baseline DeePMD-kit built the whole atomic structure on one MPI
//! rank and scattered it, and every rank read the model file from disk —
//! minutes of setup at 4,560 nodes. The optimized code builds the
//! structure on all ranks simultaneously and stages the model through a
//! single read + broadcast, cutting setup below 5 seconds. Both protocols
//! are implemented here so the `setup_time` harness can measure the delta.

use crate::grid::DomainGrid;
use dp_md::System;
use std::time::{Duration, Instant};

/// Per-rank atom payload after distribution.
#[derive(Debug, Clone)]
pub struct RankAtoms {
    pub ids: Vec<u64>,
    pub positions: Vec<[f64; 3]>,
    pub types: Vec<usize>,
}

/// Baseline: one rank builds the entire structure, then scatters it
/// (single-threaded build + per-rank ownership scan, like root-rank
/// construction + MPI_Scatterv).
pub fn setup_replicated(
    build: impl Fn() -> System,
    grid: &DomainGrid,
) -> (Vec<RankAtoms>, Duration) {
    let start = Instant::now();
    let sys = build(); // rank 0 does all the work
    let n_ranks = grid.n_ranks();
    let mut out: Vec<RankAtoms> = (0..n_ranks)
        .map(|_| RankAtoms {
            ids: Vec::new(),
            positions: Vec::new(),
            types: Vec::new(),
        })
        .collect();
    for i in 0..sys.len() {
        let r = grid.rank_of_position(sys.positions[i]);
        out[r].ids.push(i as u64);
        out[r].positions.push(sys.positions[i]);
        out[r].types.push(sys.types[i]);
    }
    (out, start.elapsed())
}

/// Optimized: every rank builds only its own region, in parallel, with no
/// communication ("we build the atomic structure with all the MPI tasks
/// without communication", §7.3). The builder is called once per rank and
/// filtered to the rank's domain; deterministic builders yield exactly the
/// same partition as the replicated path.
pub fn setup_distributed(
    build: impl Fn() -> System + Sync,
    grid: &DomainGrid,
) -> (Vec<RankAtoms>, Duration) {
    let n_ranks = grid.n_ranks();
    let results: Vec<(RankAtoms, Duration)> = dp_obs::par::map(n_ranks, |rank| {
        let t = Instant::now();
        let sys = build();
        let mut ra = RankAtoms {
            ids: Vec::new(),
            positions: Vec::new(),
            types: Vec::new(),
        };
        for i in 0..sys.len() {
            if grid.rank_of_position(sys.positions[i]) == rank {
                ra.ids.push(i as u64);
                ra.positions.push(sys.positions[i]);
                ra.types.push(sys.types[i]);
            }
        }
        (ra, t.elapsed())
    });
    // On a machine with fewer cores than ranks the builds serialize, so
    // wall time misrepresents the protocol; the parallel completion time
    // is the per-rank maximum (every rank works independently with no
    // communication, which is the whole point of §7.3).
    let elapsed = results.iter().map(|(_, d)| *d).max().unwrap_or_default();
    let out = results.into_iter().map(|(ra, _)| ra).collect();
    (out, elapsed)
}

/// Model staging, baseline: every rank parses the serialized model itself
/// ("the model data is read in from the hard-drive by all the MPI tasks").
pub fn stage_model_all_read<T: Send>(
    n_ranks: usize,
    parse: impl Fn() -> T + Sync,
) -> (Vec<T>, Duration) {
    let start = Instant::now();
    // the baseline contends on one file; emulate with a serial loop
    let out = (0..n_ranks).map(|_| parse()).collect();
    (out, start.elapsed())
}

/// Model staging, optimized: one rank parses, the result is broadcast
/// (cloned) to everyone ("first reading in with a single MPI rank, and
/// then broadcasting across all MPI tasks", §7.3).
pub fn stage_model_broadcast<T: Clone>(
    n_ranks: usize,
    parse: impl FnOnce() -> T,
) -> (Vec<T>, Duration) {
    let start = Instant::now();
    let root = parse();
    let out = vec![root; n_ranks];
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_md::{lattice, Cell};

    #[test]
    fn replicated_and_distributed_agree() {
        let grid = DomainGrid::new(Cell::cubic(4.0 * 4.0), [2, 2, 1]);
        let build = || lattice::fcc(4.0, [4, 4, 4], 63.5);
        let (a, _) = setup_replicated(build, &grid);
        let (b, _) = setup_distributed(build, &grid);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.ids, rb.ids);
        }
    }

    #[test]
    fn distribution_covers_all_atoms_once() {
        let grid = DomainGrid::new(Cell::cubic(16.0), [2, 2, 2]);
        let build = || lattice::fcc(4.0, [4, 4, 4], 63.5);
        let (parts, _) = setup_distributed(build, &grid);
        let mut seen: Vec<u64> = parts.iter().flat_map(|p| p.ids.iter().copied()).collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..256).collect();
        assert_eq!(seen, expect);
    }
}

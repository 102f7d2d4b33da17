//! Standard workloads: scaled-down versions of the paper's benchmark
//! systems, plus the paper-size configurations for formatting/profiling
//! experiments that don't need a trained model.

use deepmd_core::DpConfig;
use dp_md::{lattice, System};

/// Scaled-down water DP hyper-parameters used by the trained-model
/// harnesses: same architecture shape as the paper (doubling embedding,
/// residual fitting net), smaller widths and cutoff so training and MD fit
/// a laptop. Types: 0 = O, 1 = H.
pub fn water_config_small() -> DpConfig {
    DpConfig {
        rcut: 4.5,
        rcut_smth: 1.0,
        sel: vec![12, 24],
        embedding: vec![8, 16],
        fitting: vec![32, 32, 32],
        axis_neurons: 4,
    }
}

/// Scaled-down copper DP hyper-parameters (matches
/// `SuttonChen::copper_short`'s 4.8 Å cutoff).
pub fn copper_config_small() -> DpConfig {
    DpConfig {
        rcut: 4.8,
        rcut_smth: 1.2,
        sel: vec![52],
        embedding: vec![8, 16],
        fitting: vec![32, 32, 32],
        axis_neurons: 4,
    }
}

/// Training-frame base system for water (box must exceed 2·rcut).
pub fn water_training_base() -> System {
    lattice::water_box([3, 3, 3], 3.104)
}

/// Training-frame base system for copper.
pub fn copper_training_base() -> System {
    lattice::copper([3, 3, 3])
}

/// The single-GPU benchmark system of §7.1: 4,096 water molecules
/// (12,288 atoms).
pub fn water_12288() -> System {
    lattice::water_12288()
}

/// A medium water box for RDF / precision measurements (1,536 atoms).
pub fn water_1536() -> System {
    lattice::water_box([8, 8, 8], 3.104)
}

/// A medium copper box (864 atoms) valid for the paper's 8 Å cutoff.
pub fn copper_864() -> System {
    lattice::copper([6, 6, 6])
}

/// Partition a periodic system into rank-local systems (locals first,
/// ghosts appended), exactly as the parallel driver's exchange does — used
/// by the scaling harnesses to time each rank's work serially on a
/// single-core host (discrete-event emulation of the parallel machine).
pub fn partition_with_ghosts(
    sys: &System,
    grid: &dp_parallel::DomainGrid,
    halo: f64,
) -> Vec<System> {
    let n_ranks = grid.n_ranks();
    let mut locals: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
    for i in 0..sys.len() {
        locals[grid.rank_of_position(sys.positions[i])].push(i);
    }
    (0..n_ranks)
        .map(|r| {
            let mut positions: Vec<[f64; 3]> =
                locals[r].iter().map(|&i| sys.positions[i]).collect();
            let mut types: Vec<usize> = locals[r].iter().map(|&i| sys.types[i]).collect();
            let n_local = positions.len();
            for i in 0..sys.len() {
                if grid.rank_of_position(sys.positions[i]) != r
                    && grid.distance_to_domain(sys.positions[i], r) < halo
                {
                    positions.push(sys.positions[i]);
                    types.push(sys.types[i]);
                }
            }
            let mut part = System::new(sys.cell, positions, types, sys.masses.clone());
            part.n_local = n_local;
            part
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes() {
        assert_eq!(water_12288().len(), 12_288);
        assert_eq!(water_1536().len(), 1_536);
        assert_eq!(copper_864().len(), 864);
        water_config_small().check();
        copper_config_small().check();
    }

    #[test]
    fn training_boxes_fit_their_cutoffs() {
        assert!(water_training_base().cell.max_cutoff() >= water_config_small().rcut);
        assert!(copper_training_base().cell.max_cutoff() >= copper_config_small().rcut);
    }
}

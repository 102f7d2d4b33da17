//! Tensile deformation driver (Fig 7).
//!
//! The paper deforms the nanocrystalline sample by 10% along z at a strain
//! rate of 5×10⁸ s⁻¹ after a 10,000-step anneal. The standard MD protocol
//! is affine remapping: every deformation step the cell's z-length and all
//! z-coordinates are scaled by the per-step strain increment, and MD then
//! relaxes the configuration; engineering stress is read from the virial.

use crate::integrate::{run_md, Berendsen, MdOptions};
use crate::neighbor::NeighborList;
use crate::potential::Potential;
use crate::system::System;
use crate::units;

/// One point of the stress–strain record.
#[derive(Debug, Clone, Copy)]
pub struct StressStrainPoint {
    /// Engineering strain along the pulled axis.
    pub strain: f64,
    /// Tensile stress σ_zz (GPa, positive = tension).
    pub stress_gpa: f64,
    pub temperature: f64,
}

/// Parameters of a tensile test.
#[derive(Debug, Clone, Copy)]
pub struct TensileOptions {
    /// Axis to pull (0, 1, 2).
    pub axis: usize,
    /// Total engineering strain (paper: 0.10).
    pub total_strain: f64,
    /// Number of strain increments.
    pub n_increments: usize,
    /// MD relaxation steps per increment.
    pub steps_per_increment: usize,
    /// MD integration options used for the relaxation segments.
    pub md: MdOptions,
    /// Thermostat temperature during deformation (K).
    pub temperature: f64,
}

impl Default for TensileOptions {
    fn default() -> Self {
        Self {
            axis: 2,
            total_strain: 0.10,
            n_increments: 20,
            steps_per_increment: 50,
            md: MdOptions {
                dt: 5.0e-4, // the paper's 0.5 fs
                ..MdOptions::default()
            },
            temperature: 300.0,
        }
    }
}

/// Apply one affine strain increment along `axis`.
pub fn apply_strain_increment(sys: &mut System, axis: usize, factor: f64) {
    assert!(axis < 3);
    assert!(factor > 0.0);
    let mut f = [1.0; 3];
    f[axis] = factor;
    sys.cell = sys.cell.scaled(f);
    for p in &mut sys.positions {
        p[axis] *= factor;
    }
}

/// Run a tensile test: alternate affine strain increments with thermostatted
/// MD relaxation, recording engineering stress after each increment.
pub fn tensile_test(
    sys: &mut System,
    pot: &dyn Potential,
    opts: &TensileOptions,
) -> Vec<StressStrainPoint> {
    let mut md = opts.md;
    md.thermostat = Some(Berendsen {
        target_t: opts.temperature,
        tau: 0.1,
    });

    // strain per increment so that the product reaches (1 + total)
    let step_factor = (1.0 + opts.total_strain).powf(1.0 / opts.n_increments as f64);
    let mut curve = Vec::with_capacity(opts.n_increments + 1);
    let l0 = sys.cell.lengths[opts.axis];

    let record = |sys: &System, pot: &dyn Potential, curve: &mut Vec<StressStrainPoint>| {
        let nl = NeighborList::build(sys, pot.cutoff());
        let out = pot.compute(sys, &nl);
        let v = sys.cell.volume();
        // σ_zz = (Σ m v_z² + W_zz)/V ; tension positive
        let mut kinetic_zz = 0.0;
        for i in 0..sys.n_local {
            let m = sys.masses[sys.types[i]];
            kinetic_zz +=
                m * sys.velocities[i][opts.axis] * sys.velocities[i][opts.axis] * units::MV2E;
        }
        let stress_ev_a3 = (kinetic_zz + out.virial[opts.axis]) / v;
        let stress_gpa = -stress_ev_a3 * units::EV_PER_A3_TO_BAR * 1.0e-4;
        curve.push(StressStrainPoint {
            strain: sys.cell.lengths[opts.axis] / l0 - 1.0,
            stress_gpa,
            temperature: sys.temperature(),
        });
    };

    record(sys, pot, &mut curve);
    for _ in 0..opts.n_increments {
        apply_strain_increment(sys, opts.axis, step_factor);
        run_md(sys, pot, &md, opts.steps_per_increment, |_| {});
        record(sys, pot, &mut curve);
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice;
    use crate::potential::eam::SuttonChen;
    use crate::CounterRng;

    #[test]
    fn strain_increment_scales_cell_and_positions() {
        let mut sys = lattice::copper([2, 2, 2]);
        let lz0 = sys.cell.lengths[2];
        let z0 = sys.positions[5][2];
        apply_strain_increment(&mut sys, 2, 1.05);
        assert!((sys.cell.lengths[2] - lz0 * 1.05).abs() < 1e-12);
        assert!((sys.positions[5][2] - z0 * 1.05).abs() < 1e-12);
        // other axes untouched
        assert!((sys.cell.lengths[0] - lz0).abs() < 1e-12);
    }

    #[test]
    fn elastic_region_stress_increases_with_strain() {
        // Small cold single crystal: stress should rise monotonically for
        // small strains (elastic regime).
        let mut sys = lattice::copper([4, 4, 4]);
        let mut rng = CounterRng::new(123);
        sys.init_velocities(1.0, &mut rng); // nearly cold
        let sc = SuttonChen::copper_short();
        let opts = TensileOptions {
            total_strain: 0.02,
            n_increments: 4,
            steps_per_increment: 20,
            temperature: 1.0,
            ..Default::default()
        };
        let curve = tensile_test(&mut sys, &sc, &opts);
        assert_eq!(curve.len(), 5);
        let s0 = curve[0].stress_gpa;
        let s_end = curve.last().unwrap().stress_gpa;
        assert!(
            s_end > s0 + 0.1,
            "no tensile stress developed: {s0} -> {s_end}"
        );
        // strain endpoints
        assert!(curve[0].strain.abs() < 1e-12);
        assert!((curve.last().unwrap().strain - 0.02).abs() < 1e-9);
    }

    #[test]
    fn unstrained_crystal_near_zero_stress() {
        let sys = lattice::copper([4, 4, 4]);
        let sc = SuttonChen::copper_short();
        let nl = NeighborList::build(&sys, sc.cutoff());
        let out = sc.compute(&sys, &nl);
        // Sutton-Chen at the experimental a0 is near but not exactly at its
        // own equilibrium; pressure magnitude should still be modest.
        let p = out.pressure(&sys).abs();
        assert!(p < 6.0e4, "pressure {p} bar is implausible");
    }
}

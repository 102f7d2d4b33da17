//! LAMMPS "metal" unit system: length Å, energy eV, time ps, mass amu,
//! temperature K, pressure bar.

/// Boltzmann constant, eV / K.
pub const KB: f64 = 8.617333262e-5;

/// Force→acceleration conversion: `a [Å/ps²] = MVV2E * F [eV/Å] / m [amu]`.
///
/// 1 eV/Å / 1 amu = 9.648533e17 m/s² = 9648.533 Å/ps².
pub const FORCE_TO_ACCEL: f64 = 9648.53290731446;

/// Kinetic energy: `E [eV] = m [amu] * v² [Å²/ps²] / (2 * FORCE_TO_ACCEL)`.
pub const MV2E: f64 = 1.0 / FORCE_TO_ACCEL;

/// Pressure conversion: `P [bar] = PRESS * (virial [eV] / volume [Å³])`.
///
/// 1 eV/Å³ = 1.602176634e6 bar.
pub const EV_PER_A3_TO_BAR: f64 = 1.602176634e6;

/// Equipartition temperature (K) of `n_atoms` atoms carrying `ke` (eV) of
/// kinetic energy in total; 0 for an empty set.
pub fn temperature(ke: f64, n_atoms: usize) -> f64 {
    if n_atoms == 0 {
        return 0.0;
    }
    let dof = (3 * n_atoms) as f64;
    2.0 * ke / (dof * KB)
}

/// Instantaneous pressure (bar) of `n_atoms` atoms at `temperature` (K) in
/// `volume` (Å³): ideal-gas term plus the trace of `virial`
/// (`[xx, yy, zz, xy, xz, yz]`, eV).
pub fn pressure(n_atoms: usize, temperature: f64, virial: &[f64; 6], volume: f64) -> f64 {
    let w = (virial[0] + virial[1] + virial[2]) / 3.0;
    let nkt = n_atoms as f64 * KB * temperature;
    (nkt + w) / volume * EV_PER_A3_TO_BAR
}

/// Atomic masses (amu) for the species used in the paper's benchmarks.
pub const MASS_H: f64 = 1.008;
pub const MASS_O: f64 = 15.999;
pub const MASS_CU: f64 = 63.546;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinetic_energy_of_thermal_atom() {
        // Equipartition: <1/2 m v_x^2> = 1/2 kB T. For copper at 300 K the
        // rms 1D speed is sqrt(kB*T*FORCE_TO_ACCEL/m) ≈ 1.98 Å/ps.
        let t = 300.0;
        let v = (KB * t * FORCE_TO_ACCEL / MASS_CU).sqrt();
        assert!((v - 1.98).abs() < 0.03, "v = {v}");
        // And the kinetic energy of that 1D motion equals kB T / 2.
        let ke = 0.5 * MASS_CU * v * v * MV2E;
        assert!((ke - 0.5 * KB * t).abs() < 1e-12);
    }

    #[test]
    fn pressure_conversion_magnitude() {
        // 1 eV per (10 Å)³ ≈ 1602 bar.
        let p = EV_PER_A3_TO_BAR * (1.0 / 1000.0);
        assert!((p - 1602.176634).abs() < 1e-6);
    }
}

//! MD checkpoint payload: a bit-exact snapshot of the atom state plus the
//! trajectory progress, in the `dp-ckpt` container (kind [`dp_ckpt::KIND_MD`]).
//!
//! This is the reproduction's analogue of a LAMMPS restart file (§5.4 of
//! the paper runs DeePMD-kit under LAMMPS, whose `restart`/`read_restart`
//! commands make multi-hour production trajectories survivable): positions,
//! velocities, forces, species, masses, the cell, the step counter and the
//! thermostat RNG draw counter — everything `run_md_resumable` needs to
//! continue the identical floating-point path.
//!
//! It is the workspace's one atom-state codec: a rank shard (`dp-parallel`)
//! and an ensemble generation (`dp-replica`) carry their atoms as nested
//! payloads of this kind ([`MdCheckpoint::put_nested`]).

use crate::cell::Cell;
use crate::integrate::MdProgress;
use crate::system::System;
use dp_ckpt::{CkptError, CkptReader, CkptWriter, Dec, Enc, Rotation, KIND_MD};
use std::path::PathBuf;

const SEC_META: [u8; 4] = *b"META";
const SEC_CELL: [u8; 4] = *b"CELL";
const SEC_POS: [u8; 4] = *b"POS ";
const SEC_VEL: [u8; 4] = *b"VEL ";
const SEC_FRC: [u8; 4] = *b"FRC ";
const SEC_TYP: [u8; 4] = *b"TYP ";
const SEC_MAS: [u8; 4] = *b"MAS ";

/// One MD checkpoint: global (ghost-free) atom state + progress.
#[derive(Debug, Clone, PartialEq)]
pub struct MdCheckpoint {
    pub progress: MdProgress,
    pub cell: Cell,
    pub positions: Vec<[f64; 3]>,
    pub velocities: Vec<[f64; 3]>,
    pub forces: Vec<[f64; 3]>,
    pub types: Vec<usize>,
    pub masses: Vec<f64>,
}

impl MdCheckpoint {
    /// Snapshot the locally-owned atoms of `sys` (ghosts are excluded —
    /// a checkpoint always holds the global, owner-ordered state).
    pub fn capture(sys: &System, progress: MdProgress) -> Self {
        let n = sys.n_local;
        Self {
            progress,
            cell: sys.cell,
            positions: sys.positions[..n].to_vec(),
            velocities: sys.velocities[..n].to_vec(),
            forces: sys.forces[..n].to_vec(),
            types: sys.types[..n].to_vec(),
            masses: sys.masses.clone(),
        }
    }

    /// Rebuild the `System` (all atoms local) and the progress to hand to
    /// [`crate::integrate::run_md_resumable`].
    pub fn restore(&self) -> (System, MdProgress) {
        let mut sys = System::new(
            self.cell,
            self.positions.clone(),
            self.types.clone(),
            self.masses.clone(),
        );
        sys.velocities = self.velocities.clone();
        sys.forces = self.forces.clone();
        (sys, self.progress)
    }

    pub fn to_writer(&self) -> CkptWriter {
        let mut w = CkptWriter::new(KIND_MD);

        let mut meta = Enc::new();
        meta.put_u64(self.progress.step as u64);
        meta.put_u64(self.progress.rng_draws);
        meta.put_u64(self.positions.len() as u64);
        w.add_section(SEC_META, meta.into_bytes());

        let mut cell = Enc::new();
        for &l in &self.cell.lengths {
            cell.put_f64(l);
        }
        cell.put_u8(self.cell.periodic as u8);
        w.add_section(SEC_CELL, cell.into_bytes());

        let mut e = Enc::new();
        e.put_vec3s(&self.positions);
        w.add_section(SEC_POS, e.into_bytes());
        let mut e = Enc::new();
        e.put_vec3s(&self.velocities);
        w.add_section(SEC_VEL, e.into_bytes());
        let mut e = Enc::new();
        e.put_vec3s(&self.forces);
        w.add_section(SEC_FRC, e.into_bytes());
        let mut e = Enc::new();
        e.put_usizes(&self.types);
        w.add_section(SEC_TYP, e.into_bytes());
        let mut e = Enc::new();
        e.put_f64s(&self.masses);
        w.add_section(SEC_MAS, e.into_bytes());
        w
    }

    pub fn from_reader(r: &CkptReader) -> Result<Self, CkptError> {
        r.expect_kind(KIND_MD)?;
        let mut meta = Dec::new(r.section(SEC_META)?);
        let step = meta.get_u64()? as usize;
        let rng_draws = meta.get_u64()?;
        let n_atoms = meta.get_u64()? as usize;

        let mut c = Dec::new(r.section(SEC_CELL)?);
        let lengths = [c.get_f64()?, c.get_f64()?, c.get_f64()?];
        let periodic = c.get_u8()? != 0;
        for &l in &lengths {
            // NaN fails too
            if l.is_nan() || l <= 0.0 {
                return Err(CkptError::Malformed(format!("cell length {l}")));
            }
        }
        let cell = if periodic {
            Cell::orthorhombic(lengths[0], lengths[1], lengths[2])
        } else {
            Cell::open(lengths[0], lengths[1], lengths[2])
        };

        let positions = Dec::new(r.section(SEC_POS)?).get_vec3s()?;
        let velocities = Dec::new(r.section(SEC_VEL)?).get_vec3s()?;
        let forces = Dec::new(r.section(SEC_FRC)?).get_vec3s()?;
        let types = Dec::new(r.section(SEC_TYP)?).get_usizes()?;
        let masses = Dec::new(r.section(SEC_MAS)?).get_f64s()?;

        if positions.len() != n_atoms
            || velocities.len() != n_atoms
            || forces.len() != n_atoms
            || types.len() != n_atoms
        {
            return Err(CkptError::Malformed(format!(
                "array lengths disagree with atom count {n_atoms}"
            )));
        }
        if let Some(&t) = types.iter().find(|&&t| t >= masses.len()) {
            return Err(CkptError::Malformed(format!(
                "type {t} has no mass entry (only {} masses)",
                masses.len()
            )));
        }
        Ok(Self {
            progress: MdProgress { step, rng_draws },
            cell,
            positions,
            velocities,
            forces,
            types,
            masses,
        })
    }

    /// Append this checkpoint as one length-prefixed nested container: the
    /// way a rank shard or an ensemble generation carries atom state.
    pub fn put_nested(&self, e: &mut Enc) {
        e.put_bytes(&self.to_writer().to_bytes());
    }

    /// Read one [`Self::put_nested`] payload back; the nested container is
    /// validated (magic, version, CRCs, kind) exactly like a file.
    pub fn get_nested(d: &mut Dec) -> Result<Self, CkptError> {
        Self::from_reader(&CkptReader::from_bytes(d.get_bytes()?)?)
    }

    /// Write into the next rotation slot (atomic, shifts older generations).
    pub fn save(&self, rot: &Rotation) -> std::io::Result<PathBuf> {
        rot.save(&self.to_writer())
    }

    /// Load the newest valid generation from a rotation.
    pub fn load(rot: &Rotation) -> Result<(Self, PathBuf), CkptError> {
        let (reader, path) = rot.load_newest_valid(KIND_MD)?;
        Ok((Self::from_reader(&reader)?, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice;
    use crate::rng::CounterRng;
    use crate::units;

    fn snapshot() -> MdCheckpoint {
        let mut sys = lattice::fcc(5.26, [2, 2, 2], 39.948);
        let mut rng = CounterRng::new(11);
        sys.init_velocities(40.0, &mut rng);
        for (i, f) in sys.forces.iter_mut().enumerate() {
            *f = [i as f64 * 0.1, -(i as f64), 1.0 / (i + 1) as f64];
        }
        MdCheckpoint::capture(
            &sys,
            MdProgress {
                step: 1234,
                rng_draws: 99,
            },
        )
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = snapshot();
        let bytes = ck.to_writer().to_bytes();
        let back = MdCheckpoint::from_reader(&CkptReader::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(back.progress, ck.progress);
        assert_eq!(back.types, ck.types);
        assert_eq!(back.masses, ck.masses);
        for (a, b) in ck.positions.iter().zip(&back.positions) {
            for k in 0..3 {
                assert_eq!(a[k].to_bits(), b[k].to_bits());
            }
        }
        for (a, b) in ck.forces.iter().zip(&back.forces) {
            for k in 0..3 {
                assert_eq!(a[k].to_bits(), b[k].to_bits());
            }
        }
        let (sys, progress) = back.restore();
        assert_eq!(progress.step, 1234);
        assert_eq!(sys.n_local, sys.len());
        assert_eq!(sys.len(), ck.positions.len());
    }

    #[test]
    fn ghosts_are_excluded_from_capture() {
        let mut sys = lattice::fcc(5.26, [2, 2, 2], 39.948);
        let n = sys.len();
        sys.n_local = n / 2; // pretend the rest are ghosts
        let ck = MdCheckpoint::capture(&sys, MdProgress::default());
        assert_eq!(ck.positions.len(), n / 2);
    }

    #[test]
    fn type_without_mass_is_malformed_not_panic() {
        let mut ck = snapshot();
        ck.types[0] = 57; // no such species
        let bytes = ck.to_writer().to_bytes();
        let err = MdCheckpoint::from_reader(&CkptReader::from_bytes(&bytes).unwrap()).unwrap_err();
        assert!(matches!(err, CkptError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn rotation_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("dp-md-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let rot = Rotation::new(dir.join("md.ckpt"), 2);
        let _ = std::fs::remove_file(rot.slot_path(0));
        let _ = std::fs::remove_file(rot.slot_path(1));
        let ck = snapshot();
        ck.save(&rot).unwrap();
        let (back, path) = MdCheckpoint::load(&rot).unwrap();
        assert_eq!(path, rot.slot_path(0));
        assert_eq!(back, ck);
        let _ = std::fs::remove_file(rot.slot_path(0));
    }

    #[test]
    fn water_masses_survive() {
        let sys = lattice::water_box([2, 2, 2], 3.104);
        let ck = MdCheckpoint::capture(&sys, MdProgress::default());
        let bytes = ck.to_writer().to_bytes();
        let back = MdCheckpoint::from_reader(&CkptReader::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(back.masses, vec![units::MASS_O, units::MASS_H]);
    }
}

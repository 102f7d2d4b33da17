//! One rank's checkpoint shard, and the one assembly of per-rank atoms
//! into a global checkpoint.
//!
//! Written by each rank at every checkpoint step, right after the
//! post-checkpoint realignment (migrate → sort-by-id) — the instant at
//! which the live state is provably identical to what a restart from the
//! global checkpoint would scatter onto this rank. The shards of all ranks
//! at one step therefore [`assemble`] into that step's global checkpoint,
//! and a restart from it replays the trajectory bit-exactly.
//!
//! A shard file is a [`KIND_SHARD`] container at `<base>.rank<r>`, written
//! and loaded through a one-generation [`Rotation`] like every other
//! checkpoint. It holds the rank label, the owned atoms' global ids and
//! one nested [`MdCheckpoint`] of those atoms. Shards are a cache, not the
//! system of record: a torn or corrupt shard only fails localized
//! recovery, and the supervisor escalates to the global rotation. Hence a
//! single generation.

use crate::comm::OwnedAtom;
use dp_ckpt::{CkptError, CkptWriter, Dec, Enc, Rotation, KIND_SHARD};
use dp_md::checkpoint::MdCheckpoint;
use dp_md::integrate::MdProgress;
use dp_md::Cell;
use std::path::{Path, PathBuf};

const SEC_RANK: [u8; 4] = *b"RANK";
const SEC_IDS: [u8; 4] = *b"IDS ";
const SEC_STATE: [u8; 4] = *b"MDCK";

/// Lay atoms gathered from any number of ranks out by global id: the
/// assembly behind the checkpoint gather, the shard source and the
/// final-state gather. `None` unless the ids are exactly `0..n`.
pub(crate) fn assemble(
    atoms: impl IntoIterator<Item = OwnedAtom>,
    n: usize,
    cell: Cell,
    masses: &[f64],
    progress: MdProgress,
) -> Option<MdCheckpoint> {
    let mut ck = MdCheckpoint {
        progress,
        cell,
        positions: vec![[0.0; 3]; n],
        velocities: vec![[0.0; 3]; n],
        forces: vec![[0.0; 3]; n],
        types: vec![0; n],
        masses: masses.to_vec(),
    };
    let mut seen = vec![false; n];
    for a in atoms {
        let id = a.id as usize;
        match seen.get_mut(id) {
            Some(s) if !*s => *s = true,
            _ => return None,
        }
        ck.positions[id] = a.position;
        ck.velocities[id] = a.velocity;
        ck.forces[id] = a.force;
        ck.types[id] = a.ty as usize;
    }
    seen.iter().all(|&s| s).then_some(ck)
}

/// Rank `rank`'s shard file, `<base>.rank<r>`, as a one-generation
/// rotation.
pub(crate) fn shard_rotation(base: &Path, rank: usize) -> Rotation {
    let mut name = base.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".rank{rank}"));
    Rotation::new(base.with_file_name(name), 1)
}

/// The locally-owned atoms of one rank at one checkpoint step (no
/// ghosts), in global-id order: `ids[k]` is the global id of atom `k` of
/// `state`, whose progress labels the step.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RankShard {
    pub rank: usize,
    pub ids: Vec<usize>,
    pub state: MdCheckpoint,
}

impl RankShard {
    pub fn atoms(&self) -> impl Iterator<Item = OwnedAtom> + '_ {
        let s = &self.state;
        self.ids.iter().enumerate().map(|(k, &id)| OwnedAtom {
            id: id as u64,
            ty: s.types[k] as u32,
            position: s.positions[k],
            velocity: s.velocities[k],
            force: s.forces[k],
        })
    }

    /// Atomically write this shard to `<base>.rank<r>`.
    pub fn save(&self, base: &Path) -> std::io::Result<PathBuf> {
        let mut w = CkptWriter::new(KIND_SHARD);
        let mut e = Enc::new();
        e.put_u64(self.rank as u64);
        w.add_section(SEC_RANK, e.into_bytes());
        let mut e = Enc::new();
        e.put_usizes(&self.ids);
        w.add_section(SEC_IDS, e.into_bytes());
        let mut e = Enc::new();
        self.state.put_nested(&mut e);
        w.add_section(SEC_STATE, e.into_bytes());
        shard_rotation(base, self.rank).save(&w)
    }

    /// Load and validate rank `rank`'s shard from `<base>.rank<r>`. Any
    /// failure is typed; the caller decides whether to escalate to the
    /// global rotation.
    pub fn load(base: &Path, rank: usize) -> Result<Self, CkptError> {
        let (r, _) = shard_rotation(base, rank).load_newest_valid(KIND_SHARD)?;
        let label = Dec::new(r.section(SEC_RANK)?).get_u64()?;
        if label != rank as u64 {
            return Err(CkptError::Malformed(format!(
                "shard file for rank {rank} carries rank {label}"
            )));
        }
        let ids = Dec::new(r.section(SEC_IDS)?).get_usizes()?;
        let state = MdCheckpoint::get_nested(&mut Dec::new(r.section(SEC_STATE)?))?;
        if ids.len() != state.positions.len() {
            return Err(CkptError::Malformed(format!(
                "shard for rank {rank} has {} ids for {} atoms",
                ids.len(),
                state.positions.len()
            )));
        }
        Ok(Self { rank, ids, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rank: usize) -> RankShard {
        RankShard {
            rank,
            ids: vec![5, 9, 12],
            state: MdCheckpoint {
                progress: MdProgress {
                    step: 40,
                    rng_draws: 3,
                },
                cell: Cell::orthorhombic(10.0, 11.0, 12.0),
                positions: vec![[1.0, 2.0, 3.0]; 3],
                velocities: vec![[0.1, -0.2, 0.3]; 3],
                forces: vec![[-1.5, 0.0, 2.5]; 3],
                types: vec![0, 0, 1],
                masses: vec![63.546, 1.008],
            },
        }
    }

    #[test]
    fn shard_paths_are_per_rank_beside_the_base() {
        let base = Path::new("/tmp/run.ckpt");
        assert_eq!(
            shard_rotation(base, 0).slot_path(0),
            PathBuf::from("/tmp/run.ckpt.rank0")
        );
        assert_eq!(
            shard_rotation(base, 12).slot_path(0),
            PathBuf::from("/tmp/run.ckpt.rank12")
        );
        assert_eq!(shard_rotation(base, 3).keep(), 1);
    }

    #[test]
    fn save_load_roundtrip_and_rank_label() {
        let dir = std::env::temp_dir().join("dp-parallel-rankshard");
        let _ = std::fs::remove_dir_all(&dir);
        let base = dir.join("run.ckpt");
        let path = sample(2).save(&base).unwrap();
        assert_eq!(path, shard_rotation(&base, 2).slot_path(0));
        assert_eq!(RankShard::load(&base, 2).unwrap(), sample(2));
        // a shard copied under the wrong rank's name is rejected by its label
        std::fs::copy(&path, shard_rotation(&base, 0).slot_path(0)).unwrap();
        assert!(matches!(
            RankShard::load(&base, 0),
            Err(CkptError::Malformed(_))
        ));
    }
}

//! One rank's domain payload for per-rank checkpoint shards, and the one
//! assembly of per-rank atoms into a global checkpoint.
//!
//! Written by each rank at every checkpoint step, right after the
//! post-checkpoint realignment (migrate → sort-by-id) — the instant at
//! which the live state is provably identical to what a restart from the
//! global checkpoint would scatter onto this rank. The shards of all ranks
//! at one step therefore [`assemble`] into that step's global checkpoint,
//! and a restart from it replays the trajectory bit-exactly.

use crate::comm::OwnedAtom;
use dp_ckpt::{CkptError, CkptReader, CkptWriter, Dec, Enc, ShardSet, KIND_SHARD};
use dp_md::checkpoint::MdCheckpoint;
use dp_md::integrate::MdProgress;
use dp_md::Cell;

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

/// The locally-owned atoms of one rank at one checkpoint step (no
/// ghosts), in global-id order, plus the progress labels every other
/// checkpoint carries.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RankShard {
    pub step: u64,
    pub rng_draws: u64,
    pub rank: u64,
    pub ids: Vec<u64>,
    pub types: Vec<usize>,
    pub positions: Vec<[f64; 3]>,
    pub velocities: Vec<[f64; 3]>,
    pub forces: Vec<[f64; 3]>,
}

impl RankShard {
    pub fn atoms(&self) -> impl Iterator<Item = OwnedAtom> + '_ {
        (0..self.ids.len()).map(|k| OwnedAtom {
            id: self.ids[k],
            ty: self.types[k] as u32,
            position: self.positions[k],
            velocity: self.velocities[k],
            force: self.forces[k],
        })
    }

    pub fn to_writer(&self) -> CkptWriter {
        let mut w = CkptWriter::new(KIND_SHARD);
        let mut meta = Enc::new();
        meta.put_u64(self.step);
        meta.put_u64(self.rng_draws);
        meta.put_u64(self.rank);
        meta.put_u64(self.ids.len() as u64);
        w.add_section(*b"META", meta.into_bytes());
        let mut ids = Enc::new();
        ids.put_u64(self.ids.len() as u64);
        for &id in &self.ids {
            ids.put_u64(id);
        }
        w.add_section(*b"IDS ", ids.into_bytes());
        let mut e = Enc::new();
        e.put_usizes(&self.types);
        w.add_section(*b"TYP ", e.into_bytes());
        let mut e = Enc::new();
        e.put_vec3s(&self.positions);
        w.add_section(*b"POS ", e.into_bytes());
        let mut e = Enc::new();
        e.put_vec3s(&self.velocities);
        w.add_section(*b"VEL ", e.into_bytes());
        let mut e = Enc::new();
        e.put_vec3s(&self.forces);
        w.add_section(*b"FRC ", e.into_bytes());
        w
    }

    pub fn from_reader(r: &CkptReader) -> Result<Self, CkptError> {
        let mut meta = Dec::new(r.section(*b"META")?);
        let step = meta.get_u64()?;
        let rng_draws = meta.get_u64()?;
        let rank = meta.get_u64()?;
        let n = meta.get_u64()? as usize;
        let mut d = Dec::new(r.section(*b"IDS ")?);
        let len = d.get_u64()? as usize;
        let mut ids = Vec::with_capacity(len.min(n));
        for _ in 0..len {
            ids.push(d.get_u64()?);
        }
        let types = Dec::new(r.section(*b"TYP ")?).get_usizes()?;
        let positions = Dec::new(r.section(*b"POS ")?).get_vec3s()?;
        let velocities = Dec::new(r.section(*b"VEL ")?).get_vec3s()?;
        let forces = Dec::new(r.section(*b"FRC ")?).get_vec3s()?;
        let shard = Self {
            step,
            rng_draws,
            rank,
            ids,
            types,
            positions,
            velocities,
            forces,
        };
        if shard.ids.len() != n
            || shard.types.len() != n
            || shard.positions.len() != n
            || shard.velocities.len() != n
            || shard.forces.len() != n
        {
            return Err(CkptError::Malformed(format!(
                "shard for rank {rank} declares {n} atoms but section lengths disagree"
            )));
        }
        Ok(shard)
    }

    /// Atomically write this shard into `set` under its own rank slot.
    pub fn save(&self, set: &ShardSet) -> std::io::Result<std::path::PathBuf> {
        set.save(self.rank as usize, &self.to_writer())
    }

    /// Load + validate rank `rank`'s shard from `set`.
    pub fn load(set: &ShardSet, rank: usize) -> Result<Self, CkptError> {
        let r = set.load(rank)?;
        let shard = Self::from_reader(&r)?;
        if shard.rank as usize != rank {
            return Err(CkptError::Malformed(format!(
                "shard file for rank {rank} carries rank {}",
                shard.rank
            )));
        }
        Ok(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rank: u64) -> RankShard {
        RankShard {
            step: 40,
            rng_draws: 3,
            rank,
            ids: vec![5, 9, 12],
            types: vec![0, 0, 1],
            positions: vec![[1.0, 2.0, 3.0]; 3],
            velocities: vec![[0.1, -0.2, 0.3]; 3],
            forces: vec![[-1.5, 0.0, 2.5]; 3],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let s = sample(1);
        let bytes = s.to_writer().to_bytes();
        let r = CkptReader::from_bytes(&bytes).unwrap();
        let back = RankShard::from_reader(&r).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn save_load_through_shard_set() {
        let dir = std::env::temp_dir().join("dp-parallel-rankshard");
        let _ = std::fs::remove_dir_all(&dir);
        let set = ShardSet::new(dir.join("run.ckpt"));
        sample(2).save(&set).unwrap();
        let back = RankShard::load(&set, 2).unwrap();
        assert_eq!(back, sample(2));
        // a shard saved under the wrong slot is rejected by the rank label
        sample(2).to_writer().write_atomic(&set.path(0)).unwrap();
        assert!(matches!(
            RankShard::load(&set, 0),
            Err(CkptError::Malformed(_))
        ));
    }
}

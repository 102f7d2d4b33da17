//! One rank's atoms and the halo traffic around them (§5.4).
//!
//! A rank keeps its atoms in ONE [`System`]: the owned atoms first
//! (`..n_local`, parallel to [`RankState::ids`]), the ghosts appended by
//! [`exchange`]. The force provider reads that `System` directly and
//! `dp_md::integrate` steps its owned prefix in place, so nothing is
//! copied between a "rank state" and a "local view" (§5.2.2). The
//! functions here are the LAMMPS communication cycle the paper inherits:
//! [`migrate`] (owner change), [`exchange`] (full ghost set at a rebuild),
//! [`forward_comm`] (ghost position refresh between rebuilds) and
//! [`reverse_comm`] (ghost forces back to their owners). Every schedule is
//! static and collective.

use crate::comm::{CommError, GhostAtom, Msg, OwnedAtom, RankComm};
use crate::driver::RankStats;
use crate::grid::DomainGrid;
use crate::shard::RankShard;
use dp_md::checkpoint::MdCheckpoint;
use dp_md::integrate::MdProgress;
use dp_md::{Cell, System};

pub(crate) struct RankState {
    pub rank: usize,
    /// Global ids of the owned atoms (`ids.len() == sys.n_local`).
    pub ids: Vec<u64>,
    /// Owned atoms first, ghosts after; ghost velocities stay zero.
    pub sys: System,
    /// partners (sorted rank ids) for the halo width in use
    partners: Vec<usize>,
    /// per partner: owned indices shipped as ghosts
    send_lists: Vec<Vec<u32>>,
    /// per partner: number of ghosts received (appended in partner order)
    recv_counts: Vec<usize>,
}

impl RankState {
    pub fn empty(rank: usize, partners: Vec<usize>, cell: Cell, masses: Vec<f64>) -> Self {
        Self {
            rank,
            ids: Vec::new(),
            sys: System::new(cell, Vec::new(), Vec::new(), masses),
            partners,
            send_lists: Vec::new(),
            recv_counts: Vec::new(),
        }
    }

    /// Append one owned atom (no ghosts may be present).
    pub fn push_owned(&mut self, a: OwnedAtom) {
        debug_assert_eq!(
            self.sys.len(),
            self.ids.len(),
            "push requires ghosts truncated"
        );
        self.ids.push(a.id);
        self.sys.types.push(a.ty as usize);
        self.sys.positions.push(a.position);
        self.sys.velocities.push(a.velocity);
        self.sys.forces.push(a.force);
        self.sys.n_local = self.ids.len();
    }

    /// The `k`-th owned atom as a record.
    fn owned(&self, k: usize) -> OwnedAtom {
        OwnedAtom {
            id: self.ids[k],
            ty: self.sys.types[k] as u32,
            position: self.sys.positions[k],
            velocity: self.sys.velocities[k],
            force: self.sys.forces[k],
        }
    }

    /// Keep the first `n` owned atoms; everything beyond (ghosts included)
    /// is dropped.
    fn truncate(&mut self, n: usize) {
        self.ids.truncate(n);
        self.sys.types.truncate(n);
        self.sys.positions.truncate(n);
        self.sys.velocities.truncate(n);
        self.sys.forces.truncate(n);
        self.sys.n_local = self.ids.len();
    }

    /// Clone the owned atoms (locals are in global-id order at the capture
    /// point) into a shard payload.
    pub fn capture_shard(&self, step: usize, rng_draws: u64) -> RankShard {
        RankShard {
            rank: self.rank,
            ids: self.ids.iter().map(|&id| id as usize).collect(),
            state: MdCheckpoint::capture(&self.sys, MdProgress { step, rng_draws }),
        }
    }

    /// The owned atoms as records.
    pub fn owned_atoms(&self) -> impl Iterator<Item = OwnedAtom> + '_ {
        (0..self.ids.len()).map(|k| self.owned(k))
    }

    /// Sort the owned atoms into global-id order, dropping any ghosts. A
    /// checkpoint restart scatters atoms in exactly this order, so sorting
    /// after a gather puts the live run and any future recovery in the
    /// same state.
    pub fn sort_locals_by_id(&mut self) {
        let mut atoms: Vec<OwnedAtom> = self.owned_atoms().collect();
        atoms.sort_unstable_by_key(|a| a.id);
        self.truncate(0);
        atoms.into_iter().for_each(|a| self.push_owned(a));
    }
}

/// Migrate atoms whose owner changed to the new owner rank; the ghosts
/// are dropped (the next [`exchange`] re-ships them).
///
/// The schedule covers *every* rank pair, not just halo partners: with a
/// long interval between rebuilds a fast atom can cross beyond the halo
/// ring, and a partners-only schedule has no route for it. `RankComm` is a
/// full point-to-point mesh, so each rank sends one `Migrants` message to
/// every other rank — empty for the common case, which allocates nothing —
/// and the schedule stays static and collective. Kept atoms are compacted
/// in place. Forces travel with the atoms, so a migration between the
/// force evaluation and the next half-kick (the post-checkpoint
/// realignment) is lossless.
pub(crate) fn migrate(
    st: &mut RankState,
    comm: &RankComm,
    grid: &DomainGrid,
) -> Result<(), CommError> {
    let n_ranks = comm.to.len();
    let mut outbox: Vec<Vec<OwnedAtom>> = vec![Vec::new(); n_ranks];
    let mut w = 0usize;
    for k in 0..st.ids.len() {
        let owner = grid.rank_of_position(st.sys.positions[k]);
        if owner != st.rank {
            outbox[owner].push(st.owned(k));
            continue;
        }
        let sys = &mut st.sys;
        st.ids[w] = st.ids[k];
        sys.types[w] = sys.types[k];
        sys.positions[w] = sys.positions[k];
        sys.velocities[w] = sys.velocities[k];
        sys.forces[w] = sys.forces[k];
        w += 1;
    }
    st.truncate(w);
    for (dest, payload) in outbox.iter_mut().enumerate() {
        if dest != st.rank {
            comm.send(dest, Msg::Migrants(std::mem::take(payload)))?;
        }
    }
    for src in 0..n_ranks {
        if src == st.rank {
            continue;
        }
        match comm.recv(src)? {
            Msg::Migrants(v) => v.into_iter().for_each(|a| st.push_owned(a)),
            _ => return Err(CommError::protocol(src, "Migrants")),
        }
    }
    Ok(())
}

/// Full ghost exchange: recompute send lists and ship ghost atoms; append
/// received ghosts after the owned atoms.
pub(crate) fn exchange(
    st: &mut RankState,
    comm: &RankComm,
    grid: &DomainGrid,
    halo: f64,
    stats: &mut RankStats,
) -> Result<(), CommError> {
    let n_local = st.ids.len();
    // drop any previous ghosts
    st.truncate(n_local);

    // send lists are rebuilt in place (inner vectors keep their capacity);
    // the ghost payloads themselves are moved into the channel, so those
    // are the only per-exchange allocations left
    st.send_lists.resize_with(st.partners.len(), Vec::new);
    for (slot, &dest) in st.partners.iter().enumerate() {
        let list = &mut st.send_lists[slot];
        list.clear();
        for k in 0..n_local {
            if grid.distance_to_domain(st.sys.positions[k], dest) < halo {
                list.push(k as u32);
            }
        }
    }
    for (slot, &dest) in st.partners.iter().enumerate() {
        let ghosts: Vec<GhostAtom> = st.send_lists[slot]
            .iter()
            .map(|&k| GhostAtom {
                owner_index: k,
                ty: st.sys.types[k as usize] as u32,
                position: st.sys.positions[k as usize],
            })
            .collect();
        stats.ghost_atoms_sent += ghosts.len() as u64;
        dp_obs::counter("ghost_atoms_sent").add(ghosts.len() as u64);
        comm.send(dest, Msg::Ghosts(ghosts))?;
    }
    st.recv_counts.clear();
    st.recv_counts.resize(st.partners.len(), 0);
    for (slot, &src) in st.partners.iter().enumerate() {
        match comm.recv(src)? {
            Msg::Ghosts(v) => {
                st.recv_counts[slot] = v.len();
                for g in v {
                    st.sys.positions.push(g.position);
                    st.sys.types.push(g.ty as usize);
                }
            }
            _ => return Err(CommError::protocol(src, "Ghosts")),
        }
    }
    let n = st.sys.positions.len();
    st.sys.velocities.resize(n, [0.0; 3]);
    st.sys.forces.resize(n, [0.0; 3]);
    stats.last_ghosts = n - n_local;
    stats.max_ghosts = stats.max_ghosts.max(n - n_local);
    Ok(())
}

/// Forward communication between rebuilds: refresh ghost positions.
pub(crate) fn forward_comm(st: &mut RankState, comm: &RankComm) -> Result<(), CommError> {
    for (slot, &dest) in st.partners.iter().enumerate() {
        let positions: Vec<[f64; 3]> = st.send_lists[slot]
            .iter()
            .map(|&k| st.sys.positions[k as usize])
            .collect();
        comm.send(dest, Msg::GhostPositions(positions))?;
    }
    let mut offset = st.ids.len();
    for (slot, &src) in st.partners.iter().enumerate() {
        match comm.recv(src)? {
            Msg::GhostPositions(v) if v.len() == st.recv_counts[slot] => {
                st.sys.positions[offset..offset + v.len()].copy_from_slice(&v);
                offset += v.len();
            }
            _ => return Err(CommError::protocol(src, "GhostPositions as scheduled")),
        }
    }
    Ok(())
}

/// Reverse communication: send the forces accumulated on ghosts (the tail
/// of `sys.forces`, in partner order) back to their owners, and add the
/// ones received to the owned atoms.
pub(crate) fn reverse_comm(st: &mut RankState, comm: &RankComm) -> Result<(), CommError> {
    let mut offset = st.ids.len();
    for (&src, &count) in st.partners.iter().zip(&st.recv_counts) {
        let payload = st.sys.forces[offset..offset + count].to_vec();
        offset += count;
        comm.send(src, Msg::GhostForces(payload))?;
    }
    for (slot, &src) in st.partners.iter().enumerate() {
        match comm.recv(src)? {
            Msg::GhostForces(v) if v.len() == st.send_lists[slot].len() => {
                for (f, &k) in v.iter().zip(&st.send_lists[slot]) {
                    for (acc, x) in st.sys.forces[k as usize].iter_mut().zip(f) {
                        *acc += x;
                    }
                }
            }
            _ => return Err(CommError::protocol(src, "GhostForces as scheduled")),
        }
    }
    Ok(())
}

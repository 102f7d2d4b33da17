//! Rank-to-rank messaging and global reductions.
//!
//! Every operation that can be stalled by a dead peer returns
//! `Result<_, CommError>` instead of panicking or blocking forever:
//! point-to-point receives use `recv_timeout` with a configurable deadline,
//! and the condvar barrier inside [`Allreduce`] carries a poison flag a
//! failing rank sets on teardown so waiting peers wake with
//! [`CommError::PeerFailed`] instead of sleeping until the heat death of
//! the job (the emulated-MPI analogue of ULFM's revoked communicators).
//!
//! Every mesh message travels in an [`Envelope`] carrying an explicit
//! per-(sender, receiver) sequence number. The receiver checks it against
//! its own count: a gap or inversion is reported *deterministically* as
//! [`CommError::Protocol`] (plus a `comm.seq_gap` counter tick) at the
//! very next receive, instead of surfacing later as a message-shape
//! mismatch or a timeout. Sequence numbers are assigned *before* fault
//! injection decides to drop a message, so injected drops leave the same
//! gap a real loss would.
//!
//! When the observability subsystem is enabled, sends and receives also
//! feed `dp_obs` histograms (`comm.send_ns`, `comm.recv_wait_ns`,
//! `comm.reduce_wait_ns`, `comm.ghost_bytes`) — these land in the calling
//! rank's scoped registry, giving per-rank latency distributions.

use crate::fault::{FaultState, SendAction};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock ignoring poison: a rank that panics under `catch_unwind` while
/// holding a barrier's mutex must not take its survivors down with it
/// (every update under these locks leaves the state whole at each step).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default receive/reduce deadline. Generous: a healthy emulated rank
/// answers in microseconds, so hitting this means a peer is gone.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Why a communication operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer rank died: its channel endpoints were dropped, or it poisoned
    /// the reduction barrier on teardown.
    PeerFailed { rank: usize },
    /// No message from `from` arrived within the deadline.
    RecvTimeout { from: usize, deadline: Duration },
    /// A reduction did not complete within the deadline (some rank never
    /// contributed and also never tore down).
    ReduceTimeout { deadline: Duration },
    /// The message schedule broke: an unexpected message type or shape
    /// arrived (the downstream symptom of a dropped message).
    Protocol { from: usize, expected: &'static str },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerFailed { rank } => write!(f, "peer rank {rank} failed"),
            CommError::RecvTimeout { from, deadline } => {
                write!(f, "no message from rank {from} within {deadline:?}")
            }
            CommError::ReduceTimeout { deadline } => {
                write!(f, "allreduce did not complete within {deadline:?}")
            }
            CommError::Protocol { from, expected } => {
                write!(
                    f,
                    "protocol violation: expected {expected} from rank {from}"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

impl CommError {
    /// `from` broke the message schedule: it sent something other than
    /// `expected`.
    pub(crate) fn protocol(from: usize, expected: &'static str) -> Self {
        CommError::Protocol { from, expected }
    }
}

/// One ghost atom shipped at exchange time.
#[derive(Debug, Clone, Copy)]
pub struct GhostAtom {
    /// Owner-rank-local index (for reverse communication).
    pub owner_index: u32,
    pub ty: u32,
    pub position: [f64; 3],
}

/// One owned atom's full state: what migrates to a new owner, and what
/// a global checkpoint gathers to rank 0 (the MPI_Gather of a LAMMPS
/// `write_restart`). Forces ride along so a migration scheduled *between*
/// the force evaluation and the next half-kick (the post-checkpoint
/// realignment) loses nothing.
#[derive(Debug, Clone, Copy)]
pub struct OwnedAtom {
    /// Global atom id (stable across the run).
    pub id: u64,
    pub ty: u32,
    pub position: [f64; 3],
    pub velocity: [f64; 3],
    pub force: [f64; 3],
}

/// Messages between ranks.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Full ghost set (at neighbor-list rebuild).
    Ghosts(Vec<GhostAtom>),
    /// Position refresh for the previously shipped ghosts, same order.
    GhostPositions(Vec<[f64; 3]>),
    /// Forces accumulated on the receiver's atoms that were ghosts here,
    /// same order as the `Ghosts` they answer.
    GhostForces(Vec<[f64; 3]>),
    /// Atoms whose owner changed.
    Migrants(Vec<OwnedAtom>),
    /// Local atoms gathered to rank 0 for a global checkpoint.
    CkptAtoms(Vec<OwnedAtom>),
}

/// A mesh message plus its per-(sender, receiver) sequence number.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub seq: u64,
    pub msg: Msg,
}

/// Payload size of the ghost-exchange message variants (what the paper's
/// halo traffic is made of); 0 for non-ghost messages.
fn ghost_payload_bytes(msg: &Msg) -> u64 {
    match msg {
        Msg::Ghosts(v) => (v.len() * std::mem::size_of::<GhostAtom>()) as u64,
        Msg::GhostPositions(v) | Msg::GhostForces(v) => {
            (v.len() * std::mem::size_of::<[f64; 3]>()) as u64
        }
        Msg::Migrants(_) | Msg::CkptAtoms(_) => 0,
    }
}

/// Per-rank endpoints of a full point-to-point mesh.
pub struct RankComm {
    pub rank: usize,
    /// `to[r]` sends to rank r (None for self).
    pub to: Vec<Option<Sender<Envelope>>>,
    /// `from[r]` receives from rank r (None for self).
    pub from: Vec<Option<Receiver<Envelope>>>,
    /// How long `recv` waits before declaring the sender dead.
    pub deadline: Duration,
    /// Next sequence number per destination (assigned even to messages
    /// fault injection then drops, so drops leave a detectable gap).
    send_seq: Vec<AtomicU64>,
    /// Next expected sequence number per source.
    recv_seq: Vec<AtomicU64>,
    /// Sequence gaps/inversions this endpoint has detected (each one also
    /// surfaced as a [`CommError::Protocol`]); the soak-mode invariant
    /// auditor asserts this stays zero on a healthy mesh.
    seq_gaps: AtomicU64,
    /// Fault-injection hooks; `None` in production (one branch per send).
    faults: Option<Arc<FaultState>>,
}

impl RankComm {
    /// Build the mesh for `n` ranks with the default deadline and no
    /// fault injection.
    pub fn mesh(n: usize) -> Vec<RankComm> {
        Self::mesh_with(n, DEFAULT_DEADLINE, None)
    }

    /// Build the mesh with an explicit deadline and optional fault plan.
    pub fn mesh_with(
        n: usize,
        deadline: Duration,
        faults: Option<Arc<FaultState>>,
    ) -> Vec<RankComm> {
        // channels[i][j]: i -> j
        let mut senders: Vec<Vec<Option<Sender<Envelope>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut receivers: Vec<Vec<Option<Receiver<Envelope>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (s, r) = channel();
                senders[i][j] = Some(s);
                receivers[j][i] = Some(r);
            }
        }
        let mut out = Vec::with_capacity(n);
        for (rank, (to, from)) in senders.into_iter().zip(receivers).enumerate() {
            out.push(RankComm {
                rank,
                to,
                from,
                deadline,
                send_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
                recv_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
                seq_gaps: AtomicU64::new(0),
                faults: faults.clone(),
            });
        }
        out
    }

    pub fn send(&self, dest: usize, msg: Msg) -> Result<(), CommError> {
        // The sequence number is consumed before fault injection runs:
        // a dropped message leaves a gap the receiver detects.
        let seq = self.send_seq[dest].fetch_add(1, Ordering::Relaxed);
        if let Some(f) = &self.faults {
            match f.on_send(self.rank, dest) {
                SendAction::Deliver => {}
                SendAction::Drop => return Ok(()),
                SendAction::Delay(d) => std::thread::sleep(d),
            }
        }
        let tx = self.to[dest].as_ref();
        let tx = tx.ok_or(CommError::protocol(dest, "a non-self destination"))?;
        if dp_obs::enabled() {
            dp_obs::hist::record("comm.ghost_bytes", ghost_payload_bytes(&msg));
            let t0 = Instant::now();
            let res = tx
                .send(Envelope { seq, msg })
                .map_err(|_| CommError::PeerFailed { rank: dest });
            dp_obs::hist::record("comm.send_ns", t0.elapsed().as_nanos() as u64);
            res
        } else {
            tx.send(Envelope { seq, msg })
                .map_err(|_| CommError::PeerFailed { rank: dest })
        }
    }

    pub fn recv(&self, src: usize) -> Result<Msg, CommError> {
        let rx = self.from[src].as_ref();
        let rx = rx.ok_or(CommError::protocol(src, "a non-self source"))?;
        let t0 = dp_obs::enabled().then(Instant::now);
        let envelope = match rx.recv_timeout(self.deadline) {
            Ok(e) => e,
            Err(RecvTimeoutError::Disconnected) => return Err(CommError::PeerFailed { rank: src }),
            Err(RecvTimeoutError::Timeout) => {
                return Err(CommError::RecvTimeout {
                    from: src,
                    deadline: self.deadline,
                })
            }
        };
        if let Some(t0) = t0 {
            dp_obs::hist::record("comm.recv_wait_ns", t0.elapsed().as_nanos() as u64);
        }
        let expected = self.recv_seq[src].fetch_add(1, Ordering::Relaxed);
        if envelope.seq != expected {
            dp_obs::counter("comm.seq_gap").add(1);
            self.seq_gaps.fetch_add(1, Ordering::Relaxed);
            let expected = "the next message sequence number (a message was lost or reordered)";
            return Err(CommError::protocol(src, expected));
        }
        Ok(envelope.msg)
    }

    /// Sequence gaps this endpoint has detected so far (see `seq_gaps`).
    pub fn seq_gap_count(&self) -> u64 {
        self.seq_gaps.load(Ordering::Relaxed)
    }
}

struct ReduceState {
    /// Per-rank contribution slots, flattened `rank * width + k`. Summing
    /// slot-by-slot in rank order (instead of accumulating in arrival
    /// order) makes the float result independent of thread scheduling —
    /// required for bit-exact recovery replay.
    parts: Vec<f64>,
    arrived: usize,
    generation: u64,
    result: Vec<f64>,
    /// Copy of `parts` frozen at barrier completion, handed out by
    /// [`Allreduce::gather_into`] (the allgather view of the same
    /// barrier). A separate buffer: a fast rank may start writing the
    /// next generation's `parts` while slow waiters still read this one.
    gathered: Vec<f64>,
    /// Set by a failing rank on teardown; wakes every waiter with
    /// `PeerFailed` and fails all later calls.
    poisoned: Option<usize>,
}

/// Blocking sum-allreduce over `n` ranks (the `MPI_Allreduce` stand-in).
/// Counts invocations so benches can report reduction traffic.
pub struct Allreduce {
    n: usize,
    width: usize,
    state: Mutex<ReduceState>,
    cv: Condvar,
    ops: std::sync::atomic::AtomicU64,
    deadline: Duration,
}

impl Allreduce {
    pub fn new(n: usize, width: usize) -> Self {
        Self::with_deadline(n, width, DEFAULT_DEADLINE)
    }

    pub fn with_deadline(n: usize, width: usize, deadline: Duration) -> Self {
        Self {
            n,
            width,
            state: Mutex::new(ReduceState {
                parts: vec![0.0; n * width],
                arrived: 0,
                generation: 0,
                result: vec![0.0; width],
                gathered: vec![0.0; n * width],
                poisoned: None,
            }),
            cv: Condvar::new(),
            ops: std::sync::atomic::AtomicU64::new(0),
            deadline,
        }
    }

    /// Barrier core shared by [`Allreduce::reduce_into`] and
    /// [`Allreduce::gather_into`]: contribute `rank`'s slot, wait for the
    /// generation to complete, and return the locked state whose `result`
    /// (rank-ordered fold) and `gathered` (frozen slot copy) belong to
    /// this caller's generation. Records the wall time spent in the
    /// barrier into the `comm.reduce_wait_ns` histogram when enabled.
    fn arrive_and_wait(
        &self,
        rank: usize,
        contribution: &[f64],
    ) -> Result<MutexGuard<'_, ReduceState>, CommError> {
        assert_eq!(contribution.len(), self.width);
        let t0 = dp_obs::enabled().then(Instant::now);
        let record_wait = |t0: Option<Instant>| {
            if let Some(t0) = t0 {
                dp_obs::hist::record("comm.reduce_wait_ns", t0.elapsed().as_nanos() as u64);
            }
        };
        let mut st = lock(&self.state);
        if let Some(r) = st.poisoned {
            return Err(CommError::PeerFailed { rank: r });
        }
        let my_gen = st.generation;
        st.parts[rank * self.width..(rank + 1) * self.width].copy_from_slice(contribution);
        st.arrived += 1;
        if st.arrived == self.n {
            let s = &mut *st;
            s.gathered.copy_from_slice(&s.parts);
            s.result.fill(0.0);
            for r in 0..self.n {
                let slot = &s.parts[r * self.width..(r + 1) * self.width];
                for (acc, &c) in s.result.iter_mut().zip(slot) {
                    *acc += c;
                }
            }
            st.arrived = 0;
            st.generation += 1;
            self.ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.cv.notify_all();
            record_wait(t0);
            return Ok(st);
        }
        let (st, timeout) = self
            .cv
            .wait_timeout_while(st, self.deadline, |s| {
                s.generation == my_gen && s.poisoned.is_none()
            })
            .unwrap_or_else(PoisonError::into_inner);
        record_wait(t0);
        if st.generation != my_gen {
            // The barrier completed (possibly racing a poison): the
            // result is whole, hand it out.
            return Ok(st);
        }
        if let Some(r) = st.poisoned {
            return Err(CommError::PeerFailed { rank: r });
        }
        debug_assert!(timeout.timed_out());
        Err(CommError::ReduceTimeout {
            deadline: self.deadline,
        })
    }

    /// Contribute and wait for the global sum, written into `out` — no
    /// allocation (the §5.2.2 guarantee extended into comm). Every rank
    /// must call this the same number of times (like MPI). `rank` selects
    /// this caller's contribution slot; the completing call folds the slots
    /// in rank order, so the summation order (and therefore every last
    /// floating-point bit) is schedule-independent.
    pub fn reduce_into(
        &self,
        rank: usize,
        contribution: &[f64],
        out: &mut [f64],
    ) -> Result<(), CommError> {
        assert_eq!(out.len(), self.width);
        let st = self.arrive_and_wait(rank, contribution)?;
        out.copy_from_slice(&st.result);
        Ok(())
    }

    /// Allgather over the same barrier: every rank contributes `width`
    /// values and receives *all* contributions, rank-slot ordered
    /// (`out[r * width + k]` is rank r's k-th value). The imbalance
    /// heartbeat uses this so rank 0 can compute cross-rank max/mean/min
    /// of phase timings mid-run. Collective: do not mix a `gather_into`
    /// generation with `reduce_into` calls on other ranks — though the
    /// barrier itself would complete, each caller would read a different
    /// view. The driver keeps a dedicated `Allreduce` for gathers.
    pub fn gather_into(
        &self,
        rank: usize,
        contribution: &[f64],
        out: &mut [f64],
    ) -> Result<(), CommError> {
        assert_eq!(out.len(), self.n * self.width);
        let st = self.arrive_and_wait(rank, contribution)?;
        out.copy_from_slice(&st.gathered);
        Ok(())
    }

    /// Allocating convenience wrapper around [`Allreduce::reduce_into`].
    pub fn reduce(&self, rank: usize, contribution: &[f64]) -> Result<Vec<f64>, CommError> {
        let mut out = vec![0.0; self.width];
        self.reduce_into(rank, contribution, &mut out)?;
        Ok(out)
    }

    /// Mark `rank` as failed and wake every waiter. Called by the rank
    /// wrapper on teardown after a panic or comm error, so peers blocked in
    /// a reduction observe `PeerFailed` within one wakeup instead of
    /// waiting out the deadline.
    pub fn poison(&self, rank: usize) {
        let mut st = lock(&self.state);
        st.poisoned = Some(rank);
        self.cv.notify_all();
    }

    /// Number of completed reductions.
    pub fn operations(&self) -> u64 {
        self.ops.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mesh_delivers_messages() {
        let mesh = RankComm::mesh(3);
        mesh[0]
            .send(2, Msg::GhostPositions(vec![[1.0, 2.0, 3.0]]))
            .unwrap();
        match mesh[2].recv(0).unwrap() {
            Msg::GhostPositions(v) => assert_eq!(v[0], [1.0, 2.0, 3.0]),
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn mesh_channels_are_pairwise_ordered() {
        let mesh = RankComm::mesh(2);
        mesh[0]
            .send(1, Msg::GhostPositions(vec![[1.0; 3]]))
            .unwrap();
        mesh[0]
            .send(1, Msg::GhostPositions(vec![[2.0; 3]]))
            .unwrap();
        let first = mesh[1].recv(0).unwrap();
        let second = mesh[1].recv(0).unwrap();
        match (first, second) {
            (Msg::GhostPositions(a), Msg::GhostPositions(b)) => {
                assert_eq!(a[0][0], 1.0);
                assert_eq!(b[0][0], 2.0);
            }
            _ => panic!("order broken"),
        }
    }

    #[test]
    fn recv_times_out_with_typed_error() {
        let deadline = Duration::from_millis(50);
        let mesh = RankComm::mesh_with(2, deadline, None);
        let t0 = Instant::now();
        let err = mesh[0].recv(1).unwrap_err();
        assert_eq!(err, CommError::RecvTimeout { from: 1, deadline });
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn recv_from_dropped_peer_is_peer_failed() {
        let mut mesh = RankComm::mesh_with(2, Duration::from_secs(5), None);
        let dead = mesh.pop().unwrap(); // rank 1
        drop(dead);
        let t0 = Instant::now();
        assert_eq!(
            mesh[0].recv(1).unwrap_err(),
            CommError::PeerFailed { rank: 1 }
        );
        // disconnect is detected immediately, well inside the deadline
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn allreduce_sums_across_threads() {
        let n = 4;
        let ar = Arc::new(Allreduce::new(n, 2));
        let results: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let ar = ar.clone();
                    s.spawn(move || ar.reduce(r, &[r as f64, 1.0]).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for res in results {
            assert_eq!(res, vec![6.0, 4.0]);
        }
        assert_eq!(ar.operations(), 1);
    }

    #[test]
    fn allreduce_generations_do_not_mix() {
        let n = 3;
        let ar = Arc::new(Allreduce::new(n, 1));
        let sums: Vec<(f64, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let ar = ar.clone();
                    s.spawn(move || {
                        let a = ar.reduce(r, &[(r + 1) as f64]).unwrap()[0];
                        let b = ar.reduce(r, &[(r + 1) as f64 * 10.0]).unwrap()[0];
                        (a, b)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (a, b) in sums {
            assert_eq!(a, 6.0);
            assert_eq!(b, 60.0);
        }
        assert_eq!(ar.operations(), 2);
    }

    #[test]
    fn allreduce_summation_order_is_rank_order() {
        // Rank-slot summation: the result must equal the rank-ordered fold
        // bit-for-bit no matter which thread finishes the barrier.
        let n = 3;
        let contributions = [1.0e16, 1.0, -1.0e16];
        let expected = contributions.iter().fold(0.0f64, |a, &c| a + c);
        for _ in 0..20 {
            let ar = Arc::new(Allreduce::new(n, 1));
            let results: Vec<f64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|r| {
                        let ar = ar.clone();
                        s.spawn(move || ar.reduce(r, &[contributions[r]]).unwrap()[0])
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for v in results {
                assert_eq!(v.to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn reduce_into_matches_reduce() {
        let ar = Allreduce::new(1, 3);
        let mut out = [0.0; 3];
        ar.reduce_into(0, &[1.0, 2.0, 3.0], &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn poisoned_allreduce_wakes_waiters_with_peer_failed() {
        let n = 3;
        let ar = Arc::new(Allreduce::with_deadline(n, 1, Duration::from_secs(30)));
        let t0 = Instant::now();
        let errs: Vec<CommError> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|r| {
                    let ar = ar.clone();
                    s.spawn(move || ar.reduce(r, &[1.0]).unwrap_err())
                })
                .collect();
            std::thread::sleep(Duration::from_millis(30));
            ar.poison(2); // rank 2 "dies" without contributing
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in errs {
            assert_eq!(e, CommError::PeerFailed { rank: 2 });
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "waiters should wake on poison, not ride out the deadline"
        );
        // later calls fail fast too
        assert_eq!(
            ar.reduce(0, &[1.0]).unwrap_err(),
            CommError::PeerFailed { rank: 2 }
        );
    }

    #[test]
    fn gather_returns_every_ranks_slot_in_rank_order() {
        let n = 3;
        let width = 2;
        let ar = Arc::new(Allreduce::new(n, width));
        let views: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let ar = ar.clone();
                    s.spawn(move || {
                        let mut out = vec![0.0; n * width];
                        ar.gather_into(r, &[r as f64, 10.0 * r as f64], &mut out)
                            .unwrap();
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for v in views {
            assert_eq!(v, vec![0.0, 0.0, 1.0, 10.0, 2.0, 20.0]);
        }
    }

    #[test]
    fn gather_generations_do_not_leak_stale_slots() {
        let n = 2;
        let ar = Arc::new(Allreduce::new(n, 1));
        let rounds: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let ar = ar.clone();
                    s.spawn(move || {
                        let mut a = vec![0.0; n];
                        let mut b = vec![0.0; n];
                        ar.gather_into(r, &[(r + 1) as f64], &mut a).unwrap();
                        ar.gather_into(r, &[(r + 1) as f64 * 100.0], &mut b)
                            .unwrap();
                        (a, b)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (a, b) in rounds {
            assert_eq!(a, vec![1.0, 2.0]);
            assert_eq!(b, vec![100.0, 200.0]);
        }
    }

    #[test]
    fn dropped_message_leaves_a_detectable_seq_gap() {
        use crate::fault::{FaultPlan, MsgSelector};
        let plan = FaultPlan {
            drops: vec![MsgSelector {
                from: 0,
                to: 1,
                seq: 0,
            }],
            ..FaultPlan::default()
        };
        let faults = Arc::new(FaultState::new(plan, 2));
        let mesh = RankComm::mesh_with(2, Duration::from_millis(100), Some(faults));
        let before = dp_obs::counter("comm.seq_gap").get();
        mesh[0]
            .send(1, Msg::GhostPositions(vec![[1.0; 3]]))
            .unwrap(); // dropped
        mesh[0]
            .send(1, Msg::GhostPositions(vec![[2.0; 3]]))
            .unwrap(); // seq 1
        let err = mesh[1].recv(0).unwrap_err();
        assert!(
            matches!(err, CommError::Protocol { from: 0, .. }),
            "expected deterministic Protocol error, got {err:?}"
        );
        assert!(dp_obs::counter("comm.seq_gap").get() > before);
    }

    #[test]
    fn reordered_message_is_a_protocol_error() {
        let mesh = RankComm::mesh(2);
        // Bypass send() to deliver out of order: seq 1 before seq 0.
        let tx = mesh[0].to[1].as_ref().unwrap();
        tx.send(Envelope {
            seq: 1,
            msg: Msg::GhostPositions(vec![[1.0; 3]]),
        })
        .unwrap();
        tx.send(Envelope {
            seq: 0,
            msg: Msg::GhostPositions(vec![[2.0; 3]]),
        })
        .unwrap();
        let before = dp_obs::counter("comm.seq_gap").get();
        let err = mesh[1].recv(0).unwrap_err();
        assert!(matches!(err, CommError::Protocol { from: 0, .. }));
        assert!(dp_obs::counter("comm.seq_gap").get() > before);
    }

    #[test]
    fn in_order_messages_pass_the_seq_check() {
        let mesh = RankComm::mesh(2);
        for i in 0..5 {
            mesh[0]
                .send(1, Msg::GhostPositions(vec![[i as f64; 3]]))
                .unwrap();
        }
        for i in 0..5 {
            match mesh[1].recv(0).unwrap() {
                Msg::GhostPositions(v) => assert_eq!(v[0][0], i as f64),
                other => panic!("wrong message {other:?}"),
            }
        }
    }

    #[test]
    fn unpoisoned_allreduce_times_out() {
        let deadline = Duration::from_millis(50);
        let ar = Allreduce::with_deadline(2, 1, deadline);
        let err = ar.reduce(0, &[1.0]).unwrap_err();
        assert_eq!(err, CommError::ReduceTimeout { deadline });
    }
}

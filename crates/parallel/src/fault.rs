//! Deterministic fault injection for the parallel driver.
//!
//! The paper's target campaigns run for days across thousands of nodes
//! (§6–7), where rank failure is a statistical certainty. This module
//! provides the *test stimulus* for that reality: a [`FaultPlan`] is one
//! schedule — a list per fault kind: rank kills at (rank, step), dropped
//! or delayed point-to-point messages, damaged checkpoint generations,
//! torn per-rank shards, and the test-only audit sabotage. A single-fault
//! drill is a one-entry list; chaos mode ([`crate::chaos`]) expands a seed
//! into the same lists. A [`FaultState`] tracks one-shot firing so a plan
//! replays identically every run. Determinism is the whole point: every
//! fault is keyed on (rank, step) or (from, to, sequence-number), no
//! clocks and no RNG, so a recovery test that passes once passes always.
//!
//! The no-faults configuration costs a single `Option` branch per step and
//! per message; a driver built without a plan carries `None` and never
//! touches any atomic in this module.

use std::any::Any;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Kill one rank at one step (a panic inside the rank thread, caught by the
/// supervisor's `catch_unwind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    pub rank: usize,
    /// Absolute step number (a resumed epoch keeps the original numbering,
    /// so "step 33" means the same instant before and after recovery).
    pub step: usize,
    /// `false`: fire once per run — the recovered epoch sails past the
    /// step. `true`: fire in every epoch that reaches the step, which
    /// exhausts the retry budget and exercises the typed-error exit.
    pub every_epoch: bool,
}

/// Select one point-to-point message: the `seq`-th message (0-based) sent
/// from rank `from` to rank `to` over the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSelector {
    pub from: usize,
    pub to: usize,
    pub seq: u64,
}

/// Hold one selected message for `delay` before delivering it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelaySpec {
    pub msg: MsgSelector,
    pub delay: Duration,
}

/// Tear one rank's per-rank checkpoint shard as it is written: the shard
/// file is truncated to half its length right after the atomic rename, so
/// a later localized recovery of that rank finds an invalid shard and must
/// escalate to the global rotation (the tier-2 drill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTear {
    pub rank: usize,
    /// Absolute checkpoint step whose shard write gets torn.
    pub step: usize,
}

/// Test-only invariant sabotage: make `rank` report one phantom atom in
/// the audit at `step`, so the atom-count conservation check trips. This
/// exists to prove the soak-mode auditor fails fast with a typed report —
/// it corrupts the *report*, never the simulation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakInvariant {
    pub rank: usize,
    /// Absolute step; the sabotage fires at the first audit at or after it.
    pub step: usize,
}

/// What to do to a written checkpoint generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptSabotage {
    /// Truncate the file to half its length — the torn write the atomic
    /// rename normally prevents; the loader must report `Truncated` and the
    /// rotation must fall back to the previous generation.
    TornWrite,
    /// Flip one byte in the middle of the file — silent media corruption;
    /// the CRC check must reject it and the rotation must fall back.
    BitFlip,
}

/// Damage the global checkpoint generation written at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptFault {
    /// Absolute checkpoint step whose generation gets damaged.
    pub step: usize,
    pub what: CkptSabotage,
}

/// A deterministic schedule of faults to inject into one parallel run:
/// one list per fault kind, empty by default. A single-fault drill is a
/// one-entry list; chaos mode ([`crate::chaos`]) fills the lists from a
/// seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Rank kills; each fires once, or per its own `every_epoch`.
    pub kills: Vec<KillSpec>,
    /// Silently discarded messages (the receiver times out); each fires
    /// once.
    pub drops: Vec<MsgSelector>,
    /// Delayed messages (survivable if shorter than the comm deadline,
    /// fatal-and-recovered if longer); each fires once.
    pub delays: Vec<DelaySpec>,
    /// Damaged global checkpoint generations; each fires once.
    pub ckpts: Vec<CkptFault>,
    /// Torn per-rank shards; each fires once.
    pub torn_shards: Vec<ShardTear>,
    /// Test-only audit sabotage (fires once).
    pub break_invariant: Option<BreakInvariant>,
}

impl FaultPlan {
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Worst-case failed epochs this plan can cause: every kill and every
    /// drop fails one epoch (delays only fail when longer than the comm
    /// deadline — counted too, to be safe; sabotaged checkpoints fail no
    /// epoch by themselves). Sizes the supervisor's retry budget.
    pub fn max_failures(&self) -> usize {
        self.kills.len() + self.drops.len() + self.delays.len()
    }
}

/// What the comm layer should do with an outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    Deliver,
    Drop,
    Delay(Duration),
}

/// The entries of one fault kind, each with the flag that makes it
/// one-shot (`None` for an entry that fires every time it is reached).
#[derive(Debug)]
struct Once<T>(Vec<(T, Option<AtomicBool>)>);

impl<T: Copy> Once<T> {
    fn new(entries: &[T], repeats: impl Fn(&T) -> bool) -> Self {
        let flag = |e: &T| (!repeats(e)).then(|| AtomicBool::new(false));
        Self(entries.iter().map(|e| (*e, flag(e))).collect())
    }

    /// The first entry `hit` matches that may still fire, now marked
    /// fired.
    fn fire(&self, hit: impl Fn(&T) -> bool) -> Option<T> {
        let unfired =
            |f: &Option<AtomicBool>| f.as_ref().is_none_or(|f| !f.swap(true, Ordering::Relaxed));
        let (e, _) = self.0.iter().find(|(e, f)| hit(e) && unfired(f))?;
        Some(*e)
    }
}

/// Per-run firing state for a [`FaultPlan`]. Shared by every rank of every
/// epoch of one supervised run, so one-shot faults stay one-shot across
/// recoveries and message sequence numbers keep counting through restarts.
#[derive(Debug)]
pub struct FaultState {
    n_ranks: usize,
    /// Messages sent so far per (from, to) pair, flattened `from * n + to`.
    sent: Vec<AtomicU64>,
    kills: Once<KillSpec>,
    drops: Once<MsgSelector>,
    delays: Once<DelaySpec>,
    ckpts: Once<CkptFault>,
    torn_shards: Once<ShardTear>,
    break_invariant: Once<BreakInvariant>,
}

impl FaultState {
    pub fn new(plan: FaultPlan, n_ranks: usize) -> Self {
        Self {
            n_ranks,
            sent: (0..n_ranks * n_ranks).map(|_| AtomicU64::new(0)).collect(),
            kills: Once::new(&plan.kills, |k| k.every_epoch),
            drops: Once::new(&plan.drops, |_| false),
            delays: Once::new(&plan.delays, |_| false),
            ckpts: Once::new(&plan.ckpts, |_| false),
            torn_shards: Once::new(&plan.torn_shards, |_| false),
            break_invariant: Once::new(plan.break_invariant.as_slice(), |_| false),
        }
    }

    /// Should `rank` die at the top of `step`?
    pub fn should_kill(&self, rank: usize, step: usize) -> bool {
        let hit = |k: &KillSpec| k.rank == rank && k.step == step;
        self.kills.fire(hit).is_some()
    }

    /// Count an outgoing message and decide its fate.
    pub fn on_send(&self, from: usize, to: usize) -> SendAction {
        let seq = self.sent[from * self.n_ranks + to].fetch_add(1, Ordering::Relaxed);
        let this = MsgSelector { from, to, seq };
        if self.drops.fire(|m| *m == this).is_some() {
            return SendAction::Drop;
        }
        match self.delays.fire(|d| d.msg == this) {
            Some(d) => SendAction::Delay(d.delay),
            None => SendAction::Deliver,
        }
    }

    /// Should `rank`'s per-rank shard just written at `step` be torn?
    pub fn shard_sabotage(&self, rank: usize, step: usize) -> bool {
        let this = ShardTear { rank, step };
        self.torn_shards.fire(|t| *t == this).is_some()
    }

    /// Should `rank` corrupt its audit report at this audit step? Fires at
    /// the first audit at or after the planned step (audits run on a
    /// stride, so an exact-step match would often never trigger).
    pub fn break_invariant(&self, rank: usize, step: usize) -> bool {
        let hit = |b: &BreakInvariant| b.rank == rank && step >= b.step;
        self.break_invariant.fire(hit).is_some()
    }

    /// Should the checkpoint generation just written at `step` be damaged?
    pub fn ckpt_sabotage(&self, step: usize) -> Option<CkptSabotage> {
        self.ckpts.fire(|c| c.step == step).map(|c| c.what)
    }
}

/// Damage a written checkpoint file in place.
pub fn sabotage_file(path: &Path, what: CkptSabotage) -> std::io::Result<()> {
    match what {
        CkptSabotage::TornWrite => {
            let len = std::fs::metadata(path)?.len();
            let f = std::fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(len / 2)?;
        }
        CkptSabotage::BitFlip => {
            let mut bytes = std::fs::read(path)?;
            let mid = bytes.len() / 2;
            if let Some(b) = bytes.get_mut(mid) {
                *b ^= 0x55;
            }
            std::fs::write(path, bytes)?;
        }
    }
    Ok(())
}

/// The unwind payload carried by an injected rank kill.
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault {
    pub rank: usize,
    pub step: usize,
}

/// Kill the current rank thread. Uses `resume_unwind`, not `panic!`, so the
/// process-global panic hook stays silent — an injected fault must not spray
/// "thread panicked" onto stderr (the supervisor reports it in a typed
/// error instead).
pub fn kill_current_rank(rank: usize, step: usize) -> ! {
    std::panic::resume_unwind(Box::new(InjectedFault { rank, step }))
}

/// Human-readable description of a caught rank-thread unwind payload.
pub fn describe_panic(rank: usize, payload: &(dyn Any + Send)) -> String {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        format!(
            "rank {} killed by injected fault at step {}",
            f.rank, f.step
        )
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("rank {rank} panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("rank {rank} panicked: {s}")
    } else {
        format!("rank {rank} panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_fires_once_unless_every_epoch() {
        let st = FaultState::new(
            FaultPlan {
                kills: vec![KillSpec {
                    rank: 1,
                    step: 7,
                    every_epoch: false,
                }],
                ..FaultPlan::default()
            },
            2,
        );
        assert!(!st.should_kill(0, 7));
        assert!(!st.should_kill(1, 6));
        assert!(st.should_kill(1, 7));
        assert!(!st.should_kill(1, 7), "one-shot kill fired twice");

        let st = FaultState::new(
            FaultPlan {
                kills: vec![KillSpec {
                    rank: 0,
                    step: 3,
                    every_epoch: true,
                }],
                ..FaultPlan::default()
            },
            2,
        );
        assert!(st.should_kill(0, 3));
        assert!(st.should_kill(0, 3), "every-epoch kill must re-fire");
    }

    #[test]
    fn message_faults_select_by_sequence_number() {
        let st = FaultState::new(
            FaultPlan {
                drops: vec![MsgSelector {
                    from: 0,
                    to: 1,
                    seq: 2,
                }],
                ..FaultPlan::default()
            },
            2,
        );
        assert_eq!(st.on_send(0, 1), SendAction::Deliver); // seq 0
        assert_eq!(st.on_send(1, 0), SendAction::Deliver); // other pair
        assert_eq!(st.on_send(0, 1), SendAction::Deliver); // seq 1
        assert_eq!(st.on_send(0, 1), SendAction::Drop); // seq 2
        assert_eq!(st.on_send(0, 1), SendAction::Deliver); // seq 3
    }

    #[test]
    fn ckpt_sabotage_is_one_shot_per_kind() {
        let st = FaultState::new(
            FaultPlan {
                ckpts: vec![
                    CkptFault {
                        step: 20,
                        what: CkptSabotage::TornWrite,
                    },
                    CkptFault {
                        step: 40,
                        what: CkptSabotage::BitFlip,
                    },
                ],
                ..FaultPlan::default()
            },
            1,
        );
        assert_eq!(st.ckpt_sabotage(10), None);
        assert_eq!(st.ckpt_sabotage(20), Some(CkptSabotage::TornWrite));
        assert_eq!(st.ckpt_sabotage(20), None);
        assert_eq!(st.ckpt_sabotage(40), Some(CkptSabotage::BitFlip));
        assert_eq!(st.ckpt_sabotage(40), None);
    }

    #[test]
    fn scheduled_kills_and_drops_fire_once_each() {
        let plan = FaultPlan {
            kills: vec![
                KillSpec {
                    rank: 0,
                    step: 5,
                    every_epoch: false,
                },
                KillSpec {
                    rank: 1,
                    step: 9,
                    every_epoch: false,
                },
            ],
            drops: vec![
                MsgSelector {
                    from: 0,
                    to: 1,
                    seq: 0,
                },
                MsgSelector {
                    from: 0,
                    to: 1,
                    seq: 2,
                },
            ],
            delays: vec![DelaySpec {
                msg: MsgSelector {
                    from: 1,
                    to: 0,
                    seq: 1,
                },
                delay: Duration::from_millis(5),
            }],
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty());
        assert_eq!(plan.max_failures(), 5);
        let st = FaultState::new(plan, 2);

        assert!(st.should_kill(0, 5));
        assert!(!st.should_kill(0, 5), "scheduled kill fired twice");
        assert!(st.should_kill(1, 9));
        assert!(!st.should_kill(1, 5), "wrong (rank, step) fired");

        assert_eq!(st.on_send(0, 1), SendAction::Drop); // seq 0
        assert_eq!(st.on_send(0, 1), SendAction::Deliver); // seq 1
        assert_eq!(st.on_send(0, 1), SendAction::Drop); // seq 2
        assert_eq!(st.on_send(0, 1), SendAction::Deliver); // seq 3
        assert_eq!(st.on_send(1, 0), SendAction::Deliver); // seq 0
        assert_eq!(
            st.on_send(1, 0),
            SendAction::Delay(Duration::from_millis(5)) // seq 1
        );
        assert_eq!(st.on_send(1, 0), SendAction::Deliver); // seq 2
    }

    #[test]
    fn shard_and_invariant_sabotage_fire_once() {
        let plan = FaultPlan {
            torn_shards: vec![ShardTear { rank: 1, step: 20 }],
            break_invariant: Some(BreakInvariant { rank: 0, step: 15 }),
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty());
        let st = FaultState::new(plan, 2);
        assert!(!st.shard_sabotage(0, 20), "wrong rank fired");
        assert!(!st.shard_sabotage(1, 10), "wrong step fired");
        assert!(st.shard_sabotage(1, 20));
        assert!(!st.shard_sabotage(1, 20), "shard tear fired twice");

        assert!(!st.break_invariant(1, 15), "wrong rank fired");
        assert!(!st.break_invariant(0, 10), "fired before the planned step");
        assert!(
            st.break_invariant(0, 20),
            "must fire at first audit >= step"
        );
        assert!(!st.break_invariant(0, 25), "invariant sabotage fired twice");
    }

    #[test]
    fn sabotage_damages_files_detectably() {
        let dir = std::env::temp_dir().join("dp-fault-sabotage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("victim.bin");
        let payload: Vec<u8> = (0..=255u8).collect();

        std::fs::write(&p, &payload).unwrap();
        sabotage_file(&p, CkptSabotage::TornWrite).unwrap();
        assert_eq!(std::fs::read(&p).unwrap().len(), 128);

        std::fs::write(&p, &payload).unwrap();
        sabotage_file(&p, CkptSabotage::BitFlip).unwrap();
        let damaged = std::fs::read(&p).unwrap();
        assert_eq!(damaged.len(), 256);
        assert_ne!(damaged, payload);
        std::fs::remove_file(&p).unwrap();
    }
}

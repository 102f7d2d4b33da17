//! Chaos mode: expand one seed into a deterministic randomized
//! [`FaultPlan`] schedule.
//!
//! A single-fault drill answers "does recovery work for THIS failure";
//! a long soak needs the other question — does it keep working when
//! failures arrive many times, in arbitrary order, at arbitrary ranks?
//! Chaos mode fills the same [`FaultPlan`] lists from a seed with
//! splitmix64 streams, so a soak that fails is replayed exactly by
//! re-running the same deck: no clocks, no OS entropy, the seed IS the
//! schedule. One [`ChaosSpec`] serves both deck sections: `fault_chaos`
//! (kills, drops, delays) and `chaos_soak` (plus torn per-rank shards and
//! the invariant-audit stride).
//!
//! The expansion is *survivable by construction* when the run
//! checkpoints: every scheduled kill lands strictly after the first
//! checkpoint write (`ckpt_every + 1 ..= end_step - 1`), so the
//! supervisor always has a generation to reload, and scheduled drops
//! select sequence numbers high enough (`MSGS_PER_STEP_BOUND` messages
//! per step per pair) that a communicating pair cannot reach them before
//! the first checkpoint either. Delays are bounded by `max_delay_ms` —
//! keep it under the comm deadline for a pure-latency soak, or above it
//! to turn each delay into a detected failure. A selected pair that
//! never communicates simply never fires its fault; chaos promises at
//! *most* `max_failures()` failed epochs, not an exact count.

use crate::fault::{DelaySpec, FaultPlan, KillSpec, MsgSelector, ShardTear};
use dp_md::CounterRng;
use std::time::Duration;

/// Conservative upper bound on point-to-point messages one pair sends
/// per MD step (forward ghost exchange, reverse force exchange, and
/// reduction traffic). Used to place chaos drop sequence numbers after
/// the first checkpoint: a pair sending at most this many messages per
/// step cannot reach seq `BOUND * (ckpt_every + 1)` before step
/// `ckpt_every + 1`.
pub const MSGS_PER_STEP_BOUND: u64 = 4;

/// What a `fault_chaos` or `chaos_soak` deck section asks for. A plain
/// chaos section leaves `torn_shards` and `audit_every` at 0; a soak adds
/// torn per-rank shard writes (which force the recovery to fall back from
/// the shards to the global rotation) and a periodic invariant audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The schedule seed; same seed + same run shape = same schedule.
    pub seed: u64,
    /// Scheduled one-shot rank kills.
    pub kills: usize,
    /// Scheduled one-shot message drops.
    pub drops: usize,
    /// Scheduled one-shot message delays.
    pub delays: usize,
    /// Scheduled one-shot per-rank shard tears (at checkpoint steps).
    pub torn_shards: usize,
    /// Upper bound on each scheduled delay, milliseconds.
    pub max_delay_ms: u64,
    /// Invariant audit stride in steps (0 = no auditor). Carried on the
    /// spec, not the plan: the caller wires it into the driver options.
    pub audit_every: usize,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            kills: 0,
            drops: 0,
            delays: 0,
            torn_shards: 0,
            max_delay_ms: 50,
            audit_every: 0,
        }
    }
}

/// Expand a chaos spec into a concrete deterministic [`FaultPlan`] for a
/// run of `end_step` steps on `n_ranks` ranks checkpointing every
/// `ckpt_every` steps (0 = no checkpointing, which only allows delays).
pub fn expand_chaos(
    spec: &ChaosSpec,
    n_ranks: usize,
    end_step: usize,
    ckpt_every: usize,
) -> Result<FaultPlan, String> {
    if n_ranks == 0 {
        return Err("chaos: no ranks".into());
    }
    let mut plan = FaultPlan::default();
    if spec.kills == 0 && spec.drops == 0 && spec.delays == 0 && spec.torn_shards == 0 {
        return Ok(plan);
    }
    if (spec.kills > 0 || spec.drops > 0) && ckpt_every == 0 {
        return Err(
            "chaos kills/drops fail epochs and need checkpoint_every > 0 to recover from".into(),
        );
    }
    if (spec.drops > 0 || spec.delays > 0) && n_ranks < 2 {
        return Err("chaos drops/delays need at least 2 ranks".into());
    }
    let mut rng = CounterRng::new(spec.seed ^ 0xd1fa_117c_4a05_u64);

    // Kills: distinct steps in (ckpt_every, end_step), each strictly
    // after a checkpoint generation exists.
    if spec.kills > 0 {
        let lo = ckpt_every + 1;
        let hi = end_step; // exclusive; kill at end_step-1 still recovers
        if hi <= lo {
            return Err(format!(
                "chaos kills need end_step > checkpoint_every + 1 (got steps {end_step}, checkpoint_every {ckpt_every})"
            ));
        }
        let span = (hi - lo) as u64;
        if (spec.kills as u64) > span {
            return Err(format!(
                "chaos asks for {} kills but only {span} eligible steps exist",
                spec.kills
            ));
        }
        let mut steps: Vec<usize> = Vec::with_capacity(spec.kills);
        while steps.len() < spec.kills {
            let s = lo + rng.below(span) as usize;
            if !steps.contains(&s) {
                steps.push(s);
            }
        }
        steps.sort_unstable();
        for step in steps {
            plan.kills.push(KillSpec {
                rank: rng.below(n_ranks as u64) as usize,
                step,
                every_epoch: false,
            });
        }
    }

    // Drops: sequence numbers a communicating pair can only reach after
    // the first checkpoint write.
    let pick_pair = |rng: &mut CounterRng| {
        let from = rng.below(n_ranks as u64) as usize;
        let mut to = rng.below(n_ranks as u64 - 1) as usize;
        if to >= from {
            to += 1;
        }
        (from, to)
    };
    if spec.drops > 0 {
        let seq_lo = MSGS_PER_STEP_BOUND * (ckpt_every as u64 + 1);
        let seq_hi = seq_lo + (end_step as u64).max(1);
        for _ in 0..spec.drops {
            let (from, to) = pick_pair(&mut rng);
            plan.drops.push(MsgSelector {
                from,
                to,
                seq: seq_lo + rng.below(seq_hi - seq_lo),
            });
        }
    }

    // Delays: anywhere in the run; survivability is the caller's choice
    // of max_delay_ms versus the comm deadline.
    if spec.delays > 0 {
        if spec.max_delay_ms == 0 {
            return Err("chaos delays need max_delay_ms > 0".into());
        }
        let seq_hi = (end_step as u64).max(1);
        for _ in 0..spec.delays {
            let (from, to) = pick_pair(&mut rng);
            plan.delays.push(DelaySpec {
                msg: MsgSelector {
                    from,
                    to,
                    seq: rng.below(seq_hi),
                },
                delay: Duration::from_millis(1 + rng.below(spec.max_delay_ms)),
            });
        }
    }

    // Shard tears: checkpoint steps, from a distinct stream, so adding
    // tears does not reshuffle the kills, drops and delays the seed
    // already determined.
    if spec.torn_shards > 0 {
        if ckpt_every == 0 {
            return Err("soak shard tears need checkpoint_every > 0 (shards are written at checkpoint steps)".into());
        }
        let n_ckpts = end_step / ckpt_every;
        if n_ckpts == 0 {
            return Err(format!(
                "soak shard tears need at least one checkpoint step (steps {end_step}, checkpoint_every {ckpt_every})"
            ));
        }
        let mut rng = CounterRng::new(spec.seed ^ 0x5a4d_7ea2_u64);
        for _ in 0..spec.torn_shards {
            plan.torn_shards.push(ShardTear {
                rank: rng.below(n_ranks as u64) as usize,
                step: (1 + rng.below(n_ckpts as u64) as usize) * ckpt_every,
            });
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChaosSpec {
        ChaosSpec {
            seed: 42,
            kills: 3,
            drops: 2,
            delays: 2,
            torn_shards: 0,
            max_delay_ms: 20,
            audit_every: 0,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = expand_chaos(&spec(), 4, 100, 10).unwrap();
        let b = expand_chaos(&spec(), 4, 100, 10).unwrap();
        assert_eq!(a, b, "chaos expansion must be deterministic");
        let c = expand_chaos(&ChaosSpec { seed: 43, ..spec() }, 4, 100, 10).unwrap();
        assert_ne!(a, c, "different seeds should give different schedules");
    }

    #[test]
    fn kills_land_after_the_first_checkpoint_and_before_the_end() {
        for seed in 0..50 {
            let plan = expand_chaos(&ChaosSpec { seed, ..spec() }, 3, 80, 10).unwrap();
            assert_eq!(plan.kills.len(), 3);
            let mut steps: Vec<usize> = plan.kills.iter().map(|k| k.step).collect();
            for k in &plan.kills {
                assert!(
                    k.step > 10 && k.step < 80,
                    "kill step {} out of range",
                    k.step
                );
                assert!(k.rank < 3);
                assert!(!k.every_epoch);
            }
            steps.dedup();
            assert_eq!(steps.len(), 3, "kill steps must be distinct");
        }
    }

    #[test]
    fn drops_cannot_fire_before_the_first_checkpoint() {
        for seed in 0..50 {
            let plan = expand_chaos(&ChaosSpec { seed, ..spec() }, 4, 200, 15).unwrap();
            for d in &plan.drops {
                assert!(
                    d.seq >= MSGS_PER_STEP_BOUND * 16,
                    "drop seq {} too early",
                    d.seq
                );
                assert_ne!(d.from, d.to);
            }
            for d in &plan.delays {
                assert!(d.delay >= Duration::from_millis(1));
                assert!(d.delay <= Duration::from_millis(20));
                assert_ne!(d.msg.from, d.msg.to);
            }
        }
    }

    #[test]
    fn infeasible_schedules_are_rejected() {
        assert!(
            expand_chaos(&spec(), 4, 100, 0).is_err(),
            "kills without checkpointing"
        );
        assert!(
            expand_chaos(
                &ChaosSpec {
                    kills: 5,
                    drops: 0,
                    delays: 0,
                    ..spec()
                },
                4,
                6,
                10
            )
            .is_err(),
            "no eligible kill steps"
        );
        assert!(
            expand_chaos(
                &ChaosSpec {
                    kills: 0,
                    drops: 1,
                    delays: 0,
                    ..spec()
                },
                1,
                100,
                10
            )
            .is_err(),
            "drops need 2+ ranks"
        );
        let none = expand_chaos(
            &ChaosSpec {
                kills: 0,
                drops: 0,
                delays: 0,
                ..ChaosSpec::default()
            },
            1,
            10,
            0,
        )
        .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn retry_budget_covers_the_whole_schedule() {
        let plan = expand_chaos(&spec(), 4, 100, 10).unwrap();
        assert_eq!(plan.max_failures(), 3 + 2 + 2);
    }

    fn soak_spec() -> ChaosSpec {
        ChaosSpec {
            seed: 42,
            kills: 3,
            drops: 2,
            delays: 2,
            torn_shards: 2,
            max_delay_ms: 20,
            audit_every: 10,
        }
    }

    #[test]
    fn soak_is_deterministic_and_extends_chaos() {
        let a = expand_chaos(&soak_spec(), 4, 100, 10).unwrap();
        let b = expand_chaos(&soak_spec(), 4, 100, 10).unwrap();
        assert_eq!(a, b, "soak expansion must be deterministic");
        // same seed: the chaos part of the schedule is unchanged
        let chaos = expand_chaos(&spec(), 4, 100, 10).unwrap();
        assert_eq!(a.kills, chaos.kills);
        assert_eq!(a.drops, chaos.drops);
        assert_eq!(a.delays, chaos.delays);
        assert_eq!(a.torn_shards.len(), 2);
    }

    #[test]
    fn soak_shard_tears_land_on_checkpoint_steps() {
        for seed in 0..50 {
            let plan = expand_chaos(
                &ChaosSpec {
                    seed,
                    ..soak_spec()
                },
                3,
                80,
                10,
            )
            .unwrap();
            for t in &plan.torn_shards {
                assert!(t.rank < 3);
                assert!(
                    t.step % 10 == 0 && t.step > 0 && t.step <= 80,
                    "shard tear step {} is not a checkpoint step",
                    t.step
                );
            }
        }
    }

    #[test]
    fn soak_shard_tears_require_checkpointing() {
        let s = ChaosSpec {
            kills: 0,
            drops: 0,
            delays: 0,
            ..soak_spec()
        };
        assert!(expand_chaos(&s, 4, 100, 0).is_err());
        assert!(
            expand_chaos(&s, 4, 5, 10).is_err(),
            "no checkpoint step in range"
        );
    }
}

//! Fault-tolerance end-to-end: injected rank kills, dropped/delayed
//! messages, and sabotaged checkpoints must all either be survivable or
//! recovered from bit-exactly — an interrupted-and-recovered run's thermo
//! output and final state are identical to the uninterrupted run's. The
//! `dpmd` binary must surface unrecoverable failures as typed errors with
//! distinct exit codes and no panic spew.
//!
//! Counter- and metrics-sensitive cases run the `dpmd` binary in a
//! subprocess, so process-global dp-obs state never crosses tests; CI also
//! runs this suite with `--test-threads=1`.

use deepmd_repro::app::{parse_config, run};
use deepmd_repro::md::integrate::MdOptions;
use deepmd_repro::md::potential::pair::LennardJones;
use deepmd_repro::md::rng::CounterRng;
use deepmd_repro::md::{lattice, Potential, System};
use deepmd_repro::parallel::{
    expand_chaos, run_parallel_md, Allreduce, BreakInvariant, ChaosSpec, CkptFault, CkptSabotage,
    CommError, DelaySpec, FaultPlan, KillSpec, MsgSelector, ParallelCkpt, ParallelOptions,
    ParallelRun, RunError, ShardTear,
};
use dp_ckpt::Rotation;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn argon() -> System {
    let mut sys = lattice::fcc(5.26, [3, 3, 3], 39.948);
    let mut rng = CounterRng::new(7);
    sys.init_velocities(30.0, &mut rng);
    sys
}

fn lj() -> Arc<dyn Potential> {
    Arc::new(LennardJones::new(0.0104, 3.405, 5.0))
}

fn opts(checkpoint: Option<ParallelCkpt>, faults: Option<FaultPlan>) -> ParallelOptions {
    ParallelOptions {
        md: MdOptions {
            dt: 2.0e-3,
            skin: 1.0,
            thermo_every: 10,
            ..MdOptions::default()
        },
        checkpoint,
        faults,
        comm_deadline: Duration::from_secs(5),
        ..ParallelOptions::default()
    }
}

fn ckpt(dir: &std::path::Path, name: &str) -> ParallelCkpt {
    ParallelCkpt {
        every: 10,
        rotation: Rotation::new(dir.join(name).display().to_string(), 3),
        shards: false,
    }
}

/// Like [`ckpt`] but with per-rank shards on, enabling localized recovery.
fn ckpt_sharded(dir: &std::path::Path, name: &str) -> ParallelCkpt {
    ParallelCkpt {
        shards: true,
        ..ckpt(dir, name)
    }
}

/// Identical to the last bit: thermo samples and the gathered final state.
fn assert_bit_exact(straight: &ParallelRun, recovered: &ParallelRun, what: &str) {
    let bits = |r: &ParallelRun| -> Vec<(usize, u64, u64, u64, u64)> {
        r.thermo
            .iter()
            .map(|t| {
                (
                    t.step,
                    t.potential_energy.to_bits(),
                    t.kinetic_energy.to_bits(),
                    t.temperature.to_bits(),
                    t.pressure.to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(bits(straight), bits(recovered), "thermo diverged: {what}");
    assert_eq!(
        straight.system.positions, recovered.system.positions,
        "final positions diverged: {what}"
    );
    assert_eq!(
        straight.system.velocities, recovered.system.velocities,
        "final velocities diverged: {what}"
    );
}

#[test]
fn killed_rank_recovers_bit_exact() {
    let dir = test_dir("dpft-kill-recover");
    let sys = argon();

    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(ckpt(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();
    assert_eq!(straight.recoveries, 0);

    let plan = FaultPlan {
        kills: vec![KillSpec {
            rank: 1,
            step: 33,
            every_epoch: false,
        }],
        ..FaultPlan::default()
    };
    let faulted_ckpt = ckpt(&dir, "b.ckpt");
    let newest = faulted_ckpt.rotation.slot_path(0);
    let faulted = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(faulted_ckpt), Some(plan)),
        60,
    )
    .unwrap();

    assert_eq!(faulted.recoveries, 1, "expected exactly one recovery");
    assert_eq!(
        faulted.recovered_from,
        vec![newest],
        "kill at 33 must reload the newest (step 30) generation"
    );
    assert_bit_exact(&straight, &faulted, "kill at step 33, checkpoint every 10");
}

#[test]
fn corrupted_newest_generation_falls_back() {
    let dir = test_dir("dpft-corrupt-fallback");
    let sys = argon();

    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(ckpt(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();

    // The generation written at step 30 gets a flipped byte, then the kill
    // at 33: the CRC rejects the newest generation and the rotation falls
    // back to the step-20 one.
    let plan = FaultPlan {
        kills: vec![KillSpec {
            rank: 0,
            step: 33,
            every_epoch: false,
        }],
        ckpts: vec![CkptFault {
            step: 30,
            what: CkptSabotage::BitFlip,
        }],
        ..FaultPlan::default()
    };
    let faulted_ckpt = ckpt(&dir, "b.ckpt");
    let fallback = faulted_ckpt.rotation.slot_path(1);
    let faulted = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(faulted_ckpt), Some(plan)),
        60,
    )
    .unwrap();

    assert_eq!(faulted.recoveries, 1);
    assert_eq!(
        faulted.recovered_from,
        vec![fallback],
        "corrupt newest generation must fall back to .1"
    );
    assert_bit_exact(&straight, &faulted, "bit-flipped step-30 checkpoint");
}

#[test]
fn torn_checkpoint_write_falls_back() {
    let dir = test_dir("dpft-torn-fallback");
    let sys = argon();

    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(ckpt(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();

    let plan = FaultPlan {
        kills: vec![KillSpec {
            rank: 3,
            step: 37,
            every_epoch: false,
        }],
        ckpts: vec![CkptFault {
            step: 30,
            what: CkptSabotage::TornWrite,
        }],
        ..FaultPlan::default()
    };
    let faulted_ckpt = ckpt(&dir, "b.ckpt");
    let fallback = faulted_ckpt.rotation.slot_path(1);
    let faulted = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(faulted_ckpt), Some(plan)),
        60,
    )
    .unwrap();

    assert_eq!(faulted.recoveries, 1);
    assert_eq!(
        faulted.recovered_from,
        vec![fallback],
        "truncated newest generation must fall back to .1"
    );
    assert_bit_exact(&straight, &faulted, "torn step-30 checkpoint write");
}

#[test]
fn dropped_message_is_detected_and_recovered() {
    let dir = test_dir("dpft-drop-recover");
    let sys = argon();

    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(ckpt(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();

    // Message seq 60 on the 1->0 pair lands well after the first checkpoint
    // (>= 2 messages per pair per step) and well before the run ends. The
    // receiver either sees the wrong message next (protocol error) or times
    // out; both are typed failures the supervisor recovers from.
    let plan = FaultPlan {
        drops: vec![MsgSelector {
            from: 1,
            to: 0,
            seq: 60,
        }],
        ..FaultPlan::default()
    };
    let mut o = opts(Some(ckpt(&dir, "b.ckpt")), Some(plan));
    o.comm_deadline = Duration::from_secs(2);
    let started = Instant::now();
    let faulted = run_parallel_md(&sys, lj(), [2, 2, 1], &o, 60).unwrap();

    assert_eq!(faulted.recoveries, 1, "dropped message must cost one epoch");
    assert_bit_exact(&straight, &faulted, "dropped message 1->0 seq 60");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "recovery took {:?}; the deadline should bound detection",
        started.elapsed()
    );
}

#[test]
fn delayed_message_within_deadline_is_survivable() {
    let sys = argon();

    let straight = run_parallel_md(&sys, lj(), [2, 2, 1], &opts(None, None), 40).unwrap();

    let plan = FaultPlan {
        delays: vec![DelaySpec {
            msg: MsgSelector {
                from: 1,
                to: 0,
                seq: 5,
            },
            delay: Duration::from_millis(100),
        }],
        ..FaultPlan::default()
    };
    let delayed = run_parallel_md(&sys, lj(), [2, 2, 1], &opts(None, Some(plan)), 40).unwrap();

    assert_eq!(delayed.recoveries, 0, "a 100ms delay must be survivable");
    assert_bit_exact(&straight, &delayed, "delayed message 1->0 seq 5");
}

#[test]
fn chaos_schedule_recovers_bit_exact() {
    // Chaos mode: a seed expands into a multi-fault schedule (kills,
    // drops, delays) and the soaked run must still match the clean run to
    // the last bit. Both kills are guaranteed to fire (distinct steps
    // after the first checkpoint); the drop/delay picks may or may not
    // reach their sequence numbers — chaos promises at most
    // `max_failures()` failed epochs, not an exact count.
    let dir = test_dir("dpft-chaos");
    let sys = argon();

    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 1, 1],
        &opts(Some(ckpt(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();

    let spec = ChaosSpec {
        seed: 7,
        kills: 2,
        drops: 1,
        delays: 2,
        torn_shards: 0,
        max_delay_ms: 20,
        audit_every: 0,
    };
    let plan = expand_chaos(&spec, 2, 60, 10).unwrap();
    assert_eq!(
        plan,
        expand_chaos(&spec, 2, 60, 10).unwrap(),
        "schedule must replay"
    );
    let mut o = opts(Some(ckpt(&dir, "b.ckpt")), Some(plan.clone()));
    o.comm_deadline = Duration::from_secs(2);
    o.max_recoveries = plan.max_failures();
    let chaotic = run_parallel_md(&sys, lj(), [2, 1, 1], &o, 60).unwrap();

    assert!(
        chaotic.recoveries >= 2,
        "both scheduled kills must fail an epoch each (got {} recoveries)",
        chaotic.recoveries
    );
    assert!(chaotic.recoveries <= plan.max_failures());
    assert_bit_exact(&straight, &chaotic, "chaos seed 7 on [2,1,1]");
}

// ---- recovery tiering: localized respawn vs. global reload ------------

#[test]
fn localized_respawn_recovers_bit_exact() {
    // Tier 1: with per-rank shards on, a mid-run kill is repaired in
    // place — the dead rank is rebuilt from its shard while the survivors
    // hold at the step barrier — and the run never reloads the global
    // rotation. The result must still match the clean run to the bit.
    let dir = test_dir("dpft-local-respawn");
    let sys = argon();

    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(ckpt_sharded(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();
    assert_eq!(straight.recoveries, 0);
    assert_eq!(straight.local_recoveries, 0);

    let plan = FaultPlan {
        kills: vec![KillSpec {
            rank: 1,
            step: 33,
            every_epoch: false,
        }],
        ..FaultPlan::default()
    };
    let recovered = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(ckpt_sharded(&dir, "b.ckpt")), Some(plan)),
        60,
    )
    .unwrap();

    assert_eq!(
        recovered.local_recoveries, 1,
        "kill at 33 with shards at 30 must be repaired in place"
    );
    assert_eq!(
        recovered.recoveries, 0,
        "localized recovery must not reload the global checkpoint"
    );
    assert!(
        recovered.recovered_from.is_empty(),
        "no generation reload expected, got {:?}",
        recovered.recovered_from
    );
    assert_bit_exact(&straight, &recovered, "localized respawn of rank 1 at 33");
}

#[test]
fn torn_shard_escalates_to_global_reload() {
    // Tier 2: the dead rank's newest shard was torn mid-write, so the
    // localized attempt finds it invalid and the supervisor escalates to
    // the global rotation — which still recovers bit-exactly.
    let dir = test_dir("dpft-torn-shard");
    let sys = argon();

    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(ckpt_sharded(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();

    let plan = FaultPlan {
        kills: vec![KillSpec {
            rank: 1,
            step: 33,
            every_epoch: false,
        }],
        torn_shards: vec![ShardTear { rank: 1, step: 30 }],
        ..FaultPlan::default()
    };
    let faulted_ckpt = ckpt_sharded(&dir, "b.ckpt");
    let newest = faulted_ckpt.rotation.slot_path(0);
    let recovered = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(faulted_ckpt), Some(plan)),
        60,
    )
    .unwrap();

    assert_eq!(
        recovered.local_recoveries, 0,
        "a torn shard must abort the localized tier"
    );
    assert_eq!(recovered.recoveries, 1, "expected one global reload");
    assert_eq!(
        recovered.recovered_from,
        vec![newest],
        "global tier must reload the newest (step 30) generation"
    );
    assert_bit_exact(&straight, &recovered, "torn shard at 30, kill at 33");
}

/// One-shot kills of rank 1 at the given steps.
fn kills_at(steps: &[usize]) -> FaultPlan {
    FaultPlan {
        kills: steps
            .iter()
            .map(|&step| KillSpec {
                rank: 1,
                step,
                every_epoch: false,
            })
            .collect(),
        ..FaultPlan::default()
    }
}

#[test]
fn two_kills_are_both_repaired_from_shards() {
    // Kills at 33 and 45: the first rewinds to the step-30 shards, the
    // second to the step-40 shards the recovered run wrote. Neither
    // touches the global rotation.
    let dir = test_dir("dpft-two-local");
    let sys = argon();
    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(ckpt_sharded(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();
    let recovered = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(
            Some(ckpt_sharded(&dir, "b.ckpt")),
            Some(kills_at(&[33, 45])),
        ),
        60,
    )
    .unwrap();
    assert_eq!(recovered.local_recoveries, 2);
    assert_eq!(recovered.recoveries, 0);
    assert_bit_exact(&straight, &recovered, "kills at 33 and 45, shards on");
}

#[test]
fn zero_local_budget_goes_to_the_global_rotation() {
    let dir = test_dir("dpft-no-local-budget");
    let sys = argon();
    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 2, 1],
        &opts(Some(ckpt_sharded(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();
    let mut o = opts(Some(ckpt_sharded(&dir, "b.ckpt")), Some(kills_at(&[33])));
    o.max_local_recoveries = 0;
    let recovered = run_parallel_md(&sys, lj(), [2, 2, 1], &o, 60).unwrap();
    assert_eq!(recovered.local_recoveries, 0);
    assert_eq!(recovered.recoveries, 1);
    assert_bit_exact(&straight, &recovered, "kill at 33, local budget 0");
}

#[test]
fn single_rank_grid_is_repaired_from_its_shard() {
    // No survivors: the dead rank's own shard is the whole step-30 state.
    let dir = test_dir("dpft-single-rank-local");
    let sys = argon();
    let straight = run_parallel_md(
        &sys,
        lj(),
        [1, 1, 1],
        &opts(Some(ckpt_sharded(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();
    let plan = FaultPlan {
        kills: vec![KillSpec {
            rank: 0,
            step: 33,
            every_epoch: false,
        }],
        ..FaultPlan::default()
    };
    let recovered = run_parallel_md(
        &sys,
        lj(),
        [1, 1, 1],
        &opts(Some(ckpt_sharded(&dir, "b.ckpt")), Some(plan)),
        60,
    )
    .unwrap();
    assert_eq!(recovered.local_recoveries, 1);
    assert_eq!(recovered.recoveries, 0);
    assert_bit_exact(&straight, &recovered, "kill at 33 on a 1x1x1 grid");
}

#[test]
fn chaos_soak_recovers_bit_exact_with_audits() {
    // Soak mode: a seed expands into a compound schedule (kill, drop,
    // delay, torn shard) while the invariant auditor runs every 10 steps.
    // The soaked run must complete with every audit passing and match
    // the clean run to the bit.
    let dir = test_dir("dpft-soak");
    let sys = argon();

    let straight = run_parallel_md(
        &sys,
        lj(),
        [2, 1, 1],
        &opts(Some(ckpt_sharded(&dir, "a.ckpt")), None),
        60,
    )
    .unwrap();

    let spec = ChaosSpec {
        seed: 11,
        kills: 1,
        drops: 1,
        delays: 1,
        torn_shards: 1,
        max_delay_ms: 20,
        audit_every: 10,
    };
    let plan = expand_chaos(&spec, 2, 60, 10).unwrap();
    assert_eq!(
        plan,
        expand_chaos(&spec, 2, 60, 10).unwrap(),
        "soak schedule must replay bit-exactly"
    );
    let mut o = opts(Some(ckpt_sharded(&dir, "b.ckpt")), Some(plan.clone()));
    o.comm_deadline = Duration::from_secs(2);
    o.max_recoveries = plan.max_failures();
    o.audit_every = 10;
    let soaked = run_parallel_md(&sys, lj(), [2, 1, 1], &o, 60).unwrap();

    assert!(
        soaked.rank_stats.iter().any(|s| s.audits_passed > 0),
        "auditor never ran: {:?}",
        soaked
            .rank_stats
            .iter()
            .map(|s| s.audits_passed)
            .collect::<Vec<_>>()
    );
    assert!(soaked.recoveries + soaked.local_recoveries >= 1);
    assert_bit_exact(&straight, &soaked, "chaos soak seed 11 on [2,1,1]");
}

#[test]
fn broken_invariant_fails_fast_typed() {
    // The test-only sabotage hook corrupts one rank's audit *report* (one
    // phantom atom); the atom-count conservation check must trip at the
    // first audit after the planned step and surface as a typed error —
    // no recovery attempt, the physics can't be trusted.
    let dir = test_dir("dpft-break-invariant");
    let sys = argon();
    let plan = FaultPlan {
        break_invariant: Some(BreakInvariant { rank: 0, step: 15 }),
        ..FaultPlan::default()
    };
    let mut o = opts(Some(ckpt_sharded(&dir, "a.ckpt")), Some(plan));
    o.audit_every = 10;
    let err = run_parallel_md(&sys, lj(), [2, 1, 1], &o, 60).unwrap_err();
    match &err {
        RunError::Audit { failure } => {
            assert_eq!(
                failure.check, "atom_count",
                "wrong check tripped: {failure}"
            );
            assert_eq!(
                failure.step, 20,
                "sabotage planned at 15 must trip the first audit at/after it"
            );
        }
        other => panic!("expected Audit, got {other}"),
    }
}

#[test]
fn rank_failure_without_checkpointing_is_typed() {
    let sys = argon();
    let plan = FaultPlan {
        kills: vec![KillSpec {
            rank: 0,
            step: 5,
            every_epoch: false,
        }],
        ..FaultPlan::default()
    };
    let started = Instant::now();
    let err = run_parallel_md(&sys, lj(), [2, 2, 1], &opts(None, Some(plan)), 20).unwrap_err();
    match &err {
        RunError::RankFailure { failure } => {
            assert!(
                failure.contains("rank 0") && failure.contains("injected fault"),
                "unexpected failure description: {failure}"
            );
        }
        other => panic!("expected RankFailure, got {other}"),
    }
    // Surviving ranks are woken by the poisoned reductions / dropped
    // endpoints, not by waiting out the 5s deadline.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "peer death took {:?} to surface",
        started.elapsed()
    );
}

#[test]
fn retries_exhausted_is_typed() {
    let dir = test_dir("dpft-retries");
    let sys = argon();
    let plan = FaultPlan {
        kills: vec![KillSpec {
            rank: 1,
            step: 15,
            every_epoch: true,
        }],
        ..FaultPlan::default()
    };
    let mut o = opts(Some(ckpt(&dir, "r.ckpt")), Some(plan));
    o.max_recoveries = 1;
    let err = run_parallel_md(&sys, lj(), [2, 2, 1], &o, 30).unwrap_err();
    match &err {
        RunError::RetriesExhausted { attempts, last } => {
            assert_eq!(*attempts, 1);
            assert!(last.contains("injected fault"), "last failure: {last}");
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

#[test]
fn dead_rank_in_allreduce_fails_peers_within_deadline() {
    let deadline = Duration::from_secs(5);
    let reduce = Arc::new(Allreduce::with_deadline(3, 1, deadline));
    let started = Instant::now();
    let workers: Vec<_> = (0..2)
        .map(|rank| {
            let r = Arc::clone(&reduce);
            std::thread::spawn(move || r.reduce(rank, &[1.0]))
        })
        .collect();
    // Rank 2 "dies" instead of contributing.
    std::thread::sleep(Duration::from_millis(50));
    reduce.poison(2);
    for w in workers {
        let got = w.join().unwrap();
        assert_eq!(got, Err(CommError::PeerFailed { rank: 2 }));
    }
    assert!(
        started.elapsed() < deadline,
        "poison must wake waiters immediately, took {:?}",
        started.elapsed()
    );
}

// ---- deck validation through the app layer ----------------------------

fn lj_parallel_deck(extra: &str) -> String {
    format!(
        r#"{{
            "system": {{"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948}},
            "potential": {{"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0}},
            "temperature": 40.0,
            "dt_fs": 2.0,
            "steps": 30,
            "thermo_every": 10,
            "seed": 7{extra}
        }}"#
    )
}

#[test]
fn checkpoint_shards_without_grid_is_a_deck_error() {
    let cfg = parse_config(&lj_parallel_deck(r#", "checkpoint_shards": true"#)).unwrap();
    let err = run(&cfg, |_| {}).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("grid"), "{err}");
}

#[test]
fn checkpoint_shards_without_checkpointing_is_a_deck_error() {
    let cfg = parse_config(&lj_parallel_deck(
        r#", "grid": [2,1,1], "checkpoint_shards": true"#,
    ))
    .unwrap();
    let err = run(&cfg, |_| {}).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("checkpoint_every"), "{err}");
}

#[test]
fn fault_keys_without_grid_are_a_deck_error() {
    let cfg = parse_config(&lj_parallel_deck(r#", "fault_kill_rank": 1"#)).unwrap();
    let err = run(&cfg, |_| {}).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("grid"), "{err}");
}

#[test]
fn half_specified_kill_is_a_deck_error() {
    let cfg = parse_config(&lj_parallel_deck(
        r#", "grid": [2,1,1], "fault_kill_rank": 1"#,
    ))
    .unwrap();
    let err = run(&cfg, |_| {}).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("together"), "{err}");
}

#[test]
fn zero_grid_dimension_is_a_deck_error() {
    let cfg = parse_config(&lj_parallel_deck(r#", "grid": [0,1,1]"#)).unwrap();
    let err = run(&cfg, |_| {}).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
}

#[test]
fn parallel_deck_runs_clean() {
    let cfg = parse_config(&lj_parallel_deck(r#", "grid": [2,1,1]"#)).unwrap();
    let mut lines = Vec::new();
    let summary = run(&cfg, |l| lines.push(l.to_string())).unwrap();
    assert_eq!(summary.recoveries, 0);
    assert_eq!(summary.final_system.len(), 108);
    assert!(
        lines.iter().any(|l| l.contains("2 ranks")),
        "no parallel done line in {lines:?}"
    );
}

/// The always-on flight recorder: a rank kill must leave a post-mortem
/// `"event":"flight_recorder"` line on the metrics stream whose window
/// covers at least 16 steps leading up to the fault. Installs the
/// process-global metrics sink, so it relies on this suite's
/// `--test-threads=1` discipline (see module docs).
#[test]
fn flight_recorder_dumps_steps_before_rank_death() {
    let dir = test_dir("dpft-flight-recorder");
    let metrics_path = dir.join("flight.jsonl");
    dp_obs::metrics::install(metrics_path.to_str().unwrap()).unwrap();
    dp_obs::enable();

    // Shards on: the kill is absorbed by a localized respawn, and the
    // supervisor dumps the dead rank's ring before deciding on recovery.
    let plan = FaultPlan {
        kills: vec![KillSpec {
            rank: 1,
            step: 33,
            every_epoch: false,
        }],
        ..FaultPlan::default()
    };
    let run = run_parallel_md(
        &argon(),
        lj(),
        [2, 1, 1],
        &opts(Some(ckpt_sharded(&dir, "a.ckpt")), Some(plan)),
        60,
    );

    dp_obs::disable();
    dp_obs::metrics::uninstall().unwrap().unwrap();
    let run = run.unwrap();
    assert_eq!(
        run.local_recoveries, 1,
        "kill at 33 must be repaired in place"
    );

    let jsonl = std::fs::read_to_string(&metrics_path).unwrap();
    let dump = jsonl
        .lines()
        .find(|l| {
            l.contains("\"event\":\"flight_recorder\"") && l.contains("\"reason\":\"rank_death\"")
        })
        .unwrap_or_else(|| panic!("no rank_death flight dump in:\n{jsonl}"));
    assert!(dump.contains("\"rank\":1,"), "{dump}");

    // The ring (capacity 64) holds every step the dead rank completed:
    // the window must reach back >= 16 steps and end just before the kill.
    let n_steps = dump.matches("\"step\":").count();
    assert!(n_steps >= 16, "window covers only {n_steps} steps: {dump}");
    assert!(
        dump.contains("\"step\":32,"),
        "window missing step 32: {dump}"
    );
    for key in [
        "wall_us",
        "compute_us",
        "comm_us",
        "wait_us",
        "neigh_us",
        "io_us",
        "ghost_atoms",
        "bytes",
        "flops",
    ] {
        assert!(
            dump.contains(&format!("\"{key}\":")),
            "step record missing {key}: {dump}"
        );
    }
    // the dump is also counted (always-on counter, survives disable())
    assert!(dp_obs::counter("flight.dumps").get() >= 1);
}

// ---- the dpmd binary: exit codes, stderr discipline, metrics ----------

fn dpmd(deck_path: &std::path::Path, extra_args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_dpmd"))
        .arg(deck_path)
        .args(extra_args)
        .output()
        .expect("failed to spawn dpmd")
}

#[test]
fn exhausted_retries_exit_typed_without_panic_spew() {
    let dir = test_dir("dpft-bin-retries");
    let base = dir.join("run.ckpt").display().to_string();
    let deck = lj_parallel_deck(&format!(
        r#",
        "grid": [2,1,1],
        "checkpoint_every": 10,
        "checkpoint_path": "{base}",
        "fault_kill_rank": 1,
        "fault_kill_step": 15,
        "fault_kill_every_epoch": true,
        "fault_max_retries": 1"#
    ));
    let deck_path = dir.join("deck.json");
    std::fs::write(&deck_path, deck).unwrap();

    let out = dpmd(&deck_path, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("retries exhausted") && stderr.contains("injected fault"),
        "untyped stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stdout.contains("panicked"),
        "panic spew leaked:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

#[test]
fn injected_fault_counters_reach_metrics_jsonl() {
    let dir = test_dir("dpft-bin-metrics");
    let base = dir.join("run.ckpt").display().to_string();
    let deck = lj_parallel_deck(&format!(
        r#",
        "grid": [2,1,1],
        "checkpoint_every": 10,
        "checkpoint_path": "{base}",
        "fault_kill_rank": 1,
        "fault_kill_step": 15"#
    ));
    let deck_path = dir.join("deck.json");
    std::fs::write(&deck_path, deck).unwrap();
    let metrics = dir.join("metrics.jsonl");

    let out = dpmd(&deck_path, &["--metrics", metrics.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "one-shot kill must be recovered:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("recovered from 1 failed epoch"),
        "no recovery log line:\n{stdout}"
    );

    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        jsonl.contains("\"fault.detected\""),
        "fault.detected missing from metrics:\n{jsonl}"
    );
    assert!(
        jsonl.contains("\"recovery.attempt\""),
        "recovery.attempt missing from metrics:\n{jsonl}"
    );
    assert!(
        jsonl.contains("\"recovery.success\""),
        "recovery.success missing from metrics:\n{jsonl}"
    );
}

#[test]
fn recovery_tiers_reach_metrics_jsonl() {
    // Tier 1 drill through the binary: shards on, one kill. The metrics
    // stream must carry the localized counters and the recovery-summary
    // tier, and the stdout log must say "in place", not "reload".
    let dir = test_dir("dpft-bin-local-metrics");
    let base = dir.join("run.ckpt").display().to_string();
    let deck = lj_parallel_deck(&format!(
        r#",
        "grid": [2,1,1],
        "checkpoint_every": 10,
        "checkpoint_path": "{base}",
        "checkpoint_shards": true,
        "fault_kill_rank": 1,
        "fault_kill_step": 15"#
    ));
    let deck_path = dir.join("deck.json");
    std::fs::write(&deck_path, deck).unwrap();
    let metrics = dir.join("metrics.jsonl");

    let out = dpmd(&deck_path, &["--metrics", metrics.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "sharded kill must be repaired in place:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("localized respawn"),
        "no localized-recovery log line:\n{stdout}"
    );
    assert!(
        !stdout.contains("via checkpoint reload"),
        "localized recovery must not reload globally:\n{stdout}"
    );

    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    for needle in [
        "\"recovery.local.attempt\"",
        "\"recovery.local.success\"",
        "\"recovery.latency_us\"",
        "\"tier\":\"local\"",
    ] {
        assert!(
            jsonl.contains(needle),
            "{needle} missing from metrics:\n{jsonl}"
        );
    }
    assert!(
        !jsonl.contains("\"recovery.local.fallback\""),
        "clean localized recovery must not record a fallback:\n{jsonl}"
    );
}

#[test]
fn chaos_soak_deck_completes_with_audits_passing() {
    // The bounded soak smoke CI runs: compound faults + auditor through
    // the deck interface, must exit 0 with audits recorded as passed.
    let dir = test_dir("dpft-bin-soak");
    let base = dir.join("run.ckpt").display().to_string();
    let deck = lj_parallel_deck(&format!(
        r#",
        "grid": [2,1,1],
        "checkpoint_every": 10,
        "checkpoint_path": "{base}",
        "checkpoint_shards": true,
        "fault_comm_deadline_ms": 2000,
        "chaos_soak": {{"seed": 11, "kills": 1, "drops": 1, "delays": 1, "torn_shards": 1, "max_delay_ms": 20}}"#
    ));
    let deck_path = dir.join("deck.json");
    std::fs::write(&deck_path, deck).unwrap();
    let metrics = dir.join("metrics.jsonl");

    let out = dpmd(&deck_path, &["--metrics", metrics.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "soak deck must survive its own schedule:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        jsonl.contains("\"audit.passed\""),
        "audit.passed missing from metrics:\n{jsonl}"
    );
    assert!(
        !jsonl.contains("\"audit.failed\""),
        "soak must not trip the auditor:\n{jsonl}"
    );
}

#[test]
fn broken_invariant_deck_exits_6() {
    // The deliberately-injected invariant violation must produce the
    // typed audit failure and its own exit code — distinct from both deck
    // errors and ordinary fault-tolerance failures.
    let dir = test_dir("dpft-bin-audit");
    let base = dir.join("run.ckpt").display().to_string();
    let deck = lj_parallel_deck(&format!(
        r#",
        "grid": [2,1,1],
        "checkpoint_every": 10,
        "checkpoint_path": "{base}",
        "audit_every": 10,
        "fault_break_invariant": [0, 15]"#
    ));
    let deck_path = dir.join("deck.json");
    std::fs::write(&deck_path, deck).unwrap();

    let out = dpmd(&deck_path, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(6),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("invariant audit") && stderr.contains("atom_count"),
        "untyped audit failure:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stdout.contains("panicked"),
        "panic spew leaked:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

#[test]
fn unknown_deck_key_exits_2_missing_file_exits_3() {
    let dir = test_dir("dpft-bin-exit-codes");
    let deck_path = dir.join("typo.json");
    std::fs::write(&deck_path, lj_parallel_deck(r#", "stepz": 1"#)).unwrap();
    let out = dpmd(&deck_path, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("stepz"));

    let out = dpmd(&dir.join("does-not-exist.json"), &[]);
    assert_eq!(out.status.code(), Some(3));
}

//! Golden fold of the chaos schedule expansion.
//!
//! A chaos deck's seed *is* its fault schedule, so a failing soak is
//! replayed by re-running the same deck. That only holds while the
//! expansion stays bit-for-bit the same: this test folds every field of
//! the schedules expanded for seeds 0..32 into one `u64` and pins it.

use dp_parallel::{expand_chaos, ChaosSpec, FaultPlan};

/// FNV-1a style fold of one `u64` into the running hash.
fn fold(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0100_0000_01b3);
}

fn fold_plan(h: &mut u64, plan: &FaultPlan) {
    for k in &plan.kills {
        fold(h, k.rank as u64);
        fold(h, k.step as u64);
        fold(h, u64::from(k.every_epoch));
    }
    for d in &plan.drops {
        fold(h, d.from as u64);
        fold(h, d.to as u64);
        fold(h, d.seq);
    }
    for d in &plan.delays {
        fold(h, d.msg.from as u64);
        fold(h, d.msg.to as u64);
        fold(h, d.msg.seq);
        fold(h, d.delay.as_nanos() as u64);
    }
    for t in &plan.torn_shards {
        fold(h, t.rank as u64);
        fold(h, t.step as u64);
    }
}

#[test]
fn chaos_and_soak_schedules_are_pinned() {
    let (n_ranks, end_step, ckpt_every) = (4, 100, 10);
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for seed in 0..32 {
        let chaos = ChaosSpec {
            seed,
            kills: 3,
            drops: 2,
            delays: 2,
            max_delay_ms: 20,
            ..ChaosSpec::default()
        };
        fold_plan(
            &mut h,
            &expand_chaos(&chaos, n_ranks, end_step, ckpt_every).unwrap(),
        );
        let soak = expand_chaos(
            &ChaosSpec {
                seed,
                kills: 3,
                drops: 2,
                delays: 2,
                torn_shards: 2,
                max_delay_ms: 20,
                audit_every: 10,
            },
            n_ranks,
            end_step,
            ckpt_every,
        );
        fold_plan(&mut h, &soak.unwrap());
    }
    assert_eq!(
        h, 2_521_959_449_375_686_511,
        "chaos schedule expansion changed"
    );
}

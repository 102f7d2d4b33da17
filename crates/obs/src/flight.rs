//! The flight recorder: per-rank rings of per-step phase aggregates.
//!
//! A chrome trace shows everything but must be requested up front; the
//! metrics stream aggregates across steps. What neither gives you is the
//! question every post-mortem starts with: *what were the last N steps of
//! the dead rank doing?* The flight recorder answers it — a fixed-size
//! ring per rank holding one [`StepRecord`] per MD step (phase micros,
//! ghost traffic, bytes, FLOPs), written by the parallel driver's step
//! loop and dumped automatically by the supervisor on rank death, audit
//! failure, or recovery escalation. Every fault report becomes a
//! post-mortem with history.
//!
//! Cost contract: recording is gated on [`crate::enabled`] — a disabled
//! [`record`] is a single relaxed atomic load, the same contract as spans
//! and histograms (guarded by an overhead test below). The enabled path
//! is allocation-free in steady state: each rank's ring is boxed once on
//! its first record and then overwritten in place; a record is one mutex
//! lock (uncontended — each rank writes only its own ring) and a struct
//! copy. Ranks at or above [`MAX_RANKS`] are ignored rather than growing
//! the table.

use crate::json;
use std::sync::{Mutex, MutexGuard};

/// Steps each rank's ring retains (the post-mortem window).
pub const CAPACITY: usize = 64;

/// Rings are a fixed table: rank ids at or above this are not recorded.
pub const MAX_RANKS: usize = 64;

/// One MD step's phase aggregates on one rank. Times are microseconds of
/// wall time; `flops` is the delta of the process-global `"flops"`
/// counter over the step window (all ranks share that counter, so on a
/// multi-rank run it reads as "process FLOPs while this rank stepped").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepRecord {
    pub step: u64,
    pub wall_us: u64,
    pub compute_us: u64,
    pub comm_us: u64,
    pub wait_us: u64,
    pub neigh_us: u64,
    pub io_us: u64,
    /// Ghost atoms sent during the step.
    pub ghost_atoms: u64,
    /// Estimated bytes exchanged during the step.
    pub bytes: u64,
    pub flops: u64,
}

impl StepRecord {
    fn to_json(self) -> String {
        format!(
            "{{\"step\":{},\"wall_us\":{},\"compute_us\":{},\"comm_us\":{},\"wait_us\":{},\
             \"neigh_us\":{},\"io_us\":{},\"ghost_atoms\":{},\"bytes\":{},\"flops\":{}}}",
            self.step,
            self.wall_us,
            self.compute_us,
            self.comm_us,
            self.wait_us,
            self.neigh_us,
            self.io_us,
            self.ghost_atoms,
            self.bytes,
            self.flops
        )
    }
}

struct Ring {
    head: usize,
    len: usize,
    buf: Box<[StepRecord]>,
}

impl Ring {
    fn push(&mut self, rec: StepRecord) {
        self.buf[self.head] = rec;
        self.head = (self.head + 1) % CAPACITY;
        self.len = (self.len + 1).min(CAPACITY);
    }

    /// Oldest-first copy of the retained window.
    fn window(&self) -> Vec<StepRecord> {
        let mut out = Vec::with_capacity(self.len);
        let start = (self.head + CAPACITY - self.len) % CAPACITY;
        for i in 0..self.len {
            out.push(self.buf[(start + i) % CAPACITY]);
        }
        out
    }
}

static RINGS: [Mutex<Option<Ring>>; MAX_RANKS] = [const { Mutex::new(None) }; MAX_RANKS];

fn ring(rank: usize) -> MutexGuard<'static, Option<Ring>> {
    RINGS[rank].lock().unwrap_or_else(|e| e.into_inner())
}

/// Record one step for `rank`. No-op (one relaxed load) when the
/// subsystem is disabled; no-op for out-of-table ranks.
#[inline]
pub fn record(rank: usize, rec: StepRecord) {
    if !crate::enabled() {
        return;
    }
    if rank >= MAX_RANKS {
        return;
    }
    let mut g = ring(rank);
    g.get_or_insert_with(|| Ring {
        head: 0,
        len: 0,
        buf: vec![StepRecord::default(); CAPACITY].into_boxed_slice(),
    })
    .push(rec);
}

/// Oldest-first copy of `rank`'s retained window (empty if the rank never
/// recorded or is out of table range).
pub fn snapshot(rank: usize) -> Vec<StepRecord> {
    if rank >= MAX_RANKS {
        return Vec::new();
    }
    ring(rank).as_ref().map(Ring::window).unwrap_or_default()
}

/// Every rank with a non-empty ring, in rank order.
pub fn snapshot_all() -> Vec<(usize, Vec<StepRecord>)> {
    (0..MAX_RANKS)
        .filter_map(|r| {
            let w = snapshot(r);
            (!w.is_empty()).then_some((r, w))
        })
        .collect()
}

/// Clear every ring (the supervisor resets at run start so a dump never
/// mixes two runs' histories).
pub fn reset() {
    for r in &RINGS {
        *r.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

fn dump_line(reason: &str, rank: usize, window: &[StepRecord]) -> String {
    let steps: Vec<String> = window.iter().copied().map(StepRecord::to_json).collect();
    format!(
        "{{\"event\":\"flight_recorder\",\"reason\":{},\"rank\":{rank},\"n_steps\":{},\"steps\":[{}]}}",
        json::str(reason),
        window.len(),
        steps.join(",")
    )
}

/// Render one rank's window as a `"event":"flight_recorder"` JSONL line,
/// or `None` if the rank has no history.
pub fn dump_rank(rank: usize, reason: &str) -> Option<String> {
    let w = snapshot(rank);
    if w.is_empty() {
        return None;
    }
    crate::counter("flight.dumps").add(1);
    Some(dump_line(reason, rank, &w))
}

/// Render every non-empty ring, one JSONL line per rank. Increments the
/// `flight.dumps` counter once per dump call that produced output.
pub fn dump(reason: &str) -> Vec<String> {
    let all = snapshot_all();
    if !all.is_empty() {
        crate::counter("flight.dumps").add(1);
    }
    all.iter()
        .map(|(rank, w)| dump_line(reason, *rank, w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn rec(step: u64) -> StepRecord {
        StepRecord {
            step,
            wall_us: 100 + step,
            compute_us: 80,
            comm_us: 15,
            wait_us: 5,
            neigh_us: 3,
            io_us: 0,
            ghost_atoms: 12,
            bytes: 288,
            flops: 1000,
        }
    }

    #[test]
    fn ring_keeps_the_last_capacity_steps_in_order() {
        let _guard = crate::span::test_lock();
        crate::enable();
        reset();
        for s in 0..(CAPACITY as u64 + 10) {
            record(7, rec(s));
        }
        crate::disable();
        let w = snapshot(7);
        assert_eq!(w.len(), CAPACITY);
        assert_eq!(w[0].step, 10, "oldest retained step");
        assert_eq!(w[CAPACITY - 1].step, CAPACITY as u64 + 9);
        assert!(w.windows(2).all(|p| p[1].step == p[0].step + 1));
        reset();
        assert!(snapshot(7).is_empty());
    }

    #[test]
    fn disabled_record_is_a_single_relaxed_load() {
        let _guard = crate::span::test_lock();
        crate::disable();
        reset();
        // Same contract (and budget) as the disabled span/hist overhead
        // tests: no lock, no allocation, no clock read. This also covers
        // the prom registry, whose publication happens only at
        // scrape/report time — the hot path never touches it.
        let t = Instant::now();
        let r = rec(1);
        for _ in 0..1_000_000 {
            record(3, r);
        }
        let elapsed = t.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "disabled flight path too slow: {elapsed:?} for 1M records"
        );
        assert!(snapshot(3).is_empty(), "disabled records must not land");
    }

    #[test]
    fn out_of_table_ranks_are_ignored() {
        let _guard = crate::span::test_lock();
        crate::enable();
        reset();
        record(MAX_RANKS, rec(1));
        record(MAX_RANKS + 100, rec(1));
        crate::disable();
        assert!(snapshot_all().is_empty());
        assert!(snapshot(MAX_RANKS + 100).is_empty());
    }

    #[test]
    fn dump_renders_one_json_line_per_rank() {
        let _guard = crate::span::test_lock();
        crate::enable();
        reset();
        for s in 0..5 {
            record(0, rec(s));
        }
        record(2, rec(9));
        crate::disable();
        let before = crate::counter("flight.dumps").get();
        let lines = dump("rank_death");
        assert_eq!(lines.len(), 2);
        assert_eq!(crate::counter("flight.dumps").get(), before + 1);
        assert!(lines[0].contains("\"event\":\"flight_recorder\""));
        assert!(lines[0].contains("\"reason\":\"rank_death\""));
        assert!(lines[0].contains("\"rank\":0"));
        assert!(lines[0].contains("\"n_steps\":5"));
        assert!(lines[1].contains("\"rank\":2"));
        assert!(lines[1].contains("\"step\":9"));
        for l in &lines {
            assert_eq!(l.matches('{').count(), l.matches('}').count());
            assert_eq!(l.matches('[').count(), l.matches(']').count());
        }
        let solo = dump_rank(2, "audit_failure").expect("rank 2 has history");
        assert!(solo.contains("\"reason\":\"audit_failure\""));
        assert!(dump_rank(63, "nope").is_none());
        reset();
        assert!(dump("empty").is_empty());
    }
}

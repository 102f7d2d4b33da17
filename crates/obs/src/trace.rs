//! Bounded ring-buffer event recorder with chrome://tracing JSON export.
//!
//! When recording is on, every completed span additionally pushes a
//! [`TraceEvent`] into a bounded ring buffer (oldest events are dropped
//! once the capacity is reached — the count of drops is kept). The buffer
//! exports as a JSON array of chrome trace "complete" events (`"ph":"X"`,
//! microsecond `ts`/`dur`, per-thread `tid`), loadable in chrome://tracing
//! or ui.perfetto.dev.
//!
//! Lane (`tid`) assignment: spans recorded through a scoped
//! [`crate::registry::Registry`] carry the registry's tag — the parallel
//! driver tags each registry with its rank id, so after [`inject`]ing the
//! merged per-rank events, rank 0's compute lane sits directly above rank
//! 1's halo-wait lane, the visual the paper's Fig 6 decomposition needs.
//! Unscoped threads get dense ids starting at [`UNSCOPED_TID_BASE`] so
//! they can never collide with a rank lane.

use crate::json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Default ring capacity: ~64k events ≈ a few thousand MD steps of
/// phase-level spans, a few MB of memory.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// First `tid` handed to threads without a scoped registry. Rank lanes
/// (registry tags) live in `0..UNSCOPED_TID_BASE`.
pub const UNSCOPED_TID_BASE: u64 = 1000;

/// One completed span, in chrome trace terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    pub name: &'static str,
    /// Chrome lane: the scoped registry's tag (= rank id in the parallel
    /// driver), or a dense per-thread id >= [`UNSCOPED_TID_BASE`].
    pub tid: u64,
    /// Microseconds since the trace epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// A bounded event ring: oldest events evicted past `capacity`, with the
/// eviction count kept. Shared by the global recorder and each scoped
/// registry's per-rank ring.
#[derive(Debug)]
pub(crate) struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            events: VecDeque::with_capacity(cap.min(DEFAULT_CAPACITY)),
            capacity: cap,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events).into_iter().collect()
    }
}

fn recorder() -> MutexGuard<'static, Option<Ring>> {
    static RECORDER: OnceLock<Mutex<Option<Ring>>> = OnceLock::new();
    RECORDER
        .get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Monotonic origin all `ts` values are measured from. Initialized on
/// first use; `saturating_duration_since` protects spans that started
/// before the epoch was pinned.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(UNSCOPED_TID_BASE);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Build a [`TraceEvent`] on the shared epoch clock. Used by the span
/// layer (global path) and scoped registries (per-rank rings).
pub(crate) fn event_from(
    name: &'static str,
    tid: u64,
    start: Instant,
    dur: Duration,
) -> TraceEvent {
    let ts = start.saturating_duration_since(epoch());
    TraceEvent {
        name,
        tid,
        ts_us: ts.as_secs_f64() * 1e6,
        dur_us: dur.as_secs_f64() * 1e6,
    }
}

/// Start recording into a fresh ring buffer of `capacity` events.
/// Recording only captures spans, so the caller usually pairs this with
/// [`crate::enable`].
pub fn start_recording(capacity: usize) {
    *recorder() = Some(Ring::new(capacity));
}

/// Stop recording and take the buffered events (oldest first).
pub fn stop_recording() -> Vec<TraceEvent> {
    match recorder().take() {
        Some(mut r) => r.take(),
        None => Vec::new(),
    }
}

/// Is a ring buffer installed?
pub fn is_recording() -> bool {
    recorder().is_some()
}

/// Events dropped by the current recording because the ring was full.
pub fn dropped_events() -> u64 {
    recorder().as_ref().map_or(0, |r| r.dropped)
}

/// Called by the span layer for every completed *unscoped* span. Cheap
/// no-op when no recorder is installed.
pub(crate) fn push_span(name: &'static str, start: Instant, dur: Duration) {
    let mut guard = recorder();
    let Some(r) = guard.as_mut() else { return };
    let tid = thread_id();
    r.push(event_from(name, tid, start, dur));
}

/// Merge externally collected events (e.g. drained from per-rank scoped
/// registries) into the active recording, preserving their `tid` lanes.
/// Events are dropped (and counted) if no recording is active or the ring
/// overflows — same bounded-memory contract as live recording.
pub fn inject(events: impl IntoIterator<Item = TraceEvent>) {
    let mut guard = recorder();
    let Some(r) = guard.as_mut() else { return };
    for e in events {
        r.push(e);
    }
}

/// Render events as a chrome://tracing JSON array of complete events.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":{},\"cat\":\"dpmd\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            json::str(e.name),
            json::num(e.ts_us),
            json::num(e.dur_us),
            e.tid
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Write `events` as chrome trace JSON to `path`.
pub fn write_chrome_trace(path: &str, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::test_lock;

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        let _guard = test_lock();
        crate::enable();
        start_recording(4);
        for _ in 0..10 {
            crate::time("ring_phase", || {});
        }
        assert!(dropped_events() >= 6);
        let events = stop_recording();
        crate::disable();
        assert!(
            events.len() <= 4,
            "ring grew past capacity: {}",
            events.len()
        );
        assert!(events.iter().all(|e| e.name == "ring_phase"));
    }

    #[test]
    fn nested_spans_nest_in_time() {
        let _guard = test_lock();
        crate::enable();
        start_recording(64);
        {
            let _outer = crate::span("trace_outer");
            let _inner = crate::span("trace_inner");
        }
        let events = stop_recording();
        crate::disable();
        let outer = events.iter().find(|e| e.name == "trace_outer").unwrap();
        let inner = events.iter().find(|e| e.name == "trace_inner").unwrap();
        assert_eq!(outer.tid, inner.tid);
        assert!(outer.tid >= UNSCOPED_TID_BASE);
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1e-3);
    }

    #[test]
    fn chrome_json_has_required_fields() {
        let events = [TraceEvent {
            name: "phase \"x\"",
            tid: 3,
            ts_us: 1.5,
            dur_us: 2.25,
        }];
        let s = chrome_trace_json(&events);
        assert!(s.starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        for key in [
            "\"name\":",
            "\"ph\":\"X\"",
            "\"ts\":",
            "\"dur\":",
            "\"tid\":3",
            "\"pid\":",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        // escaped quote survived
        assert!(s.contains("phase \\\"x\\\""));
    }

    #[test]
    fn inject_merges_external_lanes_into_the_recording() {
        let _guard = test_lock();
        start_recording(8);
        inject([
            TraceEvent {
                name: "rank_phase",
                tid: 0,
                ts_us: 1.0,
                dur_us: 2.0,
            },
            TraceEvent {
                name: "rank_phase",
                tid: 1,
                ts_us: 1.5,
                dur_us: 2.0,
            },
        ]);
        let events = stop_recording();
        assert_eq!(events.len(), 2);
        assert!(events.iter().any(|e| e.tid == 0));
        assert!(events.iter().any(|e| e.tid == 1));
        // inject without a recording is a no-op, not a panic
        inject([TraceEvent {
            name: "late",
            tid: 0,
            ts_us: 0.0,
            dur_us: 0.0,
        }]);
    }

    #[test]
    fn stop_without_start_is_empty() {
        let _guard = test_lock();
        let was = is_recording();
        if !was {
            assert!(stop_recording().is_empty());
        }
    }
}

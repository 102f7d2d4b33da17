//! Scoped hierarchical span timers.
//!
//! A [`Span`] is an RAII guard: creation pushes onto a thread-local depth
//! stack and reads the clock, drop pops and records the elapsed time into
//! the thread's scoped [`crate::registry::Registry`] if one is installed
//! (per-rank attribution in the parallel driver), otherwise into (a) the
//! process-global per-name aggregate table read by [`stats`] and (b) the
//! trace ring buffer when recording is on (see [`crate::trace`]). When
//! the subsystem is disabled ([`crate::enabled`] is false) `span()` is a
//! single relaxed atomic load.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Aggregated wall time of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    pub name: &'static str,
    /// Completed spans recorded under this name.
    pub count: u64,
    /// Total (inclusive) wall time across those spans. Nested spans are
    /// counted in their parent too — percentages across *sibling* phases
    /// are meaningful, a grand total over all names double-counts.
    pub total: Duration,
}

fn agg() -> &'static Mutex<HashMap<&'static str, (u64, Duration)>> {
    static AGG: OnceLock<Mutex<HashMap<&'static str, (u64, Duration)>>> = OnceLock::new();
    AGG.get_or_init(|| Mutex::new(HashMap::new()))
}

fn agg_lock() -> MutexGuard<'static, HashMap<&'static str, (u64, Duration)>> {
    agg().lock().unwrap_or_else(|e| e.into_inner())
}

struct SpanInner {
    name: &'static str,
    start: Instant,
}

/// RAII span guard; see [`span`].
pub struct Span(Option<SpanInner>);

/// Open a span. Returns an inert guard when the subsystem is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    DEPTH.with(|d| d.set(d.get() + 1));
    Span(Some(SpanInner {
        name,
        start: Instant::now(),
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let dur = inner.start.elapsed();
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            record(inner.name, inner.start, dur);
        }
    }
}

/// Record a completed span. When the thread has a scoped
/// [`crate::registry::Registry`] installed the span lands there (tagged
/// with the registry's tid lane); otherwise it goes to the process-global
/// aggregate table plus the trace ring buffer (if recording).
fn record(name: &'static str, start: Instant, dur: Duration) {
    if crate::registry::dispatch_span(name, start, dur) {
        return;
    }
    {
        let mut map = agg_lock();
        let entry = map.entry(name).or_insert((0, Duration::ZERO));
        entry.0 += 1;
        entry.1 += dur;
    }
    crate::trace::push_span(name, start, dur);
}

/// Time a closure under `name`. No-op wrapper when disabled.
#[inline]
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

/// Time a closure under `name` and *also* return the measured duration.
///
/// Unlike [`time`], the clock is always read — callers like the parallel
/// driver need the duration for their own statistics (RankStats) whether
/// or not the subsystem is collecting spans.
#[inline]
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let sp = span(name);
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed();
    drop(sp);
    (out, dur)
}

/// Current span nesting depth on this thread (open spans).
pub fn current_depth() -> usize {
    DEPTH.with(|d| d.get())
}

/// Snapshot of every span aggregate, largest total first.
pub fn stats() -> Vec<SpanStat> {
    let map = agg_lock();
    let mut out: Vec<SpanStat> = map
        .iter()
        .map(|(&name, &(count, total))| SpanStat { name, count, total })
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.total));
    out
}

/// Aggregate for one span name, if any span under it has completed.
pub fn stat(name: &str) -> Option<SpanStat> {
    let map = agg_lock();
    map.get_key_value(name)
        .map(|(&name, &(count, total))| SpanStat { name, count, total })
}

/// Clear all span aggregates (counters and the trace buffer are separate).
pub fn reset_stats() {
    agg_lock().clear();
}

#[cfg(test)]
pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_tracks_depth_and_aggregates_per_name() {
        let _guard = test_lock();
        crate::enable();
        reset_stats();
        assert_eq!(current_depth(), 0);
        {
            let _outer = span("outer_phase");
            assert_eq!(current_depth(), 1);
            for _ in 0..3 {
                let _inner = span("inner_phase");
                assert_eq!(current_depth(), 2);
                std::hint::black_box(0u64);
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);

        let outer = stat("outer_phase").expect("outer recorded");
        let inner = stat("inner_phase").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        // inclusive timing: the parent covers its children
        assert!(outer.total >= inner.total);
        crate::disable();
    }

    #[test]
    fn aggregation_is_thread_safe() {
        let _guard = test_lock();
        crate::enable();
        reset_stats();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        time("mt_phase", || std::hint::black_box(1u64));
                    }
                });
            }
        });
        assert_eq!(stat("mt_phase").unwrap().count, 200);
        crate::disable();
    }

    #[test]
    fn timed_measures_even_when_disabled() {
        let _guard = test_lock();
        crate::disable();
        reset_stats();
        let (value, dur) = timed("timed_phase", || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(value, 7);
        assert!(dur >= Duration::from_millis(1));
        // ... but records no span while disabled
        assert!(stat("timed_phase").is_none());
    }

    #[test]
    fn disabled_span_overhead_is_near_free() {
        let _guard = test_lock();
        crate::disable();
        // 1M disabled spans: each is one relaxed load + a None guard. Even
        // unoptimized debug builds do this in well under 250 ms; a clock
        // read or lock acquisition per span would blow the budget.
        let t = Instant::now();
        for _ in 0..1_000_000 {
            let _s = span("never_recorded");
        }
        let elapsed = t.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "disabled span path too slow: {elapsed:?} for 1M spans"
        );
        assert!(stat("never_recorded").is_none());
    }

    #[test]
    fn stats_sorted_by_total() {
        let _guard = test_lock();
        crate::enable();
        reset_stats();
        time("short_one", || {});
        time("long_one", || std::thread::sleep(Duration::from_millis(3)));
        let all = stats();
        crate::disable();
        let pos = |n: &str| all.iter().position(|s| s.name == n).unwrap();
        assert!(pos("long_one") < pos("short_one"));
    }
}

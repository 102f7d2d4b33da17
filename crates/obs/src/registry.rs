//! Scoped observability registries — per-rank span/histogram/trace state.
//!
//! The parallel driver runs ranks as OS threads inside one process, so a
//! single global span table smears all ranks together: you can see that
//! `ghost_exchange` took 40 ms in total, but not that rank 2 spent 30 of
//! them. A [`Registry`] is a self-contained span aggregate + histogram
//! set + trace ring that a thread installs *thread-locally* with
//! [`scope`]; while installed, every span and histogram recorded on that
//! thread lands in the registry instead of the global tables, tagged with
//! the registry's `tag` (the rank id — it becomes the chrome-trace `tid`
//! lane). The supervisor drains the registries after each epoch and
//! merges them into the global recording, producing one chrome trace
//! where each rank is its own lane, aligned on a shared epoch clock.
//!
//! The disabled-path contract is unchanged: scoping only adds a
//! thread-local lookup to the *enabled* record path; a disabled span or
//! histogram record is still a single relaxed atomic load. Worker threads
//! spawned inside a scoped region (e.g. [`crate::par`] workers under
//! `compute_into`) do not inherit the scope — their spans fall through to
//! the global tables, which keeps kernel-level taxonomy (Fig 3) separate
//! from rank-level phase attribution (Fig 6).

use crate::hist::{HistSnapshot, Histogram};
use crate::span::SpanStat;
use crate::trace::{self, Ring, TraceEvent};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A self-contained observability scope (one per rank in the driver).
#[derive(Debug)]
pub struct Registry {
    tag: u64,
    spans: Mutex<HashMap<&'static str, (u64, Duration)>>,
    hists: Mutex<Vec<(&'static str, Arc<Histogram>)>>,
    trace: Mutex<Option<Ring>>,
}

impl Registry {
    /// Create a registry tagged `tag` (the chrome-trace lane id; the
    /// driver uses the rank id, which must stay below
    /// [`trace::UNSCOPED_TID_BASE`] to avoid colliding with unscoped
    /// thread lanes).
    pub fn new(tag: u64) -> Self {
        Self {
            tag,
            spans: Mutex::new(HashMap::new()),
            hists: Mutex::new(Vec::new()),
            trace: Mutex::new(None),
        }
    }

    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Attach a bounded per-registry trace ring. Spans recorded under
    /// this scope are then buffered here (tagged `tid = tag`) until
    /// [`Registry::take_trace`].
    pub fn enable_trace(&self, capacity: usize) {
        *lock(&self.trace) = Some(Ring::new(capacity));
    }

    /// Drain the buffered trace events (oldest first) and the count of
    /// events the ring evicted.
    pub fn take_trace(&self) -> (Vec<TraceEvent>, u64) {
        match lock(&self.trace).as_mut() {
            Some(r) => {
                let dropped = r.dropped();
                (r.take(), dropped)
            }
            None => (Vec::new(), 0),
        }
    }

    /// Look up (or create) this registry's histogram under `name`. Hot
    /// loops should call this once and cache the `Arc`.
    pub fn hist(&self, name: &'static str) -> Arc<Histogram> {
        let mut hists = lock(&self.hists);
        if let Some((_, h)) = hists.iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        hists.push((name, Arc::clone(&h)));
        h
    }

    /// Snapshot every histogram in this registry, in creation order.
    pub fn hist_snapshots(&self) -> Vec<(&'static str, HistSnapshot)> {
        lock(&self.hists)
            .iter()
            .map(|(n, h)| (*n, h.snapshot()))
            .collect()
    }

    /// Aggregate for one span name under this scope.
    pub fn stat(&self, name: &str) -> Option<SpanStat> {
        lock(&self.spans)
            .get_key_value(name)
            .map(|(&name, &(count, total))| SpanStat { name, count, total })
    }

    pub(crate) fn record_span(&self, name: &'static str, start: Instant, dur: Duration) {
        {
            let mut map = lock(&self.spans);
            let entry = map.entry(name).or_insert((0, Duration::ZERO));
            entry.0 += 1;
            entry.1 += dur;
        }
        if let Some(r) = lock(&self.trace).as_mut() {
            r.push(trace::event_from(name, self.tag, start, dur));
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// RAII guard restoring the previously installed scope on drop.
#[must_use = "dropping the guard immediately uninstalls the scope"]
pub struct ScopeGuard {
    prev: Option<Arc<Registry>>,
}

/// Install `reg` as this thread's observability scope until the returned
/// guard drops. Scopes nest: the previous scope (if any) is restored.
pub fn scope(reg: Arc<Registry>) -> ScopeGuard {
    let prev = CURRENT.with(|c| c.replace(Some(reg)));
    ScopeGuard { prev }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The registry currently installed on this thread, if any.
pub fn current() -> Option<Arc<Registry>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Span-layer dispatch: record into the thread's scope if one is
/// installed. Returns false when unscoped (caller falls back to the
/// global tables).
pub(crate) fn dispatch_span(name: &'static str, start: Instant, dur: Duration) -> bool {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(reg) => {
            reg.record_span(name, start, dur);
            true
        }
        None => false,
    })
}

/// Histogram dispatch for [`crate::hist::record`]: scoped registry if
/// installed, else the process-global histogram.
pub(crate) fn record_hist(name: &'static str, value: u64) {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(reg) => reg.hist(name).record(value),
        None => crate::hist::global(name).record(value),
    })
}

/// Drain and merge the trace rings of several registries into one event
/// stream, sorted by start timestamp (chrome tolerates unsorted input,
/// but sorted output diffs and streams better). Returns the events and
/// the total number of ring-evicted events across the registries.
pub fn merge_traces(regs: &[Arc<Registry>]) -> (Vec<TraceEvent>, u64) {
    let mut events = Vec::new();
    let mut dropped = 0;
    for reg in regs {
        let (ev, d) = reg.take_trace();
        events.extend(ev);
        dropped += d;
    }
    events.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    (events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::test_lock;

    #[test]
    fn scoped_spans_do_not_leak_into_global_stats() {
        let _guard = test_lock();
        crate::enable();
        crate::reset_stats();
        let reg = Arc::new(Registry::new(7));
        {
            let _scope = scope(Arc::clone(&reg));
            crate::time("scoped_only_phase", || std::hint::black_box(1u64));
            crate::time("scoped_only_phase", || {});
        }
        crate::disable();
        let s = reg.stat("scoped_only_phase").expect("recorded in scope");
        assert_eq!(s.count, 2);
        assert!(
            crate::stat("scoped_only_phase").is_none(),
            "scoped span leaked into the global table"
        );
        // after the guard drops, spans go global again
        crate::enable();
        crate::time("post_scope_phase", || {});
        crate::disable();
        assert!(crate::stat("post_scope_phase").is_some());
        assert!(reg.stat("post_scope_phase").is_none());
        crate::reset_stats();
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _guard = test_lock();
        crate::enable();
        let outer = Arc::new(Registry::new(1));
        let inner = Arc::new(Registry::new(2));
        {
            let _o = scope(Arc::clone(&outer));
            {
                let _i = scope(Arc::clone(&inner));
                crate::time("nest_phase", || {});
                assert_eq!(current().unwrap().tag(), 2);
            }
            assert_eq!(current().unwrap().tag(), 1);
            crate::time("nest_phase", || {});
        }
        crate::disable();
        assert!(current().is_none());
        assert_eq!(inner.stat("nest_phase").unwrap().count, 1);
        assert_eq!(outer.stat("nest_phase").unwrap().count, 1);
    }

    #[test]
    fn scoped_trace_events_carry_the_tag_as_tid() {
        let _guard = test_lock();
        crate::enable();
        let r0 = Arc::new(Registry::new(0));
        let r1 = Arc::new(Registry::new(1));
        r0.enable_trace(16);
        r1.enable_trace(16);
        std::thread::scope(|s| {
            for reg in [&r0, &r1] {
                let reg = Arc::clone(reg);
                s.spawn(move || {
                    let _scope = scope(reg);
                    crate::time("rank_phase", || std::hint::black_box(0u64));
                });
            }
        });
        crate::disable();
        let (events, dropped) = merge_traces(&[r0, r1]);
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 2);
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1]);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn scoped_hists_are_isolated_and_interned() {
        let _guard = test_lock();
        crate::enable();
        let reg = Arc::new(Registry::new(3));
        {
            let _scope = scope(Arc::clone(&reg));
            crate::hist::record("scoped_hist", 42);
            crate::hist::record("scoped_hist", 43);
        }
        crate::hist::record("scoped_hist", 7); // unscoped -> global
        crate::disable();
        let a = reg.hist("scoped_hist");
        let b = reg.hist("scoped_hist");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.count(), 2);
        let snaps = reg.hist_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].1.max, 43);
        assert!(crate::hist::global("scoped_hist").count() >= 1);
    }

    #[test]
    fn per_registry_ring_is_bounded() {
        let _guard = test_lock();
        crate::enable();
        let reg = Arc::new(Registry::new(0));
        reg.enable_trace(3);
        {
            let _scope = scope(Arc::clone(&reg));
            for _ in 0..10 {
                crate::time("bounded_phase", || {});
            }
        }
        crate::disable();
        let (events, dropped) = reg.take_trace();
        assert!(events.len() <= 3);
        assert!(dropped >= 7);
    }
}

//! The harness's own span recorder.
//!
//! Spans are opened around calls into the program's layers from the
//! outside, kept in memory, and written as one chrome-trace file when
//! the benchmark ends. A span names its parent explicitly, so rank and
//! client threads can attach their calls to the block that caused them.

use dp_serve::json::{self, Json};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Timed block (or request) this span belongs to.
    pub block: u32,
    /// Thread lane (`tid` in the chrome trace).
    pub lane: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Shared, thread-safe recorder. Cloning shares the same span table.
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Arc<Mutex<Vec<SpanRec>>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            // room for a run's spans: recording one should not allocate
            // inside a block whose allocations are being counted
            spans: Arc::new(Mutex::new(Vec::with_capacity(1 << 12))),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn table(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        block: u32,
        lane: u32,
    ) -> SpanId {
        let start_ns = self.now_ns();
        let mut t = self.table();
        t.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            block,
            lane,
        });
        (t.len() - 1) as SpanId
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.table()[id as usize].end_ns = end_ns;
    }

    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.table().clone()
    }
}

/// A span's duration minus the part of its interval that its direct
/// children cover. Children on different lanes may overlap each other, so
/// the covered part is the union of their intervals clipped to the parent.
pub fn self_time_ns(spans: &[SpanRec], id: SpanId) -> u64 {
    let me = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// Total self time per span name, descending — where a block's time went.
pub fn self_time_by_name(spans: &[SpanRec]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for id in 0..spans.len() {
        let t = self_time_ns(spans, id as SpanId);
        match totals.iter_mut().find(|(n, _)| *n == spans[id].name) {
            Some((_, acc)) => *acc += t,
            None => totals.push((spans[id].name, t)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1));
    totals
}

/// Chrome-trace (`chrome://tracing`, Perfetto) complete events, one per
/// span. `pid` separates workloads when several traces are merged.
pub fn chrome_events(spans: &[SpanRec], workload: &str, pid: usize) -> Vec<Json> {
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            json::obj(vec![
                ("name", json::str(s.name)),
                ("ph", json::str("X")),
                ("ts", json::num(s.start_ns as f64 / 1e3)),
                ("dur", json::num(s.dur_ns() as f64 / 1e3)),
                ("pid", json::num(pid as f64)),
                ("tid", json::num(s.lane as f64)),
                (
                    "args",
                    json::obj(vec![
                        ("workload", json::str(workload)),
                        ("block", json::num(s.block as f64)),
                        ("id", json::num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| json::num(p as f64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, a: u64, b: u64, parent: Option<SpanId>, lane: u32) -> SpanRec {
        SpanRec {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            block: 0,
            lane,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            rec("block", 0, 100, None, 0),
            rec("force", 10, 40, Some(0), 0),
            rec("force", 50, 70, Some(0), 0),
            rec("gemm", 12, 30, Some(1), 0),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 12);
        assert_eq!(self_time_ns(&spans, 3), 18);
        assert_eq!(
            self_time_by_name(&spans),
            vec![("block", 50), ("force", 32), ("gemm", 18)]
        );
    }

    #[test]
    fn overlapping_children_on_two_lanes_are_counted_once() {
        // two rank threads inside one block: [10,60) and [30,90)
        let spans = vec![
            rec("block", 0, 100, None, 0),
            rec("force", 10, 60, Some(0), 1),
            rec("force", 30, 90, Some(0), 2),
            rec("late", 95, 130, Some(0), 1), // clipped to the parent
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 80 - 5);
    }

    #[test]
    fn tracer_records_parent_block_and_lane() {
        let t = Tracer::new();
        let b = t.open("block", None, 3, 0);
        let f = t.open("force", Some(b), 3, 1);
        t.close(f);
        t.close(b);
        let s = t.snapshot();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(b));
        assert_eq!((s[1].block, s[1].lane), (3, 1));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);
        let ev = chrome_events(&s, "w", 2);
        let text = json::arr(ev).to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.as_arr().unwrap().len(), 2);
        assert_eq!(
            back.as_arr().unwrap()[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_usize(),
            Some(0)
        );
    }
}

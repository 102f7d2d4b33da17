//! `dp-obs` — the unified observability subsystem.
//!
//! The paper's performance story rests on fine-grained measurement:
//! per-operator wall-time breakdowns (Fig 3), NVPROF FLOP accounting with
//! `peak = FLOPs / MD-loop time` (§6.3), and step-phase timing justifying
//! each optimization. This crate is the software analogue, shared by every
//! layer of the workspace:
//!
//! * [`span`] — scoped hierarchical wall-time spans with a thread-local
//!   depth stack, aggregated per name ("neighbor_rebuild",
//!   "ghost_exchange", "embedding_gemm", "fitting_net", "prod_force",
//!   "prod_virial", "integrate", "comm", "io", ...),
//! * [`registry`] — scoped per-rank registries: a rank thread installs a
//!   [`Registry`] thread-locally ([`scope`]) and its spans/histograms land
//!   there instead of the global tables, tagged with the rank id (the
//!   chrome-trace `tid` lane),
//! * [`counter`] — named process-wide counters/gauges (FLOPs, neighbor
//!   counts, ghost atoms, bytes exchanged),
//! * [`hist`] — allocation-free log2-bucketed histograms (mesh send/recv
//!   latency, allreduce wait, ghost payload bytes, step wall time) with
//!   p50/p95/max summaries in the metrics stream,
//! * [`trace`] — a bounded ring-buffer event recorder exporting
//!   chrome://tracing-loadable JSON (per-rank lanes after merging),
//! * [`metrics`] — per-step JSONL snapshots deriving the paper's headline
//!   figures (s/step/atom, achieved GFLOPS) exactly as §6.3 defines them,
//!   plus out-of-band event lines (histograms, imbalance, faults),
//! * [`imbalance`] — the §7.3 load-imbalance analyzer: per-phase
//!   min/mean/max across ranks, compute/comm/wait shares, imbalance
//!   ratios, achieved-vs-modeled FLOPS columns,
//! * [`report`] — roofline attribution rows (`--profile-report`,
//!   `"event":"roofline"` lines),
//! * [`serve`] — the serving daemon's canonical metric names
//!   (request/batch counters, latency histograms) and the `/metrics`
//!   snapshot payload,
//! * [`prom`] — Prometheus text-format exposition of everything above
//!   (cumulative `_bucket`/`_sum`/`_count` histogram series, labeled
//!   gauges) plus a strict scrape parser for round-trip verification,
//! * [`flight`] — the flight recorder: fixed-size per-rank rings of
//!   per-step phase aggregates, dumped by the parallel supervisor on rank
//!   death, audit failure, or recovery escalation.
//!
//! It also hosts the two std-only utilities every layer shares because it
//! is the one crate they all link: [`json`], the workspace codec, and
//! [`par`], the data-parallel loops.
//!
//! # Cost model
//!
//! The subsystem is off by default. A disabled [`span`] performs a single
//! `Relaxed` atomic load and constructs `None` — no clock read, no lock,
//! no allocation (an overhead test guards this). [`counter`]s are always
//! on: they are single `Relaxed` `fetch_add`s, cheaper than the branch
//! that would gate them, and the benches need FLOP totals even in
//! un-instrumented runs.

pub mod counter;
pub mod flight;
pub mod hist;
pub mod imbalance;
pub mod json;
pub mod metrics;
pub mod par;
pub mod prom;
pub mod registry;
pub mod report;
pub mod serve;
pub mod span;
pub mod trace;

pub use counter::{counter, counters, Counter};
pub use hist::{HistSnapshot, Histogram};
pub use imbalance::{ImbalanceReport, PhaseStat};
pub use registry::{scope, Registry, ScopeGuard};
pub use span::{current_depth, reset_stats, span, stat, stats, time, timed, Span, SpanStat};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span collection on. Counters are unaffected (always on).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn span collection off (the default).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Is span collection on? Single `Relaxed` load — this is the only cost a
/// disabled span pays.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

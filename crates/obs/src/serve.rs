//! Serve-phase metric names and the `/metrics` snapshot.
//!
//! The serving daemon (`dpmd serve`, `crates/serve`) records its request
//! lifecycle through the same always-on [`crate::counter`] and
//! [`crate::hist`] primitives the MD loop uses. This module pins the
//! names — so the daemon, its tests, and external scrapers agree on one
//! schema — and renders the `/metrics` payload: every counter plus every
//! histogram summary (count/mean/p50/p95/min/max) as one JSON object.
//!
//! Counter semantics:
//! * `serve.http.requests` / `serve.http.errors` — all requests handled /
//!   the subset answered with a 4xx/5xx status,
//! * `serve.eval.requests` — `/v1/eval` requests accepted into a queue,
//! * `serve.eval.rejected` — `/v1/eval` requests refused with 429
//!   (bounded queue depth — backpressure, not an error),
//! * `serve.eval.batches` — batched force evaluations executed,
//! * `serve.eval.coalesced` — the subset that served ≥ 2 requests in one
//!   §5.2.1 joined table (the cross-request batching win),
//! * `serve.eval.batched_requests` — requests served through batches
//!   (`batched_requests / batches` = mean occupancy),
//! * `serve.jobs.submitted` / `.completed` / `.failed` — deck jobs.
//!
//! Histograms:
//! * `serve.http.latency_us` — request wall time, parse to last byte,
//! * `serve.eval.batch_size` — requests per executed batch,
//! * `serve.eval.wait_us` — queue wait until a batch picked a request up.

use crate::counter::counters;
use crate::hist::global_snapshots;
use crate::json;

pub const HTTP_REQUESTS: &str = "serve.http.requests";
pub const HTTP_ERRORS: &str = "serve.http.errors";
pub const HTTP_LATENCY_US: &str = "serve.http.latency_us";
pub const EVAL_REQUESTS: &str = "serve.eval.requests";
pub const EVAL_REJECTED: &str = "serve.eval.rejected";
/// Evals bounced at admission because the estimated queue wait (from the
/// `serve.eval.wait_us` histogram) exceeded the request's `deadline_ms`.
pub const EVAL_DEADLINE_REJECTED: &str = "serve.eval.deadline_rejected";
pub const EVAL_BATCHES: &str = "serve.eval.batches";
pub const EVAL_COALESCED: &str = "serve.eval.coalesced";
pub const EVAL_BATCHED_REQUESTS: &str = "serve.eval.batched_requests";
pub const EVAL_BATCH_SIZE: &str = "serve.eval.batch_size";
pub const EVAL_WAIT_US: &str = "serve.eval.wait_us";
pub const JOBS_SUBMITTED: &str = "serve.jobs.submitted";
pub const JOBS_COMPLETED: &str = "serve.jobs.completed";
pub const JOBS_FAILED: &str = "serve.jobs.failed";

/// The `/metrics` observability payload: all process counters and all
/// global histogram summaries, one JSON object —
/// `{"counters":{name:value,...},"hists":{name:{"count":..,"mean":..,
/// "p50":..,"p95":..,"min":..,"max":..},...}}`. Not limited to `serve.*`
/// names: a daemon mid-job also exposes the MD loop's counters, which is
/// exactly what an operator scraping a busy server wants.
pub fn snapshot_json() -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\"counters\":{");
    for (i, (name, value)) in counters().into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{}:{value}", json::str(name)));
    }
    s.push_str("},\"hists\":{");
    for (i, (name, snap)) in global_snapshots().into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{}:{{{}}}", json::str(name), snap.json_fields()));
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter::counter, hist};

    #[test]
    fn snapshot_contains_counters_and_hist_quantiles() {
        counter(EVAL_COALESCED).add(3);
        let h = hist::global(HTTP_LATENCY_US);
        for v in [120, 450, 900, 4000] {
            h.record(v);
        }
        let s = snapshot_json();
        assert!(s.starts_with("{\"counters\":{"));
        assert!(s.contains("\"serve.eval.coalesced\":"));
        assert!(s.contains("\"serve.http.latency_us\":{"));
        assert!(s.contains("\"p50\":"));
        assert!(s.contains("\"p95\":"));
        assert!(s.ends_with("}}"));
    }

    #[test]
    fn metric_names_are_distinct() {
        let names = [
            HTTP_REQUESTS,
            HTTP_ERRORS,
            HTTP_LATENCY_US,
            EVAL_REQUESTS,
            EVAL_REJECTED,
            EVAL_DEADLINE_REJECTED,
            EVAL_BATCHES,
            EVAL_COALESCED,
            EVAL_BATCHED_REQUESTS,
            EVAL_BATCH_SIZE,
            EVAL_WAIT_US,
            JOBS_SUBMITTED,
            JOBS_COMPLETED,
            JOBS_FAILED,
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

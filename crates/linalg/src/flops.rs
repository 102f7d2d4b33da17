//! Floating-point-operation accounting, fed into the dp-obs counter
//! registry.
//!
//! The paper counts FLOPs with NVPROF on the GPU and reports
//! `peak = total FLOPs / MD loop time` and
//! `sustained = total FLOPs / total wall time` (§6.3). We do the equivalent
//! in software: every GEMM and fused activation kernel adds its operation
//! count to the process-wide `"flops"` counter in the [`dp_obs`] registry,
//! which the bench harnesses and the per-step metrics sink read.
//!
//! # Ordering semantics
//!
//! All accesses are `Relaxed`: the counter is a statistic, not a
//! synchronization point, so it never orders other memory accesses. A read
//! taken while worker threads are mid-kernel may miss in-flight additions;
//! exact totals require the reader to join its workers first, which the
//! benches do.
//!
//! # Scoping
//!
//! [`reset`] is a process-global swap — two benches resetting concurrently
//! (as `cargo test`'s parallel harness will) steal each other's counts.
//! Concurrent measurement must use the delta-based [`FlopCounter`], which
//! reads a snapshot at construction and reports the difference without
//! ever writing the shared counter.

use dp_obs::Counter;
use std::sync::OnceLock;

/// Registry name of the FLOP counter (`dp_obs::counter(FLOPS_COUNTER)`).
pub const FLOPS_COUNTER: &str = "flops";

/// The interned dp-obs counter handle. Cached so the hot path is a single
/// relaxed `fetch_add`, not a registry lookup.
pub fn handle() -> &'static Counter {
    static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
    HANDLE.get_or_init(|| dp_obs::counter(FLOPS_COUNTER))
}

/// Add `n` floating-point operations to the global counter.
#[inline(always)]
pub fn add(n: u64) {
    handle().add(n);
}

/// Read the global counter (`Relaxed`; see module docs).
pub fn read() -> u64 {
    handle().get()
}

/// Reset the global counter to zero, returning the previous value.
///
/// Process-global: prefer [`FlopCounter`] wherever another thread might be
/// measuring at the same time.
pub fn reset() -> u64 {
    handle().reset()
}

/// Scoped FLOP counter: records the global counter at construction and
/// reports the delta, so nested or concurrent regions can be measured
/// without resets interfering with each other.
pub struct FlopCounter {
    start: u64,
}

impl FlopCounter {
    pub fn start() -> Self {
        Self { start: read() }
    }

    /// FLOPs accumulated since `start()`.
    pub fn elapsed(&self) -> u64 {
        read().saturating_sub(self.start)
    }
}

impl Default for FlopCounter {
    fn default() -> Self {
        Self::start()
    }
}

/// FLOPs for a `m×k · k×n` GEMM (one multiply + one add per inner element).
#[inline(always)]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = FlopCounter::start();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        add(1);
                    }
                });
            }
        });
        assert!(c.elapsed() >= 8000);
    }

    #[test]
    fn feeds_the_obs_registry() {
        add(10);
        let snap = dp_obs::counters();
        let flops = snap.iter().find(|&&(n, _)| n == FLOPS_COUNTER);
        assert!(flops.is_some_and(|&(_, v)| v >= 10), "{snap:?}");
        assert!(std::ptr::eq(handle(), dp_obs::counter(FLOPS_COUNTER)));
    }
}

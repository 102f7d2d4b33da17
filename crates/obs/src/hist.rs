//! Allocation-free log2-bucketed latency/size histograms.
//!
//! A [`Histogram`] is a fixed array of 64 atomic buckets — bucket `i`
//! (for `i >= 1`) counts values in `[2^(i-1), 2^i)`, bucket 0 counts
//! zeros, and bucket 63 additionally absorbs everything at or above
//! `2^62` (saturation). [`Histogram::record`] is a handful of `Relaxed`
//! atomic ops with no allocation, no lock, and no clock read, so the
//! parallel driver can record every mesh send/recv, allreduce wait,
//! ghost payload, and step wall time without perturbing the thing it is
//! measuring. Log2 bucketing trades precision for cost exactly like the
//! paper trades profiling granularity for scale: a p95 that is right to
//! within 2x is enough to see which rank's halo exchange is the straggler.
//!
//! Quantiles are estimated from a [`HistSnapshot`]: walk the cumulative
//! counts and report the upper bound of the bucket containing the target
//! rank, clamped to the exact observed `max`.
//!
//! Recording through the free function [`record`] is gated on
//! [`crate::enabled`] (one relaxed load when disabled — same contract as
//! spans, guarded by an overhead test) and dispatches to the calling
//! thread's scoped [`crate::registry::Registry`] when one is installed,
//! else to a process-global histogram interned by name.

use crate::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Number of log2 buckets. Covers the full `u64` range.
pub const N_BUCKETS: usize = 64;

/// A concurrent log2-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`, with the
/// top bucket saturating: every value `>= 2^62` folds into bucket 63
/// (`64 - leading_zeros` is 63 already at `2^62`, and the `.min` clamp
/// holds it there for everything larger — matching the module doc).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(N_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (used for quantile estimates).
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= N_BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. `Relaxed` atomics only — statistics, not
    /// synchronization; never allocates.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Fold another histogram's contents into this one.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v > 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy (relaxed loads; exact once
    /// writers have quiesced, which is when the driver snapshots).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Plain-value copy of a [`Histogram`], for math and JSON emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: [u64; N_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Estimated `q`-quantile (`0.0..=1.0`): upper bound of the bucket
    /// holding the `ceil(q * count)`-th sample, clamped to the observed
    /// extremes. Exact to within the 2x bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_hi(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merge another snapshot into this one (same semantics as
    /// [`Histogram::merge_from`], on plain values).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// JSON object body (no braces): `"count":N,"mean":..,"p50":..,
    /// "p95":..,"min":..,"max":..` — the fields the metrics stream emits
    /// per histogram row.
    pub fn json_fields(&self) -> String {
        format!(
            "\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"min\":{},\"max\":{}",
            self.count,
            json::num(self.mean()),
            self.quantile(0.50),
            self.quantile(0.95),
            self.min,
            self.max
        )
    }
}

// ---- process-global fallback registry (unscoped threads) ----

fn global_registry() -> MutexGuard<'static, Vec<(&'static str, &'static Histogram)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(&'static str, &'static Histogram)>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Look up (or create) the process-global histogram under `name`. Like
/// counters, the handle set is bounded by the name set and leaks by
/// design. Threads with a scoped registry installed should use
/// [`crate::registry::Registry::hist`] instead.
pub fn global(name: &'static str) -> &'static Histogram {
    let mut reg = global_registry();
    if let Some(&(_, h)) = reg.iter().find(|(n, _)| *n == name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    reg.push((name, h));
    h
}

/// Snapshot every process-global histogram, in registration order.
pub fn global_snapshots() -> Vec<(&'static str, HistSnapshot)> {
    global_registry()
        .iter()
        .map(|&(n, h)| (n, h.snapshot()))
        .collect()
}

/// Record `value` under `name`: no-op (one relaxed load) when the
/// subsystem is disabled; otherwise lands in the calling thread's scoped
/// [`crate::registry::Registry`] if one is installed, else the
/// process-global histogram. Hot loops holding a registry can cache the
/// `Arc<Histogram>` handle and call [`Histogram::record`] directly.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    crate::registry::record_hist(name, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        // saturation: everything >= 2^62 folds into the top bucket
        assert_eq!(bucket_of(1u64 << 62), 63);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_hi(0), 0);
        assert_eq!(bucket_hi(3), 7);
        assert_eq!(bucket_hi(63), u64::MAX);
    }

    #[test]
    fn saturation_boundary_is_2_pow_62() {
        // Pins the reconciled doc: 2^62 - 1 is the last unsaturated
        // value; 2^62, 2^63 - 1, 2^63 and everything above share the
        // absorbing top bucket. The per-bucket invariant
        // `[2^(i-1), 2^i)` holds for every non-saturated bucket.
        assert_eq!(bucket_of((1u64 << 62) - 1), 62);
        assert_eq!(bucket_of(1u64 << 62), 63);
        assert_eq!(bucket_of((1u64 << 63) - 1), 63);
        assert_eq!(bucket_of(1u64 << 63), 63);
        assert_eq!(bucket_of((1u64 << 63) + 1), 63);
        for i in 1..62usize {
            assert_eq!(bucket_of(1u64 << (i - 1)), i, "lower edge of bucket {i}");
            assert_eq!(bucket_of((1u64 << i) - 1), i, "upper edge of bucket {i}");
        }
        // bucket_hi stays consistent with the saturated top bucket
        assert_eq!(bucket_hi(62), (1u64 << 62) - 1);
        assert_eq!(bucket_hi(63), u64::MAX);
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1_001_008);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[3], 1); // 7
        assert_eq!(s.buckets[10], 1); // 1000
        assert_eq!(s.buckets[20], 1); // 1_000_000
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let h = Histogram::new();
        // 90 fast samples around 100, 10 slow around 100_000
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.50);
        let p95 = s.quantile(0.95);
        assert!((100..200).contains(&p50), "p50 = {p50}");
        assert!((65_536..=131_072).contains(&p95), "p95 = {p95}");
        assert_eq!(s.quantile(1.0), 100_000); // clamped to exact max
        assert_eq!(s.quantile(0.0), s.quantile(1e-9));
    }

    #[test]
    fn saturated_values_stay_in_range() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets[N_BUCKETS - 1], 2);
        assert!(s.quantile(0.5) >= u64::MAX - 1); // clamped into min..max
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn merge_is_sum_of_parts() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [5u64, 50, 500_000] {
            b.record(v);
        }
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 111 + 500_055);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 500_000);

        // snapshot-level merge agrees
        let mut sa = Histogram::new().snapshot();
        let c = Histogram::new();
        for v in [1u64, 10, 100, 5, 50, 500_000] {
            c.record(v);
        }
        sa.merge(&c.snapshot());
        assert_eq!(sa, s);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn json_fields_are_emission_ready() {
        let h = Histogram::new();
        h.record(10);
        h.record(1000);
        let f = h.snapshot().json_fields();
        for key in [
            "\"count\":2",
            "\"p50\":",
            "\"p95\":",
            "\"max\":1000",
            "\"min\":10",
        ] {
            assert!(f.contains(key), "missing {key} in {f}");
        }
    }

    #[test]
    fn disabled_hist_overhead_is_near_free() {
        let _guard = crate::span::test_lock();
        crate::disable();
        // Same contract as the disabled-span test: one relaxed load, no
        // clock read, no lock, no allocation.
        let t = Instant::now();
        for i in 0..1_000_000u64 {
            record("never_recorded_hist", i);
        }
        let elapsed = t.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "disabled hist path too slow: {elapsed:?} for 1M records"
        );
        assert!(global_snapshots()
            .iter()
            .all(|(n, s)| *n != "never_recorded_hist" || s.count == 0));
    }

    #[test]
    fn global_handles_are_interned() {
        let a = global("hist_test_intern");
        let b = global("hist_test_intern");
        assert!(std::ptr::eq(a, b));
    }
}

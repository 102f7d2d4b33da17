//! Host ceilings, measured in the same run as the kernels they bound:
//! peak f64 FMA rate of one core and sustainable memory bandwidth. Also
//! [`wake_cores`], which a threaded workload calls before it times anything.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Independent accumulator vectors: enough chains to cover the FMA
/// latency (4 cycles) on two issue ports.
const ACCS: usize = 10;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_avx2(iters: u64) {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_set1_pd};
    let (m, a) = (
        _mm256_set1_pd(black_box(0.999_999)),
        _mm256_set1_pd(black_box(1e-9)),
    );
    let mut acc = [_mm256_set1_pd(1.0); ACCS];
    for _ in 0..iters {
        for v in &mut acc {
            *v = _mm256_fmadd_pd(*v, m, a);
        }
    }
    black_box(acc);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_avx512(iters: u64) {
    use std::arch::x86_64::{_mm512_fmadd_pd, _mm512_set1_pd};
    let (m, a) = (
        _mm512_set1_pd(black_box(0.999_999)),
        _mm512_set1_pd(black_box(1e-9)),
    );
    let mut acc = [_mm512_set1_pd(1.0); ACCS];
    for _ in 0..iters {
        for v in &mut acc {
            *v = _mm512_fmadd_pd(*v, m, a);
        }
    }
    black_box(acc);
}

/// No vector FMA unit detected: a separate multiply and add per lane
/// (2 FLOPs all the same), left to the compiler to vectorize.
fn muladd_portable(iters: u64) {
    let (m, a) = (black_box(0.999_999f64), black_box(1e-9f64));
    let mut acc = [[1.0f64; 4]; ACCS];
    for _ in 0..iters {
        for v in &mut acc {
            for x in v.iter_mut() {
                *x = *x * m + a;
            }
        }
    }
    black_box(acc);
}

fn gflops_of(lanes: usize, kernel: impl Fn(u64)) -> f64 {
    let iters = 4_000_000u64;
    kernel(iters / 8);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t = Instant::now();
        kernel(iters);
        let secs = t.elapsed().as_secs_f64();
        best = best.max((iters as usize * ACCS * lanes * 2) as f64 / secs / 1e9);
    }
    best
}

/// Best-of-five peak f64 multiply-add rate of the calling core, GFLOP/s,
/// over the widest vector unit the CPU reports.
pub fn peak_fma_gflops() -> f64 {
    let mut best = 0.0f64;
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: avx2 and fma were detected on this CPU just above.
            best = best.max(gflops_of(4, |n| unsafe { fma_avx2(n) }));
        }
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was detected on this CPU just above.
            best = best.max(gflops_of(8, |n| unsafe { fma_avx512(n) }));
        }
    }
    if best == 0.0 {
        best = gflops_of(4, muladd_portable);
    }
    best
}

/// Keep `threads` threads busy until they run side by side.
///
/// On this virtual machine, threads started while the second core has
/// been idle share one core for the first one to two seconds: two
/// spinning threads each run at half speed, then both jump to full speed.
/// A threaded workload that starts its set-up clock inside that window
/// measures the window (`parallel_2x1x1` set-up 0.4 s instead of 0.2 s
/// when the run before it was single-threaded). The threads here run a
/// fixed 2 ms chunk in lockstep until ten rounds in a row take no longer
/// than 1.25 × the chunk alone, or 3 s have passed.
pub fn wake_cores(threads: usize) {
    let threads = threads.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    if threads < 2 {
        return;
    }
    let chunk = || {
        let t = Instant::now();
        let mut x = black_box(1.0f64);
        for _ in 0..1_000_000 {
            x = x * 1.000_000_1 + 1e-20;
        }
        black_box(x);
        t.elapsed()
    };
    let alone = (0..5).map(|_| chunk()).min().unwrap_or_default();
    let deadline = Instant::now() + Duration::from_secs(3);
    let barrier = Barrier::new(threads);
    // A thread of this round shared its core; good rounds in a row; the
    // verdict. `Relaxed`: a `barrier.wait()` lies between every store and
    // the loads that need it, and orders them.
    let (shared, good, done) = (
        AtomicBool::new(false),
        AtomicU64::new(0),
        AtomicBool::new(false),
    );
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                barrier.wait();
                if done.load(Ordering::Relaxed) {
                    break;
                }
                let round = Instant::now();
                chunk();
                barrier.wait();
                // a thread that shared its core has waited for the other's
                // chunk by now, whichever of them ran first
                if round.elapsed() > alone + alone / 4 {
                    shared.store(true, Ordering::Relaxed);
                }
                if barrier.wait().is_leader() {
                    let run = if shared.swap(false, Ordering::Relaxed) {
                        0
                    } else {
                        good.load(Ordering::Relaxed) + 1
                    };
                    good.store(run, Ordering::Relaxed);
                    done.store(run >= 10 || Instant::now() > deadline, Ordering::Relaxed);
                }
            });
        }
    });
}

fn kib_field(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Size of the last-level cache this core sees, bytes (32 MiB when the
/// kernel does not say).
pub fn llc_bytes() -> u64 {
    let mut best = 0u64;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().map(|m| m << 20),
                None => size.parse::<u64>(),
            },
        };
        best = best.max(bytes.unwrap_or(0));
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

pub struct Stream {
    /// Sustained bandwidth of the in-place scale kernel `a[i] = s·a[i]`,
    /// GB/s, computed as 16 B per element (8 read, 8 written).
    pub gbs: f64,
    pub array_bytes: u64,
    pub llc_bytes: u64,
}

/// STREAM-scale, in place over one array of at least four times the
/// last-level cache, capped at a quarter of available memory (the cap is
/// visible in `array_bytes`). Best of two passes after a first-touch
/// pass; one array, not two, because first touch of guest memory is what
/// costs seconds on a virtual machine.
pub fn stream() -> Stream {
    let llc = llc_bytes();
    let avail = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|t| kib_field(&t, "MemAvailable:"))
        .map_or(u64::MAX, |kib| kib << 10);
    let n = ((4 * llc).max(64 << 20).min(avail / 4) / 8) as usize;
    let mut a = vec![1.0f64; n];
    let s = black_box(1.000_000_1);
    let mut best = 0.0f64;
    for _ in 0..2 {
        let t = Instant::now();
        for x in a.iter_mut() {
            *x *= s;
        }
        black_box(&mut a);
        best = best.max(16.0 * n as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    Stream {
        gbs: best,
        array_bytes: (n * 8) as u64,
        llc_bytes: llc,
    }
}

/// Peak resident set of process `pid` ("self" for this one), MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    kib_field(&text, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

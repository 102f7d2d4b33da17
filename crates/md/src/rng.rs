//! Counter-addressed RNG — the workspace's only random source.
//!
//! A generator with opaque internal state cannot be persisted, so a
//! resumed trajectory could never replay the same random stream. This
//! generator derives every output purely from `(seed, draw counter)` —
//! splitmix64 in counter mode — so its complete state is two u64s that a
//! checkpoint stores verbatim, and a resume continues the stream bit-exactly
//! from draw N. Statistical quality is ample for Boltzmann velocity draws
//! and Langevin kicks (splitmix64 passes BigCrush).
//!
//! The sampling methods ([`CounterRng::unit`], [`CounterRng::range`],
//! [`CounterRng::below`]) are one draw each with fixed arithmetic; golden
//! `to_bits` tests across the workspace lean on them, and
//! `tests::golden_sampling_bits` pins them by name.

/// An RNG whose full state is `(seed, draws)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
    draws: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CounterRng {
    pub fn new(seed: u64) -> Self {
        Self { seed, draws: 0 }
    }

    /// Reconstruct mid-stream state (resume): the next output is draw
    /// number `draws`, exactly as if `draws` values had been consumed.
    pub fn with_draws(seed: u64, draws: u64) -> Self {
        Self { seed, draws }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of 64-bit outputs consumed so far — the persistable state.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self
            .seed
            .wrapping_add((self.draws.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        self.draws += 1;
        out
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let v = lo + self.unit() * (hi - lo);
        if v >= hi {
            // guard the half-open bound against rounding
            f64::from_bits(hi.to_bits() - 1)
        } else {
            v
        }
    }

    /// An integer in `0..n` (`n > 0`) by remainder — the modulo bias is
    /// below `n / 2⁶⁴`, nothing for the schedule and index draws it serves.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Standard normal by Box–Muller, two draws.
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.range(f64::MIN_POSITIVE, 1.0);
        let u2 = self.range(0.0, 1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// The seeded case loop of the workspace's property suites: run `prop` on
/// `cases` inputs, case `k` drawn from `CounterRng::new(seed ^ k)`; a
/// failure reports the case and its input, so it replays alone.
#[doc(hidden)]
pub fn for_cases<I: std::fmt::Debug>(
    seed: u64,
    cases: u64,
    draw: impl Fn(&mut CounterRng) -> I,
    prop: impl Fn(&I),
) {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    for case in 0..cases {
        let input = draw(&mut CounterRng::new(seed ^ case));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| prop(&input))) {
            eprintln!("property failed at case {case} of seed {seed:#x}: {input:?}");
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = CounterRng::new(42);
        let mut b = CounterRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = CounterRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn with_draws_resumes_mid_stream() {
        let mut full = CounterRng::new(7);
        let head: Vec<u64> = (0..50).map(|_| full.next_u64()).collect();
        let _ = head;
        let tail: Vec<u64> = (0..50).map(|_| full.next_u64()).collect();

        let mut resumed = CounterRng::with_draws(7, 50);
        let tail2: Vec<u64> = (0..50).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, tail2);
        assert_eq!(resumed.draws(), 100);
    }

    #[test]
    fn draw_counter_tracks_high_level_sampling() {
        // every sampling method is exactly one draw (gauss two), so
        // (seed, draws) always reproduces the stream position
        let mut rng = CounterRng::new(3);
        let x = rng.range(0.0, 1.0);
        assert!((0.0..1.0).contains(&x));
        let _ = (rng.unit(), rng.below(10), rng.gauss());
        assert_eq!(rng.draws(), 5);

        let mut replay = CounterRng::with_draws(3, rng.draws());
        let mut orig = rng;
        assert_eq!(orig.range(0.0, 1.0), replay.range(0.0, 1.0));
    }

    /// The arithmetic every other golden `to_bits` test leans on, pinned
    /// by name: first values of each sampling method for seed 2020.
    #[test]
    fn golden_sampling_bits() {
        let mut rng = CounterRng::new(2020);
        let got = [
            rng.unit().to_bits(),
            rng.unit().to_bits(),
            rng.range(-1.5, 2.5).to_bits(),
            rng.range(f64::MIN_POSITIVE, 1.0).to_bits(),
            rng.below(1000),
            rng.below(1 << 40),
        ];
        let want = [
            0x3feb_0243_5997_f171,
            0x3fe5_59cb_abc7_f2c8,
            0x3f86_bbc2_ad89_ca00,
            0x3fd3_4e7f_03a8_94a0,
            381,
            175_040_276_822,
        ];
        assert_eq!(got, want, "{got:#x?}");
    }

    #[test]
    fn uniform_f64_looks_uniform() {
        let mut rng = CounterRng::new(99);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.range(0.0, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        // crude serial-correlation check
        let mut r2 = CounterRng::new(99);
        let xs: Vec<f64> = (0..n).map(|_| r2.range(0.0, 1.0)).collect();
        let corr: f64 = xs
            .windows(2)
            .map(|w| (w[0] - 0.5) * (w[1] - 0.5))
            .sum::<f64>()
            / (n - 1) as f64;
        assert!(corr.abs() < 0.01, "lag-1 correlation {corr}");
    }
}

//! Load-imbalance analysis across ranks — the paper's §7.3 lens.
//!
//! Fig 6 decomposes time-to-solution per scale point into computation vs.
//! communication; the scaling story lives in how those fractions shift
//! and how far the slowest rank lags the mean. [`ImbalanceReport`] is the
//! software analogue: given per-rank wall time for each phase (compute,
//! comm, wait, ...), it derives min/mean/max across ranks, a per-phase
//! imbalance ratio (`max / mean`, 1.0 = perfectly balanced), and each
//! phase's share of the mean busy time (the "compute % / comm %" columns).
//!
//! The analyzer is pure data — dp-obs stays dependency-free — so the
//! achieved-vs-modeled FLOPS columns are plain `f64`s the caller fills in
//! from `dp-perfmodel` (see `SystemModel::step_flops`): *achieved* is the
//! aggregate rate this run sustained while in the compute phase;
//! *modeled* is the rate the paper's per-atom work estimate would demand
//! of the same compute window, so `achieved/modeled` reads as "fraction
//! of paper-scale work our network performs per atom".

use crate::json;

/// Per-phase cross-rank statistics (one row of the breakdown table).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    pub name: &'static str,
    /// Fastest rank's total seconds in this phase.
    pub min_s: f64,
    /// Mean over ranks.
    pub mean_s: f64,
    /// Slowest rank's total seconds (the straggler bound).
    pub max_s: f64,
    /// `max_s / mean_s` — 1.0 is perfectly balanced.
    pub imbalance: f64,
    /// `mean_s / busy_mean_s` — this phase's share of rank busy time.
    pub share: f64,
    /// Achieved aggregate GFLOPS attributed to this phase (compute only;
    /// filled by the caller from the `flops` counter).
    pub gflops: Option<f64>,
    /// Modeled GFLOPS for the same window from `dp-perfmodel`.
    pub modeled_gflops: Option<f64>,
}

/// Cross-rank breakdown of one run (or one heartbeat interval).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImbalanceReport {
    pub n_ranks: usize,
    /// MD steps the report covers.
    pub steps: u64,
    pub phases: Vec<PhaseStat>,
    /// Mean over ranks of summed per-phase time ("busy" seconds).
    pub busy_mean_s: f64,
    /// Slowest rank's busy time over the mean — the run-level load
    /// imbalance ratio.
    pub imbalance: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl ImbalanceReport {
    /// Build a report from per-rank phase times: each `(name, times)`
    /// entry carries one seconds value per rank, in rank order. Entries
    /// shorter than `n_ranks` are zero-padded (a rank that never reached
    /// the phase contributes 0).
    pub fn from_phase_times(
        n_ranks: usize,
        steps: u64,
        phases: &[(&'static str, Vec<f64>)],
    ) -> Self {
        let n = n_ranks.max(1);
        let mut busy = vec![0.0f64; n];
        for (_, times) in phases {
            for (r, b) in busy.iter_mut().enumerate() {
                *b += times.get(r).copied().unwrap_or(0.0);
            }
        }
        let busy_mean = busy.iter().sum::<f64>() / n as f64;
        let busy_max = busy.iter().copied().fold(0.0f64, f64::max);
        let rows = phases
            .iter()
            .map(|(name, times)| {
                let get = |r: usize| times.get(r).copied().unwrap_or(0.0);
                let mut min = f64::INFINITY;
                let mut max = 0.0f64;
                let mut sum = 0.0f64;
                for r in 0..n {
                    let t = get(r);
                    min = min.min(t);
                    max = max.max(t);
                    sum += t;
                }
                let mean = sum / n as f64;
                PhaseStat {
                    name,
                    min_s: if min.is_finite() { min } else { 0.0 },
                    mean_s: mean,
                    max_s: max,
                    imbalance: ratio(max, mean),
                    share: ratio(mean, busy_mean),
                    gflops: None,
                    modeled_gflops: None,
                }
            })
            .collect();
        Self {
            n_ranks,
            steps,
            phases: rows,
            busy_mean_s: busy_mean,
            imbalance: ratio(busy_max, busy_mean),
        }
    }

    /// Mutable access to one phase row (for the caller to attach FLOPS).
    pub fn phase_mut(&mut self, name: &str) -> Option<&mut PhaseStat> {
        self.phases.iter_mut().find(|p| p.name == name)
    }

    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Render the §7.3-style breakdown as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "load imbalance across {} rank(s), {} step(s):\n{:<10} {:>12} {:>12} {:>12} {:>8} {:>8}\n",
            self.n_ranks, self.steps, "phase", "min/rank", "mean/rank", "max/rank", "imbal", "share"
        );
        for p in &self.phases {
            out.push_str(&format!(
                "{:<10} {:>10.4} s {:>10.4} s {:>10.4} s {:>8.2} {:>7.1}%",
                p.name,
                p.min_s,
                p.mean_s,
                p.max_s,
                p.imbalance,
                p.share * 100.0
            ));
            if let (Some(a), Some(m)) = (p.gflops, p.modeled_gflops) {
                out.push_str(&format!(
                    "  ({a:.3} achieved / {m:.3} modeled GFLOPS = {:.1}%)",
                    ratio(a, m) * 100.0
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "rank imbalance (max/mean busy): {:.2}\n",
            self.imbalance
        ));
        out
    }

    /// One JSONL metrics object. `event` distinguishes the end-of-run
    /// summary (`"imbalance"`) from live heartbeats
    /// (`"imbalance_heartbeat"`); heartbeats carry the step they fired at.
    pub fn to_json(&self, event: &str, step: Option<u64>) -> String {
        let mut out = format!("{{\"event\":{}", json::str(event));
        if let Some(s) = step {
            out.push_str(&format!(",\"step\":{s}"));
        }
        out.push_str(&format!(
            ",\"n_ranks\":{},\"steps\":{},\"busy_mean_s\":{},\"imbalance\":{},\"phases\":[",
            self.n_ranks,
            self.steps,
            json::num(self.busy_mean_s),
            json::num(self.imbalance)
        ));
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"phase\":{},\"min_s\":{},\"mean_s\":{},\"max_s\":{},\"imbalance\":{},\"share\":{}",
                json::str(p.name),
                json::num(p.min_s),
                json::num(p.mean_s),
                json::num(p.max_s),
                json::num(p.imbalance),
                json::num(p.share)
            ));
            if let Some(a) = p.gflops {
                out.push_str(&format!(",\"gflops\":{}", json::num(a)));
            }
            if let Some(m) = p.modeled_gflops {
                out.push_str(&format!(",\"modeled_gflops\":{}", json::num(m)));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ImbalanceReport {
        ImbalanceReport::from_phase_times(
            2,
            10,
            &[
                ("compute", vec![6.0, 8.0]),
                ("comm", vec![2.0, 1.0]),
                ("wait", vec![1.0, 0.0]),
            ],
        )
    }

    #[test]
    fn cross_rank_stats_and_shares() {
        let rep = sample();
        let c = rep.phase("compute").unwrap();
        assert_eq!((c.min_s, c.mean_s, c.max_s), (6.0, 7.0, 8.0));
        assert!((c.imbalance - 8.0 / 7.0).abs() < 1e-12);
        // busy: rank0 = 9, rank1 = 9 -> mean 9, perfectly balanced overall
        assert!((rep.busy_mean_s - 9.0).abs() < 1e-12);
        assert!((rep.imbalance - 1.0).abs() < 1e-12);
        assert!((c.share - 7.0 / 9.0).abs() < 1e-12);
        let shares: f64 = rep.phases.iter().map(|p| p.share).sum();
        assert!(
            (shares - 1.0).abs() < 1e-12,
            "shares sum to 1, got {shares}"
        );
    }

    #[test]
    fn zero_time_run_does_not_divide_by_zero() {
        let rep = ImbalanceReport::from_phase_times(4, 0, &[("compute", vec![0.0; 4])]);
        assert_eq!(rep.imbalance, 0.0);
        assert_eq!(rep.phases[0].share, 0.0);
        assert!(rep.to_table().contains("compute"));
    }

    #[test]
    fn short_phase_vectors_zero_pad() {
        let rep = ImbalanceReport::from_phase_times(3, 1, &[("comm", vec![3.0])]);
        let c = rep.phase("comm").unwrap();
        assert_eq!(c.min_s, 0.0);
        assert_eq!(c.max_s, 3.0);
        assert!((c.mean_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_has_event_phases_and_optional_model_columns() {
        let mut rep = sample();
        {
            let c = rep.phase_mut("compute").unwrap();
            c.gflops = Some(0.5);
            c.modeled_gflops = Some(3.0);
        }
        let s = rep.to_json("imbalance", None);
        for key in [
            "\"event\":\"imbalance\"",
            "\"n_ranks\":2",
            "\"phases\":[",
            "\"phase\":\"compute\"",
            "\"max_s\":",
            "\"imbalance\":",
            "\"gflops\":",
            "\"modeled_gflops\":",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert!(!s.contains("\"step\":"));
        let hb = rep.to_json("imbalance_heartbeat", Some(40));
        assert!(hb.contains("\"event\":\"imbalance_heartbeat\""));
        assert!(hb.contains("\"step\":40"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn table_shows_model_comparison() {
        let mut rep = sample();
        let c = rep.phase_mut("compute").unwrap();
        c.gflops = Some(1.0);
        c.modeled_gflops = Some(4.0);
        let t = rep.to_table();
        assert!(t.contains("25.0%"), "{t}");
        assert!(t.contains("rank imbalance"));
    }
}

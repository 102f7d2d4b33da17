//! Roofline attribution of a run's phases (`dpmd --profile-report`,
//! `"event":"roofline"` metrics lines, `roofline.*` Prometheus gauges).
//!
//! Timing records live elsewhere: per-step JSONL in [`crate::metrics`],
//! and the benchmark ledger in `crates/perfbench` (`run.sh`), which
//! replaced the `dpmd-bench/1` document this module used to define.

use crate::json;

/// One phase's roofline attribution: where its time went, what rate it
/// achieved, and whether the roofline model says the phase is limited by
/// memory traffic or by compute throughput.
///
/// Like [`crate::imbalance`], this is pure data — dp-obs stays
/// dependency-free, so the caller (the app layer) fills the modeled
/// columns in from `dp-perfmodel` (`SystemModel::step_flops`,
/// `SystemModel::bytes_per_atom`, `Roofline::attainable_gflops`). The
/// verdict is the classic roofline test: arithmetic intensity below the
/// device's ridge point ⇒ `"memory"`, above ⇒ `"compute"`; phases with no
/// FLOP attribution (comm, wait) report `"memory"` — they move bytes or
/// idle, never arithmetic — unless the caller overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineRow {
    pub phase: &'static str,
    /// Mean per-rank wall seconds in this phase.
    pub time_s: f64,
    /// FLOPs attributed to this phase.
    pub flops: u64,
    /// Estimated bytes moved in this phase.
    pub bytes: u64,
    /// `flops / time_s / 1e9` (0 when either is 0).
    pub achieved_gflops: f64,
    /// Rate the paper's per-atom work estimate would demand of the same
    /// window (`SystemModel::step_flops`), when the system is calibrated.
    pub modeled_gflops: Option<f64>,
    /// `flops / bytes` (FLOP/byte), when bytes are attributable.
    pub arithmetic_intensity: Option<f64>,
    /// Roofline ceiling at this intensity: `min(peak, AI · bandwidth)`.
    pub attainable_gflops: Option<f64>,
    /// `"compute"`, `"memory"`, or `"n/a"`.
    pub bound: &'static str,
}

impl RooflineRow {
    /// Build a row from raw attribution; derives `achieved_gflops` and
    /// `arithmetic_intensity`, leaves the model columns unset.
    pub fn from_attribution(phase: &'static str, time_s: f64, flops: u64, bytes: u64) -> Self {
        Self {
            phase,
            time_s,
            flops,
            bytes,
            achieved_gflops: if time_s > 0.0 {
                flops as f64 / time_s / 1e9
            } else {
                0.0
            },
            modeled_gflops: None,
            arithmetic_intensity: (bytes > 0).then(|| flops as f64 / bytes as f64),
            attainable_gflops: None,
            bound: "n/a",
        }
    }

    /// One `"event":"roofline"` JSONL metrics object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"event\":\"roofline\",\"phase\":{},\"time_s\":{},\"flops\":{},\"bytes\":{},\"achieved_gflops\":{}",
            json::str(self.phase),
            json::num(self.time_s),
            self.flops,
            self.bytes,
            json::num(self.achieved_gflops)
        );
        if let Some(m) = self.modeled_gflops {
            out.push_str(&format!(",\"modeled_gflops\":{}", json::num(m)));
        }
        if let Some(ai) = self.arithmetic_intensity {
            out.push_str(&format!(",\"arithmetic_intensity\":{}", json::num(ai)));
        }
        if let Some(a) = self.attainable_gflops {
            out.push_str(&format!(",\"attainable_gflops\":{}", json::num(a)));
        }
        out.push_str(&format!(",\"bound\":{}}}", json::str(self.bound)));
        out
    }
}

/// The `dpmd --profile-report` table: one [`RooflineRow`] per phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RooflineReport {
    pub rows: Vec<RooflineRow>,
}

impl RooflineReport {
    /// Render the attribution as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "roofline attribution:\n{:<10} {:>10} {:>14} {:>14} {:>14} {:>10} {:>8}\n",
            "phase", "time", "achieved", "modeled", "attainable", "AI", "bound"
        );
        for r in &self.rows {
            let fmt_opt = |v: Option<f64>, unit: &str| match v {
                Some(v) => format!("{v:.3}{unit}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<10} {:>8.4} s {:>14} {:>14} {:>14} {:>10} {:>8}\n",
                r.phase,
                r.time_s,
                format!("{:.3} GF/s", r.achieved_gflops),
                fmt_opt(r.modeled_gflops, " GF/s"),
                fmt_opt(r.attainable_gflops, " GF/s"),
                fmt_opt(r.arithmetic_intensity, " F/B"),
                r.bound
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_rows_derive_rates_and_serialize() {
        let mut r = RooflineRow::from_attribution("compute", 2.0, 4_000_000_000, 500_000_000);
        assert!((r.achieved_gflops - 2.0).abs() < 1e-12);
        assert!((r.arithmetic_intensity.unwrap() - 8.0).abs() < 1e-12);
        r.modeled_gflops = Some(10.0);
        r.attainable_gflops = Some(7000.0);
        r.bound = "compute";
        let s = r.to_json();
        for key in [
            "\"event\":\"roofline\"",
            "\"phase\":\"compute\"",
            "\"achieved_gflops\":",
            "\"modeled_gflops\":",
            "\"arithmetic_intensity\":",
            "\"attainable_gflops\":",
            "\"bound\":\"compute\"",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert_eq!(s.matches('{').count(), s.matches('}').count());

        // zero time / zero bytes degrade instead of dividing by zero
        let z = RooflineRow::from_attribution("wait", 0.0, 0, 0);
        assert_eq!(z.achieved_gflops, 0.0);
        assert!(z.arithmetic_intensity.is_none());
        assert!(!z.to_json().contains("arithmetic_intensity"));

        let table = RooflineReport { rows: vec![r, z] }.to_table();
        assert!(table.contains("roofline attribution"), "{table}");
        assert!(table.contains("compute"), "{table}");
        assert!(table.contains("GF/s"), "{table}");
    }
}

//! The ledger document: one file per full run (every workload, untraced
//! then traced), plus `compare` and `validate` over such files.

use crate::metrics::{e2e_def, Better, E2E, LAYERS, WORKLOADS};
use dp_serve::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

pub const SCHEMA: &str = "dpmd-perfbench/1";

/// Names the driver and this harness accept: `[A-Za-z0-9_.-]+`, at most
/// 64 characters, starting with a letter or digit.
pub fn name_ok(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

pub struct LedgerArgs {
    pub seed: u64,
    /// Multiplies the 10 s timed phase (0.05 is the smoke run).
    pub scale: f64,
    /// Empty: all six.
    pub workloads: Vec<String>,
    pub traced_only: bool,
    pub out: Option<PathBuf>,
}

fn env(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

/// Run one `bench` child and return the pass it wrote.
fn child_pass(workload: &str, a: &LedgerArgs, trace: bool, work: &Path) -> Result<Json, String> {
    let result = work.join(format!("result-{workload}-{}.json", u8::from(trace)));
    let _ = std::fs::remove_file(&result);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let status = Command::new(exe)
        .args([
            "bench",
            "--workload",
            workload,
            "--seed",
            &a.seed.to_string(),
        ])
        .args([
            "--seconds",
            &(10.0 * a.scale).to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--result")
        .arg(&result)
        .status()
        .map_err(|e| format!("cannot run the {workload} pass: {e}"))?;
    if !status.success() {
        return Err(format!(
            "the {workload} pass (trace {}) exited with {status}",
            u8::from(trace)
        ));
    }
    let text =
        std::fs::read_to_string(&result).map_err(|e| format!("{}: {e}", result.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", result.display()))
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

/// Every workload in its own process (so set-up time and peak memory are
/// per workload), merged into one document. Returns whether every output
/// check of every pass held.
pub fn run(a: &LedgerArgs, work: &Path) -> Result<bool, String> {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|n| a.workloads.is_empty() || a.workloads.iter().any(|w| w == n))
        .collect();
    if names.is_empty() {
        return Err(format!("no such workload: {:?}", a.workloads));
    }
    let mut entries: Vec<(&str, Json)> = Vec::new();
    let mut trace_events: Vec<Json> = Vec::new();
    let mut clean = true;
    for (name, why) in WORKLOADS.iter().filter(|w| names.contains(&w.0)) {
        let untraced = if a.traced_only {
            None
        } else {
            Some(child_pass(name, a, false, work)?)
        };
        let traced = child_pass(name, a, true, work)?;
        let count = |key: &str| -> Result<f64, String> {
            let of = |p: &Json| field(p, key).map(|v| v.as_f64().unwrap_or(0.0));
            Ok(untraced.as_ref().map_or(Ok(0.0), of)? + of(&traced)?)
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        clean &= failed == 0.0;
        entries.push((
            name,
            json::obj(vec![
                ("why", json::str(*why)),
                ("attempted", json::num(attempted)),
                ("failed", json::num(failed)),
                ("failed_frac", json::num(failed / attempted.max(1.0))),
                (
                    "end_to_end",
                    untraced
                        .as_ref()
                        .map_or(Ok(json::obj(vec![])), |p| field(p, "end_to_end").cloned())?,
                ),
                ("per_layer", field(&traced, "per_layer")?.clone()),
            ]),
        ));
        let trace = work.join(format!("trace-{name}.json"));
        if let Ok(text) = std::fs::read_to_string(&trace) {
            trace_events.extend(
                Json::parse(&text)
                    .ok()
                    .and_then(|j| j.as_arr().map(<[Json]>::to_vec))
                    .unwrap_or_default(),
            );
        }
    }
    let doc = json::obj(vec![
        ("schema", json::str(SCHEMA)),
        ("build_route", json::str(env("PERFBENCH_BUILD_ROUTE"))),
        // cargo links the real rayon, the offline route the sequential stub
        (
            "rayon",
            json::str(if env("PERFBENCH_BUILD_ROUTE") == "cargo" {
                "real"
            } else {
                "stub"
            }),
        ),
        ("threads", json::str(env("RAYON_NUM_THREADS"))),
        (
            "nproc",
            json::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("simd_backend", json::str(dp_linalg::simd::active().name())),
        ("commit", json::str(env("PERFBENCH_COMMIT"))),
        ("seed", json::num(a.seed as f64)),
        ("scale", json::num(a.scale)),
        ("workloads", json::obj(entries)),
    ]);
    let out = a.out.clone().unwrap_or_else(|| work.join("ledger.json"));
    std::fs::write(&out, doc.to_string() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    let trace_out = out.with_extension("trace.json");
    std::fs::write(&trace_out, json::arr(trace_events).to_string())
        .map_err(|e| format!("{}: {e}", trace_out.display()))?;
    println!(
        "ledger: {}\nchrome trace: {}",
        out.display(),
        trace_out.display()
    );
    Ok(clean)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA}")),
    }
}

/// One side of a compared pair.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    /// The run's own spread: the interquartile range of its blocks (or
    /// one-second windows) as a share of the value. Quartiles, not max −
    /// min: one block hit by a host hiccup should not void a comparison.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.value.abs().max(f64::MIN_POSITIVE)
    }

    fn of(metric: &Json) -> Option<Stat> {
        let f = |k: &str| metric.get(k).and_then(Json::as_f64);
        Some(Stat {
            value: f("value")?,
            q1: f("q1")?,
            q3: f("q3")?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Within the bound, but a run's own spread is wider than the bound,
    /// so "unchanged" is not shown.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(better: Better, bound: f64, a: Stat, b: Stat) -> Verdict {
    if worsening(better, a.value, b.value) > bound {
        Verdict::Regressed
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Print one row per (metric, workload) present in both documents.
/// Returns `(regressions incl. failure rises, unresolved rows)`.
pub fn compare(path_a: &str, path_b: &str) -> Result<(usize, usize), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let route = |d: &Json| {
        d.get("build_route")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    if route(&a) != route(&b) {
        return Err(format!(
            "build routes differ ({} vs {}): the numbers are not comparable",
            route(&a),
            route(&b)
        ));
    }
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for (w, _) in WORKLOADS {
        let side = |d: &'_ Json| d.get("workloads").and_then(|ws| ws.get(w)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            continue;
        };
        for d in E2E {
            let stat = |s: &Json| {
                s.get("end_to_end")
                    .and_then(|e| e.get(d.name))
                    .and_then(Stat::of)
            };
            let (Some(sa), Some(sb)) = (stat(&wa), stat(&wb)) else {
                continue;
            };
            let v = verdict(d.better, d.bound, sa, sb);
            regressed += usize::from(v == Verdict::Regressed);
            unresolved += usize::from(v == Verdict::Unresolved);
            let worse = 100.0 * worsening(d.better, sa.value, sb.value);
            println!(
                "{w:<18} {:<18} {:>14.6} {:>14.6} {worse:>7.2}% {:>5.0}%  {v:?}",
                d.name,
                sa.value,
                sb.value,
                100.0 * d.bound
            );
        }
        let frac = |s: &Json| s.get("failed_frac").and_then(Json::as_f64).unwrap_or(0.0);
        let rose = frac(&wb) > frac(&wa);
        regressed += usize::from(rose);
        println!(
            "{w:<18} {:<18} {:>14.6} {:>14.6} {:>8} {:>6}  {}",
            "failed_frac",
            frac(&wa),
            frac(&wb),
            "",
            "any",
            if rose { "Regressed" } else { "Ok" }
        );
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

/// Structural check of a ledger: every workload, every end-to-end metric
/// that applies to it, every per-layer metric somewhere, names well
/// formed, units present, and every layer metric says what it moves.
pub fn validate(path: &str) -> Result<(), String> {
    let doc = load(path)?;
    for key in [
        "build_route",
        "rayon",
        "threads",
        "nproc",
        "simd_backend",
        "commit",
        "seed",
    ] {
        field(&doc, key).map_err(|e| format!("{path}: {e}"))?;
    }
    let workloads = field(&doc, "workloads")?;
    let mut layers_seen: Vec<&str> = Vec::new();
    for (w, _) in WORKLOADS {
        let entry = workloads
            .get(w)
            .ok_or_else(|| format!("{path}: workload {w} is missing"))?;
        let e2e = field(entry, "end_to_end").map_err(|e| format!("{w}: {e}"))?;
        for d in E2E.iter().filter(|d| d.only.is_none_or(|only| only == *w)) {
            let m = e2e
                .get(d.name)
                .ok_or_else(|| format!("{w}: end-to-end metric {} is missing", d.name))?;
            if m.get("unit").and_then(Json::as_str) != Some(d.unit) || Stat::of(m).is_none() {
                return Err(format!("{w}: {} lacks its unit or value", d.name));
            }
        }
        for (name, m) in e2e.as_obj().into_iter().flatten() {
            if !name_ok(name) || e2e_def(name).is_none() {
                return Err(format!(
                    "{w}: unknown or malformed end-to-end name {name:?}"
                ));
            }
            let _ = m;
        }
        field(entry, "failed_frac").map_err(|e| format!("{w}: {e}"))?;
        let layers = field(entry, "per_layer").map_err(|e| format!("{w}: {e}"))?;
        for (name, m) in layers.as_obj().into_iter().flatten() {
            let d = LAYERS
                .iter()
                .find(|d| d.name == name)
                .ok_or_else(|| format!("{w}: unknown layer metric {name:?}"))?;
            let has = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .is_some_and(|s| !s.is_empty())
            };
            if !name_ok(name)
                || !has("unit")
                || !has("moves")
                || m.get("value").and_then(Json::as_f64).is_none()
            {
                return Err(format!("{w}: {name} lacks its value, unit or moves target"));
            }
            layers_seen.push(d.name);
        }
    }
    match LAYERS.iter().find(|d| !layers_seen.contains(&d.name)) {
        Some(d) => Err(format!(
            "{path}: no workload reports layer metric {}",
            d.name
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Stat {
        Stat {
            value: v,
            q1: v,
            q3: v,
        }
    }

    #[test]
    fn names() {
        for good in ["water_paper_f64", "core.eval.gemm_frac", "p99-ms", "2x1x1"] {
            assert!(name_ok(good), "{good}");
        }
        for bad in ["", ".hidden", "has space", "µs", "a/b", &"x".repeat(65)] {
            assert!(!name_ok(bad), "{bad}");
        }
    }

    #[test]
    fn compare_trips_just_beyond_the_bound_only() {
        let eps = 1e-9;
        for (better, worse_side, better_side) in
            [(Better::Lower, 1.0, -1.0), (Better::Higher, -1.0, 1.0)]
        {
            let at = |share: f64| flat(100.0 * (1.0 + worse_side * share));
            assert_eq!(
                verdict(better, 0.08, flat(100.0), at(0.08 + eps)),
                Verdict::Regressed
            );
            assert_eq!(
                verdict(better, 0.08, flat(100.0), at(0.08 - eps)),
                Verdict::Ok
            );
            assert_eq!(
                verdict(
                    better,
                    0.08,
                    flat(100.0),
                    flat(100.0 * (1.0 + better_side * 0.5))
                ),
                Verdict::Ok
            );
        }
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = Stat {
            value: 100.0,
            q1: 95.0,
            q3: 105.0,
        };
        assert_eq!(
            verdict(Better::Lower, 0.08, flat(100.0), noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.08, noisy, flat(101.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.25, noisy, flat(101.0)),
            Verdict::Ok
        );
        // a regression stays a regression however noisy the runs were
        assert_eq!(
            verdict(Better::Lower, 0.08, noisy, flat(120.0)),
            Verdict::Regressed
        );
    }
}

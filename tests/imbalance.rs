//! Per-rank observability end-to-end: the parallel driver must produce
//! one merged chrome-trace with a `tid` lane per rank, per-rank latency
//! histogram rows and imbalance heartbeats in the metrics JSONL, and a
//! populated `ImbalanceReport` on the run summary.
//!
//! Obs state (enable flag, trace recorder, metrics sink) is process-global,
//! so the driver-level test holds all its in-process checks inside a single
//! test fn; the deck-level test runs the `dpmd` binary in a subprocess and
//! never touches in-process obs state, so the two can coexist.

use deepmd_repro::md::integrate::MdOptions;
use deepmd_repro::md::potential::pair::LennardJones;
use deepmd_repro::md::rng::CounterRng;
use deepmd_repro::md::{lattice, Potential, System};
use deepmd_repro::parallel::{run_parallel_md, ParallelOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn argon() -> System {
    let mut sys = lattice::fcc(5.26, [3, 3, 3], 39.948);
    let mut rng = CounterRng::new(7);
    sys.init_velocities(30.0, &mut rng);
    sys
}

fn lj() -> Arc<dyn Potential> {
    Arc::new(LennardJones::new(0.0104, 3.405, 5.0))
}

/// Drives `run_parallel_md` directly with tracing, metrics, and the
/// heartbeat enabled, then checks every per-rank artifact in one pass.
#[test]
fn driver_level_histograms_heartbeat_and_rank_lanes() {
    let dir = test_dir("dpobs-driver-level");
    let metrics_path = dir.join("driver.jsonl");
    dp_obs::metrics::install(metrics_path.to_str().unwrap()).unwrap();
    dp_obs::trace::start_recording(dp_obs::trace::DEFAULT_CAPACITY);
    dp_obs::enable();

    let opts = ParallelOptions {
        md: MdOptions {
            dt: 2.0e-3,
            skin: 1.0,
            thermo_every: 10,
            ..MdOptions::default()
        },
        comm_deadline: Duration::from_secs(5),
        report_every: 5,
        ..ParallelOptions::default()
    };
    let run = run_parallel_md(&argon(), lj(), [2, 1, 1], &opts, 20).unwrap();

    dp_obs::disable();
    let events = dp_obs::trace::stop_recording();
    dp_obs::metrics::uninstall().unwrap().unwrap();

    // -- run summary: the analyzer's report is populated and coherent --
    let rep = &run.imbalance;
    assert_eq!(rep.n_ranks, 2);
    assert_eq!(rep.steps, 20);
    for name in ["compute", "comm", "wait"] {
        let p = rep
            .phase(name)
            .unwrap_or_else(|| panic!("missing phase {name}"));
        assert!(
            p.min_s <= p.mean_s && p.mean_s <= p.max_s,
            "{name}: min {} mean {} max {} out of order",
            p.min_s,
            p.mean_s,
            p.max_s
        );
        assert!(p.min_s >= 0.0 && p.share >= 0.0);
    }
    let compute = rep.phase("compute").unwrap();
    assert!(compute.mean_s > 0.0, "no compute time recorded");
    assert!(
        rep.imbalance >= 1.0,
        "max/mean busy below 1: {}",
        rep.imbalance
    );
    let shares: f64 = rep.phases.iter().map(|p| p.share).sum();
    assert!((shares - 1.0).abs() < 1e-9, "phase shares sum to {shares}");
    let table = rep.to_table();
    assert!(table.contains("rank imbalance"), "{table}");

    // -- merged chrome trace: each rank owns its own tid lane --
    let rank_tids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.tid < dp_obs::trace::UNSCOPED_TID_BASE)
        .map(|e| e.tid)
        .collect();
    assert_eq!(
        rank_tids.into_iter().collect::<Vec<_>>(),
        vec![0, 1],
        "expected exactly rank lanes 0 and 1 in the merged trace"
    );
    assert!(
        events.iter().any(|e| e.name == "force_eval" && e.tid == 1),
        "rank 1's lane is missing compute spans"
    );

    // -- metrics JSONL: per-rank histogram rows + heartbeat events --
    let jsonl = std::fs::read_to_string(&metrics_path).unwrap();
    for needle in [
        "\"event\":\"hist\"",
        "\"name\":\"step_wall_ns\"",
        "\"name\":\"comm.send_ns\"",
        "\"rank\":0,",
        "\"rank\":1,",
        "\"p50\":",
        "\"p95\":",
        "\"event\":\"imbalance_heartbeat\"",
        "\"step\":",
    ] {
        assert!(jsonl.contains(needle), "missing {needle} in:\n{jsonl}");
    }
    // heartbeats fire on the report_every stride and carry phase rows
    let heartbeats = jsonl
        .lines()
        .filter(|l| l.contains("\"event\":\"imbalance_heartbeat\""))
        .count();
    assert!(
        heartbeats >= 2,
        "expected >=2 heartbeats over 20 steps / 5, got {heartbeats}"
    );
}

// ---- the full deck path through the dpmd binary (CI only) --------------

fn dpmd(deck_path: &std::path::Path, extra_args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_dpmd"))
        .arg(deck_path)
        .args(extra_args)
        .output()
        .expect("failed to spawn dpmd")
}

/// A parallel LJ deck run through `dpmd --trace --metrics
/// --imbalance-report` must yield a schema-valid merged chrome trace, a
/// metrics stream carrying hist/heartbeat/imbalance events, and the
/// breakdown table on stdout. Subprocess-isolated: obs state stays clean.
#[test]
fn deck_level_merged_trace_and_imbalance_json() {
    use deepmd_repro::obs::json::Json as Value;

    let dir = test_dir("dpobs-deck-level");
    let deck = r#"{
        "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
        "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
        "temperature": 40.0,
        "dt_fs": 2.0,
        "steps": 30,
        "thermo_every": 10,
        "seed": 7,
        "grid": [2,1,1],
        "report_every": 10
    }"#;
    let deck_path = dir.join("deck.json");
    std::fs::write(&deck_path, deck).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.jsonl");

    let out = dpmd(
        &deck_path,
        &[
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
            "--imbalance-report",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("rank imbalance"),
        "--imbalance-report table missing from stdout:\n{stdout}"
    );

    // -- chrome trace: valid JSON array, complete events, rank lanes --
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let events = Value::parse(&trace_text).unwrap();
    let events = events.as_arr().expect("trace is a JSON array");
    assert!(!events.is_empty(), "empty trace");
    let mut rank_tids = std::collections::BTreeSet::new();
    for e in events {
        assert!(e.get("name").and_then(Value::as_str).is_some(), "{e}");
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"), "{e}");
        assert!(e.get("ts").and_then(Value::as_f64).is_some(), "{e}");
        assert!(e.get("dur").and_then(Value::as_f64).is_some(), "{e}");
        let tid = e.get("tid").and_then(Value::as_u64).expect("tid");
        if tid < 1000 {
            rank_tids.insert(tid);
        }
    }
    assert_eq!(
        rank_tids.into_iter().collect::<Vec<_>>(),
        vec![0, 1],
        "merged trace must carry one lane per rank"
    );

    // -- metrics JSONL: hist rows per rank, heartbeat, imbalance summary --
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let mut hist_ranks = std::collections::BTreeSet::new();
    let mut saw_heartbeat = false;
    let mut imbalance: Option<Value> = None;
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        let v = Value::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        match v.get("event").and_then(Value::as_str) {
            Some("hist") => {
                for key in ["name", "rank", "count", "mean", "p50", "p95", "min", "max"] {
                    assert!(v.get(key).is_some(), "hist row missing {key}: {line}");
                }
                hist_ranks.insert(v.get("rank").and_then(Value::as_u64).unwrap());
            }
            Some("imbalance_heartbeat") => {
                saw_heartbeat = true;
                assert!(v.get("step").and_then(Value::as_u64).is_some(), "{line}");
            }
            Some("imbalance") => imbalance = Some(v),
            _ => {}
        }
    }
    assert_eq!(
        hist_ranks.into_iter().collect::<Vec<_>>(),
        vec![0, 1],
        "histogram rows must cover both ranks"
    );
    assert!(saw_heartbeat, "no imbalance_heartbeat event in:\n{jsonl}");

    let imb = imbalance.expect("no end-of-run imbalance event");
    assert_eq!(imb.get("n_ranks").and_then(Value::as_u64), Some(2));
    assert_eq!(imb.get("steps").and_then(Value::as_u64), Some(30));
    assert!(imb.get("imbalance").and_then(Value::as_f64).unwrap() >= 1.0);
    let phases = imb.get("phases").and_then(Value::as_arr).unwrap();
    let phase = |p: &Value| p.get("phase").and_then(Value::as_str).map(str::to_string);
    let names: Vec<String> = phases.iter().filter_map(phase).collect();
    for want in ["compute", "comm", "wait"] {
        assert!(
            names.iter().any(|n| n == want),
            "missing phase {want} in {names:?}"
        );
    }
    for p in phases {
        for key in ["min_s", "mean_s", "max_s", "imbalance", "share"] {
            assert!(p.get(key).and_then(Value::as_f64).is_some(), "{p}");
        }
    }
    // fcc decks map to the copper perf model: the compute row carries the
    // modeled-GFLOPS column even though LJ itself counts no flops
    let compute = phases
        .iter()
        .find(|p| phase(p).as_deref() == Some("compute"))
        .unwrap();
    assert!(
        compute
            .get("modeled_gflops")
            .and_then(Value::as_f64)
            .unwrap()
            > 0.0,
        "compute row missing modeled_gflops: {compute}"
    );
}

//! Integration: the observability subsystem end-to-end through `app::run`.
//!
//! The obs state (enable flag, trace recorder, metrics sink) is process
//! global, so the trace and metrics checks run inside a single test —
//! cargo's parallel harness would otherwise race two runs on the shared
//! sink.

use deepmd_repro::app::{parse_config, run};
use deepmd_repro::core::{DpConfig, DpModel};
use deepmd_repro::obs::json::Json as Value;
use dp_md::CounterRng;

#[test]
fn dp_deck_with_trace_and_metrics_produces_valid_artifacts() {
    let mut rng = CounterRng::new(8);
    let model = DpModel::<f64>::new_random(DpConfig::small(1, 4.5, 16), &mut rng);
    let dir = std::env::temp_dir().join("dpmd-obs-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, model.to_json()).unwrap();
    let trace_path = dir.join("trace.json");
    let metrics_path = dir.join("metrics.jsonl");

    let deck = format!(
        r#"{{
        "system": {{"kind": "fcc", "a0": 3.615, "reps": [3,3,3], "mass": 63.546}},
        "potential": {{"kind": "deep_potential", "model": {model:?}, "mixed_precision": true}},
        "temperature": 100.0,
        "dt_fs": 1.0,
        "steps": 12,
        "thermo_every": 6,
        "trace_path": {trace:?},
        "metrics_path": {metrics:?},
        "seed": 9
    }}"#,
        model = model_path.to_str().unwrap(),
        trace = trace_path.to_str().unwrap(),
        metrics = metrics_path.to_str().unwrap()
    );
    let cfg = parse_config(&deck).unwrap();
    let summary = run(&cfg, |_| {}).unwrap();
    assert!(summary.thermo.last().unwrap().total_energy().is_finite());

    // ---- chrome trace: a loadable JSON array of complete events ----
    let trace_text = std::fs::read_to_string(&trace_path).unwrap();
    let events = Value::parse(&trace_text).expect("trace is valid JSON");
    let events = events.as_arr().expect("trace is a JSON array");
    assert!(!events.is_empty(), "trace recorded no events");
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    let float = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
    let int = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64);
    for e in events.iter() {
        assert!(text(e, "name").is_some(), "event missing name: {e}");
        assert_eq!(
            text(e, "ph").as_deref(),
            Some("X"),
            "event not a complete event: {e}"
        );
        assert!(float(e, "ts").is_some(), "event missing ts: {e}");
        assert!(float(e, "dur").is_some(), "event missing dur: {e}");
        assert!(int(e, "tid").is_some(), "event missing tid: {e}");
    }
    // the MD-loop phase taxonomy shows up
    let names: Vec<String> = events.iter().filter_map(|e| text(e, "name")).collect();
    for expected in ["integrate", "force_eval", "environment", "embedding_gemm"] {
        assert!(
            names.iter().any(|n| n == expected),
            "no '{expected}' span in trace"
        );
    }

    // ---- per-step metrics: §6.3 headline figures on every line ----
    let metrics_text = std::fs::read_to_string(&metrics_path).unwrap();
    let lines: Vec<Value> = metrics_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Value::parse(l).expect("metrics line is valid JSON"))
        .collect();
    assert_eq!(lines.len(), 12, "one metrics line per step");
    for v in &lines {
        let tts = float(v, "s_per_step_per_atom").expect("tts present");
        assert!(
            tts > 0.0 && tts.is_finite(),
            "bad s_per_step_per_atom {tts}"
        );
        assert_eq!(int(v, "n_atoms"), Some(108));
        assert!(float(v, "gflops").is_some(), "gflops missing");
        assert!(int(v, "flops").is_some(), "flops missing");
    }
    // a DP step does real GEMM work, so the flops counter must move
    assert!(
        lines.iter().any(|v| int(v, "flops").unwrap_or(0) > 0),
        "no step recorded any FLOPs"
    );

    // a second run without obs keys leaves the subsystem disabled
    assert!(!deepmd_repro::obs::enabled());
}

// ---- the deck path through the dpmd binary (subprocess-isolated) -------

/// A faulted parallel deck with `--metrics` and `--prom-dump` must leave
/// (a) a flight-recorder post-mortem on the metrics stream covering the
/// steps before the kill, (b) roofline attribution events, and (c) a
/// Prometheus snapshot that both the library parser and `dpmd promcheck`
/// accept. Runs in a subprocess, so in-process obs state stays clean.
#[test]
fn deck_level_fault_run_dumps_flight_recorder_and_prometheus() {
    let dir = std::env::temp_dir().join("dpmd-obs-flight-prom");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("run.ckpt").display().to_string();
    let deck = format!(
        r#"{{
        "system": {{"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948}},
        "potential": {{"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0}},
        "temperature": 40.0,
        "dt_fs": 2.0,
        "steps": 60,
        "thermo_every": 20,
        "seed": 7,
        "grid": [2,1,1],
        "checkpoint_every": 10,
        "checkpoint_path": "{base}",
        "checkpoint_shards": true,
        "fault_kill_rank": 1,
        "fault_kill_step": 33
    }}"#
    );
    let deck_path = dir.join("deck.json");
    std::fs::write(&deck_path, deck).unwrap();
    let metrics = dir.join("metrics.jsonl");
    let prom = dir.join("prom.txt");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dpmd"))
        .arg(&deck_path)
        .args([
            "--metrics",
            metrics.to_str().unwrap(),
            "--prom-dump",
            prom.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dpmd");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");

    // flight-recorder post-mortem rode the metrics stream
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let dump = jsonl
        .lines()
        .find(|l| {
            l.contains("\"event\":\"flight_recorder\"") && l.contains("\"reason\":\"rank_death\"")
        })
        .unwrap_or_else(|| panic!("no flight dump in metrics:\n{jsonl}"));
    assert!(dump.contains("\"rank\":1,"), "{dump}");
    assert!(
        dump.matches("\"step\":").count() >= 16,
        "flight window too short: {dump}"
    );

    // roofline attribution rides the same stream
    assert!(jsonl.contains("\"event\":\"roofline\""), "{jsonl}");
    assert!(jsonl.contains("\"phase\":\"compute\""), "{jsonl}");

    // the Prometheus snapshot parses and carries the fault + roofline story
    let text = std::fs::read_to_string(&prom).unwrap();
    let exp = deepmd_repro::obs::prom::parse(&text)
        .unwrap_or_else(|e| panic!("prom dump rejected: {e}\n{text}"));
    for (name, at_least) in [
        ("dpmd_fault_detected", 1.0),
        ("dpmd_flight_dumps", 1.0),
        ("dpmd_recovery_local_success", 1.0),
    ] {
        let s = exp
            .sample(name)
            .unwrap_or_else(|| panic!("missing {name} in prom dump:\n{text}"));
        assert!(s.value >= at_least, "{name} = {}", s.value);
    }
    let roof = exp.samples_named("dpmd_roofline_achieved_gflops");
    assert!(
        roof.iter().any(|s| s.label("phase") == Some("compute")),
        "no compute roofline gauge in prom dump:\n{text}"
    );
    assert!(
        exp.has_prefix("dpmd_step_wall_ns"),
        "step-wall histogram family missing:\n{text}"
    );

    // `dpmd promcheck` accepts the same file
    let chk = std::process::Command::new(env!("CARGO_BIN_EXE_dpmd"))
        .args(["promcheck", prom.to_str().unwrap()])
        .output()
        .expect("spawn dpmd promcheck");
    assert!(
        chk.status.success(),
        "promcheck rejected the dump:\n{}{}",
        String::from_utf8_lossy(&chk.stdout),
        String::from_utf8_lossy(&chk.stderr)
    );
}

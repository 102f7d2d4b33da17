//! End-to-end tests for `dpmd serve`: a real daemon subprocess on an
//! ephemeral loopback port, driven over real sockets.
//!
//! The core acceptance test proves the §5.2.1 cross-request batching
//! contract from the outside: N concurrent `/v1/eval` requests against
//! one model are served through at least one coalesced batch (the
//! `serve.eval.coalesced` counter moves), and every response body is
//! byte-identical to the one sequential evaluation produces — which,
//! with shortest-round-trip float printing, is bit-identity of every
//! energy and force component.
//!
//! Tests prefixed `job_` submit decks; the rest drive eval, metrics and
//! shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the daemon on drop unless the test shut it down cleanly.
struct Daemon {
    child: Option<Child>,
    addr: String,
    _dir: std::path::PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Daemon {
    /// Start `dpmd serve` on an ephemeral port and wait until it
    /// publishes its address.
    fn start(name: &str, extra: &[&str]) -> Daemon {
        let dir =
            std::env::temp_dir().join(format!("dpmd-serve-e2e-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let mut args = vec![
            "serve".to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--addr-file".into(),
            addr_file.display().to_string(),
            "--model".into(),
            "default=synthetic:1".into(),
            "--state-dir".into(),
            dir.join("state").display().to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let child = Command::new(env!("CARGO_BIN_EXE_dpmd"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn dpmd serve");

        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if !text.is_empty() {
                    break text;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon never published its address"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon {
            child: Some(child),
            addr,
            _dir: dir,
        }
    }

    /// One HTTP request; returns (status, body).
    fn http(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut s = TcpStream::connect(&self.addr).expect("connect to daemon");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        s.write_all(body.as_bytes()).unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let (head, rest) = raw.split_once("\r\n\r\n").expect("full response");
        let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
        (status, rest.to_string())
    }

    /// Drain + shutdown; asserts the daemon exits 0.
    fn shutdown(mut self) {
        let (status, body) = self.http("POST", "/v1/admin/shutdown", "");
        assert_eq!(status, 200, "{body}");
        let mut child = self.child.take().unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait().unwrap() {
                Some(code) => {
                    assert_eq!(code.code(), Some(0), "daemon exited {code:?}");
                    break;
                }
                None => {
                    assert!(
                        Instant::now() < deadline,
                        "daemon never exited after shutdown"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }
}

/// An eval request body for `n` atoms on a line in a roomy box.
fn eval_body(n: usize) -> String {
    let positions: Vec<String> = (0..n)
        .map(|i| format!("[{}.0, 5.0, 5.0]", 1 + 2 * i))
        .collect();
    format!(
        "{{\"cell\": [24.0, 12.0, 12.0], \"positions\": [{}], \"per_atom\": true}}",
        positions.join(", ")
    )
}

/// A body whose evaluation holds the batch worker for about 200 ms (on a
/// 2-core x86-64 host): 16 000 atoms 2 Å apart on a line.
fn busy_body() -> String {
    let n = 16_000;
    let positions: Vec<String> = (0..n)
        .map(|i| format!("[{}.0, 5.0, 5.0]", 1 + 2 * i))
        .collect();
    format!(
        "{{\"cell\": [{}.0, 12.0, 12.0], \"positions\": [{}]}}",
        2 * n + 2,
        positions.join(", ")
    )
}

/// Pull a numeric counter out of the /metrics JSON (string matching keeps
/// this test independent of any JSON parser). Counters are interned on
/// first use, so a name that has not fired yet is simply absent — that
/// reads as 0.
fn metric_counter(metrics: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let Some(at) = metrics.find(&key) else {
        return 0;
    };
    metrics[at + key.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn concurrent_evals_coalesce_and_match_sequential_bit_for_bit() {
    let d = Daemon::start("coalesce", &["--max-batch", "16"]);
    let sizes: Vec<usize> = (2..10).collect();

    // Sequential pass: one request at a time. Each runs as its own batch.
    let sequential: Vec<String> = sizes
        .iter()
        .map(|&n| {
            let (status, body) = d.http("POST", "/v1/eval", &eval_body(n));
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();

    let (_, metrics) = d.http("GET", "/metrics", "");
    let idle_batches = metric_counter(&metrics, "serve.eval.batches");
    let coalesced_before = metric_counter(&metrics, "serve.eval.coalesced");

    // Concurrent pass: all N at once against the same model, fired while
    // the batch worker is busy with one long evaluation, so they queue up
    // together behind it however slowly the burst's threads start.
    let (batches_before, concurrent) = std::thread::scope(|scope| {
        let busy = scope.spawn(|| d.http("POST", "/v1/eval", &busy_body()));
        // The worker counts a batch when it takes it off the queue.
        let batches_before = loop {
            let (_, metrics) = d.http("GET", "/metrics", "");
            let batches = metric_counter(&metrics, "serve.eval.batches");
            if batches > idle_batches {
                break batches;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let handles: Vec<_> = sizes
            .iter()
            .map(|&n| {
                let d = &d;
                scope.spawn(move || {
                    let (status, body) = d.http("POST", "/v1/eval", &eval_body(n));
                    assert_eq!(status, 200, "{body}");
                    body
                })
            })
            .collect();
        let concurrent: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let (status, body) = busy.join().unwrap();
        assert_eq!(status, 200, "{body}");
        (batches_before, concurrent)
    });

    // Bit-identity: batched responses are byte-equal to sequential ones.
    assert_eq!(concurrent, sequential);
    for (body, n) in sequential.iter().zip(&sizes) {
        assert!(
            body.contains(&format!("\"natoms\":{n}")),
            "response for {n} atoms: {body}"
        );
        assert!(body.contains("\"per_atom_energy\":["), "{body}");
    }

    // The burst was actually coalesced: at least one multi-request batch,
    // and strictly fewer batches than requests.
    let (_, metrics) = d.http("GET", "/metrics", "");
    let batches = metric_counter(&metrics, "serve.eval.batches") - batches_before;
    let coalesced = metric_counter(&metrics, "serve.eval.coalesced") - coalesced_before;
    assert!(coalesced >= 1, "no coalesced batch: {metrics}");
    assert!(
        (batches as usize) < sizes.len(),
        "{batches} batches for {} concurrent requests — nothing coalesced",
        sizes.len()
    );

    // Latency histograms from dp_obs::hist are exposed with quantiles.
    let at = metrics
        .find("\"serve.http.latency_us\":")
        .expect("request latency histogram in /metrics");
    let hist = &metrics[at..at + 200.min(metrics.len() - at)];
    assert!(hist.contains("\"p50\":"), "{hist}");
    assert!(hist.contains("\"p95\":"), "{hist}");

    d.shutdown();
}

#[test]
fn eval_errors_are_typed_and_do_not_kill_the_daemon() {
    let d = Daemon::start("errors", &[]);

    let (status, body) = d.http("GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"ok\":true}");

    // Unknown model: 404.
    let (status, _) = d.http(
        "POST",
        "/v1/eval",
        "{\"model\": \"nope\", \"cell\": [20,12,12], \"positions\": [[1,1,1]]}",
    );
    assert_eq!(status, 404);

    // Cutoff does not fit the cell: 400.
    let (status, body) = d.http(
        "POST",
        "/v1/eval",
        "{\"cell\": [4,4,4], \"positions\": [[1,1,1]]}",
    );
    assert_eq!(status, 400);
    assert!(body.contains("minimum-image"), "{body}");

    // A deadline on an idle daemon always admits: the queue is empty and
    // the idle batch worker starts the request at once.
    let (status, body) = d.http(
        "POST",
        "/v1/eval",
        "{\"cell\": [20,12,12], \"positions\": [[1,1,1]], \"deadline_ms\": 1}",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"energy\":"), "{body}");

    // A vast cell is no error: the neighbor grid is sized by the atoms,
    // not the volume, and the daemon goes on serving.
    let (status, body) = d.http(
        "POST",
        "/v1/eval",
        "{\"cell\": [1e9, 1e9, 1e9], \"positions\": [[1,1,1], [3,1,1]]}",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"natoms\":2"), "{body}");
    let (status, body) = d.http("POST", "/v1/eval", &eval_body(4));
    assert_eq!(status, 200, "{body}");

    // A non-positive deadline is a request error.
    let (status, body) = d.http(
        "POST",
        "/v1/eval",
        "{\"cell\": [20,12,12], \"positions\": [[1,1,1]], \"deadline_ms\": 0}",
    );
    assert_eq!(status, 400);
    assert!(body.contains("deadline_ms"), "{body}");

    // Malformed JSON: 400. Unknown endpoint: 404. Wrong method: 405.
    assert_eq!(d.http("POST", "/v1/eval", "{oops").0, 400);
    assert_eq!(d.http("GET", "/v2/nothing", "").0, 404);
    assert_eq!(d.http("DELETE", "/v1/eval", "").0, 405);

    // The daemon is still healthy after all that.
    let (status, _) = d.http("GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, body) = d.http("GET", "/v1/models", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"default\""), "{body}");

    d.shutdown();
}

#[test]
fn prometheus_scrape_round_trips_with_ensemble_and_roofline_series() {
    let d = Daemon::start("prom", &[]);

    // Drive one eval so the serve counters and latency histograms move.
    let (status, body) = d.http("POST", "/v1/eval", &eval_body(3));
    assert_eq!(status, 200, "{body}");

    let (status, text) = d.http("GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200, "{text}");

    // The scrape must survive the strict text-format parser — name
    // grammar, label escaping, histogram bucket monotonicity and
    // +Inf/_count agreement are all validated by parse().
    let exp = deepmd_repro::obs::prom::parse(&text)
        .unwrap_or_else(|e| panic!("scrape rejected by parser: {e}\n{text}"));
    assert!(!exp.samples.is_empty());

    // Ensemble series are pre-registered at daemon start, so they are
    // scrape-able (as zeros) even before any replica work runs.
    for name in [
        "dpmd_replica_exchange_attempts",
        "dpmd_replica_exchange_accepted",
    ] {
        assert!(
            exp.sample(name).is_some(),
            "missing {name} in scrape:\n{text}"
        );
    }
    assert!(
        exp.has_prefix("dpmd_replica_batch_occupancy"),
        "missing batch-occupancy histogram family:\n{text}"
    );

    // Roofline attribution gauges carry a phase label.
    let roof = exp.samples_named("dpmd_roofline_achieved_gflops");
    assert!(!roof.is_empty(), "missing roofline gauges:\n{text}");
    assert!(
        roof.iter().any(|s| s.label("phase") == Some("compute")),
        "no phase=\"compute\" roofline series:\n{text}"
    );

    // Serve-layer series from the same scrape: the request counter moved
    // and the latency histogram has a consistent family.
    let evals = exp
        .sample("dpmd_serve_eval_requests")
        .expect("serve.eval.requests counter");
    assert!(evals.value >= 1.0, "{}", evals.value);
    assert!(exp.has_prefix("dpmd_serve_http_latency_us"), "{text}");

    // The JSON endpoint still answers alongside the prometheus one, with
    // the ensemble block present.
    let (status, json) = d.http("GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(json.contains("\"ensemble\":"), "{json}");

    d.shutdown();
}

/// Minimal fast deck for job tests (serial LJ, a few hundred steps).
fn lj_deck() -> &'static str {
    r#"{
        "system": {"kind": "fcc", "a0": 5.26, "reps": [3, 3, 3], "mass": 39.948},
        "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
        "temperature": 40.0,
        "dt_fs": 2.0,
        "steps": 40,
        "thermo_every": 20,
        "seed": 7
    }"#
}

fn poll_job(d: &Daemon, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = d.http("GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"state\":\"done\"") || body.contains("\"state\":\"failed\"") {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never settled: {body}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn job_lifecycle_submit_poll_result() {
    let d = Daemon::start("jobs", &[]);

    // Bad deck: typed 400 at submission, not a failed job later.
    let (status, body) = d.http("POST", "/v1/jobs", "{\"not\": \"a deck\"}");
    assert_eq!(status, 400, "{body}");

    let (status, body) = d.http("POST", "/v1/jobs", lj_deck());
    assert_eq!(status, 202, "{body}");
    let id_at = body.find("\"id\":\"").expect("job id") + 6;
    let id: String = body[id_at..].chars().take_while(|c| *c != '"').collect();

    let settled = poll_job(&d, &id);
    assert!(settled.contains("\"state\":\"done\""), "{settled}");
    assert!(settled.contains("\"steps\":40"), "{settled}");
    assert!(
        settled.contains("\"potential\":\"lennard-jones\""),
        "{settled}"
    );
    assert!(settled.contains("\"final_temperature\":"), "{settled}");

    // The job shows up in the listing and in the metrics counts.
    let (_, list) = d.http("GET", "/v1/jobs", "");
    assert!(list.contains(&format!("\"id\":\"{id}\"")), "{list}");
    let (_, metrics) = d.http("GET", "/metrics", "");
    assert!(
        metric_counter(&metrics, "serve.jobs.completed") >= 1,
        "{metrics}"
    );
    assert!(
        metric_counter(&metrics, "serve.jobs.submitted") >= 1,
        "{metrics}"
    );

    // Unknown job id: 404.
    let (status, _) = d.http("GET", "/v1/jobs/job-999", "");
    assert_eq!(status, 404);

    d.shutdown();
}

#[test]
fn job_failures_carry_the_cli_error_class() {
    let d = Daemon::start("jobfail", &[]);

    // A deck that parses but cannot run: LJ cutoff exceeding the
    // minimum-image limit of a tiny box is the CLI's exit-2 deck error.
    let deck = r#"{
        "system": {"kind": "fcc", "a0": 3.0, "reps": [1, 1, 1], "mass": 39.948},
        "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
        "temperature": 40.0,
        "dt_fs": 2.0,
        "steps": 10
    }"#;
    let (status, body) = d.http("POST", "/v1/jobs", deck);
    assert_eq!(status, 202, "{body}");
    let id_at = body.find("\"id\":\"").expect("job id") + 6;
    let id: String = body[id_at..].chars().take_while(|c| *c != '"').collect();

    let settled = poll_job(&d, &id);
    assert!(settled.contains("\"state\":\"failed\""), "{settled}");
    assert!(settled.contains("\"class\":\"deck\""), "{settled}");
    assert!(settled.contains("minimum-image"), "{settled}");

    d.shutdown();
}

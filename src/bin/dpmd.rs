//! `dpmd` — run an MD simulation from a JSON input deck, or serve Deep
//! Potential inference as a daemon.
//!
//! Usage:
//!
//! * `dpmd <input.json> [--resume <checkpoint>] [--trace <file>]
//!   [--metrics <file>] [--prom-dump <file>] [--imbalance-report]
//!   [--profile-report]` — run a deck; see `deepmd_repro::app` for the
//!   deck format. `--resume` restarts from the newest valid generation of
//!   the given checkpoint rotation (overriding any `resume` key in the
//!   deck) and appends to the deck's trajectory instead of truncating it.
//!   `--trace` writes a chrome://tracing JSON of the run's spans
//!   (parallel runs get one lane per rank); `--metrics` writes per-step
//!   JSONL metrics; `--prom-dump` writes a Prometheus text-format
//!   snapshot of every counter/histogram/gauge after the run. All three
//!   override the corresponding deck keys. `--imbalance-report` prints
//!   the cross-rank compute/comm/wait breakdown after a parallel run;
//!   `--profile-report` prints the roofline attribution table (achieved
//!   vs. modeled GFLOPS, arithmetic intensity, memory/compute verdict).
//! * `dpmd serve [--addr host:port | --unix path] [--addr-file path]
//!   [--model NAME=model.json | NAME=synthetic:SEED]... [--workers N]
//!   [--max-batch N] [--queue-depth N] [--state-dir DIR]` — start the
//!   inference daemon; see `deepmd_repro::serve_app`. Runs until
//!   `POST /v1/admin/shutdown` drains it, then exits 0.
//! * `dpmd ensemble <deck.json> [--resume]` — advance a ladder of
//!   replicas against one shared model with cross-replica batched
//!   evaluation, replica exchange, and optional active learning; see
//!   `deepmd_repro::ensemble_app` for the deck format. `--resume`
//!   restarts from the deck's `checkpoint_path` rotation.
//! * `dpmd request METHOD URL [--data JSON | --body FILE]` — tiny HTTP
//!   client for the daemon (no curl needed): prints the response body to
//!   stdout and exits non-zero on HTTP errors. URL is
//!   `http://host:port/path` or `unix:/path/sock:/path`.
//! * `dpmd promcheck <file>` — validate a Prometheus text-format
//!   exposition (name/label grammar, TYPE lines, histogram bucket
//!   monotonicity) with the same strict parser the tests use; exits 0 on
//!   a clean parse, 2 with a diagnostic otherwise.
//!
//! Exit codes distinguish failure classes (see `app::AppError`):
//! 2 = bad deck/usage, 3 = I/O failure, 4 = unusable checkpoint,
//! 5 = parallel run failed after exhausting fault recovery, 1 = other.

use std::io::{Read, Write};

fn usage() -> ! {
    eprintln!(
        "usage: dpmd <input.json> [--resume <checkpoint>] [--trace <file>] [--metrics <file>] [--prom-dump <file>] [--imbalance-report] [--profile-report]\n       dpmd ensemble <deck.json> [--resume]\n       dpmd serve [--addr host:port | --unix path] [--model NAME=SOURCE]... [options]\n       dpmd request METHOD URL [--data JSON | --body FILE]\n       dpmd promcheck <file>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..]),
        Some("request") => run_request(&args[1..]),
        Some("ensemble") => run_ensemble(&args[1..]),
        Some("promcheck") => run_promcheck(&args[1..]),
        _ => run_deck(&args),
    }
}

/// `dpmd promcheck` — strict validation of a Prometheus text-format file,
/// so scripts can assert a scrape round-trips without a real Prometheus.
fn run_promcheck(args: &[String]) -> ! {
    let [path] = args else { usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dpmd promcheck: cannot read {path}: {e}");
            std::process::exit(3);
        }
    };
    match dp_obs::prom::parse(&text) {
        Ok(exp) => {
            println!(
                "{path}: ok ({} samples, {} typed families)",
                exp.samples.len(),
                exp.types.len()
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("dpmd promcheck: {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn run_ensemble(args: &[String]) -> ! {
    let mut deck: Option<String> = None;
    let mut resume = false;
    for arg in args {
        match arg.as_str() {
            "--resume" => resume = true,
            "-h" | "--help" => usage(),
            _ if deck.is_none() => deck = Some(arg.clone()),
            other => {
                eprintln!("dpmd ensemble: unexpected argument '{other}'");
                usage();
            }
        }
    }
    let path = match deck {
        Some(p) => p,
        None => usage(),
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dpmd ensemble: cannot read {path}: {e}");
            std::process::exit(3);
        }
    };
    let mut cfg = match deepmd_repro::ensemble_app::parse_config(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dpmd ensemble: {e}");
            std::process::exit(2);
        }
    };
    if resume {
        cfg.resume = true;
    }
    match deepmd_repro::ensemble_app::run(&cfg, |line| println!("{line}")) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("dpmd ensemble: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

fn run_serve(args: &[String]) -> ! {
    let opts = match deepmd_repro::serve_app::parse_serve_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dpmd serve: {e}");
            std::process::exit(2);
        }
    };
    match deepmd_repro::serve_app::run_serve(&opts, |line| println!("{line}")) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("dpmd serve: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

/// `dpmd request` — a minimal one-shot HTTP client so scripts and tests
/// can talk to the daemon without assuming curl exists.
fn run_request(args: &[String]) -> ! {
    let mut method: Option<String> = None;
    let mut url: Option<String> = None;
    let mut body: Vec<u8> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => match it.next() {
                Some(d) => body = d.clone().into_bytes(),
                None => usage(),
            },
            "--body" => match it.next() {
                Some(path) => match std::fs::read(path) {
                    Ok(b) => body = b,
                    Err(e) => {
                        eprintln!("dpmd request: cannot read {path}: {e}");
                        std::process::exit(3);
                    }
                },
                None => usage(),
            },
            _ if method.is_none() => method = Some(arg.clone()),
            _ if url.is_none() => url = Some(arg.clone()),
            other => {
                eprintln!("dpmd request: unexpected argument '{other}'");
                usage();
            }
        }
    }
    let (Some(method), Some(url)) = (method, url) else {
        usage()
    };

    // `http://host:port/path` over TCP, or `unix:/sock/path:/http/path`.
    let (stream, path): (Box<dyn ReadWrite>, String) =
        if let Some(rest) = url.strip_prefix("http://") {
            let (host, path) = match rest.find('/') {
                Some(i) => (&rest[..i], rest[i..].to_string()),
                None => (rest, "/".to_string()),
            };
            match std::net::TcpStream::connect(host) {
                Ok(s) => (Box::new(s), path),
                Err(e) => {
                    eprintln!("dpmd request: cannot connect to {host}: {e}");
                    std::process::exit(3);
                }
            }
        } else if let Some(rest) = url.strip_prefix("unix:") {
            let Some((sock, path)) = rest.split_once(':') else {
                eprintln!("dpmd request: unix URL must be unix:<socket>:<path>");
                std::process::exit(2);
            };
            match std::os::unix::net::UnixStream::connect(sock) {
                Ok(s) => (Box::new(s), path.to_string()),
                Err(e) => {
                    eprintln!("dpmd request: cannot connect to {sock}: {e}");
                    std::process::exit(3);
                }
            }
        } else {
            eprintln!("dpmd request: URL must start with http:// or unix:");
            std::process::exit(2);
        };

    match roundtrip(stream, &method, &path, &body) {
        Ok((status, response)) => {
            println!("{response}");
            std::process::exit(if (200..300).contains(&status) { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("dpmd request: {e}");
            std::process::exit(3);
        }
    }
}

trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

fn roundtrip(
    mut stream: Box<dyn ReadWrite>,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, String), String> {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: dpmd\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .map_err(|e| format!("send failed: {e}"))?;
    stream
        .write_all(body)
        .map_err(|e| format!("send failed: {e}"))?;
    stream.flush().ok();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive failed: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let Some((head, rest)) = text.split_once("\r\n\r\n") else {
        return Err(format!("malformed response: {text}"));
    };
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {head}"))?;
    Ok((status, rest.to_string()))
}

fn run_deck(args: &[String]) -> ! {
    let mut deck: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut prom_dump: Option<String> = None;
    let mut imbalance_report = false;
    let mut profile_report = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--imbalance-report" => imbalance_report = true,
            "--profile-report" => profile_report = true,
            "--prom-dump" => match it.next() {
                Some(path) => prom_dump = Some(path.clone()),
                None => {
                    eprintln!("dpmd: --prom-dump needs an output path");
                    usage();
                }
            },
            "--resume" => match it.next() {
                Some(path) => resume = Some(path.clone()),
                None => {
                    eprintln!("dpmd: --resume needs a checkpoint path");
                    usage();
                }
            },
            "--trace" => match it.next() {
                Some(path) => trace = Some(path.clone()),
                None => {
                    eprintln!("dpmd: --trace needs an output path");
                    usage();
                }
            },
            "--metrics" => match it.next() {
                Some(path) => metrics = Some(path.clone()),
                None => {
                    eprintln!("dpmd: --metrics needs an output path");
                    usage();
                }
            },
            "-h" | "--help" => usage(),
            _ if deck.is_none() => deck = Some(arg.clone()),
            other => {
                eprintln!("dpmd: unexpected argument '{other}'");
                usage();
            }
        }
    }
    let path = match deck {
        Some(p) => p,
        None => usage(),
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dpmd: cannot read {path}: {e}");
            std::process::exit(3);
        }
    };
    let mut cfg = match deepmd_repro::app::parse_config(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dpmd: {e}");
            std::process::exit(2);
        }
    };
    if resume.is_some() {
        cfg.resume = resume;
    }
    if trace.is_some() {
        cfg.trace_path = trace;
    }
    if metrics.is_some() {
        cfg.run.metrics_path = metrics;
    }
    if prom_dump.is_some() {
        cfg.prom_dump = prom_dump;
    }
    if imbalance_report {
        cfg.imbalance_report = true;
    }
    if profile_report {
        cfg.profile_report = true;
    }
    if let Err(e) = deepmd_repro::app::run(&cfg, |line| println!("{line}")) {
        eprintln!("dpmd: {e}");
        std::process::exit(e.exit_code());
    }
    std::process::exit(0);
}

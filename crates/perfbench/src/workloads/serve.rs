//! `serve_eval_c2`: `POST /v1/eval` against a `dpmd serve` subprocess.
//!
//! Closed loop, two clients: the callers of this endpoint are MD drivers
//! that wait for forces before they can step, so each client sends its
//! next request only when the previous reply has arrived. Every request
//! opens a fresh connection (the daemon speaks `Connection: close`).
//! With two clients a batch holds one or two requests, and a lone request
//! pays the 2 ms linger in full — so larger batches raise throughput and
//! median latency together.

use super::{random_potential, repeat_setup, Ctx};
use crate::host;
use crate::metrics::{Layers, RunResult};
use crate::probes::{reps_for, time_median};
use crate::stats::{median, percentile, Summary};
use deepmd_core::{BatchItem, DpConfig, PrecisionMode};
use dp_md::{lattice, CounterRng, NeighborList, System};
use dp_serve::json::{self, Json};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const BODIES: usize = 16;
const ATOMS: usize = 108;
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// The daemon subprocess; killed on drop unless it was shut down.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawn `dpmd serve` (default model `synthetic:1`, default batcher:
    /// `max_batch` 32, linger 2 ms) on an ephemeral loopback port and wait
    /// until it publishes its address.
    fn start(ctx: &Ctx) -> Result<Daemon, String> {
        let addr_file = ctx.work.join("serve.addr");
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(&ctx.dpmd)
            .args(["serve", "--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .arg("--state-dir")
            .arg(ctx.work.join("serve-state"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ctx.dpmd.display()))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if !text.trim().is_empty() {
                    d.addr = text.trim().to_string();
                    return Ok(d);
                }
            }
            if Instant::now() > deadline || d.child.try_wait().ok().flatten().is_some() {
                return Err("dpmd serve never published its address".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Graceful drain; the drop guard kills whatever is left.
    fn shutdown(mut self) {
        let _ = exchange(&self.addr, "POST", "/v1/admin/shutdown", b"");
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            if self.child.try_wait().ok().flatten().is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

struct Reply {
    status: u16,
    body: Vec<u8>,
    connect_secs: f64,
}

/// One HTTP/1.1 exchange on a fresh connection.
fn exchange(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let t = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let connect_secs = t.elapsed().as_secs_f64();
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.write_all(&raw_request(method, path, body))
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("reply has no header end")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "reply head is not UTF-8")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("reply has no status")?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
        connect_secs,
    })
}

fn raw_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// 108-atom fcc configurations (a0 = 5.26 Å, so the synthetic model's 16
/// neighbor slots are not overflowed), each perturbed from the seed.
fn configurations(seed: u64) -> Vec<System> {
    (0..BODIES)
        .map(|k| {
            let mut sys = lattice::fcc(5.26, [3, 3, 3], 39.948);
            sys.perturb(
                0.1,
                &mut CounterRng::new(seed.wrapping_add(k as u64 * 7919)),
            );
            sys
        })
        .collect()
}

fn eval_body(sys: &System) -> String {
    let l = sys.cell.lengths;
    let pos = sys
        .positions
        .iter()
        .map(|p| json::arr(p.iter().map(|&x| json::num(x)).collect()))
        .collect();
    json::obj(vec![
        ("cell", json::arr(l.iter().map(|&x| json::num(x)).collect())),
        ("positions", json::arr(pos)),
    ])
    .to_string()
}

struct Sample {
    /// Completion time since the phase began.
    at: f64,
    latency: f64,
    connect: f64,
    ok: bool,
    traced: bool,
}

/// One client of the closed loop: request `i` of client `c` posts body
/// `(2i + c) mod 16` and must get back, byte for byte, what that body got
/// when it was sent alone during warm-up — the daemon's own
/// batched-equals-serial contract, checked from the outside.
fn client(
    ctx: &Ctx,
    c: usize,
    addr: &str,
    bodies: &[String],
    alone: &[Vec<u8>],
    phase: Instant,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while phase.elapsed().as_secs_f64() < ctx.seconds {
        let k = (CLIENTS * i + c) % bodies.len();
        let traced = ctx.traced && i % 2 == 1;
        let span = traced.then(|| ctx.tracer.open("serve.request", None, i as u32, c as u32));
        let t = Instant::now();
        let reply = exchange(addr, "POST", "/v1/eval", bodies[k].as_bytes());
        let latency = t.elapsed().as_secs_f64();
        if let Some(span) = span {
            ctx.tracer.close(span);
        }
        out.push(Sample {
            at: phase.elapsed().as_secs_f64(),
            latency,
            connect: reply.as_ref().map_or(0.0, |r| r.connect_secs),
            ok: reply.is_ok_and(|r| r.status == 200 && r.body == alone[k]),
            traced,
        });
        i += 1;
    }
    out
}

fn counter(metrics: &Json, name: &str) -> f64 {
    metrics
        .get("obs")
        .and_then(|o| o.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn scrape(addr: &str) -> Option<Json> {
    let r = exchange(addr, "GET", "/metrics", b"").ok()?;
    Json::parse(std::str::from_utf8(&r.body).ok()?).ok()
}

/// Errors leave through `Err`, never `exit`, so the daemon's drop guard
/// always runs.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let systems = configurations(ctx.seed);
    let bodies: Vec<String> = systems.iter().map(eval_body).collect();
    let eval_alone =
        |addr: &str, body: &str| match exchange(addr, "POST", "/v1/eval", body.as_bytes())? {
            r if r.status == 200 => Ok(r.body),
            r => Err(format!("a lone eval answered {}", r.status)),
        };

    // Set-up: process start, first 200, and the warm-up that sends every
    // body alone and keeps its reply as the reference. Spawn-to-first-200
    // alone is ~9 ms here, too short to repeat within 25 %.
    let (ready, setup_times) = repeat_setup(ctx, || -> Result<(Daemon, Vec<Vec<u8>>), String> {
        let d = Daemon::start(ctx)?;
        let alone = bodies
            .iter()
            .map(|b| eval_alone(&d.addr, b))
            .collect::<Result<_, _>>()?;
        Ok((d, alone))
    });
    let (daemon, alone) = ready?;
    let before = scrape(&daemon.addr);

    let phase = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, bodies, alone) = (&daemon.addr, &bodies, &alone);
                s.spawn(move || client(ctx, c, addr, bodies, alone, phase))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = phase.elapsed().as_secs_f64();
    let after = scrape(&daemon.addr);
    let rss = host::peak_rss_mb(&daemon.child.id().to_string());

    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let ok_latency = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.ok && s.traced == traced)
            .map(|s| s.latency)
            .collect()
    };
    let plain = ok_latency(false);
    if plain.is_empty() {
        return Err("no request succeeded".into());
    }
    // the run's own spread: the same statistic over one-second windows
    let windows = (wall.floor() as usize).max(1);
    let in_window = |w: usize| {
        samples
            .iter()
            .filter(move |s| s.ok && !s.traced && s.at as usize == w)
    };
    let window_p50: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let v: Vec<f64> = in_window(w).map(|s| s.latency).collect();
            (!v.is_empty()).then(|| median(&v))
        })
        .collect();
    let window_rate: Vec<f64> = (0..windows).map(|w| in_window(w).count() as f64).collect();
    let all = Summary::of(&plain);
    let p50 = Summary {
        n: all.n,
        median: all.median,
        tail: all.tail,
        ..Summary::of(&window_p50)
    };
    let done = samples.iter().filter(|s| s.ok).count() as f64;
    let rps = Summary {
        median: done / wall,
        ..Summary::of(&window_rate)
    };
    let mut sorted = plain.clone();
    sorted.sort_by(f64::total_cmp);

    let mut e2e = Vec::new();
    let mut layers = Layers::default();
    if ctx.traced {
        let traced = ok_latency(true);
        let connects: Vec<f64> = samples.iter().filter(|s| s.ok).map(|s| s.connect).collect();
        layers.set("serve.connect_us", median(&connects) * 1e6);
        let model_secs = local_probes(&systems[0], &bodies[0], &alone[0], &mut layers);
        layers.set("serve.overhead_ms", (all.median - model_secs) * 1e3);
        if let (Some(a), Some(b)) = (&before, &after) {
            let delta = |name: &str| counter(b, name) - counter(a, name);
            let batches = delta("serve.eval.batches").max(1.0);
            layers.set(
                "serve.batch_size_mean",
                delta("serve.eval.batched_requests") / batches,
            );
            layers.set(
                "serve.coalesced_frac",
                delta("serve.eval.coalesced") / batches,
            );
            layers.set("serve.rejected", delta("serve.eval.rejected"));
            let wait = b
                .get("obs")
                .and_then(|o| o.get("hists"))
                .and_then(|h| h.get("serve.eval.wait_us"));
            let p50_us = wait
                .and_then(|w| w.get("p50"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            layers.set("serve.queue_wait_p50_ms", p50_us / 1e3);
        }
        if !traced.is_empty() {
            layers.set("trace.overhead_frac", median(&traced) / all.median - 1.0);
        }
    } else {
        e2e = vec![
            ("setup_s", Summary::of(&setup_times)),
            ("us_per_atom_step", p50.scaled(1e6 / ATOMS as f64)),
            (
                "peak_rss_mb",
                Summary::single(rss.ok_or("cannot read the daemon's VmHWM")?),
            ),
            (
                "eval_p99_ms",
                Summary::single(percentile(&sorted, 99) * 1e3),
            ),
            ("eval_rps", rps),
        ];
    }
    daemon.shutdown();
    Ok(RunResult {
        seed: ctx.seed,
        traced: ctx.traced,
        attempted,
        failed,
        e2e,
        layers,
    })
}

/// The request path's pieces, each called alone in this process on the
/// same request: HTTP parse, JSON decode, JSON encode of the reply, and
/// the model (neighbor list + `compute_batch` of one item on a model of
/// the daemon's configuration; weights do not change the arithmetic).
/// Returns the model seconds.
fn local_probes(sys: &System, body: &str, reply: &[u8], out: &mut Layers) -> f64 {
    let raw = raw_request("POST", "/v1/eval", body.as_bytes());
    let parse = |f: &mut dyn FnMut()| {
        let once = time_median(1, &mut *f);
        time_median(reps_for(once), f)
    };
    out.set(
        "serve.http.parse_us",
        1e6 * parse(&mut || {
            std::hint::black_box(
                dp_serve::http::read_request(&mut BufReader::new(&raw[..])).is_ok(),
            );
        }),
    );
    out.set(
        "serve.json.parse_us",
        1e6 * parse(&mut || {
            std::hint::black_box(Json::parse(body).is_ok());
        }),
    );
    let doc = Json::parse(std::str::from_utf8(reply).unwrap_or("null")).unwrap_or(Json::Null);
    out.set(
        "serve.json.render_us",
        1e6 * parse(&mut || {
            std::hint::black_box(doc.to_string());
        }),
    );
    // `synthetic:<seed>` in serve_app: DpConfig::small(1, 4.5, 16), f64
    let pot = random_potential(DpConfig::small(1, 4.5, 16), PrecisionMode::Double, 1);
    let model = parse(&mut || {
        let nl = NeighborList::build(sys, 4.5);
        std::hint::black_box(
            pot.compute_batch(&[BatchItem { sys, nl: &nl }], PrecisionMode::Double),
        );
    });
    out.set("serve.model_ms", model * 1e3);
    crate::probes::batch_probes(&[sys, sys], &pot, 0.0, out);
    model
}

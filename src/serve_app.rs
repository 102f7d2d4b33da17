//! `dpmd serve` — the Deep Potential inference daemon.
//!
//! The machinery (HTTP, router, coalescing batcher, job pool, graceful
//! shutdown) lives in `dp-serve`; this module supplies the physics:
//!
//! * a **model registry** loaded once at startup — each entry owns a
//!   [`DeepPotential`] whose §5.2.2 evaluation workspaces stay warm for
//!   the daemon's lifetime,
//! * the **eval backend** — concurrent `POST /v1/eval` requests against
//!   one model are drained by that model's batcher into a single
//!   [`DeepPotential::compute_batch`] call, which concatenates their
//!   fixed-shape padded environment tables (§5.2.1) and evaluates once;
//!   per-request results are bit-identical to serial evaluation, so
//!   batching is invisible to clients. Each model owns its own batcher
//!   queue and worker, so a deep queue on one model never head-of-line
//!   blocks evaluations against another,
//! * the **deck runner** — `POST /v1/jobs` decks execute through the
//!   same [`crate::app::run`] as the CLI, with per-job state
//!   directories, default checkpoint rotations, and typed failure
//!   classes mirroring the CLI exit codes. Decks with a top-level
//!   `"replicas"` key route to [`crate::ensemble_app::run`] instead —
//!   multi-replica ensemble runs are a first-class job type,
//! * the **metrics endpoint** — always-on `dp-obs` counters and
//!   latency histograms (request latency, batch sizes, queue waits)
//!   snapshotted as JSON.

use crate::app::{self, AppError};
use crate::deck::{self, Deck, ModelSpec};
use crate::ensemble_app;
use deepmd_core::{BatchItem, DeepPotential, PrecisionMode};
use dp_md::{Cell, NeighborList, System};
use dp_serve::json::{self, Json};
use dp_serve::{
    route, BatchBackend, BatchOptions, Batcher, Bind, Bound, JobFailure, JobRunner, JobStore,
    JobView, Request, Response, Route, RouteError, Server, ShutdownHandle, SubmitError,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Command-line configuration of the daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: Option<String>,
    /// Unix-domain socket path (alternative to `addr`).
    pub unix: Option<PathBuf>,
    /// Write the resolved bind address here once listening (how tests
    /// and scripts discover an ephemeral port).
    pub addr_file: Option<PathBuf>,
    /// Models to load: `(name, source)` where source is a model JSON
    /// path or `synthetic:<seed>`.
    pub models: Vec<(String, String)>,
    /// Deck-job worker threads.
    pub workers: usize,
    /// Most `/v1/eval` requests coalesced into one batched evaluation.
    pub max_batch: usize,
    /// Most `/v1/eval` requests queued before 429.
    pub queue_depth: usize,
    /// Job state directories (checkpoints, traces, logs) live here.
    pub state_dir: PathBuf,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: None,
            unix: None,
            addr_file: None,
            models: Vec::new(),
            workers: 2,
            max_batch: 32,
            queue_depth: 256,
            state_dir: PathBuf::from("dpmd-serve-state"),
        }
    }
}

/// Parse `dpmd serve` arguments (everything after the subcommand).
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = Some(value("--addr")?),
            "--unix" => opts.unix = Some(PathBuf::from(value("--unix")?)),
            "--addr-file" => opts.addr_file = Some(PathBuf::from(value("--addr-file")?)),
            "--model" => {
                let spec = value("--model")?;
                let (name, source) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--model wants NAME=SOURCE, got '{spec}'"))?;
                if name.is_empty() || source.is_empty() {
                    return Err(format!("--model wants NAME=SOURCE, got '{spec}'"));
                }
                opts.models.push((name.to_string(), source.to_string()));
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers wants a positive integer".to_string())?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--max-batch" => {
                opts.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|_| "--max-batch wants a positive integer".to_string())?;
                if opts.max_batch == 0 {
                    return Err("--max-batch must be at least 1".into());
                }
            }
            "--queue-depth" => {
                opts.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth wants a positive integer".to_string())?;
            }
            "--state-dir" => opts.state_dir = PathBuf::from(value("--state-dir")?),
            other => return Err(format!("unknown serve flag '{other}'")),
        }
    }
    if opts.addr.is_some() && opts.unix.is_some() {
        return Err("--addr and --unix are mutually exclusive".into());
    }
    if opts.addr.is_none() && opts.unix.is_none() {
        opts.addr = Some("127.0.0.1:0".into());
    }
    if opts.models.is_empty() {
        // A daemon with nothing loaded serves nothing useful; default to a
        // small deterministic synthetic model so smoke tests and demos work
        // out of the box.
        opts.models.push(("default".into(), "synthetic:1".into()));
    }
    Ok(opts)
}

/// One loaded model: the potential (workspaces warm for the daemon's
/// lifetime) plus the request-validation facts about it.
struct ModelEntry {
    name: String,
    pot: DeepPotential,
    rcut: f64,
    n_types: usize,
}

/// Precision of an eval request that names none (and `/v1/models`'
/// `default_precision`).
const DEFAULT_MODE: PrecisionMode = PrecisionMode::Double;

fn load_models(specs: &[(String, String)]) -> Result<HashMap<String, Arc<ModelEntry>>, AppError> {
    let mut registry = HashMap::new();
    for (name, source) in specs {
        let model = match source.strip_prefix("synthetic:") {
            Some(seed) => {
                let bad = |_| AppError::Deck(format!("bad synthetic model seed '{seed}'"));
                let seed = seed.parse().map_err(bad)?;
                ModelSpec::Synthetic { seed, rcut: 4.5 }.load()?
            }
            None => deck::load_model(source)?,
        };
        let rcut = model.config.rcut;
        let n_types = model.config.n_types();
        let entry = ModelEntry {
            name: name.clone(),
            pot: DeepPotential::new(model, DEFAULT_MODE),
            rcut,
            n_types,
        };
        if registry.insert(name.clone(), Arc::new(entry)).is_some() {
            return Err(AppError::Deck(format!("model '{name}' given twice")));
        }
    }
    Ok(registry)
}

fn mode_name(mode: PrecisionMode) -> &'static str {
    match mode {
        PrecisionMode::Double => "double",
        PrecisionMode::Mixed => "mixed",
    }
}

/// A validated eval request, ready for the batcher.
struct EvalJob {
    model: Arc<ModelEntry>,
    sys: System,
    mode: PrecisionMode,
    per_atom: bool,
    /// `deadline_ms` from the request body: how long the client is
    /// willing to wait. Checked at admission, not during evaluation.
    deadline: Option<Duration>,
}

impl std::fmt::Debug for EvalJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalJob")
            .field("model", &self.model.name)
            .field("natoms", &self.sys.len())
            .field("mode", &self.mode)
            .field("per_atom", &self.per_atom)
            .finish()
    }
}

/// Parse + validate an eval body against the registry. All rejection
/// happens here, before the queue — the backend only sees work that will
/// succeed, so responses are plain strings.
fn parse_eval(
    body: &[u8],
    models: &HashMap<String, Arc<ModelEntry>>,
) -> Result<EvalJob, (u16, String)> {
    let text = std::str::from_utf8(body).map_err(|_| (400u16, "body is not UTF-8".to_string()))?;
    let doc = Json::parse(text).map_err(|e| (400, format!("bad eval request: {e}")))?;

    let model_name = match doc.get("model") {
        None => "default",
        Some(v) => v
            .as_str()
            .ok_or_else(|| (400, "\"model\" must be a string".to_string()))?,
    };
    let model = models
        .get(model_name)
        .cloned()
        .ok_or_else(|| (404, format!("no such model '{model_name}'")))?;

    let mode = match doc.get("precision") {
        None => DEFAULT_MODE,
        Some(v) => match v.as_str() {
            Some("double") => PrecisionMode::Double,
            Some("mixed") => PrecisionMode::Mixed,
            _ => {
                return Err((
                    400,
                    "\"precision\" must be \"double\" or \"mixed\"".to_string(),
                ))
            }
        },
    };

    let cell = doc
        .get("cell")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| (400, "\"cell\" must be [lx, ly, lz]".to_string()))?;
    let mut l = [0.0f64; 3];
    if cell.len() != 3 {
        return Err((400, "\"cell\" must be [lx, ly, lz]".to_string()));
    }
    for (i, v) in cell.iter().enumerate() {
        l[i] = v
            .as_f64()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| (400, "\"cell\" lengths must be positive numbers".to_string()))?;
    }
    let cell = Cell::orthorhombic(l[0], l[1], l[2]);

    let positions_doc = doc
        .get("positions")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| {
            (
                400,
                "\"positions\" must be an array of [x, y, z]".to_string(),
            )
        })?;
    if positions_doc.is_empty() {
        return Err((400, "\"positions\" must not be empty".to_string()));
    }
    let mut positions = Vec::with_capacity(positions_doc.len());
    for p in positions_doc {
        let xyz = p
            .as_arr()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| (400, "each position must be [x, y, z]".to_string()))?;
        let mut r = [0.0f64; 3];
        for (i, v) in xyz.iter().enumerate() {
            r[i] = v
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| (400, "positions must be finite numbers".to_string()))?;
        }
        positions.push(r);
    }

    let types: Vec<usize> = match doc.get("types") {
        None => vec![0; positions.len()],
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| (400, "\"types\" must be an array of integers".to_string()))?;
            arr.iter()
                .map(|t| {
                    t.as_usize()
                        .ok_or_else(|| (400, "\"types\" must be non-negative integers".to_string()))
                })
                .collect::<Result<_, _>>()?
        }
    };
    if types.len() != positions.len() {
        return Err((
            400,
            format!("{} types for {} positions", types.len(), positions.len()),
        ));
    }
    let max_type = types.iter().copied().max().unwrap_or(0);
    if max_type >= model.n_types {
        return Err((
            400,
            format!(
                "type {max_type} out of range: model '{}' supports {} species",
                model.name, model.n_types
            ),
        ));
    }

    let masses: Vec<f64> = match doc.get("masses") {
        None => vec![1.0; max_type + 1],
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| (400, "\"masses\" must be an array of numbers".to_string()))?;
            arr.iter()
                .map(|m| {
                    m.as_f64()
                        .filter(|x| x.is_finite() && *x > 0.0)
                        .ok_or_else(|| (400, "masses must be positive numbers".to_string()))
                })
                .collect::<Result<_, _>>()?
        }
    };
    if masses.len() <= max_type {
        return Err((400, format!("type {max_type} has no mass entry")));
    }

    // Same guard as the deck path: the minimum-image neighbor search is
    // only valid when the cutoff fits the box.
    let limit = cell.max_cutoff();
    if model.rcut > limit {
        return Err((
            400,
            format!(
                "model cutoff {} exceeds the minimum-image limit {limit:.3} of this cell",
                model.rcut
            ),
        ));
    }

    let per_atom = match doc.get("per_atom") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| (400, "\"per_atom\" must be a boolean".to_string()))?,
    };

    let deadline = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|x| x.is_finite() && *x > 0.0)
                .map(|ms| Duration::from_micros((ms * 1000.0) as u64))
                .ok_or_else(|| (400, "\"deadline_ms\" must be a positive number".to_string()))?,
        ),
    };

    Ok(EvalJob {
        model,
        sys: System::new(cell, positions, types, masses),
        mode,
        per_atom,
        deadline,
    })
}

/// The batcher's backend: group a drained batch by precision and run each
/// group through one `compute_batch` call. Each batcher serves one model,
/// so every request of a batch carries the same one.
struct EvalBackend;

impl BatchBackend for EvalBackend {
    type Req = EvalJob;
    type Resp = String;

    fn run_batch(&self, requests: Vec<EvalJob>) -> Vec<String> {
        // Within a precision group the requests' padded environment tables
        // concatenate into one §5.2.1 fixed-shape evaluation.
        let mut groups: Vec<(PrecisionMode, Vec<usize>)> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            match groups.iter_mut().find(|(mode, _)| *mode == req.mode) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((req.mode, vec![i])),
            }
        }
        let mut out: Vec<Option<String>> = (0..requests.len()).map(|_| None).collect();
        for (mode, idxs) in groups {
            let model = Arc::clone(&requests[idxs[0]].model);
            let nls: Vec<NeighborList> = idxs
                .iter()
                .map(|&i| NeighborList::build(&requests[i].sys, model.rcut))
                .collect();
            let items: Vec<BatchItem> = idxs
                .iter()
                .zip(&nls)
                .map(|(&i, nl)| BatchItem {
                    sys: &requests[i].sys,
                    nl,
                })
                .collect();
            let results = model.pot.compute_batch(&items, mode);
            for (&i, r) in idxs.iter().zip(results) {
                let req = &requests[i];
                let mut fields = vec![
                    ("model", json::str(&model.name)),
                    ("precision", json::str(mode_name(mode))),
                    ("natoms", json::num(req.sys.len() as f64)),
                    ("energy", json::num(r.energy)),
                    (
                        "forces",
                        Json::Arr(
                            r.forces
                                .iter()
                                .map(|f| {
                                    Json::Arr(vec![
                                        json::num(f[0]),
                                        json::num(f[1]),
                                        json::num(f[2]),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ];
                if req.per_atom {
                    fields.push((
                        "per_atom_energy",
                        Json::Arr(r.per_atom_energy.iter().map(|&e| json::num(e)).collect()),
                    ));
                }
                out[i] = Some(json::obj(fields).to_string());
            }
        }
        out.into_iter()
            .map(|o| o.expect("every request answered"))
            .collect()
    }
}

/// Runs submitted decks through the same `app::run` / `ensemble_app::run`
/// as the CLI, confined to a per-job state directory.
struct DeckRunner {
    state_dir: PathBuf,
    /// `dp-obs` trace/metrics recording is process-global, so at most one
    /// traced job runs at a time; untraced jobs are unaffected.
    obs_gate: Mutex<()>,
}

fn failure_class(e: &AppError) -> &'static str {
    match e {
        AppError::Deck(_) => "deck",
        AppError::Io(_) => "io",
        AppError::Ckpt(_) => "checkpoint",
        AppError::Fault(_) => "fault",
        AppError::Run(_) => "run",
    }
}

fn fail(e: AppError) -> JobFailure {
    JobFailure {
        class: failure_class(&e),
        message: e.to_string(),
    }
}

/// Run an ensemble deck; the job's result summary.
fn ensemble_job(
    cfg: &ensemble_app::EnsembleConfig,
    log: impl FnMut(&str),
) -> Result<String, AppError> {
    let summary = ensemble_app::run(cfg, log)?;
    let mut fields = vec![
        ("kind", json::str("ensemble")),
        ("replicas", json::num(summary.replicas as f64)),
        ("steps", json::num(summary.steps as f64)),
        (
            "exchange_attempts",
            json::num(summary.exchange_attempts as f64),
        ),
        (
            "exchange_accepted",
            json::num(summary.exchange_accepted as f64),
        ),
    ];
    if let Some(n) = summary.dataset_size {
        fields.push(("dataset_size", json::num(n as f64)));
    }
    Ok(json::obj(fields).to_string())
}

/// Run an MD deck; the job's result summary.
fn md_job(cfg: &app::AppConfig, log: impl FnMut(&str)) -> Result<String, AppError> {
    let summary = app::run(cfg, log)?;
    let mut fields = vec![
        ("steps", json::num(cfg.run.steps as f64)),
        ("natoms", json::num(summary.final_system.len() as f64)),
        ("potential", json::str(summary.potential_name)),
        ("recoveries", json::num(summary.recoveries as f64)),
    ];
    if let Some(last) = summary.thermo.last() {
        fields.push(("final_temperature", json::num(last.temperature)));
        fields.push(("final_potential_energy", json::num(last.potential_energy)));
    }
    // Parallel jobs carry their §7.3 phase breakdown onto
    // `/v1/jobs/{id}`: per-phase share of rank busy time plus the
    // run-level imbalance ratio.
    if let Some(imb) = &summary.imbalance {
        let mut phases: Vec<(&str, Json)> = imb
            .phases
            .iter()
            .map(|p| (p.name, json::num(p.share)))
            .collect();
        phases.push(("imbalance", json::num(imb.imbalance)));
        fields.push(("phases", json::obj(phases)));
    }
    Ok(json::obj(fields).to_string())
}

impl JobRunner for DeckRunner {
    fn run(&self, id: &str, deck: &str) -> Result<String, JobFailure> {
        let mut deck = deck::parse(deck).map_err(fail)?;
        let job_dir = self.state_dir.join(id);
        std::fs::create_dir_all(&job_dir)
            .map_err(|e| fail(AppError::Io(format!("cannot create job dir: {e}"))))?;
        deck.confine_to(&job_dir);

        // A traced job that panicked left the gate poisoned; the gate guards
        // no data, so later traced jobs take it anyway.
        let gate = || self.obs_gate.lock().unwrap_or_else(PoisonError::into_inner);
        let _gate = deck.wants_obs().then(gate);
        let mut log_file = std::fs::File::create(job_dir.join("log.txt"))
            .map_err(|e| fail(AppError::Io(format!("cannot create job log: {e}"))))?;
        let log = |line: &str| {
            let _ = writeln!(log_file, "{line}");
        };
        match &deck {
            Deck::Md(cfg) => md_job(cfg, log),
            Deck::Ensemble(cfg) => ensemble_job(cfg, log),
        }
        .map_err(fail)
    }
}

/// The ensemble-level `/metrics` section: replica-exchange acceptance,
/// batched-evaluation occupancy, and active-learning progress, read from
/// the always-on `dp_replica::metrics` counters. Present (zeroed) even
/// before the first ensemble job runs, so dashboards can bind to it
/// unconditionally.
fn ensemble_metrics_json() -> Json {
    use dp_replica::metrics as rm;
    let attempts = dp_obs::counter(rm::EXCHANGE_ATTEMPTS).get();
    let accepted = dp_obs::counter(rm::EXCHANGE_ACCEPTED).get();
    let mut fields = vec![
        ("exchange_attempts", json::num(attempts as f64)),
        ("exchange_accepted", json::num(accepted as f64)),
        (
            "exchange_acceptance",
            json::num(if attempts > 0 {
                accepted as f64 / attempts as f64
            } else {
                0.0
            }),
        ),
        ("ticks", json::num(dp_obs::counter(rm::TICKS).get() as f64)),
        (
            "batches",
            json::num(dp_obs::counter(rm::BATCHES).get() as f64),
        ),
        (
            "model_swaps",
            json::num(dp_obs::counter(rm::MODEL_SWAPS).get() as f64),
        ),
        (
            "active_rounds",
            json::num(dp_obs::counter(rm::ACTIVE_ROUNDS).get() as f64),
        ),
        (
            "active_labeled",
            json::num(dp_obs::counter(rm::ACTIVE_LABELED).get() as f64),
        ),
        (
            "steps_per_sec",
            json::num(dp_obs::counter(rm::REPLICAS_PER_SEC).get() as f64),
        ),
    ];
    let occ = dp_obs::hist::global(rm::BATCH_OCCUPANCY).snapshot();
    fields.push(("batch_occupancy_p50", json::num(occ.quantile(0.50) as f64)));
    fields.push(("batch_occupancy_p95", json::num(occ.quantile(0.95) as f64)));
    json::obj(fields)
}

fn job_json(v: &JobView) -> Json {
    let mut fields = vec![
        ("id", json::str(&v.id)),
        ("state", json::str(v.state.name())),
        ("age_secs", json::num(v.age_secs)),
        ("run_secs", json::num(v.run_secs)),
    ];
    match &v.state {
        dp_serve::JobState::Done { result } => {
            // Result summaries are JSON we produced; embed structurally.
            fields.push((
                "result",
                Json::parse(result).unwrap_or_else(|_| json::str(result)),
            ));
        }
        dp_serve::JobState::Failed { failure } => {
            fields.push((
                "error",
                json::obj(vec![
                    ("class", json::str(failure.class)),
                    ("message", json::str(&failure.message)),
                ]),
            ));
        }
        _ => {}
    }
    json::obj(fields)
}

/// Start the daemon and serve until a shutdown request drains it.
/// Returns once the last in-flight request, queued eval, and queued job
/// have finished.
pub fn run_serve(opts: &ServeOptions, mut log: impl FnMut(&str)) -> Result<(), AppError> {
    let started = Instant::now();
    let models = Arc::new(load_models(&opts.models)?);
    for m in models.values() {
        log(&format!(
            "model '{}': rcut {} Å, {} species, default precision {}",
            m.name,
            m.rcut,
            m.n_types,
            mode_name(DEFAULT_MODE)
        ));
    }
    std::fs::create_dir_all(&opts.state_dir)
        .map_err(|e| AppError::Io(format!("cannot create state dir: {e}")))?;

    // Pre-register the ensemble-level counters/histogram and the roofline
    // gauges so the very first scrape — before any job has run — already
    // carries every series a dashboard binds to (closes the ROADMAP
    // ensemble-observability item).
    {
        use dp_replica::metrics as rm;
        for name in [
            rm::TICKS,
            rm::BATCHES,
            rm::NL_REBUILDS,
            rm::EXCHANGE_ATTEMPTS,
            rm::EXCHANGE_ACCEPTED,
            rm::MODEL_SWAPS,
            rm::ACTIVE_ROUNDS,
            rm::ACTIVE_LABELED,
            rm::REPLICAS_PER_SEC,
        ] {
            dp_obs::counter(name);
        }
        dp_obs::hist::global(rm::BATCH_OCCUPANCY);
        for phase in ["compute", "comm", "wait"] {
            dp_obs::prom::publish_gauge("roofline.achieved_gflops", &[("phase", phase)], 0.0);
        }
    }

    let store = JobStore::new();
    let runner = Arc::new(DeckRunner {
        state_dir: opts.state_dir.clone(),
        obs_gate: Mutex::new(()),
    });
    let workers = dp_serve::job::spawn_workers(&store, runner, opts.workers);

    // One batcher (queue + worker) PER MODEL: requests only ever coalesce
    // with peers against the same potential, and a deep backlog on one
    // model cannot head-of-line block another model's evaluations.
    let batchers: Arc<HashMap<String, Arc<Batcher<EvalBackend>>>> = Arc::new(
        models
            .keys()
            .map(|name| {
                (
                    name.clone(),
                    Arc::new(Batcher::new(
                        EvalBackend,
                        BatchOptions {
                            max_batch: opts.max_batch,
                            max_depth: opts.queue_depth,
                        },
                    )),
                )
            })
            .collect(),
    );

    let shutdown = ShutdownHandle::new();
    let bind = match (&opts.addr, &opts.unix) {
        (_, Some(path)) => Bind::Unix(path.clone()),
        (Some(addr), None) => Bind::Tcp(addr.clone()),
        (None, None) => unreachable!("parse_serve_args always sets a bind"),
    };
    let server = Server::bind(&bind, shutdown.clone())
        .map_err(|e| AppError::Io(format!("cannot bind {bind:?}: {e}")))?;
    let bound = server.bound().clone();
    log(&format!("dpmd serve: listening on {bound}"));
    if let Some(path) = &opts.addr_file {
        let text = match &bound {
            Bound::Tcp(a) => a.to_string(),
            Bound::Unix(p) => format!("unix:{}", p.display()),
        };
        std::fs::write(path, text)
            .map_err(|e| AppError::Io(format!("cannot write addr file: {e}")))?;
    }

    let handler: dp_serve::Handler = {
        let models = Arc::clone(&models);
        let store = store.clone();
        let batchers = Arc::clone(&batchers);
        let shutdown = shutdown.clone();
        let state_dir = opts.state_dir.clone();
        Arc::new(move |req: &Request| {
            handle(
                req, &models, &store, &batchers, &shutdown, &state_dir, started,
            )
        })
    };
    server.serve(handler);

    // The accept loop is done; finish everything already admitted.
    store.drain();
    for w in workers {
        let _ = w.join();
    }
    log("dpmd serve: drained, shutting down");
    Ok(())
}

fn handle(
    req: &Request,
    models: &HashMap<String, Arc<ModelEntry>>,
    store: &JobStore,
    batchers: &HashMap<String, Arc<Batcher<EvalBackend>>>,
    shutdown: &ShutdownHandle,
    state_dir: &std::path::Path,
    started: Instant,
) -> Response {
    let matched = match route(&req.method, &req.path) {
        Ok(r) => r,
        Err(RouteError::NotFound) => return Response::error(404, "no such endpoint"),
        Err(RouteError::MethodNotAllowed(allowed)) => {
            return Response::error(405, &format!("method not allowed; use {allowed}"))
                .with_header("Allow", allowed)
        }
    };
    match matched {
        Route::Health => Response::json(200, "{\"ok\":true}"),
        Route::Models => {
            let mut entries: Vec<_> = models.values().collect();
            entries.sort_by_key(|m| m.name.clone());
            let list = Json::Arr(
                entries
                    .iter()
                    .map(|m| {
                        json::obj(vec![
                            ("name", json::str(&m.name)),
                            ("rcut", json::num(m.rcut)),
                            ("n_types", json::num(m.n_types as f64)),
                            ("default_precision", json::str(mode_name(DEFAULT_MODE))),
                        ])
                    })
                    .collect(),
            );
            Response::json(200, json::obj(vec![("models", list)]).to_string())
        }
        Route::Metrics => {
            let (queued, running, done, failed) = store.counts();
            // Publish the daemon-level gauges into the prom registry
            // before rendering either format, so both expositions see
            // the same snapshot (per-model queue depths become labeled
            // series).
            dp_obs::prom::publish_gauge("serve.uptime_secs", &[], started.elapsed().as_secs_f64());
            dp_obs::prom::publish_gauge("serve.jobs.queued", &[], queued as f64);
            dp_obs::prom::publish_gauge("serve.jobs.running", &[], running as f64);
            for (name, b) in batchers.iter() {
                dp_obs::prom::publish_gauge(
                    "serve.eval.queue_depth",
                    &[("model", name)],
                    b.depth() as f64,
                );
            }
            if req.query.contains("format=prometheus") {
                return Response {
                    status: 200,
                    content_type: dp_obs::prom::CONTENT_TYPE,
                    body: dp_obs::prom::render().into_bytes(),
                    headers: Vec::new(),
                };
            }
            let obs = Json::parse(&dp_obs::serve::snapshot_json()).unwrap_or(Json::Null);
            let doc = json::obj(vec![
                ("uptime_secs", json::num(started.elapsed().as_secs_f64())),
                (
                    "jobs",
                    json::obj(vec![
                        ("queued", json::num(queued as f64)),
                        ("running", json::num(running as f64)),
                        ("done", json::num(done as f64)),
                        ("failed", json::num(failed as f64)),
                    ]),
                ),
                (
                    "eval_queue_depth",
                    json::num(batchers.values().map(|b| b.depth()).sum::<usize>() as f64),
                ),
                ("eval_queue_depths", {
                    let mut names: Vec<&String> = batchers.keys().collect();
                    names.sort();
                    json::obj(
                        names
                            .into_iter()
                            .map(|n| (n.as_str(), json::num(batchers[n].depth() as f64)))
                            .collect(),
                    )
                }),
                ("ensemble", ensemble_metrics_json()),
                ("obs", obs),
            ]);
            Response::json(200, doc.to_string())
        }
        Route::SubmitJob => {
            let Ok(text) = std::str::from_utf8(&req.body) else {
                return Response::error(400, "deck is not UTF-8");
            };
            // Validate the deck up front so a typo answers 400 now, not a
            // failed job later.
            if let Err(e) = deck::parse(text) {
                return Response::error(400, &e.to_string());
            }
            match store.submit(text.to_string()) {
                Some(id) => Response::json(
                    202,
                    json::obj(vec![("id", json::str(&id)), ("state", json::str("queued"))])
                        .to_string(),
                ),
                None => Response::error(503, "daemon is draining"),
            }
        }
        Route::ListJobs => {
            let jobs = Json::Arr(store.list().iter().map(job_json).collect());
            Response::json(200, json::obj(vec![("jobs", jobs)]).to_string())
        }
        Route::JobStatus(id) => match store.get(&id) {
            Some(v) => Response::json(200, job_json(&v).to_string()),
            None => Response::error(404, &format!("no such job '{id}'")),
        },
        Route::JobTrace(id) => {
            if store.get(&id).is_none() {
                return Response::error(404, &format!("no such job '{id}'"));
            }
            match std::fs::read(state_dir.join(&id).join("trace.json")) {
                Ok(body) => Response {
                    status: 200,
                    content_type: "application/json",
                    body,
                    headers: Vec::new(),
                },
                Err(_) => Response::error(
                    404,
                    "no trace for this job (submit with \"trace_path\" set, and wait for it to finish)",
                ),
            }
        }
        Route::Eval => {
            dp_obs::counter(dp_obs::serve::EVAL_REQUESTS).add(1);
            let job = match parse_eval(&req.body, models) {
                Ok(j) => j,
                Err((status, msg)) => return Response::error(status, &msg),
            };
            // Route to the target model's own queue; parse_eval already
            // guaranteed the model exists in the registry.
            let batcher = &batchers[&job.model.name];
            let deadline = job.deadline;
            match batcher.submit_with_deadline(job, deadline) {
                Ok(body) => Response::json(200, body),
                Err(SubmitError::QueueFull) => {
                    Response::error(429, "eval queue is full; retry later")
                        .with_header("Retry-After", "1")
                }
                Err(SubmitError::DeadlineExceeded { estimated_wait_us }) => Response::error(
                    429,
                    &format!(
                        "deadline_ms too short: estimated queue wait is {} ms",
                        estimated_wait_us.div_ceil(1000)
                    ),
                )
                .with_header("Retry-After", "1"),
                Err(SubmitError::ShuttingDown) => Response::error(503, "daemon is draining"),
            }
        }
        Route::Shutdown => {
            store.drain();
            shutdown.request();
            Response::json(200, "{\"draining\":true}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_body(n: usize) -> Vec<u8> {
        // n atoms on a sparse line in a roomy box: valid for the synthetic
        // model's 4.5 Å cutoff.
        let positions: Vec<String> = (0..n)
            .map(|i| format!("[{}.0, 5.0, 5.0]", 1 + 2 * i))
            .collect();
        format!(
            "{{\"cell\": [20.0, 12.0, 12.0], \"positions\": [{}]}}",
            positions.join(", ")
        )
        .into_bytes()
    }

    fn registry() -> HashMap<String, Arc<ModelEntry>> {
        load_models(&[("default".into(), "synthetic:1".into())]).unwrap()
    }

    #[test]
    fn a_bad_synthetic_seed_is_a_deck_error() {
        let Err(err) = load_models(&[("m".into(), "synthetic:x1".into())]) else {
            panic!("synthetic:x1 loaded");
        };
        assert_eq!(err.to_string(), "bad synthetic model seed 'x1'");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn parse_serve_args_defaults_and_flags() {
        let opts = parse_serve_args(&[]).unwrap();
        assert_eq!(opts.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.models, vec![("default".into(), "synthetic:1".into())]);

        let opts = parse_serve_args(&[
            "--addr".into(),
            "0.0.0.0:8700".into(),
            "--model".into(),
            "cu=models/cu.json".into(),
            "--max-batch".into(),
            "8".into(),
            "--queue-depth".into(),
            "16".into(),
            "--workers".into(),
            "4".into(),
        ])
        .unwrap();
        assert_eq!(opts.addr.as_deref(), Some("0.0.0.0:8700"));
        assert_eq!(opts.models, vec![("cu".into(), "models/cu.json".into())]);
        assert_eq!(opts.max_batch, 8);
        assert_eq!(opts.queue_depth, 16);
        assert_eq!(opts.workers, 4);

        assert!(parse_serve_args(&["--model".into(), "noequals".into()]).is_err());
        assert!(parse_serve_args(&["--bogus".into()]).is_err());
        assert!(parse_serve_args(&[
            "--addr".into(),
            "a:1".into(),
            "--unix".into(),
            "/tmp/x".into()
        ])
        .is_err());
    }

    #[test]
    fn eval_requests_validate_against_the_registry() {
        let models = registry();
        let ok = parse_eval(&eval_body(3), &models).unwrap();
        assert_eq!(ok.sys.len(), 3);
        assert_eq!(ok.mode, PrecisionMode::Double);
        assert!(!ok.per_atom);

        // "precision" takes exactly two values; anything else, including
        // the emulated fp16 the library no longer offers, is a typed 400.
        let with_precision = |value: &str| {
            let body = format!(
                "{{\"cell\": [20,12,12], \"positions\": [[1,1,1]], \"precision\": {value}}}"
            );
            parse_eval(body.as_bytes(), &models)
        };
        assert_eq!(
            with_precision("\"double\"").unwrap().mode,
            PrecisionMode::Double
        );
        assert_eq!(
            with_precision("\"mixed\"").unwrap().mode,
            PrecisionMode::Mixed
        );
        for bad in ["\"half\"", "16"] {
            let (status, msg) = with_precision(bad).unwrap_err();
            assert_eq!(status, 400, "{bad}");
            assert_eq!(msg, "\"precision\" must be \"double\" or \"mixed\"");
        }

        // Unknown model is 404, not 400.
        let (status, _) = parse_eval(
            b"{\"model\": \"nope\", \"cell\": [20,12,12], \"positions\": [[1,1,1]]}",
            &models,
        )
        .unwrap_err();
        assert_eq!(status, 404);

        // Cutoff bigger than the minimum-image limit of the cell.
        let (status, msg) = parse_eval(
            b"{\"cell\": [6.0, 6.0, 6.0], \"positions\": [[1,1,1]]}",
            &models,
        )
        .unwrap_err();
        assert_eq!(status, 400);
        assert!(msg.contains("minimum-image"), "{msg}");

        // Type out of range for a 1-species model.
        let (status, msg) = parse_eval(
            b"{\"cell\": [20,12,12], \"positions\": [[1,1,1]], \"types\": [1]}",
            &models,
        )
        .unwrap_err();
        assert_eq!(status, 400);
        assert!(msg.contains("species"), "{msg}");

        // Malformed JSON.
        let (status, _) = parse_eval(b"{not json", &models).unwrap_err();
        assert_eq!(status, 400);
    }

    #[test]
    fn eval_backend_answers_every_request_in_order() {
        let models = registry();
        let jobs: Vec<EvalJob> = [2usize, 3, 4]
            .iter()
            .map(|&n| parse_eval(&eval_body(n), &models).unwrap())
            .collect();
        let solo: Vec<String> = jobs
            .iter()
            .map(|j| {
                let req = parse_eval(&eval_body(j.sys.len()), &models).unwrap();
                EvalBackend.run_batch(vec![req]).remove(0)
            })
            .collect();
        let batched = EvalBackend.run_batch(jobs);
        assert_eq!(batched.len(), 3);
        // The batched responses are byte-identical to solo evaluation:
        // with shortest-round-trip float printing this is bit equality of
        // every energy and force component.
        assert_eq!(batched, solo);
        for (body, n) in batched.iter().zip([2usize, 3, 4]) {
            let doc = Json::parse(body).unwrap();
            assert_eq!(doc.get("natoms").and_then(|v| v.as_usize()), Some(n));
            assert_eq!(
                doc.get("forces").and_then(|v| v.as_arr()).map(|a| a.len()),
                Some(n)
            );
            assert!(doc.get("per_atom_energy").is_none());
        }
    }

    #[test]
    fn deck_runner_reports_typed_failures() {
        let dir = std::env::temp_dir().join(format!("dp-serve-runner-{}", std::process::id()));
        let runner = DeckRunner {
            state_dir: dir.clone(),
            obs_gate: Mutex::new(()),
        };
        let err = runner.run("job-t1", "{\"not\": \"a deck\"}").unwrap_err();
        assert_eq!(err.class, "deck");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_traced_job_runs_after_a_panic_poisoned_the_obs_gate() {
        let dir = std::env::temp_dir().join(format!("dp-serve-gate-{}", std::process::id()));
        let runner = DeckRunner {
            state_dir: dir.clone(),
            obs_gate: Mutex::new(()),
        };
        // a traced job that panics while it holds the gate poisons it
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let _gate = runner.obs_gate.lock().unwrap();
                panic!("traced job panicked");
            });
            assert!(held.join().is_err());
        });
        assert!(runner.obs_gate.is_poisoned());
        let deck = r#"{
            "system": {"kind": "fcc", "a0": 5.26, "reps": [2, 2, 2], "mass": 39.948},
            "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
            "temperature": 40.0, "dt_fs": 2.0, "steps": 4, "metrics_path": "m.jsonl"
        }"#;
        let out = runner.run("job-gate", deck).expect("traced job");
        assert!(out.contains("natoms"), "{out}");
        assert!(dir.join("job-gate").join("metrics.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

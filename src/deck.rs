//! The one input-deck front-end: every deck — `dpmd <deck>`, `dpmd
//! ensemble <deck>` and `POST /v1/jobs` — is parsed here, once, by the
//! workspace codec ([`dp_obs::json`]) and a strict field reader.
//!
//! Strict means: a key the schema does not read is an error naming its
//! full path (`system.repz`), so a typo like `"checkpont_every"` fails
//! loudly instead of silently changing the run; duplicate keys are
//! rejected by the codec; `null` is the same as absent for optional keys;
//! counts and seeds must be exact integers (at most 2⁵³ − 1, see
//! [`dp_obs::json::MAX_EXACT_INT`]) so nothing is rounded on the way in.
//!
//! This module owns what the runners share: the tagged sections, the
//! [`RunKeys`] both deck kinds carry and their one [`RunKeys::validate`],
//! the MD-vs-ensemble dispatch ([`parse`]), the job-dir confinement of
//! `/v1/jobs` ([`Deck::confine_to`]), the model loaders ([`load_model`],
//! [`ModelSpec::load`]), the cutoff-vs-box check with its neighbor skin
//! and the one chaos-section reader. The keys only one runner reads stay
//! next to it (`AppConfig::read`, `EnsembleConfig::read`).

use crate::app::{AppConfig, AppError};
use crate::ensemble_app::EnsembleConfig;
use deepmd_core::config::DpConfig;
use deepmd_core::model::DpModel;
use dp_md::{CounterRng, System};
use dp_obs::json::Json;
use dp_parallel::ChaosSpec;
use std::collections::BTreeMap;
use std::path::Path;

fn deck_err(msg: String) -> AppError {
    AppError::Deck(format!("bad input deck: {msg}"))
}

/// A leaf conversion and, for the error message, what it accepts.
pub(crate) type Leaf<T> = (fn(&Json) -> Option<T>, &'static str);

pub(crate) const NUM: Leaf<f64> = (Json::as_f64, "a number");
pub(crate) const INT: Leaf<u64> = (Json::as_u64, "an integer in 0..=2^53-1");
pub(crate) const COUNT: Leaf<usize> = (|v| usize::try_from(v.as_u64()?).ok(), INT.1);
pub(crate) const FLAG: Leaf<bool> = (Json::as_bool, "true or false");
pub(crate) const TEXT: Leaf<String> = (|v| v.as_str().map(str::to_string), "a string");
pub(crate) const PAIR: Leaf<[usize; 2]> = (counts, "an array of 2 integers");
pub(crate) const TRIPLE: Leaf<[usize; 3]> = (counts, "an array of 3 integers");

fn counts<const N: usize>(v: &Json) -> Option<[usize; N]> {
    let items: Option<Vec<usize>> = v.as_arr()?.iter().map(COUNT.0).collect();
    items?.try_into().ok()
}

/// Strict reader over one JSON object of a deck: the schema takes the
/// keys it knows, [`finish`](Self::finish) rejects whatever is left.
pub(crate) struct Fields<'a> {
    /// Dotted path of this object (`""` at top level), for messages.
    path: String,
    rest: BTreeMap<&'a str, &'a Json>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Json, path: String) -> Result<Self, AppError> {
        let what = if path.is_empty() { "the deck" } else { &path };
        let map = v
            .as_obj()
            .ok_or_else(|| deck_err(format!("`{what}` must be a JSON object")))?;
        let rest = map.iter().map(|(k, v)| (k.as_str(), v)).collect();
        Ok(Self { path, rest })
    }

    fn at(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn missing(&self, key: &str) -> AppError {
        deck_err(format!("missing key `{}`", self.at(key)))
    }

    /// Take `key` out of the object; `null` counts as absent.
    fn take(&mut self, key: &str) -> Option<&'a Json> {
        self.rest.remove(key).filter(|v| **v != Json::Null)
    }

    /// An optional key.
    pub(crate) fn opt<T>(&mut self, key: &str, leaf: Leaf<T>) -> Result<Option<T>, AppError> {
        let Some(v) = self.take(key) else {
            return Ok(None);
        };
        let bad = || deck_err(format!("`{}` must be {}", self.at(key), leaf.1));
        leaf.0(v).map(Some).ok_or_else(bad)
    }

    /// An optional key with a default.
    pub(crate) fn or<T>(&mut self, key: &str, leaf: Leaf<T>, default: T) -> Result<T, AppError> {
        Ok(self.opt(key, leaf)?.unwrap_or(default))
    }

    /// A required key.
    pub(crate) fn req<T>(&mut self, key: &str, leaf: Leaf<T>) -> Result<T, AppError> {
        self.opt(key, leaf)?.ok_or_else(|| self.missing(key))
    }

    /// An optional nested object.
    pub(crate) fn opt_obj(&mut self, key: &str) -> Result<Option<Fields<'a>>, AppError> {
        let path = self.at(key);
        self.take(key).map(|v| Fields::new(v, path)).transpose()
    }

    /// A required nested object.
    pub(crate) fn req_obj(&mut self, key: &str) -> Result<Fields<'a>, AppError> {
        self.opt_obj(key)?.ok_or_else(|| self.missing(key))
    }

    /// The error for a `"kind"` tag that is none of `kinds`.
    fn unknown_kind(&self, kind: &str, kinds: &str) -> AppError {
        deck_err(format!(
            "unknown `{}` \"{kind}\" (one of {kinds})",
            self.at("kind")
        ))
    }

    /// Every key the schema did not take is a typo.
    pub(crate) fn finish(self) -> Result<(), AppError> {
        match self.rest.keys().next() {
            None => Ok(()),
            Some(key) => Err(deck_err(format!("unknown key `{}`", self.at(key)))),
        }
    }
}

/// Which atoms to simulate (`"system"`, tagged by `"kind"`).
#[derive(Debug, Clone)]
pub enum SystemSpec {
    /// `"fcc"`: crystal with lattice constant `a0`, `reps` unit cells per
    /// axis.
    Fcc {
        a0: f64,
        reps: [usize; 3],
        mass: f64,
    },
    /// `"water"`: molecules on a cubic molecular lattice.
    Water {
        mols_per_axis: [usize; 3],
        spacing: f64,
    },
}

impl SystemSpec {
    fn read(mut f: Fields) -> Result<Self, AppError> {
        let kind = f.req("kind", TEXT)?;
        let spec = match kind.as_str() {
            "fcc" => SystemSpec::Fcc {
                a0: f.req("a0", NUM)?,
                reps: f.req("reps", TRIPLE)?,
                mass: f.req("mass", NUM)?,
            },
            "water" => SystemSpec::Water {
                mols_per_axis: f.req("mols_per_axis", TRIPLE)?,
                spacing: f.req("spacing", NUM)?,
            },
            other => return Err(f.unknown_kind(other, "fcc, water")),
        };
        f.finish()?;
        Ok(spec)
    }
}

/// Which potential drives the forces (`"potential"`, and the
/// active-learning `"reference"`; tagged by `"kind"`).
#[derive(Debug, Clone)]
pub enum PotentialSpec {
    /// `"lennard_jones"`
    LennardJones { eps: f64, sigma: f64, rcut: f64 },
    /// `"sutton_chen_cu"`
    SuttonChenCu { short: bool },
    /// `"water_reference"`
    WaterReference { rcut: f64 },
    /// `"deep_potential"`: a trained model file (see [`load_model`]).
    DeepPotential {
        model: String,
        mixed_precision: bool,
    },
}

impl PotentialSpec {
    pub(crate) fn read(mut f: Fields) -> Result<Self, AppError> {
        let kind = f.req("kind", TEXT)?;
        let spec = match kind.as_str() {
            "lennard_jones" => PotentialSpec::LennardJones {
                eps: f.req("eps", NUM)?,
                sigma: f.req("sigma", NUM)?,
                rcut: f.req("rcut", NUM)?,
            },
            "sutton_chen_cu" => PotentialSpec::SuttonChenCu {
                short: f.req("short", FLAG)?,
            },
            "water_reference" => PotentialSpec::WaterReference {
                rcut: f.req("rcut", NUM)?,
            },
            "deep_potential" => PotentialSpec::DeepPotential {
                model: f.req("model", TEXT)?,
                mixed_precision: f.or("mixed_precision", FLAG, false)?,
            },
            other => {
                let kinds = "lennard_jones, sutton_chen_cu, water_reference, deep_potential";
                return Err(f.unknown_kind(other, kinds));
            }
        };
        f.finish()?;
        Ok(spec)
    }
}

/// Which Deep Potential model a whole ensemble shares (`"model"`, tagged
/// by `"kind"`), or a `dpmd serve --model` entry serves.
#[derive(Debug, Clone)]
pub enum ModelSpec {
    /// `"synthetic"`: a deterministic untrained model (weights from
    /// `seed`); the arithmetic is the real thing, so smoke tests and
    /// benchmarks work without a training run.
    Synthetic { seed: u64, rcut: f64 },
    /// `"file"`: a trained model file (see [`load_model`]).
    File { path: String },
}

impl ModelSpec {
    pub(crate) fn read(mut f: Fields) -> Result<Self, AppError> {
        let kind = f.req("kind", TEXT)?;
        let spec = match kind.as_str() {
            "synthetic" => ModelSpec::Synthetic {
                seed: f.req("seed", INT)?,
                rcut: f.or("rcut", NUM, 4.5)?,
            },
            "file" => ModelSpec::File {
                path: f.req("path", TEXT)?,
            },
            other => return Err(f.unknown_kind(other, "synthetic, file")),
        };
        f.finish()?;
        Ok(spec)
    }

    /// Build the model: the one loader behind the ensemble `"model"`
    /// section and `dpmd serve --model`.
    pub fn load(&self) -> Result<DpModel<f64>, AppError> {
        match self {
            ModelSpec::Synthetic { seed, rcut } => {
                if !(rcut.is_finite() && *rcut > 0.0) {
                    return Err(AppError::Deck(format!("bad synthetic model rcut {rcut}")));
                }
                let cfg = DpConfig::small(1, *rcut, 16);
                Ok(DpModel::new_random(cfg, &mut CounterRng::new(*seed)))
            }
            ModelSpec::File { path } => load_model(path),
        }
    }
}

/// The neighbor-list skin for a `what` ("potential", "model") of cutoff
/// `rcut` in `sys`'s box: 90 % of the room the minimum-image limit leaves,
/// at most 2 Å. A cutoff beyond that limit is a deck error.
pub(crate) fn skin(sys: &System, rcut: f64, what: &str) -> Result<f64, AppError> {
    let halo_limit = sys.cell.max_cutoff();
    if rcut > halo_limit {
        return Err(AppError::Deck(format!(
            "{what} cutoff {rcut} exceeds the minimum-image limit {halo_limit:.3} of this box"
        )));
    }
    Ok(((halo_limit - rcut) * 0.9).clamp(0.0, 2.0))
}

/// The `fault_chaos` section, or with `soak` the `chaos_soak` one, which
/// also takes torn per-rank shard writes and the invariant-audit stride
/// the soak runs under (default 10). The seed *is* the schedule — same
/// seed, same deck, same faults, bit-exact — so a failing drill is
/// replayable.
pub(crate) fn read_chaos(mut f: Fields, soak: bool) -> Result<ChaosSpec, AppError> {
    let d = ChaosSpec::default();
    let mut spec = ChaosSpec {
        seed: f.req("seed", INT)?,
        kills: f.or("kills", COUNT, d.kills)?,
        drops: f.or("drops", COUNT, d.drops)?,
        delays: f.or("delays", COUNT, d.delays)?,
        max_delay_ms: f.or("max_delay_ms", INT, d.max_delay_ms)?,
        ..d
    };
    if soak {
        spec.torn_shards = f.or("torn_shards", COUNT, d.torn_shards)?;
        spec.audit_every = f.or("audit_every", COUNT, 10)?;
    }
    f.finish()?;
    Ok(spec)
}

/// The keys MD decks and ensemble decks share. (`"resume"` is read by
/// each runner: a rotation path for MD, a flag for ensembles.)
#[derive(Debug, Clone)]
pub struct RunKeys {
    pub system: SystemSpec,
    pub steps: usize,
    /// Time step in femtoseconds.
    pub dt_fs: f64,
    /// Steps between thermo samples (default 20).
    pub thermo_every: usize,
    /// Thermostat name, checked by [`RunKeys::thermostat`].
    pub thermostat: Option<String>,
    pub seed: u64,
    /// Steps between checkpoints (0 = no checkpointing).
    pub checkpoint_every: usize,
    /// Rotation base path the checkpoints are written to (older
    /// generations get `.1`, `.2`, ... suffixes).
    pub checkpoint_path: Option<String>,
    /// Checkpoint generations retained (default 3).
    pub checkpoint_keep: usize,
    /// Write JSONL metrics for the run here (enables span/histogram
    /// collection for its duration). Also `dpmd --metrics <file>`.
    pub metrics_path: Option<String>,
}

impl RunKeys {
    fn read(f: &mut Fields) -> Result<Self, AppError> {
        Ok(Self {
            system: SystemSpec::read(f.req_obj("system")?)?,
            steps: f.req("steps", COUNT)?,
            dt_fs: f.req("dt_fs", NUM)?,
            thermo_every: f.or("thermo_every", COUNT, 20)?,
            thermostat: f.opt("thermostat", TEXT)?,
            seed: f.or("seed", INT, 0)?,
            checkpoint_every: f.or("checkpoint_every", COUNT, 0)?,
            checkpoint_path: f.opt("checkpoint_path", TEXT)?,
            checkpoint_keep: f.or("checkpoint_keep", COUNT, 3)?,
            metrics_path: f.opt("metrics_path", TEXT)?,
        })
    }

    /// The checks every runner makes before it builds anything. `resume`
    /// is the rotation a resumed MD run is loading from.
    pub fn validate(&self, resume: Option<&str>) -> Result<(), AppError> {
        if !(self.dt_fs.is_finite() && self.dt_fs > 0.0) {
            return Err(AppError::Deck(format!("bad dt_fs {}", self.dt_fs)));
        }
        if self.thermo_every == 0 {
            return Err(AppError::Deck("thermo_every must be at least 1".into()));
        }
        self.checkpoint_base(resume).map(|_| ())
    }

    /// Where checkpoints are written: `checkpoint_path`, or the rotation
    /// being resumed from when only that is given; `None` when
    /// checkpointing is off.
    pub fn checkpoint_base<'a>(
        &'a self,
        resume: Option<&'a str>,
    ) -> Result<Option<&'a str>, AppError> {
        if self.checkpoint_every == 0 {
            return Ok(None);
        }
        let base = self.checkpoint_path.as_deref().or(resume);
        base.map(Some).ok_or_else(|| {
            AppError::Deck(
                "checkpoint_every is set but there is no checkpoint_path to write to".into(),
            )
        })
    }

    /// The one thermostat-name check: the deck's name if it is one of the
    /// thermostats this runner has (`known`), `None` when the deck names
    /// none and the runner's default applies.
    pub fn thermostat(&self, known: &[&'static str]) -> Result<Option<&'static str>, AppError> {
        let Some(name) = self.thermostat.as_deref() else {
            return Ok(None);
        };
        let hit = known.iter().copied().find(|k| *k == name);
        hit.map(Some).ok_or_else(|| {
            AppError::Deck(format!(
                "unknown thermostat '{name}' (this runner takes {known:?})"
            ))
        })
    }
}

/// A parsed deck of either kind.
#[derive(Debug, Clone)]
pub enum Deck {
    Md(AppConfig),
    Ensemble(EnsembleConfig),
}

/// Parse any deck. The top-level `"replicas"` key, which the MD schema
/// does not have and the ensemble schema requires, selects the schema.
pub fn parse(text: &str) -> Result<Deck, AppError> {
    let tree = Json::parse(text).map_err(deck_err)?;
    let mut f = Fields::new(&tree, String::new())?;
    let run = RunKeys::read(&mut f)?;
    let deck = if tree.get("replicas").is_some() {
        Deck::Ensemble(EnsembleConfig::read(run, &mut f)?)
    } else {
        Deck::Md(AppConfig::read(run, &mut f)?)
    };
    f.finish()?;
    Ok(deck)
}

impl Deck {
    /// Does the run record into dp-obs's process-global trace/metrics
    /// state (so at most one such job may run at a time)?
    pub fn wants_obs(&self) -> bool {
        match self {
            Deck::Md(cfg) => cfg.trace_path.is_some() || cfg.run.metrics_path.is_some(),
            Deck::Ensemble(cfg) => cfg.run.metrics_path.is_some(),
        }
    }

    /// `/v1/jobs` confinement: give the job an automatic checkpoint
    /// rotation, move its outputs into `job_dir` so concurrent jobs never
    /// clobber each other, and — when the job was resubmitted after a
    /// daemon restart and its rotation already holds a save — resume.
    pub fn confine_to(&mut self, job_dir: &Path) {
        let inside = |p: &str| job_dir.join(p).to_string_lossy().into_owned();
        let confine = |out: &mut Option<String>| {
            if let Some(p) = out.as_ref().filter(|p| !p.starts_with('/')) {
                *out = Some(inside(p));
            }
        };
        let run = match self {
            Deck::Md(cfg) => &mut cfg.run,
            Deck::Ensemble(cfg) => &mut cfg.run,
        };
        if run.checkpoint_every > 0 && run.checkpoint_path.is_none() {
            run.checkpoint_path = Some(inside("ckpt"));
        }
        if run.metrics_path.is_some() {
            run.metrics_path = Some(inside("metrics.jsonl"));
        }
        // MD and ensemble jobs alike: a save exists once the rotation's newest slot does
        let every = run.checkpoint_every;
        let saved = run
            .checkpoint_path
            .clone()
            .filter(|base| every > 0 && Path::new(base).exists());
        match self {
            Deck::Md(cfg) => {
                confine(&mut cfg.trajectory);
                if cfg.trace_path.is_some() {
                    cfg.trace_path = Some(inside("trace.json"));
                }
                if cfg.resume.is_none() {
                    cfg.resume = saved;
                }
            }
            Deck::Ensemble(cfg) => {
                confine(&mut cfg.swap_log);
                cfg.resume |= saved.is_some();
            }
        }
    }
}

/// Read a model file — the one loader behind `"deep_potential"` decks,
/// the ensemble `"model"` section and `dpmd serve --model`.
pub fn load_model(path: &str) -> Result<DpModel<f64>, AppError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| AppError::Io(format!("cannot read model {path}: {e}")))?;
    DpModel::from_json(&text).map_err(|e| AppError::Deck(format!("bad model {path}: {e}")))
}

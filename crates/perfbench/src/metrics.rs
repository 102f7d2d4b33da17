//! The metric registry (one table per kind, mirrored by `BENCHMARK.json`)
//! and the result of one workload pass.

use crate::stats::Summary;
use dp_serve::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, why)`, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("water_paper_f64", "paper headline model (25x50x100 / 240^3, f64) on 375 water atoms: time is dp-linalg GEMM + tanh, so kernel work shows here and neighbor/format work must not"),
    ("copper_small_f32", "4000 copper atoms on tiny nets (8x16 / 32^3, mixed): cell list, u64 sort/format, gather, ProdForce and integrate get their largest share; kernel work must barely move it"),
    ("parallel_2x1x1", "the only workload crossing a rank boundary: 1152 copper atoms on a 2x1x1 grid with checkpoint + shards, so migrate/exchange/reverse-force/allreduce/shard-write run"),
    ("serve_eval_c2", "the request path: dpmd serve subprocess, closed loop of 2 clients posting 108-atom /v1/eval bodies on fresh connections; model time is under half the latency"),
    ("ensemble_8x81", "third step loop and the cross-replica batch path: 8 replicas x 81 water atoms joined into one core::batch evaluation per tick, exchange every 10"),
    ("train_step_8f", "the only workload on the dp-autograd/dp-nn tape: full-batch Trainer::step over 8 perturbed 81-atom water frames (gradient through the force gradient)"),
];

pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
    /// `None`: every workload reports it (these are the `end_to_end`
    /// list of `BENCHMARK.json`). `Some(w)`: only workload `w` has it, so
    /// it is kept in the ledger document and gated by `compare` only.
    pub only: Option<&'static str>,
}

/// Bounds are what this host can resolve, not what one would like: ten
/// runs of one commit spread (interquartile, as a share of the median) by
/// up to 10 % on the timings here, because the host's own pure-register
/// FMA rate moves between 87 and 114 GFLOP/s from run to run. A bound has
/// to be three times the spread to gate without false alarms; finer
/// changes are shown with the paired protocol in the README.
pub const E2E: &[E2eDef] = &[
    e2e("setup_s", "s", Lower, 0.25, None),
    e2e("us_per_atom_step", "us", Lower, 0.25, None),
    e2e("peak_rss_mb", "MB", Lower, 0.25, None),
    e2e("eval_p99_ms", "ms", Lower, 0.25, Some("serve_eval_c2")),
    e2e("eval_rps", "1/s", Higher, 0.25, Some("serve_eval_c2")),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    only: Option<&'static str>,
) -> E2eDef {
    E2eDef {
        name,
        unit,
        better,
        bound,
        only,
    }
}

pub fn e2e_def(name: &str) -> Option<&'static E2eDef> {
    E2E.iter().find(|d| d.name == name)
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric this layer metric should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

const ON_WATER: &str = "us_per_atom_step on water_paper_f64, barely on copper_small_f32";
const ON_COPPER: &str = "us_per_atom_step on copper_small_f32, barely on water_paper_f64";
const ON_BATCH: &str = "us_per_atom_step on serve_eval_c2 and ensemble_8x81";
const ON_MD: &str = "us_per_atom_step on copper_small_f32 and parallel_2x1x1";
const ON_PAR: &str = "us_per_atom_step on parallel_2x1x1 only";
const ON_SERVE: &str = "us_per_atom_step, eval_p99_ms and eval_rps on serve_eval_c2 only";
const ON_ENS: &str = "us_per_atom_step on ensemble_8x81";
const ON_TRAIN: &str = "us_per_atom_step on train_step_8f";
const NOTHING: &str = "nothing: a ceiling or a cost of measuring";

/// Every per-layer metric. A traced pass prints all of them; a metric
/// whose layer is not on the workload's path reads 0 there.
pub const LAYERS: &[LayerDef] = &[
    layer("host.peak_fma_gflops", "GFLOP/s", Higher, NOTHING),
    layer("host.stream_gbs", "GB/s", Higher, NOTHING),
    layer("host.llc_mb", "MB", Higher, NOTHING),
    layer("host.stream_array_mb", "MB", Higher, NOTHING),
    layer("linalg.flops_per_atom_step", "FLOP", Lower, ON_WATER),
    layer("linalg.gflops", "GFLOP/s", Higher, ON_WATER),
    layer("linalg.gemm_emb.gflops", "GFLOP/s", Higher, ON_WATER),
    layer("linalg.gemm_fit.gflops", "GFLOP/s", Higher, ON_WATER),
    layer("linalg.tanh.gelem_s", "Gelem/s", Higher, ON_WATER),
    layer("linalg.gemm_emb.flops_per_byte", "FLOP/B", Higher, ON_WATER),
    layer("linalg.gemm_emb.roofline_frac", "ratio", Higher, ON_WATER),
    layer("linalg.gemm_fit.roofline_frac", "ratio", Higher, ON_WATER),
    layer("core.format.us_per_atom", "us", Lower, ON_COPPER),
    layer("core.format.pad_frac", "ratio", Lower, ON_WATER),
    layer(
        "core.format.overflowed",
        "count",
        Lower,
        "failed: must stay 0",
    ),
    layer("core.eval.us_per_atom", "us", Lower, ON_COPPER),
    layer("core.eval.gemm_frac", "ratio", Higher, ON_WATER),
    layer("core.eval.tanh_frac", "ratio", Higher, ON_WATER),
    layer("core.eval.slice_frac", "ratio", Lower, ON_COPPER),
    layer("core.eval.custom_frac", "ratio", Lower, ON_COPPER),
    layer("core.eval.other_frac", "ratio", Lower, ON_COPPER),
    layer("core.eval.allocs_per_call", "count", Lower, ON_COPPER),
    layer("core.batch.join_us", "us", Lower, ON_BATCH),
    layer("core.batch.eval_us_per_atom", "us", Lower, ON_BATCH),
    layer("md.neighbor.build_us_per_atom", "us", Lower, ON_MD),
    layer("md.neighbor.pairs_per_atom", "count", Lower, ON_MD),
    layer("md.neighbor.rebuilds_per_100_steps", "count", Lower, ON_MD),
    layer(
        "md.entry.us_per_atom",
        "us",
        Lower,
        "setup_s on water_paper_f64 and copper_small_f32: every run_md call pays it once",
    ),
    layer("md.force.us_per_atom_step", "us", Lower, ON_MD),
    layer("md.integrate.us_per_atom_step", "us", Lower, ON_MD),
    layer("md.step.allocs_per_step", "count", Lower, ON_MD),
    layer("ckpt.write_us", "us", Lower, ON_PAR),
    layer("ckpt.read_us", "us", Lower, ON_PAR),
    layer("ckpt.bytes", "B", Lower, ON_PAR),
    layer("parallel.compute_frac", "ratio", Higher, ON_PAR),
    layer("parallel.comm_frac", "ratio", Lower, ON_PAR),
    layer("parallel.reduce_frac", "ratio", Lower, ON_PAR),
    layer("parallel.neigh_frac", "ratio", Lower, ON_PAR),
    layer("parallel.io_frac", "ratio", Lower, ON_PAR),
    layer("parallel.rank_imbalance", "ratio", Lower, ON_PAR),
    layer("parallel.ghosts_per_local", "ratio", Lower, ON_PAR),
    layer("parallel.ghost_atoms_sent_per_step", "count", Lower, ON_PAR),
    layer("parallel.reduce_ops_per_step", "count", Lower, ON_PAR),
    layer("parallel.rebuilds_per_100_steps", "count", Lower, ON_PAR),
    layer("parallel.speedup_vs_1rank", "ratio", Higher, ON_PAR),
    layer("parallel.comm.allreduce_us", "us", Lower, ON_PAR),
    layer("parallel.comm.sendrecv_us", "us", Lower, ON_PAR),
    layer("serve.connect_us", "us", Lower, ON_SERVE),
    layer("serve.http.parse_us", "us", Lower, ON_SERVE),
    layer("serve.json.parse_us", "us", Lower, ON_SERVE),
    layer("serve.json.render_us", "us", Lower, ON_SERVE),
    layer("serve.model_ms", "ms", Lower, ON_SERVE),
    layer("serve.overhead_ms", "ms", Lower, ON_SERVE),
    layer("serve.queue_wait_p50_ms", "ms", Lower, ON_SERVE),
    layer("serve.batch_size_mean", "count", Higher, ON_SERVE),
    layer("serve.coalesced_frac", "ratio", Higher, ON_SERVE),
    layer(
        "serve.rejected",
        "count",
        Lower,
        "failed on serve_eval_c2: must stay 0",
    ),
    layer("replica.tick_us", "us", Lower, ON_ENS),
    layer("replica.evals_per_tick", "count", Lower, ON_ENS),
    layer("replica.nl_rebuilds_per_100_ticks", "count", Lower, ON_ENS),
    layer("replica.batch_speedup_vs_serial", "ratio", Higher, ON_ENS),
    layer("train.flops_per_step", "FLOP", Lower, ON_TRAIN),
    layer("train.gflops", "GFLOP/s", Higher, ON_TRAIN),
    layer("train.allocs_per_step", "count", Lower, ON_TRAIN),
    layer("train.alloc_mb_per_step", "MB", Lower, ON_TRAIN),
    layer("train.rmse_eval_ms", "ms", Lower, ON_TRAIN),
    layer("obs.enabled_overhead_frac", "ratio", Lower, NOTHING),
    layer("trace.overhead_frac", "ratio", Lower, NOTHING),
];

pub fn layer_def(name: &str) -> Option<&'static LayerDef> {
    LAYERS.iter().find(|d| d.name == name)
}

/// Per-layer values of one traced pass, keyed by registry name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers(pub Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let def = layer_def(name).unwrap_or_else(|| panic!("unregistered layer metric {name}"));
        assert!(self.get(name).is_none(), "layer metric {name} set twice");
        self.0.push((def.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one `bench` process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub seed: u64,
    pub traced: bool,
    /// Timed blocks or requests whose output was checked…
    pub attempted: u64,
    /// …and how many of those checks failed.
    pub failed: u64,
    /// Untraced pass: every applicable [`E2E`] metric.
    pub e2e: Vec<(&'static str, Summary)>,
    /// Traced pass: the layer metrics on this workload's path.
    pub layers: Layers,
}

impl RunResult {
    /// The object `BENCHMARK.json` asks for on the last stdout line:
    /// every universal end-to-end metric (untraced) or every per-layer
    /// metric (traced, 0 where the layer is not on this workload's path).
    pub fn contract_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            json::obj(vec![("value", json::num(value)), ("unit", json::str(unit))])
        };
        let metrics: Vec<(&str, Json)> = if self.traced {
            LAYERS
                .iter()
                .map(|d| {
                    (
                        d.name,
                        metric(self.layers.get(d.name).unwrap_or(0.0), d.unit),
                    )
                })
                .collect()
        } else {
            E2E.iter()
                .filter(|d| d.only.is_none())
                .map(|d| {
                    let s = self.e2e.iter().find(|(n, _)| *n == d.name);
                    let s = s.unwrap_or_else(|| panic!("{} was not reported", d.name));
                    (d.name, metric(s.1.median, d.unit))
                })
                .collect()
        };
        json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", json::num(self.attempted as f64)),
            ("failed", json::num(self.failed as f64)),
            ("metrics", json::obj(metrics)),
        ])
        .to_string()
    }

    /// This pass as the ledger stores it under `workloads.<name>`.
    pub fn to_json(&self) -> Json {
        let e2e = self
            .e2e
            .iter()
            .map(|(name, s)| {
                let d = e2e_def(name).expect("e2e names come from the registry");
                let mut f = vec![
                    ("value", json::num(s.median)),
                    ("unit", json::str(d.unit)),
                    ("better", json::str(d.better.as_str())),
                    ("bound", json::num(d.bound)),
                    ("n", json::num(s.n as f64)),
                    ("min", json::num(s.min)),
                    ("q1", json::num(s.q1)),
                    ("q3", json::num(s.q3)),
                    ("max", json::num(s.max)),
                ];
                if let Some((p, v)) = s.tail {
                    f.push(("tail_pct", json::num(p as f64)));
                    f.push(("tail", json::num(v)));
                }
                (*name, json::obj(f))
            })
            .collect();
        let layers = self
            .layers
            .0
            .iter()
            .map(|&(name, v)| {
                let d = layer_def(name).expect("layer names come from the registry");
                let f = vec![
                    ("value", json::num(v)),
                    ("unit", json::str(d.unit)),
                    ("better", json::str(d.better.as_str())),
                    ("moves", json::str(d.moves)),
                ];
                (name, json::obj(f))
            })
            .collect();
        json::obj(vec![
            ("seed", json::num(self.seed as f64)),
            ("attempted", json::num(self.attempted as f64)),
            ("failed", json::num(self.failed as f64)),
            ("end_to_end", json::obj(e2e)),
            ("per_layer", json::obj(layers)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sample() -> RunResult {
        RunResult {
            seed: 7,
            traced: false,
            attempted: 12,
            failed: 0,
            e2e: E2E
                .iter()
                .filter(|d| d.only.is_none())
                .map(|d| (d.name, Summary::of(&[1.5, 0.1 + 0.2, 2.5e-7])))
                .collect(),
            layers: Layers::default(),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(E2E.iter().map(|d| d.name))
            .chain(LAYERS.iter().map(|d| d.name));
        for n in names {
            assert!(crate::ledger::name_ok(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(E2E.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    /// `BENCHMARK.json` is the contract the driver reads; the registry is
    /// what the harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let doc = Json::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();
        let s = |j: &Json, k: &str| j.get(k).unwrap().as_str().unwrap().to_string();

        let w: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|j| (s(j, "name"), s(j, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, y)| (n.to_string(), y.to_string()))
            .collect();
        assert_eq!(w, want);

        let e: Vec<_> = list("end_to_end")
            .iter()
            .map(|j| {
                (
                    s(j, "name"),
                    s(j, "unit"),
                    s(j, "better"),
                    j.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = E2E
            .iter()
            .filter(|d| d.only.is_none())
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(e, want);

        let l: Vec<_> = list("per_layer")
            .iter()
            .map(|j| (s(j, "name"), s(j, "unit"), s(j, "better")))
            .collect();
        let want: Vec<_> = LAYERS
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(l, want);
    }

    #[test]
    fn contract_line_round_trips_through_the_serve_codec() {
        let r = sample();
        let back = Json::parse(&r.contract_line()).unwrap();
        assert_eq!(back.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("attempted").unwrap().as_usize(), Some(12));
        let m = back.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), 3);
        // shortest round-trip printing: the parsed value is the same bits
        assert_eq!(m["setup_s"].get("value").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(m["setup_s"].get("unit").unwrap().as_str(), Some("s"));

        let mut t = sample();
        t.traced = true;
        t.layers.set("trace.overhead_frac", -0.031);
        let back = Json::parse(&t.contract_line()).unwrap();
        let m = back.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), LAYERS.len());
        assert_eq!(
            m["trace.overhead_frac"].get("value").unwrap().as_f64(),
            Some(-0.031)
        );
        assert_eq!(
            m["parallel.comm_frac"].get("value").unwrap().as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn ledger_entry_round_trips() {
        let mut r = sample();
        r.layers.set("linalg.gflops", 4.25);
        let back = Json::parse(&r.to_json().to_string()).unwrap();
        let m = back
            .get("end_to_end")
            .unwrap()
            .get("us_per_atom_step")
            .unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(m.get("min").unwrap().as_f64(), Some(2.5e-7));
        assert_eq!(m.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(m.get("bound").unwrap().as_f64(), Some(0.25));
        let l = back.get("per_layer").unwrap().get("linalg.gflops").unwrap();
        assert_eq!(l.get("value").unwrap().as_f64(), Some(4.25));
        assert!(l
            .get("moves")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("water_paper_f64"));
    }
}

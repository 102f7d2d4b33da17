//! Wire compatibility with what the derives read and wrote before the
//! in-repo codec replaced them: model files and `TrainCheckpoint`
//! `MODL` sections written at the parent commit must still load, the
//! documented decks must parse to the same configuration, and the strict
//! deck reader must name the key it rejects.

use deepmd_repro::app::{self, PotentialSpec, SystemSpec};
use deepmd_repro::core::{DpConfig, DpModel, LayerKind, Net};
use deepmd_repro::deck::{self, Deck, ModelSpec};
use deepmd_repro::ensemble_app;
use deepmd_repro::train::checkpoint::TrainCheckpoint;
use deepmd_repro::train::AdamState;
use dp_ckpt::CkptReader;
use dp_md::CounterRng;

/// A 1-type toy model exactly as the parent's derives on `DpModelData`
/// shaped it (declaration key order, `1.0`-style floats), with one layer
/// of each `LayerKind`.
const TOY_MODEL: &str = r#"{"config":{"rcut":4.0,"rcut_smth":0.5,"sel":[8],"embedding":[1,2],"fitting":[2,2],"axis_neurons":1},"embeddings":[{"layers":[{"kind":"Plain","rows":1,"cols":1,"w":[0.5],"b":[0.1]},{"kind":"Growth","rows":1,"cols":2,"w":[0.25,-0.75],"b":[0.0,0.001]}]}],"fittings":[{"layers":[{"kind":"Plain","rows":2,"cols":2,"w":[0.1,0.2,0.3,0.4],"b":[0.0,0.0]},{"kind":"Residual","rows":2,"cols":2,"w":[1.0,-1.0,0.5,0.25],"b":[0.01,-0.02]},{"kind":"Linear","rows":2,"cols":1,"w":[0.7,-0.3],"b":[-3.25]}]}],"e0":[-1.5]}"#;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn parent_shaped_model_file_loads() {
    let dir = std::env::temp_dir().join(format!("dp-wire-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy.json");
    std::fs::write(&path, TOY_MODEL).unwrap();
    let model = deck::load_model(path.to_str().unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(model.config.sel, vec![8]);
    assert_eq!(model.config.rcut_smth, 0.5);
    assert_eq!(model.e0, vec![-1.5]);
    let kinds = |n: &Net<f64>| n.layers.iter().map(|l| l.kind).collect::<Vec<_>>();
    assert_eq!(
        kinds(&model.embeddings[0]),
        [LayerKind::Plain, LayerKind::Growth]
    );
    assert_eq!(
        kinds(&model.fittings[0]),
        [LayerKind::Plain, LayerKind::Residual, LayerKind::Linear]
    );
    assert_eq!(model.num_params(), 2 + 4 + 6 + 6 + 3);
    assert_eq!(model.fittings[0].layers[2].b, vec![-3.25]);

    // what we write is what we read, bit for bit
    let again = DpModel::from_json(&model.to_json()).unwrap();
    assert_eq!(bits(&again.flat_params()), bits(&model.flat_params()));
}

#[test]
fn malformed_model_files_are_errors_not_panics() {
    for (bad, needle) in [
        (
            TOY_MODEL.replace("\"Growth\"", "\"Grow\""),
            "unknown layer kind",
        ),
        (TOY_MODEL.replace("\"w\":[0.5]", "\"w\":[0.5,0.5]"), "1x1"),
        (TOY_MODEL.replace("\"e0\":[-1.5]", "\"e0\":[null]"), "e0"),
        (TOY_MODEL.replace("\"rcut\":4.0,", ""), "rcut"),
        (TOY_MODEL.replace("\"sel\":[8]", "\"sel\":[8.5]"), "sel"),
        // well-typed but inconsistent: these used to reach an `assert!`
        (
            TOY_MODEL.replace("\"rcut_smth\":0.5", "\"rcut_smth\":4.5"),
            "rcut_smth < rcut",
        ),
        (
            TOY_MODEL.replace("\"embedding\":[1,2]", "\"embedding\":[1,3]"),
            "widths must double",
        ),
        (
            TOY_MODEL.replace("\"sel\":[8]", "\"sel\":[8,8]"),
            "one entry per type",
        ),
        (
            TOY_MODEL.replace(
                "\"rows\":2,\"cols\":1,\"w\":[0.7,-0.3]",
                "\"rows\":1,\"cols\":1,\"w\":[0.7]",
            ),
            "fittings: consecutive layers disagree on width",
        ),
        (
            TOY_MODEL.replace("\"Growth\"", "\"Residual\""),
            "embeddings: residual layer must be square",
        ),
        (
            TOY_MODEL.replace(
                "\"rows\":1,\"cols\":2,\"w\":[0.25,-0.75],\"b\":[0.0,0.001]",
                "\"rows\":1,\"cols\":3,\"w\":[0.25,-0.75,0.5],\"b\":[0.0,0.001,0.0]",
            ),
            "growth layer must double width",
        ),
        (
            TOY_MODEL.replace("\"axis_neurons\":1", "\"axis_neurons\":2"),
            "fittings: a net must map width 4 to 1",
        ),
    ] {
        let err = DpModel::from_json(&bad).expect_err("malformed model accepted");
        assert!(err.contains(needle), "{err}");
    }
}

#[test]
fn paper_size_model_and_train_checkpoint_round_trip_bit_exactly() {
    let mut rng = CounterRng::new(61);
    let model = DpModel::<f64>::new_random(DpConfig::water_paper(), &mut rng);
    let n = model.num_params();
    let adam = AdamState {
        step: 1234,
        m: (0..n).map(|i| (i as f64 * 0.37).sin() * 1e-3).collect(),
        v: (0..n)
            .map(|i| (i as f64 * 0.11).cos().abs() * 1e-9)
            .collect(),
    };
    let ck = TrainCheckpoint::capture(&model, adam, 1234);
    let bytes = ck.to_writer().to_bytes();
    let back = TrainCheckpoint::from_reader(&CkptReader::from_bytes(&bytes).unwrap()).unwrap();

    assert_eq!((back.steps, back.adam.step), (1234, 1234));
    assert_eq!(back.model.config, model.config);
    assert_eq!(bits(&back.adam.m), bits(&ck.adam.m));
    assert_eq!(bits(&back.adam.v), bits(&ck.adam.v));
    assert_eq!(bits(&back.model.flat_params()), bits(&model.flat_params()));
    assert_eq!(bits(&back.model.e0), bits(&model.e0));
}

/// README "Checkpoint and restart": the serial LJ deck.
const SERIAL_LJ: &str = r#"{
  "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
  "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
  "temperature": 40.0,
  "thermostat": null,
  "dt_fs": 2.0,
  "steps": 100000,
  "checkpoint_every": 1000,
  "checkpoint_path": "run.ckpt",
  "checkpoint_keep": 3,
  "trajectory": "run.xyz"
}"#;

/// tier1.sh's soak deck: a rank grid with sharded checkpoints and
/// `chaos_soak`.
const GRID_SOAK: &str = r#"{
  "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
  "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
  "temperature": 40.0,
  "dt_fs": 2.0,
  "steps": 60,
  "thermo_every": 10,
  "seed": 7,
  "grid": [2, 1, 1],
  "checkpoint_every": 10,
  "checkpoint_path": "soak.ckpt",
  "checkpoint_shards": true,
  "fault_comm_deadline_ms": 2000,
  "chaos_soak": {"seed": 11, "kills": 1, "drops": 1, "delays": 1, "torn_shards": 1, "max_delay_ms": 20}
}"#;

/// README "Ensembles": the parallel-tempering deck, plus an
/// `active_learning` section.
const ENSEMBLE_AL: &str = r#"{
  "replicas": 8,
  "system": {"kind": "fcc", "a0": 5.26, "reps": [2, 2, 2], "mass": 63.546},
  "model": {"kind": "synthetic", "seed": 7, "rcut": 4.0},
  "t_min": 100.0, "t_max": 400.0,
  "steps": 20, "dt_fs": 2.0,
  "exchange_every": 10,
  "swap_log": "swaps.jsonl",
  "seed": 1,
  "active_learning": {
    "reference": {"kind": "sutton_chen_cu", "short": true},
    "rounds": 2, "n_models": 3, "lo": 0.01
  }
}"#;

#[test]
fn documented_decks_parse_to_the_same_configuration() {
    let cfg = app::parse_config(SERIAL_LJ).unwrap();
    assert!(matches!(
        cfg.run.system,
        SystemSpec::Fcc {
            reps: [3, 3, 3],
            ..
        }
    ));
    assert!(matches!(cfg.potential, PotentialSpec::LennardJones { rcut, .. } if rcut == 5.0));
    assert_eq!(
        (cfg.run.steps, cfg.run.dt_fs, cfg.temperature),
        (100_000, 2.0, 40.0)
    );
    assert_eq!((cfg.run.thermo_every, cfg.run.seed), (20, 0), "defaults");
    assert_eq!(cfg.run.thermostat, None, "null is absent");
    assert_eq!(
        (cfg.run.checkpoint_every, cfg.run.checkpoint_keep),
        (1000, 3)
    );
    assert_eq!(cfg.run.checkpoint_path.as_deref(), Some("run.ckpt"));
    assert_eq!(cfg.trajectory.as_deref(), Some("run.xyz"));
    assert_eq!(
        (cfg.grid, cfg.fault_max_retries, cfg.audit_every),
        (None, 2, 0)
    );

    let cfg = app::parse_config(GRID_SOAK).unwrap();
    assert_eq!(cfg.grid, Some([2, 1, 1]));
    assert!(cfg.checkpoint_shards);
    assert_eq!(cfg.fault_comm_deadline_ms, Some(2000));
    let soak = cfg.chaos_soak.expect("chaos_soak section");
    assert_eq!(
        (soak.seed, soak.kills, soak.drops, soak.delays),
        (11, 1, 1, 1)
    );
    assert_eq!(
        (soak.torn_shards, soak.max_delay_ms, soak.audit_every),
        (1, 20, 10)
    );

    let cfg = ensemble_app::parse_config(ENSEMBLE_AL).unwrap();
    assert_eq!(
        (cfg.replicas, cfg.run.steps, cfg.exchange_every),
        (8, 20, 10)
    );
    assert!(matches!(cfg.model, ModelSpec::Synthetic { seed: 7, rcut } if rcut == 4.0));
    assert_eq!(
        (cfg.gamma, cfg.tau, cfg.run.thermo_every),
        (2.0, 0.1, 20),
        "defaults"
    );
    assert_eq!(cfg.swap_log.as_deref(), Some("swaps.jsonl"));
    let al = cfg.active_learning.expect("active_learning section");
    assert!(matches!(
        al.reference,
        PotentialSpec::SuttonChenCu { short: true }
    ));
    assert_eq!((al.rounds, al.opts.n_models, al.opts.lo), (2, 3, 0.01));
    assert_eq!(al.opts.seed, 1, "the deck's seed");
    assert_eq!(
        (al.opts.train_steps, al.opts.sample_every, al.opts.hi),
        (60, 10, 5.0),
        "defaults"
    );

    // one front-end: the `"replicas"` key picks the schema
    assert!(matches!(deck::parse(SERIAL_LJ).unwrap(), Deck::Md(_)));
    assert!(matches!(
        deck::parse(ENSEMBLE_AL).unwrap(),
        Deck::Ensemble(_)
    ));
    assert!(app::parse_config(ENSEMBLE_AL).is_err());
    assert!(ensemble_app::parse_config(SERIAL_LJ).is_err());
}

#[test]
fn rejected_decks_name_the_offending_key() {
    let with = |from: &str, to: &str| {
        let deck = GRID_SOAK.replace(from, to);
        assert_ne!(deck, GRID_SOAK, "fixture no longer contains {from}");
        let err = app::parse_config(&deck).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        err.to_string()
    };
    for (from, to, needle) in [
        // unknown keys, top level and nested (the derives ignored the latter)
        (
            "\"mass\": 39.948}",
            "\"mass\": 39.948, \"repz\": 1}",
            "unknown key `system.repz`",
        ),
        (
            "\"sigma\": 3.405,",
            "\"sigma\": 3.405, \"sigmoid\": 1,",
            "`potential.sigmoid`",
        ),
        (
            "\"torn_shards\"",
            "\"torn_shard\"",
            "`chaos_soak.torn_shard`",
        ),
        (
            "\"chaos_soak\"",
            "\"fault_chaos\"",
            "unknown key `fault_chaos.torn_shards`",
        ),
        (
            "\"checkpoint_shards\"",
            "\"checkpont_shards\"",
            "`checkpont_shards`",
        ),
        // deck keys deleted in this PR are unknown now
        (
            "\"seed\": 7,",
            "\"seed\": 7, \"fault_drop_msg\": [0, 1, 3],",
            "`fault_drop_msg`",
        ),
        // duplicates must not silently keep the last value
        (
            "\"steps\": 60,",
            "\"steps\": 60, \"steps\": 99999,",
            "duplicate key \"steps\"",
        ),
        // integers are exact or refused
        (
            "\"seed\": 7,",
            "\"seed\": 9007199254740993,",
            "`seed` must be an integer",
        ),
        (
            "\"seed\": 11,",
            "\"seed\": 1.5,",
            "`chaos_soak.seed` must be an integer",
        ),
        (
            "\"steps\": 60,",
            "\"steps\": -1,",
            "`steps` must be an integer",
        ),
        // type and presence
        (
            "\"dt_fs\": 2.0,",
            "\"dt_fs\": \"2.0\",",
            "`dt_fs` must be a number",
        ),
        ("\"temperature\": 40.0,", "", "missing key `temperature`"),
        (
            "\"grid\": [2, 1, 1],",
            "\"grid\": [2, 1],",
            "`grid` must be an array of 3 integers",
        ),
        (
            "\"kind\": \"fcc\"",
            "\"kind\": \"bcc\"",
            "unknown `system.kind` \"bcc\"",
        ),
    ] {
        let msg = with(from, to);
        assert!(msg.contains(needle), "{from} -> {to}: {msg}");
    }
}

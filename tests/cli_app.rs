//! Integration: the `dpmd` application layer runs complete simulations
//! from JSON input decks (classical and Deep Potential drivers).

use deepmd_repro::app::{parse_config, run};
use deepmd_repro::core::{DpConfig, DpModel};
use dp_md::CounterRng;

#[test]
fn lj_deck_runs_and_conserves_energy() {
    let deck = r#"{
        "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
        "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
        "temperature": 40.0,
        "dt_fs": 2.0,
        "steps": 100,
        "thermo_every": 20,
        "seed": 3
    }"#;
    let cfg = parse_config(deck).unwrap();
    let summary = run(&cfg, |_| {}).unwrap();
    assert_eq!(summary.potential_name, "lennard-jones");
    let e0 = summary.thermo.first().unwrap().total_energy();
    let e1 = summary.thermo.last().unwrap().total_energy();
    let drift = (e1 - e0).abs() / summary.final_system.len() as f64;
    assert!(drift < 5e-5, "NVE drift {drift}");
}

#[test]
fn water_deck_with_thermostat_holds_temperature() {
    let deck = r#"{
        "system": {"kind": "water", "mols_per_axis": [4,4,4], "spacing": 3.104},
        "potential": {"kind": "water_reference", "rcut": 4.5},
        "temperature": 330.0,
        "thermostat": "berendsen",
        "dt_fs": 0.5,
        "steps": 120,
        "thermo_every": 40,
        "seed": 4
    }"#;
    let cfg = parse_config(deck).unwrap();
    let summary = run(&cfg, |_| {}).unwrap();
    let t = summary.thermo.last().unwrap().temperature;
    assert!((230.0..430.0).contains(&t), "T = {t}");
}

#[test]
fn dp_model_deck_roundtrips_through_disk() {
    // save a random model to disk, then drive MD with it via the deck
    let mut rng = CounterRng::new(5);
    let model = DpModel::<f64>::new_random(DpConfig::small(1, 4.5, 16), &mut rng);
    let dir = std::env::temp_dir().join("dpmd-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, model.to_json()).unwrap();
    let traj_path = dir.join("run.xyz");

    let deck = format!(
        r#"{{
        "system": {{"kind": "fcc", "a0": 3.615, "reps": [3,3,3], "mass": 63.546}},
        "potential": {{"kind": "deep_potential", "model": {model:?}, "mixed_precision": true}},
        "temperature": 100.0,
        "dt_fs": 1.0,
        "steps": 30,
        "thermo_every": 10,
        "trajectory": {traj:?},
        "seed": 6
    }}"#,
        model = model_path.to_str().unwrap(),
        traj = traj_path.to_str().unwrap()
    );
    let cfg = parse_config(&deck).unwrap();
    let summary = run(&cfg, |_| {}).unwrap();
    assert!(summary.potential_name.contains("mixed"));
    assert!(summary.thermo.last().unwrap().total_energy().is_finite());
    // trajectory written and parseable
    let text = std::fs::read_to_string(&traj_path).unwrap();
    assert!(text.starts_with("108\n"), "bad trajectory header");
}

#[test]
fn oversized_cutoff_is_a_clean_error() {
    let deck = r#"{
        "system": {"kind": "fcc", "a0": 3.615, "reps": [2,2,2], "mass": 63.546},
        "potential": {"kind": "sutton_chen_cu", "short": false},
        "temperature": 100.0,
        "dt_fs": 1.0,
        "steps": 10
    }"#;
    let cfg = parse_config(deck).unwrap();
    let err = match run(&cfg, |_| {}) {
        Err(e) => e,
        Ok(_) => panic!("expected an error"),
    };
    assert_eq!(err.exit_code(), 2, "cutoff errors are deck errors: {err}");
    assert!(
        err.to_string().contains("minimum-image"),
        "unexpected error: {err}"
    );
}

#[test]
fn bad_deck_is_a_clean_error() {
    assert!(parse_config("{\"nope\": 1}").is_err());
    assert!(parse_config("not json").is_err());
    // A typo'd key must be rejected even when the rest of the deck is valid.
    let err = parse_config(
        r#"{
        "system": {"kind": "fcc", "a0": 5.26, "reps": [2,2,2], "mass": 39.948},
        "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 6.0},
        "temperature": 30.0,
        "dt_fs": 2.0,
        "steps": 10,
        "checkpont_every": 5
    }"#,
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 2);
    assert!(
        err.to_string().contains("checkpont_every"),
        "unexpected error: {err}"
    );
}

/// `"thermo_every": 0` used to reach `step % 0` in the step loops and a
/// non-positive `"dt_fs"` an `assert!` in the integrator; both are deck
/// mistakes and must exit 2 without a panic, serial and on a rank grid.
#[test]
fn zero_stride_and_bad_timestep_are_deck_errors() {
    let deck = |dt_fs: &str, thermo_every: usize, grid: &str| {
        format!(
            r#"{{
        "system": {{"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948}},
        "potential": {{"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0}},
        "temperature": 40.0,
        "dt_fs": {dt_fs},
        "steps": 4,
        "thermo_every": {thermo_every}{grid}
    }}"#
        )
    };
    for (dt_fs, thermo_every, grid, needle) in [
        ("2.0", 0, "", "thermo_every"),
        ("2.0", 0, ",\n\"grid\": [2, 1, 1]", "thermo_every"),
        ("0.0", 10, "", "dt_fs"),
        ("-1.0", 10, "", "dt_fs"),
    ] {
        let cfg = parse_config(&deck(dt_fs, thermo_every, grid)).unwrap();
        let err = match run(&cfg, |_| {}) {
            Err(e) => e,
            Ok(_) => panic!("expected a deck error for dt_fs {dt_fs} thermo_every {thermo_every}"),
        };
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains(needle), "unexpected error: {err}");
    }
}

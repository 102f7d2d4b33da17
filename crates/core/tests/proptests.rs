//! Property tests on the Deep Potential pipeline invariants: seeded case
//! loops on `dp_md::CounterRng` (no generator crate, no shrinking — a
//! failure names the case, which replays alone).

use deepmd_core::codec::{decode_binary, decode_paper, encode_binary, encode_paper, Codec};
use deepmd_core::config::DpConfig;
use deepmd_core::eval::evaluate;
use deepmd_core::format::format_optimized;
use deepmd_core::model::DpModel;
use dp_md::rng::for_cases;
use dp_md::{Cell, CounterRng, NeighborList, System};

fn below(rng: &mut CounterRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

#[test]
fn paper_codec_roundtrip() {
    let draw = |rng: &mut CounterRng| (below(rng, 10), rng.range(0.0, 91.9), below(rng, 100_000));
    for_cases(0xC0D1, 256, draw, |&(ty, r, j)| {
        let (t2, r2, j2) = decode_paper(encode_paper(ty, r, j));
        assert_eq!(t2, ty);
        assert_eq!(j2, j);
        assert!((r2 - r).abs() < 1e-7);
    });
}

#[test]
fn binary_codec_roundtrip() {
    let draw = |rng: &mut CounterRng| (below(rng, 64), rng.range(0.0, 127.9), below(rng, 1 << 31));
    for_cases(0xC0D2, 256, draw, |&(ty, r, j)| {
        let (t2, r2, j2) = decode_binary(encode_binary(ty, r, j));
        assert_eq!(t2, ty);
        assert_eq!(j2, j);
        assert!((r2 - r).abs() < 2e-6);
    });
}

#[test]
fn codec_order_matches_struct_order() {
    let draw = |rng: &mut CounterRng| -> Vec<(usize, f64, usize)> {
        (0..2 + below(rng, 38))
            .map(|_| (below(rng, 4), rng.range(0.1, 60.0), below(rng, 1000)))
            .collect()
    };
    for_cases(0xC0D3, 256, draw, |entries| {
        for codec in [Codec::PaperDecimal, Codec::Binary] {
            let mut keys: Vec<u64> = entries
                .iter()
                .map(|&(t, r, j)| codec.encode(t, r, j))
                .collect();
            keys.sort_unstable();
            let mut sorted = entries.clone();
            sorted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
            // compare (type, index) sequences; distances may quantize-tie
            let from_keys: Vec<(usize, usize)> = keys
                .iter()
                .map(|&k| {
                    let (t, _, j) = codec.decode(k);
                    (t, j)
                })
                .collect();
            let from_structs: Vec<(usize, usize)> =
                sorted.iter().map(|&(t, _, j)| (t, j)).collect();
            assert_eq!(from_keys, from_structs);
        }
    });
}

fn random_cluster(seed: u64, n_side: usize) -> System {
    let mut rng = CounterRng::new(seed);
    let mut positions = Vec::new();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..2 {
                positions.push([
                    30.0 + i as f64 * 2.6,
                    30.0 + j as f64 * 2.6,
                    30.0 + k as f64 * 2.6,
                ]);
            }
        }
    }
    let n = positions.len();
    let mut sys = System::new(
        Cell::open(80.0, 80.0, 80.0),
        positions,
        vec![0; n],
        vec![63.5],
    );
    sys.perturb(0.15, &mut rng);
    sys
}

fn dp_energy(model: &DpModel<f64>, sys: &System) -> f64 {
    let nl = NeighborList::build(sys, model.config.rcut);
    let fmt = format_optimized(sys, &nl, &model.config, Codec::Binary);
    evaluate(model, &fmt, &sys.types, sys.len(), None).energy
}

#[test]
fn random_rotation_preserves_energy() {
    let draw = |rng: &mut CounterRng| (rng.below(1000), rng.range(0.0, std::f64::consts::TAU));
    for_cases(0xC0D4, 8, draw, |&(seed, angle)| {
        let cfg = DpConfig::small(1, 4.5, 20);
        let mut rng = CounterRng::new(seed);
        let model = DpModel::<f64>::new_random(cfg, &mut rng);
        let sys = random_cluster(seed.wrapping_mul(31), 3);
        let e0 = dp_energy(&model, &sys);

        // rotate about z through the centroid
        let mut c = [0.0; 3];
        for p in &sys.positions {
            for k in 0..3 {
                c[k] += p[k] / sys.len() as f64;
            }
        }
        let (s, co) = (angle.sin(), angle.cos());
        let mut rot = sys.clone();
        for p in &mut rot.positions {
            let x = p[0] - c[0];
            let y = p[1] - c[1];
            p[0] = c[0] + co * x - s * y;
            p[1] = c[1] + s * x + co * y;
        }
        let e1 = dp_energy(&model, &rot);
        assert!((e0 - e1).abs() < 1e-8, "rotation changed E: {e0} vs {e1}");
    });
}

#[test]
fn forces_antisymmetric_under_net_translation() {
    for_cases(
        0xC0D5,
        8,
        |rng| rng.below(1000),
        |&seed| {
            // total force vanishes for any configuration (Newton's third law
            // through the per-slot scatter)
            let cfg = DpConfig::small(1, 4.5, 20);
            let mut rng = CounterRng::new(seed);
            let model = DpModel::<f64>::new_random(cfg, &mut rng);
            let sys = random_cluster(seed.wrapping_mul(17).wrapping_add(5), 3);
            let nl = NeighborList::build(&sys, model.config.rcut);
            let fmt = format_optimized(&sys, &nl, &model.config, Codec::Binary);
            let out = evaluate(&model, &fmt, &sys.types, sys.len(), None);
            let mut total = [0.0f64; 3];
            for f in &out.forces {
                for k in 0..3 {
                    total[k] += f[k];
                }
            }
            for k in 0..3 {
                assert!(total[k].abs() < 1e-9, "net force {total:?}");
            }
        },
    );
}

#[test]
fn mixed_precision_bounded_deviation() {
    for_cases(
        0xC0D6,
        8,
        |rng| rng.below(1000),
        |&seed| {
            let cfg = DpConfig::small(1, 4.5, 20);
            let mut rng = CounterRng::new(seed);
            let model = DpModel::<f64>::new_random(cfg, &mut rng);
            let model32 = model.cast::<f32>();
            let sys = random_cluster(seed.wrapping_mul(7).wrapping_add(1), 3);
            let nl = NeighborList::build(&sys, model.config.rcut);
            let fmt = format_optimized(&sys, &nl, &model.config, Codec::Binary);
            let d = evaluate(&model, &fmt, &sys.types, sys.len(), None);
            let m = evaluate(&model32, &fmt, &sys.types, sys.len(), None);
            let e_dev = (d.energy - m.energy).abs() / sys.len() as f64;
            assert!(e_dev < 1e-4);
            for (a, b) in d.forces.iter().zip(&m.forces) {
                for k in 0..3 {
                    assert!((a[k] - b[k]).abs() < 1e-3);
                }
            }
        },
    );
}

//! Property tests for the MD substrate: seeded case loops on
//! [`CounterRng`] (no generator crate, no shrinking — a failure names the
//! case, which replays alone).

use dp_md::neighbor::NeighborList;
use dp_md::potential::pair::{LennardJones, PairKind};
use dp_md::potential::{switch, Potential};
use dp_md::rng::for_cases;
use dp_md::{Cell, CounterRng, System};

const CASES: u64 = 24;

/// A point with every coordinate in `[lo, hi)`.
fn point(rng: &mut CounterRng, lo: f64, hi: f64) -> [f64; 3] {
    [rng.range(lo, hi), rng.range(lo, hi), rng.range(lo, hi)]
}

#[test]
fn wrap_is_idempotent_and_in_box() {
    for_cases(
        0x3D01,
        CASES,
        |rng| point(rng, -50.0, 50.0),
        |&p| {
            let c = Cell::cubic(13.7);
            let w = c.wrap(p);
            for d in 0..3 {
                assert!((0.0..13.7).contains(&w[d]));
            }
            let w2 = c.wrap(w);
            for d in 0..3 {
                assert!((w[d] - w2[d]).abs() < 1e-12);
            }
        },
    );
}

#[test]
fn min_image_distance_below_half_diagonal() {
    let draw = |rng: &mut CounterRng| (point(rng, 0.0, 12.0), point(rng, 0.0, 12.0));
    for_cases(0x3D02, CASES, draw, |&(a, b)| {
        let c = Cell::cubic(12.0);
        let d2 = c.distance2(a, b);
        // each component of the minimum image is at most L/2
        assert!(d2 <= 3.0 * 6.0 * 6.0 + 1e-9);
        // symmetric
        assert!((d2 - c.distance2(b, a)).abs() < 1e-9);
    });
}

#[test]
fn cell_list_equals_brute_force() {
    let draw = |rng: &mut CounterRng| {
        let positions: Vec<[f64; 3]> = (0..60).map(|_| point(rng, 0.0, 16.0)).collect();
        (positions, rng.range(2.0, 5.0))
    };
    for_cases(0x3D03, CASES, draw, |(positions, cut)| {
        let sys = System::new(
            Cell::cubic(16.0),
            positions.clone(),
            vec![0; 60],
            vec![63.5],
        );
        let fast = NeighborList::build(&sys, *cut);
        let slow = NeighborList::build_brute_force(&sys, *cut);
        for i in 0..fast.len() {
            let mut a = fast.neighbors_of(i).to_vec();
            let mut b = slow.neighbors_of(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    });
}

#[test]
fn switch_is_monotone_and_bounded() {
    for_cases(
        0x3D04,
        CASES,
        |rng| rng.range(0.0, 10.0),
        |&r| {
            let (s, _) = switch(r, 3.0, 6.0);
            assert!((0.0..=1.0).contains(&s));
            let (s2, _) = switch(r + 0.01, 3.0, 6.0);
            assert!(s2 <= s + 1e-12);
        },
    );
}

#[test]
fn pair_energy_symmetry() {
    for_cases(
        0x3D05,
        CASES,
        |rng| rng.range(1.5, 5.0),
        |&r| {
            // swapping the two atoms of a dimer changes nothing
            let lj = LennardJones::new(0.3, 2.5, 6.0);
            let mk = |flip: bool| {
                let a = [10.0, 10.0, 10.0];
                let b = [10.0 + r, 10.0, 10.0];
                let (p, q) = if flip { (b, a) } else { (a, b) };
                let sys = System::new(Cell::cubic(30.0), vec![p, q], vec![0, 0], vec![1.0]);
                let nl = NeighborList::build(&sys, 6.0);
                lj.compute(&sys, &nl).energy
            };
            assert!((mk(false) - mk(true)).abs() < 1e-12);
        },
    );
}

#[test]
fn lj_energy_decreases_with_eps() {
    let draw = |rng: &mut CounterRng| (rng.range(2.8, 5.0), rng.range(0.1, 0.5));
    for_cases(0x3D06, CASES, draw, |&(r, e1)| {
        // at fixed geometry beyond sigma, doubling epsilon doubles |E|
        let mk = |eps: f64| PairKind::LennardJones { eps, sigma: 2.5 }.energy_deriv(r).0;
        assert!((mk(2.0 * e1) - 2.0 * mk(e1)).abs() < 1e-10);
    });
}

#[test]
fn momentum_conserved_by_zeroing() {
    for_cases(
        0x3D07,
        CASES,
        |rng| rng.below(500),
        |&seed| {
            let mut rng = CounterRng::new(seed);
            let positions = (0..20).map(|i| [i as f64, 0.5, 0.5]).collect();
            let mut sys = System::new(Cell::cubic(25.0), positions, vec![0; 20], vec![39.9]);
            sys.init_velocities(100.0, &mut rng);
            let mut p = [0.0f64; 3];
            for v in &sys.velocities {
                for k in 0..3 {
                    p[k] += 39.9 * v[k];
                }
            }
            for k in 0..3 {
                assert!(p[k].abs() < 1e-9);
            }
        },
    );
}

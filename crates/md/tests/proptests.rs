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
            for x in w {
                assert!((0.0..13.7).contains(&x));
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

/// A random box for the cell list: per axis one bin (edge exactly 2·r_c,
/// the minimum-image limit), two, or three to four; open cells keep some
/// atoms as ghosts. Coordinates are shifted by whole edges, up to 10⁶ of
/// them, and some pairs are placed at r_c·(1 ± 1e-12).
///
/// Those magnitudes straddle the list's rounding band. Near the box its
/// half-width is ~1e-13·r_c², so a pair 1e-12 off the cutoff (2e-12 in
/// r²) is decided by the cheap minimum image alone and must still agree
/// with `Cell::distance2`. At 10⁶ edges (coordinates ~1e7 Å, ulp ~2e-9
/// Å) the band widens to ~1e-8·r_c², and the shifted pair, now ~1e-9 off
/// the cutoff, is decided by `Cell::distance2` inside it.
fn cell_list_case(rng: &mut CounterRng) -> (System, f64) {
    let cut = rng.range(2.0, 5.0);
    let lengths: [f64; 3] = std::array::from_fn(|_| match rng.below(3) {
        0 => 2.0 * cut,
        1 => cut * rng.range(2.05, 2.95),
        _ => cut * rng.range(3.05, 4.5),
    });
    let n = 80 + rng.below(60) as usize;
    let mut positions: Vec<[f64; 3]> = (0..n)
        .map(|_| std::array::from_fn(|d| rng.range(0.0, lengths[d])))
        .collect();
    for a in 0..8 {
        let stretch = if a % 2 == 0 { 1.0 - 1e-12 } else { 1.0 + 1e-12 };
        let u = [rng.gauss(), rng.gauss(), rng.gauss()];
        let norm = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt();
        let p = positions[a];
        positions.push(std::array::from_fn(|d| p[d] + cut * stretch * u[d] / norm));
    }
    let periodic = rng.below(3) != 0;
    let far = rng.below(2) == 0;
    let shift = |rng: &mut CounterRng| -> [f64; 3] {
        let k = |rng: &mut CounterRng| match far {
            true => rng.below(2_000_001) as f64 - 1e6,
            false => rng.below(5) as f64 - 2.0,
        };
        std::array::from_fn(|d| lengths[d] * k(rng))
    };
    // a periodic atom sits in an image of its own, an open cell moves whole
    let common = shift(rng);
    for p in &mut positions {
        let s = if periodic { shift(rng) } else { common };
        *p = std::array::from_fn(|d| p[d] + s[d]);
    }
    let [lx, ly, lz] = lengths;
    let cell = match periodic {
        true => Cell::orthorhombic(lx, ly, lz),
        false => Cell::open(lx, ly, lz),
    };
    let len = positions.len();
    let mut sys = System::new(cell, positions, vec![0; len], vec![63.5]);
    if !periodic {
        sys.n_local = 1 + rng.below(len as u64 - 1) as usize;
    }
    (sys, cut)
}

#[test]
fn cell_list_equals_brute_force() {
    // Exact sequences, not sets: list order is part of the contract (the
    // formatter breaks distance ties by list position).
    for_cases(0x3D03, 96, cell_list_case, |(sys, cut)| {
        let fast = NeighborList::build(sys, *cut);
        let slow = NeighborList::build_brute_force(sys, *cut);
        assert_eq!(fast.len(), sys.n_local);
        assert_eq!(slow.len(), sys.n_local);
        for i in 0..fast.len() {
            assert_eq!(fast.neighbors_of(i), slow.neighbors_of(i), "atom {i}");
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
            for pk in p {
                assert!(pk.abs() < 1e-9);
            }
        },
    );
}

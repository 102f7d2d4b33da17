//! §5.2.2 regression: the steady-state MD force evaluation must perform
//! ZERO heap allocations, and a steady-state training step a bounded
//! handful. A counting global allocator wraps the system allocator; after
//! a few warm-up calls (buffer rotation lets capacities migrate between
//! workspace roles until they reach a fixed point) the allocation counter
//! must not move across repeated `compute_into` calls on the same
//! configuration.
//!
//! The same allocator tracks live and peak bytes per thread, which gates
//! the force call's memory without timing anything: its working set is
//! one chunk of atoms plus O(N) outputs, so it must not grow with N.
//!
//! Every data-parallel loop (`dp_obs::par`) runs on the calling thread, so
//! the thread-local formatter scratch warmed by the first calls serves
//! the measured ones. The counter is per thread because the other tests
//! of this binary, running concurrently on their own threads, must not
//! leak into its count.

use deepmd_repro::core::{DeepPotential, DpConfig, DpModel, PrecisionMode};
use deepmd_repro::md::integrate::{run_md_resumable, Berendsen, MdOptions, MdProgress};
use deepmd_repro::md::potential::pair::PairTable;
use deepmd_repro::md::{
    cell, lattice, units, NeighborList, NlScratch, Potential, PotentialOutput, System,
};
use deepmd_repro::train::dataset::perturbed_frames;
use deepmd_repro::train::{LossWeights, Trainer};
use dp_md::CounterRng;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor outlive the thread
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    // bytes this thread allocated minus bytes it freed, and their maximum
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

fn add_live(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        add_live(layout.size() as i64);
        SystemAlloc.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        add_live(layout.size() as i64);
        SystemAlloc.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        add_live(new_size as i64 - layout.size() as i64);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Peak bytes the calling thread held while `f` ran, above what it held
/// when `f` started.
fn transient_peak(f: impl FnOnce()) -> u64 {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|p| p.set(before));
    f();
    (PEAK_BYTES.with(Cell::get) - before) as u64
}

/// The working set of one force call: the transient peak of a call on a
/// fresh `DeepPotential`, so the call must build the arena it evaluates
/// in, with everything else warm — the system, its neighbor list, the
/// output buffer and the thread's formatter scratch, all sized by a first
/// call on another potential of the same model.
fn force_call_bytes(cfg: DpConfig, mode: PrecisionMode, sys: &System) -> u64 {
    let model = DpModel::<f64>::new_random(cfg, &mut CounterRng::new(3));
    let nl = NeighborList::build(sys, model.config.rcut);
    let mut out = PotentialOutput::zeros(sys.len());
    DeepPotential::new(model.clone(), mode).compute_into(sys, &nl, &mut out);
    let pot = DeepPotential::new(model, mode);
    let bytes = transient_peak(|| pot.compute_into(sys, &nl, &mut out));
    assert!(out.energy.is_finite());
    bytes
}

#[test]
fn force_call_memory_does_not_grow_with_atoms() {
    // perfbench's copper_small_f32 model: sel 52, 8×16 embedding, mixed
    let cfg = DpConfig {
        rcut: 4.8,
        rcut_smth: 1.2,
        sel: vec![52],
        embedding: vec![8, 16],
        fitting: vec![32, 32, 32],
        axis_neurons: 4,
    };
    let small = lattice::copper([10, 10, 10]);
    let large = lattice::copper([20, 20, 20]);
    assert_eq!((small.len(), large.len()), (4_000, 32_000));
    let at_small = force_call_bytes(cfg.clone(), PrecisionMode::Mixed, &small);
    let at_large = force_call_bytes(cfg, PrecisionMode::Mixed, &large);
    eprintln!(
        "force call working set: {at_small} B at 4 000 atoms ({} B/atom), \
         {at_large} B at 32 000 atoms ({} B/atom)",
        at_small / 4_000,
        at_large / 32_000
    );
    assert!(
        at_large as f64 <= 1.25 * at_small as f64,
        "the force call's working set grew from {at_small} B at 4 000 atoms \
         to {at_large} B at 32 000"
    );
}

#[test]
fn paper_water_force_call_stays_under_its_memory_bound() {
    // the paper's water model on 375 atoms, f64 (perfbench's
    // water_paper_f64); a whole-system table and 256-atom chunks held
    // about 250 MB
    const BOUND: u64 = 56 << 20;
    let sys = lattice::water_box([5, 5, 5], 3.104);
    assert_eq!(sys.len(), 375);
    let bytes = force_call_bytes(DpConfig::water_paper(), PrecisionMode::Double, &sys);
    eprintln!("paper water force call working set: {bytes} B");
    assert!(bytes <= BOUND, "working set {bytes} B exceeds {BOUND} B");
}

#[test]
fn steady_state_dp_step_is_allocation_free() {
    let cfg = DpConfig::small(1, 4.5, 16);
    let mut rng = CounterRng::new(31);
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
    sys.perturb(0.1, &mut rng);
    let mut pot = DeepPotential::new(model, PrecisionMode::Double);

    let nl = NeighborList::build(&sys, pot.cutoff());
    let mut out = PotentialOutput::zeros(sys.len());
    for mode in [PrecisionMode::Double, PrecisionMode::Mixed] {
        pot.set_mode(mode);
        // warm up: capacities rotate between workspace roles until
        // they reach their fixed point
        for _ in 0..6 {
            pot.compute_into(&sys, &nl, &mut out);
        }
        let before = allocs();
        for _ in 0..3 {
            pot.compute_into(&sys, &nl, &mut out);
        }
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "steady-state compute_into allocated {delta} times in {mode:?} mode"
        );
    }
    assert!(out.energy.is_finite());
}

#[test]
fn alternating_precision_modes_are_allocation_free() {
    // Each precision mode owns its workspace in the arena, so switching
    // Double -> Mixed every call must stay at zero allocations once both
    // are warm.
    const MODES: [PrecisionMode; 2] = [PrecisionMode::Double, PrecisionMode::Mixed];
    let cfg = DpConfig::small(1, 4.5, 16);
    let mut rng = CounterRng::new(17);
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
    sys.perturb(0.1, &mut rng);
    let mut pot = DeepPotential::new(model, PrecisionMode::Double);

    let nl = NeighborList::build(&sys, pot.cutoff());
    let mut out = PotentialOutput::zeros(sys.len());
    for _ in 0..6 {
        for mode in MODES {
            pot.set_mode(mode);
            pot.compute_into(&sys, &nl, &mut out);
        }
    }
    let before = allocs();
    for _ in 0..3 {
        for mode in MODES {
            pot.set_mode(mode);
            pot.compute_into(&sys, &nl, &mut out);
        }
    }
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "alternating precision modes allocated {delta} times at steady state"
    );
    assert!(out.energy.is_finite());
}

#[test]
fn full_md_step_is_allocation_free_at_steady_state() {
    // The end-to-end version of the invariant: a whole `run_md_resumable`
    // step (kick-drift, thermostat, force eval, sampling) must not touch
    // the heap once every workspace reached its fixed point. Measured as
    // an equality — a 62-step run must allocate exactly as much as a
    // 12-step run from the same start state, so the per-call constants
    // (neighbor list, output buffer, thermo vec) cancel and any per-step
    // allocation shows up as a difference.
    let cfg = DpConfig::small(1, 4.5, 16);
    let mut rng = CounterRng::new(11);
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    // [4,4,4] keeps cutoff+skin (6.0) under the minimum-image limit (7.23)
    let mut sys0 = lattice::fcc(3.615, [4, 4, 4], units::MASS_CU);
    sys0.init_velocities(300.0, &mut rng);
    let pot = DeepPotential::new(model, PrecisionMode::Double);
    let opts = MdOptions {
        dt: 1.0e-3,
        // generous skin: 62 warm-crystal steps displace atoms far less
        // than skin/2, so neither run rebuilds mid-run
        skin: 1.5,
        thermo_every: 1000,
        thermostat: Some(Berendsen {
            target_t: 300.0,
            tau: 0.1,
        }),
        ..MdOptions::default()
    };

    // warm up: grows the potential's internal workspace to its fixed
    // point (the run-local buffers are per-call and cancel below)
    let mut warm = sys0.clone();
    run_md_resumable(
        &mut warm,
        &pot,
        &opts,
        20,
        MdProgress::default(),
        |_| {},
        None,
    );

    let measure = |steps: usize| {
        let mut s = sys0.clone();
        let before = allocs();
        let run = run_md_resumable(
            &mut s,
            &pot,
            &opts,
            steps,
            MdProgress::default(),
            |_| {},
            None,
        );
        assert!(run.thermo.last().unwrap().total_energy().is_finite());
        allocs() - before
    };
    let short = measure(12);
    let long = measure(62);
    assert_eq!(
        short,
        long,
        "50 extra MD steps allocated {} extra times",
        long.saturating_sub(short)
    );
}

#[test]
fn steady_state_neighbor_rebuild_is_allocation_free() {
    // The companion invariant for the rebuild step: `build_into` with a
    // warmed scratch must not touch the heap when the geometry is stable.
    // fcc 4×4×4 at 6 Å has two bins per axis, 6×6×6 at 6 Å three; the open
    // cell keeps 300 of its 500 atoms as ghosts.
    let mut rng = CounterRng::new(5);
    let mut small = lattice::fcc(3.615, [4, 4, 4], units::MASS_CU);
    small.perturb(0.05, &mut rng);
    let mut large = lattice::fcc(3.615, [6, 6, 6], units::MASS_CU);
    large.perturb(0.05, &mut rng);
    let mut open = lattice::fcc(3.615, [5, 5, 5], units::MASS_CU);
    open.perturb(0.05, &mut rng);
    open.cell = cell::Cell::open(18.075, 18.075, 18.075);
    open.n_local = 200;

    for sys in [&small, &large, &open] {
        let mut scratch = NlScratch::default();
        let mut nl = NeighborList::empty();
        for _ in 0..4 {
            nl.build_into(sys, 6.0, &mut scratch);
        }
        let before = allocs();
        for _ in 0..3 {
            nl.build_into(sys, 6.0, &mut scratch);
        }
        let delta = allocs() - before;
        assert_eq!(
            delta,
            0,
            "steady-state build_into allocated {delta} times ({} atoms)",
            sys.len()
        );
        assert_eq!(nl.len(), sys.n_local);
        assert!(nl.num_pairs() > 0);
    }
}

#[test]
fn dilute_box_neighbor_list_stays_small() {
    // The bin grid is capped at one bin per atom: three atoms in a 1e9 Å
    // cell (about 1e25 bins by volume) cost a few hundred bytes.
    let sys = System::new(
        cell::Cell::cubic(1e9),
        vec![[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [1e9 - 1.0, 1.0, 1.0]],
        vec![0; 3],
        vec![units::MASS_CU],
    );
    let mut nl = NeighborList::empty();
    let bytes = transient_peak(|| nl = NeighborList::build(&sys, 4.5));
    assert!(bytes < 4096, "a 3-atom build held {bytes} bytes");
    assert_eq!(nl.neighbors_of(0), [1, 2]);
    assert_eq!(nl.neighbors_of(1), [0, 2]);
    assert_eq!(nl.neighbors_of(2), [0, 1]);
}

#[test]
fn steady_state_train_step_stays_within_allocation_budget() {
    // The training-gradient pass keeps every buffer in the trainer's
    // workspace, so once one step has sized it a step allocates nothing.
    // perfbench's train_step_8f shape.
    let cfg = DpConfig {
        rcut: 4.5,
        rcut_smth: 1.0,
        sel: vec![12, 24],
        embedding: vec![8, 16],
        fitting: vec![32, 32, 32],
        axis_neurons: 4,
    };
    let mut rng = CounterRng::new(23);
    let base = lattice::water_box([3, 3, 3], 3.104);
    let labels = PairTable::water_reference().with_cutoff(4.5);
    let frames = perturbed_frames(&base, &labels, 8, 0.15, &mut rng);
    let model = DpModel::<f64>::new_random(cfg, &mut rng);

    let mut trainer = Trainer::new(model, &frames, 1e-3, LossWeights::default());
    trainer.step(); // warm-up: fills the buffer pool
    let before = allocs();
    let report = trainer.step();
    let delta = allocs() - before;
    assert!(report.loss.is_finite());
    assert!(
        delta <= 1000,
        "steady-state Trainer::step allocated {delta} times"
    );
}

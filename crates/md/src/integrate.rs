//! Velocity–Verlet time integration with the paper's neighbor-list
//! protocol (skin buffer, periodic rebuild checks) and thermodynamic
//! collection every `thermo_every` steps (the paper records kinetic
//! energy, potential energy, temperature and pressure every 20 steps,
//! §6.1).
//!
//! This module is the only place the step arithmetic and the step
//! schedule live. The paper runs one integrator under every configuration
//! and changes only the force provider and the halo around it (§5.1,
//! §5.4); here that is three pieces:
//!
//! 1. [`Schedule`] — when a step checks the list, records thermo, writes
//!    a checkpoint, audits, reports or exchanges replicas. Every loop asks
//!    it; none tests a stride itself.
//! 2. [`Stepper`] — one trajectory's neighbor list, list scratch and
//!    Langevin stream, split *around* the force call. The serial loop
//!    below, the ensemble engine and every rank of the parallel driver
//!    drive it and differ only in how they evaluate forces.
//! 3. [`Domain`] — where the stepper's atoms live. A standalone
//!    [`System`] is its own domain; a rank of the parallel driver is one
//!    whose skin test and temperature are all-reduced and whose list
//!    builds are wrapped in halo traffic.

use crate::neighbor::{NeighborList, NlScratch};
use crate::potential::Potential;
use crate::rng::CounterRng;
use crate::system::System;
use crate::units;
use std::convert::Infallible;
use std::time::{Duration, Instant};

/// Berendsen weak-coupling thermostat.
#[derive(Debug, Clone, Copy)]
pub struct Berendsen {
    /// Target temperature (K).
    pub target_t: f64,
    /// Coupling time constant (ps).
    pub tau: f64,
}

/// Langevin thermostat: friction + matched random kicks (canonical
/// sampling even for a model with residual PES artifacts, unlike
/// velocity rescaling).
#[derive(Debug, Clone, Copy)]
pub struct Langevin {
    /// Target temperature (K).
    pub target_t: f64,
    /// Friction coefficient γ (1/ps).
    pub gamma: f64,
    /// RNG seed (deterministic trajectories for testing).
    pub seed: u64,
}

/// Integration parameters.
#[derive(Debug, Clone, Copy)]
pub struct MdOptions {
    /// Time step (ps). The paper uses 0.5 fs for water, 1.0 fs for copper.
    pub dt: f64,
    /// Neighbor-list skin (Å); the paper uses a 2 Å buffer.
    pub skin: f64,
    /// Steps between displacement checks / forced rebuilds (paper: 50).
    pub rebuild_every: usize,
    /// Steps between thermodynamic samples (paper: 20).
    pub thermo_every: usize,
    /// Optional thermostat; `None` = NVE.
    pub thermostat: Option<Berendsen>,
    /// Optional Langevin thermostat (mutually exclusive with `thermostat`).
    pub langevin: Option<Langevin>,
}

impl Default for MdOptions {
    fn default() -> Self {
        Self {
            dt: 1.0e-3,
            skin: 2.0,
            rebuild_every: 50,
            thermo_every: 20,
            thermostat: None,
            langevin: None,
        }
    }
}

/// One thermodynamic sample.
#[derive(Debug, Clone, Copy)]
pub struct ThermoSample {
    pub step: usize,
    pub potential_energy: f64,
    pub kinetic_energy: f64,
    pub temperature: f64,
    pub pressure: f64,
}

impl ThermoSample {
    pub fn total_energy(&self) -> f64 {
        self.potential_energy + self.kinetic_energy
    }
}

/// Result of an MD run.
#[derive(Debug, Clone)]
pub struct MdRun {
    pub thermo: Vec<ThermoSample>,
    pub steps: usize,
    pub neighbor_rebuilds: usize,
    /// Wall time of the MD loop only (the paper's "MD loop time", §6.3).
    pub loop_time: Duration,
    /// Potential evaluations performed (`steps + 1`, §6.1).
    pub evaluations: usize,
}

impl MdRun {
    /// Time-to-solution: seconds / step / atom, the paper's headline metric.
    pub fn time_to_solution(&self, n_atoms: usize) -> f64 {
        self.loop_time.as_secs_f64() / self.steps as f64 / n_atoms as f64
    }
}

/// Resumable MD trajectory state beyond the `System` itself: what a
/// checkpoint must carry so a restarted run continues the identical
/// floating-point path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MdProgress {
    /// Completed steps since the trajectory began (0 = fresh start).
    pub step: usize,
    /// Langevin RNG draws consumed so far (see [`CounterRng`]).
    pub rng_draws: u64,
}

/// Periodic checkpoint sink invoked from inside the MD loop.
///
/// At every `every`-step boundary the integrator rebuilds the neighbor
/// list *before* calling `save`, so the straight-through run and a run
/// resumed from that checkpoint continue from an identical, freshly built
/// list — force summation order, and therefore the trajectory, stays
/// bit-exact across the restart.
pub struct CheckpointSink<'a> {
    /// Steps between checkpoints (0 disables).
    pub every: usize,
    /// Called with the post-step state; local atoms carry current
    /// positions, velocities and forces.
    pub save: &'a mut dyn FnMut(&System, MdProgress),
}

/// When each periodic action of a trajectory falls, on the absolute step
/// number, so a resumed or recovered run keeps the original cadence. The
/// rebuild-check and thermo strides are positive; the others are off at 0.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rebuild_every: usize,
    thermo_every: usize,
    /// Last step of the run, a thermo step whatever the stride
    /// (`usize::MAX`: none).
    pub end: usize,
    pub checkpoint_every: usize,
    /// Invariant audits and load-balance heartbeats of the parallel driver.
    pub audit_every: usize,
    pub report_every: usize,
    /// Replica-exchange rounds of the ensemble engine.
    pub exchange_every: usize,
}

impl Schedule {
    /// These rebuild-check and thermo strides, no last step, every other
    /// stride off; refuses a zero rebuild-check or thermo stride.
    pub fn new(rebuild_every: usize, thermo_every: usize) -> Result<Self, String> {
        if rebuild_every == 0 || thermo_every == 0 {
            return Err(format!(
                "rebuild_every ({rebuild_every}) and thermo_every ({thermo_every}) must be positive"
            ));
        }
        Ok(Self {
            rebuild_every,
            thermo_every,
            end: usize::MAX,
            checkpoint_every: 0,
            audit_every: 0,
            report_every: 0,
            exchange_every: 0,
        })
    }

    /// Check the skin displacement (the list is rebuilt only if it says so).
    pub fn rebuild_check(&self, step: usize) -> bool {
        step.is_multiple_of(self.rebuild_every)
    }

    pub fn thermo(&self, step: usize) -> bool {
        step.is_multiple_of(self.thermo_every) || step == self.end
    }

    pub fn checkpoint(&self, step: usize) -> bool {
        due(self.checkpoint_every, step)
    }

    pub fn audit(&self, step: usize) -> bool {
        due(self.audit_every, step)
    }

    pub fn heartbeat(&self, step: usize) -> bool {
        due(self.report_every, step)
    }

    pub fn exchange(&self, step: usize) -> bool {
        due(self.exchange_every, step)
    }
}

fn due(every: usize, step: usize) -> bool {
    every > 0 && step.is_multiple_of(every)
}

/// Where a [`Stepper`]'s atoms live: what the skin test, the halo around a
/// list build and the thermostat's temperature span.
pub trait Domain {
    /// Why a collective step failed.
    type Error;
    /// The atoms: owned `..n_local`, then any ghosts.
    fn sys(&mut self) -> &mut System;
    /// Before the force call: whether the list `nl` must be rebuilt (only
    /// ever on a rebuild-check step, `check`) with the atoms made ready for
    /// the build, or else the ghosts of `nl` refreshed.
    fn refresh(&mut self, nl: &NeighborList, skin: f64, check: bool) -> Result<bool, Self::Error>;
    /// The trajectory's temperature (K), for the Berendsen thermostat.
    fn temperature(&mut self) -> Result<f64, Self::Error>;
    /// After the step-`step` checkpoint was written: put the atoms into
    /// the state a restart from it reconstructs, ahead of a list build.
    fn realign(&mut self, _step: usize) -> Result<(), Self::Error> {
        Ok(())
    }
    /// One list build took `d`.
    fn built(&mut self, _d: Duration) {}
}

/// A standalone system: local skin test, no halo, its own temperature.
impl Domain for System {
    type Error = Infallible;

    fn sys(&mut self) -> &mut System {
        self
    }

    fn refresh(&mut self, nl: &NeighborList, skin: f64, check: bool) -> Result<bool, Infallible> {
        Ok(check && nl.needs_rebuild(self, skin))
    }

    fn temperature(&mut self) -> Result<f64, Infallible> {
        Ok(System::temperature(self))
    }
}

/// One trajectory's stepping state: neighbor list, list scratch (both
/// allocated once and reused, §5.2.2 arena reuse), the Langevin stream
/// and the rebuild-check stride. A step is `advance_to_force` → the
/// caller's force evaluation over [`Stepper::neighbor_list`] into the
/// domain's forces → `finish`.
pub struct Stepper {
    nl: NeighborList,
    scratch: NlScratch,
    /// List cutoff: potential cutoff + skin.
    cutoff: f64,
    rng: Option<CounterRng>,
    rebuilds: usize,
    schedule: Schedule,
}

impl Stepper {
    /// Build the first list for `dom` at `pot_cutoff + opts.skin` and
    /// position the Langevin stream (if any) at draw `rng_draws`.
    pub fn new<D: Domain>(dom: &mut D, pot_cutoff: f64, opts: &MdOptions, rng_draws: u64) -> Self {
        assert!(opts.dt > 0.0, "time step must be positive");
        assert!(
            !(opts.thermostat.is_some() && opts.langevin.is_some()),
            "pick one thermostat"
        );
        let mut stepper = Self {
            nl: NeighborList::empty(),
            scratch: NlScratch::default(),
            cutoff: 0.0,
            rng: opts
                .langevin
                .map(|l| CounterRng::with_draws(l.seed, rng_draws)),
            rebuilds: 0,
            schedule: Schedule::new(opts.rebuild_every, opts.thermo_every)
                .unwrap_or_else(|e| panic!("{e}")),
        };
        stepper.rebuild(dom, pot_cutoff + opts.skin);
        stepper
    }

    /// The list the force evaluation of the current step must use.
    pub fn neighbor_list(&self) -> &NeighborList {
        &self.nl
    }

    /// List builds so far, the initial one included.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Rebuild the list at `cutoff` (potential cutoff + skin): the
    /// stepper's own, or a new one after the potential was swapped for one
    /// with a different range.
    pub fn rebuild<D: Domain>(&mut self, dom: &mut D, cutoff: f64) {
        self.cutoff = cutoff;
        let ((), d) = dp_obs::timed("neighbor_rebuild", || {
            self.nl.build_into(dom.sys(), cutoff, &mut self.scratch)
        });
        self.rebuilds += 1;
        dom.built(d);
    }

    /// Everything of step `step` that precedes the force evaluation: half
    /// kick from the stored forces, drift and wrap of the owned atoms, then
    /// neighbor maintenance. Returns whether the list was rebuilt.
    pub fn advance_to_force<D: Domain>(
        &mut self,
        dom: &mut D,
        opts: &MdOptions,
        step: usize,
    ) -> Result<bool, D::Error> {
        {
            let _span = dp_obs::span("integrate");
            let (sys, dt) = (dom.sys(), opts.dt);
            for i in 0..sys.n_local {
                let inv_m = units::FORCE_TO_ACCEL / sys.masses[sys.types[i]];
                for d in 0..3 {
                    sys.velocities[i][d] += 0.5 * dt * sys.forces[i][d] * inv_m;
                    sys.positions[i][d] += dt * sys.velocities[i][d];
                }
                sys.positions[i] = sys.cell.wrap(sys.positions[i]);
            }
        }
        let rebuild = dom.refresh(&self.nl, opts.skin, self.schedule.rebuild_check(step))?;
        if rebuild {
            self.rebuild(dom, self.cutoff);
        }
        Ok(rebuild)
    }

    /// Everything that follows the force evaluation: second half kick of
    /// the owned atoms from the fresh forces, then the thermostat `opts`
    /// selects.
    pub fn finish<D: Domain>(&mut self, dom: &mut D, opts: &MdOptions) -> Result<(), D::Error> {
        let _span = dp_obs::span("integrate");
        let dt = opts.dt;
        let sys = dom.sys();
        for i in 0..sys.n_local {
            let inv_m = units::FORCE_TO_ACCEL / sys.masses[sys.types[i]];
            for d in 0..3 {
                sys.velocities[i][d] += 0.5 * dt * sys.forces[i][d] * inv_m;
            }
        }
        // Berendsen weak coupling toward `b.target_t`
        if let Some(b) = opts.thermostat {
            let t = dom.temperature()?;
            if t > 0.0 {
                let lambda = (1.0 + dt / b.tau * (b.target_t / t - 1.0)).sqrt();
                let sys = dom.sys();
                for v in sys.velocities[..sys.n_local].iter_mut().flatten() {
                    *v *= lambda;
                }
            }
        }
        // Langevin O-step (BAOAB-style): `v <- c v + sqrt((1-c²) kB T / m) ξ`,
        // ξ drawn by Box–Muller
        if let (Some(l), Some(rng)) = (opts.langevin, self.rng.as_mut()) {
            let sys = dom.sys();
            let c = (-l.gamma * dt).exp();
            let amp_base = (1.0 - c * c) * units::KB * l.target_t * units::FORCE_TO_ACCEL;
            for i in 0..sys.n_local {
                let amp = (amp_base / sys.masses[sys.types[i]]).sqrt();
                for d in 0..3 {
                    sys.velocities[i][d] = c * sys.velocities[i][d] + amp * rng.gauss();
                }
            }
        }
        Ok(())
    }

    /// Call when checkpointing after step `step`: realigns the domain and
    /// rebuilds the list, so this trajectory and any one resumed from the
    /// checkpoint (which necessarily starts with a fresh list) continue
    /// from identical state — force summation order, and therefore the
    /// trajectory, stays bit-exact across the restart — and returns what
    /// the checkpoint must carry beside the `System`.
    pub fn checkpoint<D: Domain>(
        &mut self,
        dom: &mut D,
        step: usize,
    ) -> Result<MdProgress, D::Error> {
        dom.realign(step)?;
        self.rebuild(dom, self.cutoff);
        Ok(MdProgress {
            step,
            rng_draws: self.rng.as_ref().map_or(0, |r| r.draws()),
        })
    }
}

/// Run `n_steps` of Velocity–Verlet, mutating the system in place.
///
/// An optional `observer` is called at every thermo sample; pass `|_|{}` to
/// only collect the returned series.
pub fn run_md(
    sys: &mut System,
    pot: &dyn Potential,
    opts: &MdOptions,
    n_steps: usize,
    observer: impl FnMut(&ThermoSample),
) -> MdRun {
    run_md_resumable(sys, pot, opts, n_steps, Default::default(), observer, None)
}

/// Velocity–Verlet from `resume.step` up to `end_step` (absolute step
/// numbers), with optional periodic checkpointing.
///
/// Fresh runs pass `MdProgress::default()`. Resumed runs pass the progress
/// restored from a checkpoint, with `sys` carrying the restored positions,
/// velocities **and forces**: the first half-kick reuses the stored forces
/// instead of recomputing them, because a recomputation over a freshly
/// built neighbor list could reorder the force summation and change the
/// low-order bits. Thermo samples are only recorded for steps executed in
/// this session (a resume does not re-emit the checkpoint step).
pub fn run_md_resumable(
    sys: &mut System,
    pot: &dyn Potential,
    opts: &MdOptions,
    end_step: usize,
    resume: MdProgress,
    mut observer: impl FnMut(&ThermoSample),
    mut checkpoint: Option<CheckpointSink<'_>>,
) -> MdRun {
    assert!(
        resume.step <= end_step,
        "resume step {} is beyond end step {end_step}",
        resume.step
    );
    let resuming = resume.step > 0;
    let start = Instant::now();
    let mut stepper = Stepper::new(sys, pot.cutoff(), opts, resume.rng_draws);
    let schedule = Schedule {
        end: end_step,
        checkpoint_every: checkpoint.as_ref().map_or(0, |ck| ck.every),
        ..stepper.schedule
    };
    // The force output is allocated once here and reused by every step.
    let mut out = crate::potential::PotentialOutput::zeros(sys.len());
    if resuming {
        // The checkpoint stored the forces; reuse them (see above).
        out.forces.clone_from(&sys.forces);
    } else {
        let _span = dp_obs::span("force_eval");
        pot.compute_into(sys, stepper.neighbor_list(), &mut out);
        sys.forces.clone_from(&out.forces);
    }

    let n_steps = end_step - resume.step;
    let mut thermo = Vec::with_capacity(n_steps / opts.thermo_every + 1);
    let mut record = |step: usize, sys: &System, out: &crate::potential::PotentialOutput| {
        let s = ThermoSample {
            step,
            potential_energy: out.energy,
            kinetic_energy: sys.kinetic_energy(),
            temperature: sys.temperature(),
            pressure: out.pressure(sys),
        };
        observer(&s);
        thermo.push(s);
    };
    if !resuming {
        record(0, sys, &out);
    }

    for step in resume.step + 1..=end_step {
        // per-step metrics (s/step/atom, GFLOPS) when a sink is installed
        let step_start = dp_obs::metrics::active().then(Instant::now);

        let Ok(rebuilt) = stepper.advance_to_force(sys, opts, step);
        if rebuilt {
            dp_obs::counter("neighbor_rebuilds").add(1);
        }
        {
            let _span = dp_obs::span("force_eval");
            pot.compute_into(sys, stepper.neighbor_list(), &mut out);
        }
        sys.forces.clone_from(&out.forces);
        let Ok(()) = stepper.finish(sys, opts);

        if schedule.thermo(step) {
            record(step, sys, &out);
        }

        if let Some(ck) = checkpoint.as_mut().filter(|_| schedule.checkpoint(step)) {
            let _span = dp_obs::span("io");
            let Ok(progress) = stepper.checkpoint(sys, step);
            (ck.save)(sys, progress);
        }

        if let Some(t0) = step_start {
            dp_obs::metrics::record_step(step as u64, sys.n_local, t0.elapsed());
        }
    }

    MdRun {
        thermo,
        steps: n_steps,
        neighbor_rebuilds: stepper.rebuilds(),
        loop_time: start.elapsed(),
        evaluations: n_steps + usize::from(!resuming),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice;
    use crate::potential::pair::LennardJones;

    fn argon_crystal() -> System {
        // fcc argon at its LJ-ish lattice constant
        lattice::fcc(5.26, [3, 3, 3], 39.948)
    }

    fn argon_lj() -> LennardJones {
        // Shortened cutoff so cutoff+skin fits minimum image in a 15.8 Å box.
        LennardJones::new(0.0104, 3.405, 5.5)
    }

    #[test]
    fn nve_conserves_energy() {
        let mut sys = argon_crystal();
        let mut rng = CounterRng::new(99);
        sys.init_velocities(40.0, &mut rng);
        let lj = argon_lj();
        let opts = MdOptions {
            dt: 2.0e-3,
            thermo_every: 10,
            ..Default::default()
        };
        let run = run_md(&mut sys, &lj, &opts, 200, |_| {});
        let e0 = run.thermo.first().unwrap().total_energy();
        let e1 = run.thermo.last().unwrap().total_energy();
        let drift = (e1 - e0).abs() / sys.len() as f64;
        assert!(drift < 2e-5, "energy drift {drift} eV/atom");
    }

    #[test]
    fn berendsen_reaches_target() {
        let mut sys = argon_crystal();
        let mut rng = CounterRng::new(100);
        sys.init_velocities(10.0, &mut rng);
        let lj = argon_lj();
        let opts = MdOptions {
            dt: 2.0e-3,
            thermostat: Some(Berendsen {
                target_t: 60.0,
                tau: 0.05,
            }),
            ..Default::default()
        };
        let run = run_md(&mut sys, &lj, &opts, 500, |_| {});
        let t_final = run.thermo.last().unwrap().temperature;
        assert!(
            (t_final - 60.0).abs() < 15.0,
            "thermostat failed: T = {t_final}"
        );
    }

    #[test]
    fn evaluation_count_matches_paper_convention() {
        // "500 MD steps (energy and forces are evaluated 501 times)" §6.1
        let mut sys = argon_crystal();
        let lj = argon_lj();
        let run = run_md(&mut sys, &lj, &MdOptions::default(), 50, |_| {});
        assert_eq!(run.evaluations, 51);
    }

    #[test]
    fn observer_sees_every_sample() {
        let mut sys = argon_crystal();
        let lj = argon_lj();
        let mut seen = 0usize;
        let opts = MdOptions {
            thermo_every: 20,
            ..Default::default()
        };
        let run = run_md(&mut sys, &lj, &opts, 100, |_| seen += 1);
        assert_eq!(seen, run.thermo.len());
        assert_eq!(seen, 1 + 5); // step 0 plus every 20th
    }

    #[test]
    fn langevin_thermalizes_cold_start() {
        let mut sys = argon_crystal();
        let lj = argon_lj();
        let opts = MdOptions {
            dt: 2.0e-3,
            langevin: Some(Langevin {
                target_t: 50.0,
                gamma: 5.0,
                seed: 7,
            }),
            thermo_every: 50,
            ..Default::default()
        };
        let run = run_md(&mut sys, &lj, &opts, 600, |_| {});
        let t_final = run.thermo.last().unwrap().temperature;
        assert!(
            (20.0..90.0).contains(&t_final),
            "Langevin failed to thermalize: T = {t_final}"
        );
    }

    #[test]
    fn langevin_is_deterministic_given_seed() {
        let run_once = || {
            let mut sys = argon_crystal();
            let lj = argon_lj();
            let opts = MdOptions {
                dt: 2.0e-3,
                langevin: Some(Langevin {
                    target_t: 40.0,
                    gamma: 2.0,
                    seed: 11,
                }),
                ..Default::default()
            };
            run_md(&mut sys, &lj, &opts, 50, |_| {});
            sys.positions[17]
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "pick one thermostat")]
    fn two_thermostats_rejected() {
        let mut sys = argon_crystal();
        let lj = argon_lj();
        let opts = MdOptions {
            thermostat: Some(Berendsen {
                target_t: 10.0,
                tau: 0.1,
            }),
            langevin: Some(Langevin {
                target_t: 10.0,
                gamma: 1.0,
                seed: 0,
            }),
            ..Default::default()
        };
        run_md(&mut sys, &lj, &opts, 1, |_| {});
    }

    #[test]
    fn schedule_answers_each_stride() {
        let mut s = Schedule::new(5, 10).unwrap();
        s.end = 23;
        s.checkpoint_every = 4;
        assert!(s.rebuild_check(0) && s.rebuild_check(15) && !s.rebuild_check(7));
        let thermo: Vec<usize> = (0..=23).filter(|&k| s.thermo(k)).collect();
        assert_eq!(thermo, [0, 10, 20, 23]);
        assert!(s.checkpoint(8) && !s.checkpoint(10));
        // strides left at 0 are off
        assert!((1..=23).all(|k| !s.audit(k) && !s.heartbeat(k) && !s.exchange(k)));
    }

    /// A zero rebuild-check or thermo stride is refused up front: the serial
    /// loop used to read a zero rebuild stride as "never rebuild" and panic
    /// on `step % 0` for a zero thermo stride.
    #[test]
    fn zero_strides_rejected() {
        for (rebuild_every, thermo_every) in [(0, 20), (50, 0)] {
            let opts = MdOptions {
                rebuild_every,
                thermo_every,
                ..Default::default()
            };
            let err = std::panic::catch_unwind(|| {
                run_md(&mut argon_crystal(), &argon_lj(), &opts, 1, |_| {})
            })
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("must be positive"), "{msg}");
        }
    }

    /// 2N straight vs N + checkpoint + resume + N must agree bitwise.
    fn assert_resume_bit_exact(opts: &MdOptions, half: usize) {
        let lj = argon_lj();
        let init = || {
            let mut sys = argon_crystal();
            let mut rng = crate::rng::CounterRng::new(314);
            sys.init_velocities(40.0, &mut rng);
            sys
        };

        // Straight run, capturing the mid-point checkpoint in memory.
        let mut straight = init();
        let mut snap: Option<(System, MdProgress)> = None;
        let mut save = |sys: &System, p: MdProgress| {
            if p.step == half {
                snap = Some((sys.clone(), p));
            }
        };
        let straight_run = run_md_resumable(
            &mut straight,
            &lj,
            opts,
            2 * half,
            MdProgress::default(),
            |_| {},
            Some(CheckpointSink {
                every: half,
                save: &mut save,
            }),
        );
        let (snap_sys, progress) = snap.expect("checkpoint captured");
        assert_eq!(progress.step, half);

        // Resume the second half from the snapshot.
        let mut resumed = snap_sys;
        let resumed_run =
            run_md_resumable(&mut resumed, &lj, opts, 2 * half, progress, |_| {}, None);
        assert_eq!(resumed_run.steps, half);

        for i in 0..straight.len() {
            for d in 0..3 {
                assert_eq!(
                    straight.positions[i][d].to_bits(),
                    resumed.positions[i][d].to_bits(),
                    "position [{i}][{d}] diverged"
                );
                assert_eq!(
                    straight.velocities[i][d].to_bits(),
                    resumed.velocities[i][d].to_bits(),
                    "velocity [{i}][{d}] diverged"
                );
            }
        }
        // Overlapping thermo samples (steps > half) must also agree bitwise.
        for s in &resumed_run.thermo {
            let o = straight_run
                .thermo
                .iter()
                .find(|t| t.step == s.step)
                .expect("matching straight-run sample");
            assert_eq!(o.potential_energy.to_bits(), s.potential_energy.to_bits());
            assert_eq!(o.kinetic_energy.to_bits(), s.kinetic_energy.to_bits());
        }
    }

    #[test]
    fn resume_is_bit_exact_nve() {
        let opts = MdOptions {
            dt: 2.0e-3,
            thermo_every: 10,
            ..Default::default()
        };
        assert_resume_bit_exact(&opts, 30);
    }

    #[test]
    fn resume_is_bit_exact_berendsen() {
        let opts = MdOptions {
            dt: 2.0e-3,
            thermo_every: 10,
            thermostat: Some(Berendsen {
                target_t: 60.0,
                tau: 0.05,
            }),
            ..Default::default()
        };
        assert_resume_bit_exact(&opts, 30);
    }

    #[test]
    fn resume_is_bit_exact_langevin() {
        // Exercises the (seed, draws) RNG resume: the second half must
        // replay the identical random-kick stream.
        let opts = MdOptions {
            dt: 2.0e-3,
            thermo_every: 10,
            langevin: Some(Langevin {
                target_t: 50.0,
                gamma: 2.0,
                seed: 23,
            }),
            ..Default::default()
        };
        assert_resume_bit_exact(&opts, 30);
    }

    #[test]
    fn run_md_matches_resumable_with_no_resume() {
        let lj = argon_lj();
        let mut a = argon_crystal();
        let mut b = argon_crystal();
        let opts = MdOptions::default();
        let ra = run_md(&mut a, &lj, &opts, 40, |_| {});
        let rb = run_md_resumable(&mut b, &lj, &opts, 40, MdProgress::default(), |_| {}, None);
        assert_eq!(ra.evaluations, rb.evaluations);
        assert_eq!(a.positions, b.positions);
    }

    /// FNV-1a fold of `to_bits` over final positions then velocities.
    fn fold_bits(sys: &System) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in sys.positions.iter().chain(&sys.velocities).flatten() {
            h = (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// 20 steps of LJ argon from uniform `CounterRng` velocities (raw
    /// `next_u64`, no `gen_range`), with a skin small enough that the list
    /// is rebuilt on the way. The 5.0 Å cutoff keeps every pair out of the
    /// cosine switch window (first shell < 4.0 Å, second > 5.0 Å), so the
    /// run touches no libm beyond `sqrt` and one constant holds on any host.
    fn golden_run(thermostat: Option<Berendsen>) -> u64 {
        let mut sys = argon_crystal();
        let mut rng = CounterRng::new(2020);
        for v in &mut sys.velocities {
            for vd in v.iter_mut() {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                *vd = 3.0 * (u - 0.5);
            }
        }
        sys.zero_momentum();
        let opts = MdOptions {
            dt: 2.0e-3,
            skin: 0.05,
            rebuild_every: 5,
            thermo_every: 10,
            thermostat,
            ..Default::default()
        };
        let lj = LennardJones::new(0.0104, 3.405, 5.0);
        let run = run_md(&mut sys, &lj, &opts, 20, |_| {});
        assert!(run.neighbor_rebuilds > 1, "the pinned path must rebuild");
        fold_bits(&sys)
    }

    /// Absolute results pinned at the commit before the three step loops
    /// were unified: the shared step must keep the serial float path.
    #[test]
    fn golden_bits_nve() {
        assert_eq!(golden_run(None), 2_377_487_649_233_499_592);
    }

    #[test]
    fn golden_bits_berendsen() {
        let b = Berendsen {
            target_t: 60.0,
            tau: 0.05,
        };
        assert_eq!(golden_run(Some(b)), 6_302_163_215_747_821_842);
    }

    #[test]
    fn static_lattice_stays_put_without_velocities() {
        let mut sys = argon_crystal();
        let p0 = sys.positions.clone();
        let lj = argon_lj();
        let run = run_md(&mut sys, &lj, &MdOptions::default(), 10, |_| {});
        // forces are zero by symmetry, so nothing should move
        for (a, b) in sys.positions.iter().zip(&p0) {
            for d in 0..3 {
                assert!((a[d] - b[d]).abs() < 1e-9);
            }
        }
        assert_eq!(run.steps, 10);
    }
}

//! The ensemble engine: N replicas of a small system advanced in lockstep
//! against one shared [`DeepPotential`], with every tick's force calls
//! coalesced into a single cross-replica batched evaluation.
//!
//! Bit-exactness contract: every replica owns a
//! `dp_md::integrate::Stepper`, the same one `run_md_resumable` drives, so
//! a tick is one serial step per replica with the solo `compute_into`
//! replaced by the replica's slice of one `compute_batch_into` call, which
//! `crates/core` proves bit-identical to the solo evaluation. An engine
//! holding one replica therefore reproduces the serial integrator
//! byte-for-byte, and one holding N replicas N serial runs byte-for-byte
//! (as long as exchange moves are disabled, which couple the replicas on
//! purpose). `tests in this module and `dp_train`'s deviation suite
//! byte-diff both claims.

use crate::exchange;
use crate::metrics;
use deepmd_core::{BatchItem, BatchOutput, DeepPotential, PrecisionMode};
use dp_ckpt::{CkptError, CkptWriter, Dec, Enc, Rotation, KIND_ENSEMBLE};
use dp_md::checkpoint::MdCheckpoint;
use dp_md::integrate::{Berendsen, Langevin, MdOptions, Schedule, Stepper};
use dp_md::{CounterRng, Potential, System};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Derive replica `k`'s Langevin seed from the deck seed — the same
/// splitmix64 odd-constant stride the RNG itself uses, so replica streams
/// never collide and a serial rerun of one replica can reconstruct its
/// exact stream.
pub fn replica_seed(base: u64, k: usize) -> u64 {
    base ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Engine-wide integration parameters (per-replica target temperatures
/// live on the [`Replica`]s; exchange moves swap them).
#[derive(Debug, Clone, Copy)]
pub struct EnsembleOptions {
    /// Time step (ps).
    pub dt: f64,
    /// Neighbor-list skin (Å).
    pub skin: f64,
    /// Steps between displacement checks (positive).
    pub rebuild_every: usize,
    /// Steps between thermodynamic samples (positive).
    pub thermo_every: usize,
    /// Berendsen coupling time (ps); `Some` enables per-replica Berendsen
    /// thermostats at each replica's ladder temperature.
    pub berendsen_tau: Option<f64>,
    /// Langevin friction γ (1/ps); `Some` enables per-replica Langevin
    /// thermostats (mutually exclusive with `berendsen_tau`).
    pub langevin_gamma: Option<f64>,
    /// Precision of the batched evaluation.
    pub mode: PrecisionMode,
    /// Steps between replica-exchange attempt rounds (0 disables).
    pub exchange_every: usize,
    /// Base seed: replica Langevin streams and the swap schedule derive
    /// from it deterministically.
    pub seed: u64,
    /// OS threads for the batched evaluation: the batch splits into this
    /// many contiguous sub-batches evaluated concurrently (each replica's
    /// forces are independent of batch grouping, so results stay
    /// bit-identical to the single-threaded path). `0` = one thread per
    /// available core, `1` = evaluate in the calling thread.
    pub eval_threads: usize,
}

impl Default for EnsembleOptions {
    fn default() -> Self {
        Self {
            dt: 1.0e-3,
            skin: 2.0,
            rebuild_every: 50,
            thermo_every: 20,
            berendsen_tau: None,
            langevin_gamma: None,
            mode: PrecisionMode::Mixed,
            exchange_every: 0,
            seed: 0,
            eval_threads: 0,
        }
    }
}

impl EnsembleOptions {
    /// The exact `MdOptions` under which replica `k` (target temperature
    /// `target_t`) evolves — running `run_md_resumable` with these
    /// reproduces the engine's trajectory for that replica byte-for-byte
    /// (exchange disabled). The byte-diff tests lean on this.
    pub fn md_options_for(&self, target_t: f64, k: usize) -> MdOptions {
        MdOptions {
            dt: self.dt,
            skin: self.skin,
            rebuild_every: self.rebuild_every,
            thermo_every: self.thermo_every,
            thermostat: self.berendsen_tau.map(|tau| Berendsen { target_t, tau }),
            langevin: self.langevin_gamma.map(|gamma| Langevin {
                target_t,
                gamma,
                seed: replica_seed(self.seed, k),
            }),
        }
    }
}

/// One thermodynamic sample of one replica. Pressure is omitted: the
/// batched evaluation cannot attribute the virial to one replica.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaThermo {
    pub step: usize,
    pub potential_energy: f64,
    pub kinetic_energy: f64,
    pub temperature: f64,
}

/// One trajectory: its atoms, stepping state (neighbor list, Langevin
/// stream), and the rung of the temperature ladder it currently samples.
pub struct Replica {
    pub sys: System,
    /// Thermostat target temperature (K); exchange moves swap these
    /// between neighboring replicas.
    pub target_t: f64,
    /// Completed steps (all replicas advance in lockstep).
    pub step: usize,
    /// Potential energy from the latest force evaluation.
    pub potential_energy: f64,
    /// Thermo samples recorded this session (a resume does not re-emit).
    pub thermo: Vec<ReplicaThermo>,
    stepper: Stepper,
}

impl Replica {
    fn record_thermo(&mut self) {
        self.thermo.push(ReplicaThermo {
            step: self.step,
            potential_energy: self.potential_energy,
            kinetic_energy: self.sys.kinetic_energy(),
            temperature: self.sys.temperature(),
        });
    }
}

/// The scheduler: owns the replicas, the shared potential, the batch
/// output arenas, and the exchange state.
pub struct EnsembleEngine {
    pub opts: EnsembleOptions,
    pub replicas: Vec<Replica>,
    /// Global step counter (lockstep with every replica's `step`).
    pub step: usize,
    /// Structured log of every exchange attempt this session.
    pub swap_log: Vec<exchange::SwapEvent>,
    pub exchange_attempts: u64,
    pub exchange_accepted: u64,
    pot: Arc<DeepPotential>,
    swap_rng: CounterRng,
    /// One output per eval worker's sub-batch, kept so steady-state ticks
    /// reuse the same buffers.
    thread_outs: Vec<BatchOutput>,
    evaluations: u64,
    /// Thermo and exchange steps; [`Self::run`] sets the last step.
    schedule: Schedule,
}

impl EnsembleEngine {
    /// Build an engine over `systems`, replica `k` thermostatted at
    /// `temps[k]`. Performs the initial batched force evaluation and
    /// records each replica's step-0 thermo sample, exactly as a fresh
    /// `run_md_resumable` does. Panics on a zero rebuild-check or thermo
    /// stride.
    pub fn new(
        pot: Arc<DeepPotential>,
        systems: Vec<System>,
        temps: &[f64],
        opts: EnsembleOptions,
    ) -> Self {
        assert!(!systems.is_empty(), "need at least one replica");
        assert_eq!(systems.len(), temps.len(), "one temperature per replica");
        let replicas = systems
            .into_iter()
            .zip(temps)
            .enumerate()
            .map(|(k, (mut sys, &target_t))| {
                assert_eq!(
                    sys.n_local,
                    sys.len(),
                    "replicas must be standalone configurations"
                );
                let md = opts.md_options_for(target_t, k);
                Replica {
                    stepper: Stepper::new(&mut sys, pot.cutoff(), &md, 0),
                    sys,
                    target_t,
                    step: 0,
                    potential_energy: 0.0,
                    thermo: Vec::new(),
                }
            })
            .collect();
        let mut engine = Self::assemble(pot, opts, replicas, 0, 0);
        engine.batched_eval_and_store();
        for r in &mut engine.replicas {
            r.record_thermo();
        }
        engine
    }

    pub fn potential(&self) -> &Arc<DeepPotential> {
        &self.pot
    }

    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Batched force evaluations dispatched so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Neighbor-list rebuilds across all replicas (initial builds included).
    pub fn nl_rebuilds(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.stepper.rebuilds() as u64)
            .sum()
    }

    /// Worker count for the batched evaluation: `eval_threads` resolved
    /// against the machine (0 = auto) and clamped to the replica count.
    fn eval_workers(&self) -> usize {
        let t = match self.opts.eval_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        };
        t.clamp(1, self.replicas.len())
    }

    /// One cross-replica batched force evaluation; forces and energies
    /// land back on the replicas. The batch splits into one contiguous
    /// sub-batch per eval worker; with more than one worker each runs on a
    /// scoped OS thread, with one it runs on the calling thread. Each
    /// replica's slice of the joined table is independent of how the batch
    /// is grouped, so the results are bit-identical for any worker count
    /// (asserted by the unit tests).
    fn batched_eval_and_store(&mut self) {
        let n = self.replicas.len();
        let workers = self.eval_workers();
        let chunk = n.div_ceil(workers);
        self.thread_outs.resize_with(workers, BatchOutput::new);
        let (pot, mode) = (&self.pot, self.opts.mode);
        let eval = |slice: &[Replica], out: &mut BatchOutput| {
            let items: Vec<BatchItem> = slice
                .iter()
                .map(|r| BatchItem {
                    sys: &r.sys,
                    nl: r.stepper.neighbor_list(),
                })
                .collect();
            pot.compute_batch_into(&items, mode, out);
        };
        let sub_batches = self.replicas.chunks(chunk).zip(&mut self.thread_outs);
        if workers == 1 {
            sub_batches.for_each(|(slice, out)| eval(slice, out));
        } else {
            let eval = &eval;
            std::thread::scope(|s| {
                for (slice, out) in sub_batches {
                    s.spawn(move || eval(slice, out));
                }
            });
        }
        for (slice, out) in self.replicas.chunks_mut(chunk).zip(&self.thread_outs) {
            for (j, r) in slice.iter_mut().enumerate() {
                r.sys.forces.clear();
                r.sys.forces.extend_from_slice(out.forces_of(j));
                r.potential_energy = out.energies[j];
            }
        }
        dp_obs::hist::record(metrics::BATCH_OCCUPANCY, n as u64);
        dp_obs::counter(metrics::BATCHES).add(1);
        self.evaluations += 1;
    }

    /// Advance every replica by one MD step: each replica's stepper runs
    /// up to the force call (half-kick + drift, neighbor maintenance), ONE
    /// batched force evaluation serves them all, then each stepper
    /// finishes (second half-kick, thermostat) — followed by an exchange
    /// round when due.
    pub fn tick(&mut self) {
        let opts = self.opts;
        let step = self.step + 1;

        for (k, r) in self.replicas.iter_mut().enumerate() {
            let md = opts.md_options_for(r.target_t, k);
            let Ok(rebuilt) = r.stepper.advance_to_force(&mut r.sys, &md, step);
            if rebuilt {
                dp_obs::counter(metrics::NL_REBUILDS).add(1);
            }
        }

        {
            let _span = dp_obs::span("force_eval");
            self.batched_eval_and_store();
        }

        for (k, r) in self.replicas.iter_mut().enumerate() {
            let md = opts.md_options_for(r.target_t, k);
            let Ok(()) = r.stepper.finish(&mut r.sys, &md);
            r.step = step;
            if self.schedule.thermo(step) {
                r.record_thermo();
            }
        }

        self.step = step;
        dp_obs::counter(metrics::TICKS).add(1);

        if self.schedule.exchange(step) {
            exchange::attempt_round(self);
        }
    }

    /// Run `n_steps` ticks, the last one a thermo step for every replica
    /// (as the serial integrator's last step is), and publish a
    /// replica-steps/sec gauge.
    pub fn run(&mut self, n_steps: usize) {
        let t0 = Instant::now();
        self.schedule.end = self.step + n_steps;
        for _ in 0..n_steps {
            self.tick();
        }
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.0 && n_steps > 0 {
            let rate = (n_steps as u64 * self.replicas.len() as u64) as f64 / secs;
            dp_obs::counter(metrics::REPLICAS_PER_SEC).set(rate as u64);
        }
    }

    /// Replace the shared model (active learning's retrain step): rebuild
    /// every neighbor list against the new cutoff and refresh forces with
    /// one batched evaluation, so the next tick's first half-kick uses
    /// forces consistent with the new potential energy surface.
    pub fn swap_model(&mut self, pot: Arc<DeepPotential>) {
        self.pot = pot;
        let cutoff = self.pot.cutoff() + self.opts.skin;
        for r in &mut self.replicas {
            r.stepper.rebuild(&mut r.sys, cutoff);
        }
        self.batched_eval_and_store();
        dp_obs::counter(metrics::MODEL_SWAPS).add(1);
    }

    /// Write one generation into the rotation at `base`: a single
    /// [`KIND_ENSEMBLE`] container holding the engine state (step,
    /// swap-RNG position, exchange tallies, ladder temperatures,
    /// per-replica energies) and every replica's nested MD checkpoint in
    /// replica order, so a generation is whole or absent.
    /// `Stepper::checkpoint` rebuilds each neighbor list first, so the
    /// saving engine and a resumed engine continue from identical state.
    pub fn save_checkpoint(&mut self, base: &Path, keep: usize) -> Result<(), CkptError> {
        let mut states = Enc::new();
        for r in &mut self.replicas {
            let Ok(progress) = r.stepper.checkpoint(&mut r.sys, r.step);
            MdCheckpoint::capture(&r.sys, progress).put_nested(&mut states);
        }
        let mut meta = Enc::new();
        meta.put_u64(self.replicas.len() as u64);
        meta.put_u64(self.step as u64);
        meta.put_u64(self.swap_rng.draws());
        meta.put_u64(self.exchange_attempts);
        meta.put_u64(self.exchange_accepted);
        let mut temps = Enc::new();
        temps.put_f64s(&self.replicas.iter().map(|r| r.target_t).collect::<Vec<_>>());
        let mut energies = Enc::new();
        energies.put_f64s(
            &self
                .replicas
                .iter()
                .map(|r| r.potential_energy)
                .collect::<Vec<_>>(),
        );
        let mut w = CkptWriter::new(KIND_ENSEMBLE);
        w.add_section(*b"META", meta.into_bytes());
        w.add_section(*b"TEMP", temps.into_bytes());
        w.add_section(*b"PE  ", energies.into_bytes());
        w.add_section(*b"REPS", states.into_bytes());
        Rotation::new(base, keep).save(&w).map_err(CkptError::Io)?;
        Ok(())
    }

    /// Rebuild an engine from the newest valid [`Self::save_checkpoint`]
    /// generation (a torn or corrupt newest one falls back to the one
    /// before). Stored forces are reused (never recomputed) for the first
    /// half-kick, the Langevin and swap RNG streams resume at their exact
    /// draw counters, and no thermo samples are re-emitted — the same
    /// resume semantics as `run_md_resumable`.
    pub fn resume(
        pot: Arc<DeepPotential>,
        opts: EnsembleOptions,
        base: &Path,
        keep: usize,
    ) -> Result<Self, CkptError> {
        let (reader, _) = Rotation::new(base, keep).load_newest_valid(KIND_ENSEMBLE)?;
        let mut meta = Dec::new(reader.section(*b"META")?);
        let n = meta.get_u64()? as usize;
        let step = meta.get_u64()? as usize;
        let swap_draws = meta.get_u64()?;
        let exchange_attempts = meta.get_u64()?;
        let exchange_accepted = meta.get_u64()?;
        let temps = Dec::new(reader.section(*b"TEMP")?).get_f64s()?;
        let energies = Dec::new(reader.section(*b"PE  ")?).get_f64s()?;
        if temps.len() != n || energies.len() != n {
            return Err(CkptError::Malformed(format!(
                "ensemble meta declares {n} replicas but carries {} temps / {} energies",
                temps.len(),
                energies.len()
            )));
        }
        let mut states = Dec::new(reader.section(*b"REPS")?);
        let mut replicas = Vec::with_capacity(n);
        for k in 0..n {
            let (mut sys, progress) = MdCheckpoint::get_nested(&mut states)?.restore();
            if progress.step != step {
                return Err(CkptError::Malformed(format!(
                    "replica {k} state at step {} but ensemble meta at step {step}",
                    progress.step
                )));
            }
            let md = opts.md_options_for(temps[k], k);
            replicas.push(Replica {
                stepper: Stepper::new(&mut sys, pot.cutoff(), &md, progress.rng_draws),
                sys,
                target_t: temps[k],
                step,
                potential_energy: energies[k],
                thermo: Vec::new(),
            });
        }
        Ok(Self {
            exchange_attempts,
            exchange_accepted,
            ..Self::assemble(pot, opts, replicas, step, swap_draws)
        })
    }

    /// An engine at `step` over `replicas`, its swap stream at draw
    /// `swap_draws`; panics on a zero rebuild-check or thermo stride.
    fn assemble(
        pot: Arc<DeepPotential>,
        opts: EnsembleOptions,
        replicas: Vec<Replica>,
        step: usize,
        swap_draws: u64,
    ) -> Self {
        let mut schedule =
            Schedule::new(opts.rebuild_every, opts.thermo_every).unwrap_or_else(|e| panic!("{e}"));
        schedule.exchange_every = opts.exchange_every;
        Self {
            opts,
            replicas,
            step,
            swap_log: Vec::new(),
            exchange_attempts: 0,
            exchange_accepted: 0,
            pot,
            swap_rng: CounterRng::with_draws(exchange::swap_seed(opts.seed), swap_draws),
            thread_outs: Vec::new(),
            evaluations: 0,
            schedule,
        }
    }

    pub(crate) fn swap_rng_mut(&mut self) -> &mut CounterRng {
        &mut self.swap_rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmd_core::{DpConfig, DpModel};
    use dp_md::integrate::{run_md_resumable, MdProgress};
    use dp_md::lattice;

    fn small_potential() -> Arc<DeepPotential> {
        let cfg = DpConfig::small(1, 4.0, 14);
        let mut rng = CounterRng::new(31);
        Arc::new(DeepPotential::new(
            DpModel::<f64>::new_random(cfg, &mut rng),
            PrecisionMode::Mixed,
        ))
    }

    fn replica_systems(n: usize, seed: u64) -> Vec<System> {
        (0..n)
            .map(|k| {
                let mut sys = lattice::fcc(4.2, [2, 2, 2], dp_md::units::MASS_CU);
                let mut rng = CounterRng::new(replica_seed(seed ^ 0xABCD, k));
                sys.perturb(0.05, &mut rng);
                sys.init_velocities(120.0 + 20.0 * k as f64, &mut rng);
                sys
            })
            .collect()
    }

    fn opts() -> EnsembleOptions {
        EnsembleOptions {
            dt: 2.0e-3,
            skin: 0.15,
            rebuild_every: 5,
            thermo_every: 4,
            langevin_gamma: Some(2.0),
            seed: 9,
            ..EnsembleOptions::default()
        }
    }

    /// Threaded sub-batch dispatch returns exactly the bits of the
    /// single-threaded batch: 5 replicas over 3 workers exercises the
    /// ragged final chunk, exchange on so the energies feed swaps too.
    #[test]
    fn threaded_eval_matches_single_thread_bit_for_bit() {
        let systems = replica_systems(5, 11);
        let temps = [100.0, 120.0, 140.0, 160.0, 180.0];
        let mut base = opts();
        base.exchange_every = 3;
        let run_with = |eval_threads: usize| {
            let o = EnsembleOptions {
                eval_threads,
                ..base
            };
            let mut engine = EnsembleEngine::new(small_potential(), systems.clone(), &temps, o);
            engine.run(9);
            engine
        };
        let one = run_with(1);
        let three = run_with(3);
        assert_eq!(one.swap_log.len(), three.swap_log.len());
        for (a, b) in one.swap_log.iter().zip(&three.swap_log) {
            assert_eq!(a.to_json(), b.to_json());
        }
        for (ra, rb) in one.replicas.iter().zip(&three.replicas) {
            assert_eq!(ra.potential_energy.to_bits(), rb.potential_energy.to_bits());
            for (pa, pb) in ra.sys.positions.iter().zip(&rb.sys.positions) {
                for d in 0..3 {
                    assert_eq!(pa[d].to_bits(), pb[d].to_bits());
                }
            }
            for (va, vb) in ra.sys.velocities.iter().zip(&rb.sys.velocities) {
                for d in 0..3 {
                    assert_eq!(va[d].to_bits(), vb[d].to_bits());
                }
            }
        }
    }

    /// The headline bit-exactness claim: N engine-batched replicas are
    /// byte-identical to N independent serial `run_md_resumable` runs.
    #[test]
    fn batched_ensemble_is_bit_identical_to_serial_runs() {
        let pot = small_potential();
        let systems = replica_systems(3, 7);
        let temps = [100.0, 140.0, 180.0];
        let opts = opts();
        let steps = 12;

        let mut engine = EnsembleEngine::new(pot.clone(), systems.clone(), &temps, opts);
        engine.run(steps);

        for (k, (mut sys, &t)) in systems.into_iter().zip(&temps).enumerate() {
            let md = opts.md_options_for(t, k);
            let run = run_md_resumable(
                &mut sys,
                pot.as_ref(),
                &md,
                steps,
                MdProgress::default(),
                |_| {},
                None,
            );
            let r = &engine.replicas[k];
            assert_eq!(r.step, steps);
            for i in 0..sys.len() {
                for d in 0..3 {
                    assert_eq!(
                        sys.positions[i][d].to_bits(),
                        r.sys.positions[i][d].to_bits(),
                        "replica {k} position [{i}][{d}] diverged"
                    );
                    assert_eq!(
                        sys.velocities[i][d].to_bits(),
                        r.sys.velocities[i][d].to_bits(),
                        "replica {k} velocity [{i}][{d}] diverged"
                    );
                    assert_eq!(
                        sys.forces[i][d].to_bits(),
                        r.sys.forces[i][d].to_bits(),
                        "replica {k} force [{i}][{d}] diverged"
                    );
                }
            }
            // thermo streams match sample-for-sample (pressure excepted:
            // the batched path cannot attribute the virial per replica)
            assert_eq!(run.thermo.len(), r.thermo.len());
            for (a, b) in run.thermo.iter().zip(&r.thermo) {
                assert_eq!(a.step, b.step);
                assert_eq!(a.potential_energy.to_bits(), b.potential_energy.to_bits());
                assert_eq!(a.kinetic_energy.to_bits(), b.kinetic_energy.to_bits());
                assert_eq!(a.temperature.to_bits(), b.temperature.to_bits());
            }
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        let pot = small_potential();
        let systems = replica_systems(2, 21);
        let temps = [90.0, 150.0];
        let mut opts = opts();
        opts.exchange_every = 4;

        let dir = std::env::temp_dir().join(format!("dp-replica-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("ens.ckpt");

        // straight: 12 ticks, checkpoint at 6
        let mut straight = EnsembleEngine::new(pot.clone(), systems.clone(), &temps, opts);
        straight.run(6);
        straight.save_checkpoint(&base, 2).unwrap();
        straight.run(6);

        // resumed: restore at 6, run the remaining 6
        let mut resumed = EnsembleEngine::resume(pot, opts, &base, 2).unwrap();
        assert_eq!(resumed.step, 6);
        resumed.run(6);

        for (a, b) in straight.replicas.iter().zip(&resumed.replicas) {
            assert_eq!(a.target_t.to_bits(), b.target_t.to_bits());
            for i in 0..a.sys.len() {
                for d in 0..3 {
                    assert_eq!(
                        a.sys.positions[i][d].to_bits(),
                        b.sys.positions[i][d].to_bits()
                    );
                    assert_eq!(
                        a.sys.velocities[i][d].to_bits(),
                        b.sys.velocities[i][d].to_bits()
                    );
                }
            }
        }
        // identical swap decisions after the restart
        let tail: Vec<_> = straight.swap_log.iter().filter(|e| e.step > 6).collect();
        assert_eq!(tail.len(), resumed.swap_log.len());
        for (a, b) in tail.iter().zip(&resumed.swap_log) {
            assert_eq!(a.step, b.step);
            assert_eq!(a.accepted, b.accepted);
            assert_eq!(a.delta.to_bits(), b.delta.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn newest generation falls back to the previous complete one,
    /// and the run resumed from it replays the uninterrupted run bit for
    /// bit.
    #[test]
    fn torn_newest_generation_resumes_from_the_previous_one() {
        let pot = small_potential();
        let systems = replica_systems(2, 5);
        let temps = [100.0, 160.0];
        let mut opts = opts();
        opts.exchange_every = 4;

        let dir = std::env::temp_dir().join(format!("dp-replica-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("ens.ckpt");

        let mut straight = EnsembleEngine::new(pot.clone(), systems, &temps, opts);
        straight.run(6);
        straight.save_checkpoint(&base, 2).unwrap();
        straight.run(6);
        straight.save_checkpoint(&base, 2).unwrap();

        let len = std::fs::metadata(&base).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&base).unwrap();
        f.set_len(len / 2).unwrap();
        drop(f);

        let mut resumed = EnsembleEngine::resume(pot, opts, &base, 2).unwrap();
        assert_eq!(resumed.step, 6);
        resumed.run(6);

        for (a, b) in straight.replicas.iter().zip(&resumed.replicas) {
            assert_eq!(a.target_t.to_bits(), b.target_t.to_bits());
            for i in 0..a.sys.len() {
                for d in 0..3 {
                    assert_eq!(
                        a.sys.positions[i][d].to_bits(),
                        b.sys.positions[i][d].to_bits()
                    );
                    assert_eq!(
                        a.sys.velocities[i][d].to_bits(),
                        b.sys.velocities[i][d].to_bits()
                    );
                }
            }
        }
        let tail: Vec<_> = straight.swap_log.iter().filter(|e| e.step > 6).collect();
        assert!(!tail.is_empty());
        assert_eq!(tail.len(), resumed.swap_log.len());
        for (a, b) in tail.iter().zip(&resumed.swap_log) {
            assert_eq!(
                (a.step, a.i, a.j, a.accepted),
                (b.step, b.i, b.j, b.accepted)
            );
            assert_eq!(a.delta.to_bits(), b.delta.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_swap_changes_the_potential_surface() {
        let pot = small_potential();
        let systems = replica_systems(2, 3);
        let mut engine = EnsembleEngine::new(pot, systems, &[100.0, 120.0], opts());
        engine.run(2);
        let e_before: Vec<f64> = engine.replicas.iter().map(|r| r.potential_energy).collect();

        let cfg = DpConfig::small(1, 4.0, 14);
        let mut rng = CounterRng::new(77);
        let other = Arc::new(DeepPotential::new(
            DpModel::<f64>::new_random(cfg, &mut rng),
            PrecisionMode::Mixed,
        ));
        engine.swap_model(other);
        let e_after: Vec<f64> = engine.replicas.iter().map(|r| r.potential_energy).collect();
        assert!(e_before
            .iter()
            .zip(&e_after)
            .any(|(a, b)| (a - b).abs() > 1e-9));
        engine.run(2);
        for r in &engine.replicas {
            assert!(r.potential_energy.is_finite());
        }
    }

    /// `run(n)` ends on a thermo sample whether or not its last step is on
    /// the stride, and every sample is taken once.
    #[test]
    fn run_ends_on_a_thermo_sample() {
        let mut engine = EnsembleEngine::new(
            small_potential(),
            replica_systems(2, 4),
            &[90.0, 130.0],
            opts(),
        );
        engine.run(6);
        engine.run(4);
        for r in &engine.replicas {
            let steps: Vec<usize> = r.thermo.iter().map(|t| t.step).collect();
            assert_eq!(steps, [0, 4, 6, 8, 10]);
        }
    }

    /// A zero rebuild-check or thermo stride is refused when the engine is
    /// built (a zero thermo stride used to record nothing after step 0).
    #[test]
    fn zero_strides_rejected() {
        for (rebuild_every, thermo_every) in [(0, 4), (5, 0)] {
            let o = EnsembleOptions {
                rebuild_every,
                thermo_every,
                ..opts()
            };
            let err = std::panic::catch_unwind(|| {
                EnsembleEngine::new(small_potential(), replica_systems(1, 1), &[100.0], o)
            })
            .err()
            .expect("engine built with a zero stride");
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("must be positive"), "{msg}");
        }
    }

    #[test]
    fn replica_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000 {
            assert!(seen.insert(replica_seed(42, k)));
        }
    }
}

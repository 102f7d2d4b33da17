//! Domain-decomposition MD driver: the distributed-memory layer (§5.4).
//!
//! On Summit the paper runs 6 MPI ranks per node, each bound to a GPU,
//! with LAMMPS maintaining the spatial partitioning, ghost-region exchange
//! and global reductions. Here each MPI rank is an OS thread, messages
//! travel over `std::sync::mpsc` channels, and the same three communication
//! patterns are reproduced:
//!
//! * **forward (ghost) communication** — positions of atoms near domain
//!   faces are copied to the neighboring ranks before every force
//!   evaluation (`halo`, driven by [`driver`]),
//! * **reverse (force) communication** — forces accumulated on ghost
//!   copies are sent back and summed into the owners (the DP force
//!   decomposition makes this identical to LAMMPS `newton on`),
//! * **global reductions** — energy/virial/temperature allreduces on the
//!   output stride only, the paper's reduced-output-frequency
//!   optimization,
//! * **parallel setup** (§7.3) — replicated build-and-scatter versus
//!   rank-local construction ([`setup`]).
//!
//! # Fault tolerance
//!
//! Long campaigns (the paper's week-scale, full-machine runs) make rank
//! failure routine rather than exceptional. The comm layer returns typed
//! [`CommError`]s with deadlines instead of panicking, [`fault`] injects
//! one deterministic schedule of failures (rank kills, message drops and
//! delays, checkpoint and shard sabotage) for tests and drills, written
//! by hand or expanded from a seed by [`chaos`], and [`run_parallel_md`]
//! supervises the rank threads: every failure ends the epoch, and the
//! next one resumes bit-exactly from a reloaded checkpoint — the per-rank
//! shards when one rank died, else the newest valid global generation —
//! or a typed [`RunError`] surfaces once the retry budgets are spent.

mod audit;
pub mod chaos;
pub mod comm;
pub mod driver;
pub mod fault;
pub mod grid;
mod halo;
mod rank;
pub mod setup;
mod shard;

pub use chaos::{expand_chaos, ChaosSpec};
pub use comm::{Allreduce, CommError, Envelope, RankComm, DEFAULT_DEADLINE};
pub use driver::{
    run_parallel_md, AuditFailure, ParallelCkpt, ParallelOptions, ParallelRun, RunError,
};
pub use fault::{
    BreakInvariant, CkptFault, CkptSabotage, DelaySpec, FaultPlan, FaultState, KillSpec,
    MsgSelector, ShardTear,
};
pub use grid::DomainGrid;

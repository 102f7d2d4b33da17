//! Checkpoint/restart subsystem.
//!
//! The paper's headline results are multi-hour trajectories on thousands of
//! GPUs (§6–7); at that scale production MD is only usable with restart
//! files, which LAMMPS — the driver DeePMD-kit embeds into — provides and
//! which this crate supplies for the reproduction:
//!
//! * [`format`] — a versioned binary container: magic + format version +
//!   CRC32-guarded sections, written atomically (tmp + fsync + rename),
//! * [`rotation`] — retention of the last K generations with
//!   corruption-detecting load that falls back to the newest valid file,
//! * [`codec`] — bit-exact little-endian encoding primitives, so a resumed
//!   trajectory continues on the identical floating-point path,
//! * [`crc32`] — the self-contained checksum.
//!
//! Domain payloads are defined next to their owners: the MD atom-state
//! payload in `dp-md` (`dp_md::checkpoint::MdCheckpoint`), Adam training
//! state in `dp-train`. A rank shard (`dp-parallel`) and an ensemble
//! generation (`dp-replica`) each nest `MdCheckpoint` payloads inside
//! their own container kind, and every checkpoint file of every kind
//! reaches disk through a [`Rotation`]. The kinds are the `KIND_*`
//! constants of [`format`]. This crate is deliberately dependency-free so
//! every layer of the workspace can use it.

pub mod codec;
pub mod crc32;
pub mod format;
pub mod rotation;

pub use codec::{Dec, Enc};
pub use format::{
    CkptReader, CkptWriter, FORMAT_VERSION, KIND_ENSEMBLE, KIND_MD, KIND_SHARD, KIND_TRAIN, MAGIC,
};
pub use rotation::Rotation;

/// Everything that can go wrong loading a checkpoint.
#[derive(Debug)]
pub enum CkptError {
    Io(std::io::Error),
    /// Not a checkpoint file at all.
    BadMagic,
    /// Written by an incompatible format revision.
    UnsupportedVersion(u32),
    /// Valid container, wrong payload (e.g. a training checkpoint passed
    /// to `--resume` of an MD run).
    WrongKind {
        expected: u32,
        found: u32,
    },
    /// File or section ends early (torn write).
    Truncated,
    /// Section checksum mismatch (bit rot / partial overwrite).
    BadCrc {
        tag: [u8; 4],
    },
    /// Payload lacks a required section.
    MissingSection([u8; 4]),
    /// Payload sections decoded, but the content is inconsistent.
    Malformed(String),
    /// Every retained rotation slot failed validation.
    NoValidCheckpoint {
        tried: String,
    },
}

fn tag_str(tag: &[u8; 4]) -> String {
    String::from_utf8_lossy(tag).trim_end().to_string()
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint format version {v} (expected {FORMAT_VERSION})"
                )
            }
            CkptError::WrongKind { expected, found } => {
                write!(f, "wrong checkpoint kind {found} (expected {expected})")
            }
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::BadCrc { tag } => {
                write!(f, "checksum mismatch in section '{}'", tag_str(tag))
            }
            CkptError::MissingSection(tag) => {
                write!(f, "missing section '{}'", tag_str(tag))
            }
            CkptError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CkptError::NoValidCheckpoint { tried } => {
                write!(f, "no valid checkpoint found ({tried})")
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

//! The on-disk checkpoint container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      [u8; 8]   "DPCKPT00"
//! version    u32       FORMAT_VERSION
//! kind       u32       payload kind (MD run, training, ...)
//! n_sections u32
//! per section:
//!   tag      [u8; 4]
//!   len      u64       payload byte count
//!   crc32    u32       CRC-32 over tag + payload
//!   payload  [u8; len]
//! ```
//!
//! The CRC covers the tag as well as the payload (as in PNG chunks), so a
//! corrupted tag cannot silently rename a section, and any bytes after the
//! declared sections make the file invalid, so a damaged section count
//! cannot silently drop state.
//!
//! Writes go to `<path>.tmp` first, are fsynced, and then renamed over the
//! destination, so a crash mid-write can never leave a half-written file
//! under the checkpoint name — the same discipline LAMMPS restart files
//! rely on for multi-hour production runs.

use crate::crc32::Crc32;
use crate::CkptError;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// First 8 bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"DPCKPT00";

/// Bumped whenever the container or a payload codec changes
/// incompatibly; loaders refuse newer/older versions instead of
/// misinterpreting bytes.
pub const FORMAT_VERSION: u32 = 1;

/// Payload kind for serial/parallel MD state ([`System`]-level snapshots).
pub const KIND_MD: u32 = 1;
/// Payload kind for training state (net weights + Adam moments).
pub const KIND_TRAIN: u32 = 2;
/// Payload kind for one rank's domain shard (localized recovery): a rank
/// label, the owned atoms' global ids and one nested [`KIND_MD`] payload.
pub const KIND_SHARD: u32 = 3;
/// Payload kind for one ensemble generation: engine state plus every
/// replica's nested [`KIND_MD`] payload.
pub const KIND_ENSEMBLE: u32 = 4;

/// In-memory builder for one checkpoint file.
#[derive(Debug, Clone)]
pub struct CkptWriter {
    kind: u32,
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl CkptWriter {
    pub fn new(kind: u32) -> Self {
        Self {
            kind,
            sections: Vec::new(),
        }
    }

    /// Append one CRC-guarded section.
    pub fn add_section(&mut self, tag: [u8; 4], payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// Serialize header + sections to a single buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = self.sections.iter().map(|(_, p)| 4 + 8 + 4 + p.len()).sum();
        let mut out = Vec::with_capacity(8 + 4 + 4 + 4 + body);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&section_crc(tag, payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Atomic write: tmp file + fsync + rename.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        match fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

fn section_crc(tag: &[u8; 4], payload: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(tag);
    h.update(payload);
    h.finish()
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A validated, fully-loaded checkpoint file.
#[derive(Debug, Clone)]
pub struct CkptReader {
    /// Payload kind declared in the header.
    pub kind: u32,
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl CkptReader {
    /// Parse and validate a checkpoint image: magic, version, and every
    /// section CRC are checked up front so callers never see partially
    /// valid state.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CkptError> {
        if buf.len() < 8 + 4 + 4 + 4 {
            return Err(CkptError::Truncated);
        }
        if buf[..8] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        let kind = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        let n_sections = u32::from_le_bytes(buf[16..20].try_into().unwrap()) as usize;
        let mut pos = 20usize;
        let mut sections = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            if buf.len() < pos + 4 + 8 + 4 {
                return Err(CkptError::Truncated);
            }
            let tag: [u8; 4] = buf[pos..pos + 4].try_into().unwrap();
            let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap());
            let crc = u32::from_le_bytes(buf[pos + 12..pos + 16].try_into().unwrap());
            pos += 16;
            if ((buf.len() - pos) as u64) < len {
                return Err(CkptError::Truncated);
            }
            let payload = &buf[pos..pos + len as usize];
            if section_crc(&tag, payload) != crc {
                return Err(CkptError::BadCrc { tag });
            }
            pos += len as usize;
            sections.push((tag, payload.to_vec()));
        }
        if pos != buf.len() {
            return Err(CkptError::Malformed(format!(
                "{} trailing bytes after the last section",
                buf.len() - pos
            )));
        }
        Ok(Self { kind, sections })
    }

    /// Load + validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CkptError> {
        let buf = fs::read(path)?;
        Self::from_bytes(&buf)
    }

    /// Borrow a section payload by tag.
    pub fn section(&self, tag: [u8; 4]) -> Result<&[u8], CkptError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| p.as_slice())
            .ok_or(CkptError::MissingSection(tag))
    }

    /// Error unless the header declares the expected payload kind.
    pub fn expect_kind(&self, kind: u32) -> Result<(), CkptError> {
        if self.kind != kind {
            return Err(CkptError::WrongKind {
                expected: kind,
                found: self.kind,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CkptWriter {
        let mut w = CkptWriter::new(KIND_MD);
        w.add_section(*b"META", vec![1, 2, 3, 4]);
        w.add_section(*b"POS ", (0u8..200).collect());
        w
    }

    #[test]
    fn roundtrip() {
        let bytes = sample().to_bytes();
        let r = CkptReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.kind, KIND_MD);
        assert_eq!(r.section(*b"META").unwrap(), &[1, 2, 3, 4]);
        assert_eq!(r.section(*b"POS ").unwrap().len(), 200);
        assert!(matches!(
            r.section(*b"NOPE"),
            Err(CkptError::MissingSection(_))
        ));
        r.expect_kind(KIND_MD).unwrap();
        assert!(matches!(
            r.expect_kind(KIND_TRAIN),
            Err(CkptError::WrongKind { .. })
        ));
    }

    #[test]
    fn every_truncation_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = CkptReader::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, CkptError::Truncated), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn every_payload_bitflip_detected() {
        let bytes = sample().to_bytes();
        // flip one bit inside the POS payload (last 200 bytes)
        for i in bytes.len() - 200..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(
                    CkptReader::from_bytes(&bad),
                    Err(CkptError::BadCrc { tag }) if tag == *b"POS "
                ),
                "flip at byte {i} undetected"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            CkptReader::from_bytes(&bytes),
            Err(CkptError::BadMagic)
        ));
        let mut bytes = sample().to_bytes();
        bytes[8] = 0xFF; // version -> huge
        assert!(matches!(
            CkptReader::from_bytes(&bytes),
            Err(CkptError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn kinds_are_distinct_and_checked() {
        let kinds = [KIND_MD, KIND_TRAIN, KIND_SHARD, KIND_ENSEMBLE];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let shard = CkptReader::from_bytes(&CkptWriter::new(KIND_SHARD).to_bytes()).unwrap();
        assert!(matches!(
            shard.expect_kind(KIND_ENSEMBLE),
            Err(CkptError::WrongKind {
                expected: KIND_ENSEMBLE,
                found: KIND_SHARD
            })
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join("dp-ckpt-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.ckpt");
        sample().write_atomic(&path).unwrap();
        let r = CkptReader::load(&path).unwrap();
        assert_eq!(r.section(*b"META").unwrap(), &[1, 2, 3, 4]);
        // no stray tmp file left behind
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }
}

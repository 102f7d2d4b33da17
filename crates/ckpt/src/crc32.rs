//! CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.
//!
//! Every checkpoint section carries its CRC so that a torn write, a bad
//! disk, or a flipped bit is detected at load time instead of silently
//! corrupting a multi-hour trajectory. Self-contained because the container
//! policy forbids new external dependencies.

const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built once at first use.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    })
}

/// CRC-32 of `data` (the common zlib/PNG/gzip variant).
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Streaming CRC-32, for checksums over discontiguous spans (the section
/// format covers tag + payload without concatenating them).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        let t = table();
        for &b in data {
            self.state = t[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // canonical check value for the IEEE polynomial
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 256];
        let base = crc32(&data);
        for i in 0..data.len() {
            data[i] ^= 0x10;
            assert_ne!(crc32(&data), base, "flip at byte {i} undetected");
            data[i] ^= 0x10;
        }
    }
}

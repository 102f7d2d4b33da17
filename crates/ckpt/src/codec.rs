//! Little-endian binary encoding primitives for checkpoint sections.
//!
//! Floats are stored as raw IEEE-754 bit patterns, so a save/load round
//! trip is bit-exact — the property the resume-determinism guarantee of the
//! whole subsystem rests on.

use crate::CkptError;

/// Append-only byte encoder.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed f64 slice.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Length-prefixed [f64; 3] slice (positions, velocities, forces).
    pub fn put_vec3s(&mut self, v: &[[f64; 3]]) {
        self.put_u64(v.len() as u64);
        for t in v {
            for &x in t {
                self.put_f64(x);
            }
        }
    }

    /// Length-prefixed usize slice, stored as u64.
    pub fn put_usizes(&mut self, v: &[usize]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x as u64);
        }
    }

    /// Length-prefixed raw bytes (e.g. an embedded JSON document).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-based decoder over a section payload; every read is
/// bounds-checked so truncated payloads surface as [`CkptError::Truncated`]
/// rather than panics.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    fn get_len(&mut self) -> Result<usize, CkptError> {
        let n = self.get_u64()?;
        // guard against a corrupt length allocating petabytes
        if n > (self.remaining() as u64) {
            return Err(CkptError::Truncated);
        }
        Ok(n as usize)
    }

    pub fn get_f64s(&mut self) -> Result<Vec<f64>, CkptError> {
        let n = self.get_len()?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    pub fn get_vec3s(&mut self) -> Result<Vec<[f64; 3]>, CkptError> {
        let n = self.get_len()?;
        (0..n)
            .map(|_| Ok([self.get_f64()?, self.get_f64()?, self.get_f64()?]))
            .collect()
    }

    pub fn get_usizes(&mut self) -> Result<Vec<usize>, CkptError> {
        let n = self.get_len()?;
        (0..n).map(|_| Ok(self.get_u64()? as usize)).collect()
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.get_len()?;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_u64(u64::MAX - 1);
        e.put_f64(-0.0);
        e.put_f64(f64::MIN_POSITIVE);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn slice_roundtrip_is_bit_exact() {
        let v3 = vec![[1.5, -2.25, 1e-300], [f64::MAX, 0.1 + 0.2, -0.0]];
        let fs = vec![0.3, f64::EPSILON, 1e18];
        let us = vec![0usize, 1, usize::MAX >> 1];
        let mut e = Enc::new();
        e.put_vec3s(&v3);
        e.put_f64s(&fs);
        e.put_usizes(&us);
        e.put_bytes(b"{\"k\":1}");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let v3b = d.get_vec3s().unwrap();
        for (a, b) in v3.iter().zip(&v3b) {
            for k in 0..3 {
                assert_eq!(a[k].to_bits(), b[k].to_bits());
            }
        }
        assert_eq!(d.get_f64s().unwrap(), fs);
        assert_eq!(d.get_usizes().unwrap(), us);
        assert_eq!(d.get_bytes().unwrap(), b"{\"k\":1}");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.put_f64s(&[1.0, 2.0, 3.0]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(matches!(d.get_f64s(), Err(CkptError::Truncated)));
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut e = Enc::new();
        e.put_u64(u64::MAX); // claims ~2^64 elements follow
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.get_f64s(), Err(CkptError::Truncated)));
    }
}

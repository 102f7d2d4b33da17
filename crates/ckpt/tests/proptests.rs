//! Property-style tests for the checkpoint container: arbitrary section
//! sets survive a byte-level round trip unchanged, and every corruption
//! (truncation, bit flip, header damage) is detected.
//!
//! Uses a self-contained splitmix64 generator (not `dp_md::CounterRng`, the
//! one the other property suites draw from) so the suite stays
//! dependency-free like the crate itself.

use dp_ckpt::format::{KIND_MD, KIND_TRAIN};
use dp_ckpt::{CkptError, CkptReader, CkptWriter, Dec, Enc};

/// Deterministic 64-bit generator (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn f64(&mut self) -> f64 {
        // bias toward awkward values: subnormals, negative zero, huge/tiny
        match self.below(8) {
            0 => -0.0,
            1 => f64::MIN_POSITIVE / 2.0, // subnormal
            2 => f64::MAX,
            3 => -1e-300,
            _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2e3 - 1e3,
        }
    }
}

/// The `(tag, payload)` sections a writer was given, in order.
type Sections = Vec<([u8; 4], Vec<u8>)>;

fn random_writer(g: &mut Gen) -> (CkptWriter, Sections) {
    let kind = if g.below(2) == 0 { KIND_MD } else { KIND_TRAIN };
    let mut w = CkptWriter::new(kind);
    let n_sections = 1 + g.below(6) as usize;
    let mut expect = Vec::new();
    for s in 0..n_sections {
        let tag = [b'A' + s as u8, b'B', b'C', b' '];
        let mut e = Enc::new();
        let n = g.below(64) as usize;
        let vals: Vec<f64> = (0..n).map(|_| g.f64()).collect();
        e.put_u64(n as u64);
        for &v in &vals {
            e.put_f64(v);
        }
        let payload = e.into_bytes();
        expect.push((tag, payload.clone()));
        w.add_section(tag, payload);
    }
    (w, expect)
}

#[test]
fn arbitrary_sections_roundtrip_bit_exact() {
    let mut g = Gen(0xDEC0DE);
    for _ in 0..200 {
        let (w, expect) = random_writer(&mut g);
        let bytes = w.to_bytes();
        let r = CkptReader::from_bytes(&bytes).unwrap();
        for (tag, payload) in &expect {
            assert_eq!(r.section(*tag).unwrap(), payload.as_slice());
            // decode the f64 payload back and compare bit patterns
            let mut d = Dec::new(payload);
            let n = d.get_u64().unwrap();
            let mut d2 = Dec::new(r.section(*tag).unwrap());
            assert_eq!(d2.get_u64().unwrap(), n);
            for _ in 0..n {
                assert_eq!(
                    d.get_f64().unwrap().to_bits(),
                    d2.get_f64().unwrap().to_bits()
                );
            }
        }
    }
}

#[test]
fn arbitrary_truncations_rejected() {
    let mut g = Gen(0xBAD5EED);
    for _ in 0..50 {
        let (w, _) = random_writer(&mut g);
        let bytes = w.to_bytes();
        // every strict prefix must fail (never panic, never succeed)
        let cut = g.below(bytes.len() as u64) as usize;
        assert!(
            matches!(
                CkptReader::from_bytes(&bytes[..cut]),
                Err(CkptError::Truncated) | Err(CkptError::BadMagic)
            ),
            "prefix of len {cut} accepted"
        );
    }
}

#[test]
fn arbitrary_bitflips_rejected() {
    let mut g = Gen(0xF11B);
    for _ in 0..100 {
        let (w, _) = random_writer(&mut g);
        let bytes = w.to_bytes();
        let mut bad = bytes.clone();
        let i = g.below(bad.len() as u64) as usize;
        let bit = 1u8 << g.below(8);
        bad[i] ^= bit;
        if bad == bytes {
            continue;
        }
        // A flip may hit magic, version, kind, counts, lengths, CRCs or
        // payloads. Loading must either fail, or (flips confined to the
        // kind field) still validate every CRC — it must never return
        // sections that differ from what was written.
        if let Ok(r) = CkptReader::from_bytes(&bad) {
            let orig = CkptReader::from_bytes(&bytes).unwrap();
            for s in 0..26u8 {
                let tag = [b'A' + s, b'B', b'C', b' '];
                match (orig.section(tag), r.section(tag)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "payload silently changed"),
                    (Err(_), Err(_)) => {}
                    _ => panic!("section set changed silently"),
                }
            }
        }
    }
}

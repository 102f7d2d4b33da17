//! Fuzz suite for the daemon's HTTP request reader,
//! `dp_serve::http::read_request`.
//!
//! Valid `/v1/eval` requests are mutated by truncation at any byte, byte
//! flips, duplicated, conflicting and oversized headers, a
//! `Content-Length` off by one or past `MAX_BODY`, and non-UTF-8 bytes.
//! Whatever arrives, the reader answers `Ok` or a typed `ParseError`: it
//! never panics, and an accepted body is never longer than `MAX_BODY`.
//! A case carrying one mutation must also get that mutation's answer (a
//! conflicting length is a 400, a truncated request never parses).
//!
//! Seeded case loops on `CounterRng`, as in the workspace's property
//! suites: a failure names its case, which replays alone. The suite lives
//! in the root crate so `dp-serve` keeps no dependency beyond `dp-obs`.

use dp_md::rng::for_cases;
use dp_md::CounterRng;
use dp_serve::http::{read_request, ParseError, Request, MAX_BODY, MAX_HEADERS, MAX_LINE};
use std::io::BufReader;

const CASES: u64 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    Truncate,
    FlipBytes,
    DuplicateHeader,
    ConflictingLength,
    LengthOffByOne(i8),
    HugeLength,
    OversizedHeader,
    TooManyHeaders,
    NonUtf8,
}

/// One mutated request: its bytes, the body it was framed around, and
/// the mutations applied (in order).
struct Case {
    raw: Vec<u8>,
    body: Vec<u8>,
    mutations: Vec<Mutation>,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = String::from_utf8_lossy(&self.raw);
        let shown: String = text.chars().take(600).collect();
        write!(
            f,
            "{:?} ({} bytes): {shown:?}",
            self.mutations,
            self.raw.len()
        )
    }
}

/// A well-formed eval body: a few atoms at random places in a 10 Å box.
fn eval_body(rng: &mut CounterRng) -> Vec<u8> {
    let positions: Vec<String> = (0..1 + rng.below(6))
        .map(|_| {
            let r: Vec<String> = (0..3)
                .map(|_| format!("{}", rng.range(0.0, 10.0)))
                .collect();
            format!("[{}]", r.join(", "))
        })
        .collect();
    format!(
        "{{\"cell\": [10.0, 10.0, 10.0], \"positions\": [{}], \"per_atom\": true}}",
        positions.join(", ")
    )
    .into_bytes()
}

fn render(headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut raw = b"POST /v1/eval HTTP/1.1\r\n".to_vec();
    for (name, value) in headers {
        raw.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    raw.extend_from_slice(body);
    raw
}

fn draw(rng: &mut CounterRng) -> Case {
    let body = eval_body(rng);
    let len = body.len();
    let mut headers = vec![
        ("Host".to_string(), "localhost".to_string()),
        ("Content-Type".to_string(), "application/json".to_string()),
        ("Content-Length".to_string(), len.to_string()),
    ];
    // One case in eight stays valid; the rest take one to three mutations.
    let count = match rng.below(8) {
        0 => 0,
        1..=4 => 1,
        _ => 2 + rng.below(2),
    };
    let mutations: Vec<Mutation> = (0..count)
        .map(|_| match rng.below(10) {
            0 | 1 => Mutation::Truncate,
            2 => Mutation::FlipBytes,
            3 => Mutation::DuplicateHeader,
            4 => Mutation::ConflictingLength,
            5 => Mutation::LengthOffByOne(if rng.below(2) == 0 { -1 } else { 1 }),
            6 => Mutation::HugeLength,
            7 => Mutation::OversizedHeader,
            8 => Mutation::TooManyHeaders,
            _ => Mutation::NonUtf8,
        })
        .collect();

    let at = |rng: &mut CounterRng, n: usize| rng.below(n as u64 + 1) as usize;
    // Header-level mutations first, then render, then byte-level ones.
    for m in &mutations {
        match *m {
            Mutation::DuplicateHeader => {
                let copy = headers[rng.below(headers.len() as u64) as usize].clone();
                let i = at(rng, headers.len());
                headers.insert(i, copy);
            }
            Mutation::ConflictingLength => {
                let other = (len as u64 + 1 + rng.below(10)).to_string();
                let i = at(rng, headers.len());
                headers.insert(i, ("Content-Length".into(), other));
            }
            Mutation::LengthOffByOne(d) => {
                let value = (len as i64 + d as i64).to_string();
                set_length(&mut headers, &value);
            }
            Mutation::HugeLength => {
                let value = match rng.below(3) {
                    0 => (MAX_BODY + 1).to_string(),
                    1 => (MAX_BODY as u64 + 1 + rng.below(1 << 40)).to_string(),
                    _ => "9".repeat(20 + rng.below(20) as usize),
                };
                set_length(&mut headers, &value);
            }
            Mutation::OversizedHeader => {
                let value = "x".repeat(MAX_LINE + rng.below(64) as usize);
                let i = at(rng, headers.len());
                headers.insert(i, ("X-Pad".into(), value));
            }
            Mutation::TooManyHeaders => {
                for k in 0..MAX_HEADERS {
                    headers.insert(0, (format!("X-Extra-{k}"), "1".into()));
                }
            }
            _ => {}
        }
    }
    let mut raw = render(&headers, &body);
    for m in &mutations {
        match *m {
            Mutation::Truncate if !raw.is_empty() => {
                raw.truncate(rng.below(raw.len() as u64) as usize)
            }
            Mutation::FlipBytes if !raw.is_empty() => {
                for _ in 0..1 + rng.below(4) {
                    let i = rng.below(raw.len() as u64) as usize;
                    raw[i] ^= 1 + rng.below(255) as u8;
                }
            }
            Mutation::NonUtf8 => {
                const BAD: [u8; 4] = [0x80, 0xC3, 0xFE, 0xFF];
                for _ in 0..1 + rng.below(3) {
                    let i = at(rng, raw.len());
                    raw.insert(i, BAD[rng.below(4) as usize]);
                }
            }
            _ => {}
        }
    }
    Case {
        raw,
        body,
        mutations,
    }
}

/// Replace every `Content-Length` header's value.
fn set_length(headers: &mut [(String, String)], value: &str) {
    for (name, v) in headers.iter_mut() {
        if name == "Content-Length" {
            *v = value.to_string();
        }
    }
}

fn malformed(r: &Result<Request, ParseError>) -> bool {
    matches!(r, Err(ParseError::Malformed(_)))
}

#[test]
fn mutated_eval_requests_parse_or_fail_typed() {
    for_cases(0x4E71, CASES, draw, |case| {
        let result = read_request(&mut BufReader::new(&case.raw[..]));
        // An `Err` is a `ParseError` by type; what remains to check is
        // that an accepted body stays in bounds and came off the wire.
        if let Ok(req) = &result {
            assert!(
                req.body.len() <= MAX_BODY,
                "body of {} bytes",
                req.body.len()
            );
            assert!(
                req.body.is_empty() || case.raw.windows(req.body.len()).any(|w| w == req.body),
                "accepted body is not a run of the input's bytes"
            );
        }
        let ok_with =
            |body: &[u8]| matches!(&result, Ok(r) if r.path == "/v1/eval" && r.body == body);
        match case.mutations[..] {
            [] | [Mutation::DuplicateHeader] => assert!(ok_with(&case.body), "{result:?}"),
            [Mutation::LengthOffByOne(-1)] => {
                assert!(ok_with(&case.body[..case.body.len() - 1]), "{result:?}")
            }
            [Mutation::Truncate] => assert!(result.is_err(), "{result:?}"),
            [Mutation::HugeLength] => assert!(
                matches!(result, Err(ParseError::TooLarge)) || malformed(&result),
                "{result:?}"
            ),
            [Mutation::ConflictingLength]
            | [Mutation::LengthOffByOne(_)]
            | [Mutation::OversizedHeader]
            | [Mutation::TooManyHeaders] => assert!(malformed(&result), "{result:?}"),
            _ => {}
        }
    });
}

//! Conformance table for the workspace's one JSON codec. It replaces the
//! external oracle the obs tests used to get from another parser: accept
//! and reject vectors for the grammar, and a seeded sweep proving the
//! writer/parser pair is the identity on `f64` bits.

use dp_obs::json::{num, str, Json, MAX_DEPTH, MAX_EXACT_INT};

/// `document => its canonical re-serialization`, one per line.
const ACCEPT: &str = r#"
null => null
  true   => true
false => false
0 => 0
-0 => -0
10 => 10
1.5e3 => 1500
1E-2 => 0.01
2e+2 => 200
-0.25 => -0.25
"" => ""
"a\"b\\c\/d\b\f\n\r\t" => "a\"b\\c/d\u0008\u000c\n\r\t"
"\u00e9\u0041" => "éA"
"\ud83d\ude00 \uD834\uDD1E" => "😀 𝄞"
"é 😀 raw" => "é 😀 raw"
[] => []
{} => {}
[1, [2, []], {"a": null}] => [1,[2,[]],{"a":null}]
{"b":1, "a":[true], "":{}} => {"":{},"a":[true],"b":1}
"#;

/// One rejected document per line.
const REJECT: &str = r#"
{
[1,
[1,]
{"a":1,}
{"a":}
{"a" 1}
{a:1}
{'a':1}
tru
nul
1 2
{} x
-
+1
01
-01
1.
.5
1.e3
1e
1e+
0x10
1e999
NaN
Infinity
"unterminated
"bad \q escape"
"\u12"
"\u+123"
"\ud83d"
"\ud83dA"
"\ude00"
{"steps": 10, "steps": 99999}
{"a": {"k": 1, "k": 1}}
"#;

fn nested(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

#[test]
fn accepts() {
    for line in ACCEPT.lines().filter(|l| !l.is_empty()) {
        let (text, canonical) = line.split_once(" => ").unwrap();
        let v = Json::parse(text).unwrap_or_else(|e| panic!("rejected {text:?}: {e}"));
        assert_eq!(v.to_string(), canonical, "{text}");
        assert_eq!(Json::parse(canonical).unwrap(), v, "{canonical}");
    }
    let ws = Json::parse("\t{\"b\":1,\r\n\"a\":[true]}\n").unwrap();
    assert_eq!(ws.to_string(), r#"{"a":[true],"b":1}"#);
    assert!(Json::parse(&nested(MAX_DEPTH)).is_ok(), "at the limit");
}

#[test]
fn rejects() {
    let deep = nested(MAX_DEPTH + 1);
    let odd = ["", " ", "\"raw\nnewline\"", "\"raw\ttab\"", deep.as_str()];
    for text in REJECT.lines().filter(|l| !l.is_empty()).chain(odd) {
        assert!(Json::parse(text).is_err(), "accepted {text:?}");
    }
    let err = Json::parse("{\"steps\": 10, \"steps\": 99999}").unwrap_err();
    assert!(err.contains("duplicate key \"steps\""), "{err}");
}

/// splitmix64: a seeded stream with no dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn round_trip(x: f64) {
    let text = num(x).to_string();
    let back = Json::parse(&text).unwrap().as_f64().unwrap();
    assert_eq!(back.to_bits(), x.to_bits(), "{x:e} -> {text}");
}

#[test]
fn f64_bits_survive_write_then_parse() {
    // signed zero, MIN_POSITIVE, the smallest subnormal, MAX, MIN, EPSILON, ±2^53
    let edges = "0 -0 0.1 0.3333333333333333 -3.004182734612987e-7 123456789.12345679 \
        2.2250738585072014e-308 5e-324 1.7976931348623157e308 -1.7976931348623157e308 \
        2.220446049250313e-16 9007199254740992 9007199254740991 -9007199254740992";
    for x in edges.split_whitespace() {
        round_trip(x.parse().unwrap());
    }
    let mut state = 0xD9_2020;
    for _ in 0..20_000 {
        // any bit pattern (normals of every exponent), a subnormal, and an
        // integer below 2^53
        let x = f64::from_bits(splitmix(&mut state));
        if x.is_finite() {
            round_trip(x);
        }
        round_trip(f64::from_bits(splitmix(&mut state) >> 12));
        round_trip((splitmix(&mut state) >> 11) as f64);
    }
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(num(x).to_string(), "null");
    }
}

#[test]
fn exact_integer_accessor_refuses_rounded_values() {
    let int = |text: &str| Json::parse(text).unwrap().as_u64();
    assert_eq!(
        [int("0"), int("7.0"), int("1e3")].map(Option::unwrap),
        [0, 7, 1000]
    );
    assert_eq!(int("9007199254740991"), Some(MAX_EXACT_INT));
    for text in "-1 3.5 9007199254740992 9007199254740993 1e300 \"3\"".split(' ') {
        assert_eq!(int(text), None, "{text}");
    }
    assert_eq!(Json::parse("3").unwrap().as_usize(), Some(3));
    assert_eq!(Json::parse("4294967296").unwrap().as_usize(), None);
}

#[test]
fn accessors_and_string_escapes() {
    let v = Json::parse(r#"{"model":"demo","cell":[20,2.5],"per_atom":true}"#).unwrap();
    assert_eq!(v.get("model").and_then(Json::as_str), Some("demo"));
    let cell = v.get("cell").and_then(Json::as_arr).unwrap();
    assert_eq!((cell.len(), cell[1].as_f64()), (2, Some(2.5)));
    assert_eq!(v.get("per_atom").and_then(Json::as_bool), Some(true));
    assert_eq!((v.get("missing"), cell[0].get("x")), (None, None));

    let s = "line\nbreak \"quoted\" back\\slash tab\t ctl\u{1} unicode é 😀";
    let text = str(s).to_string();
    assert!(text.contains("\\u0001") && text.contains("\\n"), "{text}");
    assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
}

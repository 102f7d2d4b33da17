//! The workspace's one JSON codec, std-only: a value tree, a strict
//! recursive-descent parser and a canonical writer.
//!
//! Everything that reads or writes JSON goes through here — input decks,
//! model files (`deepmd_core::model`), the serving daemon's wire format
//! (`dp_serve::json` re-exports this module), the benchmark ledger, and
//! dp-obs's own JSONL / chrome-trace / flight-recorder lines, which are
//! hand-shaped with `format!` but take every string and number from
//! [`str`] and [`num`]. It lives in dp-obs because every crate that needs
//! JSON already links it.
//!
//! Numbers are `f64` printed with Rust's shortest-round-trip `Display`,
//! so any finite value re-parses to the same bits and textual equality of
//! two documents implies bit equality of the numbers in them (the batch
//! scheduler's bit-identity guarantee and the trainer's exact resume both
//! rest on this). Integers are exact up to [`MAX_EXACT_INT`]; use
//! [`Json::as_u64`] wherever a count or seed is read.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Container nesting limit. No document this workspace produces nests
/// deeper than ~6 levels, and a bounded recursion depth keeps adversarial
/// request bodies from overflowing a connection thread's stack.
pub const MAX_DEPTH: usize = 64;

/// Largest integer [`Json::as_u64`] returns: 2⁵³ − 1. Every integer up to
/// here is exactly one `f64`; 2⁵³ itself is refused because the text
/// `9007199254740993` would round onto it.
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// A parsed JSON document. Object keys are sorted (BTreeMap) so emitted
/// documents are canonical.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Strict RFC 8259 parse of one document. Beyond the grammar it
    /// rejects duplicate object keys (a deck that sets `"steps"` twice
    /// must not silently keep the last), lone surrogates, numbers that
    /// overflow `f64`, nesting past [`MAX_DEPTH`] and trailing bytes.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// An exact non-negative integer: integral and at most
    /// [`MAX_EXACT_INT`], so nothing was rounded on the way in.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_EXACT_INT as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// [`as_u64`](Self::as_u64) bounded to `u32::MAX`, for request fields
    /// that size an allocation.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64()
            .filter(|&x| x <= u32::MAX as u64)
            .map(|x| x as usize)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, x)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    x.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serialization (`to_string()`, or `{}` inside a hand-shaped line):
/// numbers use Rust's shortest-round-trip float `Display`, so an integral
/// f64 prints without a fraction and any finite value re-parses to the
/// same bits.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// JSON has no NaN/Inf; emit them as null rather than producing an
/// unparseable document.
fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience constructors for hand-built documents.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn arr(items: Vec<Json>) -> Json {
    Json::Arr(items)
}

pub fn num(x: f64) -> Json {
    Json::Num(x)
}

pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    /// Run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// After an element: `,` continues the container, `close` ends it.
    fn more(&mut self, close: &str) -> Result<bool, String> {
        self.skip_ws();
        if self.eat(",") {
            Ok(true)
        } else {
            self.expect(close)
                .map(|()| false)
                .map_err(|e| format!("',' or {e}"))
        }
    }

    /// Opening bracket of a container at `depth`; true when it is empty.
    fn open(&mut self, depth: usize, close: &str) -> Result<bool, String> {
        if depth == MAX_DEPTH {
            return Err(format!("nesting past {MAX_DEPTH} at byte {}", self.pos));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(self.eat(close))
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut v = Vec::new();
                let mut go = !self.open(depth, "]")?;
                while go {
                    v.push(self.value(depth + 1)?);
                    go = self.more("]")?;
                }
                Ok(Json::Arr(v))
            }
            Some(b'{') => {
                let mut m = BTreeMap::new();
                let mut go = !self.open(depth, "}")?;
                while go {
                    self.skip_ws();
                    let at = self.pos;
                    let k = self.string()?;
                    if m.contains_key(&k) {
                        return Err(format!("duplicate key \"{k}\" at byte {at}"));
                    }
                    self.skip_ws();
                    self.expect(":")?;
                    m.insert(k, self.value(depth + 1)?);
                    go = self.more("}")?;
                }
                Ok(Json::Obj(m))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().unwrap_or('?');
                Err(format!("unexpected '{c}' at byte {}", self.pos))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — the
    /// grammar is checked here because `f64::from_str` is laxer (`1.`,
    /// `01`, `inf`).
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat("-");
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.eat(".") {
            ok &= self.digits() > 0;
        }
        if self.eat("e") || self.eat("E") {
            let _sign = self.eat("+") || self.eat("-");
            ok &= self.digits() > 0;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(x) if ok && x.is_finite() => Ok(Json::Num(x)),
            _ => Err(format!("bad number '{text}' at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; all three are ASCII, so the slice ends on a char
            // boundary.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            s.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                Some(_) => return Err(format!("raw control byte in string at byte {}", self.pos)),
            }
        }
    }

    /// The character after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let e = self.peek().ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) && self.eat("\\u") {
                    // UTF-16 surrogate pair -> one supplementary character
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(format!("bad low surrogate \\u{lo:04x}"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| format!("lone surrogate \\u{hi:04x}"))?
            }
            other => return Err(format!("bad escape '\\{}'", other as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }
}

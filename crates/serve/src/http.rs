//! Hand-rolled HTTP/1.1, just enough for the serving API.
//!
//! One request per connection (`Connection: close`), bodies framed by
//! `Content-Length` only — no chunked encoding, no keep-alive, no TLS.
//! That subset is fully under our control (no dependency), trivially
//! auditable, and exactly what `curl`, the `dpmd request` client, and
//! the e2e tests speak. Limits are enforced while *reading*, so an
//! oversized or malformed request costs bounded memory before it is
//! rejected.

use std::io::{BufRead, Write};

/// Maximum request body accepted (a deck job or a few thousand atoms of
/// positions fit easily; 16 MiB is past any legitimate use).
pub const MAX_BODY: usize = 16 << 20;
/// Maximum request line / header line length.
pub const MAX_LINE: usize = 16 << 10;
/// Maximum number of headers.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: method, percent-decoded-free path (the API uses no
/// escapes), and the raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string after `?`, empty if none.
    pub query: String,
    pub body: Vec<u8>,
}

/// Why a request could not be parsed; maps to a 4xx answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Peer closed before a full request arrived (answered with nothing).
    ConnectionClosed,
    /// Malformed request line / headers (400).
    Malformed(String),
    /// Body longer than [`MAX_BODY`] (413).
    TooLarge,
}

fn read_line(r: &mut impl BufRead) -> Result<String, ParseError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match std::io::Read::read(r, &mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(ParseError::ConnectionClosed);
                }
                return Err(ParseError::Malformed("eof mid-line".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| ParseError::Malformed("non-UTF-8 header".into()));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(ParseError::Malformed("header line too long".into()));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Malformed(format!("read failed: {e}"))),
        }
    }
}

/// Read one request from the stream.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, ParseError> {
    let start = read_line(r)?;
    let mut parts = start.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Malformed(format!("bad method '{method}'")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    if !path.starts_with('/') {
        return Err(ParseError::Malformed(format!("bad path '{path}'")));
    }

    let mut content_length = None;
    for _ in 0..MAX_HEADERS {
        let line = read_line(r)?;
        if line.is_empty() {
            let mut body = vec![0u8; content_length.unwrap_or(0)];
            std::io::Read::read_exact(r, &mut body)
                .map_err(|e| ParseError::Malformed(format!("short body: {e}")))?;
            return Ok(Request {
                method,
                path,
                query,
                body,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header '{line}'")));
        };
        // RFC 9112 §5.1: whitespace before the colon (or a folded line)
        // would hide a framing header from this match but not from a proxy.
        if name.is_empty() || name.contains([' ', '\t']) {
            return Err(ParseError::Malformed(format!("bad header name '{name}'")));
        }
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: `1*DIGIT` only (no sign, no list), and
            // repeats must agree — anything else is a smuggling vector.
            let value = value.trim_matches([' ', '\t']);
            let digits = value.bytes().all(|b| b.is_ascii_digit());
            let n = value
                .parse::<usize>()
                .ok()
                .filter(|_| digits)
                .ok_or_else(|| ParseError::Malformed("bad content-length".into()))?;
            if content_length.is_some_and(|prev| prev != n) {
                return Err(ParseError::Malformed("conflicting content-length".into()));
            }
            if n > MAX_BODY {
                return Err(ParseError::TooLarge);
            }
            content_length = Some(n);
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::Malformed(
                "chunked transfer encoding is not supported".into(),
            ));
        }
    }
    Err(ParseError::Malformed("too many headers".into()))
}

/// Standard reason phrases for the statuses the API uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers, e.g. `("Retry-After", "1")` on 429.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// The canonical error payload: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let doc = crate::json::obj(vec![("error", crate::json::str(message))]);
        Self::json(status, doc.to_string())
    }

    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Serialize onto the stream; always `Connection: close`.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_and_post() {
        let r = parse("GET /v1/jobs/job-3?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/jobs/job-3");
        assert_eq!(r.query, "verbose=1");
        assert!(r.body.is_empty());

        let r = parse("POST /v1/eval HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\":1}");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(parse(""), Err(ParseError::ConnectionClosed)));
        assert!(matches!(
            parse("GET\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET noslash HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        // Whitespace before the colon hides a framing header from this
        // reader but not from every proxy in front of it.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&huge), Err(ParseError::TooLarge)));
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let conflicting = "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(parse(conflicting), Err(ParseError::Malformed(_))));
        // Repeats that agree frame the body the same way and are allowed.
        let agreeing = "POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(parse(agreeing).unwrap().body, b"hello");
    }

    #[test]
    fn content_length_must_be_digits_only() {
        for value in ["+5", "-5", " 5x", "5,5", "0x5", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            assert!(
                matches!(parse(&raw), Err(ParseError::Malformed(_))),
                "Content-Length '{value}' accepted"
            );
        }
        let padded = "POST / HTTP/1.1\r\nContent-Length: \t5 \r\n\r\nhello";
        assert_eq!(parse(padded).unwrap().body, b"hello");
    }

    #[test]
    fn response_serializes_with_connection_close() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .with_header("Retry-After", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_payload_is_json() {
        let r = Response::error(404, "no such job");
        assert_eq!(r.status, 404);
        assert_eq!(
            String::from_utf8(r.body).unwrap(),
            "{\"error\":\"no such job\"}"
        );
    }
}

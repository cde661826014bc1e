//! Minimal HTTP/1.1 framing — just enough for a JSON query service.
//!
//! The server speaks a deliberately small subset: request line + headers +
//! optional `Content-Length` body, keep-alive by default, no chunked
//! encoding, no TLS. Everything rides on `std::net`, so the crate has no
//! dependency outside the workspace.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

/// Longest accepted request/header line, in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes (→ 413 beyond).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed request. Query-string values are stored raw (the API only
/// takes small integers, so percent-decoding is not needed).
#[derive(Debug)]
pub struct Request {
    /// HTTP method, uppercased by convention (`GET`, `POST`).
    pub method: String,
    /// Path without the query string, e.g. `/query`.
    pub path: String,
    /// Decoded query-string parameters.
    pub params: BTreeMap<String, String>,
    /// Raw request body (`Content-Length` framed).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// A required integer query parameter.
    pub fn param_u32(&self, name: &str) -> Result<u32, String> {
        let raw = self
            .params
            .get(name)
            .ok_or_else(|| format!("missing required parameter {name:?}"))?;
        raw.parse::<u32>()
            .map_err(|_| format!("parameter {name:?} must be a non-negative integer, got {raw:?}"))
    }

    /// An optional integer query parameter.
    pub fn param_u32_opt(&self, name: &str) -> Result<Option<u32>, String> {
        match self.params.get(name) {
            None => Ok(None),
            Some(_) => self.param_u32(name).map(Some),
        }
    }
}

/// Why a request could not be parsed; maps onto an HTTP status.
#[derive(Debug)]
pub enum ParseError {
    /// Client closed the connection between requests — not an error.
    Closed,
    /// Transport error (including read timeouts on idle connections).
    Io(io::Error),
    /// Malformed request → 400.
    Bad(String),
    /// Body over [`MAX_BODY`] → 413.
    TooLarge,
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ParseError::Closed
        } else {
            ParseError::Io(e)
        }
    }
}

fn read_line(reader: &mut impl BufRead) -> Result<String, ParseError> {
    let mut line = String::new();
    let mut limited = io::Read::take(&mut *reader, MAX_HEADER_LINE as u64);
    let n = limited.read_line(&mut line)?;
    if n == 0 {
        return Err(ParseError::Closed);
    }
    if !line.ends_with('\n') && line.len() >= MAX_HEADER_LINE {
        return Err(ParseError::Bad("header line too long".into()));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads one request off the connection. Returns [`ParseError::Closed`] on a
/// clean EOF before the first byte of a request.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Bad("missing request target".into()))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    let mut keep_alive = version != "HTTP/1.0";

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let mut params = BTreeMap::new();
    for pair in query.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.insert(k.to_string(), v.to_string());
    }

    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        let line = match read_line(reader) {
            Ok(l) => l,
            Err(ParseError::Closed) => {
                return Err(ParseError::Bad("connection closed mid-headers".into()))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            let mut body = vec![0u8; content_length];
            if content_length > 0 {
                io::Read::read_exact(reader, &mut body)?;
            }
            return Ok(Request {
                method,
                path,
                params,
                body,
                keep_alive,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Bad(format!("malformed header {line:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| ParseError::Bad(format!("bad content-length {value:?}")))?;
            if content_length > MAX_BODY {
                return Err(ParseError::TooLarge);
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    Err(ParseError::Bad("too many headers".into()))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a JSON response; `keep_alive` controls the `Connection` header.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        status,
        status_text(status),
        body.len(),
        connection,
        body
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query_string() {
        let req = parse("GET /query?v=42&k=4 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param_u32("v").unwrap(), 42);
        assert_eq!(req.param_u32("k").unwrap(), 4);
        assert!(req.keep_alive);
    }

    #[test]
    fn parses_post_with_body() {
        let body = r#"{"queries":[[0,3]]}"#;
        let raw = format!(
            "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(&raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, body.as_bytes());
    }

    #[test]
    fn connection_close_and_http10() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn missing_and_bad_params() {
        let req = parse("GET /query?v=abc HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.param_u32("k").is_err());
        assert!(req.param_u32("v").is_err());
        assert_eq!(req.param_u32_opt("missing").unwrap(), None);
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = format!(
            "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&raw), Err(ParseError::TooLarge)));
    }

    #[test]
    fn eof_before_request_is_closed() {
        assert!(matches!(parse(""), Err(ParseError::Closed)));
    }

    #[test]
    fn response_bytes() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}

//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! Hand-rolled over [`std::net`] — the workspace must build with the
//! crates-io registry unreachable, so there is no hyper/axum here, just
//! enough of the protocol for scrapers and the query front end:
//! request heads capped at 16 KiB, `Content-Length` bodies capped by the
//! admission config (bigger ones answered `413` without being read),
//! and connection keep-alive so a load generator can pipeline requests
//! over one socket.
//!
//! Malformed input never kills the process: empty, truncated, oversized
//! and non-UTF-8 heads are all reported as [`ReadOutcome::Bad`] so the
//! caller can answer `400` instead of dropping the connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on an accepted request head (request line + headers).
pub const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default, overridable with a `Connection` header either way).
    pub keep_alive: bool,
}

/// The outcome of reading one request off a (possibly reused) socket.
#[derive(Debug)]
pub enum ReadOutcome {
    Request(Request),
    /// Clean end of the connection between requests (keep-alive client
    /// finished, or an idle socket timed out).
    Closed,
    /// A malformed head, answered with `400`.
    Bad {
        reason: &'static str,
    },
    /// A declared body larger than the admission cap, answered with
    /// `413` *without reading the body*.
    TooLarge {
        declared: usize,
    },
}

/// One line read under the shared head budget.
enum LineRead {
    Line(String),
    Eof,
    Truncated,
    TooLong,
    NotUtf8,
}

/// Reads one `\n`-terminated line without ever buffering more than the
/// remaining head `budget`: an endless request line runs out of budget
/// (`TooLong`) instead of memory, and a peer hanging up mid-line is
/// `Truncated`, not an I/O error.
fn read_line_capped<R: BufRead>(reader: &mut R, budget: &mut usize) -> std::io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(a) => a,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Truncated
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) if i < *budget => {
                line.extend_from_slice(&available[..=i]);
                reader.consume(i + 1);
                *budget -= i + 1;
                return Ok(match String::from_utf8(line) {
                    Ok(s) => LineRead::Line(s),
                    Err(_) => LineRead::NotUtf8,
                });
            }
            _ => {
                let take = available.len().min(*budget);
                if take == 0 {
                    return Ok(LineRead::TooLong);
                }
                line.extend_from_slice(&available[..take]);
                reader.consume(take);
                *budget -= take;
                if *budget == 0 {
                    return Ok(LineRead::TooLong);
                }
            }
        }
    }
}

/// `text` as an unsigned number, if it is ASCII digits and nothing else
/// (`str::parse` alone would let a leading `+` through).
pub(super) fn parse_unsigned<T: std::str::FromStr>(text: &str) -> Option<T> {
    let digits = text.bytes().all(|b| b.is_ascii_digit());
    digits.then(|| text.parse().ok()).flatten()
}

/// Reads one full request (head + body) off `reader`.
///
/// `first` distinguishes a socket that closed before its first request
/// (`Bad { "empty request" }`, the client did something wrong) from one
/// that closed between keep-alive requests (`Closed`, entirely normal).
/// Read timeouts surface as `Closed` too — an idle keep-alive peer is
/// not an error.
pub fn read_request(
    reader: &mut impl BufRead,
    body_cap: usize,
    first: bool,
) -> std::io::Result<ReadOutcome> {
    let mut budget = MAX_REQUEST_BYTES;
    let line = match read_line_capped(reader, &mut budget) {
        Ok(l) => l,
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
                || e.kind() == std::io::ErrorKind::ConnectionReset =>
        {
            return Ok(ReadOutcome::Closed)
        }
        Err(e) => return Err(e),
    };
    let line = match line {
        LineRead::Line(l) => l,
        LineRead::Eof if first => {
            return Ok(ReadOutcome::Bad {
                reason: "empty request",
            })
        }
        LineRead::Eof => return Ok(ReadOutcome::Closed),
        LineRead::Truncated | LineRead::TooLong => {
            return Ok(ReadOutcome::Bad {
                reason: "request line truncated or longer than the 16 KiB limit",
            })
        }
        LineRead::NotUtf8 => {
            return Ok(ReadOutcome::Bad {
                reason: "request line is not valid UTF-8",
            })
        }
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(ReadOutcome::Bad {
            reason: "malformed request line (expected: METHOD PATH HTTP/1.1)",
        });
    };
    let (method, path) = (method.to_string(), path.to_string());
    // HTTP/1.1 defaults to keep-alive, everything else to close; an
    // explicit Connection header overrides either way.
    let mut keep_alive = parts.next() == Some("HTTP/1.1");

    // Header block: we only care about Content-Length, Connection and
    // (to reject it) Transfer-Encoding. The head budget bounds the loop.
    let mut content_length = None;
    loop {
        let header = match read_line_capped(reader, &mut budget)? {
            LineRead::Line(h) => h,
            LineRead::Eof | LineRead::Truncated => {
                return Ok(ReadOutcome::Bad {
                    reason: "connection closed inside the header block",
                })
            }
            LineRead::TooLong => {
                return Ok(ReadOutcome::Bad {
                    reason: "request head longer than the 16 KiB limit",
                })
            }
            // A non-UTF-8 header we don't need: skip it (its bytes were
            // consumed under the budget).
            LineRead::NotUtf8 => continue,
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Ok(ReadOutcome::Bad {
                reason: "malformed header line (expected: Name: value)",
            });
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                // Once only: two lengths are two opinions on where the
                // next request starts.
                let (Some(n), None) = (parse_unsigned::<usize>(value), content_length) else {
                    return Ok(ReadOutcome::Bad {
                        reason: "unparseable or repeated Content-Length",
                    });
                };
                content_length = Some(n);
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "transfer-encoding" => {
                return Ok(ReadOutcome::Bad {
                    reason: "chunked transfer encoding is not supported; \
                             send a Content-Length body",
                })
            }
            _ => {}
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > body_cap {
        return Ok(ReadOutcome::TooLarge {
            declared: content_length,
        });
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        if let Err(e) = reader.read_exact(&mut body) {
            return Ok(match e.kind() {
                std::io::ErrorKind::UnexpectedEof => ReadOutcome::Bad {
                    reason: "connection closed before the declared Content-Length was sent",
                },
                _ => ReadOutcome::Closed,
            });
        }
    }
    Ok(ReadOutcome::Request(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Writes one response. `keep_alive` controls the `Connection` header;
/// the caller decides whether to actually reuse the socket.
///
/// Head and body leave in one write: of two small writes on one socket
/// the second waits (Nagle) for the peer's delayed ACK of the first,
/// 40 ms on Linux, on every keep-alive reply.
pub fn write_response(
    out: &mut impl Write,
    status: &str,
    content_type: &str,
    extra_headers: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra_headers}Connection: {connection}\r\n\r\n{body}",
        body.len()
    );
    out.write_all(response.as_bytes())
}

fn split_response(response: &str) -> (u16, String) {
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// One-shot GET: connect, request with `Connection: close`, return
/// `(status, body)`.
pub fn get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(split_response(&response))
}

/// One-shot POST with a body, `Connection: close`.
pub fn post(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(split_response(&response))
}

/// Sends raw bytes and returns the status of whatever came back (0 when
/// the server sent nothing) — for probing the malformed-request paths.
#[cfg(test)]
pub(crate) fn probe_raw(addr: &str, request: &[u8]) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request)?;
    // Half-close our sending side so a server blocked on a read sees
    // EOF (the truncated-request case) instead of waiting forever.
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let response = String::from_utf8_lossy(&response).into_owned();
    Ok(split_response(&response))
}

/// A client that keeps one socket open across requests — the serving
/// tests' keep-alive clients. Responses are framed by their
/// `Content-Length`.
pub struct KeepAliveClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    addr: String,
}

impl KeepAliveClient {
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            stream,
            reader,
            addr: addr.to_string(),
        })
    }

    /// Sends one request on the shared socket and reads one framed
    /// response back.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        self.stream.flush()?;
        // Status line + headers.
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            let n = self.reader.read_line(&mut header)?;
            let header = header.trim_end();
            if n == 0 || header.is_empty() {
                break;
            }
            let lower = header.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                if let Ok(n) = v.trim().parse::<usize>() {
                    content_length = n;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::rng::{rng_for, Rng};

    /// Counts the `write` calls it receives and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write() {
        for (extra, keep_alive, connection) in [
            ("", true, "keep-alive"),
            ("", false, "close"),
            ("Retry-After: 1\r\nAllow: POST\r\n", true, "keep-alive"),
        ] {
            let mut out = CountingWriter::default();
            let body = "{\"ok\":true}\n".repeat(500);
            write_response(
                &mut out,
                "200 OK",
                "application/json",
                extra,
                &body,
                keep_alive,
            )
            .unwrap();
            assert_eq!(out.writes, 1, "head and body must leave together");
            let expected = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}Connection: {connection}\r\n\r\n{body}",
                body.len()
            );
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
        }
    }

    const BODY_CAP: usize = 256;

    /// Reads requests off `bytes` as a keep-alive connection would, until
    /// the connection ends; panics if the reader breaks its contract.
    fn read_all(bytes: &[u8]) -> Vec<ReadOutcome> {
        let mut reader = bytes;
        let mut outcomes = Vec::new();
        loop {
            let before = reader.len();
            let outcome = read_request(&mut reader, BODY_CAP, outcomes.is_empty())
                .expect("a slice reader has no I/O errors");
            assert!(
                before - reader.len() <= MAX_REQUEST_BYTES + BODY_CAP,
                "one request may consume a head and a body at most"
            );
            match &outcome {
                ReadOutcome::Request(r) => {
                    assert!(r.body.len() <= BODY_CAP);
                    assert!(before > reader.len(), "a request consumes bytes");
                }
                ReadOutcome::TooLarge { declared } => assert!(*declared > BODY_CAP),
                ReadOutcome::Bad { reason } => assert!(!reason.is_empty()),
                ReadOutcome::Closed => {}
            }
            let done = !matches!(outcome, ReadOutcome::Request(_));
            outcomes.push(outcome);
            if done {
                return outcomes;
            }
        }
    }

    fn post(headers: &str, body: &str) -> Vec<u8> {
        format!("POST /query HTTP/1.1\r\nHost: x\r\n{headers}\r\n{body}").into_bytes()
    }

    #[test]
    fn content_length_is_digits_once_and_capped() {
        let body = "{\"bounds\": [0, 20, 0, 45]}";
        let n = body.len();
        let request = |headers: &str| read_all(&post(headers, body)).remove(0);
        let ReadOutcome::Request(r) = request(&format!("Content-Length: {n}\r\n")) else {
            panic!("the plain request must parse");
        };
        assert_eq!(r.body, body.as_bytes());
        for hostile in [
            format!("Content-Length: {n}\r\nContent-Length: {n}\r\n"),
            format!("Content-Length: {n}\r\ncontent-length: 0\r\n"),
            "Content-Length: -1\r\n".to_string(),
            format!("Content-Length: +{n}\r\n"),
            "Content-Length: 99999999999999999999999\r\n".to_string(),
            "Content-Length: 0x1a\r\n".to_string(),
            "Content-Length: 2 6\r\n".to_string(),
            "Content-Length:\r\n".to_string(),
            "Content-Length: 26, 26\r\n".to_string(),
        ] {
            assert!(
                matches!(request(&hostile), ReadOutcome::Bad { .. }),
                "{hostile:?} must be refused"
            );
        }
        // In range for a usize but over the cap: refused unread.
        for declared in [BODY_CAP + 1, usize::MAX] {
            match request(&format!("Content-Length: {declared}\r\n")) {
                ReadOutcome::TooLarge { declared: d } => assert_eq!(d, declared),
                other => panic!("{declared} must be too large, got {other:?}"),
            }
        }
        // A body shorter than declared is a 400, not a wait.
        let short = read_all(&post("Content-Length: 200\r\n", body)).remove(0);
        assert!(matches!(short, ReadOutcome::Bad { .. }));
    }

    #[test]
    fn hostile_framing_never_panics() {
        let body = "{\"id\": 7, \"bounds\": [0, 20, 0.5, 45]}";
        let valid: Vec<Vec<u8>> = vec![
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
            post(&format!("Content-Length: {}\r\n", body.len()), body),
            post(
                &format!("Connection: close\r\nContent-Length: {}\r\n", body.len()),
                body,
            ),
            // Two requests on one connection.
            [
                post(&format!("Content-Length: {}\r\n", body.len()), body),
                b"GET /metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec(),
            ]
            .concat(),
        ];
        for request in &valid {
            assert!(matches!(read_all(request)[0], ReadOutcome::Request(_)));
            // Every truncation.
            for cut in 0..request.len() {
                read_all(&request[..cut]);
            }
        }
        let mut rng = rng_for(0x5EED, 16);
        let splices: [&[u8]; 10] = [
            b"\r\n",
            b"\n",
            b":",
            b"\0",
            b"\xff\xfe",
            b"Content-Length: 7\r\n",
            b"Content-Length: 18446744073709551616\r\n",
            b"Transfer-Encoding: chunked\r\n",
            b"\r\n\r\n",
            b" ",
        ];
        for _ in 0..4000 {
            let mut request = valid[rng.gen_range(0..valid.len())].clone();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..request.len());
                match rng.gen_range(0..4u32) {
                    0 => request[at] = rng.gen::<u32>() as u8,
                    1 => request[at] ^= 1 << rng.gen_range(0..8u32),
                    2 => {
                        let splice = splices[rng.gen_range(0..splices.len())];
                        request.splice(at..at, splice.iter().copied());
                    }
                    _ => {
                        request.remove(at);
                    }
                }
            }
            read_all(&request);
        }
        // An endless line and an endless header block both run out of
        // head budget, not memory.
        for flood in [vec![b'a'; 1 << 20], b"X: y\r\n".repeat(1 << 16)] {
            let mut request = b"GET / HTTP/1.1\r\n".to_vec();
            request.extend_from_slice(&flood);
            assert!(matches!(read_all(&request)[0], ReadOutcome::Bad { .. }));
        }
    }
}

//! The load generator's HTTP client: the benchmark's own `TcpStream`
//! code, so a fix on the server side cannot change the generator.
//!
//! One request in flight per connection, responses framed by
//! `Content-Length`. A server that closes the socket (keep-alive budget
//! used up, restart) costs a reconnect, not a failed operation; any
//! status is returned to the caller to count, never panicked on.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One framed response and when its bytes arrived.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// The server announced it will close the connection after this one.
    pub close: bool,
    /// Last request byte handed to the socket.
    pub sent: Instant,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

/// The parsed response head.
#[derive(Debug, PartialEq, Eq)]
pub struct Head {
    /// Bytes up to and including the blank line.
    pub len: usize,
    pub status: u16,
    pub content_length: usize,
    pub close: bool,
}

/// Finds and parses the head in `buf`; `None` until the blank line has
/// arrived. A head without a parseable status line or `Content-Length`
/// is an error: this client cannot frame it.
pub fn parse_head(buf: &[u8]) -> io::Result<Option<Head>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok(Some(Head {
        len: end + 4,
        status,
        content_length: content_length.ok_or_else(|| bad("response without Content-Length"))?,
        close,
    }))
}

/// Largest response this client will buffer (`/metrics` is a few tens of
/// KiB; anything near this is a framing bug, not a reply).
const MAX_RESPONSE_BYTES: usize = 16 << 20;

/// Reads one framed response from `reader`. `Ok(None)` means the peer
/// closed the connection before sending a single byte — the reusable
/// socket went away between requests; a close mid-response is an error.
pub fn read_response<R: Read>(reader: &mut R, sent: Instant) -> io::Result<Option<Response>> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut first_byte = None;
    let mut head: Option<Head> = None;
    loop {
        if let Some(h) = &head {
            if buf.len() >= h.len + h.content_length {
                break;
            }
        }
        let n = match reader.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a response",
                ))
            };
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        if buf.len() > MAX_RESPONSE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response larger than the client's cap",
            ));
        }
        if head.is_none() {
            head = parse_head(&buf)?;
        }
    }
    let last_byte = Instant::now();
    let head = head.expect("loop exits only with a parsed head");
    let body = String::from_utf8_lossy(&buf[head.len..head.len + head.content_length]).into_owned();
    Ok(Some(Response {
        status: head.status,
        body,
        close: head.close,
        sent,
        first_byte: first_byte.unwrap_or(last_byte),
        last_byte,
    }))
}

/// A keep-alive client that reconnects when the server closes on it.
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    pub reconnects: u64,
    pub io_errors: u64,
}

impl Client {
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            stream: None,
            reconnects: 0,
            io_errors: 0,
        }
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes must fail the operation, not hang the
        // run past the driver's limit.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(self.stream.insert(stream))
    }

    /// Sends one request and reads its reply. A reused socket that fails
    /// (the server closed it since the last reply) is replaced once and
    /// the request resent; a failure on a fresh socket is returned and
    /// counted in `io_errors`.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        // Only a reused socket can have been closed on us between
        // requests, so only that earns a second try.
        let attempts = if self.stream.is_some() { 2 } else { 1 };
        let mut failure = None;
        for attempt in 1..=attempts {
            match self.exchange(&request) {
                Ok(Some(response)) => return Ok(response),
                Ok(None) => {
                    failure = Some(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection without replying",
                    ))
                }
                Err(e) => failure = Some(e),
            }
            self.stream = None;
            if attempt < attempts {
                self.reconnects += 1;
            }
        }
        self.io_errors += 1;
        Err(failure.expect("at least one attempt was made"))
    }

    fn exchange(&mut self, request: &str) -> io::Result<Option<Response>> {
        let stream = match self.stream.as_mut() {
            Some(s) => s,
            None => self.connect()?,
        };
        stream.write_all(request.as_bytes())?;
        let sent = Instant::now();
        let response = read_response(stream, sent)?;
        if response.as_ref().is_some_and(|r| r.close) {
            // The server said it is done with this socket: open a new
            // one before the next request instead of tripping over the
            // close.
            self.stream = None;
            self.reconnects += 1;
        }
        Ok(response)
    }
}

/// Connect, one request with `Connection: close`, read to the end.
pub fn one_shot(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    read_response(&mut stream, Instant::now())?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed without replying",
        )
    })
}

/// The fields of a `POST /query` reply the benchmark checks.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    pub loss: Option<f64>,
    /// `(node, ranking)` in rank order.
    pub participants: Vec<(u64, f64)>,
    pub samples_used: u64,
    pub sim_seconds: f64,
    pub batch: u64,
}

/// The text of the number (or `null`) after `"key":`.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses a 200 reply body; `None` when a field is missing or not a
/// number, which the caller counts as a failed operation.
pub fn parse_query_reply(body: &str) -> Option<QueryReply> {
    let loss = match field(body, "loss")? {
        "null" => None,
        text => Some(text.parse().ok()?),
    };
    let list = {
        let rest = &body[body.find("\"participants\":[")? + "\"participants\":[".len()..];
        &rest[..rest.find(']')?]
    };
    let mut participants = Vec::new();
    for item in list.split('{').skip(1) {
        participants.push((
            field(item, "node")?.parse().ok()?,
            field(item, "ranking")?.parse().ok()?,
        ));
    }
    Some(QueryReply {
        loss,
        participants,
        samples_used: field(body, "samples_used")?.parse().ok()?,
        sim_seconds: field(body, "sim_seconds")?.parse().ok()?,
        batch: field(body, "batch")?.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::TcpListener;

    /// Hands out the wrapped bytes a few at a time, like a socket does.
    struct Dribble {
        data: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    const REPLY: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}";

    #[test]
    fn head_needs_the_blank_line() {
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap(), None);
        let head = parse_head(REPLY.as_bytes()).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, 11);
        assert!(!head.close);
        assert_eq!(&REPLY[head.len..], "{\"ok\":true}");
    }

    #[test]
    fn head_without_a_length_or_status_is_an_error() {
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n").is_err());
        assert!(parse_head(b"garbage\r\nContent-Length: 0\r\n\r\n").is_err());
    }

    #[test]
    fn body_is_framed_by_content_length_across_short_reads() {
        for step in [1, 3, 7, 4096] {
            let mut two = REPLY.as_bytes().to_vec();
            // A second response already in the pipe must not be eaten:
            // the client has one request in flight, so this only guards
            // the framing arithmetic.
            two.extend_from_slice(b"HTTP/1.1 500");
            let mut reader = Dribble {
                data: two,
                at: 0,
                step,
            };
            let r = read_response(&mut reader, Instant::now()).unwrap().unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body, "{\"ok\":true}", "step {step}");
            assert!(r.first_byte <= r.last_byte);
        }
    }

    #[test]
    fn empty_bodies_and_close_are_understood() {
        let raw =
            "HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\nCONNECTION: Close\r\n\r\n";
        let r = read_response(&mut Cursor::new(raw.as_bytes()), Instant::now())
            .unwrap()
            .unwrap();
        assert_eq!((r.status, r.body.as_str(), r.close), (429, "", true));
    }

    #[test]
    fn clean_eof_is_not_an_error_but_a_cut_response_is() {
        let none = read_response(&mut Cursor::new(&b""[..]), Instant::now()).unwrap();
        assert!(none.is_none());
        let cut = &REPLY.as_bytes()[..REPLY.len() - 4];
        let err = read_response(&mut Cursor::new(cut), Instant::now()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A server that answers `per_conn` requests on each connection and
    /// then closes without saying so, with the given status line.
    fn flaky_server(
        per_conn: usize,
        conns: usize,
        status: &'static str,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for _ in 0..conns {
                let (mut stream, _) = listener.accept().unwrap();
                for _ in 0..per_conn {
                    let mut seen = Vec::new();
                    let mut byte = [0u8; 1];
                    while !seen.ends_with(b"\r\n\r\n") {
                        if stream.read(&mut byte).unwrap_or(0) == 0 {
                            return;
                        }
                        seen.push(byte[0]);
                    }
                    let reply = format!("HTTP/1.1 {status}\r\nContent-Length: 2\r\n\r\nhi");
                    stream.write_all(reply.as_bytes()).unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_server_closed_socket_costs_a_reconnect_not_a_failure() {
        let (addr, server) = flaky_server(2, 2, "200 OK");
        let mut client = Client::new(&addr);
        for _ in 0..4 {
            let r = client.request("GET", "/x", "").unwrap();
            assert_eq!((r.status, r.body.as_str()), (200, "hi"));
        }
        assert_eq!(client.reconnects, 1);
        assert_eq!(client.io_errors, 0);
        server.join().unwrap();
    }

    #[test]
    fn error_statuses_are_returned_for_counting() {
        let (addr, server) = flaky_server(2, 1, "503 Service Unavailable");
        let mut client = Client::new(&addr);
        assert_eq!(client.request("POST", "/query", "{}").unwrap().status, 503);
        assert_eq!(client.request("POST", "/query", "{}").unwrap().status, 503);
        assert_eq!(client.io_errors, 0);
        server.join().unwrap();
    }

    #[test]
    fn a_dead_server_is_an_error_not_a_panic() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut client = Client::new(&addr);
        assert!(client.request("GET", "/x", "").is_err());
        assert_eq!(client.io_errors, 1);
    }

    #[test]
    fn query_replies_parse_to_the_checked_fields() {
        let body = "{\"query_id\":7,\"loss\":0.0123,\"participants\":[{\"node\":4,\"ranking\":1.5},{\"node\":0,\"ranking\":0.25}],\"standby\":1,\"samples_used\":96,\"sim_seconds\":0.5,\"batch\":2}\n";
        let r = parse_query_reply(body).unwrap();
        assert_eq!(r.loss, Some(0.0123));
        assert_eq!(r.participants, vec![(4, 1.5), (0, 0.25)]);
        assert_eq!((r.samples_used, r.sim_seconds, r.batch), (96, 0.5, 2));
        let null = body.replace("0.0123", "null").replace(
            "[{\"node\":4,\"ranking\":1.5},{\"node\":0,\"ranking\":0.25}]",
            "[]",
        );
        let r = parse_query_reply(&null).unwrap();
        assert_eq!((r.loss, r.participants.len()), (None, 0));
        assert!(parse_query_reply("{\"error\":\"nope\"}").is_none());
    }

    #[test]
    fn floats_survive_the_wire_bit_for_bit() {
        // The server prints with `{}`; parsing that text must give the
        // same bits back or the answer check would flag false mismatches.
        for x in [0.1f64 + 0.2, 1.0 / 3.0, 5e-324, 1.797e308, 123456.789e-9] {
            let body = format!(
                "{{\"loss\":{x},\"participants\":[],\"samples_used\":1,\"sim_seconds\":{x},\"batch\":1}}"
            );
            let r = parse_query_reply(&body).unwrap();
            assert_eq!(r.loss.unwrap().to_bits(), x.to_bits());
        }
    }
}

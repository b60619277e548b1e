//! A minimal blocking HTTP/1.1 client with keep-alive — just enough to
//! drive the server from the load generator, integration tests, and the
//! router's probes and operator fan-outs without external dependencies.
//!
//! The wire format lives in [`render_request_with`] and one response-head
//! reader behind [`decode_response`] and the reactor's relay decoder;
//! the reactor's non-blocking upstream exchanges use them too, so the
//! router's forwarding hop and this client send and parse the same
//! bytes.

use crate::http::{push_decimal, Response, MAX_HEAD_BYTES};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive connection to one server.
pub struct Client {
    stream: TcpStream,
    /// Response bytes read but not yet decoded.
    buf: Vec<u8>,
    addr: SocketAddr,
}

/// A decoded HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code (200, 429, …).
    pub status: u16,
    /// Header pairs with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the server announced it will close the connection.
    #[must_use]
    pub fn closes(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Renders a request (head and body) the way [`Client`] sends it.
pub fn render_request(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    host: SocketAddr,
    body: Option<(&str, &[u8])>,
    extra_headers: &[(&str, &str)],
) {
    render_request_with(out, method, path, host, body, |out| {
        for (name, value) in extra_headers {
            for part in [name, ": ", value, "\r\n"] {
                out.extend_from_slice(part.as_bytes());
            }
        }
    });
}

/// [`render_request`] whose extra header lines (`Name: value\r\n` each)
/// are appended by `headers`, so a caller can write a value straight
/// from where it lives. Appends bytes; nothing is formatted.
pub fn render_request_with(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    host: SocketAddr,
    body: Option<(&str, &[u8])>,
    headers: impl FnOnce(&mut Vec<u8>),
) {
    for part in [method, " ", path, " HTTP/1.1\r\nHost: "] {
        out.extend_from_slice(part.as_bytes());
    }
    match host {
        SocketAddr::V4(v4) => {
            for (index, octet) in v4.ip().octets().into_iter().enumerate() {
                if index > 0 {
                    out.push(b'.');
                }
                push_decimal(out, u64::from(octet));
            }
            out.push(b':');
            push_decimal(out, u64::from(v4.port()));
        }
        SocketAddr::V6(_) => {
            let _ = write!(out, "{host}");
        }
    }
    out.extend_from_slice(b"\r\n");
    headers(out);
    if let Some((content_type, body)) = body {
        out.extend_from_slice(b"Content-Type: ");
        out.extend_from_slice(content_type.as_bytes());
        out.extend_from_slice(b"\r\nContent-Length: ");
        push_decimal(out, body.len() as u64);
        out.extend_from_slice(b"\r\n\r\n");
        out.extend_from_slice(body);
    } else {
        out.extend_from_slice(b"\r\n");
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// A response head read in place: what framing needs, the two headers a
/// relay re-sends (first occurrence each), and the header lines.
struct ResponseHead<'a> {
    status: u16,
    /// Bytes of the head and the body.
    total_len: usize,
    head_len: usize,
    content_type: Option<&'a str>,
    model_version: Option<&'a str>,
    /// Whether the first `Connection` header says `close`.
    closes: bool,
    lines: &'a str,
}

/// `(name, value)` of every header line in `lines`, both trimmed.
fn header_pairs(lines: &str) -> impl Iterator<Item = (&str, &str)> {
    (lines.split("\r\n"))
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim(), value.trim()))
}

/// Reads the response head at the front of `buf` without copying it;
/// `Ok(None)` until the head has arrived, and until the body has too.
/// `InvalidData` for an unparsable status line, a bad `Content-Length`,
/// or a head over [`MAX_HEAD_BYTES`].
fn parse_response_head(buf: &[u8]) -> io::Result<Option<ResponseHead<'_>>> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(invalid("response head too large"));
        }
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..head_len]).map_err(|_| invalid("response head is not UTF-8"))?;
    let (status_line, lines) = head.split_once("\r\n").unwrap_or((head, ""));
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line: {status_line:?}")))?;
    let mut parsed = ResponseHead {
        status,
        total_len: head_len,
        head_len,
        content_type: None,
        model_version: None,
        closes: false,
        lines,
    };
    let mut connection = None;
    for (name, value) in header_pairs(lines) {
        if name.eq_ignore_ascii_case("content-length") {
            let length: usize = value.parse().map_err(|_| invalid("bad Content-Length"))?;
            parsed.total_len = head_len + length;
        } else if name.eq_ignore_ascii_case("content-type") {
            parsed.content_type.get_or_insert(value);
        } else if name.eq_ignore_ascii_case("x-model-version") {
            parsed.model_version.get_or_insert(value);
        } else if name.eq_ignore_ascii_case("connection") {
            connection.get_or_insert(value);
        }
    }
    parsed.closes = connection.is_some_and(|v| v.eq_ignore_ascii_case("close"));
    Ok((buf.len() >= parsed.total_len).then_some(parsed))
}

/// Decodes one response from the front of `buf` and drains its bytes.
/// `Ok(None)` means the head or the body has not fully arrived yet.
///
/// # Errors
///
/// `InvalidData` for an unparsable status line, a bad `Content-Length`,
/// or a head over [`MAX_HEAD_BYTES`].
pub fn decode_response(buf: &mut Vec<u8>) -> io::Result<Option<ClientResponse>> {
    let Some(head) = parse_response_head(buf)? else {
        return Ok(None);
    };
    let total = head.total_len;
    let response = ClientResponse {
        status: head.status,
        headers: header_pairs(head.lines)
            .map(|(name, value)| (name.to_ascii_lowercase(), value.to_owned()))
            .collect(),
        body: buf[head.head_len..total].to_vec(),
    };
    buf.drain(..total);
    Ok(Some(response))
}

/// Decodes one response from the front of `buf` into the [`Response`]
/// a relay sends on, and drains its bytes: status and body as they are,
/// the content type, and `X-Model-Version`; other headers are dropped.
/// The flag tells whether the server closes the connection. `Ok(None)`
/// means the response has not fully arrived yet.
///
/// # Errors
///
/// As [`decode_response`].
pub(crate) fn decode_relayed(buf: &mut Vec<u8>) -> io::Result<Option<(Response, bool)>> {
    let Some(head) = parse_response_head(buf)? else {
        return Ok(None);
    };
    let total = head.total_len;
    let body = buf[head.head_len..total].to_vec();
    let mut response = Response::relayed(head.status, head.content_type, body);
    if let Some(version) = head.model_version {
        response = response.with_header("X-Model-Version", version.to_owned());
    }
    let closes = head.closes;
    buf.drain(..total);
    Ok(Some((response, closes)))
}

impl Client {
    /// Connects with a generous default timeout.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_timeout(addr, Duration::from_secs(10))
    }

    /// Connects; reads and the connect itself time out after `timeout`.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            addr,
        })
    }

    /// The server address this client talks to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Issues a GET.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and malformed responses.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None, &[])
    }

    /// Issues a POST with a JSON body.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and malformed responses.
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request(
            "POST",
            path,
            Some(("application/json", body.as_bytes())),
            &[],
        )
    }

    /// Issues a POST with a JSON body and an `X-Request-Id` header — the
    /// router's forwarding hop, which must propagate the downstream trace
    /// stamp instead of letting the replica mint a fresh one.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and malformed responses.
    pub fn post_json_with_id(
        &mut self,
        path: &str,
        body: &str,
        request_id: &str,
    ) -> io::Result<ClientResponse> {
        self.request(
            "POST",
            path,
            Some(("application/json", body.as_bytes())),
            &[("X-Request-Id", request_id)],
        )
    }

    /// Issues a POST with a JSON body, an `X-Request-Id`, and an
    /// `X-Deadline-Ms` remaining-budget header — the router's forwarding
    /// hop when the request carries a propagated deadline.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and malformed responses.
    pub fn post_json_with_id_and_deadline(
        &mut self,
        path: &str,
        body: &str,
        request_id: &str,
        deadline_ms: u64,
    ) -> io::Result<ClientResponse> {
        self.request(
            "POST",
            path,
            Some(("application/json", body.as_bytes())),
            &[
                ("X-Request-Id", request_id),
                ("X-Deadline-Ms", &deadline_ms.to_string()),
            ],
        )
    }

    /// Issues a POST with an arbitrary content type and raw body bytes
    /// (cache gossip ships binary guard envelopes).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and malformed responses.
    pub fn post_octets(&mut self, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(("application/octet-stream", body)), &[])
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<(&str, &[u8])>,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<ClientResponse> {
        let mut out = Vec::new();
        render_request(&mut out, method, path, self.addr, body, extra_headers);
        self.stream.write_all(&out)?;
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(response) = decode_response(&mut self.buf)? {
                return Ok(response);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    if self.buf.is_empty() {
                        "connection closed before status line"
                    } else {
                        "connection closed inside a response"
                    },
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_waits_for_the_whole_response_and_keeps_the_rest() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nhiHTTP/1.1";
        let mut buf = wire[..30].to_vec();
        assert!(decode_response(&mut buf).unwrap().is_none());
        buf = wire.to_vec();
        let response = decode_response(&mut buf).unwrap().expect("complete");
        assert_eq!(
            (response.status, response.body.as_slice()),
            (200, &b"hi"[..])
        );
        assert!(response.closes());
        assert_eq!(buf, b"HTTP/1.1", "pipelined bytes stay buffered");
        let mut bad = b"garbage\r\n\r\n".to_vec();
        assert_eq!(
            decode_response(&mut bad).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn rendered_requests_parse_as_requests() {
        let mut out = Vec::new();
        let host: SocketAddr = "127.0.0.1:9".parse().unwrap();
        render_request(
            &mut out,
            "POST",
            "/v1/predict",
            host,
            Some(("application/json", b"{}")),
            &[("X-Deadline-Ms", "7")],
        );
        let crate::http::HeadParse::Complete(head) = crate::http::parse_head(&out) else {
            panic!("a rendered request must parse");
        };
        assert_eq!(
            (head.path, head.content_length, head.deadline_ms),
            ("/v1/predict", 2, Some(7))
        );
        assert_eq!(&out[head.head_len..], b"{}");
        // Byte for byte what the formatted rendering sent, for both
        // address families.
        for host in ["10.0.0.255:65535", "[::1]:8080"] {
            let mut out = Vec::new();
            let addr: SocketAddr = host.parse().unwrap();
            render_request(&mut out, "GET", "/v1/gpus", addr, None, &[("A", "b")]);
            let want = format!("GET /v1/gpus HTTP/1.1\r\nHost: {addr}\r\nA: b\r\n\r\n");
            assert_eq!(String::from_utf8(out).unwrap(), want);
        }
    }

    #[test]
    fn relayed_answers_keep_status_body_type_and_version() {
        let wire = b"HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\n\
                     Content-Length: 4\r\nX-Model-Version: v7\r\nX-Other: 1\r\n\r\n\xff{}\nHTTP";
        let mut buf = wire.to_vec();
        let (response, closes) = decode_relayed(&mut buf).unwrap().expect("complete");
        assert!(!closes);
        assert_eq!(
            (response.status, response.body.as_slice()),
            (404, &b"\xff{}\n"[..])
        );
        assert_eq!(response.content_type, "application/json");
        assert_eq!(
            response.headers,
            [("X-Model-Version".to_owned(), "v7".to_owned())]
        );
        assert_eq!(buf, b"HTTP", "pipelined bytes stay buffered");
        let mut bytes =
            b"HTTP/1.1 200 OK\r\nContent-Type: image/png\r\nConnection: close\r\n\r\n".to_vec();
        let (response, closes) = decode_relayed(&mut bytes).unwrap().expect("complete");
        assert!(closes && response.body.is_empty());
        assert_eq!(response.content_type, "application/octet-stream");
    }
}

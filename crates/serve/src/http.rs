//! A minimal, allocation-light HTTP/1.1 server codec over byte buffers:
//! in-place request-head parsing with bounded head/body sizes, and
//! response rendering with explicit `Content-Length` and keep-alive
//! control. The reactor owns the sockets; this module never touches one.
//! (The client side of the wire lives in [`crate::client`].)
//!
//! Only the slice of HTTP/1.1 the prediction service needs is implemented:
//! `GET`/`POST`, `Content-Length` bodies (no chunked transfer), and the
//! `Connection: close` / `keep-alive` negotiation. Everything else is
//! rejected with a clean 4xx rather than guessed at.

/// Upper bound on the request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body, bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Byte length of the head including the blank line, if complete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// A request head parsed **in place**: every field borrows from the
/// connection's read buffer, so parsing a well-formed request allocates
/// nothing. Routing only ever consults the method, path,
/// `Content-Length`, `Connection` disposition, and the trace and deadline
/// headers, so no header vector is materialized.
#[derive(Debug, Clone, Copy)]
pub struct HeadView<'a> {
    /// Method exactly as sent (match with [`HeadView::method_is`]).
    pub method: &'a str,
    /// Request path without the query string.
    pub path: &'a str,
    /// Bytes of the head including the `\r\n\r\n` terminator.
    pub head_len: usize,
    /// Declared body length (0 when absent), already bounds-checked.
    pub content_length: usize,
    /// Whether the client asked for `Connection: close`.
    pub wants_close: bool,
    /// The client's `X-Request-Id`, if sent (echoed back, traced).
    pub request_id: Option<&'a str>,
    /// The client's remaining `X-Deadline-Ms` budget, if sent (and
    /// parseable — an unparseable value is treated as absent rather than
    /// rejected, so a buggy caller degrades to the server default).
    pub deadline_ms: Option<u64>,
}

impl HeadView<'_> {
    /// Case-insensitive method match (HTTP methods are case-sensitive per
    /// spec, but the previous parser upper-cased, so this preserves its
    /// lenience bit-for-bit).
    #[must_use]
    pub fn method_is(&self, method: &str) -> bool {
        self.method.eq_ignore_ascii_case(method)
    }
}

/// Outcome of [`parse_head`].
#[derive(Debug)]
pub enum HeadParse<'a> {
    /// The head terminator has not arrived yet (and the bound is not
    /// exceeded) — read more bytes.
    Incomplete,
    /// The head does not parse; respond with the status and close.
    Malformed(&'static str, u16),
    /// A complete, valid head.
    Complete(HeadView<'a>),
}

/// Parses an HTTP/1.1 request head in place from the front of `buf`.
///
/// The reactor parses every request of both front ends (serve and the
/// router) through this one function. Error precedence is fixed: 431
/// before anything, then 400 UTF-8, 400 request line, 505 version, 400
/// header line, 400 Content-Length, 413 body bound.
#[must_use]
pub fn parse_head(buf: &[u8]) -> HeadParse<'_> {
    let head_end = find_head_end(buf);
    if head_end.unwrap_or(buf.len()) > MAX_HEAD_BYTES {
        return HeadParse::Malformed("request head too large", 431);
    }
    let Some(head_len) = head_end else {
        return HeadParse::Incomplete;
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_len]) else {
        return HeadParse::Malformed("head is not UTF-8", 400);
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return HeadParse::Malformed("bad request line", 400);
    };
    if !version.starts_with("HTTP/1.") {
        return HeadParse::Malformed("unsupported HTTP version", 505);
    }
    let path = target.split('?').next().unwrap_or(target);
    let mut content_length: Option<&str> = None;
    let mut wants_close = false;
    let mut request_id: Option<&str> = None;
    let mut deadline_ms: Option<u64> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return HeadParse::Malformed("bad header line", 400);
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value);
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            wants_close = true;
        } else if name.eq_ignore_ascii_case("x-request-id") && !value.is_empty() {
            request_id = Some(value);
        } else if name.eq_ignore_ascii_case("x-deadline-ms") {
            deadline_ms = value.parse().ok();
        }
    }
    let content_length = match content_length {
        None => 0,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return HeadParse::Malformed("bad Content-Length", 400),
        },
    };
    if content_length > MAX_BODY_BYTES {
        return HeadParse::Malformed("request body too large", 413);
    }
    HeadParse::Complete(HeadView {
        method,
        path,
        head_len,
        content_length,
        wants_close,
        request_id,
        deadline_ms,
    })
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// MIME type of the body.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (used by `/metrics`).
    #[must_use]
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// A binary response (used by `/v1/cache/export`: a checksummed guard
    /// envelope is bytes, not text).
    #[must_use]
    pub fn octets(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/octet-stream",
            body,
        }
    }

    /// A JSON error envelope: `{"error": …}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, format!("{{\"error\":{}}}", json_string(message)))
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_owned(), value));
        self
    }

    /// Serializes the whole response (head + body) into `out`, appending.
    ///
    /// The reactor reuses one write buffer per connection: `clear()` +
    /// `render_into` produces zero steady-state allocations once the
    /// buffer has grown to the working-set response size.
    pub fn render_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        self.render_traced(out, keep_alive, None);
    }

    /// [`render_into`](Self::render_into), plus an `X-Request-Id` header
    /// echoed straight from the trace — no `String` per response. The
    /// header always lands in the same position (right after the standard
    /// block), so serve and the router frame responses identically.
    pub fn render_traced(
        &self,
        out: &mut Vec<u8>,
        keep_alive: bool,
        trace: Option<&neusight_obs::TraceContext>,
    ) {
        use std::io::Write as _;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if let Some(trace) = trace {
            out.extend_from_slice(b"X-Request-Id: ");
            trace.write_id(out);
            out.extend_from_slice(b"\r\n");
        }
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }
}

/// Renders a string as a JSON string literal (RFC 8259 escaping).
#[must_use]
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Canonical reason phrase for the status codes this server emits.
#[must_use]
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        409 => "Conflict",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn parse_head_borrows_and_extracts_framing() {
        let buf = b"post /v1/predict?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 12\r\nConnection: close\r\n\r\nbody";
        let HeadParse::Complete(view) = parse_head(buf) else {
            panic!("expected complete head");
        };
        assert!(view.method_is("POST"));
        assert_eq!(view.path, "/v1/predict");
        assert_eq!(view.content_length, 12);
        assert!(view.wants_close);
        assert_eq!(view.request_id, None);
        assert_eq!(&buf[view.head_len..], b"body");
    }

    #[test]
    fn parse_head_extracts_request_id() {
        let buf = b"GET / HTTP/1.1\r\nX-Request-ID: req-42\r\n\r\n";
        let HeadParse::Complete(view) = parse_head(buf) else {
            panic!("expected complete head");
        };
        assert_eq!(view.request_id, Some("req-42"));
        // Empty IDs are treated as absent.
        let buf = b"GET / HTTP/1.1\r\nX-Request-Id:\r\n\r\n";
        let HeadParse::Complete(view) = parse_head(buf) else {
            panic!("expected complete head");
        };
        assert_eq!(view.request_id, None);
    }

    #[test]
    fn parse_head_extracts_deadline_budget() {
        let buf = b"POST /v1/predict HTTP/1.1\r\nX-Deadline-Ms: 250\r\n\r\n";
        let HeadParse::Complete(view) = parse_head(buf) else {
            panic!("expected complete head");
        };
        assert_eq!(view.deadline_ms, Some(250));
        // An unparseable budget degrades to absent, not a 400.
        let buf = b"POST /v1/predict HTTP/1.1\r\nX-Deadline-Ms: soon\r\n\r\n";
        let HeadParse::Complete(view) = parse_head(buf) else {
            panic!("expected complete head");
        };
        assert_eq!(view.deadline_ms, None);
    }

    #[test]
    fn parse_head_reports_errors_in_precedence_order() {
        assert!(matches!(parse_head(b"GET /"), HeadParse::Incomplete));
        let cases: [(&[u8], u16); 5] = [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET / HTTP/0.9\r\n\r\n", 505),
            (b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", 413),
        ];
        for (raw, want) in cases {
            let HeadParse::Malformed(_, status) = parse_head(raw) else {
                panic!("{raw:?} should be malformed");
            };
            assert_eq!(status, want, "{raw:?}");
        }
        let oversized = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(matches!(
            parse_head(&oversized),
            HeadParse::Malformed(_, 431)
        ));
    }

    #[test]
    fn render_into_appends_and_reuses_buffer() {
        let resp = Response::json(200, "{\"ok\":true}".to_owned()).with_header("X-A", "1".into());
        let mut buf = Vec::new();
        resp.render_into(&mut buf, true);
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-A: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        // Clearing and re-rendering produces the same bytes in place.
        let first = buf.clone();
        buf.clear();
        resp.render_into(&mut buf, true);
        assert_eq!(buf, first);
        buf.clear();
        resp.render_into(&mut buf, false);
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("Connection: close"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn reason_phrases_cover_server_statuses() {
        for status in [
            200, 400, 404, 405, 408, 413, 422, 429, 431, 500, 503, 504, 505,
        ] {
            assert_ne!(status_reason(status), "Unknown", "{status}");
        }
    }
}

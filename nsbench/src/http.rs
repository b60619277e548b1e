//! A minimal HTTP/1.1 keep-alive client and a Prometheus text parser.
//!
//! The generator owns its client so that what it times is one write and
//! one response read on an already-open connection, nothing else. It does
//! not use `neusight_serve::Client`: the load generator must stay the same
//! when the program under test changes.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A fully rendered request, built once and sent many times.
pub fn render(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n").into_bytes();
    if !body.is_empty() || method == "POST" {
        out.extend_from_slice(
            format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            )
            .as_bytes(),
        );
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
    out
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    /// Sends one rendered request and reads its response: status and body.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        Ok((status, self.buf[head_end..head_end + length].to_vec()))
    }

    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let (status, body) = self.exchange(&render("GET", path, ""))?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16384];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One scrape of a `/metrics` page: every sample line, keyed by its full
/// series text (name plus labels).
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> io::Result<Scrape> {
        let (status, body) = Conn::connect(addr)?.get("/metrics")?;
        if status != 200 {
            return Err(io::Error::other(format!("/metrics answered {status}")));
        }
        Ok(Scrape::parse(&body))
    }

    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_owned(), value.trim().parse::<f64>().ok()?))
            })
            .collect();
        Scrape(samples)
    }

    /// Adds another scrape's samples into this one (a fleet's pages).
    pub fn add(&mut self, other: &Scrape) {
        for (series, value) in &other.0 {
            *self.0.entry(series.clone()).or_insert(0.0) += value;
        }
    }

    /// An unlabelled sample, 0 when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Cumulative bucket counts of an unlabelled histogram, by upper bound.
    fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut out: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(series, count)| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, *count))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// The `q` quantile of the observations a histogram gained between two
/// scrapes, interpolated linearly inside the log2 bucket that holds it.
/// The exposition lists only non-empty buckets (upper bounds `2^k - 1`),
/// so a bucket's lower edge is derived from its own bound. `NaN` when
/// nothing was observed.
pub fn delta_quantile(before: &Scrape, after: &Scrape, name: &str, q: f64) -> f64 {
    let old = before.buckets(name);
    // Cumulative count of `before` at an upper bound it may not list.
    let old_at = |le: f64| {
        old.iter()
            .take_while(|(b, _)| *b <= le)
            .last()
            .map_or(0.0, |(_, c)| *c)
    };
    let delta: Vec<(f64, f64)> = after
        .buckets(name)
        .into_iter()
        .map(|(le, c)| (le, c - old_at(le)))
        .collect();
    let total = delta.last().map_or(0.0, |d| d.1);
    if total <= 0.0 {
        return f64::NAN;
    }
    let target = q * total;
    let (mut lower, mut below) = (0.0f64, 0.0);
    for (le, cum) in delta {
        if cum >= target && cum > below {
            if le.is_infinite() {
                return lower;
            }
            let edge = lower.max(((le + 1.0) / 2.0 - 1.0).max(0.0));
            return edge + (le - edge) * (target - below) / (cum - below);
        }
        below = below.max(cum);
        if le.is_finite() {
            lower = le;
        }
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_quantile() {
        let before = Scrape::parse("h_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 1\n");
        let after = Scrape::parse(
            "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"15\"} 5\nh_bucket{le=\"+Inf\"} 5\nc 7\n",
        );
        // Four new observations, all in (10, 15]: the median is halfway.
        assert_eq!(delta_quantile(&before, &after, "h", 0.5), 12.5);
        // A bucket `before` never listed counts from the one below it.
        let sparse = Scrape::parse("h_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 2\n");
        let later =
            Scrape::parse("h_bucket{le=\"3\"} 2\nh_bucket{le=\"7\"} 4\nh_bucket{le=\"+Inf\"} 4\n");
        assert_eq!(delta_quantile(&sparse, &later, "h", 0.5), 5.0);
        assert_eq!(after.value("c"), 7.0);
        assert!(delta_quantile(&after, &after, "h", 0.5).is_nan());
    }

    #[test]
    fn render_sets_length() {
        let req = render("POST", "/v1/predict", "{}");
        let text = String::from_utf8(req).unwrap();
        assert!(text.contains("Content-Length: 2\r\n\r\n{}"));
    }
}

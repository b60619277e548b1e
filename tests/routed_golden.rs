//! Golden bytes of routed answers: every byte a client reads back from an
//! in-process `Router` fronting two replicas (status line, headers in
//! order, body) hashes to a recorded value, for 200s with and without an
//! `X-Request-Id`, `Connection: close`, bodies rejected by the router and
//! by the replica, unknown routes, wrong methods and `GET /v1/models`.
//! Only the request ids the server generates (`neusight-` and 16 hex
//! digits, a process counter) are normalised before hashing.

use neusight::core::{NeuSight, NeuSightConfig};
use neusight::gpu::DType;
use neusight::router::{Router, RouterConfig};
use neusight::serve::{RunningServer, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The recorded hash holds where the GEMM runs its AVX2+FMA micro-kernel;
/// the portable kernel rounds differently, so it trains other weights.
fn fma_gemm() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Reads exactly one `Content-Length`-framed response, as raw bytes.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Vec<u8> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) {
            let head = String::from_utf8_lossy(&buf[..head_len]).to_ascii_lowercase();
            let length: usize = head
                .lines()
                .find_map(|line| line.strip_prefix("content-length:"))
                .map_or(0, |v| v.trim().parse().expect("numeric Content-Length"));
            if buf.len() >= head_len + length {
                return buf.drain(..head_len + length).collect();
            }
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed inside a response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Replaces every generated request id with a fixed placeholder.
fn normalise_ids(bytes: &[u8]) -> Vec<u8> {
    const PREFIX: &[u8] = b"neusight-";
    let mut out = Vec::with_capacity(bytes.len());
    let mut at = 0;
    while at < bytes.len() {
        let rest = &bytes[at..];
        let generated = rest.starts_with(PREFIX)
            && rest.len() >= PREFIX.len() + 16
            && rest[PREFIX.len()..PREFIX.len() + 16]
                .iter()
                .all(u8::is_ascii_hexdigit);
        if generated {
            out.extend_from_slice(b"neusight-<id>");
            at += PREFIX.len() + 16;
        } else {
            out.push(bytes[at]);
            at += 1;
        }
    }
    out
}

fn request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: golden\r\n").into_bytes();
    for (name, value) in headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if method == "POST" {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

#[test]
fn routed_answers_match_recorded_bytes() {
    let data = neusight::data::collect_training_set(
        &neusight::data::training_gpus(),
        neusight::data::SweepScale::Tiny,
        DType::F32,
    );
    let replicas: Vec<RunningServer> = (0..2)
        .map(|_| {
            let ns = NeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training");
            Server::spawn(ServeConfig::default(), ns).expect("spawn replica")
        })
        .collect();
    let config = RouterConfig {
        upstreams: (replicas.iter().enumerate())
            .map(|(i, r)| (format!("replica-{i}"), r.addr()))
            .collect(),
        ..RouterConfig::default()
    };
    let router = Router::spawn(config).expect("spawn router");

    let predict = br#"{"model":"gpt2","gpu":"H100","batch":2}"#;
    let exchanges: Vec<Vec<u8>> = vec![
        request(
            "POST",
            "/v1/predict",
            &[("X-Request-Id", "golden-1")],
            predict,
        ),
        request("POST", "/v1/predict", &[], predict),
        request(
            "POST",
            "/v1/predict",
            &[("X-Request-Id", "golden-2")],
            br#"{"model":"bert","gpu":"V100","batch":1,"train":true}"#,
        ),
        request(
            "POST",
            "/v1/predict",
            &[],
            br#"{"model":"gpt2","gpu":"H100""#,
        ),
        request("POST", "/v1/predict", &[], br#"{"gpu":"H100"}"#),
        request("POST", "/v1/predict", &[], b"{\"model\":\"\xff\"}"),
        request(
            "POST",
            "/v1/predict",
            &[],
            br#"{"model":"nonesuch","gpu":"H100"}"#,
        ),
        request("GET", "/nope", &[], b""),
        request("GET", "/v1/predict", &[], b""),
        request("POST", "/v1/models", &[], b""),
        request("GET", "/v1/models", &[("X-Request-Id", "golden-3")], b""),
    ];

    let mut hash = FNV_OFFSET;
    let mut stream = TcpStream::connect(router.addr()).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut buf = Vec::new();
    for wire in &exchanges {
        stream.write_all(wire).expect("send");
        let answer = normalise_ids(&read_response(&mut stream, &mut buf));
        hash = fnv1a(hash, &answer);
        hash = fnv1a(hash, b"\n");
    }
    // A client that asks to close gets its answer, then end of stream.
    let close = request("POST", "/v1/predict", &[("Connection", "close")], predict);
    stream.write_all(&close).expect("send");
    let answer = normalise_ids(&read_response(&mut stream, &mut buf));
    assert!(
        answer.windows(19).any(|w| w == b"Connection: close\r\n"),
        "{}",
        String::from_utf8_lossy(&answer)
    );
    hash = fnv1a(hash, &answer);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to end");
    assert!(rest.is_empty() && buf.is_empty(), "bytes after a close");

    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
    if fma_gemm() {
        assert_eq!(
            hash, 0x7748_3509_4c5a_e5bd,
            "routed bytes changed: {hash:#018x}"
        );
    }
}

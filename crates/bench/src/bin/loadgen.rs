//! Load generator for the `neusight-serve` HTTP prediction service:
//! drives `POST /v1/predict` over localhost at one or more concurrency
//! levels and records throughput and latency percentiles.
//!
//! ```text
//! cargo run --release -p neusight-bench --bin loadgen -- \
//!     [--concurrency N[,N,...]] [--duration-s F] \
//!     [--addr HOST:PORT] [--out FILE] [--cluster R[,R,...]] \
//!     [--slow-replica-ms N]
//! ```
//!
//! `--concurrency` takes one level or a comma-separated sweep; either way
//! the output is one file with a per-level `levels` array
//! (`BENCH_serve2.json`).
//!
//! `--cluster 1,2,4` switches to the **multi-endpoint cluster mode**
//! (`BENCH_cluster.json`): for each replica count it boots that many
//! in-process serve replicas behind an in-process `neusight-router`,
//! checks that routed responses are byte-identical to a direct
//! single-node server, and measures aggregate req/s through the router.
//! Replicas run with a fixed per-request `service_delay`, making the
//! per-replica ceiling service-time-bound — so near-linear scaling with
//! replica count is the *expected* result on any machine, including
//! single-core CI runners, and deviations indicate router overhead or
//! broken sharding rather than host CPU contention.
//!
//! `--slow-replica-ms 50` switches to the **tail-latency mode**
//! (`BENCH_tail.json`): three in-process replicas, one slowed by the
//! given per-batch service delay, behind a router measured twice — once
//! plain, once with hedged requests enabled. A 2 % slice of the traffic
//! routes to the slow replica, so the unhedged p99 *is* the slow
//! replica's delay; hedging should cut it to roughly the hedge delay
//! while duplicating only that slow slice (well under the 10 % budget).
//! The `obscheck tail` gate enforces both.
//!
//! By default the generator is **self-hosting**: it trains a tiny
//! predictor, boots a server on an ephemeral loopback port in-process,
//! warms the prediction cache, measures, then drains the server — so CI needs no
//! orchestration. Pass `--addr` to aim at an external server instead (it
//! must already be running and warm).
//!
//! # Client design
//!
//! Concurrency here means **in-flight requests**, not OS threads. Each
//! worker thread multiplexes many keep-alive connections: it writes one
//! request on every connection it owns, then collects the responses.
//! That keeps the generator honest at 256-way on small CI machines —
//! 256 blocking client threads would measure the scheduler, not the
//! server.

use neusight_core::{NeuSight, NeuSightConfig};
use neusight_data::{collect_training_set, training_gpus, SweepScale};
use neusight_gpu::DType;
use neusight_router::{HashRing, HedgeConfig, RouteKey, Router, RouterConfig};
use neusight_serve::{Client, RunningServer, ServeConfig, Server};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The request mix every worker cycles through. Small on purpose: after
/// one warmup pass the server answers all of them from the memo cache,
/// which is the steady state a capacity-planning service lives in.
/// How many of the slowest requests each level reports, with their
/// server-echoed `X-Request-Id` values.
const SLOWEST_REPORTED: usize = 10;

const REQUESTS: [&str; 4] = [
    r#"{"model":"bert","gpu":"H100","batch":2}"#,
    r#"{"model":"gpt2","gpu":"A100-80GB","batch":4}"#,
    r#"{"model":"opt","gpu":"V100","batch":1,"train":true}"#,
    r#"{"model":"switch","gpu":"T4","batch":2}"#,
];

#[derive(Debug, Serialize)]
struct LatencySummary {
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

/// One of the slowest observed requests, with the server-assigned trace
/// ID echoed in `X-Request-Id` — look it up in the server's flight
/// recorder (`GET /v1/debug/traces`) for a per-stage breakdown.
#[derive(Debug, Clone, Serialize)]
struct SlowRequest {
    latency_ms: f64,
    request_id: String,
}

/// One concurrency level of a sweep.
#[derive(Debug, Serialize)]
struct LevelSummary {
    concurrency: usize,
    duration_s: f64,
    requests: usize,
    errors: usize,
    throughput_rps: f64,
    latency: LatencySummary,
    /// The 10 slowest requests of the level, slowest first.
    slowest: Vec<SlowRequest>,
}

/// Sweep schema (`BENCH_serve2.json`).
#[derive(Debug, Serialize)]
struct SweepSummary {
    generated_by: String,
    addr: String,
    levels: Vec<LevelSummary>,
}

/// `q`-quantile of an ascending latency list (nearest-rank).
fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    #[allow(clippy::cast_precision_loss)]
    let ms = sorted_ns[rank - 1] as f64 / 1e6;
    ms
}

fn summarize(sorted_ns: &[u64]) -> LatencySummary {
    #[allow(clippy::cast_precision_loss)]
    let mean_ms = if sorted_ns.is_empty() {
        0.0
    } else {
        sorted_ns.iter().map(|&ns| ns as f64).sum::<f64>() / sorted_ns.len() as f64 / 1e6
    };
    LatencySummary {
        mean_ms,
        p50_ms: percentile(sorted_ns, 0.50),
        p95_ms: percentile(sorted_ns, 0.95),
        p99_ms: percentile(sorted_ns, 0.99),
        max_ms: percentile(sorted_ns, 1.0),
    }
}

struct Args {
    levels: Vec<usize>,
    duration_s: f64,
    addr: Option<String>,
    out: Option<String>,
    cluster: Option<Vec<usize>>,
    slow_replica_ms: Option<u64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        levels: vec![32],
        duration_s: 3.0,
        addr: None,
        out: None,
        cluster: None,
        slow_replica_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("--{name} needs a value"))
        };
        match flag.as_str() {
            "--concurrency" => {
                parsed.levels = value("concurrency")
                    .split(',')
                    .map(|level| level.trim().parse().expect("usize concurrency"))
                    .collect();
                assert!(!parsed.levels.is_empty(), "--concurrency needs a value");
            }
            "--duration-s" => parsed.duration_s = value("duration-s").parse().expect("seconds"),
            "--addr" => parsed.addr = Some(value("addr")),
            "--out" => parsed.out = Some(value("out")),
            "--cluster" => {
                parsed.cluster = Some(
                    value("cluster")
                        .split(',')
                        .map(|count| count.trim().parse().expect("usize replica count"))
                        .collect(),
                );
            }
            "--slow-replica-ms" => {
                parsed.slow_replica_ms =
                    Some(value("slow-replica-ms").parse().expect("u64 milliseconds"));
            }
            other => panic!("unknown flag {other} (see the bin docs)"),
        }
    }
    parsed
}

/// Boots an in-process server sized for the benchmark's peak level.
/// Request tracing and the flight recorder are on (the `neusight-obs`
/// default), so the benchmark measures the traced serving path; the full
/// span/metric profiling stack stays off, as in a production server.
fn self_host(peak: usize) -> RunningServer {
    debug_assert!(neusight_obs::tracing(), "tracing must default on");
    eprintln!("training a tiny predictor for the in-process server…");
    let data = collect_training_set(&training_gpus(), SweepScale::Tiny, DType::F32);
    let ns = NeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training");
    let config = ServeConfig {
        workers: peak + 4,
        queue_depth: (peak * 8).max(256),
        ..ServeConfig::default()
    };
    Server::spawn(config, ns).expect("bind loopback server")
}

/// A raw keep-alive connection the mux worker drives: request bytes go
/// out in one write, responses are parsed just enough to get the status
/// and skip the body.
struct RawConn {
    stream: TcpStream,
    /// Unconsumed response bytes from a previous read.
    buf: Vec<u8>,
    /// When the currently in-flight request was written.
    sent: Instant,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> std::io::Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(RawConn {
            stream,
            buf: Vec::new(),
            sent: Instant::now(),
        })
    }

    fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.sent = Instant::now();
        self.stream.write_all(request)
    }

    /// Reads one full response, returning `(status, latency_ns,
    /// request_id)`. The `X-Request-Id` header is parsed (and allocated)
    /// only when the latency reaches `id_threshold_ns` — a slowest-list
    /// candidate — keeping the common path allocation-free.
    fn recv(&mut self, id_threshold_ns: u64) -> std::io::Result<(u16, u64, Option<String>)> {
        let mut chunk = [0u8; 4096];
        let (head_len, status, content_length) = loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF8 head")
                })?;
                break (head_end, parse_status(head)?, parse_content_length(head));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let total = head_len + content_length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        #[allow(clippy::cast_possible_truncation)]
        let latency_ns = self.sent.elapsed().as_nanos() as u64;
        let request_id = if latency_ns >= id_threshold_ns {
            std::str::from_utf8(&self.buf[..head_len])
                .ok()
                .and_then(parse_request_id)
        } else {
            None
        };
        self.buf.drain(..total);
        Ok((status, latency_ns, request_id))
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn parse_status(head: &str) -> std::io::Result<u16> {
    head.split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))
}

fn parse_content_length(head: &str) -> usize {
    head.lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .unwrap_or(0)
}

fn parse_request_id(head: &str) -> Option<String> {
    head.lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("x-request-id"))
        .map(|(_, value)| value.trim().to_owned())
}

/// Pre-rendered request bytes for the whole mix, matching the blocking
/// client's wire format.
fn request_templates(addr: SocketAddr) -> Vec<Vec<u8>> {
    REQUESTS
        .iter()
        .map(|body| {
            format!(
                "POST /v1/predict HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect()
}

/// Drives one concurrency level: `level` in-flight requests multiplexed
/// over `level` keep-alive connections split across a few worker threads.
fn run_level(addr: SocketAddr, level: usize, duration_s: f64) -> LevelSummary {
    run_level_with(addr, level, duration_s, &request_templates(addr))
}

/// [`run_level`] with an explicit request-template mix (cluster mode
/// drives a wider keyspace than the default four-request mix).
fn run_level_with(
    addr: SocketAddr,
    level: usize,
    duration_s: f64,
    templates: &[Vec<u8>],
) -> LevelSummary {
    let threads = level.min(
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .max(2),
    );
    eprintln!(
        "driving http://{addr} at {level}-way concurrency \
         ({threads} mux threads) for {duration_s:.1} s…"
    );
    let deadline = Instant::now() + Duration::from_secs_f64(duration_s);
    let started = Instant::now();
    type WorkerResult = (Vec<u64>, usize, Vec<(u64, String)>);
    let mut results: Vec<WorkerResult> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for worker in 0..threads {
            let templates = &templates;
            // Distribute the connections as evenly as possible.
            let conns = level / threads + usize::from(worker < level % threads);
            workers.push(scope.spawn(move || {
                let mut conns: Vec<RawConn> = (0..conns)
                    .map(|_| RawConn::connect(addr).expect("connect mux"))
                    .collect();
                let mut latencies_ns: Vec<u64> = Vec::with_capacity(262_144);
                let mut errors = 0usize;
                // Slowest requests seen by this worker, slowest first:
                // `(latency_ns, echoed X-Request-Id)`.
                let mut slow: Vec<(u64, String)> = Vec::new();
                let mut next = worker; // stagger the mix across workers
                while Instant::now() < deadline {
                    // One round: a request in flight on every connection,
                    // then collect the responses.
                    for conn in &mut conns {
                        let template = &templates[next % templates.len()];
                        next += 1;
                        if conn.send(template).is_err() {
                            errors += 1;
                        }
                    }
                    for conn in &mut conns {
                        // Only a response slower than the current 10th
                        // slowest needs its X-Request-Id parsed.
                        let threshold = if slow.len() < SLOWEST_REPORTED {
                            0
                        } else {
                            slow.last().map_or(0, |(ns, _)| *ns)
                        };
                        match conn.recv(threshold) {
                            Ok((200, latency_ns, request_id)) => {
                                latencies_ns.push(latency_ns);
                                if let Some(id) = request_id {
                                    slow.push((latency_ns, id));
                                    slow.sort_by_key(|entry| std::cmp::Reverse(entry.0));
                                    slow.truncate(SLOWEST_REPORTED);
                                }
                            }
                            Ok(_) | Err(_) => errors += 1,
                        }
                    }
                }
                (latencies_ns, errors, slow)
            }));
        }
        for worker in workers {
            results.push(worker.join().expect("mux worker"));
        }
    });
    let measured_s = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0usize;
    let mut slow: Vec<(u64, String)> = Vec::new();
    for (worker_latencies, worker_errors, worker_slow) in results {
        latencies.extend(worker_latencies);
        errors += worker_errors;
        slow.extend(worker_slow);
    }
    slow.sort_by_key(|entry| std::cmp::Reverse(entry.0));
    slow.truncate(SLOWEST_REPORTED);
    #[allow(clippy::cast_precision_loss)]
    let slowest: Vec<SlowRequest> = slow
        .into_iter()
        .map(|(ns, request_id)| SlowRequest {
            latency_ms: ns as f64 / 1e6,
            request_id,
        })
        .collect();
    latencies.sort_unstable();
    let requests = latencies.len();
    #[allow(clippy::cast_precision_loss)]
    let throughput_rps = requests as f64 / measured_s;
    let latency = summarize(&latencies);
    eprintln!(
        "  {requests} requests in {measured_s:.2} s → {throughput_rps:.0} req/s \
         (p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, {errors} errors)",
        latency.p50_ms, latency.p95_ms, latency.p99_ms
    );
    LevelSummary {
        concurrency: level,
        duration_s: measured_s,
        requests,
        errors,
        throughput_rps,
        latency,
        slowest,
    }
}

/// Fixed in-flight requests for cluster mode — enough to keep every
/// replica's dispatcher saturated at all measured fleet sizes.
const CLUSTER_CONCURRENCY: usize = 64;

/// Per-request dispatcher service delay in cluster mode, microseconds.
/// This pins the per-replica throughput ceiling at ~1/delay (≈667
/// req/s) regardless of host CPU, so replica-count scaling measures the
/// *router and sharding*, not core count. 1.5 ms leaves the proxying
/// CPU cost (~0.25 ms/request on one CI core) far from the bottleneck
/// even at the 4-replica level.
const CLUSTER_SERVICE_DELAY_US: u64 = 1500;

/// The cluster request mix: the full model zoo × the full GPU catalog
/// at batch 1 — a 64-key `(GPU, op family)` keyspace, wide enough that
/// each replica's key share sits close to its ring arc share (pinned by
/// a `neusight-router` ring unit test). Share balance matters directly:
/// each replica's dispatcher is serial here, so the hottest shard's
/// share caps fleet throughput at `1/max_share`.
fn cluster_requests() -> Vec<String> {
    cluster_keyspace()
        .into_iter()
        .map(|(_, _, body)| body)
        .collect()
}

/// The `(model, gpu, body)` grid behind [`cluster_requests`] — tail mode
/// needs the key components to compute each body's ring owner.
fn cluster_keyspace() -> Vec<(&'static str, &'static str, String)> {
    let models = [
        "gpt2",
        "bert",
        "opt",
        "switch",
        "resnet50",
        "vgg16",
        "gpt3-xl",
        "gpt3-2.7b",
    ];
    let gpus = [
        "P4",
        "P100",
        "V100",
        "T4",
        "A100-40GB",
        "A100-80GB",
        "L4",
        "H100",
    ];
    let mut grid = Vec::new();
    for model in models {
        for gpu in gpus {
            let body = format!("{{\"model\":\"{model}\",\"gpu\":\"{gpu}\",\"batch\":1}}");
            grid.push((model, gpu, body));
        }
    }
    grid
}

/// One replica count of the cluster sweep.
#[derive(Debug, Serialize)]
struct ClusterLevel {
    replicas: usize,
    duration_s: f64,
    requests: usize,
    errors: usize,
    throughput_rps: f64,
    latency: LatencySummary,
}

/// Cluster sweep schema (`BENCH_cluster.json`).
#[derive(Debug, Serialize)]
struct ClusterSummary {
    generated_by: String,
    mode: String,
    concurrency: usize,
    service_delay_us: u64,
    /// Whether every routed response matched the direct single-node
    /// body byte for byte.
    bitwise_identical: bool,
    levels: Vec<ClusterLevel>,
}

/// A serve replica tuned for the cluster benchmark (see
/// [`CLUSTER_SERVICE_DELAY_US`]).
fn spawn_cluster_replica(ns: &NeuSight) -> RunningServer {
    let config = ServeConfig {
        workers: CLUSTER_CONCURRENCY + 16,
        queue_depth: 1024,
        max_batch: 1,
        service_delay: Duration::from_micros(CLUSTER_SERVICE_DELAY_US),
        ..ServeConfig::default()
    };
    Server::spawn(config, ns.clone()).expect("bind cluster replica")
}

/// The multi-endpoint cluster benchmark: for each replica count, boot
/// that many in-process replicas behind an in-process router, verify
/// bitwise identity against a direct single-node server, and measure
/// aggregate throughput through the router.
fn run_cluster(counts: &[usize], duration_s: f64, out: &str) {
    eprintln!("training a tiny predictor for the in-process cluster…");
    let data = collect_training_set(&training_gpus(), SweepScale::Tiny, DType::F32);
    let ns = NeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training");
    let bodies = cluster_requests();

    // Reference bodies from a plain single-node server — the bitwise
    // baseline every routed response must match.
    let reference: Vec<String> = {
        let server = spawn_cluster_replica(&ns);
        let mut client = Client::connect(server.addr()).expect("connect reference");
        let reference = bodies
            .iter()
            .map(|body| {
                let response = client.post_json("/v1/predict", body).expect("reference");
                assert_eq!(
                    response.status,
                    200,
                    "reference failed: {}",
                    response.text()
                );
                response.text()
            })
            .collect();
        drop(client);
        server.shutdown_and_join().expect("drain reference server");
        reference
    };

    let mut bitwise_identical = true;
    let mut levels = Vec::new();
    for &replicas in counts {
        assert!(replicas > 0, "--cluster replica counts must be positive");
        let fleet: Vec<RunningServer> = (0..replicas).map(|_| spawn_cluster_replica(&ns)).collect();
        let config = RouterConfig {
            upstreams: fleet
                .iter()
                .enumerate()
                .map(|(i, server)| (format!("replica-{i}"), server.addr()))
                .collect(),
            ..RouterConfig::default()
        };
        let router = Router::spawn(config).expect("bind router");
        eprintln!(
            "cluster level: {replicas} replica{} behind http://{}",
            if replicas == 1 { "" } else { "s" },
            router.addr()
        );

        // Warmup through the router doubles as the bitwise-identity
        // check: every shard owner computes (and memoizes) its keys.
        let mut warm = Client::connect(router.addr()).expect("connect router warmup");
        for (body, expected) in bodies.iter().zip(&reference) {
            let response = warm.post_json("/v1/predict", body).expect("router warmup");
            assert_eq!(response.status, 200, "warmup failed: {}", response.text());
            if response.text() != *expected {
                bitwise_identical = false;
                eprintln!("MISMATCH routed vs direct for {body}");
            }
        }
        drop(warm);

        let templates: Vec<Vec<u8>> = bodies
            .iter()
            .map(|body| {
                format!(
                    "POST /v1/predict HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    router.addr(),
                    body.len()
                )
                .into_bytes()
            })
            .collect();
        let level = run_level_with(router.addr(), CLUSTER_CONCURRENCY, duration_s, &templates);

        router.shutdown_and_join().expect("drain router");
        for server in fleet {
            server.shutdown_and_join().expect("drain replica");
        }
        levels.push(ClusterLevel {
            replicas,
            duration_s: level.duration_s,
            requests: level.requests,
            errors: level.errors,
            throughput_rps: level.throughput_rps,
            latency: level.latency,
        });
    }

    let summary = ClusterSummary {
        generated_by: "cargo run --release -p neusight-bench --bin loadgen -- --cluster".to_owned(),
        mode: "cluster".to_owned(),
        concurrency: CLUSTER_CONCURRENCY,
        service_delay_us: CLUSTER_SERVICE_DELAY_US,
        bitwise_identical,
        levels,
    };
    let json = serde_json::to_string_pretty(&summary).expect("serializable");
    std::fs::write(out, json + "\n").expect("write cluster summary");
    eprintln!("wrote {out}");
    assert!(bitwise_identical, "routed responses diverged from direct");
}

/// In-flight requests in tail mode. Low on purpose: the tail benchmark
/// isolates one slow replica's latency contribution, and deep queueing
/// at the slow replica would measure queue depth instead.
const TAIL_CONCURRENCY: usize = 8;

/// One request in `TAIL_SLOW_EVERY` targets the slow replica: the 2 %
/// slice sits just past the p99 rank, so the unhedged p99 *is* the slow
/// replica's delay, while the hedged duplicates stay far under the 10 %
/// hedge budget.
const TAIL_SLOW_EVERY: usize = 50;

/// One measured pass of the tail benchmark (hedging off or on).
#[derive(Debug, Serialize)]
struct TailRun {
    hedged: bool,
    duration_s: f64,
    requests: usize,
    errors: usize,
    throughput_rps: f64,
    latency: LatencySummary,
}

/// Tail-latency schema (`BENCH_tail.json`), gated by `obscheck tail`.
#[derive(Debug, Serialize)]
struct TailSummary {
    generated_by: String,
    mode: String,
    replicas: usize,
    slow_replica_ms: u64,
    hedge_delay_ms: u64,
    concurrency: usize,
    slow_share: f64,
    unhedged: TailRun,
    hedged: TailRun,
    hedges_fired: u64,
    hedges_won: u64,
    /// `hedges_fired / hedged.requests` — must stay ≤ the 10 % budget.
    hedged_fraction: f64,
    /// `unhedged.p99 / hedged.p99` — the gate requires ≥ 2×.
    p99_cut: f64,
}

/// Builds the tail-mode request mix for a router at `addr`: a 50-slot
/// cycle with one body owned by `slow_name` and 49 bodies owned by the
/// fast replicas.
fn tail_templates(addr: SocketAddr, slow_body: &str, fast_bodies: &[String]) -> Vec<Vec<u8>> {
    let render = |body: &str| {
        format!(
            "POST /v1/predict HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    let mut templates = vec![render(slow_body)];
    for i in 0..TAIL_SLOW_EVERY - 1 {
        templates.push(render(&fast_bodies[i % fast_bodies.len()]));
    }
    templates
}

/// The tail-latency benchmark: three replicas (one slowed by
/// `slow_ms` per batch) behind a router, measured without and with
/// hedged requests, plus the hedge counters that prove the duplicates
/// stayed within budget.
fn run_tail(slow_ms: u64, duration_s: f64, out: &str) {
    assert!(slow_ms >= 10, "--slow-replica-ms below 10 ms is all noise");
    // Counters (`router.hedge.*`) are no-ops unless obs is on; both
    // passes run with it enabled so they pay the same overhead.
    neusight_obs::set_enabled(true);
    eprintln!("training a tiny predictor for the in-process tail fleet…");
    let data = collect_training_set(&training_gpus(), SweepScale::Tiny, DType::F32);
    let ns = NeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training");

    // Partition the cluster keyspace by ring owner so exactly one body
    // in the mix routes to the slow replica.
    let replicas = 3usize;
    let names: Vec<String> = (0..replicas).map(|i| format!("replica-{i}")).collect();
    let slow_name = names[0].clone();
    let ring = HashRing::new(names.clone());
    let mut slow_body: Option<String> = None;
    let mut fast_bodies: Vec<String> = Vec::new();
    for (model, gpu, body) in cluster_keyspace() {
        let owner = ring
            .route(&RouteKey::from_predict(model, gpu))
            .expect("non-empty ring");
        if owner == slow_name {
            slow_body.get_or_insert(body);
        } else {
            fast_bodies.push(body);
        }
    }
    let slow_body = slow_body.expect("ring gives every member some keys");

    let spawn = |delay_ms: u64| {
        let config = ServeConfig {
            workers: TAIL_CONCURRENCY + 8,
            queue_depth: 1024,
            service_delay: Duration::from_millis(delay_ms),
            ..ServeConfig::default()
        };
        Server::spawn(config, ns.clone()).expect("bind tail replica")
    };
    let fleet: Vec<RunningServer> = (0..replicas)
        .map(|i| spawn(if i == 0 { slow_ms } else { 0 }))
        .collect();
    let upstreams: Vec<(String, SocketAddr)> = names
        .iter()
        .zip(&fleet)
        .map(|(name, server)| (name.clone(), server.addr()))
        .collect();
    let hedge_delay_ms = (slow_ms / 10).max(2);

    let measure = |hedge: HedgeConfig| -> TailRun {
        let hedged = hedge.enabled;
        let config = RouterConfig {
            upstreams: upstreams.clone(),
            hedge,
            ..RouterConfig::default()
        };
        let router = Router::spawn(config).expect("bind tail router");
        eprintln!(
            "tail pass (hedged: {hedged}): {replicas} replicas behind http://{} \
             ({slow_name} delayed {slow_ms} ms, hedge delay {hedge_delay_ms} ms)",
            router.addr()
        );
        // Warm every key in the mix (and check it answers 200).
        let mut warm = Client::connect(router.addr()).expect("connect tail warmup");
        for body in std::iter::once(&slow_body).chain(&fast_bodies) {
            let response = warm.post_json("/v1/predict", body).expect("tail warmup");
            assert_eq!(response.status, 200, "warmup failed: {}", response.text());
        }
        drop(warm);
        let templates = tail_templates(router.addr(), &slow_body, &fast_bodies);
        let level = run_level_with(router.addr(), TAIL_CONCURRENCY, duration_s, &templates);
        router.shutdown_and_join().expect("drain tail router");
        TailRun {
            hedged,
            duration_s: level.duration_s,
            requests: level.requests,
            errors: level.errors,
            throughput_rps: level.throughput_rps,
            latency: level.latency,
        }
    };

    let unhedged = measure(HedgeConfig::default());
    let fired_before = neusight_obs::metrics::counter("router.hedge.fired").get();
    let won_before = neusight_obs::metrics::counter("router.hedge.won").get();
    let hedged = measure(HedgeConfig {
        enabled: true,
        delay_override: Some(Duration::from_millis(hedge_delay_ms)),
        ..HedgeConfig::default()
    });
    let hedges_fired = neusight_obs::metrics::counter("router.hedge.fired").get() - fired_before;
    let hedges_won = neusight_obs::metrics::counter("router.hedge.won").get() - won_before;

    for server in fleet {
        server.shutdown_and_join().expect("drain tail replica");
    }

    #[allow(clippy::cast_precision_loss)]
    let hedged_fraction = if hedged.requests == 0 {
        0.0
    } else {
        hedges_fired as f64 / hedged.requests as f64
    };
    let p99_cut = if hedged.latency.p99_ms > 0.0 {
        unhedged.latency.p99_ms / hedged.latency.p99_ms
    } else {
        0.0
    };
    eprintln!(
        "tail: p99 {:.2} ms → {:.2} ms ({p99_cut:.1}× cut), \
         {hedges_fired} hedges fired / {hedges_won} won \
         ({:.1} % of traffic)",
        unhedged.latency.p99_ms,
        hedged.latency.p99_ms,
        hedged_fraction * 100.0
    );

    #[allow(clippy::cast_precision_loss)]
    let summary = TailSummary {
        generated_by: "cargo run --release -p neusight-bench --bin loadgen -- --slow-replica-ms"
            .to_owned(),
        mode: "tail".to_owned(),
        replicas,
        slow_replica_ms: slow_ms,
        hedge_delay_ms,
        concurrency: TAIL_CONCURRENCY,
        slow_share: 1.0 / TAIL_SLOW_EVERY as f64,
        unhedged,
        hedged,
        hedges_fired,
        hedges_won,
        hedged_fraction,
        p99_cut,
    };
    let json = serde_json::to_string_pretty(&summary).expect("serializable");
    std::fs::write(out, json + "\n").expect("write tail summary");
    eprintln!("wrote {out}");
}

fn main() {
    let args = parse_args();
    if let Some(slow_ms) = args.slow_replica_ms {
        let out = args
            .out
            .clone()
            .unwrap_or_else(|| "BENCH_tail.json".to_owned());
        run_tail(slow_ms, args.duration_s, &out);
        return;
    }
    if let Some(counts) = args.cluster.clone() {
        let out = args
            .out
            .clone()
            .unwrap_or_else(|| "BENCH_cluster.json".to_owned());
        run_cluster(&counts, args.duration_s, &out);
        return;
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_serve2.json".to_owned());
    let peak = args.levels.iter().copied().max().unwrap_or(32);

    let hosted: Option<RunningServer> = match args.addr {
        Some(_) => None,
        None => Some(self_host(peak)),
    };
    let addr: SocketAddr = match (&args.addr, &hosted) {
        (Some(text), _) => text.parse().expect("--addr must be HOST:PORT"),
        (None, Some(server)) => server.addr(),
        (None, None) => unreachable!(),
    };

    // Warmup: populate the memo cache (and fault in every graph) so the
    // measured window sees the steady state.
    let mut warm = Client::connect(addr).expect("connect for warmup");
    for body in REQUESTS {
        let response = warm.post_json("/v1/predict", body).expect("warmup request");
        assert_eq!(
            response.status,
            200,
            "warmup request failed: {}",
            response.text()
        );
    }
    drop(warm);

    let levels: Vec<LevelSummary> = args
        .levels
        .iter()
        .map(|&level| run_level(addr, level, args.duration_s))
        .collect();

    if let Some(server) = hosted {
        server.shutdown_and_join().expect("graceful drain");
        eprintln!("in-process server drained cleanly");
    }

    let summary = SweepSummary {
        generated_by: "cargo run --release -p neusight-bench --bin loadgen".to_owned(),
        addr: addr.to_string(),
        levels,
    };
    let json = serde_json::to_string_pretty(&summary).expect("serializable");
    std::fs::write(&out, json + "\n").expect("write summary");
    eprintln!("wrote {out}");
}

//! End-to-end tests for the serving layer: a real server on a real
//! ephemeral socket, driven by the blocking client over HTTP/1.1.
//!
//! Covers the three contracts the ISSUE pins down: concurrent predicts
//! return **bitwise** the same numbers as a direct in-process
//! `predict_graph` call; overload answers `429` (with `Retry-After`)
//! instead of stalling; and a drain triggered mid-flight finishes the
//! in-flight request before the server exits.
//!
//! The served bytes are also pinned against the in-process reference
//! (`PredictService::predict_batch_serialized` and the catalog JSON), so
//! the HTTP layer cannot drift from what the service computes.
//!
//! Response-memo hits are answered on the event loop without the
//! dispatcher; the tests at the end pin which requests may take that
//! path and that it serves the dispatcher's exact bytes. They count
//! dispatcher batches in the process-global metric registry, so every
//! test here that runs a server holds [`serial`].
//!
//! Shutdown here uses `ServerHandle::shutdown` rather than
//! `signal::raise()`: these tests share one process, and the signal flag
//! is global — raising it in one test would drain every other server. The
//! real SIGTERM path is exercised by the CI smoke step against a separate
//! `neusight serve` process.

use neusight::core::{NeuSight, NeuSightConfig, Registry};
use neusight::gpu::{catalog, DType};
use neusight::graph::{config, inference_graph, training_graph};
use neusight::serve::http::Response;
use neusight::serve::{
    Client, ClientResponse, PredictRequest, PredictResponse, PredictService, ServeConfig, Server,
};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// One tiny training sweep shared by every test; `NeuSight::train` is
/// deterministic, so each test trains an identical predictor from it.
fn training_data() -> &'static neusight::data::KernelDataset {
    static DATA: OnceLock<neusight::data::KernelDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        neusight::data::collect_training_set(
            &neusight::data::training_gpus(),
            neusight::data::SweepScale::Tiny,
            DType::F32,
        )
    })
}

fn tiny_neusight() -> NeuSight {
    NeuSight::train(training_data(), &NeuSightConfig::tiny()).expect("tiny training")
}

/// Runs this file's server tests one at a time, so that a test counting
/// `serve.dispatch.batches` (or arming a failpoint) sees only its own
/// server.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn concurrent_predicts_are_bitwise_identical_to_direct_predict_graph() {
    let _serial = serial();
    let ns = tiny_neusight();

    // Expected numbers straight from the framework, before the server
    // takes ownership of it.
    let h100 = catalog::gpu("H100").unwrap();
    let v100 = catalog::gpu("V100").unwrap();
    let bert_inf = ns
        .predict_graph(&inference_graph(&config::bert_large(), 2), &h100)
        .unwrap();
    let gpt2_train = ns
        .predict_graph(&training_graph(&config::gpt2_large(), 1), &v100)
        .unwrap();
    let cases: Vec<(&str, u64)> = vec![
        (
            r#"{"model":"bert","gpu":"H100","batch":2}"#,
            (bert_inf.total_s * 1e3).to_bits(),
        ),
        (
            r#"{"model":"gpt2","gpu":"V100","batch":1,"train":true}"#,
            (gpt2_train.total_s * 1e3).to_bits(),
        ),
    ];

    let server = Server::spawn(ServeConfig::default(), ns).expect("spawn server");
    let addr = server.addr();

    // Eight client threads hammer the same two requests concurrently, so
    // the dispatcher actually forms multi-request batches.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let cases = &cases;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _round in 0..3 {
                    for (body, expected_bits) in cases {
                        let response = client.post_json("/v1/predict", body).expect("predict");
                        assert_eq!(response.status, 200, "{}", response.text());
                        let parsed: PredictResponse =
                            serde_json::from_str(&response.text()).expect("response JSON");
                        assert_eq!(
                            parsed.total_ms.to_bits(),
                            *expected_bits,
                            "served total_ms must be bitwise equal to direct predict_graph"
                        );
                        assert!(parsed.kernels > 0);
                    }
                }
            });
        }
    });

    // The read-only routes on the same (kept-alive) connection.
    let mut client = Client::connect(addr).expect("connect");
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));
    let models = client.get("/v1/models").expect("models");
    assert!(models.text().contains("GPT2-Large"));
    let gpus = client.get("/v1/gpus").expect("gpus");
    assert!(gpus.text().contains("H100"));
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .text()
        .contains("# TYPE neusight_serve_http_requests counter"));
    assert!(metrics.text().contains("neusight_serve_info{addr="));
    let missing = client.get("/nope").expect("404 route");
    assert_eq!(missing.status, 404);
    let wrong_method = client.get("/v1/predict").expect("405 route");
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));

    server.shutdown_and_join().expect("clean drain");
}

#[test]
fn queue_overflow_returns_429_with_retry_after_not_a_stall() {
    let _serial = serial();
    let config = ServeConfig {
        queue_depth: 2,
        // Each batch takes 100 ms, so concurrent requests pile into the
        // two-slot queue and overflow deterministically.
        service_delay: Duration::from_millis(100),
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, tiny_neusight()).expect("spawn server");
    let addr = server.addr();

    let started = Instant::now();
    let mut statuses: Vec<u16> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..16)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let response = client
                        .post_json("/v1/predict", r#"{"model":"bert","gpu":"T4"}"#)
                        .expect("request completes rather than stalling");
                    let retry_after = response.header("retry-after").map(str::to_owned);
                    (response.status, retry_after)
                })
            })
            .collect();
        for worker in workers {
            let (status, retry_after) = worker.join().expect("worker");
            if status == 429 {
                let seconds: u64 = retry_after
                    .expect("429 must carry Retry-After")
                    .parse()
                    .expect("Retry-After is integer seconds");
                assert!(seconds >= 1);
            }
            statuses.push(status);
        }
    });

    let accepted = statuses.iter().filter(|&&s| s == 200).count();
    let rejected = statuses.iter().filter(|&&s| s == 429).count();
    assert!(
        rejected > 0,
        "queue depth 2 under 16-way fire must overflow"
    );
    assert!(accepted > 0, "admitted requests must still be served");
    assert_eq!(
        accepted + rejected,
        statuses.len(),
        "only 200/429 expected, got {statuses:?}"
    );
    // Overload resolved by rejection, not by stalling sockets: even the
    // accepted requests only queue behind a handful of 100 ms batches.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "overload handling took {:?}",
        started.elapsed()
    );

    server.shutdown_and_join().expect("clean drain");
}

#[test]
fn graceful_drain_finishes_in_flight_requests() {
    let _serial = serial();
    let config = ServeConfig {
        // Slow batches so the drain demonstrably overlaps a live request.
        service_delay: Duration::from_millis(300),
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, tiny_neusight()).expect("spawn server");
    let addr = server.addr();
    let handle = server.handle();

    // Deterministic ordering without sleeps: the in-flight thread signals
    // once its connection is up, *then* posts. The main thread's own
    // request takes ≥ 300 ms to serve (every batch sleeps), which is the
    // in-flight thread's runway to get admitted — so by the time the main
    // request returns, the in-flight one is either served or queued, and
    // shutdown() must drain it either way.
    let (connected, ready) = std::sync::mpsc::channel();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        connected.send(()).expect("signal main");
        client
            .post_json("/v1/predict", r#"{"model":"opt","gpu":"P100","batch":2}"#)
            .expect("in-flight request survives the drain")
    });
    ready.recv().expect("in-flight thread connected");
    let mut pacer = Client::connect(addr).expect("connect pacer");
    let paced = pacer
        .post_json("/v1/predict", r#"{"model":"bert","gpu":"T4"}"#)
        .expect("pacing request");
    assert_eq!(paced.status, 200);
    handle.shutdown();

    let response = in_flight.join().expect("request thread");
    assert_eq!(
        response.status,
        200,
        "drain must serve admitted work, got: {}",
        response.text()
    );
    server.shutdown_and_join().expect("drained exit");
}

// ---------------------------------------------------------------------------
// Malformed-HTTP corpus: every entry is raw bytes a hostile or broken
// client might send. The contract is uniform — a clean 4xx/5xx status
// line (or a silent close), never a panic, never a hung connection.
// ---------------------------------------------------------------------------

/// Writes raw bytes to a fresh connection and reads whatever the server
/// answers until it closes the socket (bounded by a read timeout so a
/// hung server fails the test instead of wedging it).
fn raw_exchange(addr: std::net::SocketAddr, payload: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(payload).expect("write");
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("server hung on malformed input ({e}); got so far: {response:?}"),
        }
    }
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn malformed_http_corpus_yields_clean_errors_never_hangs() {
    let _serial = serial();
    let config = ServeConfig {
        // Short idle window so the truncated-body case times out fast.
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, tiny_neusight()).expect("spawn server");
    let addr = server.addr();

    let oversize_head = {
        let mut head = b"GET /healthz HTTP/1.1\r\n".to_vec();
        // 17 KiB of one header blows the 16 KiB head cap.
        head.extend_from_slice(b"X-Pad: ");
        head.extend_from_slice(&vec![b'a'; 17 * 1024]);
        head.extend_from_slice(b"\r\n\r\n");
        head
    };
    let non_utf8_head = b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec();
    let non_utf8_body =
        b"POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc".to_vec();

    let corpus: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "bad request line",
            b"GARBAGE\r\n\r\n".to_vec(),
            "HTTP/1.1 400 ",
        ),
        (
            "unsupported version",
            b"GET / HTTP/0.9\r\n\r\n".to_vec(),
            "HTTP/1.1 505 ",
        ),
        (
            "negative Content-Length",
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: -1\r\n\r\n".to_vec(),
            "HTTP/1.1 400 ",
        ),
        (
            "non-numeric Content-Length",
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            "HTTP/1.1 400 ",
        ),
        (
            "overflowing Content-Length",
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n"
                .to_vec(),
            "HTTP/1.1 400 ",
        ),
        (
            "huge declared body",
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n".to_vec(),
            "HTTP/1.1 413 ",
        ),
        ("oversize head", oversize_head, "HTTP/1.1 431 "),
        ("non-UTF8 head", non_utf8_head, "HTTP/1.1 400 "),
        ("non-UTF8 predict body", non_utf8_body, "HTTP/1.1 400 "),
        (
            "truncated body (lying Content-Length)",
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"mod".to_vec(),
            "HTTP/1.1 408 ",
        ),
        (
            "bad header line",
            b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
            "HTTP/1.1 400 ",
        ),
    ];

    for (name, payload, expected_prefix) in corpus {
        let response = raw_exchange(addr, &payload);
        assert!(
            response.starts_with(expected_prefix),
            "{name}: expected `{expected_prefix}…`, got: {response:.120}"
        );
    }

    // Garbage pipelined after a valid request: the valid one is served,
    // the garbage gets a 400, and the connection closes.
    let pipelined = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\nGARBAGE\r\n\r\n");
    assert!(
        pipelined.starts_with("HTTP/1.1 200 "),
        "pipelined: {pipelined:.120}"
    );
    assert!(
        pipelined.contains("HTTP/1.1 400 "),
        "garbage tail not rejected: {pipelined:.200}"
    );

    // The server is still fully alive after the whole corpus.
    let mut client = Client::connect(addr).expect("connect after corpus");
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    server.shutdown_and_join().expect("clean drain");
}

#[test]
fn field_level_violations_answer_422_not_400() {
    let _serial = serial();
    let server = Server::spawn(ServeConfig::default(), tiny_neusight()).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");

    for (body, field) in [
        (r#"{"model":"bert","gpu":"T4","batch":0}"#, "batch"),
        (r#"{"model":"bert","gpu":"T4","batch":1000000}"#, "batch"),
        (r#"{"model":"","gpu":"T4"}"#, "model"),
        (r#"{"model":"bert","gpu":""}"#, "gpu"),
    ] {
        let response = client.post_json("/v1/predict", body).expect("predict");
        assert_eq!(response.status, 422, "body {body}: {}", response.text());
        assert!(
            response.text().contains(field),
            "422 for {body} must name `{field}`: {}",
            response.text()
        );
    }

    // Plausible-but-unknown names remain 400s from the resolvers.
    let unknown = client
        .post_json("/v1/predict", r#"{"model":"nonesuch","gpu":"T4"}"#)
        .expect("predict");
    assert_eq!(unknown.status, 400);
    server.shutdown_and_join().expect("clean drain");
}

/// The served wire bodies are byte-identical to the in-process
/// reference: every predict body — the 400/422 ones included — matches
/// `PredictService::predict_batch_serialized` and its `ServeError`
/// rendering, and the catalog routes match `models_json`/`gpus_json`.
#[test]
fn served_bytes_match_the_in_process_reference() {
    let _serial = serial();
    let bodies = [
        r#"{"model":"bert","gpu":"H100","batch":2}"#,
        r#"{"model":"gpt2","gpu":"V100","batch":1,"train":true}"#,
        r#"{"model":"bert","gpu":"T4","batch":0}"#,
        r#"{"model":"nonesuch","gpu":"T4"}"#,
    ];
    let reference = PredictService::new(tiny_neusight());
    let server = Server::spawn(ServeConfig::default(), tiny_neusight()).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut statuses = Vec::new();
    for body in bodies {
        let request: PredictRequest = serde_json::from_str(body).expect("request JSON");
        let expected = match reference.predict_batch_serialized(&[request]).pop() {
            Some(Ok(served)) => (200, served.to_string()),
            Some(Err(e)) => {
                let rendered = Response::error(e.status, &e.message).body;
                (
                    e.status,
                    String::from_utf8(rendered).expect("UTF-8 error body"),
                )
            }
            None => panic!("predict_batch_serialized returned no result for {body}"),
        };
        let response = client.post_json("/v1/predict", body).expect("predict");
        assert_eq!(
            (response.status, response.text()),
            expected,
            "{body}: served bytes must match the in-process reference"
        );
        statuses.push(response.status);
    }
    assert_eq!(statuses, [200, 200, 422, 400]);
    for (path, expected) in [
        ("/v1/models", reference.models_json()),
        ("/v1/gpus", reference.gpus_json()),
    ] {
        let response = client.get(path).expect("get");
        assert_eq!(
            (response.status, response.text()),
            (200, expected),
            "{path}"
        );
    }
    let missing = client.get("/nope").expect("404 route");
    assert_eq!(missing.status, 404);
    server.shutdown_and_join().expect("clean drain");
}

// ---------------------------------------------------------------------------
// Request tracing: X-Request-Id propagation and the flight recorder.
// ---------------------------------------------------------------------------

/// The server honors an inbound `X-Request-Id` (echoing it back
/// verbatim), assigns a `neusight-` trace id when none is sent, retains
/// both traces in the flight recorder behind `/v1/debug/traces`, and
/// exposes the pinned stage taxonomy in the dump.
#[test]
fn trace_propagation_pins_the_stage_taxonomy() {
    let _serial = serial();
    neusight::obs::set_enabled(true);
    let server = Server::spawn(ServeConfig::default(), tiny_neusight()).expect("spawn server");
    let addr = server.addr();

    // An inbound X-Request-Id is honored end to end and echoed back.
    let body = r#"{"model":"bert","gpu":"T4","batch":1}"#;
    let sent_id = "trace-me";
    let raw = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nX-Request-Id: {sent_id}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let response = raw_exchange(addr, raw.as_bytes());
    assert!(response.starts_with("HTTP/1.1 200"), "{response:.200}");
    assert!(
        response
            .to_ascii_lowercase()
            .contains(&format!("x-request-id: {sent_id}")),
        "response must echo the inbound X-Request-Id, got: {response:.400}"
    );

    // Without an inbound id the server assigns a neusight- trace id.
    let mut client = Client::connect(addr).expect("connect");
    let assigned = client.post_json("/v1/predict", body).expect("predict");
    assert_eq!(assigned.status, 200);
    let id = assigned
        .header("x-request-id")
        .expect("server must assign a request id")
        .to_owned();
    assert!(id.starts_with("neusight-"), "got id `{id}`");

    // The flight recorder retained both traces, queryable by id.
    let dump = client.get("/v1/debug/traces").expect("debug traces");
    assert_eq!(dump.status, 200);
    let text = dump.text();
    assert!(
        text.contains(&format!("\"id\":\"{sent_id}\"")),
        "flight recorder must retain the client-tagged trace: {text:.400}"
    );
    assert!(
        text.contains(&format!("\"id\":\"{id}\"")),
        "flight recorder must retain the assigned-id trace"
    );
    for stage in [
        "queue_ns",
        "batch_wait_ns",
        "predict_ns",
        "render_ns",
        "write_ns",
    ] {
        assert!(text.contains(stage), "dump is missing `{stage}`");
    }
    let taxonomy = text
        .split_once("\"stages\":[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(stages, _)| stages.to_owned())
        .expect("dump carries the stage taxonomy");
    assert_eq!(
        taxonomy, r#""queue","batch_wait","predict","render","write""#,
        "the trace stage taxonomy is pinned"
    );
    server.shutdown_and_join().expect("clean drain");
}

// ---------------------------------------------------------------------------
// Response-memo hits: answered on the event loop, not by the dispatcher.
// ---------------------------------------------------------------------------

const WARM: &str = r#"{"model":"bert","gpu":"T4","batch":1}"#;

fn counter(name: &str) -> u64 {
    neusight::obs::metrics::counter(name).get()
}

/// Posts `body` and reports the answer with the number of dispatcher
/// batches it took.
fn post_counting_batches(client: &mut Client, body: &str) -> (ClientResponse, u64) {
    let before = counter("serve.dispatch.batches");
    let response = client.post_json("/v1/predict", body).expect("predict");
    (response, counter("serve.dispatch.batches") - before)
}

/// A warmed key is answered again with the bytes and `X-Model-Version`
/// the dispatcher gave it the first time, without another dispatcher
/// batch.
#[test]
fn memo_hits_skip_the_dispatcher_and_serve_its_exact_bytes() {
    let _serial = serial();
    neusight::obs::set_enabled(true);
    let config = ServeConfig {
        model_version: Some("v-memo".to_owned()),
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, tiny_neusight()).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let (first, batches) = post_counting_batches(&mut client, WARM);
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(batches, 1, "a cold key is computed by the dispatcher");
    assert_eq!(first.header("x-model-version"), Some("v-memo"));

    let hits = counter("serve.response_cache.hits");
    for _ in 0..2 {
        let (again, batches) = post_counting_batches(&mut client, WARM);
        assert_eq!(again.status, 200, "{}", again.text());
        assert_eq!(again.body, first.body, "a memo hit serves the same bytes");
        assert_eq!(
            again.header("x-model-version"),
            first.header("x-model-version")
        );
        assert_eq!(batches, 0, "a memo hit must not reach the dispatcher");
    }
    assert_eq!(counter("serve.response_cache.hits") - hits, 2);
    server.shutdown_and_join().expect("clean drain");
}

/// Brownout, a breaker that is not closed, a reload in its shadow stage
/// and a nonzero `service_delay` each keep warm keys on the dispatcher.
#[test]
fn warm_keys_still_go_through_the_dispatcher_when_the_loop_must_not_answer() {
    let _serial = serial();
    neusight::obs::set_enabled(true);

    // Brownout: the dispatcher serves the roofline tier.
    let server = Server::spawn(ServeConfig::default(), tiny_neusight()).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.post_json("/v1/predict", WARM).expect("warm");
    let on = client
        .post_json("/v1/control/brownout", r#"{"on":true}"#)
        .expect("brownout");
    assert_eq!(on.status, 200, "{}", on.text());
    let (browned, batches) = post_counting_batches(&mut client, WARM);
    assert_eq!(batches, 1, "brownout: {}", browned.text());
    assert!(
        browned.text().contains("\"degraded\":true"),
        "{}",
        browned.text()
    );
    server.shutdown_and_join().expect("clean drain");

    // An open breaker: one failed probe trips it, and it stays open
    // after the fault is gone.
    let config = ServeConfig {
        breaker: neusight::fault::BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
            half_open_probes: 1,
        },
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, tiny_neusight()).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.post_json("/v1/predict", WARM).expect("warm");
    neusight::fault::configure(&"core.predict.mlp=1.0".parse().expect("spec"), 3);
    let (tripped, batches) = post_counting_batches(&mut client, WARM);
    neusight::fault::reset();
    assert_eq!(batches, 1, "a failed probe: {}", tripped.text());
    assert!(
        tripped.text().contains("\"degraded\":true"),
        "{}",
        tripped.text()
    );
    let health = client.get("/healthz").expect("healthz").text();
    assert!(health.contains("\"breaker\":\"open\""), "{health}");
    let (open, batches) = post_counting_batches(&mut client, WARM);
    assert_eq!(batches, 1, "open breaker: {}", open.text());
    assert!(open.text().contains("\"degraded\":true"), "{}", open.text());
    server.shutdown_and_join().expect("clean drain");

    // A reload in its shadow stage: the serving model still answers,
    // through the dispatcher, so shadow scoring stays off the loop.
    let dir = std::env::temp_dir().join(format!("neusight-serve-http-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir);
    let model = tiny_neusight();
    let mape = neusight::serve::golden_mape(&model).expect("golden mape");
    for version in ["v0001", "v0002"] {
        registry
            .publish(version, None, Some(mape), &model)
            .expect("publish");
    }
    let config = ServeConfig {
        model_version: Some("v0001".to_owned()),
        models_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, model).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let warm = client.post_json("/v1/predict", WARM).expect("warm");
    let reload = client
        .post_json(
            "/v1/admin/reload",
            r#"{"version":"v0002","shadow_samples":1000}"#,
        )
        .expect("reload");
    assert_eq!(reload.status, 202, "{}", reload.text());
    let (shadowed, batches) = post_counting_batches(&mut client, WARM);
    assert_eq!(batches, 1, "shadowing: {}", shadowed.text());
    assert_eq!(shadowed.body, warm.body);
    assert_eq!(shadowed.header("x-model-version"), Some("v0001"));
    server.shutdown_and_join().expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);

    // A slowed server stays slow for warm keys too.
    let config = ServeConfig {
        service_delay: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, tiny_neusight()).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let warm = client.post_json("/v1/predict", WARM).expect("warm");
    let (slowed, batches) = post_counting_batches(&mut client, WARM);
    assert_eq!(batches, 1, "service_delay: {}", slowed.text());
    assert_eq!(slowed.body, warm.body);
    server.shutdown_and_join().expect("clean drain");
}

/// An expired `X-Deadline-Ms` budget and a drain are checked before the
/// memo lookup: a warm key still gets the 504 and the 503.
#[test]
fn expired_deadlines_and_draining_win_over_memo_hits() {
    let _serial = serial();
    let config = ServeConfig {
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, tiny_neusight()).expect("spawn server");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let warm = client.post_json("/v1/predict", WARM).expect("warm");
    assert_eq!(warm.status, 200);
    let expired = client
        .post_json_with_id_and_deadline("/v1/predict", WARM, "expired", 0)
        .expect("expired predict");
    assert_eq!(expired.status, 504, "{}", expired.text());

    // A delay-only failpoint holds the loop in the read of the next
    // request; the drain begins once the point has fired, so the warm
    // key is parsed with the server already draining.
    neusight::fault::configure(
        &"serve.reactor.read=1.0:count=1:delay_ms=500:kind=delay"
            .parse()
            .expect("spec"),
        5,
    );
    let pending = std::thread::spawn(move || client.post_json("/v1/predict", WARM));
    let fired = Instant::now() + Duration::from_secs(5);
    while neusight::fault::point_status("serve.reactor.read").map_or(0, |p| p.fires) == 0 {
        assert!(Instant::now() < fired, "the read delay never fired");
        std::thread::yield_now();
    }
    server.handle().shutdown();
    let draining = pending.join().expect("client thread").expect("predict");
    neusight::fault::reset();
    assert_eq!(draining.status, 503, "{}", draining.text());
    assert!(draining.text().contains("server is draining"));
    server.shutdown_and_join().expect("clean drain");
}

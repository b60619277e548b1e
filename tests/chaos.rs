//! Cross-crate chaos tests: deterministic fault schedules, availability
//! of the prediction service under injected predictor faults, and
//! bit-identical checkpoint/resume of the collection sweep — the
//! acceptance criteria of the fault-injection subsystem, exercised
//! through the public facade.

use neusight::fault::{self, FaultSpec, PointConfig};
use neusight::prelude::*;
use neusight_core::NeuSight as CoreNeuSight;
use neusight_data::{collect, collect_resumable, CollectError, ResumableConfig};
use neusight_serve::{Client, PredictRequest, PredictService, ServeConfig, Server};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Serializes tests in this binary that arm the process-global fault
/// registry.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One shared tiny-trained framework (training dominates the run time).
fn trained() -> CoreNeuSight {
    static CELL: OnceLock<CoreNeuSight> = OnceLock::new();
    CELL.get_or_init(|| {
        let data = neusight::data::collect_training_set(
            &neusight::data::training_gpus(),
            SweepScale::Tiny,
            DType::F32,
        );
        CoreNeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training")
    })
    .clone()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "neusight-chaos-it-{}-{tag}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// The fire pattern of a failpoint is a pure function of
/// `(seed, name, hit, probability)` — replaying the same schedule twice,
/// through the armed registry, produces identical fires at identical hits.
#[test]
fn fault_schedule_is_deterministic_per_seed() {
    let _guard = fault_lock();
    let spec =
        FaultSpec::empty().with_point("chaos.test.point", PointConfig::with_probability(0.3));

    let observe = |seed: u64| -> Vec<bool> {
        fault::configure(&spec, seed);
        let fired: Vec<bool> = (0..200)
            .map(|_| fault::fail_point!("chaos.test.point").is_some())
            .collect();
        fault::reset();
        fired
    };

    let first = observe(42);
    let second = observe(42);
    assert_eq!(first, second, "same seed must replay the same schedule");
    assert!(
        first.iter().any(|f| *f) && first.iter().any(|f| !*f),
        "p=0.3 over 200 hits must both fire and skip"
    );
    let other = observe(43);
    assert_ne!(first, other, "a different seed must reshuffle the schedule");

    // The pure predicate agrees with what the armed registry did.
    let predicted: Vec<bool> = (0..200)
        .map(|hit| fault::would_fire(42, "chaos.test.point", hit, 0.3))
        .collect();
    assert_eq!(first, predicted);
}

/// Availability under 10 % predictor faults: every admitted request gets
/// a valid response — degraded ones fall back to the roofline baseline
/// bitwise, none are dropped, nothing panics.
#[test]
fn service_stays_available_under_predictor_faults() {
    let _guard = fault_lock();
    let svc = PredictService::new(trained());
    let request = PredictRequest {
        model: "gpt2".to_owned(),
        gpu: "V100".to_owned(),
        batch: 2,
        train: false,
        fused: false,
        detail: false,
    };

    // Independent computation of the degraded answer: the roofline
    // baseline over the same graph.
    let spec = neusight_gpu::catalog::gpu("V100").unwrap();
    let graph = neusight_graph::inference_graph(&neusight_graph::config::gpt2_large(), 2);
    let roofline = RooflineBaseline::new(svc.neusight().dtype());
    let expected_degraded_ms = roofline.predict_graph(&graph, &spec).total_s * 1e3;

    fault::configure(
        &FaultSpec::empty().with_point("core.predict.mlp", PointConfig::with_probability(0.1)),
        1234,
    );
    let mut degraded = 0usize;
    let mut healthy = 0usize;
    let mut healthy_ms = None;
    for _ in 0..100 {
        let out = svc.predict_batch(std::slice::from_ref(&request));
        assert_eq!(out.len(), 1, "no request may be dropped");
        let response = out[0]
            .as_ref()
            .expect("every admitted request gets a valid response");
        assert!(response.total_ms.is_finite() && response.total_ms > 0.0);
        if response.degraded {
            degraded += 1;
            assert_eq!(
                response.total_ms.to_bits(),
                expected_degraded_ms.to_bits(),
                "degraded responses must be the roofline baseline bitwise"
            );
        } else {
            healthy += 1;
            let bits = response.total_ms.to_bits();
            assert_eq!(*healthy_ms.get_or_insert(bits), bits);
        }
    }
    fault::reset();
    assert!(
        degraded > 0,
        "10 % fault rate over 100 calls must degrade some"
    );
    assert!(healthy > 0, "most calls must still ride the MLP path");
}

/// Regression for the request path's former `.expect()`s: with the MLP
/// predictor faulting on every call, the HTTP server still answers every
/// request with valid JSON over a live connection — degraded, never a
/// panic or a dropped socket — and `/healthz` reports the breaker.
#[test]
fn http_request_path_survives_full_predictor_faults() {
    let _guard = fault_lock();
    let server = Server::spawn(ServeConfig::default(), trained()).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    fault::configure(
        &FaultSpec::empty().with_point("core.predict.mlp", PointConfig::always()),
        5,
    );
    for _ in 0..8 {
        let response = client
            .post_json("/v1/predict", r#"{"model":"bert","gpu":"T4","batch":1}"#)
            .expect("a response, not a dropped connection");
        assert_eq!(response.status, 200, "{}", response.text());
        assert!(
            response.text().contains("\"degraded\":true"),
            "{}",
            response.text()
        );
    }
    fault::reset();
    let health = client.get("/healthz").expect("health endpoint");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("breaker"), "{}", health.text());
    server.shutdown_and_join().expect("graceful drain");
}

/// The same guarantee on the reactor server, with the reactor's own
/// failpoints armed on top of the predictor fault: delayed dispatcher
/// wakeups, delayed + occasionally failing reads, and occasional accept
/// failures. Every request that gets through still answers 200 with the
/// degraded roofline prediction, the breaker shows on `/healthz`, and the
/// drain stays clean.
#[test]
#[cfg(target_os = "linux")]
fn reactor_request_path_survives_predictor_and_reactor_faults() {
    let _guard = fault_lock();
    let server = Server::spawn(ServeConfig::default(), trained()).expect("bind loopback");
    fault::configure(
        &"core.predict.mlp=1.0;\
          serve.reactor.wakeup=0.5:delay_ms=2:kind=delay;\
          serve.reactor.read=0.2:delay_ms=1:kind=delay;\
          serve.reactor.accept=0.4:count=4"
            .parse()
            .unwrap(),
        77,
    );
    let mut served = 0usize;
    for _ in 0..12 {
        // An injected accept failure closes the connection before the
        // request is read; reconnect and try again — availability means
        // the *server* keeps answering, not that no TCP connection ever
        // drops under injected accept faults.
        let Ok(mut client) = Client::connect(server.addr()) else {
            continue;
        };
        let Ok(response) =
            client.post_json("/v1/predict", r#"{"model":"bert","gpu":"T4","batch":1}"#)
        else {
            continue;
        };
        assert_eq!(response.status, 200, "{}", response.text());
        assert!(
            response.text().contains("\"degraded\":true"),
            "{}",
            response.text()
        );
        served += 1;
    }
    fault::reset();
    assert!(
        served >= 8,
        "accept faults are bounded at 4 fires; most requests must serve (got {served}/12)"
    );
    let mut client = Client::connect(server.addr()).expect("connect after faults");
    let health = client.get("/healthz").expect("health endpoint");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("breaker"), "{}", health.text());
    server.shutdown_and_join().expect("graceful drain");
}

/// A collection sweep killed mid-flight (abort failpoint) and restarted
/// produces a dataset bit-identical to an uninterrupted run, even with
/// transient device faults forcing retries throughout.
#[test]
fn interrupted_collection_resumes_bit_identical() {
    let _guard = fault_lock();
    let gpus = &neusight::data::training_gpus()[..2];
    let ops = neusight::data::sweeps::full_sweep(SweepScale::Tiny);
    let refs: Vec<&OpDesc> = ops.iter().take(24).collect();

    // Uninterrupted baseline, no faults armed.
    let baseline = collect(gpus, &refs, DType::F32);

    fault::configure(
        &"data.collect.device=0.2;data.collect.abort=1.0:count=2"
            .parse()
            .unwrap(),
        9,
    );
    let mut config = ResumableConfig::new(temp_path("resume"));
    config.chunk_size = 8;
    config.retry.max_attempts = 8;
    let mut interrupts = 0;
    let chaotic = loop {
        match collect_resumable(gpus, &refs, DType::F32, &config) {
            Ok(dataset) => break dataset,
            Err(CollectError::Interrupted { .. }) => interrupts += 1,
            Err(e) => panic!("collection must survive transient faults: {e}"),
        }
    };
    fault::reset();

    assert_eq!(interrupts, 2, "both configured aborts must fire");
    assert!(
        !config.checkpoint_path.exists(),
        "checkpoint must be removed on completion"
    );
    assert_eq!(baseline.len(), chaotic.len());
    assert_eq!(
        serde_json::to_string(&baseline).unwrap(),
        serde_json::to_string(&chaotic).unwrap(),
        "faults, retries, and interrupts must leave no trace in the data"
    );
}

/// A panic inside the supervised prediction batch must leave a complete
/// flight-recorder dump on disk (the guard's panic hook) — and the server
/// keeps serving through the per-job retry.
#[test]
fn panicking_handler_leaves_flight_recorder_dump() {
    let _guard = fault_lock();
    neusight::obs::set_enabled(true);
    let dump_path = temp_path("flight");
    neusight::obs::trace::set_panic_dump_path(Some(dump_path.clone()));
    let server = Server::spawn(ServeConfig::default(), trained()).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A healthy request first, so the recorder holds a finished trace
    // for the panic hook to preserve.
    let warm = client
        .post_json("/v1/predict", r#"{"model":"bert","gpu":"T4","batch":1}"#)
        .expect("warm request");
    assert_eq!(warm.status, 200, "{}", warm.text());

    // One injected panic in the dispatcher's batch predict: the guard
    // catches it and dumps the recorder; the per-job retry then serves
    // the request normally.
    fault::configure(&"guard.panic=1.0:count=1".parse().unwrap(), 9);
    let survived = client
        .post_json("/v1/predict", r#"{"model":"gpt2","gpu":"V100","batch":1}"#)
        .expect("request must survive the panicked batch");
    fault::reset();
    assert_eq!(survived.status, 200, "{}", survived.text());

    let dumped = std::fs::read_to_string(&dump_path)
        .expect("a caught panic must leave a flight-recorder dump file");
    for key in ["\"capacity\"", "\"traces\"", "\"stamps\"", "\"slowest\""] {
        assert!(
            dumped.contains(key),
            "incomplete flight-recorder dump, missing {key}: {dumped:.300}"
        );
    }
    assert!(
        dumped.trim_end().ends_with('}'),
        "dump must be complete JSON, not a torn write"
    );

    neusight::obs::trace::set_panic_dump_path(None);
    let _ = std::fs::remove_file(&dump_path);
    server.shutdown_and_join().expect("graceful drain");
}

/// The router's forwarding hop under injected upstream faults
/// (`router.upstream.{connect,read,slow}`): connect and read failures
/// are count-bounded, so the router may briefly drain replicas and
/// fail over, but once the schedule is spent the prober must restore
/// the full fleet and traffic must be clean 200s again. Nothing may
/// hang, panic, or drop a connection, and the fault counters must show
/// the failovers actually happened.
#[test]
fn router_failover_survives_injected_upstream_faults() {
    let _guard = fault_lock();
    neusight::obs::set_enabled(true);
    use neusight::router::{Router, RouterConfig};

    let replicas: Vec<_> = (0..3)
        .map(|_| Server::spawn(ServeConfig::default(), trained()).expect("replica"))
        .collect();
    let router = Router::spawn(RouterConfig {
        upstreams: replicas
            .iter()
            .enumerate()
            .map(|(i, r)| (format!("replica-{i}"), r.addr()))
            .collect(),
        ..RouterConfig::default()
    })
    .expect("spawn router");

    let errors = neusight::obs::metrics::counter("router.upstream.errors");
    let errors_before = errors.get();
    fault::configure(
        &"router.upstream.connect=0.5:count=4;\
          router.upstream.read=0.4:count=3;\
          router.upstream.slow=0.5:delay_ms=2:kind=delay"
            .parse()
            .unwrap(),
        42,
    );
    let mut client = Client::connect(router.addr()).expect("connect router");
    let mut served = 0usize;
    for _ in 0..10 {
        for body in [
            r#"{"model":"bert","gpu":"T4","batch":1}"#,
            r#"{"model":"gpt2","gpu":"V100","batch":1}"#,
        ] {
            let response = client
                .post_json("/v1/predict", body)
                .expect("a response, not a dropped connection");
            if response.status == 200 {
                served += 1;
            } else {
                // The only acceptable failure is every replica drained at
                // once — never an unhandled 502/500 or a hang.
                assert_eq!(response.status, 503, "{}", response.text());
            }
        }
        // Paced slower than the 100 ms prober, so drained-but-healthy
        // replicas get probed back into the ring between rounds.
        std::thread::sleep(std::time::Duration::from_millis(120));
    }
    fault::reset();
    assert!(
        served >= 12,
        "faults are count-bounded; most of 20 requests must serve (got {served})"
    );
    assert!(
        errors.get() > errors_before,
        "the injected connect/read faults never fired"
    );

    // With the schedule spent, the prober restores every drained replica
    // and the fleet settles back to fully live, clean traffic.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let health = client.get("/healthz").expect("healthz");
        if health.status == 200 && health.text().contains("\"live\":3") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fleet never recovered after faults: {}",
            health.text()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    for _ in 0..6 {
        let response = client
            .post_json("/v1/predict", r#"{"model":"bert","gpu":"T4","batch":1}"#)
            .expect("routed");
        assert_eq!(response.status, 200, "{}", response.text());
    }

    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
}

//! Cluster-tier tests: a real `Router` fronting real in-process serve
//! replicas over ephemeral sockets, plus property tests for the
//! consistent-hash ring the router shards on.
//!
//! Covers the router's contracts: responses routed through the
//! front-end are **bitwise** identical to direct replica responses (also
//! when pipelined) and propagate the client's `X-Request-Id` end to end;
//! a stalled body gets a 408; a client vanishing mid-hedge leaks nothing; killing a replica
//! mid-load produces zero 5xx (failover hides the loss) while
//! `router.rehash_total` records the membership change; cache gossip
//! warms a cold replica through the checksummed guard envelope and
//! rejects tampered payloads; and re-hashing on membership change is
//! *exactly* minimal — survivors keep every key they owned, for
//! arbitrary keys and fleet sizes.

use neusight::core::{NeuSight, NeuSightConfig};
use neusight::gpu::DType;
use neusight::router::{
    gossip, ChildProcess, HashRing, HedgeConfig, RouteKey, Router, RouterConfig, RunningRouter,
    Supervisor, SupervisorConfig,
};
use neusight::serve::client::{decode_response, render_request};
use neusight::serve::deadline::{effective_budget_ms, shrink_ms};
use neusight::serve::{
    Client, ClientResponse, PredictResponse, RunningServer, ServeConfig, Server,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One tiny training sweep shared by every test; `NeuSight::train` is
/// deterministic, so each replica trains an identical predictor from it
/// — which is exactly the property that makes routed responses bitwise
/// comparable across replicas.
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

fn spawn_replica() -> RunningServer {
    Server::spawn(ServeConfig::default(), tiny_neusight()).expect("spawn replica")
}

/// Spawns `n` replicas and a router fronting all of them.
fn spawn_cluster(n: usize) -> (Vec<RunningServer>, RunningRouter) {
    let replicas: Vec<RunningServer> = (0..n).map(|_| spawn_replica()).collect();
    let config = RouterConfig {
        upstreams: replicas
            .iter()
            .enumerate()
            .map(|(i, r)| (format!("replica-{i}"), r.addr()))
            .collect(),
        ..RouterConfig::default()
    };
    let router = Router::spawn(config).expect("spawn router");
    (replicas, router)
}

const BODIES: [&str; 6] = [
    r#"{"model":"bert","gpu":"H100","batch":2}"#,
    r#"{"model":"bert","gpu":"V100","batch":1}"#,
    r#"{"model":"gpt2","gpu":"T4","batch":1}"#,
    r#"{"model":"gpt2","gpu":"V100","batch":1,"train":true}"#,
    r#"{"model":"resnet50","gpu":"H100","batch":4}"#,
    r#"{"model":"vgg16","gpu":"T4","batch":2}"#,
];

#[test]
fn routed_responses_are_bitwise_identical_and_propagate_request_ids() {
    let (replicas, router) = spawn_cluster(3);

    // Direct answers from one replica are the reference: every replica
    // trained the same predictor, so the router may route each body to
    // whichever replica owns its shard and must still relay these exact
    // bytes.
    let mut direct = Client::connect(replicas[0].addr()).expect("connect replica");
    let mut routed = Client::connect(router.addr()).expect("connect router");
    for (index, body) in BODIES.iter().enumerate() {
        let reference = direct.post_json("/v1/predict", body).expect("direct");
        assert_eq!(reference.status, 200, "{}", reference.text());

        let id = format!("cluster-test-{index}");
        let via_router = routed
            .post_json_with_id("/v1/predict", body, &id)
            .expect("routed");
        assert_eq!(via_router.status, 200, "{}", via_router.text());
        assert_eq!(
            via_router.body, reference.body,
            "routed bytes must be bitwise identical to a direct replica answer"
        );
        // The trace stamp survives both hops: client -> router -> replica
        // and back.
        assert_eq!(via_router.header("x-request-id"), Some(id.as_str()));
    }

    // Aggregated health: all three replicas live.
    let health = routed.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let text = health.text();
    assert!(text.contains("\"status\":\"ok\""), "{text}");
    assert!(text.contains("\"live\":3"), "{text}");
    assert!(text.contains("\"replica-2\""), "{text}");

    // Aggregated metrics: the router's own exposition plus per-replica
    // passthrough samples tagged with a `replica` label.
    let metrics = routed.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("neusight_router_info{"), "{text}");
    assert!(text.contains("replica=\"replica-0\""));
    assert!(text.contains("replica=\"replica-2\""));

    // Shard-agnostic passthrough routes still answer through the router.
    let models = routed.get("/v1/models").expect("models");
    assert_eq!(models.status, 200);
    assert!(models.text().contains("GPT2-Large"));

    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
}

#[test]
fn killing_a_replica_mid_load_rehashes_with_zero_5xx() {
    neusight::obs::set_enabled(true);
    let (mut replicas, router) = spawn_cluster(3);
    let rehash = neusight::obs::metrics::counter("router.rehash_total");
    let before = rehash.get();

    let mut client = Client::connect(router.addr()).expect("connect router");
    let drive = |client: &mut Client| {
        for body in BODIES {
            let response = client.post_json("/v1/predict", body).expect("predict");
            assert!(
                response.status < 500,
                "routed request answered {} after replica loss: {}",
                response.status,
                response.text()
            );
            assert_eq!(response.status, 200, "{}", response.text());
        }
    };
    drive(&mut client);

    // Kill one replica while the router is live, then keep the load
    // going: failover inside the router must hide the loss (no 5xx), and
    // the fleet must record the drain + re-hash.
    replicas
        .remove(1)
        .shutdown_and_join()
        .expect("replica stop");
    let deadline = Instant::now() + Duration::from_secs(10);
    while rehash.get() == before {
        drive(&mut client);
        assert!(
            Instant::now() < deadline,
            "router never re-hashed after replica loss"
        );
    }
    // The survivors now own the whole keyspace; traffic still flows.
    drive(&mut client);
    assert!(rehash.get() > before);

    let health = client.get("/healthz").expect("healthz");
    let text = health.text();
    assert!(text.contains("\"status\":\"degraded\""), "{text}");
    assert!(text.contains("\"live\":2"), "{text}");

    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
}

#[test]
fn cache_gossip_warms_a_cold_replica_and_rejects_tampering() {
    let donor = spawn_replica();
    let cold = spawn_replica();

    // Warm the donor's response cache.
    let mut donor_client = Client::connect(donor.addr()).expect("connect donor");
    let mut reference = Vec::new();
    for body in &BODIES[..3] {
        let response = donor_client.post_json("/v1/predict", body).expect("warm");
        assert_eq!(response.status, 200, "{}", response.text());
        reference.push(response.body);
    }

    // A fresh replica exports an envelope too — with nothing in it.
    let mut cold_client = Client::connect(cold.addr()).expect("connect cold");
    let empty_export = cold_client.get("/v1/cache/export").expect("empty export");
    assert_eq!(empty_export.status, 200);
    assert_eq!(
        empty_export.header("content-type"),
        Some("application/octet-stream")
    );

    // Tampered envelopes must bounce off the checksum, and raw JSON must
    // bounce off the envelope magic — gossip never trusts bare bytes.
    let export = donor_client.get("/v1/cache/export").expect("export");
    assert_eq!(export.status, 200);
    let mut tampered = export.body.clone();
    *tampered.last_mut().expect("non-empty export") ^= 0x01;
    let rejected = cold_client
        .post_octets("/v1/cache/import", &tampered)
        .expect("import tampered");
    assert_eq!(rejected.status, 400, "{}", rejected.text());
    let garbage = cold_client
        .post_octets("/v1/cache/import", b"{\"entries\":[]}")
        .expect("import garbage");
    assert_eq!(garbage.status, 400, "{}", garbage.text());

    // The real warm path: donor -> cold through the envelope.
    let imported = gossip::warm(donor.addr(), cold.addr(), Duration::from_secs(5)).expect("warm");
    assert!(imported >= 3, "imported only {imported} entries");

    // The warmed replica now answers those requests with the donor's
    // exact bytes (it would anyway — identical training — but the cache
    // path must not perturb a single byte either).
    for (body, expected) in BODIES[..3].iter().zip(&reference) {
        let response = cold_client.post_json("/v1/predict", body).expect("warmed");
        assert_eq!(response.status, 200);
        assert_eq!(
            &response.body, expected,
            "gossiped body diverged for {body}"
        );
        let parsed: PredictResponse =
            serde_json::from_str(&response.text()).expect("response JSON");
        assert!(parsed.kernels > 0);
    }

    donor.shutdown_and_join().expect("donor drain");
    cold.shutdown_and_join().expect("cold drain");
}

/// A supervised "process" whose death is a flag the test flips — the
/// in-process stand-in for `kill -9` on a spawn-mode child (the real
/// SIGKILL path runs in CI's supervisor chaos smoke against the binary).
struct TestChild {
    dead: Arc<AtomicBool>,
}

impl ChildProcess for TestChild {
    fn poll_exited(&mut self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

/// The self-healing contract end to end: killing a supervised replica
/// drains it, the supervisor respawns it on a fresh port within its
/// restart budget, the prober readmits it after [`FLAP_THRESHOLD`]
/// clean probes and gossip-warms its cache — all while client traffic
/// sees zero 5xx.
///
/// [`FLAP_THRESHOLD`]: neusight::router::FLAP_THRESHOLD
#[test]
fn a_killed_replica_is_respawned_readmitted_and_rewarmed_with_zero_5xx() {
    neusight::obs::set_enabled(true);
    let initial: Vec<RunningServer> = (0..3).map(|_| spawn_replica()).collect();
    let config = RouterConfig {
        upstreams: initial
            .iter()
            .enumerate()
            .map(|(i, r)| (format!("replica-{i}"), r.addr()))
            .collect(),
        warm_gossip: true,
        ..RouterConfig::default()
    };
    let router = Router::spawn(config).expect("spawn router");
    let fleet = router.fleet();

    // Server handles live behind a mutex so the respawn closure (on the
    // supervisor thread) can hand replacements back for final cleanup.
    let servers: Arc<Mutex<Vec<RunningServer>>> = Arc::new(Mutex::new(initial));
    let death_flags: Vec<Arc<AtomicBool>> =
        (0..3).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let children: Vec<(String, TestChild)> = death_flags
        .iter()
        .enumerate()
        .map(|(i, dead)| {
            (
                format!("replica-{i}"),
                TestChild {
                    dead: Arc::clone(dead),
                },
            )
        })
        .collect();
    let supervisor = Supervisor::new(
        children,
        SupervisorConfig {
            restart_budget: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(20),
            ..SupervisorConfig::default()
        },
    );
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor_thread = std::thread::spawn({
        let fleet = Arc::clone(&fleet);
        let servers = Arc::clone(&servers);
        let stop = Arc::clone(&stop);
        move || {
            supervisor.run(
                &fleet,
                move |_index| {
                    let server = spawn_replica();
                    let addr = server.addr();
                    servers.lock().expect("servers lock").push(server);
                    Ok((
                        TestChild {
                            dead: Arc::new(AtomicBool::new(false)),
                        },
                        addr,
                    ))
                },
                move || stop.load(Ordering::SeqCst),
            )
        }
    });

    let deaths = neusight::obs::metrics::counter("router.supervisor.deaths");
    let restarts = neusight::obs::metrics::counter("router.supervisor.restarts");
    let gossip_rounds = neusight::obs::metrics::counter("router.gossip.rounds");
    let (deaths_before, restarts_before, gossip_before) =
        (deaths.get(), restarts.get(), gossip_rounds.get());

    let mut client = Client::connect(router.addr()).expect("connect router");
    let drive = |client: &mut Client| {
        for body in BODIES {
            let response = client.post_json("/v1/predict", body).expect("predict");
            assert_eq!(
                response.status,
                200,
                "self-healing must hide the kill: {}",
                response.text()
            );
        }
    };
    // Warm every shard so the eventual gossip donor has entries to give.
    drive(&mut client);

    // "kill -9" replica-1: tear its server down and flip its death flag.
    let victim = servers.lock().expect("servers lock").remove(1);
    victim.shutdown_and_join().expect("kill replica");
    death_flags[1].store(true, Ordering::SeqCst);

    // Keep load flowing until the slot restarted AND the prober
    // readmitted the respawned replica — zero 5xx the whole way.
    let deadline = Instant::now() + Duration::from_secs(30);
    while restarts.get() == restarts_before || fleet.live_count() < 3 {
        drive(&mut client);
        assert!(
            Instant::now() < deadline,
            "replica never healed: restarts {} -> {}, live {}",
            restarts_before,
            restarts.get(),
            fleet.live_count()
        );
    }
    assert!(deaths.get() > deaths_before, "death must be observed");
    // The prober gossip-warms *after* readmission bumps the live count
    // (export + import is a full HTTP round trip), so give the warm the
    // same deadline instead of asserting the instant the fleet heals.
    while gossip_rounds.get() == gossip_before {
        assert!(
            Instant::now() < deadline,
            "readmission must gossip-warm the respawned replica"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The healed fleet still answers everything.
    drive(&mut client);
    let health = client.get("/healthz").expect("healthz");
    assert!(health.text().contains("\"live\":3"), "{}", health.text());

    stop.store(true, Ordering::SeqCst);
    let survivors = supervisor_thread.join().expect("supervisor thread");
    assert_eq!(survivors.len(), 3, "all three slots end the test alive");
    router.shutdown_and_join().expect("router drain");
    for server in servers.lock().expect("servers lock").drain(..) {
        server.shutdown_and_join().expect("replica drain");
    }
}

/// Hedged requests hide one slow replica from the latency tail: the
/// ring owner of a known key is delayed 100 ms per batch, and with a
/// pinned 20 ms hedge delay the routed answer comes back from the
/// successor in a fraction of the slow replica's latency — while fast
/// traffic fires (almost) no duplicates, keeping the extra upstream
/// load far inside the 10 % budget.
#[test]
fn hedging_hides_a_slow_replica_within_the_duplicate_budget() {
    neusight::obs::set_enabled(true);
    let slow_body = BODIES[0]; // {"model":"bert","gpu":"H100",...}
    let names: Vec<String> = (0..3).map(|i| format!("replica-{i}")).collect();
    let ring = HashRing::new(names.clone());
    let slow_owner = ring
        .route(&RouteKey::from_predict("bert", "H100"))
        .expect("non-empty ring")
        .to_owned();
    let replicas: Vec<RunningServer> = names
        .iter()
        .map(|name| {
            let config = ServeConfig {
                service_delay: if *name == slow_owner {
                    Duration::from_millis(100)
                } else {
                    Duration::ZERO
                },
                ..ServeConfig::default()
            };
            Server::spawn(config, tiny_neusight()).expect("spawn replica")
        })
        .collect();
    let router = Router::spawn(RouterConfig {
        upstreams: names
            .iter()
            .zip(&replicas)
            .map(|(name, r)| (name.clone(), r.addr()))
            .collect(),
        hedge: HedgeConfig {
            enabled: true,
            // 20 ms: far above a debug-build fast answer, far below
            // the slow replica's 100 ms — only slow-key requests hedge.
            delay_override: Some(Duration::from_millis(20)),
            ..HedgeConfig::default()
        },
        ..RouterConfig::default()
    })
    .expect("spawn router");

    // Warm every key at every replica so hedge winners answer from the
    // memo cache, and measure the slow replica's direct latency — the
    // unhedged baseline the routed path must beat by >= 2x.
    let slow_index = names.iter().position(|n| *n == slow_owner).unwrap();
    let mut direct_ms = 0.0f64;
    for (i, replica) in replicas.iter().enumerate() {
        let mut direct = Client::connect(replica.addr()).expect("connect replica");
        for body in BODIES {
            let started = Instant::now();
            let response = direct.post_json("/v1/predict", body).expect("warm");
            assert_eq!(response.status, 200, "{}", response.text());
            if i == slow_index && body == slow_body {
                direct_ms = started.elapsed().as_secs_f64() * 1e3;
            }
        }
    }
    assert!(
        direct_ms >= 80.0,
        "the slow replica must actually be slow (measured {direct_ms:.1} ms)"
    );

    let fired = neusight::obs::metrics::counter("router.hedge.fired");
    let won = neusight::obs::metrics::counter("router.hedge.won");
    let (fired_before, won_before) = (fired.get(), won.get());

    // 200 fast-owned requests and 5 slow-owned ones — the mix whose
    // duplicates must stay within budget. "Fast" means *ring-owned by a
    // fast replica*: a body other than `slow_body` can still hash to
    // the slow owner, and every request landing there legitimately
    // hedges — so filter by owner, not by body identity.
    let keyed: [(&str, &str, &str); 6] = [
        ("bert", "H100", BODIES[0]),
        ("bert", "V100", BODIES[1]),
        ("gpt2", "T4", BODIES[2]),
        ("gpt2", "V100", BODIES[3]),
        ("resnet50", "H100", BODIES[4]),
        ("vgg16", "T4", BODIES[5]),
    ];
    let mut routed = Client::connect(router.addr()).expect("connect router");
    let fast_bodies: Vec<&str> = keyed
        .iter()
        .filter(|(model, gpu, _)| {
            ring.route(&RouteKey::from_predict(model, gpu))
                .expect("non-empty ring")
                != slow_owner
        })
        .map(|(_, _, body)| *body)
        .collect();
    assert!(!fast_bodies.is_empty(), "need at least one fast-owned body");
    for i in 0..200 {
        let response = routed
            .post_json("/v1/predict", fast_bodies[i % fast_bodies.len()])
            .expect("fast predict");
        assert_eq!(response.status, 200, "{}", response.text());
    }
    let mut hedged_ms: Vec<f64> = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let response = routed.post_json("/v1/predict", slow_body).expect("hedged");
        assert_eq!(response.status, 200, "{}", response.text());
        hedged_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    hedged_ms.sort_by(f64::total_cmp);
    let median = hedged_ms[hedged_ms.len() / 2];
    assert!(
        median * 2.0 <= direct_ms,
        "hedging must cut the slow-key latency >= 2x \
         (direct {direct_ms:.1} ms, hedged median {median:.1} ms)"
    );
    let fired_delta = fired.get() - fired_before;
    assert!(fired_delta >= 1, "slow-key requests must fire hedges");
    assert!(won.get() > won_before, "a hedge must win the race");
    assert!(
        fired_delta <= 10,
        "{fired_delta} duplicates for 205 requests busts the ~5 % hedge slice"
    );

    // Deadline propagation rides the same path: a request arriving with
    // a zero budget is answered 504 on the spot, not forwarded.
    let expired = routed
        .post_json_with_id_and_deadline("/v1/predict", slow_body, "expired-budget", 0)
        .expect("expired deadline");
    assert_eq!(expired.status, 504, "{}", expired.text());

    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
}

/// Renders one predict for the wire, with an optional `X-Request-Id`.
fn predict_bytes(out: &mut Vec<u8>, host: SocketAddr, body: &str, request_id: Option<&str>) {
    let id = request_id.map(|id| ("X-Request-Id", id));
    render_request(
        out,
        "POST",
        "/v1/predict",
        host,
        Some(("application/json", body.as_bytes())),
        id.as_slice(),
    );
}

/// Reads `count` responses off a raw connection.
fn read_responses(stream: &mut TcpStream, count: usize) -> Vec<ClientResponse> {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let (mut buf, mut chunk, mut responses) = (Vec::new(), [0u8; 8192], Vec::new());
    while responses.len() < count {
        if let Some(response) = decode_response(&mut buf).expect("well-formed response") {
            responses.push(response);
            continue;
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(
            n > 0,
            "connection closed after {} responses",
            responses.len()
        );
        buf.extend_from_slice(&chunk[..n]);
    }
    responses
}

/// Pipelining through the router: two predicts written back to back on
/// one connection come back in request order, each byte-identical to
/// the direct replica answer.
#[test]
fn pipelined_predicts_through_the_router_come_back_in_order() {
    let (replicas, router) = spawn_cluster(2);
    let mut direct = Client::connect(replicas[0].addr()).expect("connect replica");
    let references: Vec<Vec<u8>> = BODIES[..2]
        .iter()
        .map(|body| {
            let reference = direct.post_json("/v1/predict", body).expect("direct");
            assert_eq!(reference.status, 200, "{}", reference.text());
            reference.body
        })
        .collect();

    let mut wire = Vec::new();
    for (index, body) in BODIES[..2].iter().enumerate() {
        predict_bytes(
            &mut wire,
            router.addr(),
            body,
            Some(&format!("pipelined-{index}")),
        );
    }
    let mut stream = TcpStream::connect(router.addr()).expect("connect router");
    stream
        .write_all(&wire)
        .expect("one write carries both requests");
    let responses = read_responses(&mut stream, 2);
    for (index, (response, reference)) in responses.iter().zip(&references).enumerate() {
        assert_eq!(response.status, 200, "{}", response.text());
        let id = format!("pipelined-{index}");
        assert_eq!(response.header("x-request-id"), Some(id.as_str()));
        assert_eq!(
            &response.body, reference,
            "pipelined answer {index} diverged"
        );
    }

    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
}

/// A request whose body never finishes arriving is answered 408 once
/// the router's idle timeout (30 s) passes, and the connection closes.
#[test]
fn a_stalled_request_body_through_the_router_gets_408_then_close() {
    let (replicas, router) = spawn_cluster(1);
    let mut stream = TcpStream::connect(router.addr()).expect("connect router");
    stream
        .write_all(
            b"POST /v1/predict HTTP/1.1\r\nHost: router\r\nContent-Length: 64\r\n\r\n{\"model\":",
        )
        .expect("partial request");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut received = Vec::new();
    stream
        .read_to_end(&mut received)
        .expect("the router answers, then closes");
    let text = String::from_utf8_lossy(&received);
    assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    assert!(
        text.ends_with("{\"error\":\"request body timed out\"}"),
        "{text}"
    );

    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
}

/// Makes `close` send a reset instead of a FIN (`SO_LINGER` 0), so the
/// peer sees the connection vanish at once.
fn reset_on_close(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        on: i32,
        seconds: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger { on: 1, seconds: 0 };
    let size = std::mem::size_of::<Linger>() as u32;
    // SAFETY: `linger` outlives the call, `size` is its exact size, and
    // the descriptor belongs to `stream`.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_LINGER, &linger, size) };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
}

/// The router's `/healthz` text once its waiting requests and upstream
/// exchanges match `want`, or `None` if they never do within `patience`.
fn await_router_load(client: &mut Client, want: &str, patience: Duration) -> Option<String> {
    let deadline = Instant::now() + patience;
    loop {
        let text = client.get("/healthz").expect("healthz").text();
        if text.contains(want) {
            return Some(text);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A client that disconnects while its hedged pair is in flight: both
/// upstream exchanges are cancelled and the request's waiting entry is
/// gone long before the slow replicas would have answered, and the
/// router keeps serving.
#[test]
fn a_client_vanishing_mid_hedge_leaves_the_router_serving_with_nothing_waiting() {
    neusight::obs::set_enabled(true);
    let replicas: Vec<RunningServer> = (0..3)
        .map(|_| {
            let config = ServeConfig {
                service_delay: Duration::from_secs(2),
                ..ServeConfig::default()
            };
            Server::spawn(config, tiny_neusight()).expect("spawn replica")
        })
        .collect();
    let router = Router::spawn(RouterConfig {
        upstreams: replicas
            .iter()
            .enumerate()
            .map(|(i, r)| (format!("replica-{i}"), r.addr()))
            .collect(),
        hedge: HedgeConfig {
            enabled: true,
            delay_override: Some(Duration::from_millis(20)),
            ..HedgeConfig::default()
        },
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let mut admin = Client::connect(router.addr()).expect("connect router");

    let mut wire = Vec::new();
    predict_bytes(&mut wire, router.addr(), BODIES[0], None);
    let mut doomed = TcpStream::connect(router.addr()).expect("connect router");
    doomed.write_all(&wire).expect("predict");
    let paired = await_router_load(
        &mut admin,
        "\"inflight\":1,\"exchanges\":2",
        Duration::from_secs(1),
    );
    assert!(paired.is_some(), "the hedge never fired");

    reset_on_close(&doomed);
    drop(doomed);
    // Each replica sleeps 2 s before answering: finding nothing in
    // flight well inside that window means the pair was cancelled.
    let settled = await_router_load(
        &mut admin,
        "\"inflight\":0,\"exchanges\":0",
        Duration::from_secs(1),
    );
    assert!(
        settled.is_some(),
        "the vanished client's hedged pair leaked"
    );

    let health = admin.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"live\":3"), "{}", health.text());
    let models = admin.get("/v1/models").expect("models");
    assert_eq!(models.status, 200, "{}", models.text());

    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
}

/// Deterministic share check: over a dense 4096-key grid, removing one
/// of four replicas re-homes roughly a quarter of the keyspace — the
/// "~1/N moves" half of the re-hash contract (the proptest below pins
/// the "nothing else moves" half).
#[test]
fn removing_one_of_four_replicas_moves_about_a_quarter_of_the_keyspace() {
    let names: Vec<String> = (0..4).map(|i| format!("replica-{i}")).collect();
    let full = HashRing::new(names.clone());
    let mut reduced = full.clone();
    assert!(reduced.remove("replica-1"));

    let mut moved = 0usize;
    let mut total = 0usize;
    for g in 0..64 {
        for f in 0..64 {
            let key = RouteKey::new(&format!("gpu-{g}"), &format!("family-{f}"));
            total += 1;
            if full.route(&key) != reduced.route(&key) {
                moved += 1;
            }
        }
    }
    let fraction = moved as f64 / total as f64;
    assert!(
        (0.15..=0.40).contains(&fraction),
        "removing 1 of 4 replicas moved {fraction:.3} of the keyspace (expected ~0.25)"
    );
}

/// Arbitrary `(gpu, family)` key pairs: hex-rendered draws from the full
/// `u64` space (the vendored proptest has no regex-string strategies, so
/// strings derive from integer draws — hex digits still exercise the
/// letter/digit mix and, below, case folding).
fn arb_key() -> impl Strategy<Value = (String, String)> {
    (0u64..u64::MAX, 0u64..u64::MAX)
        .prop_map(|(g, f)| (format!("gpu-{g:x}"), format!("family-{f:x}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary keys and fleet sizes: every key maps to exactly one
    /// live replica, and killing one replica re-homes *only* the keys it
    /// owned — every survivor keeps every key it had. Re-adding the
    /// replica restores the original assignment exactly.
    #[test]
    fn rehash_is_exactly_minimal_for_arbitrary_keys(
        replica_count in 2usize..=8,
        victim_seed in 0usize..1 << 30,
        keys in prop::collection::vec(arb_key(), 32..128),
    ) {
        let names: Vec<String> = (0..replica_count).map(|i| format!("replica-{i}")).collect();
        let victim = names[victim_seed % replica_count].clone();
        let full = HashRing::new(names.clone());
        let mut reduced = full.clone();
        prop_assert!(reduced.remove(&victim));

        for (gpu, family) in &keys {
            let key = RouteKey::new(gpu, family);
            // Exactly one live owner, and it is a current member.
            let before = full.route(&key).expect("non-empty ring routes");
            prop_assert!(full.contains(before));
            let after = reduced.route(&key).expect("survivors still route");
            prop_assert!(after != victim, "key routed to a dead replica");
            if before != victim {
                prop_assert_eq!(before, after, "a survivor lost a key it owned");
            }
        }

        // Membership round trip restores the exact original assignment.
        prop_assert!(reduced.insert(&victim));
        for (gpu, family) in &keys {
            let key = RouteKey::new(gpu, family);
            prop_assert_eq!(full.route(&key), reduced.route(&key));
        }
    }

    /// Deadline budgets telescope exactly like the PR 7 stage stamps:
    /// the effective budget never exceeds the client's or the hop's
    /// bound, every hop's shrink is monotone non-increasing, no stage
    /// consumes more budget than its measured elapsed time, and the
    /// chain bottoms out at exactly zero once cumulative elapsed time
    /// exceeds the initial budget.
    #[test]
    fn deadline_budgets_telescope_monotonically_across_hops(
        hop_ms in 1u64..60_000,
        // The vendored proptest has no `prop::option` — derive the
        // optional client header from a (present, value) pair.
        header_draw in (0u32..2, 0u64..120_000),
        elapsed_ms in prop::collection::vec(0u64..5_000, 1..12),
    ) {
        let header_ms = (header_draw.0 == 1).then_some(header_draw.1);
        let initial = effective_budget_ms(Duration::from_millis(hop_ms), header_ms);
        prop_assert!(initial <= hop_ms, "a hop never promises more than it has");
        if let Some(client_ms) = header_ms {
            prop_assert!(initial <= client_ms, "a hop never inflates the client budget");
        }
        let mut budget = initial;
        for &stage_ms in &elapsed_ms {
            let next = shrink_ms(budget, Duration::from_millis(stage_ms));
            prop_assert!(next <= budget, "budgets are monotone non-increasing");
            prop_assert!(
                budget - next <= stage_ms,
                "a stage cannot consume more budget than its elapsed time"
            );
            budget = next;
        }
        let spent: u64 = elapsed_ms.iter().sum();
        prop_assert_eq!(
            budget,
            initial.saturating_sub(spent),
            "whole-millisecond hops telescope exactly"
        );
    }

    /// Routing is case-insensitive on both key components, so shard
    /// affinity cannot be defeated by client-side spelling.
    #[test]
    fn routing_ignores_key_case(
        (gpu, family) in arb_key(),
        replica_count in 1usize..=6,
    ) {
        let ring = HashRing::new((0..replica_count).map(|i| format!("replica-{i}")));
        let lower = RouteKey::new(&gpu.to_ascii_lowercase(), &family.to_ascii_lowercase());
        let upper = RouteKey::new(&gpu.to_ascii_uppercase(), &family.to_ascii_uppercase());
        prop_assert_eq!(ring.route(&lower), ring.route(&upper));
    }
}

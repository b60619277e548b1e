//! Reactor edge cases the loop's syscall budget relies on. A waiting
//! connection keeps `EPOLLIN`, a short read ends the read, and upstream
//! answers are read only on `EPOLLIN`, so:
//!
//! - a request pipelined behind a waiting one is buffered and answered
//!   in order, on serve (a slowed cold predict) and through the router;
//! - a client that half-closes while it waits gets its answer and then
//!   end of stream, and the loop does not spin on the readable EOF;
//! - a waiting client that pipelines past the buffer bound stops being
//!   read until its answer is written;
//! - a settled forward takes its timer out of the wheel, so sequential
//!   predicts leave the router's wheel nearly empty;
//! - the loop's `accept`, `read` and `wakeup` failpoints still fire.

use neusight::core::{NeuSight, NeuSightConfig};
use neusight::gpu::DType;
use neusight::router::{Router, RouterConfig, RunningRouter};
use neusight::serve::client::decode_response;
use neusight::serve::{Client, ClientResponse, RunningServer, ServeConfig, Server};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

const PREDICT: &str = r#"{"model":"gpt2","gpu":"H100","batch":2}"#;

fn tiny_neusight() -> NeuSight {
    static DATA: OnceLock<neusight::data::KernelDataset> = OnceLock::new();
    let data = DATA.get_or_init(|| {
        neusight::data::collect_training_set(
            &neusight::data::training_gpus(),
            neusight::data::SweepScale::Tiny,
            DType::F32,
        )
    });
    NeuSight::train(data, &NeuSightConfig::tiny()).expect("tiny training")
}

/// A server whose every predict waits `delay` on the dispatcher, so a
/// request is reliably still waiting when the client acts.
fn slow_server(delay: Duration) -> RunningServer {
    let config = ServeConfig {
        service_delay: delay,
        ..ServeConfig::default()
    };
    Server::spawn(config, tiny_neusight()).expect("spawn server")
}

fn router_over(replicas: &[RunningServer]) -> RunningRouter {
    let config = RouterConfig {
        upstreams: (replicas.iter().enumerate())
            .map(|(i, r)| (format!("replica-{i}"), r.addr()))
            .collect(),
        ..RouterConfig::default()
    };
    Router::spawn(config).expect("spawn router")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

fn wire(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: edge\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ClientResponse {
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(response) = decode_response(buf).expect("well-formed response") {
            return response;
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "connection closed inside a response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Sends a predict, then a second request while the predict waits, and
/// checks that the answers come back in request order.
fn pipelined_behind_a_wait(addr: SocketAddr) {
    let mut stream = connect(addr);
    stream
        .write_all(&wire("POST", "/v1/predict", PREDICT))
        .expect("send predict");
    thread::sleep(Duration::from_millis(100));
    stream
        .write_all(&wire("GET", "/v1/gpus", ""))
        .expect("send gpus");
    let mut buf = Vec::new();
    let first = read_response(&mut stream, &mut buf);
    assert_eq!(first.status, 200, "{}", first.text());
    assert!(first.text().contains("\"total_ms\""), "{}", first.text());
    let second = read_response(&mut stream, &mut buf);
    assert_eq!(second.status, 200, "{}", second.text());
    assert!(second.text().contains("\"H100\""), "{}", second.text());
}

#[test]
fn a_request_pipelined_behind_a_waiting_one_is_answered_in_order() {
    let server = slow_server(Duration::from_millis(300));
    pipelined_behind_a_wait(server.addr());
    server.shutdown_and_join().expect("serve drain");

    let replicas = [slow_server(Duration::from_millis(300))];
    let router = router_over(&replicas);
    pipelined_behind_a_wait(router.addr());
    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
}

#[test]
fn a_client_that_half_closes_while_waiting_gets_its_answer_and_the_loop_stays_idle() {
    neusight::obs::set_enabled(true);
    let turns = neusight::obs::metrics::histogram("serve.reactor.epoll_wait_ns");
    let server = slow_server(Duration::from_millis(700));
    let mut stream = connect(server.addr());
    stream
        .write_all(&wire("POST", "/v1/predict", PREDICT))
        .expect("send predict");
    stream.shutdown(Shutdown::Write).expect("half-close");
    // The end of stream has reached the server; the predict still waits.
    thread::sleep(Duration::from_millis(100));
    let before = turns.count();
    thread::sleep(Duration::from_millis(200));
    let during = turns.count() - before;
    // An idle loop turns once a 25 ms tick; one that kept EPOLLIN on a
    // readable end of stream would turn hundreds of thousands of times.
    // The bound leaves room for other tests' loops in this process.
    assert!(
        during < 2_000,
        "{during} loop turns in 200 ms of waiting: the loop spins"
    );
    let mut buf = Vec::new();
    let answer = read_response(&mut stream, &mut buf);
    assert_eq!(answer.status, 200, "{}", answer.text());
    assert!(
        answer.closes(),
        "a half-closed client is answered, then closed"
    );
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("end of stream");
    assert!(rest.is_empty() && buf.is_empty(), "bytes after the answer");
    server.shutdown_and_join().expect("serve drain");
}

#[test]
fn a_waiting_client_that_pipelines_past_the_bound_stops_being_read() {
    const CAP: usize = 64 << 20;
    let server = slow_server(Duration::from_millis(900));
    let mut stream = connect(server.addr());
    stream
        .write_all(&wire("POST", "/v1/predict", PREDICT))
        .expect("send predict");
    thread::sleep(Duration::from_millis(100));
    // Whole requests (404s once read), each near the body bound, so the
    // connection stays well-formed whatever the server gets to read.
    let body = "x".repeat(1_000_000);
    let filler = wire("POST", "/nope", &body);
    stream.set_nonblocking(true).expect("nonblocking");
    let (mut sent, mut stalled_since) = (0usize, None::<Instant>);
    while sent < CAP {
        let at = sent % filler.len();
        match stream.write(&filler[at..]) {
            Ok(n) => (sent, stalled_since) = (sent + n, None),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if stalled_since.get_or_insert_with(Instant::now).elapsed()
                    > Duration::from_millis(200)
                {
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("pipelining failed after {sent} bytes: {e}"),
        }
    }
    assert!(
        sent < CAP,
        "the server kept reading {sent} bytes behind a waiting request"
    );
    stream.set_nonblocking(false).expect("blocking");
    let mut buf = Vec::new();
    let answer = read_response(&mut stream, &mut buf);
    assert_eq!(answer.status, 200, "{}", answer.text());
    assert!(answer.text().contains("\"total_ms\""), "{}", answer.text());
    // Writing the answer resumed reading: the first filler is answered.
    let next = read_response(&mut stream, &mut buf);
    assert_eq!(next.status, 404, "{}", next.text());
    drop(stream);
    server.shutdown_and_join().expect("serve drain");
}

#[test]
fn sequential_routed_predicts_leave_the_timer_wheel_nearly_empty() {
    neusight::obs::set_enabled(true);
    let replicas: Vec<RunningServer> = (0..2)
        .map(|_| Server::spawn(ServeConfig::default(), tiny_neusight()).expect("spawn replica"))
        .collect();
    let router = router_over(&replicas);
    let mut client = Client::connect(router.addr()).expect("connect router");
    for _ in 0..200 {
        let response = client.post_json("/v1/predict", PREDICT).expect("predict");
        assert_eq!(response.status, 200, "{}", response.text());
    }
    // Each forward armed a 10 s upstream timeout; settled, it must leave.
    let occupancy = neusight::obs::metrics::gauge("router.reactor.timer_wheel.occupancy").get();
    assert!(
        occupancy < 16.0,
        "{occupancy} timers in the wheel after 200 sequential predicts"
    );
    drop(client);
    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
}

#[test]
fn the_loops_accept_read_and_wakeup_failpoints_fire() {
    use neusight::fault;
    let points = [
        "serve.reactor.accept",
        "serve.reactor.read",
        "serve.reactor.wakeup",
    ];
    let server = Server::spawn(ServeConfig::default(), tiny_neusight()).expect("spawn server");
    // Delay-only, so the other tests in this process are slowed, not
    // failed, while the points are armed.
    let spec = points
        .map(|p| format!("{p}=1.0:delay_ms=1:kind=delay"))
        .join(";");
    fault::configure(&spec.parse().expect("fault spec"), 27);
    let mut client = Client::connect(server.addr()).expect("connect");
    // A cold predict is answered through the dispatcher, whose
    // completion wakes the loop.
    let response = client
        .post_json("/v1/predict", r#"{"model":"bert","gpu":"T4","batch":3}"#)
        .expect("predict");
    let fires = points.map(|p| fault::point_status(p).map_or(0, |s| s.fires));
    fault::reset();
    assert_eq!(response.status, 200, "{}", response.text());
    for (point, fires) in points.iter().zip(fires) {
        assert!(fires > 0, "{point} never fired");
    }
    drop(client);
    server.shutdown_and_join().expect("serve drain");
}

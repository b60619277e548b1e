//! End-to-end checks of the `neusight` binary's option handling: a
//! server or router asked for `--trace` still writes its spans at drain,
//! and a misspelled option is an error rather than a silently ignored
//! flag.

use neusight_serve::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn neusight() -> Command {
    Command::new(env!("CARGO_BIN_EXE_neusight"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neusight-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(command: &mut Command) -> Output {
    command.stdin(Stdio::null()).output().expect("run neusight")
}

/// Trains the tiny predictor into `dir` and returns its path.
fn tiny_predictor(dir: &Path) -> PathBuf {
    let path = dir.join("pred.json");
    let out = run(neusight()
        .args(["train", "--scale", "tiny", "--out"])
        .arg(&path));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// Reads `child`'s stdout until a line starting with `prefix`, and
/// returns the address that follows it (up to the next space).
fn announced_addr(child: &mut std::process::Child, prefix: &str) -> std::net::SocketAddr {
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stdout.read_line(&mut line).expect("read") > 0,
            "exited before announcing `{prefix}`"
        );
        if let Some(rest) = line.trim().strip_prefix(prefix) {
            let addr = rest.split_whitespace().next().expect("an address");
            break addr.parse().expect("announced address");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while stdout.read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
    });
    addr
}

/// Sends SIGTERM and waits for a clean exit.
fn terminate(child: &mut std::process::Child, what: &str) {
    let pid = i32::try_from(child.id()).expect("pid fits");
    // SAFETY: `kill` only sends a signal to the child this test spawned.
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "{what} did not drain");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "{what} exited with {status}");
}

#[test]
fn serve_with_trace_writes_the_predict_spans_at_drain() {
    let dir = scratch("serve-trace");
    let predictor = tiny_predictor(&dir);
    let spans = dir.join("spans.json");
    // `--reactor` is a retired flag that still parses, as a no-op.
    let mut child = neusight()
        .args(["serve", "--reactor", "--port", "0", "--predictor"])
        .arg(&predictor)
        .arg("--trace")
        .arg(&spans)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let addr = announced_addr(&mut child, "ADDR ");
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..2 {
        let response = client
            .post_json("/v1/predict", r#"{"model":"gpt2","gpu":"H100","batch":2}"#)
            .expect("predict");
        assert_eq!(response.status, 200, "{}", response.text());
    }
    drop(client);
    terminate(&mut child, "serve");

    let trace = std::fs::read_to_string(&spans).expect("span file written at drain");
    for name in [
        "serve_batch",
        "dedup",
        "cache_probe",
        "batch_predict",
        "aggregate",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "no `{name}` span in {}",
            spans.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_with_trace_writes_its_spans_and_its_replicas() {
    let dir = scratch("router-trace");
    let predictor = tiny_predictor(&dir);
    let spans = dir.join("router.json");
    let mut child = neusight()
        .args([
            "router",
            "--replicas",
            "1",
            "--addr",
            "127.0.0.1:0",
            "--predictor",
        ])
        .arg(&predictor)
        .arg("--trace")
        .arg(&spans)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn router");
    let addr = announced_addr(&mut child, "routing on http://");
    let mut client = Client::connect(addr).expect("connect");
    let response = client
        .post_json("/v1/predict", r#"{"model":"gpt2","gpu":"H100","batch":2}"#)
        .expect("predict");
    assert_eq!(response.status, 200, "{}", response.text());
    drop(client);
    terminate(&mut child, "router");

    let router = std::fs::read_to_string(&spans).expect("router span file written at drain");
    for name in ["router.route", "router.relay"] {
        assert!(
            router.contains(&format!("\"name\":\"{name}\"")),
            "no `{name}` span in {}",
            spans.display()
        );
    }
    let replica_spans = dir.join("router.json.replica-0");
    let replica = std::fs::read_to_string(&replica_spans).expect("replica span file written");
    assert!(
        replica.contains("\"name\":\"serve_batch\""),
        "no `serve_batch` span in {}",
        replica_spans.display()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_misspelled_option_is_an_error() {
    let out = run(neusight().args(["serve", "--trcae", "spans.json"]));
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option `--trcae`"), "{stderr}");
}

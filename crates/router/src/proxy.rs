//! The router process: configuration, lifecycle handles, the prober
//! thread, and the operator pages that fan out across the fleet.
//!
//! Client connections and predict forwarding run on serve's epoll
//! reactor (see `front.rs`): one loop thread multiplexes every
//! downstream connection and every upstream exchange, so the router's
//! thread count does not grow with connections or hedges. Predict
//! traffic routes by [`RouteKey`](crate::RouteKey) over the fleet's
//! consistent-hash ring; everything else is either answered locally
//! (aggregated `/healthz`) or forwarded to any live replica. The
//! operator fan-outs below (`/metrics`, `/v1/admin/reload`,
//! `/v1/admin/model`) keep their blocking clients and run on short-lived
//! threads that answer through the loop's mailbox.

use crate::gossip;
use crate::hedge::{HedgeConfig, Hedger};
use crate::upstream::{probe_fleet, Fleet, Probes, Upstream, PROBE_INTERVAL};
use neusight_fault::BreakerState;
use neusight_guard::recover_poison;
use neusight_obs as obs;
use neusight_serve::http::{json_string, Response};
use neusight_serve::{Client, ClientResponse};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Front-door listen address (port 0 = ephemeral).
    pub addr: String,
    /// The fleet: `(stable name, address)` per replica.
    pub upstreams: Vec<(String, SocketAddr)>,
    /// Connect/read timeout for upstream exchanges; also the router's
    /// own per-request deadline when the client sends no `X-Deadline-Ms`.
    pub upstream_timeout: Duration,
    /// Warm a replica's cache from a live donor when it (re)joins.
    pub warm_gossip: bool,
    /// Hedged-request tuning (also carries the shared retry budget).
    pub hedge: HedgeConfig,
    /// Queue-sojourn target (ms) for adaptive load shedding: above the
    /// target replicas are flipped into degraded brownout, above 2× the
    /// router sheds with 503 + honest `Retry-After`. `None` disables.
    pub shed_target_ms: Option<u64>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            upstreams: Vec::new(),
            upstream_timeout: Duration::from_secs(10),
            warm_gossip: false,
            hedge: HedgeConfig::default(),
            shed_target_ms: None,
        }
    }
}

/// Request-path metric handles, resolved once at bind.
pub(crate) struct RouterMetrics {
    pub(crate) requests: Arc<obs::Counter>,
    pub(crate) deadline_expired: Arc<obs::Counter>,
    pub(crate) breaker_short_circuit: Arc<obs::Counter>,
    pub(crate) failovers: Arc<obs::Counter>,
    pub(crate) status_5xx: Arc<obs::Counter>,
    pub(crate) errors: Arc<obs::Counter>,
    pub(crate) retries: Arc<obs::Counter>,
    pub(crate) retry_budget_exhausted: Arc<obs::Counter>,
    pub(crate) no_live_upstream: Arc<obs::Counter>,
    pub(crate) hedge_fired: Arc<obs::Counter>,
    pub(crate) hedge_won: Arc<obs::Counter>,
    pub(crate) shed: Arc<obs::Counter>,
    pub(crate) route_ns: Arc<obs::Histogram>,
    pub(crate) upstream_wait_ns: Arc<obs::Histogram>,
}

impl RouterMetrics {
    fn new() -> RouterMetrics {
        let counter = obs::metrics::counter;
        RouterMetrics {
            requests: counter("router.requests"),
            deadline_expired: counter("router.deadline.expired"),
            breaker_short_circuit: counter("router.upstream.breaker_short_circuit"),
            failovers: counter("router.upstream.failovers"),
            status_5xx: counter("router.upstream.status_5xx"),
            errors: counter("router.upstream.errors"),
            retries: counter("router.upstream.retries"),
            retry_budget_exhausted: counter("router.retry.budget_exhausted"),
            no_live_upstream: counter("router.no_live_upstream"),
            hedge_fired: counter("router.hedge.fired"),
            hedge_won: counter("router.hedge.won"),
            shed: counter("router.shed.total"),
            route_ns: obs::metrics::histogram("router.stage.route_ns"),
            upstream_wait_ns: obs::metrics::histogram("router.stage.upstream_wait_ns"),
        }
    }
}

/// State shared by the event loop, the operator fan-outs, and the prober.
pub(crate) struct RouterShared {
    pub(crate) config: RouterConfig,
    pub(crate) fleet: Arc<Fleet>,
    pub(crate) hedger: Hedger,
    pub(crate) metrics: RouterMetrics,
    stop: AtomicBool,
    /// Set once the router stops; `wake` rouses the prober's wait.
    halted: Mutex<bool>,
    wake: Condvar,
    started: Instant,
}

impl RouterShared {
    pub(crate) fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || neusight_serve::signal::signaled()
    }

    /// Stops the prober now rather than at its next probe.
    pub(crate) fn halt(&self) {
        *recover_poison(self.halted.lock()) = true;
        self.wake.notify_all();
    }

    /// Waits up to `timeout` for [`RouterShared::halt`]; returns whether
    /// the router halted.
    fn wait_halted(&self, timeout: Duration) -> bool {
        let halted = recover_poison(self.halted.lock());
        let (halted, _) = recover_poison(
            self.wake
                .wait_timeout_while(halted, timeout, |halted| !*halted),
        );
        *halted
    }
}

/// A bound (not yet running) router.
pub struct Router {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<RouterShared>,
}

/// Shutdown handle for a running router.
#[derive(Clone)]
pub struct RouterHandle {
    shared: Arc<RouterShared>,
}

impl RouterHandle {
    /// Requests a graceful drain: stop accepting, finish in-flight
    /// exchanges, stop the prober.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.halt();
    }

    /// The shared fleet (see [`Router::fleet`]).
    #[must_use]
    pub fn fleet(&self) -> Arc<Fleet> {
        Arc::clone(&self.shared.fleet)
    }
}

/// A router running on a background thread.
pub struct RunningRouter {
    addr: SocketAddr,
    handle: RouterHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl RunningRouter {
    /// The bound front-door address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown handle.
    #[must_use]
    pub fn handle(&self) -> RouterHandle {
        self.handle.clone()
    }

    /// The shared fleet (see [`Router::fleet`]).
    #[must_use]
    pub fn fleet(&self) -> Arc<Fleet> {
        self.handle.fleet()
    }

    /// Triggers a drain and waits for the router to exit.
    ///
    /// # Errors
    ///
    /// Propagates the run loop's I/O errors; a panicked router thread is
    /// reported as an error rather than cascading.
    pub fn shutdown_and_join(self) -> io::Result<()> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("router thread panicked"))?
    }
}

impl Router {
    /// Binds the front door.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and an empty upstream list.
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        if config.upstreams.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one upstream replica",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let fleet = Arc::new(Fleet::new(config.upstreams.clone()));
        let hedger = Hedger::new(config.hedge.clone());
        Ok(Router {
            listener,
            addr,
            shared: Arc::new(RouterShared {
                config,
                fleet,
                hedger,
                metrics: RouterMetrics::new(),
                stop: AtomicBool::new(false),
                halted: Mutex::new(false),
                wake: Condvar::new(),
                started: Instant::now(),
            }),
        })
    }

    /// The bound front-door address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared fleet — the supervisor drains/rebinds replicas through
    /// this handle.
    #[must_use]
    pub fn fleet(&self) -> Arc<Fleet> {
        Arc::clone(&self.shared.fleet)
    }

    /// A shutdown handle usable from another thread.
    #[must_use]
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves on the event loop until shutdown, then drains.
    ///
    /// # Errors
    ///
    /// Propagates listener and event-loop failures; on a non-Linux
    /// platform reports [`io::ErrorKind::Unsupported`].
    pub fn run(self) -> io::Result<()> {
        let Router {
            listener, shared, ..
        } = self;
        let prober = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_prober(&shared))
        };
        let result = serve_front_door(&shared, &listener);
        shared.halt();
        let _ = prober.join();
        result
    }

    /// Binds and runs on a background thread — the test/bench entry
    /// point.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(config: RouterConfig) -> io::Result<RunningRouter> {
        let router = Router::bind(config)?;
        let addr = router.local_addr();
        let handle = router.handle();
        let thread = thread::spawn(move || router.run());
        Ok(RunningRouter {
            addr,
            handle,
            thread,
        })
    }
}

#[cfg(target_os = "linux")]
fn serve_front_door(shared: &Arc<RouterShared>, listener: &TcpListener) -> io::Result<()> {
    crate::front::run(shared, listener)
}

#[cfg(not(target_os = "linux"))]
fn serve_front_door(_shared: &Arc<RouterShared>, _listener: &TcpListener) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "neusight-router requires Linux epoll",
    ))
}

/// The prober loop: health-checks the fleet on a fixed cadence (downed
/// replicas additionally paced by per-endpoint backoff), gossip-warms
/// replicas that just came back (when enabled), and runs the brownout
/// half of the shed controller. Probe connections are rebuilt whenever
/// the fleet's address generation moves — a supervised respawn lands a
/// replica on a new ephemeral port.
fn run_prober(shared: &RouterShared) {
    let mut generation = shared.fleet.addr_generation();
    let mut probes = Probes::new(&shared.fleet, shared.config.upstream_timeout);
    let mut brownout_active = false;
    // First pass immediately: attach mode should notice an already-dead
    // replica before the first request arrives.
    loop {
        if shared.fleet.addr_generation() != generation {
            generation = shared.fleet.addr_generation();
            probes = Probes::new(&shared.fleet, shared.config.upstream_timeout);
        }
        let recovered = probe_fleet(&shared.fleet, &mut probes);
        if shared.config.warm_gossip {
            for name in recovered {
                warm_replica(shared, &name);
            }
        }
        control_brownout(shared, &mut probes, &mut brownout_active);
        // One wakeup per probe interval; the drain wakes it at once.
        if shared.wait_halted(PROBE_INTERVAL) {
            return;
        }
    }
}

/// Worst queue sojourn (ms) across live replicas — the congestion signal
/// the shed controller acts on.
pub(crate) fn worst_sojourn(fleet: &Fleet) -> u64 {
    fleet
        .upstreams()
        .iter()
        .filter(|u| u.is_healthy())
        .map(|u| u.sojourn_ms())
        .max()
        .unwrap_or(0)
}

/// The brownout tier of adaptive shedding: when the worst replica
/// sojourn crosses the target, flip the fleet into roofline degraded
/// mode (cheap answers instead of queueing); restore full predictions
/// once sojourn falls below half the target. Hard 503 shedding at 2× the
/// target happens on the request path (`front.rs`).
fn control_brownout(shared: &RouterShared, probes: &mut Probes, active: &mut bool) {
    let Some(target) = shared.config.shed_target_ms else {
        return;
    };
    let worst = worst_sojourn(&shared.fleet);
    let want = if *active {
        worst > target / 2
    } else {
        worst >= target
    };
    if want == *active {
        return;
    }
    *active = want;
    obs::metrics::gauge("router.shed.brownout").set(if want { 1.0 } else { 0.0 });
    obs::metrics::counter("router.shed.brownout_flips").inc();
    obs::event!("router_brownout", on = want, worst_sojourn_ms = worst);
    let body = format!("{{\"on\":{want}}}");
    for (index, upstream) in shared.fleet.upstreams().iter().enumerate() {
        if upstream.is_healthy() {
            // Best-effort: an unreachable replica will be probed out of
            // the ring anyway.
            let _ = probes.exchange(index, |c| c.post_json("/v1/control/brownout", &body));
        }
    }
}

/// Best-effort cache warm of a recovered replica from any *other* live
/// donor. Failure is cosmetic: the replica just starts cold.
fn warm_replica(shared: &RouterShared, name: &str) {
    let Some(newcomer) = shared.fleet.get(name) else {
        return;
    };
    let donor = shared
        .fleet
        .upstreams()
        .iter()
        .find(|u| u.name != name && u.is_healthy())
        .cloned();
    let Some(donor) = donor else { return };
    match gossip::warm(
        donor.addr(),
        newcomer.addr(),
        shared.config.upstream_timeout,
    ) {
        Ok(imported) => {
            obs::event!("router_gossip_warm", replica = name, imported = imported);
        }
        Err(e) => {
            obs::metrics::counter("router.gossip.failures").inc();
            obs::event!("router_gossip_warm_failed", replica = name, error = e);
        }
    }
}

/// How long `rolling_reload` waits for one replica's shadow evaluation
/// to settle before treating the roll as stuck.
const RELOAD_SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// `POST /v1/admin/reload`: roll a model reload across the fleet one
/// replica at a time.
///
/// Per replica: drain it from the ring, forward the reload request (the
/// replica runs its staged + canary gates while out of rotation), then
/// readmit it. A `202` means the replica entered shadow evaluation —
/// readmission happens *first* so live traffic can feed the shadow
/// scorer, and the router polls `/v1/admin/model` until the state leaves
/// `shadowing`. The roll aborts on the first replica that rejects or
/// rolls back the candidate, leaving the remainder on the old version
/// (version skew is tolerated: gossip refuses cross-version imports and
/// every response carries `X-Model-Version`).
pub(crate) fn rolling_reload(shared: &RouterShared, body: &[u8]) -> Response {
    let Ok(body) = std::str::from_utf8(body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let body = body.to_owned();
    obs::event!("router_rolling_reload_started");
    let mut reports: Vec<String> = Vec::new();
    let mut promoted = 0usize;
    let mut aborted = false;
    for upstream in shared.fleet.upstreams() {
        if aborted {
            reports.push(replica_report(&upstream.name, "not-attempted", None));
            continue;
        }
        if !upstream.is_healthy() {
            // A downed replica is the supervisor's problem; when it
            // respawns it loads the registry's latest artifact anyway.
            reports.push(replica_report(&upstream.name, "skipped-unhealthy", None));
            continue;
        }
        let drained = shared.fleet.mark_down(&upstream.name);
        let reply = exchange(shared, upstream, |client| {
            client.post_json("/v1/admin/reload", &body)
        });
        if drained {
            shared.fleet.mark_up(&upstream.name);
        }
        let (outcome, version) = match reply {
            Ok(reply) if reply.status == 200 => ("promoted".to_owned(), reply_version(&reply.body)),
            Ok(reply) if reply.status == 202 => {
                let candidate = reply_version(&reply.body);
                settle_shadow(shared, upstream, candidate.as_deref())
            }
            Ok(reply) => (
                format!("rejected-{}", reply.status),
                reply_version(&reply.body),
            ),
            Err(e) => (format!("error-{}", e.kind()), None),
        };
        if outcome == "promoted" {
            promoted += 1;
            obs::metrics::counter("router.reload.replicas").inc();
        } else {
            aborted = true;
            obs::metrics::counter("router.reload.aborted").inc();
            obs::event!(
                "router_rolling_reload_aborted",
                replica = upstream.name.as_str(),
                outcome = outcome.as_str()
            );
        }
        reports.push(replica_report(&upstream.name, &outcome, version.as_deref()));
    }
    let status = if aborted { 409 } else { 200 };
    let body = format!(
        "{{\"status\":{},\"promoted\":{promoted},\"replicas\":[{}]}}",
        json_string(if aborted { "aborted" } else { "complete" }),
        reports.join(","),
    );
    Response::json(status, body)
}

/// One replica's line in the rolling-reload report.
fn replica_report(name: &str, outcome: &str, version: Option<&str>) -> String {
    let version = match version {
        Some(v) => json_string(v),
        None => "null".to_owned(),
    };
    format!(
        "{{\"name\":{},\"outcome\":{},\"version\":{version}}}",
        json_string(name),
        json_string(outcome),
    )
}

/// Pulls a `"field":"value"` string field out of a compact JSON reply
/// body without a full decode. The bodies scanned here are the serve
/// tier's own admin pages, and the fields read — version tags (charset
/// `[A-Za-z0-9._-]`), lifecycle state names — can never contain escaped
/// quotes, so scanning to the next `"` is exact.
fn scan_string_field(body: &[u8], field: &str) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let needle = format!("\"{field}\":\"");
    let rest = text.split(needle.as_str()).nth(1)?;
    let end = rest.find('"')?;
    Some(rest[..end].to_owned())
}

/// Pulls the `"version"` field out of a reload/status reply body.
fn reply_version(body: &[u8]) -> Option<String> {
    scan_string_field(body, "version")
}

/// Waits for a replica's shadow evaluation to settle (the readmitted
/// replica needs live traffic, which keeps flowing while we poll).
/// Returns `("promoted", v)` when the candidate version ends up serving,
/// otherwise the terminal outcome.
fn settle_shadow(
    shared: &RouterShared,
    upstream: &Arc<Upstream>,
    candidate: Option<&str>,
) -> (String, Option<String>) {
    let deadline = Instant::now() + RELOAD_SETTLE_TIMEOUT;
    while Instant::now() < deadline && !shared.stop_requested() {
        let Ok(reply) = exchange(shared, upstream, |client| client.get("/v1/admin/model")) else {
            thread::sleep(Duration::from_millis(50));
            continue;
        };
        let Some(state) = scan_string_field(&reply.body, "state") else {
            thread::sleep(Duration::from_millis(50));
            continue;
        };
        if state != "shadowing" {
            let serving = scan_string_field(&reply.body, "version");
            let won = match (candidate, serving.as_deref()) {
                (Some(want), Some(got)) => want == got,
                // No version to compare (registry-latest reload): a
                // terminal non-shadow state that is not a rollback event
                // counts as promotion.
                _ => !scan_string_field(&reply.body, "last_transition")
                    .unwrap_or_default()
                    .contains("rollback"),
            };
            let outcome = if won { "promoted" } else { "rolled-back" };
            return (outcome.to_owned(), serving);
        }
        thread::sleep(Duration::from_millis(50));
    }
    ("shadow-timeout".to_owned(), None)
}

/// `GET /v1/admin/model`: every replica's model status side by side,
/// plus the distinct serving versions (more than one = mid-roll skew).
pub(crate) fn model_status(shared: &RouterShared) -> Response {
    let mut entries: Vec<String> = Vec::new();
    let mut versions: Vec<String> = Vec::new();
    for upstream in shared.fleet.upstreams() {
        let status = if upstream.is_healthy() {
            match exchange(shared, upstream, |client| client.get("/v1/admin/model")) {
                Ok(reply) if reply.status == 200 => {
                    if let Some(version) = reply_version(&reply.body) {
                        if !versions.contains(&version) {
                            versions.push(version);
                        }
                    }
                    String::from_utf8_lossy(&reply.body).into_owned()
                }
                _ => "null".to_owned(),
            }
        } else {
            "null".to_owned()
        };
        entries.push(format!(
            "{{\"name\":{},\"model\":{status}}}",
            json_string(&upstream.name)
        ));
    }
    let versions: Vec<String> = versions.iter().map(|v| json_string(v)).collect();
    Response::json(
        200,
        format!(
            "{{\"versions\":[{}],\"replicas\":[{}]}}",
            versions.join(","),
            entries.join(","),
        ),
    )
}

/// One blocking exchange with a replica for the operator fan-outs,
/// wrapped in the chaos failpoints. Dials `upstream.addr()` — read at
/// call time, so a supervised respawn's new port takes effect on the
/// next exchange.
fn exchange(
    shared: &RouterShared,
    upstream: &Upstream,
    run: impl FnOnce(&mut Client) -> io::Result<ClientResponse>,
) -> io::Result<ClientResponse> {
    if let Some(injected) = neusight_fault::fail_point!("router.upstream.connect") {
        injected.sleep();
        if injected.fail {
            return Err(io::Error::other(injected.error()));
        }
    }
    let mut client = Client::connect_timeout(upstream.addr(), shared.config.upstream_timeout)?;
    if let Some(injected) = neusight_fault::fail_point!("router.upstream.slow") {
        injected.sleep();
    }
    let result = run(&mut client)?;
    if let Some(injected) = neusight_fault::fail_point!("router.upstream.read") {
        injected.sleep();
        if injected.fail {
            return Err(io::Error::other(injected.error()));
        }
    }
    Ok(result)
}

/// Aggregated fleet health, plus the front door's own load: requests
/// waiting for an answer and upstream exchanges in flight.
pub(crate) fn health(shared: &RouterShared, inflight: usize, exchanges: usize) -> Response {
    let upstreams = shared.fleet.upstreams();
    let healthy: Vec<bool> = upstreams.iter().map(|u| u.is_healthy()).collect();
    let live = healthy.iter().filter(|h| **h).count();
    let status = match live {
        0 => "down",
        n if n == upstreams.len() => "ok",
        _ => "degraded",
    };
    let replicas: Vec<String> = upstreams
        .iter()
        .zip(&healthy)
        .map(|(u, healthy)| {
            format!(
                "{{\"name\":{},\"addr\":{},\"healthy\":{healthy},\"breaker\":{}}}",
                json_string(&u.name),
                json_string(&u.addr().to_string()),
                json_string(breaker_label(u.breaker.state())),
            )
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let body = format!(
        "{{\"status\":\"{status}\",\"uptime_s\":{:.3},\"live\":{live},\"total\":{},\"rehash_total\":{},\"inflight\":{inflight},\"exchanges\":{exchanges},\"replicas\":[{}]}}",
        shared.started.elapsed().as_secs_f64(),
        upstreams.len(),
        obs::metrics::counter("router.rehash_total").get(),
        replicas.join(","),
    );
    Response::json(if live == 0 { 503 } else { 200 }, body)
}

/// Human label for a breaker state.
fn breaker_label(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

/// The router's own registry plus every live replica's exposition,
/// replica-labeled.
pub(crate) fn metrics_page(shared: &RouterShared) -> Response {
    let mut text = obs::export::prometheus(&obs::metrics::snapshot());
    text.push_str("# TYPE neusight_router_info gauge\n");
    text.push_str(&format!(
        "neusight_router_info{{addr=\"{}\",version=\"{}\",replicas=\"{}\"}} 1\n",
        obs::export::escape_label_value(&shared.config.addr),
        obs::export::escape_label_value(env!("CARGO_PKG_VERSION")),
        shared.fleet.upstreams().len(),
    ));
    for upstream in shared.fleet.upstreams() {
        if !upstream.is_healthy() {
            continue;
        }
        let Ok(reply) = exchange(shared, upstream, |client| client.get("/metrics")) else {
            continue;
        };
        if reply.status == 200 {
            text.push_str(&label_samples(&reply.text(), &upstream.name));
        }
    }
    Response::text(200, text)
}

/// Rewrites an upstream exposition so every sample carries a
/// `replica="<name>"` label. Comment/TYPE lines are dropped (the merged
/// page would otherwise declare each family once per replica).
fn label_samples(exposition: &str, replica: &str) -> String {
    let mut out = String::with_capacity(exposition.len() + 64);
    let label = format!("replica=\"{}\"", obs::export::escape_label_value(replica));
    for line in exposition.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(brace) = line.find('{') {
            // name{labels...} value → name{replica="x",labels...} value
            out.push_str(&line[..=brace]);
            out.push_str(&label);
            out.push(',');
            out.push_str(&line[brace + 1..]);
        } else if let Some(space) = line.find(' ') {
            // name value → name{replica="x"} value
            out.push_str(&line[..space]);
            out.push('{');
            out.push_str(&label);
            out.push('}');
            out.push_str(&line[space..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_samples_injects_replica_label() {
        let exposition = "# TYPE neusight_serve_requests counter\n\
                          neusight_serve_requests 42\n\
                          neusight_serve_info{addr=\"127.0.0.1:1\"} 1\n";
        let labeled = label_samples(exposition, "replica-0");
        assert!(!labeled.contains('#'), "comment lines are dropped");
        assert!(labeled.contains("neusight_serve_requests{replica=\"replica-0\"} 42"));
        assert!(
            labeled.contains("neusight_serve_info{replica=\"replica-0\",addr=\"127.0.0.1:1\"} 1")
        );
    }

    #[test]
    fn bind_rejects_an_empty_fleet() {
        let err = match Router::bind(RouterConfig::default()) {
            Ok(_) => panic!("an empty fleet must not bind"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}

//! The router process: accept loop, per-connection proxying, fleet
//! aggregation pages, and the prober thread.
//!
//! Each accepted connection gets a handler thread (blocking reads via
//! [`http::read_request`]) that keeps one upstream keep-alive
//! connection per replica it has talked to, so the steady-state hop adds
//! a hash + one pooled socket write, not a dial. Predict traffic routes
//! by [`RouteKey`] over the fleet's consistent-hash ring; everything
//! else is either answered locally (aggregated `/healthz`, `/metrics`)
//! or forwarded to any live replica.

use crate::gossip;
use crate::hedge::{HedgeConfig, Hedger};
use crate::ring::RouteKey;
use crate::upstream::{fleet_status, probe_fleet, Fleet, Upstream, PROBE_INTERVAL};
use neusight_fault::BreakerState;
use neusight_obs as obs;
use neusight_serve::deadline::{effective_budget_ms, shrink_ms};
use neusight_serve::http::{self, json_string, ReadOutcome, Request, Response};
use neusight_serve::{Client, ClientResponse, MultiClient, PredictRequest};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
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
    /// Idle timeout for client (downstream) connections.
    pub idle_timeout: Duration,
    /// Cap on concurrent client connections.
    pub workers: usize,
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
            idle_timeout: Duration::from_secs(30),
            workers: 256,
            warm_gossip: false,
            hedge: HedgeConfig::default(),
            shed_target_ms: None,
        }
    }
}

/// State shared by the accept loop, handlers, and the prober.
struct RouterShared {
    config: RouterConfig,
    fleet: Arc<Fleet>,
    hedger: Hedger,
    stop: AtomicBool,
    started: Instant,
}

impl RouterShared {
    fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || neusight_serve::signal::signaled()
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
    /// exchanges, join handlers.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
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
                stop: AtomicBool::new(false),
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

    /// Runs the accept loop until shutdown, then drains.
    ///
    /// # Errors
    ///
    /// Propagates listener failures.
    pub fn run(self) -> io::Result<()> {
        let Router {
            listener, shared, ..
        } = self;
        listener.set_nonblocking(true)?;

        let prober = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_prober(&shared))
        };

        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !shared.stop_requested() {
            handlers.retain(|h| !h.is_finished());
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if handlers.len() >= shared.config.workers {
                        let mut stream = stream;
                        let _ = Response::error(503, "connection limit reached")
                            .write_to(&mut stream, false);
                        continue;
                    }
                    let shared = Arc::clone(&shared);
                    handlers.push(thread::spawn(move || {
                        if neusight_guard::catch("router.connection", || {
                            handle_connection(&shared, stream)
                        })
                        .is_err()
                        {
                            obs::metrics::counter("router.connection.panics").inc();
                        }
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        for handler in handlers {
            let _ = handler.join();
        }
        let _ = prober.join();
        Ok(())
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

/// The prober loop: health-checks the fleet on a fixed cadence (downed
/// replicas additionally paced by per-endpoint backoff), gossip-warms
/// replicas that just came back (when enabled), and runs the brownout
/// half of the shed controller. Probe connections are rebuilt whenever
/// the fleet's address generation moves — a supervised respawn lands a
/// replica on a new ephemeral port.
fn run_prober(shared: &RouterShared) {
    let mut generation = shared.fleet.addr_generation();
    let mut probes = build_probes(shared);
    let mut brownout_active = false;
    // First pass immediately: attach mode should notice an already-dead
    // replica before the first request arrives.
    loop {
        if shared.fleet.addr_generation() != generation {
            generation = shared.fleet.addr_generation();
            probes = build_probes(shared);
        }
        let recovered = probe_fleet(&shared.fleet, &mut probes);
        if shared.config.warm_gossip {
            for name in recovered {
                warm_replica(shared, &name);
            }
        }
        control_brownout(shared, &mut probes, &mut brownout_active);
        // Sleep in short slices so shutdown is prompt.
        let deadline = Instant::now() + PROBE_INTERVAL;
        while Instant::now() < deadline {
            if shared.stop_requested() {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
        if shared.stop_requested() {
            return;
        }
    }
}

/// Probe connections for the fleet's *current* addresses.
fn build_probes(shared: &RouterShared) -> MultiClient {
    let addrs: Vec<SocketAddr> = shared.fleet.upstreams().iter().map(|u| u.addr()).collect();
    MultiClient::new(&addrs, shared.config.upstream_timeout)
}

/// Worst queue sojourn (ms) across live replicas — the congestion signal
/// the shed controller acts on.
fn worst_sojourn(fleet: &Fleet) -> u64 {
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
/// target lives in [`shed_check`] on the request path.
fn control_brownout(shared: &RouterShared, probes: &mut MultiClient, active: &mut bool) {
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
            let _ = probes.post_json(index, "/v1/control/brownout", &body);
        }
    }
}

/// The hard tier of adaptive shedding: when the worst live-replica
/// sojourn exceeds 2× the target, answer 503 *at the router* with an
/// honest `Retry-After` derived from the observed sojourn, instead of
/// queueing the request behind a standing queue.
fn shed_check(shared: &RouterShared) -> Option<Response> {
    let target = shared.config.shed_target_ms?;
    let worst = worst_sojourn(&shared.fleet);
    if worst < target.saturating_mul(2) {
        return None;
    }
    obs::metrics::counter("router.shed.total").inc();
    let retry_after = worst.saturating_mul(2).div_ceil(1000).clamp(1, 30);
    Some(
        Response::error(503, "overloaded: queue sojourn above shed target")
            .with_header("Retry-After", retry_after.to_string()),
    )
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

/// Serves one downstream connection's keep-alive loop.
fn handle_connection(shared: &RouterShared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut carry: Vec<u8> = Vec::new();
    // Pooled keep-alive connections to the replicas this downstream
    // connection has routed to, keyed by replica name.
    let mut pool: HashMap<String, Client> = HashMap::new();
    loop {
        let outcome = http::read_request(
            &mut stream,
            shared.config.idle_timeout,
            || shared.stop_requested(),
            &mut carry,
        );
        match outcome {
            Ok(ReadOutcome::Request(request)) => {
                obs::metrics::counter("router.requests").inc();
                let trace = obs::TraceContext::start(request.header("x-request-id"));
                let wants_close = request.wants_close();
                let response = route(shared, &request, &trace, &mut pool);
                let keep_alive = !wants_close && !shared.stop_requested();
                let write_ok = response
                    .write_to_traced(&mut stream, keep_alive, Some(&trace))
                    .is_ok();
                if !write_ok || !keep_alive {
                    return;
                }
            }
            Ok(ReadOutcome::Malformed(message, status)) => {
                let _ = Response::error(status, message).write_to(&mut stream, false);
                return;
            }
            Ok(ReadOutcome::Closed | ReadOutcome::IdleTimeout | ReadOutcome::Draining) | Err(_) => {
                return
            }
        }
    }
}

/// Routes one request to a handler.
fn route(
    shared: &RouterShared,
    request: &Request,
    trace: &obs::TraceContext,
    pool: &mut HashMap<String, Client>,
) -> Response {
    const ROUTES: [&str; 7] = [
        "/healthz",
        "/metrics",
        "/v1/models",
        "/v1/gpus",
        "/v1/predict",
        "/v1/admin/reload",
        "/v1/admin/model",
    ];
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/predict") => forward_predict(shared, request, trace, pool),
        ("GET", "/healthz") => health(shared),
        ("GET", "/metrics") => metrics_page(shared, pool),
        ("GET", "/v1/admin/model") => model_status(shared, pool),
        ("POST", "/v1/admin/reload") => rolling_reload(shared, request, pool),
        ("GET", path @ ("/v1/models" | "/v1/gpus")) => forward_any(shared, path, pool),
        (_, path) if ROUTES.contains(&path) => {
            let allow = match path {
                "/v1/predict" | "/v1/admin/reload" => "POST",
                _ => "GET",
            };
            Response::error(405, &format!("use {allow} for {path}"))
                .with_header("Allow", allow.to_owned())
        }
        _ => Response::error(404, "no such route"),
    }
}

/// `POST /v1/predict`: hash the (GPU, op-family) key, forward to the
/// shard owner, and fail over — draining the replica out of the ring —
/// on upstream failure. A request is answered 5xx only when *no* live
/// replica remains, the retry budget runs dry, or the shed controller
/// rejects it up front.
///
/// The deadline budget telescopes: the client's `X-Deadline-Ms` (capped
/// by the router's own hop deadline) shrinks by measured elapsed time
/// before every attempt, and the *remaining* budget is forwarded so the
/// replica can refuse work it cannot finish in time. An expired request
/// answers 504 immediately instead of burning an upstream exchange.
fn forward_predict(
    shared: &RouterShared,
    request: &Request,
    trace: &obs::TraceContext,
    pool: &mut HashMap<String, Client>,
) -> Response {
    let arrival = Instant::now();
    if let Some(shed) = shed_check(shared) {
        return shed;
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let parsed: PredictRequest = match serde_json::from_str(body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(400, &format!("bad predict request: {e}")),
    };
    let budget_ms = effective_budget_ms(shared.config.upstream_timeout, request.deadline_ms());
    if budget_ms == 0 {
        obs::metrics::counter("router.deadline.expired").inc();
        return Response::error(504, "deadline exceeded");
    }
    shared.hedger.on_request();
    let key = RouteKey::from_predict(&parsed.model, &parsed.gpu);
    // Each failed attempt drains the owner and re-routes; the ring
    // shrinks monotonically within one request, so this terminates.
    let attempts = shared.fleet.upstreams().len().max(1);
    for attempt in 0..attempts {
        let Some(upstream) = shared.fleet.route(&key) else {
            break;
        };
        if !upstream.breaker.allow() {
            // Open breaker: treat like a failed attempt without an
            // exchange — drain and re-route.
            obs::metrics::counter("router.upstream.breaker_short_circuit").inc();
            shared.fleet.mark_down(&upstream.name);
            continue;
        }
        let remaining_ms = shrink_ms(budget_ms, arrival.elapsed());
        if remaining_ms == 0 {
            obs::metrics::counter("router.deadline.expired").inc();
            return Response::error(504, "deadline exceeded");
        }
        obs::metrics::histogram("router.stage.route_ns")
            .record_secs(arrival.elapsed().as_secs_f64());
        let wait_started = Instant::now();
        // Hedge only the first attempt: a failover retry is already a
        // second copy of the work.
        let hedge_plan = if attempt == 0 {
            shared
                .hedger
                .hedge_delay()
                .and_then(|delay| shared.fleet.route_successor(&key).map(|t| (delay, t)))
        } else {
            None
        };
        let (result, responder) = match hedge_plan {
            Some((delay, target)) => hedged_exchange(
                shared,
                &upstream,
                &target,
                pool,
                body,
                trace,
                remaining_ms,
                delay,
            ),
            None => {
                let result = exchange(shared, &upstream, pool, |client| {
                    client.post_json_with_id_and_deadline(
                        "/v1/predict",
                        body,
                        &trace.id_string(),
                        remaining_ms,
                    )
                });
                (result, Arc::clone(&upstream))
            }
        };
        match result {
            Ok(reply) if reply.status < 500 => {
                responder.breaker.record_success();
                obs::metrics::histogram("router.stage.upstream_wait_ns")
                    .record_secs(wait_started.elapsed().as_secs_f64());
                if attempt > 0 {
                    obs::metrics::counter("router.upstream.failovers").inc();
                }
                return relay(reply);
            }
            Ok(reply) => {
                // Upstream 5xx: predict is idempotent, so fail over.
                responder.breaker.record_failure();
                obs::metrics::counter("router.upstream.status_5xx").inc();
                shared.fleet.mark_down(&responder.name);
                let _ = reply;
            }
            Err(_) => {
                responder.breaker.record_failure();
                obs::metrics::counter("router.upstream.errors").inc();
                shared.fleet.mark_down(&responder.name);
            }
        }
        // A failover retry is extra upstream load; it spends from the
        // same token budget as hedges (the gRPC retry-throttle shape),
        // so a mass failure cannot turn into a retry storm.
        if attempt + 1 < attempts
            && shared.fleet.route(&key).is_some()
            && !shared.hedger.try_spend("retry")
        {
            obs::metrics::counter("router.retry.budget_exhausted").inc();
            return Response::error(503, "retry budget exhausted")
                .with_header("Retry-After", "1".to_owned());
        }
        obs::metrics::counter("router.upstream.retries").inc();
    }
    obs::metrics::counter("router.no_live_upstream").inc();
    Response::error(503, "no live upstream replica")
}

/// What one background exchange worker reports: which copy it was, the
/// outcome, and the connection (for pool reuse) if still clean.
type ExchangeVerdict = (bool, io::Result<ClientResponse>, Option<Client>);

/// Runs one predict exchange on a background thread, reporting through
/// `tx`. Detached on purpose: the losing copy of a hedged pair finishes
/// (or times out) in the background and its connection is dropped.
#[allow(clippy::too_many_arguments)]
fn spawn_exchange(
    tx: &mpsc::Sender<ExchangeVerdict>,
    is_hedge: bool,
    timeout: Duration,
    upstream: Arc<Upstream>,
    client: Option<Client>,
    body: String,
    request_id: String,
    deadline_ms: u64,
) {
    let tx = tx.clone();
    thread::spawn(move || {
        let (result, client) = exchange_owned(timeout, &upstream, client, |c| {
            c.post_json_with_id_and_deadline("/v1/predict", &body, &request_id, deadline_ms)
        });
        let _ = tx.send((is_hedge, result, client));
    });
}

/// A hedged predict: send to the primary, wait the hedge delay, and if
/// it still has not answered fire one duplicate at the next ring owner
/// (budget permitting), taking whichever answer lands first. Returns the
/// winning result and the upstream it came from (for breaker/ring
/// accounting). The losing copy's connection is closed, not pooled — its
/// socket has a stale response in flight.
#[allow(clippy::too_many_arguments)]
fn hedged_exchange(
    shared: &RouterShared,
    primary: &Arc<Upstream>,
    successor: &Arc<Upstream>,
    pool: &mut HashMap<String, Client>,
    body: &str,
    trace: &obs::TraceContext,
    deadline_ms: u64,
    hedge_delay: Duration,
) -> (io::Result<ClientResponse>, Arc<Upstream>) {
    let (tx, rx) = mpsc::channel();
    let timeout = shared.config.upstream_timeout;
    // Overall wait: the remaining deadline (plus render slack), never
    // longer than the socket timeout would allow anyway.
    let overall = Duration::from_millis(deadline_ms)
        .min(timeout)
        .saturating_add(Duration::from_millis(250));
    spawn_exchange(
        &tx,
        false,
        timeout,
        Arc::clone(primary),
        pool.remove(&primary.name),
        body.to_owned(),
        trace.id_string(),
        deadline_ms,
    );
    let mut hedged = false;
    let first = match rx.recv_timeout(hedge_delay) {
        Ok(verdict) => verdict,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            if shared.hedger.try_spend("hedge") {
                hedged = true;
                obs::metrics::counter("router.hedge.fired").inc();
                spawn_exchange(
                    &tx,
                    true,
                    timeout,
                    Arc::clone(successor),
                    pool.remove(&successor.name),
                    body.to_owned(),
                    trace.id_string(),
                    deadline_ms,
                );
            }
            match rx.recv_timeout(overall) {
                Ok(verdict) => verdict,
                Err(_) => {
                    return (
                        Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "upstream wait expired",
                        )),
                        Arc::clone(primary),
                    )
                }
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return (
                Err(io::Error::other("exchange worker died")),
                Arc::clone(primary),
            )
        }
    };
    let good = |result: &io::Result<ClientResponse>| matches!(result, Ok(r) if r.status < 500);
    let settle = |(is_hedge, result, client): ExchangeVerdict,
                  pool: &mut HashMap<String, Client>| {
        let winner = if is_hedge { successor } else { primary };
        if let Some(client) = client {
            pool.insert(winner.name.clone(), client);
        }
        if is_hedge && good(&result) {
            obs::metrics::counter("router.hedge.won").inc();
        }
        (result, Arc::clone(winner))
    };
    if good(&first.1) || !hedged {
        return settle(first, pool);
    }
    // First arrival failed but a second copy is in flight: give it the
    // rest of the window before reporting the failure.
    match rx.recv_timeout(overall) {
        Ok(second) if good(&second.1) => settle(second, pool),
        _ => settle(first, pool),
    }
}

/// Forwards a shard-agnostic GET to any live replica.
fn forward_any(shared: &RouterShared, path: &str, pool: &mut HashMap<String, Client>) -> Response {
    for _ in 0..shared.fleet.upstreams().len().max(1) {
        let Some(upstream) = shared.fleet.any_live() else {
            break;
        };
        match exchange(shared, &upstream, pool, |client| client.get(path)) {
            Ok(reply) if reply.status < 500 => return relay(reply),
            Ok(_) | Err(_) => {
                upstream.breaker.record_failure();
                shared.fleet.mark_down(&upstream.name);
            }
        }
    }
    Response::error(503, "no live upstream replica")
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
fn rolling_reload(
    shared: &RouterShared,
    request: &Request,
    pool: &mut HashMap<String, Client>,
) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
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
        let reply = exchange(shared, upstream, pool, |client| {
            client.post_json("/v1/admin/reload", &body)
        });
        if drained {
            shared.fleet.mark_up(&upstream.name);
        }
        let (outcome, version) = match reply {
            Ok(reply) if reply.status == 200 => ("promoted".to_owned(), reply_version(&reply.body)),
            Ok(reply) if reply.status == 202 => {
                let candidate = reply_version(&reply.body);
                settle_shadow(shared, upstream, pool, candidate.as_deref())
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
    pool: &mut HashMap<String, Client>,
    candidate: Option<&str>,
) -> (String, Option<String>) {
    let deadline = Instant::now() + RELOAD_SETTLE_TIMEOUT;
    while Instant::now() < deadline && !shared.stop_requested() {
        let Ok(reply) = exchange(shared, upstream, pool, |client| {
            client.get("/v1/admin/model")
        }) else {
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
fn model_status(shared: &RouterShared, pool: &mut HashMap<String, Client>) -> Response {
    let mut entries: Vec<String> = Vec::new();
    let mut versions: Vec<String> = Vec::new();
    for upstream in shared.fleet.upstreams() {
        let status = if upstream.is_healthy() {
            match exchange(shared, upstream, pool, |client| {
                client.get("/v1/admin/model")
            }) {
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

/// One exchange with a replica over an owned (optional) connection,
/// wrapped in the chaos failpoints. Dials `upstream.addr()` — read at
/// call time, so a supervised respawn's new port takes effect on the
/// next dial. Returns the connection for reuse only if the exchange
/// left it clean.
fn exchange_owned(
    timeout: Duration,
    upstream: &Arc<Upstream>,
    client: Option<Client>,
    run: impl FnOnce(&mut Client) -> io::Result<ClientResponse>,
) -> (io::Result<ClientResponse>, Option<Client>) {
    if let Some(injected) = neusight_fault::fail_point!("router.upstream.connect") {
        injected.sleep();
        if injected.fail {
            return (Err(io::Error::other(injected.error())), None);
        }
    }
    let mut client = match client {
        Some(client) => client,
        None => match Client::connect_timeout(upstream.addr(), timeout) {
            Ok(client) => client,
            Err(e) => return (Err(e), None),
        },
    };
    if let Some(injected) = neusight_fault::fail_point!("router.upstream.slow") {
        injected.sleep();
    }
    let result = run(&mut client);
    if let Some(injected) = neusight_fault::fail_point!("router.upstream.read") {
        injected.sleep();
        if injected.fail {
            return (Err(io::Error::other(injected.error())), None);
        }
    }
    if result.is_err() {
        (result, None)
    } else {
        (result, Some(client))
    }
}

/// One pooled exchange with a replica: takes the pooled connection (if
/// any), runs [`exchange_owned`], and re-pools the connection when it
/// survived. Any error drops it so the next attempt redials.
fn exchange(
    shared: &RouterShared,
    upstream: &Arc<Upstream>,
    pool: &mut HashMap<String, Client>,
    run: impl FnOnce(&mut Client) -> io::Result<ClientResponse>,
) -> io::Result<ClientResponse> {
    let pooled = pool.remove(&upstream.name);
    let (result, client) = exchange_owned(shared.config.upstream_timeout, upstream, pooled, run);
    if let Some(client) = client {
        pool.insert(upstream.name.clone(), client);
    }
    result
}

/// Re-wraps an upstream reply for the downstream socket, preserving
/// status and body bytes exactly (the bitwise-identity contract) and the
/// replica's `X-Model-Version` stamp — clients observing a rolling model
/// swap through the router see exactly which generation answered.
fn relay(reply: neusight_serve::ClientResponse) -> Response {
    let model_version = reply.header("x-model-version").map(str::to_owned);
    let content_type = reply.header("content-type").unwrap_or("application/json");
    let response = match content_type {
        ct if ct.starts_with("application/json") => Response::json(
            reply.status,
            String::from_utf8_lossy(&reply.body).into_owned(),
        ),
        ct if ct.starts_with("text/plain") => Response::text(
            reply.status,
            String::from_utf8_lossy(&reply.body).into_owned(),
        ),
        _ => Response::octets(reply.status, reply.body),
    };
    match model_version {
        Some(version) => response.with_header("X-Model-Version", version),
        None => response,
    }
}

/// Aggregated fleet health.
fn health(shared: &RouterShared) -> Response {
    let statuses = fleet_status(&shared.fleet);
    let live = statuses.iter().filter(|s| s.healthy).count();
    let status = match live {
        0 => "down",
        n if n == statuses.len() => "ok",
        _ => "degraded",
    };
    let replicas: Vec<String> = statuses
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"addr\":{},\"healthy\":{},\"breaker\":{}}}",
                json_string(&s.name),
                json_string(&s.addr.to_string()),
                s.healthy,
                json_string(breaker_label(s.breaker)),
            )
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let body = format!(
        "{{\"status\":\"{status}\",\"uptime_s\":{:.3},\"live\":{live},\"total\":{},\"rehash_total\":{},\"replicas\":[{}]}}",
        shared.started.elapsed().as_secs_f64(),
        statuses.len(),
        obs::metrics::counter("router.rehash_total").get(),
        replicas.join(","),
    );
    let status_code = if live == 0 { 503 } else { 200 };
    Response::json(status_code, body)
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
fn metrics_page(shared: &RouterShared, pool: &mut HashMap<String, Client>) -> Response {
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
        let Ok(reply) = exchange(shared, upstream, pool, |client| client.get("/metrics")) else {
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

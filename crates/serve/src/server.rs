//! The HTTP server: configuration, routing, admission, and the
//! graceful-drain state machine around the epoll event loop.
//!
//! # Request lifecycle
//!
//! 1. The reactor thread ([`crate::reactor`]) accepts connections
//!    (bounded by `workers`; beyond that, connections get an immediate
//!    503 and close) and reads HTTP/1.1 requests in a keep-alive loop.
//!    Connections that stay silent past `idle_timeout` are reaped. Serve
//!    plugs into the loop as a [`reactor::Service`].
//! 2. `POST /v1/predict` bodies are parsed. A draining server answers
//!    `503`, and a request whose `X-Deadline-Ms` budget is already spent
//!    answers `504`.
//! 3. A response-memo hit is answered right there, on the loop thread:
//!    no queue, no dispatcher, no completion mailbox. The loop does this
//!    only while the predictor breaker is closed, brownout is off, no
//!    reload is shadowing or observing, and no `service_delay` is set;
//!    a caught panic hands the request on to step 4.
//! 4. Everything else is **admitted** to a bounded queue — a full queue
//!    answers `429 Too Many Requests` with `Retry-After` instead of
//!    stalling the socket.
//! 5. The single dispatcher thread drains the queue in micro-batches and
//!    serves each batch with one [`PredictService::predict_batch`] call;
//!    jobs that outlived their deadline in the queue get `504`.
//! 6. On SIGTERM/SIGINT (or [`ServerHandle::shutdown`]) the server stops
//!    accepting, lets in-flight requests finish, drains the queue, and
//!    only then joins its threads and returns.

use crate::dispatch::{self, DispatchConfig, Job};
use crate::http::{self, Response};
use crate::queue::{BoundedQueue, QueueFull};
#[cfg(target_os = "linux")]
use crate::reactor;
use crate::service::{PredictRequest, PredictService};
use crate::signal;
use neusight_core::NeuSight;
use neusight_guard as guard;
use neusight_obs as obs;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server configuration; the CLI's `neusight serve` flags map onto this.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Maximum concurrent connections; beyond it, new connections get an
    /// immediate 503.
    pub workers: usize,
    /// Admission-queue bound; beyond it, predicts get 429.
    pub queue_depth: usize,
    /// Per-request deadline from admission to response.
    pub deadline: Duration,
    /// Most predict requests coalesced into one dispatch.
    pub max_batch: usize,
    /// Optional dispatcher wait for batch formation (default 0: batches
    /// form naturally from what queues during the previous dispatch).
    pub batch_window: Duration,
    /// Keep-alive connections idle past this are reaped.
    pub idle_timeout: Duration,
    /// Test/bench hook: artificial service time per batch.
    pub service_delay: Duration,
    /// Install SIGTERM/SIGINT handlers (the CLI sets this; tests use
    /// [`ServerHandle::shutdown`] instead).
    pub handle_signals: bool,
    /// Predictor circuit-breaker tuning (trip threshold, cooldown,
    /// half-open probes).
    pub breaker: neusight_fault::BreakerConfig,
    /// Registry version tag of the initial model (`None` for bare
    /// weights loaded outside the registry).
    pub model_version: Option<String>,
    /// Versioned model registry directory backing `POST /v1/admin/reload`
    /// and SIGHUP reloads; `None` disables registry reloads (explicit
    /// `path` reloads still work).
    pub models_dir: Option<std::path::PathBuf>,
    /// Reload-gate tuning (canary slack, shadow budget, observation
    /// window).
    pub lifecycle: crate::lifecycle::LifecycleConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 32,
            queue_depth: 256,
            deadline: Duration::from_millis(1000),
            max_batch: 64,
            batch_window: Duration::ZERO,
            idle_timeout: Duration::from_secs(5),
            service_delay: Duration::ZERO,
            handle_signals: false,
            breaker: neusight_fault::BreakerConfig::default(),
            model_version: None,
            models_dir: None,
            lifecycle: crate::lifecycle::LifecycleConfig::default(),
        }
    }
}

/// Hot-path HTTP metric handles, resolved once at bind. (The reactor
/// owns the connection gauge and the request-latency histogram.)
pub(crate) struct HttpMetrics {
    pub(crate) requests: Arc<obs::Counter>,
    pub(crate) rejected_429: Arc<obs::Counter>,
    pub(crate) timeouts: Arc<obs::Counter>,
    pub(crate) expired_on_arrival: Arc<obs::Counter>,
    pub(crate) queue_depth: Arc<obs::Gauge>,
    pub(crate) inflight: Arc<obs::Gauge>,
    /// `serve.batch.size`, shared with the dispatcher: a memo hit answered
    /// on the loop thread records a batch of one.
    pub(crate) batch_size: Arc<obs::Histogram>,
}

impl HttpMetrics {
    fn new() -> HttpMetrics {
        HttpMetrics {
            requests: obs::metrics::counter("serve.http.requests"),
            rejected_429: obs::metrics::counter("serve.http.429"),
            timeouts: obs::metrics::counter("serve.http.timeout"),
            expired_on_arrival: obs::metrics::counter("serve.deadline.expired_on_arrival"),
            queue_depth: obs::metrics::gauge("serve.queue.depth"),
            inflight: obs::metrics::gauge("serve.requests.inflight"),
            batch_size: obs::metrics::histogram("serve.batch.size"),
        }
    }
}

/// State shared by the reactor and the dispatcher.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) service: PredictService,
    pub(crate) queue: BoundedQueue<Job>,
    /// Stop admitting new work; in-flight requests still complete.
    pub(crate) draining: AtomicBool,
    /// Predict jobs admitted to the queue and not yet answered.
    pub(crate) inflight: AtomicUsize,
    /// CoDel-style congestion signal from the dispatcher: the *minimum*
    /// queue sojourn (ms) across the most recent batch — nonzero only
    /// while a standing queue exists. Drives the honest `Retry-After`
    /// and the router's shed controller via `/healthz`.
    pub(crate) sojourn_ms: AtomicU64,
    pub(crate) started: Instant,
    pub(crate) metrics: HttpMetrics,
}

impl Shared {
    pub(crate) fn stop_requested(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::signaled()
    }

    /// Counts a predict admission (atomic truth plus the exported gauge).
    pub(crate) fn inflight_add(&self) {
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        #[allow(clippy::cast_precision_loss)]
        self.metrics.inflight.set(now as f64);
    }

    /// Counts a predict completion (answered, timed out, or abandoned).
    pub(crate) fn inflight_sub(&self) {
        let now = self
            .inflight
            .fetch_sub(1, Ordering::SeqCst)
            .saturating_sub(1);
        #[allow(clippy::cast_precision_loss)]
        self.metrics.inflight.set(now as f64);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Clonable shutdown/introspection handle.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins a graceful drain: stop accepting, finish in-flight work,
    /// then exit [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain is underway.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.stop_requested()
    }
}

impl Server {
    /// Binds the listener and prepares the shared state.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: ServeConfig, ns: NeuSight) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let queue = BoundedQueue::new(config.queue_depth);
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                service: PredictService::with_version(
                    config
                        .model_version
                        .clone()
                        .unwrap_or_else(|| crate::service::UNVERSIONED.to_owned()),
                    ns,
                    config.breaker,
                    config.lifecycle.clone(),
                ),
                queue,
                draining: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
                sojourn_ms: AtomicU64::new(0),
                started: Instant::now(),
                metrics: HttpMetrics::new(),
                config,
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A shutdown handle usable from other threads.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Direct access to the service (e.g. cache-capacity control).
    #[must_use]
    pub fn service(&self) -> &PredictService {
        &self.shared.service
    }

    /// Runs the epoll event loop until shutdown, then drains and joins
    /// the dispatcher. Returns only after the drain completes.
    ///
    /// # Errors
    ///
    /// Propagates listener and event-loop failures; on a non-Linux
    /// platform reports [`io::ErrorKind::Unsupported`].
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener, shared, ..
        } = self;
        if shared.config.handle_signals {
            signal::install();
        }

        let dispatcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let config = DispatchConfig {
                    max_batch: shared.config.max_batch.max(1),
                    batch_window: shared.config.batch_window,
                    service_delay: shared.config.service_delay,
                };
                // The dispatcher is the server's single point of failure:
                // if this thread dies, /healthz still answers while every
                // predict hangs until its deadline. Supervise it — a
                // normal return is a completed drain, a panic (bug or
                // injected chaos) gets a bounded number of restarts.
                let supervisor = guard::Supervisor::new("serve.dispatcher", 16);
                supervisor.supervise(|| {
                    dispatch::run(&shared.service, &shared.queue, &config, &shared.sojourn_ms);
                });
            })
        };

        #[cfg(target_os = "linux")]
        let result = {
            let limits = reactor::Limits {
                name: "serve",
                max_connections: shared.config.workers,
                idle_timeout: shared.config.idle_timeout,
            };
            reactor::run(&mut Front { shared: &shared }, &listener, &limits)
        };
        #[cfg(not(target_os = "linux"))]
        let result = Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "neusight-serve requires Linux epoll",
        ));

        // The event loop returns with its connections finished; closing
        // the queue wakes the dispatcher, which drains whatever is still
        // queued and stops.
        shared.draining.store(true, Ordering::SeqCst);
        shared.queue.close();
        let _ = dispatcher.join();
        result
    }

    /// Binds and runs on a background thread — the test/bench entry
    /// point.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(config: ServeConfig, ns: NeuSight) -> io::Result<RunningServer> {
        let server = Server::bind(config, ns)?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = thread::spawn(move || server.run());
        Ok(RunningServer {
            addr,
            handle,
            thread,
        })
    }
}

/// A server running on a background thread.
pub struct RunningServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown handle.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Triggers a graceful drain and waits for the server to exit.
    ///
    /// # Errors
    ///
    /// Propagates the run loop's I/O errors; a panicked server thread is
    /// reported as an I/O error rather than cascading the panic into the
    /// caller.
    pub fn shutdown_and_join(self) -> io::Result<()> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Serve's side of the reactor: routing, memo hits, admission, and
/// dispatcher completions.
#[cfg(target_os = "linux")]
struct Front<'a> {
    shared: &'a Shared,
}

#[cfg(target_os = "linux")]
impl reactor::Service for Front<'_> {
    /// An admitted predict owns nothing beyond its ticket.
    type Pending = ();
    type Completion = dispatch::Completed;

    fn stop_requested(&self) -> bool {
        self.shared.stop_requested()
    }

    fn on_turn(&mut self) {
        maybe_dump_on_signal();
        maybe_reload_on_signal(self.shared);
    }

    fn request(
        &mut self,
        io: &mut reactor::Io<dispatch::Completed>,
        ticket: u64,
        request: &reactor::Request<'_>,
        trace: &mut obs::TraceContext,
    ) -> reactor::Step<()> {
        use reactor::Step::{Respond, Wait};
        let shared = self.shared;
        shared.metrics.requests.inc();
        if (request.method, request.path) != ("POST", "/v1/predict") {
            return Respond(route(shared, request.method, request.path, request.body));
        }
        let parsed = match parse_predict_body(request.body) {
            Ok(_) if shared.stop_requested() => {
                return Respond(Response::error(503, "server is draining"))
            }
            Ok(parsed) => parsed,
            Err(response) => return Respond(response),
        };
        // The client's propagated X-Deadline-Ms caps the configured
        // deadline, and an already-expired budget answers 504 without
        // burning a dispatcher slot.
        let budget_ms =
            crate::deadline::effective_budget_ms(shared.config.deadline, request.deadline_ms);
        if budget_ms == 0 {
            shared.metrics.timeouts.inc();
            shared.metrics.expired_on_arrival.inc();
            return Respond(Response::error(504, "deadline exceeded"));
        }
        if let Some(response) = answer_memo_hit(shared, &parsed, trace) {
            return Respond(response);
        }
        let deadline = Instant::now() + Duration::from_millis(budget_ms);
        let reply = dispatch::Reply {
            token: ticket,
            completions: Arc::clone(io.completions()),
        };
        match admit(shared, parsed, deadline, reply, *trace) {
            Ok(()) => {
                // The dispatcher's own 504 gets 250 ms to arrive before
                // the reactor times out.
                io.schedule(ticket, deadline + Duration::from_millis(250), 0);
                Wait(())
            }
            Err(rejection) => Respond(rejection),
        }
    }

    fn event(
        &mut self,
        _io: &mut reactor::Io<dispatch::Completed>,
        _ticket: u64,
        _pending: &mut (),
        event: reactor::Event<dispatch::Completed>,
        trace: &mut obs::TraceContext,
    ) -> Option<Response> {
        // Answered or timed out, the admitted request has left flight.
        self.shared.inflight_sub();
        Some(match event {
            reactor::Event::Completion(completed) => {
                // The dispatcher's copy carries the queue, batch, and
                // predict stamps.
                *trace = completed.trace;
                predict_response(completed.result, &completed.model)
            }
            // Serve starts no upstream exchanges: any other event is the
            // deadline timer beating the dispatcher. Its trace copy (the
            // loop's) records the timeout.
            _ => {
                self.shared.metrics.timeouts.inc();
                Response::error(504, "deadline exceeded")
            }
        })
    }

    fn cancel(&mut self, _io: &mut reactor::Io<dispatch::Completed>, (): ()) {
        // Orphan the job: its completion (the prediction is memoized
        // regardless) and its deadline timer both become no-ops.
        self.shared.inflight_sub();
    }

    fn finish_trace(&self, trace: obs::TraceContext) {
        trace.finish();
    }
}

/// Answers a response-memo hit on the loop thread, or returns `None` to
/// send the request through the dispatcher.
///
/// `service_delay` is a test/bench hook that slows every predict, warm
/// ones included, so a slowed server keeps every request on the
/// dispatcher. The lookup runs under panic supervision with the
/// `guard.panic` failpoint inside, like the dispatcher's batches: a
/// caught panic hands the request to the dispatcher, whose own
/// catch-and-retry then serves it.
#[cfg(target_os = "linux")]
fn answer_memo_hit(
    shared: &Shared,
    request: &PredictRequest,
    trace: &mut obs::TraceContext,
) -> Option<Response> {
    if !shared.config.service_delay.is_zero() {
        return None;
    }
    let (body, model) = guard::catch("serve.memo_hit", || {
        guard::inject_panic();
        shared.service.memo_answer(request)
    })
    .ok()??;
    // Queue and batch-wait stay unstamped: they take zero time here.
    trace.stamp(obs::Stage::Predict);
    shared.metrics.batch_size.record(1);
    Some(predict_response(Ok(body), &model))
}

/// Renders a predict answer. A body is labelled with the version of the
/// generation that computed it, not whichever one serves by the time the
/// answer is rendered.
#[cfg(target_os = "linux")]
pub(crate) fn predict_response(
    result: dispatch::ReplyResult,
    model: &crate::model::ModelEpoch,
) -> Response {
    match result {
        Ok(body) => Response::json(200, body.to_string())
            .with_header("X-Model-Version", model.version().to_owned()),
        Err(e) => Response::error(e.status, &e.message),
    }
}

/// Dumps the flight recorder to [`obs::trace::dump_path`] if SIGUSR1
/// arrived since the last poll. Called from the event loop.
fn maybe_dump_on_signal() {
    if !signal::take_usr1() {
        return;
    }
    let path = obs::trace::dump_path();
    match obs::trace::dump_to_file(&path) {
        Ok(()) => eprintln!(
            "neusight-serve: flight recorder dumped to {}",
            path.display()
        ),
        Err(e) => eprintln!("neusight-serve: flight recorder dump failed: {e}"),
    }
}

/// Stages a reload of the latest registry version if SIGHUP arrived
/// since the last poll. Called from the event loop; the gate itself
/// (golden sanity + canary) is a few milliseconds of CPU, cheap enough
/// for one loop turn.
fn maybe_reload_on_signal(shared: &Shared) {
    if !signal::take_hup() {
        return;
    }
    let outcome = shared.service.reload(
        shared.config.models_dir.as_deref(),
        &crate::lifecycle::ReloadRequest::default(),
    );
    eprintln!(
        "neusight-serve: SIGHUP reload -> {} {}",
        outcome.status, outcome.body
    );
}

/// Answers every route except an admissible predict.
fn route(shared: &Shared, method: &str, path: &str, body: &[u8]) -> Response {
    const ROUTES: [&str; 11] = [
        "/healthz",
        "/metrics",
        "/v1/models",
        "/v1/gpus",
        "/v1/predict",
        "/v1/debug/traces",
        "/v1/cache/export",
        "/v1/cache/import",
        "/v1/control/brownout",
        "/v1/admin/reload",
        "/v1/admin/model",
    ];
    let service = &shared.service;
    match (method, path) {
        ("GET", "/healthz") => health(shared),
        ("GET", "/metrics") => metrics_page(shared),
        ("GET", "/v1/models") => Response::json(200, service.models_json()),
        ("GET", "/v1/gpus") => Response::json(200, service.gpus_json()),
        ("GET", "/v1/debug/traces") => Response::json(200, obs::trace::dump_json()),
        ("GET", "/v1/cache/export") => Response::octets(
            200,
            service.export_cache(crate::service::MAX_GOSSIP_ENTRIES),
        ),
        ("POST", "/v1/cache/import") => match service.import_cache(body) {
            Ok(imported) => Response::json(200, format!("{{\"imported\":{imported}}}")),
            Err(e) => Response::error(e.status, &e.message),
        },
        ("POST", "/v1/control/brownout") => brownout(shared, body),
        ("POST", "/v1/admin/reload") => reload(shared, body),
        ("GET", "/v1/admin/model") => Response::json(200, service.model_status_json()),
        (_, path) if ROUTES.contains(&path) => {
            let allow = match path {
                "/v1/predict"
                | "/v1/cache/import"
                | "/v1/control/brownout"
                | "/v1/admin/reload" => "POST",
                _ => "GET",
            };
            Response::error(405, &format!("use {allow} for {path}"))
                .with_header("Allow", allow.to_owned())
        }
        _ => Response::error(404, "no such route"),
    }
}

/// `POST /v1/control/brownout`: flips the replica's forced-degraded
/// (roofline-only) tier — the router's brownout lever before hard
/// shedding. Body: `{"on":true}` / `{"on":false}`.
fn brownout(shared: &Shared, body: &[u8]) -> Response {
    #[derive(serde::Deserialize)]
    struct BrownoutRequest {
        on: bool,
    }
    let Ok(body) = std::str::from_utf8(body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let Ok(parsed) = serde_json::from_str::<BrownoutRequest>(body) else {
        return Response::error(400, "expected {\"on\":true|false}");
    };
    shared.service.set_forced_degraded(parsed.on);
    Response::json(200, format!("{{\"brownout\":{}}}", parsed.on))
}

/// `POST /v1/admin/reload`: stages a candidate model through the
/// lifecycle gate (see [`crate::lifecycle`]). An empty body reloads the
/// latest registry version with default settings.
fn reload(shared: &Shared, body: &[u8]) -> Response {
    let parsed = if body.iter().all(u8::is_ascii_whitespace) {
        crate::lifecycle::ReloadRequest::default()
    } else {
        let Ok(body) = std::str::from_utf8(body) else {
            return Response::error(400, "body is not UTF-8");
        };
        match serde_json::from_str(body) {
            Ok(parsed) => parsed,
            Err(e) => return Response::error(400, &format!("bad reload request: {e}")),
        }
    };
    let outcome = shared
        .service
        .reload(shared.config.models_dir.as_deref(), &parsed);
    Response::json(outcome.status, outcome.body)
}

/// Parses and UTF-8-checks a predict body.
fn parse_predict_body(body: &[u8]) -> Result<PredictRequest, Response> {
    let body = match std::str::from_utf8(body) {
        Ok(body) => body,
        Err(_) => return Err(Response::error(400, "body is not UTF-8")),
    };
    serde_json::from_str(body)
        .map_err(|e| Response::error(400, &format!("bad predict request: {e}")))
}

/// Admits a parsed predict request to the dispatcher queue. On a full
/// queue, returns the 429 (with `Retry-After`) to send instead.
fn admit(
    shared: &Shared,
    request: PredictRequest,
    deadline: Instant,
    reply: dispatch::Reply,
    trace: obs::TraceContext,
) -> Result<(), Response> {
    let job = Job {
        request,
        enqueued: Instant::now(),
        deadline,
        reply,
        trace,
    };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared.inflight_add();
            #[allow(clippy::cast_precision_loss)]
            shared.metrics.queue_depth.set(depth as f64);
            Ok(())
        }
        Err(QueueFull(_rejected)) => {
            shared.metrics.rejected_429.inc();
            Err(Response::error(429, "prediction queue is full")
                .with_header("Retry-After", retry_after_secs(shared).to_string()))
        }
    }
}

/// Honest backpressure hint for `Retry-After`: derived from the live
/// queue-sojourn signal (roughly "one backlog drain, doubled for
/// margin") rather than a constant, so clients back off proportionally
/// to real pressure. Falls back to the configured deadline when the
/// dispatcher has not yet observed a standing queue.
pub(crate) fn retry_after_secs(shared: &Shared) -> u64 {
    let sojourn_ms = shared.sojourn_ms.load(Ordering::Relaxed);
    if sojourn_ms == 0 {
        return shared.config.deadline.as_secs().max(1);
    }
    (sojourn_ms * 2).div_ceil(1000).clamp(1, 30)
}

/// `GET /healthz`: liveness plus drain state, queue depth, and the
/// predictor breaker's state (a breaker that is not `closed` means new
/// predictions are served degraded).
fn health(shared: &Shared) -> Response {
    let status = if shared.stop_requested() {
        "draining"
    } else {
        "ok"
    };
    let breaker = match shared.service.breaker_state() {
        neusight_fault::BreakerState::Closed => "closed",
        neusight_fault::BreakerState::HalfOpen => "half-open",
        neusight_fault::BreakerState::Open => "open",
    };
    Response::json(
        200,
        format!(
            "{{\"status\":\"{status}\",\"uptime_s\":{:.3},\"inflight\":{},\"queue_depth\":{},\"queue_capacity\":{},\"breaker\":\"{breaker}\",\"sojourn_ms\":{},\"brownout\":{},\"model_version\":{},\"model_epoch\":{},\"lifecycle\":\"{}\"}}",
            shared.started.elapsed().as_secs_f64(),
            shared.inflight.load(Ordering::SeqCst),
            shared.queue.len(),
            shared.queue.capacity(),
            shared.sojourn_ms.load(Ordering::Relaxed),
            shared.service.forced_degraded(),
            http::json_string(&shared.service.model_version()),
            shared.service.model_epoch(),
            shared.service.lifecycle.state_name(),
        ),
    )
}

/// `GET /metrics`: the whole obs registry in Prometheus text exposition,
/// plus a `neusight_serve_info` sample whose labels exercise the
/// exporter's label escaping (the bind address is operator input).
fn metrics_page(shared: &Shared) -> Response {
    let mut text = obs::export::prometheus(&obs::metrics::snapshot());
    text.push_str(&obs::trace::slowest_prometheus());
    text.push_str("# TYPE neusight_serve_info gauge\n");
    text.push_str(&format!(
        "neusight_serve_info{{addr=\"{}\",version=\"{}\"}} 1\n",
        obs::export::escape_label_value(&shared.config.addr),
        obs::export::escape_label_value(env!("CARGO_PKG_VERSION")),
    ));
    text.push_str("# TYPE neusight_model_info gauge\n");
    text.push_str(&format!(
        "neusight_model_info{{version=\"{}\",epoch=\"{}\"}} 1\n",
        obs::export::escape_label_value(&shared.service.model_version()),
        shared.service.model_epoch(),
    ));
    Response::text(200, text)
}

//! The router's request path on serve's epoll reactor: the route table,
//! and forwarding as non-blocking upstream exchanges (DESIGN.md §9).
//!
//! Each attempt sends one exchange to the ring owner and arms one timer:
//! the hedge delay when the attempt may hedge, else the upstream timeout.
//! A hedge is a second in-flight exchange to the next ring owner; the
//! first good answer wins and the loser's socket is closed. A failed
//! attempt drains the responder and fails over. The operator fan-outs
//! (`/metrics`, `/v1/admin/*`) keep their blocking code in `proxy.rs`
//! and run on short-lived threads that answer through the mailbox.

#![cfg(target_os = "linux")]

use crate::proxy::{self, RouterShared};
use crate::ring::RouteKey;
use crate::upstream::Upstream;
use neusight_obs as obs;
use neusight_serve::client::{render_request, render_request_with};
use neusight_serve::deadline::{effective_budget_ms, shrink_ms};
use neusight_serve::http::{push_decimal, Response};
use neusight_serve::reactor::{self, Event, Io, Request, Service, Step, TimerId};
use neusight_serve::PredictRequest;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Serves the front door until a drain completes.
pub(crate) fn run(shared: &Arc<RouterShared>, listener: &TcpListener) -> io::Result<()> {
    let limits = reactor::Limits {
        name: "router",
        // The cap and the client idle timeout are constants: nothing
        // tunes them.
        max_connections: 256,
        idle_timeout: Duration::from_secs(30),
    };
    let mut front = Front {
        shared: Arc::clone(shared),
        fan_outs: Vec::new(),
    };
    let result = reactor::run(&mut front, listener, &limits);
    // A fan-out whose client left runs on after the drain; wait for it.
    for fan_out in front.fan_outs {
        let _ = fan_out.join();
    }
    result
}

/// The router's side of the reactor.
struct Front {
    shared: Arc<RouterShared>,
    /// Operator fan-out threads not yet reaped.
    fan_outs: Vec<thread::JoinHandle<()>>,
}

/// One upstream copy of a request in flight.
struct Leg {
    exchange: u64,
    upstream: Arc<Upstream>,
    is_hedge: bool,
}

/// An attempt's outcome, the replica that gave it, and whether it came
/// from the hedge copy.
type Verdict = (io::Result<Response>, Arc<Upstream>, bool);

/// What a ring-routed predict carries between attempts. The request id
/// is the request's trace, which every event hands back.
struct Predict {
    key: RouteKey,
    body: Vec<u8>,
    arrival: Instant,
    budget_ms: u64,
    /// Budget left when the current attempt started.
    remaining_ms: u64,
}

/// A forwarded request between its first attempt and its answer.
struct Forward {
    /// `None` for a shard-agnostic GET, which goes to any live replica
    /// without hedging, budgets, or breaker admission.
    predict: Option<Predict>,
    path: &'static str,
    attempt: usize,
    attempts: usize,
    /// Exchanges in flight: the primary, and its hedge once fired.
    legs: Vec<Leg>,
    /// A hedged pair's failed first answer, kept while the other copy
    /// still runs.
    held: Option<Verdict>,
    /// The hedge target while the hedge-delay timer is armed.
    hedge: Option<Arc<Upstream>>,
    wait_started: Instant,
    /// Tag of the one live timer; bumping it disarms older timers.
    timer: u64,
    /// The live timer, taken out of the wheel once it is superseded or
    /// the forward settles.
    armed: Option<TimerId>,
}

impl Forward {
    fn new(predict: Option<Predict>, path: &'static str, attempts: usize) -> Forward {
        Forward {
            predict,
            path,
            attempt: 0,
            attempts: attempts.max(1),
            legs: Vec::new(),
            held: None,
            hedge: None,
            wait_started: Instant::now(),
            timer: 0,
            armed: None,
        }
    }

    /// Sends this request to `upstream` as one more leg, rendered straight
    /// into the upstream socket's write buffer.
    fn send(
        &mut self,
        io: &mut Io<Response>,
        ticket: u64,
        upstream: Arc<Upstream>,
        is_hedge: bool,
        trace: &obs::TraceContext,
    ) {
        let (addr, path) = (upstream.addr(), self.path);
        let exchange = io.exchange(ticket, addr, |out| match &self.predict {
            Some(p) => {
                let body = Some(("application/json", p.body.as_slice()));
                render_request_with(out, "POST", path, addr, body, |out| {
                    out.extend_from_slice(b"X-Request-Id: ");
                    trace.write_id(out);
                    out.extend_from_slice(b"\r\nX-Deadline-Ms: ");
                    push_decimal(out, p.remaining_ms);
                    out.extend_from_slice(b"\r\n");
                });
            }
            None => render_request(out, "GET", path, addr, None, &[]),
        });
        self.legs.push(Leg {
            exchange,
            upstream,
            is_hedge,
        });
    }

    /// Re-arms the one live timer.
    fn arm(&mut self, io: &mut Io<Response>, ticket: u64, after: Duration) {
        self.disarm(io);
        self.armed = Some(io.schedule(ticket, Instant::now() + after, self.timer));
    }

    /// Takes the live timer out of the wheel; its tag no longer matches,
    /// should it already have fired this turn.
    fn disarm(&mut self, io: &mut Io<Response>) {
        if let Some(timer) = self.armed.take() {
            io.cancel(timer);
        }
        self.timer += 1;
    }

    /// How long a hedged pair waits once the hedge delay has passed: the
    /// remaining budget (plus render slack), never longer than the
    /// upstream timeout.
    fn pair_window(&self, timeout: Duration) -> Duration {
        let remaining = self.predict.as_ref().map_or(0, |p| p.remaining_ms);
        Duration::from_millis(remaining)
            .min(timeout)
            .saturating_add(Duration::from_millis(250))
    }
}

fn is_good(result: &io::Result<Response>) -> bool {
    matches!(result, Ok(reply) if reply.status < 500)
}

impl Front {
    /// `POST /v1/predict`: hash the (GPU, op-family) key, forward to the
    /// shard owner, and fail over — draining the replica out of the ring
    /// — on upstream failure. A request is answered 5xx only when *no*
    /// live replica remains, the retry budget runs dry, or the shed
    /// controller rejects it up front. The client's `X-Deadline-Ms`
    /// (capped by the router's own hop deadline) bounds the whole
    /// forward; an expired budget answers 504 without an exchange.
    fn forward_predict(
        &self,
        io: &mut Io<Response>,
        ticket: u64,
        request: &Request<'_>,
        trace: &obs::TraceContext,
    ) -> Step<Option<Forward>> {
        let shared = &*self.shared;
        let arrival = Instant::now();
        if let Some(shed) = shed_check(shared) {
            return Step::Respond(shed);
        }
        let key = match route_key(request.body) {
            Ok(key) => key,
            Err(rejection) => return Step::Respond(rejection),
        };
        let budget_ms = effective_budget_ms(shared.config.upstream_timeout, request.deadline_ms);
        if budget_ms == 0 {
            shared.metrics.deadline_expired.inc();
            return Step::Respond(Response::error(504, "deadline exceeded"));
        }
        shared.hedger.on_request();
        let predict = Predict {
            key,
            body: request.body.to_vec(),
            arrival,
            budget_ms,
            remaining_ms: budget_ms,
        };
        let forward = Forward::new(Some(predict), "/v1/predict", shared.fleet.upstreams().len());
        self.start(io, ticket, forward, trace)
    }

    fn start(
        &self,
        io: &mut Io<Response>,
        ticket: u64,
        mut forward: Forward,
        trace: &obs::TraceContext,
    ) -> Step<Option<Forward>> {
        match self.attempt(io, ticket, &mut forward, trace) {
            Some(response) => Step::Respond(response),
            None => Step::Wait(Some(forward)),
        }
    }

    /// Starts the next attempt, or answers when no attempt can start.
    /// Each failed attempt drains its owner, so the ring shrinks
    /// monotonically within one request and this terminates.
    fn attempt(
        &self,
        io: &mut Io<Response>,
        ticket: u64,
        f: &mut Forward,
        trace: &obs::TraceContext,
    ) -> Option<Response> {
        let _span = obs::span!("router.route", path = f.path, attempt = f.attempt);
        let (shared, metrics) = (&*self.shared, &self.shared.metrics);
        while f.attempt < f.attempts {
            let owner = match &f.predict {
                Some(p) => shared.fleet.route(&p.key),
                None => shared.fleet.any_live(),
            };
            let Some(upstream) = owner else {
                break;
            };
            let mut wait = shared.config.upstream_timeout;
            if let Some(p) = &mut f.predict {
                if !upstream.breaker.allow() {
                    // Open breaker: treat like a failed attempt without
                    // an exchange — drain and re-route.
                    metrics.breaker_short_circuit.inc();
                    shared.fleet.mark_down(&upstream.name);
                    f.attempt += 1;
                    continue;
                }
                p.remaining_ms = shrink_ms(p.budget_ms, p.arrival.elapsed());
                if p.remaining_ms == 0 {
                    metrics.deadline_expired.inc();
                    return Some(Response::error(504, "deadline exceeded"));
                }
                let routed = p.arrival.elapsed().as_secs_f64();
                metrics.route_ns.record_secs(routed);
                // Hedge only the first attempt: a failover retry is
                // already a second copy of the work.
                let delay = (f.attempt == 0).then(|| shared.hedger.hedge_delay());
                if let Some(delay) = delay.flatten() {
                    f.hedge = shared.fleet.route_successor(&p.key);
                    if f.hedge.is_some() {
                        wait = delay;
                    }
                }
            }
            f.wait_started = Instant::now();
            f.send(io, ticket, upstream, false, trace);
            f.arm(io, ticket, wait);
            return None;
        }
        if f.predict.is_some() {
            metrics.no_live_upstream.inc();
        }
        Some(Response::error(503, "no live upstream replica"))
    }

    /// Advances a forward on a finished leg or its live timer. The first
    /// good answer wins; a failed one is held while a hedged pair's other
    /// copy still runs; the hedge-delay timer fires the duplicate; an
    /// expired wait fails the attempt, blaming the primary.
    fn on_event(
        &self,
        io: &mut Io<Response>,
        ticket: u64,
        f: &mut Forward,
        event: Event<Response>,
        trace: &obs::TraceContext,
    ) -> Option<Response> {
        let timeout = self.shared.config.upstream_timeout;
        match event {
            Event::Upstream { exchange, result } => {
                let index = f.legs.iter().position(|leg| leg.exchange == exchange)?;
                let leg = f.legs.remove(index);
                let verdict = (result, leg.upstream, leg.is_hedge);
                if is_good(&verdict.0) {
                    return self.settle(io, ticket, f, verdict, trace);
                }
                f.held.get_or_insert(verdict);
                if !f.legs.is_empty() {
                    f.arm(io, ticket, f.pair_window(timeout));
                    return None;
                }
            }
            Event::Timer(tag) if tag == f.timer => {
                if let Some(target) = f.hedge.take() {
                    if self.shared.hedger.try_spend("hedge") {
                        self.shared.metrics.hedge_fired.inc();
                        f.send(io, ticket, target, true, trace);
                    }
                    f.arm(io, ticket, f.pair_window(timeout));
                    return None;
                }
                if f.held.is_none() {
                    let primary = f.legs.iter().find(|leg| !leg.is_hedge).or(f.legs.first())?;
                    let timed_out =
                        io::Error::new(io::ErrorKind::TimedOut, "upstream wait expired");
                    f.held = Some((Err(timed_out), Arc::clone(&primary.upstream), false));
                }
            }
            _ => return None,
        }
        let verdict = f.held.take()?;
        self.settle(io, ticket, f, verdict, trace)
    }

    /// Ends the attempt on `verdict`: relays a good answer, or accounts
    /// the failure, drains the responder, and fails over.
    fn settle(
        &self,
        io: &mut Io<Response>,
        ticket: u64,
        f: &mut Forward,
        (result, responder, is_hedge): Verdict,
        trace: &obs::TraceContext,
    ) -> Option<Response> {
        let (shared, metrics) = (&*self.shared, &self.shared.metrics);
        // Losers are closed, never pooled: their sockets still have a
        // response in flight.
        for leg in f.legs.drain(..) {
            io.abort(leg.exchange);
        }
        (f.held, f.hedge) = (None, None);
        f.disarm(io);
        let good = is_good(&result);
        if is_hedge && good {
            metrics.hedge_won.inc();
        }
        let Some(p) = &f.predict else {
            if let (Ok(reply), true) = (result, good) {
                return Some(relay(reply));
            }
            responder.breaker.record_failure();
            shared.fleet.mark_down(&responder.name);
            f.attempt += 1;
            return self.attempt(io, ticket, f, trace);
        };
        match result {
            Ok(reply) if good => {
                responder.breaker.record_success();
                let waited = f.wait_started.elapsed().as_secs_f64();
                metrics.upstream_wait_ns.record_secs(waited);
                if f.attempt > 0 {
                    metrics.failovers.inc();
                }
                return Some(relay(reply));
            }
            // Upstream 5xx: predict is idempotent, so fail over.
            Ok(_) => metrics.status_5xx.inc(),
            Err(_) => metrics.errors.inc(),
        }
        responder.breaker.record_failure();
        shared.fleet.mark_down(&responder.name);
        // A failover retry is extra upstream load; it spends from the
        // same token budget as hedges (the gRPC retry-throttle shape), so
        // a mass failure cannot turn into a retry storm.
        if f.attempt + 1 < f.attempts
            && shared.fleet.route(&p.key).is_some()
            && !shared.hedger.try_spend("retry")
        {
            metrics.retry_budget_exhausted.inc();
            let exhausted = Response::error(503, "retry budget exhausted");
            return Some(exhausted.with_header("Retry-After", "1".to_owned()));
        }
        metrics.retries.inc();
        f.attempt += 1;
        self.attempt(io, ticket, f, trace)
    }

    /// Runs a blocking operator fan-out on a short-lived thread that
    /// answers through the loop's mailbox.
    fn fan_out(
        &mut self,
        io: &Io<Response>,
        ticket: u64,
        job: impl FnOnce(&RouterShared) -> Response + Send + 'static,
    ) -> Step<Option<Forward>> {
        let shared = Arc::clone(&self.shared);
        let completions = Arc::clone(io.completions());
        self.fan_outs.retain(|fan_out| !fan_out.is_finished());
        self.fan_outs.push(thread::spawn(move || {
            let response =
                neusight_guard::catch("router.fan_out", || job(&shared)).unwrap_or_else(|_| {
                    obs::metrics::counter("router.connection.panics").inc();
                    Response::error(500, "operator fan-out panicked")
                });
            completions.push(ticket, response);
        }));
        Step::Wait(None)
    }
}

impl Service for Front {
    /// `None` for an operator fan-out, whose answer arrives through the
    /// mailbox.
    type Pending = Option<Forward>;
    type Completion = Response;

    fn stop_requested(&self) -> bool {
        self.shared.stop_requested()
    }

    fn on_drain(&mut self) {
        self.shared.halt();
    }

    fn request(
        &mut self,
        io: &mut Io<Response>,
        ticket: u64,
        request: &Request<'_>,
        trace: &mut obs::TraceContext,
    ) -> Step<Option<Forward>> {
        const ROUTES: [&str; 7] = [
            "/healthz",
            "/metrics",
            "/v1/models",
            "/v1/gpus",
            "/v1/predict",
            "/v1/admin/reload",
            "/v1/admin/model",
        ];
        self.shared.metrics.requests.inc();
        let attempts = self.shared.fleet.upstreams().len();
        match (request.method, request.path) {
            ("POST", "/v1/predict") => self.forward_predict(io, ticket, request, trace),
            ("GET", "/healthz") => {
                Step::Respond(proxy::health(&self.shared, io.waiting(), io.exchanges()))
            }
            ("GET", "/metrics") => self.fan_out(io, ticket, proxy::metrics_page),
            ("GET", "/v1/admin/model") => self.fan_out(io, ticket, proxy::model_status),
            ("POST", "/v1/admin/reload") => {
                let body = request.body.to_vec();
                self.fan_out(io, ticket, move |shared| {
                    proxy::rolling_reload(shared, &body)
                })
            }
            ("GET", "/v1/models") => self.start(
                io,
                ticket,
                Forward::new(None, "/v1/models", attempts),
                trace,
            ),
            ("GET", "/v1/gpus") => {
                self.start(io, ticket, Forward::new(None, "/v1/gpus", attempts), trace)
            }
            (_, path) if ROUTES.contains(&path) => {
                let allow = match path {
                    "/v1/predict" | "/v1/admin/reload" => "POST",
                    _ => "GET",
                };
                Step::Respond(
                    Response::error(405, &format!("use {allow} for {path}"))
                        .with_header("Allow", allow.to_owned()),
                )
            }
            _ => Step::Respond(Response::error(404, "no such route")),
        }
    }

    fn event(
        &mut self,
        io: &mut Io<Response>,
        ticket: u64,
        pending: &mut Option<Forward>,
        event: Event<Response>,
        trace: &mut obs::TraceContext,
    ) -> Option<Response> {
        match (pending, event) {
            (_, Event::Completion(response)) => Some(response),
            (Some(f), event) => self.on_event(io, ticket, f, event, trace),
            (None, _) => None,
        }
    }

    fn cancel(&mut self, io: &mut Io<Response>, pending: Option<Forward>) {
        if let Some(mut f) = pending {
            f.disarm(io);
            for leg in f.legs {
                io.abort(leg.exchange);
            }
        }
    }
}

/// The hard tier of adaptive shedding: when the worst live-replica
/// sojourn exceeds 2× the target, answer 503 *at the router* with an
/// honest `Retry-After` derived from the observed sojourn, instead of
/// queueing the request behind a standing queue.
fn shed_check(shared: &RouterShared) -> Option<Response> {
    let target = shared.config.shed_target_ms?;
    let worst = proxy::worst_sojourn(&shared.fleet);
    if worst < target.saturating_mul(2) {
        return None;
    }
    shared.metrics.shed.inc();
    let retry_after = worst.saturating_mul(2).div_ceil(1000).clamp(1, 30);
    Some(
        Response::error(503, "overloaded: queue sojourn above shed target")
            .with_header("Retry-After", retry_after.to_string()),
    )
}

/// The ring key of a predict body: read in place from the flat form
/// clients send, else from the full parse, which also words the 400 for
/// a body that does not parse.
fn route_key(body: &[u8]) -> Result<RouteKey, Response> {
    let Ok(body) = std::str::from_utf8(body) else {
        return Err(Response::error(400, "body is not UTF-8"));
    };
    if let Some((model, gpu)) = PredictRequest::model_and_gpu(body) {
        return Ok(RouteKey::from_predict(model, gpu));
    }
    match serde_json::from_str::<PredictRequest>(body) {
        Ok(parsed) => Ok(RouteKey::from_predict(&parsed.model, &parsed.gpu)),
        Err(e) => Err(Response::error(400, &format!("bad predict request: {e}"))),
    }
}

/// Hands an upstream answer to the downstream socket. The reactor decoded
/// it as a relay needs it: status and body bytes exactly as the replica
/// sent them (the bitwise-identity contract), and the replica's
/// `X-Model-Version` stamp, so clients observing a rolling model swap
/// through the router see exactly which generation answered.
fn relay(reply: Response) -> Response {
    let _span = obs::span!("router.relay", status = reply.status);
    reply
}

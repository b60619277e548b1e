//! The epoll event loop behind both HTTP front ends, `neusight serve`
//! and `neusight router`: one thread multiplexing every client
//! connection and every upstream exchange (DESIGN.md §6).
//!
//! ```text
//!            accept                EPOLLIN           Service::request
//!   listener ──────▶ Reading ─────────────▶ parse_head ────────────┐
//!                      ▲                                           │
//!                      │ keep-alive, write drained         Respond / Wait
//!                      │                                           │
//!                   Writing ◀──── Service::event answers ── Waiting ◀┘
//!                   (EPOLLOUT)                            (interest ∅)
//! ```
//!
//! What a request *means* lives behind the [`Service`] trait; the loop
//! owns sockets, buffers, and timers. Design notes:
//!
//! - **Tokens** are `(generation << 32) | slab index`, validated on every
//!   epoll event and idle timer, so events for closed (possibly
//!   recycled) sockets are dropped. Upstream sockets' tokens carry
//!   `UPSTREAM_TAG`.
//! - **Interest follows state**: `Reading` wants `EPOLLIN`, `Waiting`
//!   nothing (a level-triggered fd with a buffered request would spin),
//!   `Writing` `EPOLLOUT`.
//! - **Tickets** name waiting requests: mailbox completions (eventfd
//!   wakeup), service timers, and upstream exchanges carry one. Once a
//!   request is answered or its client is gone, later events for it are
//!   dropped.
//! - **Upstream exchanges** ([`Io::exchange`]) run over non-blocking
//!   sockets pooled per address (an idle one that turns readable was
//!   closed by its server), decoded by the blocking client's
//!   [`decode_response`].
//! - **Names follow the service**: the loop's metrics, failpoints, and
//!   panic guards carry [`Limits::name`] as prefix, so a router and its
//!   replicas in one process never mix their counts.

#![cfg(target_os = "linux")]

use crate::client::{decode_response, ClientResponse};
use crate::dispatch::Completions;
use crate::http::{self, HeadParse, Response};
use crate::sys::{self, Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::timer::{Timer, TimerKind, TimerWheel, TICK};
use neusight_guard as guard;
use neusight_obs as obs;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token reserved for the listener socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token reserved for the mailbox's wakeup eventfd.
const WAKEUP_TOKEN: u64 = u64::MAX - 1;
/// Slab tag carried by upstream sockets' tokens (client connections: 0).
const UPSTREAM_TAG: u64 = 1 << 31;

/// One complete request, as the loop hands it to its service.
pub struct Request<'a> {
    /// Upper-cased method.
    pub method: &'a str,
    /// Path without the query string.
    pub path: &'a str,
    /// Body bytes (`Content-Length` framed).
    pub body: &'a [u8],
    /// The client's remaining `X-Deadline-Ms` budget, if sent.
    pub deadline_ms: Option<u64>,
}

/// A service's first answer to a request.
pub enum Step<P> {
    /// Answer now.
    Respond(Response),
    /// Answer later, from [`Service::event`]; `P` is the request's state
    /// until then.
    Wait(P),
}

/// Something that happened to a waiting request.
pub enum Event<C> {
    /// A background worker pushed a value under the request's ticket.
    Completion(C),
    /// A timer set with [`Io::schedule`] fired; carries its tag.
    Timer(u64),
    /// An exchange started with [`Io::exchange`] finished.
    Upstream {
        /// The id [`Io::exchange`] returned.
        exchange: u64,
        /// The decoded response, or why there is none.
        result: io::Result<ClientResponse>,
    },
}

/// How a front end sizes its loop.
pub struct Limits {
    /// Prefix of the loop's metrics, failpoints, and panic guards.
    pub name: &'static str,
    /// Concurrent connections beyond which new ones get a 503.
    pub max_connections: usize,
    /// Keep-alive connections quiet for this long are reaped.
    pub idle_timeout: Duration,
}

/// What a request means: the part of a front end the loop does not own.
pub trait Service {
    /// Per-request state of a waiting request.
    type Pending;
    /// What background workers push into the loop's mailbox.
    type Completion: Send + 'static;

    /// Whether to drain: stop accepting, finish what is in flight, exit.
    fn stop_requested(&self) -> bool;
    /// Called once per loop turn (signal polling).
    fn on_turn(&mut self) {}
    /// Called once, when the drain starts.
    fn on_drain(&mut self) {}
    /// Routes one complete request; `ticket` names it if it waits. An
    /// answer given at once may stamp stages on `trace`.
    fn request(
        &mut self,
        io: &mut Io<Self::Completion>,
        ticket: u64,
        request: &Request<'_>,
        trace: &mut obs::TraceContext,
    ) -> Step<Self::Pending>;
    /// Advances a waiting request. `Some` answers it (with `trace` as the
    /// request's trace from then on); `None` keeps it waiting.
    fn event(
        &mut self,
        io: &mut Io<Self::Completion>,
        ticket: u64,
        pending: &mut Self::Pending,
        event: Event<Self::Completion>,
        trace: &mut obs::TraceContext,
    ) -> Option<Response>;
    /// The client went away while its request was waiting.
    fn cancel(&mut self, io: &mut Io<Self::Completion>, pending: Self::Pending);
    /// The response is fully written; `trace` has its write stage stamped.
    fn finish_trace(&self, trace: obs::TraceContext) {
        let _ = trace;
    }
}

/// Runs the reactor until a drain completes. Panics inside the event
/// loop are supervised: the loop restarts (fresh epoll, connections and
/// upstream sockets dropped) within a bounded budget.
///
/// # Errors
///
/// Propagates listener and epoll failures, and an exhausted restart
/// budget.
pub fn run<S: Service>(service: &mut S, listener: &TcpListener, limits: &Limits) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let supervisor = guard::Supervisor::new(&format!("{}.reactor", limits.name), 16);
    match supervisor.supervise(|| event_loop(service, listener, limits)) {
        Some(result) => result,
        None => Err(io::Error::other("reactor restart budget exhausted")),
    }
}

/// Where a connection sits in its request lifecycle.
#[derive(Clone, Copy)]
enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// The service holds `ticket` and answers it later.
    Waiting {
        ticket: u64,
        started: Instant,
        wants_close: bool,
        trace: obs::TraceContext,
    },
    /// Flushing the write buffer to the socket.
    Writing,
}

/// A non-blocking socket and its buffers, reused across keep-alive
/// exchanges. Request heads are parsed in place in `read_buf` (borrowed,
/// not copied) and consumed bytes are drained, leaving pipelined data.
struct Sock {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Currently registered epoll interest (avoids redundant syscalls).
    interest: u32,
    last_activity: Instant,
}

impl Sock {
    fn new(stream: TcpStream, interest: u32) -> Sock {
        Sock {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            interest,
            last_activity: Instant::now(),
        }
    }

    /// Reads until the socket would block; `Ok(true)` at end of stream.
    fn read_some(&mut self) -> io::Result<bool> {
        let mut scratch = [0u8; 8192];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() != ErrorKind::Interrupted => return Err(e),
                Err(_) => {}
            }
        }
    }

    /// Writes until the buffer is sent (`Ok(true)`) or the socket would
    /// block (`Ok(false)`).
    fn write_some(&mut self) -> io::Result<bool> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() != ErrorKind::Interrupted => return Err(e),
                Err(_) => {}
            }
        }
        Ok(true)
    }

    /// Replaces the write buffer's contents with `render`'s output.
    fn stage(&mut self, render: impl FnOnce(&mut Vec<u8>)) {
        self.write_buf.clear();
        self.write_pos = 0;
        render(&mut self.write_buf);
    }

    fn set_interest(&mut self, epoll: &Epoll, token: u64, interest: u32) {
        if self.interest != interest {
            let _ = epoll.modify(self.stream.as_raw_fd(), interest, token);
            self.interest = interest;
        }
    }
}

/// One multiplexed client connection.
struct Conn {
    sock: Sock,
    state: ConnState,
    /// Close instead of returning to `Reading` once the write drains.
    close_after_write: bool,
    /// Trace of the response being written; handed to
    /// [`Service::finish_trace`] when the write drains.
    trace: Option<obs::TraceContext>,
}

/// One upstream socket: busy in one exchange, or pooled while idle. A
/// fresh socket's connect may still be in flight: writes report
/// `WouldBlock` until it is up, and a failed connect is the write error.
struct Peer {
    sock: Sock,
    addr: SocketAddr,
    idle: bool,
    ticket: u64,
    exchange: u64,
}

/// Generation-checked storage. Freed slots are recycled with a bumped
/// generation, which is what invalidates stale tokens.
struct Slab<T> {
    slots: Vec<Option<T>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    tag: u64,
}

impl<T> Slab<T> {
    fn new(tag: u64) -> Slab<T> {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            tag,
        }
    }

    fn token(&self, index: usize) -> u64 {
        (u64::from(self.gens[index]) << 32) | self.tag | index as u64
    }

    fn index(&self, token: u64) -> Option<usize> {
        let index = (token & (UPSTREAM_TAG - 1)) as usize;
        let valid = token & UPSTREAM_TAG == self.tag
            && index < self.slots.len()
            && self.gens[index] == (token >> 32) as u32;
        valid.then_some(index)
    }

    fn insert(&mut self, value: T) -> u64 {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.gens.push(0);
            self.slots.len() - 1
        });
        self.slots[index] = Some(value);
        self.live += 1;
        self.token(index)
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let index = self.index(token)?;
        self.slots[index].as_mut()
    }

    fn take(&mut self, token: u64) -> Option<T> {
        let index = self.index(token)?;
        let value = self.slots[index].take()?;
        self.gens[index] = self.gens[index].wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
        Some(value)
    }

    fn tokens(&self) -> Vec<u64> {
        (0..self.slots.len())
            .filter(|&index| self.slots[index].is_some())
            .map(|index| self.token(index))
            .collect()
    }
}

/// The loop's side of a service: timers, the completion mailbox, and
/// upstream exchanges.
pub struct Io<C> {
    epoll: Epoll,
    timers: TimerWheel,
    completions: Arc<Completions<C>>,
    peers: Slab<Peer>,
    /// Idle keep-alive upstream sockets, by address.
    pool: HashMap<SocketAddr, Vec<u64>>,
    /// In-flight exchange id → upstream socket token.
    busy: HashMap<u64, u64>,
    /// Finished exchanges not yet delivered: `(ticket, exchange, result)`.
    finished: Vec<(u64, u64, io::Result<ClientResponse>)>,
    next_exchange: u64,
    /// Failpoints `<service>.upstream.{connect,slow,read}`.
    points: [String; 3],
    waiting: usize,
}

impl<C> Io<C> {
    /// Requests waiting for an answer on this loop, as of its last turn.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.waiting
    }

    /// Upstream exchanges in flight.
    #[must_use]
    pub fn exchanges(&self) -> usize {
        self.busy.len()
    }

    /// The mailbox background workers push completions into.
    #[must_use]
    pub fn completions(&self) -> &Arc<Completions<C>> {
        &self.completions
    }

    /// Delivers [`Event::Timer`]`(tag)` to `ticket` at `at`, if it is
    /// still waiting then.
    pub fn schedule(&mut self, ticket: u64, at: Instant, tag: u64) {
        let kind = TimerKind::Service(tag);
        self.timers.schedule(Timer {
            deadline: at,
            key: ticket,
            kind,
        });
    }

    /// Sends `request` (rendered bytes) to `addr` over a pooled or fresh
    /// connection. The outcome arrives as [`Event::Upstream`] with the
    /// returned id, even when the exchange fails at once.
    pub fn exchange(&mut self, ticket: u64, addr: SocketAddr, request: Vec<u8>) -> u64 {
        let exchange = self.next_exchange;
        self.next_exchange += 1;
        if let Some(injected) = neusight_fault::fail_point!(self.points[0].as_str()) {
            injected.sleep();
            if injected.fail {
                let error = io::Error::other(injected.error());
                self.finished.push((ticket, exchange, Err(error)));
                return exchange;
            }
        }
        let pooled = self.pool.get_mut(&addr).and_then(Vec::pop);
        let token = match pooled.map_or_else(|| self.dial(addr), Ok) {
            Ok(token) => token,
            Err(e) => {
                self.finished.push((ticket, exchange, Err(e)));
                return exchange;
            }
        };
        if let Some(injected) = neusight_fault::fail_point!(self.points[1].as_str()) {
            injected.sleep();
        }
        let peer = self.peers.get_mut(token).expect("pooled or just dialed");
        peer.sock.stage(|buf| *buf = request);
        (peer.idle, peer.ticket, peer.exchange) = (false, ticket, exchange);
        self.busy.insert(exchange, token);
        self.drive(token);
        exchange
    }

    /// Abandons an in-flight exchange: its socket is closed, never
    /// pooled, and no event is delivered for it.
    pub fn abort(&mut self, exchange: u64) {
        if let Some(token) = self.busy.remove(&exchange) {
            self.close_peer(token);
        }
    }

    fn dial(&mut self, addr: SocketAddr) -> io::Result<u64> {
        let stream = sys::connect_nonblocking(addr)?;
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let sock = Sock::new(stream, EPOLLOUT);
        let (idle, ticket, exchange) = (false, 0, 0);
        let token = self.peers.insert(Peer {
            sock,
            addr,
            idle,
            ticket,
            exchange,
        });
        if let Err(e) = self.epoll.add(fd, EPOLLOUT, token) {
            self.peers.take(token);
            return Err(e);
        }
        Ok(token)
    }

    /// Moves the exchange on `token` as far as the socket allows: write
    /// the request, then read until a whole response decodes.
    fn drive(&mut self, token: u64) {
        let Some(peer) = self.peers.get_mut(token) else {
            return;
        };
        if peer.idle {
            // A pooled socket turned readable or hung up: its server
            // closed it (idle timeout, drain, death).
            self.close_peer(token);
            return;
        }
        let sock = &mut peer.sock;
        let outcome = match sock.write_some() {
            // Sent: take whatever of the response has arrived.
            Ok(true) => match sock.read_some() {
                Ok(eof) => match decode_response(&mut sock.read_buf) {
                    Ok(None) if !eof => None,
                    Ok(None) => Some(Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "upstream closed before a full response",
                    ))),
                    decoded => decoded.transpose(),
                },
                Err(e) => Some(Err(e)),
            },
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        };
        match outcome {
            None => {
                let sent = sock.write_pos == sock.write_buf.len();
                sock.set_interest(&self.epoll, token, if sent { EPOLLIN } else { EPOLLOUT });
            }
            Some(result) => self.finish_exchange(token, result),
        }
    }

    /// Pools the socket if the exchange left it clean, and queues the
    /// outcome for delivery.
    fn finish_exchange(&mut self, token: u64, mut result: io::Result<ClientResponse>) {
        if let Some(injected) = neusight_fault::fail_point!(self.points[2].as_str()) {
            injected.sleep();
            if injected.fail {
                result = Err(io::Error::other(injected.error()));
            }
        }
        let Some(peer) = self.peers.get_mut(token) else {
            return;
        };
        let (ticket, exchange) = (peer.ticket, peer.exchange);
        self.busy.remove(&exchange);
        if matches!(&result, Ok(response) if !response.closes()) && peer.sock.read_buf.is_empty() {
            peer.idle = true;
            peer.sock.set_interest(&self.epoll, token, EPOLLIN);
            self.pool.entry(peer.addr).or_default().push(token);
        } else {
            self.close_peer(token);
        }
        self.finished.push((ticket, exchange, result));
    }

    fn close_peer(&mut self, token: u64) {
        let Some(peer) = self.peers.take(token) else {
            return;
        };
        self.epoll.delete(peer.sock.stream.as_raw_fd());
        if let Some(idle) = self.pool.get_mut(&peer.addr) {
            idle.retain(|&t| t != token);
            if idle.is_empty() {
                self.pool.remove(&peer.addr);
            }
        }
    }
}

/// The loop's own telemetry, named after the service.
struct LoopMetrics {
    connections: Arc<obs::Gauge>,
    latency_ns: Arc<obs::Histogram>,
    panics: Arc<obs::Counter>,
    epoll_wait_ns: Arc<obs::Histogram>,
    loop_lag_ns: Arc<obs::Histogram>,
    wheel_occupancy: Arc<obs::Gauge>,
}

struct Reactor<'s, S: Service> {
    service: &'s mut S,
    io: Io<S::Completion>,
    conns: Slab<Conn>,
    /// Waiting requests: ticket → (connection token, service state).
    /// Removing a ticket (answered, connection closed) is what turns
    /// every later event for it into a no-op.
    waiting: HashMap<u64, (u64, S::Pending)>,
    next_ticket: u64,
    draining: bool,
    max_connections: usize,
    idle_timeout: Duration,
    metrics: LoopMetrics,
    /// Failpoints `<service>.reactor.{accept,read,wakeup}`.
    points: [String; 3],
}

fn event_loop<S: Service>(
    service: &mut S,
    listener: &TcpListener,
    limits: &Limits,
) -> io::Result<()> {
    let name = limits.name;
    let epoll = Epoll::new()?;
    let wakeup = Arc::new(EventFd::new()?);
    epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
    epoll.add(wakeup.raw(), EPOLLIN, WAKEUP_TOKEN)?;
    let completions = {
        let wakeup = Arc::clone(&wakeup);
        Completions::new(move || wakeup.signal())
    };
    let named = |suffix: &str| format!("{name}.{suffix}");
    let mut reactor = Reactor {
        max_connections: limits.max_connections,
        idle_timeout: limits.idle_timeout,
        service,
        io: Io {
            epoll,
            timers: TimerWheel::new(Instant::now()),
            completions,
            peers: Slab::new(UPSTREAM_TAG),
            pool: HashMap::new(),
            busy: HashMap::new(),
            finished: Vec::new(),
            next_exchange: 0,
            points: ["connect", "slow", "read"].map(|p| named(&format!("upstream.{p}"))),
            waiting: 0,
        },
        conns: Slab::new(0),
        waiting: HashMap::new(),
        next_ticket: 0,
        draining: false,
        metrics: LoopMetrics {
            connections: obs::metrics::gauge(&named("connections.active")),
            latency_ns: obs::metrics::histogram(&named("request_latency_ns")),
            panics: obs::metrics::counter(&named("connection.panics")),
            epoll_wait_ns: obs::metrics::histogram(&named("reactor.epoll_wait_ns")),
            loop_lag_ns: obs::metrics::histogram(&named("reactor.loop_lag_ns")),
            wheel_occupancy: obs::metrics::gauge(&named("reactor.timer_wheel.occupancy")),
        },
        points: ["accept", "read", "wakeup"].map(|p| named(&format!("reactor.{p}"))),
    };
    let connection_label = named("connection");
    // A supervisor restart dropped the previous incarnation's
    // connections: restart the gauge from an honest zero.
    reactor.publish_connections();
    let mut events: Vec<(u64, u32)> = Vec::new();
    let mut fired: Vec<Timer> = Vec::new();

    loop {
        if !reactor.draining && reactor.service.stop_requested() {
            reactor.begin_drain(listener);
        }
        if reactor.draining && reactor.conns.live == 0 {
            return Ok(());
        }
        reactor.service.on_turn();

        events.clear();
        let wait_started = Instant::now();
        #[allow(clippy::cast_possible_truncation)]
        let tick_ms = TICK.as_millis() as i32;
        reactor.io.epoll.wait(tick_ms, &mut events)?;
        let woke = Instant::now();
        let waited = woke.duration_since(wait_started).as_secs_f64();
        reactor.metrics.epoll_wait_ns.record_secs(waited);
        for &(token, readiness) in &events {
            match token {
                LISTENER_TOKEN => reactor.accept_ready(listener),
                WAKEUP_TOKEN => {
                    if let Some(injected) = neusight_fault::check(&reactor.points[2]) {
                        // Delay-only failpoint: a slow wakeup must not
                        // lose completions, just defer them.
                        injected.sleep();
                    }
                    wakeup.drain();
                }
                token if token & UPSTREAM_TAG != 0 => reactor.io.drive(token),
                token => {
                    // A panicked handler costs one connection (best-effort
                    // JSON 500, then close), never the reactor thread.
                    let handled = guard::catch(&connection_label, || {
                        reactor.conn_event(token, readiness);
                    });
                    if handled.is_err() {
                        reactor.fail_connection(token);
                    }
                }
            }
        }

        // Deliver completions every turn, not only on wakeup events: a
        // completion racing the eventfd drain is picked up here at the
        // latest one tick later.
        for (ticket, value) in reactor.io.completions.drain() {
            reactor.deliver(ticket, Event::Completion(value));
        }
        reactor.deliver_exchanges();
        fired.clear();
        reactor.io.timers.advance(Instant::now(), &mut fired);
        for timer in &fired {
            match timer.kind {
                TimerKind::Idle => reactor.idle_fired(timer.key),
                TimerKind::Service(tag) => reactor.deliver(timer.key, Event::Timer(tag)),
            }
        }
        reactor.deliver_exchanges();
        reactor.io.waiting = reactor.waiting.len();
        let lag = woke.elapsed().as_secs_f64();
        reactor.metrics.loop_lag_ns.record_secs(lag);
        #[allow(clippy::cast_precision_loss)]
        let occupancy = reactor.io.timers.len() as f64;
        reactor.metrics.wheel_occupancy.set(occupancy);
    }
}

impl<S: Service> Reactor<'_, S> {
    fn publish_connections(&self) {
        #[allow(clippy::cast_precision_loss)]
        self.metrics.connections.set(self.conns.live as f64);
    }

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            let mut stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if let Some(injected) = neusight_fault::check(&self.points[0]) {
                injected.sleep();
                if injected.fail {
                    // Simulated accept failure: the client sees a closed
                    // connection and retries.
                    continue;
                }
            }
            if self.draining {
                // Raced an accept during drain start.
                continue;
            }
            if self.conns.live >= self.max_connections {
                let mut refusal = Vec::new();
                Response::error(503, "connection limit reached").render_into(&mut refusal, false);
                let _ = stream.write_all(&refusal);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let sock = Sock::new(stream, EPOLLIN);
            let deadline = sock.last_activity + self.idle_timeout;
            let (state, close_after_write, trace) = (ConnState::Reading, false, None);
            let token = self.conns.insert(Conn {
                sock,
                state,
                close_after_write,
                trace,
            });
            if self.io.epoll.add(fd, EPOLLIN, token).is_err() {
                self.conns.take(token);
                continue;
            }
            self.publish_connections();
            // One idle timer per connection; it re-arms itself while the
            // connection stays busy.
            let kind = TimerKind::Idle;
            self.io.timers.schedule(Timer {
                deadline,
                key: token,
                kind,
            });
        }
    }

    fn conn_event(&mut self, token: u64, readiness: u32) {
        if readiness & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        match conn.state {
            ConnState::Reading if readiness & EPOLLIN != 0 => self.readable(token),
            ConnState::Writing if readiness & EPOLLOUT != 0 => {
                self.try_write(token);
                self.process_requests(token);
            }
            // Waiting registers no interest; anything else is spurious.
            _ => {}
        }
    }

    fn readable(&mut self, token: u64) {
        if let Some(injected) = neusight_fault::check(&self.points[1]) {
            injected.sleep();
            if injected.fail {
                // Simulated read error — same handling as a peer reset.
                self.close_conn(token);
                return;
            }
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let Ok(eof) = conn.sock.read_some() else {
            self.close_conn(token);
            return;
        };
        self.process_requests(token);
        if eof {
            // The client finished sending. With nothing in flight the
            // conversation is over; otherwise let the response drain
            // first, then close.
            match self.conns.get_mut(token) {
                Some(conn) if matches!(conn.state, ConnState::Reading) => self.close_conn(token),
                Some(conn) => conn.close_after_write = true,
                None => {}
            }
        }
    }

    /// Parses and serves every complete request buffered on `token`
    /// (keep-alive pipelining), stopping at the first incomplete one or
    /// when the connection leaves `Reading` (waiting request, blocked
    /// write, close).
    fn process_requests(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if !matches!(conn.state, ConnState::Reading) {
                return;
            }
            let head = match http::parse_head(&conn.sock.read_buf) {
                HeadParse::Incomplete => return,
                HeadParse::Malformed(message, status) => {
                    self.reject(token, &Response::error(status, message));
                    return;
                }
                HeadParse::Complete(head) => head,
            };
            let total = head.head_len + head.content_length;
            if conn.sock.read_buf.len() < total {
                // Body still arriving; the idle timer turns a stalled
                // body into a 408.
                return;
            }
            let started = Instant::now();
            let mut trace = obs::TraceContext::start(head.request_id);
            let method = head.method.to_ascii_uppercase();
            let request = Request {
                method: &method,
                path: head.path,
                body: &conn.sock.read_buf[head.head_len..total],
                deadline_ms: head.deadline_ms,
            };
            let wants_close = head.wants_close;
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            let step = self
                .service
                .request(&mut self.io, ticket, &request, &mut trace);
            conn.sock.read_buf.drain(..total);
            match step {
                // If the write drains synchronously the state is Reading
                // again and the loop serves the next pipelined request;
                // otherwise the next turn exits.
                Step::Respond(response) => {
                    self.respond(token, &response, trace, started, wants_close);
                }
                Step::Wait(pending) => {
                    let state = ConnState::Waiting {
                        ticket,
                        started,
                        wants_close,
                        trace,
                    };
                    conn.state = state;
                    // No interest while waiting: a level-triggered fd
                    // with buffered pipelined bytes would spin.
                    conn.sock.set_interest(&self.io.epoll, token, 0);
                    self.waiting.insert(ticket, (token, pending));
                    return;
                }
            }
        }
    }

    /// Renders `response` into the connection's write buffer and starts
    /// writing it.
    fn respond(
        &mut self,
        token: u64,
        response: &Response,
        mut trace: obs::TraceContext,
        started: Instant,
        wants_close: bool,
    ) {
        let stop = self.service.stop_requested();
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        trace.stamp(obs::Stage::Render);
        trace.set_status(response.status);
        let elapsed = started.elapsed().as_secs_f64();
        self.metrics.latency_ns.record_secs(elapsed);
        let keep_alive = !wants_close && !stop && !conn.close_after_write;
        conn.sock
            .stage(|buf| response.render_traced(buf, keep_alive, Some(&trace)));
        conn.close_after_write = !keep_alive;
        conn.state = ConnState::Writing;
        conn.trace = Some(trace);
        self.try_write(token);
    }

    /// Answers a request that never reached the service (malformed head,
    /// stalled body) and closes.
    fn reject(&mut self, token: u64, response: &Response) {
        if let Some(conn) = self.conns.get_mut(token) {
            conn.sock.read_buf.clear();
            conn.sock.stage(|buf| response.render_into(buf, false));
            conn.close_after_write = true;
            conn.state = ConnState::Writing;
        }
        self.try_write(token);
    }

    /// Flushes as much of the write buffer as the socket accepts, then
    /// transitions: close (error or `close_after_write`), stay `Writing`
    /// (interest `EPOLLOUT`) on a partial write, or return to `Reading`
    /// for keep-alive. `EPOLLOUT` is registered only once a write blocks,
    /// so a response that fits the socket buffer costs no extra
    /// `epoll_ctl`.
    fn try_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        match conn.sock.write_some() {
            Err(_) => self.close_conn(token),
            Ok(false) => conn.sock.set_interest(&self.io.epoll, token, EPOLLOUT),
            Ok(true) => {
                // The response is fully on the wire: the write stage ends
                // here and the trace is complete.
                if let Some(mut trace) = conn.trace.take() {
                    trace.stamp(obs::Stage::Write);
                    self.service.finish_trace(trace);
                }
                if conn.close_after_write {
                    self.close_conn(token);
                    return;
                }
                conn.sock.stage(|_| {});
                conn.state = ConnState::Reading;
                conn.sock.set_interest(&self.io.epoll, token, EPOLLIN);
            }
        }
    }

    /// Hands `event` to the service if `ticket` is still waiting, and
    /// writes the answer if there is one.
    fn deliver(&mut self, ticket: u64, event: Event<S::Completion>) {
        let Some((token, mut pending)) = self.waiting.remove(&ticket) else {
            return;
        };
        let state = self.conns.get_mut(token).map(|conn| conn.state);
        let Some(ConnState::Waiting {
            started,
            wants_close,
            mut trace,
            ..
        }) = state
        else {
            return;
        };
        let io = &mut self.io;
        match self
            .service
            .event(io, ticket, &mut pending, event, &mut trace)
        {
            None => {
                self.waiting.insert(ticket, (token, pending));
            }
            Some(response) => {
                self.respond(token, &response, trace, started, wants_close);
                self.process_requests(token);
            }
        }
    }

    /// Delivers finished exchanges, including those an earlier delivery
    /// started and that failed at once.
    fn deliver_exchanges(&mut self) {
        while !self.io.finished.is_empty() {
            for (ticket, exchange, result) in std::mem::take(&mut self.io.finished) {
                self.deliver(ticket, Event::Upstream { exchange, result });
            }
        }
    }

    fn idle_fired(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let quiet_since = conn.sock.last_activity;
        let rearm_at = if quiet_since.elapsed() < self.idle_timeout {
            quiet_since + self.idle_timeout
        } else if !matches!(conn.state, ConnState::Reading) {
            // Busy waiting or writing — not idle. Check again in a full
            // window.
            Instant::now() + self.idle_timeout
        } else {
            match http::parse_head(&conn.sock.read_buf) {
                // Head arrived but the body stalled: 408.
                HeadParse::Complete(_) => {
                    self.reject(token, &Response::error(408, "request body timed out"));
                }
                // Idle between requests or mid-head: silent close.
                // Malformed input is answered on the read path; if it is
                // still buffered here the connection is wedged.
                HeadParse::Incomplete | HeadParse::Malformed(..) => self.close_conn(token),
            }
            return;
        };
        let kind = TimerKind::Idle;
        let timer = Timer {
            deadline: rearm_at,
            key: token,
            kind,
        };
        self.io.timers.schedule(timer);
    }

    /// Best-effort JSON 500 after a panicked per-connection handler, then
    /// close.
    fn fail_connection(&mut self, token: u64) {
        self.metrics.panics.inc();
        if let Some(conn) = self.conns.get_mut(token) {
            let mut buf = Vec::new();
            Response::error(500, "connection handler panicked").render_into(&mut buf, false);
            let _ = conn.sock.stream.write(&buf);
        }
        self.close_conn(token);
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.take(token) else {
            return;
        };
        self.io.epoll.delete(conn.sock.stream.as_raw_fd());
        if let ConnState::Waiting { ticket, .. } = conn.state {
            if let Some((_, pending)) = self.waiting.remove(&ticket) {
                self.service.cancel(&mut self.io, pending);
            }
        }
        self.publish_connections();
    }

    /// Starts the graceful drain: stop accepting, close connections that
    /// are between requests, and mark busy ones to close once their
    /// response drains. The loop exits when no connection is left.
    fn begin_drain(&mut self, listener: &TcpListener) {
        self.draining = true;
        self.service.on_drain();
        self.io.epoll.delete(listener.as_raw_fd());
        for token in self.conns.tokens() {
            match self.conns.get_mut(token) {
                // Connections waiting between requests close immediately.
                Some(conn) if matches!(conn.state, ConnState::Reading) => self.close_conn(token),
                Some(conn) => conn.close_after_write = true,
                None => {}
            }
        }
    }
}

//! The epoll event loop that serves every connection: one reactor thread
//! multiplexing all of them through readiness notification.
//!
//! # Connection state machine
//!
//! ```text
//!            accept                EPOLLIN             route_common
//!   listener ──────▶ Reading ─────────────▶ parse_head ────────────┐
//!                      ▲                                           │
//!                      │ keep-alive, write drained        Respond / Predict
//!                      │                                           │
//!                   Writing ◀── completion / 504 ── Dispatched ◀───┘
//!                   (EPOLLOUT)                       (interest ∅)
//! ```
//!
//! Routing, admission, dispatch, and response rendering live outside the
//! loop ([`route_common`], [`admit`], the dispatcher); the loop owns only
//! sockets, buffers, and timers.
//!
//! Design notes:
//!
//! - **Tokens** are `(generation << 32) | slab index`; every epoll event
//!   and timer validates the generation, so events for closed (possibly
//!   recycled) connections are dropped instead of misdelivered.
//! - **Interest follows state**: `Reading` wants `EPOLLIN`, `Dispatched`
//!   wants nothing (a level-triggered fd with a buffered request would
//!   spin otherwise), `Writing` wants `EPOLLOUT`.
//! - **Dispatcher completions** arrive through a [`Completions`] mailbox
//!   keyed by a per-request ticket; the dispatcher signals an eventfd the
//!   loop watches. A request that already got its 504 has its ticket
//!   removed, so the late completion is dropped on the floor.
//! - **Buffers are per-connection and reused** across keep-alive
//!   requests: the read buffer accumulates raw bytes that
//!   [`http::parse_head`] borrows in place, and responses render into the
//!   connection's write buffer without intermediate allocation.

#![cfg(target_os = "linux")]

use crate::dispatch::{Completions, Reply};
use crate::http::{self, HeadParse, Response};
use crate::server::{
    admit, maybe_dump_on_signal, reject_connection, route_common, RouteOutcome, Shared,
};
use crate::sys::{Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::timer::{Timer, TimerKind, TimerWheel, TICK};
use neusight_guard as guard;
use neusight_obs as obs;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token reserved for the listener socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token reserved for the dispatcher's wakeup eventfd.
const WAKEUP_TOKEN: u64 = u64::MAX - 1;

/// Runs the reactor until a drain completes. Panics inside the event
/// loop are supervised like the dispatcher's: the loop restarts (fresh
/// epoll, connections dropped) within a bounded budget.
pub(crate) fn run(shared: &Arc<Shared>, listener: &TcpListener) -> io::Result<()> {
    let supervisor = guard::Supervisor::new("serve.reactor", 16);
    match supervisor.supervise(|| event_loop(shared, listener)) {
        Some(result) => result,
        None => Err(io::Error::other("reactor restart budget exhausted")),
    }
}

/// Where a connection sits in its request lifecycle.
#[derive(Clone, Copy)]
enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// A predict job is queued; the mailbox will complete `ticket`.
    Dispatched {
        ticket: u64,
        started: Instant,
        wants_close: bool,
        /// Local copy of the request trace, used for the 504 path when
        /// the deadline beats the dispatcher's completion.
        trace: obs::TraceContext,
    },
    /// Flushing `write_buf` to the socket.
    Writing,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Raw request bytes; heads are parsed in place (borrowed, not
    /// copied) and consumed bytes are drained, leaving pipelined data.
    read_buf: Vec<u8>,
    /// Rendered response bytes, reused across keep-alive requests.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Close instead of returning to `Reading` once the write drains.
    close_after_write: bool,
    /// Trace of the response currently in `write_buf`; taken and
    /// finished (recorded to the flight recorder) when the write drains.
    trace: Option<obs::TraceContext>,
    last_activity: Instant,
    /// Currently registered epoll interest (avoids redundant syscalls).
    interest: u32,
}

/// Generation-checked connection storage. Freed slots are recycled with
/// a bumped generation, which is what invalidates stale tokens.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

fn token_of(gen: u32, index: usize) -> u64 {
    (u64::from(gen) << 32) | index as u64
}

impl Slab {
    fn insert(&mut self, conn: Conn) -> u64 {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.gens.push(0);
            self.slots.len() - 1
        });
        self.slots[index] = Some(conn);
        self.live += 1;
        token_of(self.gens[index], index)
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let index = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        if index >= self.slots.len() || self.gens[index] != gen {
            return None;
        }
        self.slots[index].as_mut()
    }

    fn take(&mut self, token: u64) -> Option<Conn> {
        let index = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        if index >= self.slots.len() || self.gens[index] != gen {
            return None;
        }
        let conn = self.slots[index].take()?;
        self.gens[index] = self.gens[index].wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
        Some(conn)
    }

    fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(index, _)| token_of(self.gens[index], index))
            .collect()
    }
}

enum ReadStatus {
    Progress { eof: bool },
    Reset,
}

fn read_some(conn: &mut Conn) -> ReadStatus {
    let mut scratch = [0u8; 8192];
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => return ReadStatus::Progress { eof: true },
            Ok(n) => {
                conn.read_buf.extend_from_slice(&scratch[..n]);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                return ReadStatus::Progress { eof: false }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadStatus::Reset,
        }
    }
}

enum WriteStatus {
    Complete,
    Pending,
    Error,
}

fn write_some(conn: &mut Conn) -> WriteStatus {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return WriteStatus::Error,
            Ok(n) => {
                conn.write_pos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return WriteStatus::Pending,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return WriteStatus::Error,
        }
    }
    WriteStatus::Complete
}

/// Updates the fd's registered interest if it changed. A free function
/// (not a `Reactor` method) so it can run while a connection is borrowed
/// from the slab — `epoll` and the slab are disjoint fields.
fn set_interest(epoll: &Epoll, conn: &mut Conn, token: u64, interest: u32) {
    if conn.interest != interest {
        let _ = epoll.modify(conn.stream.as_raw_fd(), interest, token);
        conn.interest = interest;
    }
}

struct Reactor<'a> {
    shared: &'a Shared,
    epoll: Epoll,
    slab: Slab,
    timers: TimerWheel,
    completions: Arc<Completions>,
    /// In-flight predict tickets → connection token. Removing a ticket
    /// (completion delivered, deadline fired, connection closed) is the
    /// cancellation mechanism for whichever of the two loses the race.
    pending: HashMap<u64, u64>,
    next_ticket: u64,
    draining: bool,
}

/// One iteration of the event loop, as data: computed while the
/// connection is borrowed, acted on after the borrow ends.
enum IdleAction {
    Rearm(Instant),
    CloseSilently,
    RespondTimeout,
}

fn event_loop(shared: &Arc<Shared>, listener: &TcpListener) -> io::Result<()> {
    let epoll = Epoll::new()?;
    let wakeup = Arc::new(EventFd::new()?);
    epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
    epoll.add(wakeup.raw(), EPOLLIN, WAKEUP_TOKEN)?;
    let completions = {
        let wakeup = Arc::clone(&wakeup);
        Completions::new(move || wakeup.signal())
    };
    // A supervisor restart dropped the previous incarnation's connections
    // without running close accounting; this loop owns the counter, so
    // restart from an honest zero.
    shared.active_connections.store(0, Ordering::SeqCst);
    shared.metrics.connections.set(0.0);

    let mut reactor = Reactor {
        shared,
        epoll,
        slab: Slab::default(),
        timers: TimerWheel::new(Instant::now()),
        completions,
        pending: HashMap::new(),
        next_ticket: 0,
        draining: false,
    };
    let mut events: Vec<(u64, u32)> = Vec::new();
    let mut fired: Vec<Timer> = Vec::new();
    // Reactor self-telemetry: how long each turn blocks in epoll, how
    // long it spends doing work (loop lag felt by every connection), and
    // how loaded the timer wheel is.
    let epoll_wait_ns = obs::metrics::histogram("serve.reactor.epoll_wait_ns");
    let loop_lag_ns = obs::metrics::histogram("serve.reactor.loop_lag_ns");
    let wheel_occupancy = obs::metrics::gauge("serve.reactor.timer_wheel.occupancy");

    loop {
        if !reactor.draining && shared.stop_requested() {
            reactor.begin_drain(listener);
        }
        if reactor.draining && reactor.slab.live == 0 {
            return Ok(());
        }
        maybe_dump_on_signal();
        crate::server::maybe_reload_on_signal(shared);

        events.clear();
        let wait_started = Instant::now();
        #[allow(clippy::cast_possible_truncation)]
        reactor.epoll.wait(TICK.as_millis() as i32, &mut events)?;
        let woke = Instant::now();
        epoll_wait_ns.record_secs(woke.duration_since(wait_started).as_secs_f64());
        for &(token, readiness) in &events {
            match token {
                LISTENER_TOKEN => reactor.accept_ready(listener),
                WAKEUP_TOKEN => {
                    if let Some(injected) = neusight_fault::check("serve.reactor.wakeup") {
                        // Delay-only failpoint: a slow wakeup must not
                        // lose completions, just defer them.
                        injected.sleep();
                    }
                    wakeup.drain();
                }
                token => {
                    // A panicked handler costs one connection (best-effort
                    // JSON 500, then close), never the reactor thread.
                    if guard::catch("serve.connection", || reactor.conn_event(token, readiness))
                        .is_err()
                    {
                        reactor.fail_connection(token);
                    }
                }
            }
        }

        // Deliver completions every turn, not only on wakeup events: a
        // completion racing the eventfd drain is picked up here at the
        // latest one tick later.
        reactor.deliver_completions();

        fired.clear();
        reactor.timers.advance(Instant::now(), &mut fired);
        for timer in &fired {
            reactor.timer_fired(*timer);
        }
        loop_lag_ns.record_secs(woke.elapsed().as_secs_f64());
        #[allow(clippy::cast_precision_loss)]
        wheel_occupancy.set(reactor.timers.len() as f64);
    }
}

impl Reactor<'_> {
    fn publish_connections(&self) {
        #[allow(clippy::cast_precision_loss)]
        self.shared
            .metrics
            .connections
            .set(self.shared.active_connections.load(Ordering::SeqCst) as f64);
    }

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(injected) = neusight_fault::check("serve.reactor.accept") {
                        injected.sleep();
                        if injected.fail {
                            // Simulated accept failure: the client sees a
                            // closed connection and retries.
                            drop(stream);
                            continue;
                        }
                    }
                    if self.draining {
                        // Raced an accept during drain start.
                        drop(stream);
                        continue;
                    }
                    let active = self.shared.active_connections.load(Ordering::SeqCst);
                    if active >= self.shared.config.workers {
                        // `workers` bounds concurrent connections.
                        reject_connection(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let now = Instant::now();
                    let token = self.slab.insert(Conn {
                        stream,
                        state: ConnState::Reading,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        close_after_write: false,
                        trace: None,
                        last_activity: now,
                        interest: EPOLLIN,
                    });
                    let conn = self.slab.get_mut(token).expect("just inserted");
                    if self
                        .epoll
                        .add(conn.stream.as_raw_fd(), EPOLLIN, token)
                        .is_err()
                    {
                        self.slab.take(token);
                        continue;
                    }
                    self.shared
                        .active_connections
                        .fetch_add(1, Ordering::SeqCst);
                    self.publish_connections();
                    // One idle timer per connection; it re-arms itself
                    // while the connection stays busy.
                    self.timers.schedule(Timer {
                        deadline: now + self.shared.config.idle_timeout,
                        token,
                        ticket: 0,
                        kind: TimerKind::Idle,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: u64, readiness: u32) {
        if readiness & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        match conn.state {
            ConnState::Reading if readiness & EPOLLIN != 0 => self.readable(token),
            ConnState::Writing if readiness & EPOLLOUT != 0 => {
                self.try_write(token);
                self.process_requests(token);
            }
            // Dispatched registers no interest; anything else is spurious.
            _ => {}
        }
    }

    fn readable(&mut self, token: u64) {
        if let Some(injected) = neusight_fault::check("serve.reactor.read") {
            injected.sleep();
            if injected.fail {
                // Simulated read error — same handling as a peer reset.
                self.close_conn(token);
                return;
            }
        }
        let status = {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            read_some(conn)
        };
        match status {
            ReadStatus::Reset => self.close_conn(token),
            ReadStatus::Progress { eof } => {
                self.process_requests(token);
                if eof {
                    // The client finished sending. With nothing in
                    // flight the conversation is over; otherwise let the
                    // response drain first, then close.
                    match self.slab.get_mut(token).map(|c| c.state) {
                        Some(ConnState::Reading) => self.close_conn(token),
                        Some(_) => {
                            if let Some(conn) = self.slab.get_mut(token) {
                                conn.close_after_write = true;
                            }
                        }
                        None => {}
                    }
                }
            }
        }
    }

    /// Parses and serves every complete request buffered on `token`
    /// (keep-alive pipelining), stopping at the first incomplete one or
    /// when the connection leaves `Reading` (in-flight predict, blocked
    /// write, close).
    fn process_requests(&mut self, token: u64) {
        loop {
            let stop = self.shared.stop_requested();
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            if !matches!(conn.state, ConnState::Reading) {
                return;
            }
            let (outcome, consumed, wants_close, deadline_ms, started, mut trace) =
                match http::parse_head(&conn.read_buf) {
                    HeadParse::Incomplete => return,
                    HeadParse::Malformed(message, status) => {
                        // Report the error and close.
                        let response = Response::error(status, message);
                        conn.read_buf.clear();
                        conn.write_buf.clear();
                        conn.write_pos = 0;
                        response.render_into(&mut conn.write_buf, false);
                        conn.close_after_write = true;
                        conn.state = ConnState::Writing;
                        set_interest(&self.epoll, conn, token, EPOLLOUT);
                        self.try_write(token);
                        return;
                    }
                    HeadParse::Complete(head) => {
                        let total = head.head_len + head.content_length;
                        if conn.read_buf.len() < total {
                            // Body still arriving; the idle timer turns a
                            // stalled body into a 408.
                            return;
                        }
                        let started = Instant::now();
                        let trace = obs::TraceContext::start(head.request_id);
                        let method = head.method.to_ascii_uppercase();
                        let body = &conn.read_buf[head.head_len..total];
                        (
                            route_common(self.shared, &method, head.path, body),
                            total,
                            head.wants_close,
                            head.deadline_ms,
                            started,
                            trace,
                        )
                    }
                };
            conn.read_buf.drain(..consumed);
            let keep_alive = !wants_close && !stop;
            match outcome {
                RouteOutcome::Respond(response) => {
                    trace.stamp(obs::Stage::Render);
                    trace.set_status(response.status);
                    self.shared
                        .metrics
                        .latency_ns
                        .record_secs(started.elapsed().as_secs_f64());
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    response.render_traced(&mut conn.write_buf, keep_alive, Some(&trace));
                    conn.close_after_write = !keep_alive;
                    conn.state = ConnState::Writing;
                    conn.trace = Some(trace);
                    set_interest(&self.epoll, conn, token, EPOLLOUT);
                    self.try_write(token);
                    // If the write drained synchronously the state is
                    // Reading again and the loop serves the next
                    // pipelined request; otherwise the next turn exits.
                }
                RouteOutcome::Predict(parsed) => {
                    // The client's propagated X-Deadline-Ms caps the
                    // configured deadline, and an already-expired budget
                    // answers 504 without burning a dispatcher slot.
                    let budget = match crate::server::request_budget(self.shared, deadline_ms) {
                        Ok(budget) => budget,
                        Err(expired) => {
                            trace.stamp(obs::Stage::Render);
                            trace.set_status(expired.status);
                            self.shared
                                .metrics
                                .latency_ns
                                .record_secs(started.elapsed().as_secs_f64());
                            conn.write_buf.clear();
                            conn.write_pos = 0;
                            expired.render_traced(&mut conn.write_buf, keep_alive, Some(&trace));
                            conn.close_after_write = !keep_alive;
                            conn.state = ConnState::Writing;
                            conn.trace = Some(trace);
                            set_interest(&self.epoll, conn, token, EPOLLOUT);
                            self.try_write(token);
                            continue;
                        }
                    };
                    let ticket = self.next_ticket;
                    self.next_ticket += 1;
                    let deadline = Instant::now() + budget;
                    let reply = Reply {
                        token: ticket,
                        completions: Arc::clone(&self.completions),
                    };
                    match admit(self.shared, parsed, deadline, reply, trace) {
                        Ok(()) => {
                            conn.state = ConnState::Dispatched {
                                ticket,
                                started,
                                wants_close,
                                trace,
                            };
                            // No interest while waiting: a level-triggered
                            // fd with buffered pipelined bytes would spin.
                            set_interest(&self.epoll, conn, token, 0);
                            self.pending.insert(ticket, token);
                            // The dispatcher's own 504 gets 250 ms to
                            // arrive before the reactor times out.
                            self.timers.schedule(Timer {
                                deadline: deadline + Duration::from_millis(250),
                                token,
                                ticket,
                                kind: TimerKind::Deadline,
                            });
                            return;
                        }
                        Err(rejection) => {
                            trace.stamp(obs::Stage::Render);
                            trace.set_status(rejection.status);
                            self.shared
                                .metrics
                                .latency_ns
                                .record_secs(started.elapsed().as_secs_f64());
                            conn.write_buf.clear();
                            conn.write_pos = 0;
                            rejection.render_traced(&mut conn.write_buf, keep_alive, Some(&trace));
                            conn.close_after_write = !keep_alive;
                            conn.state = ConnState::Writing;
                            conn.trace = Some(trace);
                            set_interest(&self.epoll, conn, token, EPOLLOUT);
                            self.try_write(token);
                        }
                    }
                }
            }
        }
    }

    /// Flushes as much of the write buffer as the socket accepts, then
    /// transitions: close (error or `close_after_write`), stay `Writing`
    /// on a partial write, or return to `Reading` for keep-alive.
    fn try_write(&mut self, token: u64) {
        let (status, close) = {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            (write_some(conn), conn.close_after_write)
        };
        match status {
            WriteStatus::Error => self.close_conn(token),
            WriteStatus::Pending => {
                if let Some(conn) = self.slab.get_mut(token) {
                    set_interest(&self.epoll, conn, token, EPOLLOUT);
                }
            }
            WriteStatus::Complete => {
                // The response is fully on the wire: the write stage ends
                // here and the trace is complete (recorded to the flight
                // recorder and stage histograms).
                if let Some(conn) = self.slab.get_mut(token) {
                    if let Some(mut trace) = conn.trace.take() {
                        trace.stamp(obs::Stage::Write);
                        trace.finish();
                    }
                }
                if close {
                    self.close_conn(token);
                    return;
                }
                if let Some(conn) = self.slab.get_mut(token) {
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    conn.state = ConnState::Reading;
                    set_interest(&self.epoll, conn, token, EPOLLIN);
                }
            }
        }
    }

    /// Drains the dispatcher's mailbox, rendering each completion into
    /// its connection's write buffer. Stale tickets (connection closed,
    /// deadline already fired) are dropped.
    fn deliver_completions(&mut self) {
        for (ticket, result, mut trace) in self.completions.drain() {
            let Some(token) = self.pending.remove(&ticket) else {
                continue;
            };
            // The admitted request has left the dispatcher: it is no
            // longer in flight even if its connection is already gone.
            self.shared.inflight_sub();
            let stop = self.shared.stop_requested();
            let Some(conn) = self.slab.get_mut(token) else {
                continue;
            };
            let ConnState::Dispatched {
                ticket: current,
                started,
                wants_close,
                ..
            } = conn.state
            else {
                continue;
            };
            if current != ticket {
                continue;
            }
            let response = match result {
                Ok(body) => crate::server::predict_response(self.shared, &body),
                Err(e) => Response::error(e.status, &e.message),
            };
            trace.stamp(obs::Stage::Render);
            trace.set_status(response.status);
            self.shared
                .metrics
                .latency_ns
                .record_secs(started.elapsed().as_secs_f64());
            let keep_alive = !wants_close && !stop && !conn.close_after_write;
            conn.write_buf.clear();
            conn.write_pos = 0;
            response.render_traced(&mut conn.write_buf, keep_alive, Some(&trace));
            conn.close_after_write = !keep_alive;
            conn.state = ConnState::Writing;
            conn.trace = Some(trace);
            set_interest(&self.epoll, conn, token, EPOLLOUT);
            self.try_write(token);
            self.process_requests(token);
        }
    }

    fn timer_fired(&mut self, timer: Timer) {
        match timer.kind {
            TimerKind::Idle => self.idle_fired(timer.token),
            TimerKind::Deadline => self.deadline_fired(timer.token, timer.ticket),
        }
    }

    fn idle_fired(&mut self, token: u64) {
        let idle_timeout = self.shared.config.idle_timeout;
        let action = {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            if conn.last_activity.elapsed() < idle_timeout {
                IdleAction::Rearm(conn.last_activity + idle_timeout)
            } else if matches!(conn.state, ConnState::Reading) {
                match http::parse_head(&conn.read_buf) {
                    // Idle between requests or mid-head: silent close.
                    HeadParse::Incomplete => IdleAction::CloseSilently,
                    // Head arrived but the body stalled: 408.
                    HeadParse::Complete(_) => IdleAction::RespondTimeout,
                    // Malformed input is handled on the read path; if it
                    // is still buffered here the connection is wedged.
                    HeadParse::Malformed(..) => IdleAction::CloseSilently,
                }
            } else {
                // Busy in dispatch or write — not idle. Check again in a
                // full window.
                IdleAction::Rearm(Instant::now() + idle_timeout)
            }
        };
        match action {
            IdleAction::Rearm(at) => self.timers.schedule(Timer {
                deadline: at,
                token,
                ticket: 0,
                kind: TimerKind::Idle,
            }),
            IdleAction::CloseSilently => self.close_conn(token),
            IdleAction::RespondTimeout => {
                if let Some(conn) = self.slab.get_mut(token) {
                    let response = Response::error(408, "request body timed out");
                    conn.read_buf.clear();
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    response.render_into(&mut conn.write_buf, false);
                    conn.close_after_write = true;
                    conn.state = ConnState::Writing;
                    set_interest(&self.epoll, conn, token, EPOLLOUT);
                }
                self.try_write(token);
            }
        }
    }

    fn deadline_fired(&mut self, token: u64, ticket: u64) {
        // A completed request already removed its ticket; nothing to do.
        if self.pending.remove(&ticket).is_none() {
            return;
        }
        self.shared.inflight_sub();
        let stop = self.shared.stop_requested();
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        let ConnState::Dispatched {
            ticket: current,
            started,
            wants_close,
            trace,
        } = conn.state
        else {
            return;
        };
        if current != ticket {
            return;
        }
        self.shared.metrics.timeouts.inc();
        self.shared
            .metrics
            .latency_ns
            .record_secs(started.elapsed().as_secs_f64());
        // The dispatcher still owns the job's trace copy; the reactor's
        // own copy (taken at admit time) records the timeout.
        let mut trace = trace;
        trace.stamp(obs::Stage::Render);
        trace.set_status(504);
        let response = Response::error(504, "deadline exceeded");
        let keep_alive = !wants_close && !stop && !conn.close_after_write;
        conn.write_buf.clear();
        conn.write_pos = 0;
        response.render_traced(&mut conn.write_buf, keep_alive, Some(&trace));
        conn.close_after_write = !keep_alive;
        conn.state = ConnState::Writing;
        conn.trace = Some(trace);
        set_interest(&self.epoll, conn, token, EPOLLOUT);
        self.try_write(token);
        self.process_requests(token);
    }

    /// Best-effort JSON 500 after a panicked per-connection handler, then
    /// close.
    fn fail_connection(&mut self, token: u64) {
        if let Some(conn) = self.slab.get_mut(token) {
            let mut buf = Vec::new();
            Response::error(500, "connection handler panicked").render_into(&mut buf, false);
            let _ = conn.stream.write(&buf);
        }
        self.close_conn(token);
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.slab.take(token) else {
            return;
        };
        self.epoll.delete(conn.stream.as_raw_fd());
        if let ConnState::Dispatched { ticket, .. } = conn.state {
            // Orphan the in-flight job: its completion (the prediction is
            // memoized regardless) and deadline timer both become no-ops.
            if self.pending.remove(&ticket).is_some() {
                self.shared.inflight_sub();
            }
        }
        self.shared
            .active_connections
            .fetch_sub(1, Ordering::SeqCst);
        self.publish_connections();
    }

    /// Starts the graceful drain: stop accepting, close connections that
    /// are between requests, and mark in-flight ones to close once their
    /// response drains. The loop exits when the slab is empty.
    fn begin_drain(&mut self, listener: &TcpListener) {
        self.draining = true;
        self.epoll.delete(listener.as_raw_fd());
        for token in self.slab.tokens() {
            let close_now = {
                let Some(conn) = self.slab.get_mut(token) else {
                    continue;
                };
                match conn.state {
                    // Connections waiting between requests close
                    // immediately.
                    ConnState::Reading => true,
                    _ => {
                        conn.close_after_write = true;
                        false
                    }
                }
            };
            if close_now {
                self.close_conn(token);
            }
        }
    }
}

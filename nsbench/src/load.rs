//! The load generator: two callers, one connection each, in this one
//! process (the main thread and one helper).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::http::Conn;
use crate::procfs;

pub const CALLERS: usize = 2;

#[derive(Clone, Copy)]
pub enum Schedule {
    /// Each caller sends its next request when the previous one answers,
    /// taking requests from a shared list in order.
    Closed,
    /// Request `i` is due `i / rate` seconds after the start, whatever
    /// happened before; caller `c` sends the requests with `i % 2 == c`.
    Open { rate: f64 },
}

/// One request/response, with times in ns since the run's epoch.
pub struct Exchange {
    /// Index into the request list.
    pub request: usize,
    /// Index into the key list (what was asked).
    pub key: usize,
    pub due: u64,
    pub sent: u64,
    /// How late the generator sent it: after its due time (open loop), or
    /// after the caller's previous response arrived (closed loop).
    pub late: u64,
    pub done: u64,
    /// HTTP status; 0 when the connection failed.
    pub status: u16,
    pub body: Vec<u8>,
}

impl Exchange {
    /// Client latency, timed from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due) as f64 / 1e6
    }

    pub fn late_ms(&self) -> f64 {
        self.late as f64 / 1e6
    }
}

/// Sends `keys[i]` (rendered in `rendered`) for every `i`, on the given
/// schedule, and returns every exchange sorted by request index.
pub fn drive(
    addr: SocketAddr,
    schedule: Schedule,
    rendered: &[Vec<u8>],
    keys: &[usize],
    epoch: Instant,
) -> std::io::Result<Vec<Exchange>> {
    let mut conns = Vec::new();
    for _ in 0..CALLERS {
        conns.push(Conn::connect(addr)?);
    }
    let next = AtomicUsize::new(0);
    let start = epoch.elapsed() + Duration::from_millis(1);
    let mut conns = conns.into_iter();
    let mut helper_conn = conns.next().expect("two connections");
    let mut main_conn = conns.next().expect("two connections");
    let caller = |caller: usize, conn: &mut Conn| -> Vec<Exchange> {
        procfs::tight_timer_slack();
        let mut out = Vec::new();
        let mut k = 0usize;
        let mut previous_done = None;
        loop {
            let (i, due) = match schedule {
                Schedule::Closed => {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    (i, None)
                }
                Schedule::Open { rate } => {
                    let i = k * CALLERS + caller;
                    k += 1;
                    (i, Some(start + Duration::from_secs_f64(i as f64 / rate)))
                }
            };
            if i >= keys.len() {
                return out;
            }
            if let Some(due) = due {
                let now = epoch.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let sent = epoch.elapsed();
            let result = conn.exchange(&rendered[keys[i]]);
            let done = epoch.elapsed();
            let ready = due.or(previous_done).unwrap_or(sent);
            previous_done = Some(done);
            let (status, body) = result.unwrap_or_else(|_| {
                if let Ok(fresh) = Conn::connect(addr) {
                    *conn = fresh;
                }
                (0, Vec::new())
            });
            out.push(Exchange {
                request: i,
                key: keys[i],
                due: due.unwrap_or(sent).as_nanos() as u64,
                sent: sent.as_nanos() as u64,
                late: sent.saturating_sub(ready).as_nanos() as u64,
                done: done.as_nanos() as u64,
                status,
                body,
            });
        }
    };
    let mut all = std::thread::scope(|scope| {
        let helper = scope.spawn(|| caller(0, &mut helper_conn));
        let mut mine = caller(1, &mut main_conn);
        mine.extend(helper.join().expect("generator thread panicked"));
        mine
    });
    all.sort_by_key(|e| e.request);
    Ok(all)
}

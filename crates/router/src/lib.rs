//! `neusight-router`: the L7 cluster front-end over `neusight serve`
//! replicas.
//!
//! The paper forecasts GPU performance so operators can plan clusters;
//! this crate makes the serving tier itself scale like one. A router
//! process fronts N serve replicas and:
//!
//! - routes `POST /v1/predict` by **consistent hashing** on the
//!   `(GPU, op family)` shard key ([`ring`]), so each replica's
//!   memoized prediction cache stays hot for its shard;
//! - tracks replica health with per-upstream circuit breakers, active
//!   `/healthz` probes, and decorrelated-jitter probe pacing
//!   ([`upstream`]); a failed replica is drained out of the ring
//!   (`router.rehash_total`) and its shard re-hashes onto survivors
//!   with the exact minimal-disruption property;
//! - fails over **within** a request — a request is answered 5xx only
//!   when no live replica remains — and propagates `X-Request-Id`
//!   trace stamps through the hop (`router.stage.route_ns`,
//!   `router.stage.upstream_wait_ns`);
//! - optionally warms a replica that (re)joins cold by gossiping hot
//!   cache entries from a live donor through the checksummed guard
//!   envelope ([`gossip`]);
//! - aggregates `/healthz` and `/metrics` across the fleet (upstream
//!   samples are re-labeled `replica="…"`).
//!
//! The front door runs on serve's epoll reactor
//! ([`neusight_serve::reactor`]): one loop thread serves every client
//! connection, and upstream forwarding happens as non-blocking exchanges
//! over pooled keep-alive sockets in the same epoll set. Linux only.
//!
//! The resilience tier makes the cluster self-healing:
//!
//! - **supervision** ([`supervisor`]): spawn-mode children that die are
//!   drained, respawned on fresh ephemeral ports within a bounded
//!   restart budget, re-probed back into the ring, and gossip-warmed;
//! - **deadline propagation**: the client's `X-Deadline-Ms` budget
//!   shrinks by measured elapsed time at each hop and expired requests
//!   answer 504 without burning an upstream exchange;
//! - **hedged requests** ([`hedge`]): a primary slower than the live
//!   p99 gets one duplicate at the next ring owner — a second in-flight
//!   exchange; the first good answer wins and the loser's socket is
//!   closed — capped by a token budget shared with failure retries;
//! - **adaptive shedding**: replica queue-sojourn (CoDel-style) drives
//!   a brownout tier (degraded roofline answers) and, at 2× the target,
//!   router-side 503s with an honest `Retry-After`.
//!
//! Chaos coverage rides the deterministic failpoints
//! `router.upstream.{connect,read,slow}`.
//!
//! ```no_run
//! use neusight_router::{Router, RouterConfig};
//! # fn demo() -> std::io::Result<()> {
//! let config = RouterConfig {
//!     upstreams: vec![
//!         ("replica-0".into(), "127.0.0.1:8784".parse().unwrap()),
//!         ("replica-1".into(), "127.0.0.1:8785".parse().unwrap()),
//!     ],
//!     ..RouterConfig::default()
//! };
//! let router = Router::bind(config)?;
//! println!("routing on http://{}", router.local_addr());
//! router.run()
//! # }
//! ```

mod front;
pub mod gossip;
pub mod hedge;
pub mod proxy;
pub mod ring;
pub mod supervisor;
pub mod upstream;

pub use hedge::{HedgeConfig, Hedger};
pub use proxy::{Router, RouterConfig, RouterHandle, RunningRouter};
pub use ring::{HashRing, RouteKey, VNODES};
pub use supervisor::{ChildProcess, Supervisor, SupervisorConfig};
pub use upstream::{Fleet, Upstream, FLAP_THRESHOLD};

/// Serializes tests that move the process-global router counters
/// (`router.rehash_total` and friends) while obs is enabled.
#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    pub fn hold() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

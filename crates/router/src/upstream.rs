//! Replica fleet state: per-upstream health, the shared hash ring, and
//! the active `/healthz` prober.
//!
//! Health has two inputs — forwarding failures (a proxy exchange that
//! errored or answered 5xx) and active probes — and one output: ring
//! membership. A forwarding failure is hard evidence (a real request
//! died) and drains the replica immediately; probe evidence is **flap
//! damped** — [`FLAP_THRESHOLD`] consecutive probe failures before a
//! drain, and the same run of consecutive successes before readmission
//! — so a GC-pause-length stall costs one slow probe, not a full
//! re-hash. A per-upstream [`CircuitBreaker`] tracks the failure
//! run-lengths and shows up in the aggregated health page, and probe
//! pacing for downed replicas rides a decorrelated-jitter backoff per
//! replica (`Probes`).
//!
//! Addresses are mutable: a supervised replica that dies and respawns
//! comes back on a *new* ephemeral port under its old ring name, so the
//! keyspace it owned re-converges onto the same shard. [`Fleet`] bumps a
//! generation counter on every address change; the prober rebuilds its
//! probe connections when the generation moves.

use crate::ring::{HashRing, RouteKey};
use neusight_fault::{Backoff, BreakerConfig, CircuitBreaker};
use neusight_obs as obs;
use neusight_serve::{Client, ClientResponse};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Consecutive probe observations required to flip ring membership in
/// either direction.
pub const FLAP_THRESHOLD: u32 = 3;

/// One serve replica as the router sees it.
pub struct Upstream {
    /// Stable ring identity (`replica-0`, …) — never the socket address,
    /// which is ephemeral in spawn mode and would make routing depend on
    /// OS port assignment.
    pub name: String,
    /// Where the replica listens (mutable: a supervised restart lands on
    /// a fresh ephemeral port).
    addr: Mutex<SocketAddr>,
    /// Trips on consecutive forward/probe failures.
    pub breaker: CircuitBreaker,
    healthy: AtomicBool,
    /// Consecutive probe failures since the last probe success.
    probe_failures: AtomicU32,
    /// Consecutive probe successes since the last probe failure.
    probe_successes: AtomicU32,
    /// Latest queue-sojourn congestion signal (ms) parsed from the
    /// replica's `/healthz` by the prober; feeds the shed controller.
    sojourn_ms: AtomicU64,
}

impl Upstream {
    fn new(name: String, addr: SocketAddr) -> Upstream {
        let breaker =
            CircuitBreaker::new(&format!("router.upstream.{name}"), BreakerConfig::default());
        Upstream {
            name,
            addr: Mutex::new(addr),
            breaker,
            healthy: AtomicBool::new(true),
            probe_failures: AtomicU32::new(0),
            probe_successes: AtomicU32::new(0),
            sojourn_ms: AtomicU64::new(0),
        }
    }

    /// Whether the replica is currently in the ring.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// The replica's current socket address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        *neusight_guard::recover_poison(self.addr.lock())
    }

    /// The replica's last-probed queue sojourn (ms).
    #[must_use]
    pub fn sojourn_ms(&self) -> u64 {
        self.sojourn_ms.load(Ordering::Relaxed)
    }
}

/// The ring of live upstreams, with each member's upstream at the
/// member's index, so a route is a lookup, not a name search.
struct Live {
    ring: HashRing,
    owners: Vec<Arc<Upstream>>,
}

impl Live {
    /// Re-aligns `owners` with the ring's members after a change.
    fn align(&mut self, upstreams: &[Arc<Upstream>]) {
        self.owners = (self.ring.members().iter())
            .filter_map(|name| upstreams.iter().find(|u| u.name == *name).cloned())
            .collect();
    }
}

/// The fleet: every configured upstream plus the ring of live ones.
pub struct Fleet {
    upstreams: Vec<Arc<Upstream>>,
    live: Mutex<Live>,
    /// Bumped on every address change so address-keyed caches (the
    /// prober's probe connections) know to rebuild.
    addr_generation: AtomicU64,
}

impl Fleet {
    /// Builds a fleet with every upstream initially live.
    #[must_use]
    pub fn new(upstreams: Vec<(String, SocketAddr)>) -> Fleet {
        let upstreams: Vec<Arc<Upstream>> = upstreams
            .into_iter()
            .map(|(name, addr)| Arc::new(Upstream::new(name, addr)))
            .collect();
        let mut live = Live {
            ring: HashRing::new(upstreams.iter().map(|u| u.name.clone())),
            owners: Vec::new(),
        };
        live.align(&upstreams);
        Fleet {
            upstreams,
            live: Mutex::new(live),
            addr_generation: AtomicU64::new(0),
        }
    }

    /// All configured upstreams (live or not), in configuration order.
    #[must_use]
    pub fn upstreams(&self) -> &[Arc<Upstream>] {
        &self.upstreams
    }

    /// The upstream with the given ring name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Upstream>> {
        self.upstreams.iter().find(|u| u.name == name).cloned()
    }

    /// Number of upstreams currently in the ring.
    #[must_use]
    pub fn live_count(&self) -> usize {
        neusight_guard::recover_poison(self.live.lock()).ring.len()
    }

    /// Routes a key to its live owner.
    #[must_use]
    pub fn route(&self, key: &RouteKey) -> Option<Arc<Upstream>> {
        let live = neusight_guard::recover_poison(self.live.lock());
        Some(Arc::clone(&live.owners[live.ring.owner(key)?]))
    }

    /// The *hedge target* for a key: the next distinct live ring owner
    /// after the primary — where a duplicate of a slow request goes.
    #[must_use]
    pub fn route_successor(&self, key: &RouteKey) -> Option<Arc<Upstream>> {
        let live = neusight_guard::recover_poison(self.live.lock());
        Some(Arc::clone(&live.owners[live.ring.successor(key)?]))
    }

    /// Any live upstream (for shard-agnostic passthrough routes).
    #[must_use]
    pub fn any_live(&self) -> Option<Arc<Upstream>> {
        self.upstreams.iter().find(|u| u.is_healthy()).cloned()
    }

    /// Rebinds a (restarted) replica to a new address under its old ring
    /// name and bumps the address generation. Routing is untouched —
    /// names, not addresses, own keyspace.
    pub fn set_addr(&self, name: &str, addr: SocketAddr) {
        if let Some(up) = self.get(name) {
            *neusight_guard::recover_poison(up.addr.lock()) = addr;
            // A new address means a new process: the breaker state
            // describes the dead predecessor, not the fresh child —
            // without a reset the respawn would sit out the predecessor's
            // cooldown before taking traffic.
            up.breaker.reset();
            self.addr_generation.fetch_add(1, Ordering::SeqCst);
            obs::event!("router_upstream_readdressed", replica = name);
        }
    }

    /// Current address generation (bumped by [`Fleet::set_addr`]).
    #[must_use]
    pub fn addr_generation(&self) -> u64 {
        self.addr_generation.load(Ordering::SeqCst)
    }

    /// Takes a replica out of the ring (drain): its keyspace re-hashes
    /// onto the survivors. Idempotent; counts `router.rehash_total` only
    /// on an actual transition. Returns whether the membership changed.
    pub fn mark_down(&self, name: &str) -> bool {
        let removed = {
            // The healthy flag flips inside the ring critical section:
            // flag and membership must never be observed out of sync (a
            // healthy-but-ringless replica would be skipped by the
            // prober's readmission check forever).
            let mut live = neusight_guard::recover_poison(self.live.lock());
            let removed = live.ring.remove(name);
            if removed {
                live.align(&self.upstreams);
                if let Some(up) = self.get(name) {
                    up.healthy.store(false, Ordering::SeqCst);
                }
            }
            removed
        };
        if removed {
            obs::metrics::counter("router.rehash_total").inc();
            obs::metrics::counter("router.upstream.marked_down").inc();
            obs::event!("router_upstream_down", replica = name);
        }
        removed
    }

    /// Puts a replica back in the ring: its shard re-hashes back onto
    /// it. Idempotent, and a no-op for a name outside the fleet; counts a
    /// re-hash only on an actual transition.
    pub fn mark_up(&self, name: &str) -> bool {
        let inserted = {
            // Same atomicity contract as `mark_down`.
            let Some(up) = self.get(name) else {
                return false;
            };
            let mut live = neusight_guard::recover_poison(self.live.lock());
            let inserted = live.ring.insert(name);
            if inserted {
                live.align(&self.upstreams);
                up.healthy.store(true, Ordering::SeqCst);
            }
            inserted
        };
        if inserted {
            obs::metrics::counter("router.rehash_total").inc();
            obs::metrics::counter("router.upstream.marked_up").inc();
            obs::event!("router_upstream_up", replica = name);
        }
        inserted
    }
}

/// Parses the `"sojourn_ms":N` field out of a replica's `/healthz` body
/// without a full JSON decode (the prober runs 10×/s per replica).
#[must_use]
pub(crate) fn parse_sojourn_ms(body: &str) -> Option<u64> {
    let rest = body.split("\"sojourn_ms\":").nth(1)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The prober's keep-alive connection to each replica. A failed probe
/// drops the connection (the next one redials) and opens a
/// decorrelated-jitter backoff window (25 ms growing to 2 s), so dead
/// replicas are probed at a decorrelated pace, not in lockstep.
pub(crate) struct Probes {
    timeout: Duration,
    probes: Vec<Probe>,
}

struct Probe {
    addr: SocketAddr,
    client: Option<Client>,
    backoff: Backoff,
    retry_at: Option<Instant>,
}

impl Probes {
    /// Probes for the fleet's current addresses; nothing is dialed until
    /// the first exchange. `timeout` bounds connects and reads.
    pub(crate) fn new(fleet: &Fleet, timeout: Duration) -> Probes {
        let (base, cap) = (Duration::from_millis(25), Duration::from_secs(2));
        let probes = (fleet.upstreams().iter().enumerate())
            .map(|(seed, upstream)| Probe {
                addr: upstream.addr(),
                client: None,
                backoff: Backoff::new(base, cap, seed as u64),
                retry_at: None,
            })
            .collect();
        Probes { timeout, probes }
    }

    /// Whether replica `index` is outside its failure-backoff window.
    fn ready(&self, index: usize) -> bool {
        self.probes[index]
            .retry_at
            .is_none_or(|at| Instant::now() >= at)
    }

    /// One exchange with replica `index`, dialing if necessary.
    pub(crate) fn exchange(
        &mut self,
        index: usize,
        run: impl FnOnce(&mut Client) -> io::Result<ClientResponse>,
    ) -> io::Result<ClientResponse> {
        let probe = &mut self.probes[index];
        let attempt = match probe.client.take() {
            Some(client) => Ok(client),
            None => Client::connect_timeout(probe.addr, self.timeout),
        }
        .and_then(|mut client| Ok((run(&mut client)?, client)));
        match attempt {
            Ok((response, client)) => {
                (probe.client, probe.retry_at) = (Some(client), None);
                Ok(response)
            }
            Err(e) => {
                probe.retry_at = Some(Instant::now() + probe.backoff.next_delay());
                Err(e)
            }
        }
    }
}

/// One pass of the active prober: probes every upstream that is outside
/// its backoff window, feeds the per-upstream breaker, and flips ring
/// membership on *damped* transitions — [`FLAP_THRESHOLD`] consecutive
/// probe failures to drain, the same run of successes to readmit.
/// Returns the names of replicas that just came (back) up — the caller
/// may gossip-warm them.
pub(crate) fn probe_fleet(fleet: &Fleet, probes: &mut Probes) -> Vec<String> {
    let mut recovered = Vec::new();
    for (index, upstream) in fleet.upstreams().iter().enumerate() {
        if !probes.ready(index) {
            continue;
        }
        match probes.exchange(index, |client| client.get("/healthz")) {
            Ok(response) if response.status == 200 => {
                // The probe doubles as the breaker's trial request: it
                // moves an Open breaker to HalfOpen once the cooldown
                // elapses, and the success below closes it. Readmission
                // is gated on the breaker admitting traffic — putting a
                // replica back in the ring while its breaker still
                // short-circuits would drain it right back out.
                let admitted = upstream.breaker.allow();
                upstream.breaker.record_success();
                if let Some(sojourn) = parse_sojourn_ms(&response.text()) {
                    upstream.sojourn_ms.store(sojourn, Ordering::Relaxed);
                }
                upstream.probe_failures.store(0, Ordering::SeqCst);
                let run = upstream.probe_successes.fetch_add(1, Ordering::SeqCst) + 1;
                if upstream.is_healthy() {
                    continue;
                }
                if admitted && run >= FLAP_THRESHOLD && fleet.mark_up(&upstream.name) {
                    recovered.push(upstream.name.clone());
                }
            }
            _ => {
                upstream.breaker.record_failure();
                upstream.probe_successes.store(0, Ordering::SeqCst);
                let run = upstream.probe_failures.fetch_add(1, Ordering::SeqCst) + 1;
                if run >= FLAP_THRESHOLD {
                    fleet.mark_down(&upstream.name);
                } else {
                    obs::metrics::counter("router.probe.flap_suppressed").inc();
                }
            }
        }
    }
    recovered
}

/// Interval between prober passes while everything is healthy; downed
/// replicas are additionally paced by the per-endpoint backoff.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(100);

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_fault::BreakerState;

    fn fleet_of(n: usize) -> Fleet {
        Fleet::new(
            (0..n)
                .map(|i| {
                    (
                        format!("replica-{i}"),
                        format!("127.0.0.1:{}", 9000 + i).parse().unwrap(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn mark_down_rehashes_once_and_survivors_take_over() {
        let _guard = crate::test_lock::hold();
        obs::set_enabled(true);
        let fleet = fleet_of(3);
        let rehash = obs::metrics::counter("router.rehash_total");
        let before = rehash.get();
        let key = RouteKey::new("V100", "gpt2");
        let owner = fleet.route(&key).expect("owner").name.clone();
        assert!(fleet.mark_down(&owner));
        assert!(!fleet.mark_down(&owner), "second mark_down is a no-op");
        assert_eq!(rehash.get(), before + 1);
        assert_eq!(fleet.live_count(), 2);
        let successor = fleet.route(&key).expect("successor");
        assert_ne!(successor.name, owner);
        assert!(!fleet.get(&owner).unwrap().is_healthy());
        // Recovery restores membership (one more re-hash).
        assert!(fleet.mark_up(&owner));
        assert_eq!(rehash.get(), before + 2);
        assert_eq!(fleet.route(&key).expect("owner again").name, owner);
    }

    #[test]
    fn all_down_routes_nowhere() {
        let _guard = crate::test_lock::hold();
        let fleet = fleet_of(2);
        assert!(fleet.mark_down("replica-0"));
        assert!(fleet.mark_down("replica-1"));
        assert!(fleet.route(&RouteKey::new("T4", "bert")).is_none());
        assert!(fleet.any_live().is_none());
    }

    #[test]
    fn hedge_target_is_a_distinct_live_replica() {
        let _guard = crate::test_lock::hold();
        let fleet = fleet_of(3);
        let key = RouteKey::new("V100", "gpt2");
        let owner = fleet.route(&key).expect("owner").name.clone();
        let hedge = fleet.route_successor(&key).expect("hedge target");
        assert_ne!(hedge.name, owner);
        // With the owner drained, the hedge target inherits the key.
        assert!(fleet.mark_down(&owner));
        assert_eq!(fleet.route(&key).expect("new owner").name, hedge.name);
    }

    #[test]
    fn set_addr_bumps_generation_and_keeps_routing() {
        let fleet = fleet_of(2);
        let key = RouteKey::new("T4", "bert");
        let owner = fleet.route(&key).expect("owner").name.clone();
        let generation = fleet.addr_generation();
        let fresh: SocketAddr = "127.0.0.1:19999".parse().unwrap();
        fleet.set_addr(&owner, fresh);
        assert_eq!(fleet.addr_generation(), generation + 1);
        assert_eq!(fleet.get(&owner).unwrap().addr(), fresh);
        // Routing is name-keyed: the re-addressed replica keeps its shard.
        assert_eq!(fleet.route(&key).expect("owner").name, owner);
    }

    #[test]
    fn set_addr_resets_the_breaker_for_the_fresh_process() {
        let fleet = fleet_of(2);
        let up = fleet.get("replica-0").unwrap();
        // Trip the breaker the way a dying replica would: a run of
        // forwarding failures past the threshold.
        for _ in 0..10 {
            up.breaker.record_failure();
        }
        assert_eq!(up.breaker.state(), BreakerState::Open);
        assert!(!up.breaker.allow(), "open breaker short-circuits");
        // The supervisor respawns the replica on a new port: the breaker
        // state described the dead predecessor, so rebinding must reset
        // it — otherwise the fresh child sits out the old cooldown.
        fleet.set_addr("replica-0", "127.0.0.1:18888".parse().unwrap());
        assert_eq!(up.breaker.state(), BreakerState::Closed);
        assert!(up.breaker.allow(), "fresh process takes traffic at once");
        // An unknown name is a no-op, not a panic.
        fleet.set_addr("replica-99", "127.0.0.1:18889".parse().unwrap());
    }

    /// A dead replica's failed probes leave the live one's connection
    /// and pacing untouched.
    #[test]
    fn probes_isolate_per_replica_failure_state() {
        // Bind-then-drop: the port is (almost certainly) closed, so the
        // connect fails fast with a refusal rather than a timeout.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let live_listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let live = live_listener.local_addr().unwrap();
        let fleet = Fleet::new(vec![("replica-0".into(), dead), ("replica-1".into(), live)]);
        let mut probes = Probes::new(&fleet, Duration::from_millis(250));
        assert_eq!(probes.probes[0].addr, dead);
        assert!(probes.ready(0) && probes.ready(1));

        assert!(probes.exchange(0, |c| c.get("/healthz")).is_err());
        assert!(
            probes.probes[0].retry_at.is_some(),
            "a failure opens a backoff window"
        );
        assert!(probes.exchange(0, |c| c.get("/healthz")).is_err());
        assert!(probes.probes[0].client.is_none());
        // The live replica never failed, so it carries no backoff.
        assert!(probes.probes[1].retry_at.is_none());
        assert!(probes.ready(1));
    }

    #[test]
    fn sojourn_parses_from_healthz_body() {
        assert_eq!(
            parse_sojourn_ms("{\"status\":\"ok\",\"sojourn_ms\":42,\"brownout\":false}"),
            Some(42)
        );
        assert_eq!(parse_sojourn_ms("{\"sojourn_ms\":0}"), Some(0));
        assert_eq!(parse_sojourn_ms("{\"status\":\"ok\"}"), None);
    }
}

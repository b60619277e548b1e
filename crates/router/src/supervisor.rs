//! Replica supervision: restart dead spawn-mode children, bounded by a
//! per-slot restart budget.
//!
//! In spawn mode the router owns its replicas' lifecycle, so a replica
//! that dies (OOM kill, `kill -9`, a panic that escapes the serve tier's
//! own supervision) is the router's problem to fix. The supervisor polls
//! each child (`waitpid`-shaped: [`ChildProcess::poll_exited`]), and on
//! death:
//!
//! 1. drains the replica out of the ring immediately ([`Fleet::mark_down`])
//!    so no request waits on a corpse;
//! 2. schedules a respawn after a decorrelated-jitter backoff delay —
//!    crash loops must not busy-spin `fork`;
//! 3. respawns through a caller-supplied closure, which starts a fresh
//!    `serve --port 0` child on a **new ephemeral port** (never the old
//!    one: the dead socket may linger in `TIME_WAIT`), and rebinds the
//!    replica's ring name to that port ([`Fleet::set_addr`]).
//!
//! Readmission to the ring is *not* the supervisor's job: the active
//! prober readmits the replica once it answers [`FLAP_THRESHOLD`]
//! consecutive health probes, and gossip-warms its cache — the same path
//! as any other recovery. Each slot gets a bounded restart budget
//! (default 5); a replica that keeps dying is abandoned with a loud
//! counter instead of being restarted forever.
//!
//! [`FLAP_THRESHOLD`]: crate::upstream::FLAP_THRESHOLD

use crate::upstream::Fleet;
use neusight_fault::Backoff;
use neusight_obs as obs;
use std::io;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

/// Supervision tuning.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Restarts allowed per replica slot before it is abandoned.
    pub restart_budget: u32,
    /// How often children are polled for death.
    pub poll_interval: Duration,
    /// Base delay before a respawn (decorrelated jitter grows from
    /// here).
    pub backoff_base: Duration,
    /// Cap on the respawn delay.
    pub backoff_cap: Duration,
    /// Jitter seed (deterministic per run).
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            restart_budget: 5,
            poll_interval: Duration::from_millis(20),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            seed: 0x5eed_cafe,
        }
    }
}

/// What the supervisor needs from a child: a non-blocking liveness poll.
/// `std::process::Child` is the real implementation; tests use fakes.
pub trait ChildProcess {
    /// Returns `true` once the child has exited (must not block).
    fn poll_exited(&mut self) -> bool;
}

impl ChildProcess for std::process::Child {
    fn poll_exited(&mut self) -> bool {
        // An error from waitpid means we cannot learn the status —
        // treat as exited only on a definite answer.
        matches!(self.try_wait(), Ok(Some(_)))
    }
}

/// One supervised replica slot.
struct Slot<C> {
    name: String,
    child: Option<C>,
    restarts: u32,
    exhausted: bool,
    backoff: Backoff,
    respawn_at: Option<Instant>,
}

/// The supervisor: polls children, drains dead ones, respawns within
/// budget.
pub struct Supervisor<C: ChildProcess> {
    slots: Vec<Slot<C>>,
    config: SupervisorConfig,
}

impl<C: ChildProcess> Supervisor<C> {
    /// Adopts the given `(ring name, child)` pairs.
    #[must_use]
    pub fn new(children: Vec<(String, C)>, config: SupervisorConfig) -> Supervisor<C> {
        let slots = children
            .into_iter()
            .enumerate()
            .map(|(index, (name, child))| Slot {
                name,
                child: Some(child),
                restarts: 0,
                exhausted: false,
                backoff: Backoff::new(
                    config.backoff_base,
                    config.backoff_cap,
                    config.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ),
                respawn_at: None,
            })
            .collect();
        Supervisor { slots, config }
    }

    /// Total restarts performed so far.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.slots.iter().map(|s| s.restarts).sum()
    }

    /// Slots abandoned after exhausting their restart budget.
    #[must_use]
    pub fn exhausted(&self) -> usize {
        self.slots.iter().filter(|s| s.exhausted).count()
    }

    /// One poll pass: reap deaths, drain them from the ring, respawn
    /// slots whose backoff delay has elapsed. `respawn(slot_index)`
    /// must start a fresh child and report its (new) address.
    pub fn tick(
        &mut self,
        fleet: &Fleet,
        respawn: &mut dyn FnMut(usize) -> io::Result<(C, SocketAddr)>,
    ) {
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if let Some(child) = slot.child.as_mut() {
                if !child.poll_exited() {
                    continue;
                }
                slot.child = None;
                obs::metrics::counter("router.supervisor.deaths").inc();
                obs::event!("router_replica_died", replica = &slot.name);
                fleet.mark_down(&slot.name);
                if slot.restarts >= self.config.restart_budget {
                    slot.exhausted = true;
                    obs::metrics::counter("router.supervisor.exhausted").inc();
                    obs::event!("router_restart_budget_exhausted", replica = &slot.name);
                } else {
                    slot.respawn_at = Some(Instant::now() + slot.backoff.next_delay());
                }
                continue;
            }
            let due = match slot.respawn_at {
                Some(at) if !slot.exhausted => at,
                _ => continue,
            };
            if Instant::now() < due {
                continue;
            }
            slot.respawn_at = None;
            slot.restarts += 1;
            match respawn(index) {
                Ok((child, addr)) => {
                    slot.child = Some(child);
                    fleet.set_addr(&slot.name, addr);
                    obs::metrics::counter("router.supervisor.restarts").inc();
                    obs::event!(
                        "router_replica_restarted",
                        replica = &slot.name,
                        restarts = slot.restarts
                    );
                }
                Err(e) => {
                    obs::metrics::counter("router.supervisor.respawn_failures").inc();
                    obs::event!("router_respawn_failed", replica = &slot.name, error = e);
                    if slot.restarts >= self.config.restart_budget {
                        slot.exhausted = true;
                        obs::metrics::counter("router.supervisor.exhausted").inc();
                    } else {
                        slot.respawn_at = Some(Instant::now() + slot.backoff.next_delay());
                    }
                }
            }
        }
    }

    /// Polls until `stop()`, then hands the surviving children back to
    /// the caller (which owns graceful termination).
    pub fn run(
        mut self,
        fleet: &Fleet,
        mut respawn: impl FnMut(usize) -> io::Result<(C, SocketAddr)>,
        stop: impl Fn() -> bool,
    ) -> Vec<(String, C)> {
        while !stop() {
            self.tick(fleet, &mut respawn);
            thread::sleep(self.config.poll_interval);
        }
        self.into_children()
    }

    /// The currently-live children, by ring name.
    #[must_use]
    pub fn into_children(self) -> Vec<(String, C)> {
        self.slots
            .into_iter()
            .filter_map(|slot| slot.child.map(|child| (slot.name, child)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A fake child whose death is a shared flag the test flips.
    struct FakeChild {
        dead: Arc<AtomicBool>,
    }

    impl ChildProcess for FakeChild {
        fn poll_exited(&mut self) -> bool {
            self.dead.load(Ordering::SeqCst)
        }
    }

    fn fleet_of(n: usize) -> Fleet {
        Fleet::new(
            (0..n)
                .map(|i| {
                    (
                        format!("replica-{i}"),
                        format!("127.0.0.1:{}", 9100 + i).parse().unwrap(),
                    )
                })
                .collect(),
        )
    }

    fn fast_config(budget: u32) -> SupervisorConfig {
        SupervisorConfig {
            restart_budget: budget,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn a_dead_child_is_drained_and_respawned_on_a_new_address() {
        let _guard = crate::test_lock::hold();
        let fleet = fleet_of(2);
        let dead = Arc::new(AtomicBool::new(false));
        let children = vec![
            (
                "replica-0".to_owned(),
                FakeChild {
                    dead: Arc::clone(&dead),
                },
            ),
            (
                "replica-1".to_owned(),
                FakeChild {
                    dead: Arc::new(AtomicBool::new(false)),
                },
            ),
        ];
        let mut supervisor = Supervisor::new(children, fast_config(3));
        let fresh: SocketAddr = "127.0.0.1:19100".parse().unwrap();
        let mut respawned = Vec::new();
        let mut respawn = |index: usize| {
            respawned.push(index);
            Ok((
                FakeChild {
                    dead: Arc::new(AtomicBool::new(false)),
                },
                fresh,
            ))
        };

        supervisor.tick(&fleet, &mut respawn);
        assert!(fleet.get("replica-0").unwrap().is_healthy(), "alive: no-op");

        dead.store(true, Ordering::SeqCst);
        supervisor.tick(&fleet, &mut respawn);
        assert!(
            !fleet.get("replica-0").unwrap().is_healthy(),
            "death drains the replica immediately"
        );
        assert_eq!(supervisor.restarts(), 0, "respawn waits out the backoff");

        // Wait past the (1-2 ms) jittered backoff, then tick again.
        thread::sleep(Duration::from_millis(5));
        supervisor.tick(&fleet, &mut respawn);
        assert_eq!(respawned, vec![0], "only the dead slot respawns");
        assert_eq!(supervisor.restarts(), 1);
        assert_eq!(
            fleet.get("replica-0").unwrap().addr(),
            fresh,
            "the ring name follows the child to its new port"
        );
        // Readmission is the prober's job — still drained here.
        assert!(!fleet.get("replica-0").unwrap().is_healthy());
    }

    #[test]
    fn the_restart_budget_bounds_a_crash_loop() {
        let _guard = crate::test_lock::hold();
        let fleet = fleet_of(1);
        let dead = Arc::new(AtomicBool::new(true));
        let children = vec![(
            "replica-0".to_owned(),
            FakeChild {
                dead: Arc::clone(&dead),
            },
        )];
        let mut supervisor = Supervisor::new(children, fast_config(2));
        let mut respawn = |_| {
            // Every respawned child is born dead: a crash loop.
            Ok((
                FakeChild {
                    dead: Arc::clone(&dead),
                },
                "127.0.0.1:19101".parse().unwrap(),
            ))
        };
        for _ in 0..50 {
            supervisor.tick(&fleet, &mut respawn);
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(supervisor.restarts(), 2, "budget caps the loop");
        assert_eq!(supervisor.exhausted(), 1);
        assert!(!fleet.get("replica-0").unwrap().is_healthy());
    }

    #[test]
    fn respawn_errors_spend_budget_and_back_off() {
        let _guard = crate::test_lock::hold();
        let fleet = fleet_of(1);
        let children = vec![(
            "replica-0".to_owned(),
            FakeChild {
                dead: Arc::new(AtomicBool::new(true)),
            },
        )];
        let mut supervisor = Supervisor::new(children, fast_config(1));
        let mut attempts = 0u32;
        let mut respawn = |_| {
            attempts += 1;
            Err(io::Error::other("fork failed"))
        };
        for _ in 0..50 {
            supervisor.tick(&fleet, &mut respawn);
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(attempts, 1, "one failed respawn exhausts a budget of 1");
        assert_eq!(supervisor.exhausted(), 1);
    }
}

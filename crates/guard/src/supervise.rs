//! Panic supervision: run untrusted units of work under `catch_unwind`,
//! restart crashed long-lived workers under a bounded budget, and
//! recover poisoned locks with accounting.

use neusight_obs as obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};

/// The chaos failpoint evaluated by [`inject_panic`]. Arm it (e.g.
/// `guard.panic=0.05`) to make supervised workers panic on purpose and
/// prove the service degrades to per-request 500s instead of dying.
pub const PANIC_POINT: &str = "guard.panic";

fn panics_total() -> &'static Arc<obs::Counter> {
    static CELL: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    CELL.get_or_init(|| obs::metrics::counter(crate::metric_names::PANICS))
}

fn restarts_total() -> &'static Arc<obs::Counter> {
    static CELL: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    CELL.get_or_init(|| obs::metrics::counter(crate::metric_names::WORKER_RESTARTS))
}

fn poison_recoveries_total() -> &'static Arc<obs::Counter> {
    static CELL: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    CELL.get_or_init(|| obs::metrics::counter(crate::metric_names::LOCK_POISON_RECOVERIES))
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f`, converting a panic into `Err(message)` and counting it
/// under `guard.panics.total`.
///
/// The closure is wrapped in `AssertUnwindSafe`: supervised units in
/// this codebase either own their state or share it behind locks whose
/// poisoning is recovered (and counted) by [`recover_poison`], so
/// observing state from before the panic is safe by construction.
///
/// # Errors
///
/// Returns the panic message when `f` panicked.
pub fn catch<T>(label: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            panics_total().inc();
            eprintln!("neusight-guard: caught panic in `{label}`: {message}");
            // Preserve the evidence: dump the flight recorder (when obs
            // is on and traces exist) so the requests leading up to the
            // panic survive for post-mortem analysis.
            if let Some(path) = obs::trace::dump_on_panic() {
                eprintln!(
                    "neusight-guard: flight recorder dumped to {}",
                    path.display()
                );
            }
            Err(message)
        }
    }
}

/// Evaluates the [`PANIC_POINT`] failpoint and panics if it fires as a
/// failure. Call sites place this *inside* a [`catch`]-supervised
/// closure; the panic then exercises the real recovery path.
pub fn inject_panic() {
    if neusight_fault::armed() {
        if let Some(injected) = neusight_fault::check(PANIC_POINT) {
            injected.sleep();
            if injected.fail {
                panic!("injected panic at failpoint `{PANIC_POINT}`");
            }
        }
    }
}

/// Restart supervision for a long-lived worker (the serve dispatcher,
/// an accept loop): reruns the worker after each panic until it returns
/// normally or the restart budget is exhausted.
#[derive(Debug)]
pub struct Supervisor {
    name: String,
    restart_budget: u32,
    restarts: AtomicU32,
}

impl Supervisor {
    /// A supervisor that restarts `name` at most `restart_budget` times.
    #[must_use]
    pub fn new(name: &str, restart_budget: u32) -> Supervisor {
        Supervisor {
            name: name.to_owned(),
            restart_budget,
            restarts: AtomicU32::new(0),
        }
    }

    /// Restarts performed so far.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Runs `f` to completion, restarting it after each panic. Returns
    /// `Some` with the worker's normal return value, or `None` when the
    /// restart budget is exhausted (the worker is then left dead — the
    /// caller decides whether that is fatal).
    pub fn supervise<T>(&self, mut f: impl FnMut() -> T) -> Option<T> {
        loop {
            match catch(&self.name, &mut f) {
                Ok(value) => return Some(value),
                Err(message) => {
                    let used = self.restarts.fetch_add(1, Ordering::Relaxed) + 1;
                    if used > self.restart_budget {
                        eprintln!(
                            "neusight-guard: worker `{}` exceeded restart budget ({}): {message}",
                            self.name, self.restart_budget
                        );
                        return None;
                    }
                    restarts_total().inc();
                    eprintln!(
                        "neusight-guard: restarting worker `{}` ({used}/{})",
                        self.name, self.restart_budget
                    );
                }
            }
        }
    }
}

/// Recovers a possibly poisoned lock acquisition, counting recoveries
/// under `guard.lock.poison.recoveries.total`. A poisoned mutex only
/// means some thread panicked while holding it; every structure we
/// guard this way is left in a consistent state by construction (state
/// transitions happen after the fallible work), so continuing is safe
/// and losing the whole server over it is not.
pub fn recover_poison<G>(result: Result<G, PoisonError<G>>) -> G {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => {
            poison_recoveries_total().inc();
            poisoned.into_inner()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn catch_returns_value_on_success() {
        assert_eq!(catch("ok", || 7), Ok(7));
    }

    #[test]
    fn catch_converts_panic_to_error() {
        let _guard = crate::test_lock::hold();
        let err = catch("boom", || panic!("exploded: {}", 42)).unwrap_err();
        assert!(err.contains("exploded: 42"), "{err}");
    }

    #[test]
    fn catch_counts_panics_when_obs_enabled() {
        let _guard = crate::test_lock::hold();
        obs::reset();
        obs::set_enabled(true);
        let before = panics_total().get();
        let _ = catch("counted", || panic!("count me"));
        assert_eq!(panics_total().get(), before + 1);
        obs::set_enabled(false);
    }

    #[test]
    fn supervisor_restarts_until_success() {
        let _guard = crate::test_lock::hold();
        let supervisor = Supervisor::new("flappy", 5);
        let mut attempts = 0;
        let result = supervisor.supervise(|| {
            attempts += 1;
            assert!(attempts >= 3, "attempt {attempts} dies");
            "done"
        });
        assert_eq!(result, Some("done"));
        assert_eq!(supervisor.restarts(), 2);
    }

    #[test]
    fn supervisor_gives_up_after_budget() {
        let _guard = crate::test_lock::hold();
        let supervisor = Supervisor::new("doomed", 2);
        let result: Option<()> = supervisor.supervise(|| panic!("always"));
        assert_eq!(result, None);
        assert_eq!(supervisor.restarts(), 3, "budget + the final attempt");
    }

    #[test]
    fn recover_poison_returns_inner_after_panic() {
        let _guard = crate::test_lock::hold();
        let lock = Mutex::new(1);
        let _ = catch("poisoner", || {
            let _guard = lock.lock().unwrap();
            panic!("poison it");
        });
        assert!(lock.is_poisoned());
        let guard = recover_poison(lock.lock());
        assert_eq!(*guard, 1);
    }

    #[test]
    fn inject_panic_is_noop_when_disarmed() {
        let _guard = crate::test_lock::hold();
        inject_panic(); // must not panic
    }

    #[test]
    fn inject_panic_fires_when_armed() {
        let _guard = crate::test_lock::hold();
        let spec: neusight_fault::FaultSpec = format!("{PANIC_POINT}=1.0:count=1").parse().unwrap();
        neusight_fault::configure(&spec, 3);
        let err = catch("injected", inject_panic).unwrap_err();
        neusight_fault::reset();
        assert!(err.contains(PANIC_POINT), "{err}");
    }
}

//! **neusight-guard**: hardening primitives for every trust boundary in
//! the NeuSight stack.
//!
//! The paper's central claim is that bounding MLP forecasts with GPU
//! performance laws keeps predictions sane even on unseen hardware. A
//! production deployment has three more boundaries where "sane" must be
//! enforced, not assumed:
//!
//! - **Process-internal** ([`supervise`]): worker threads (serve
//!   connection handlers, the dispatch loop, collection workers) run
//!   under `catch_unwind` so a panic becomes a JSON 500 or a retried
//!   unit of work instead of a dead thread. Crashed long-lived workers
//!   restart under a bounded budget. The `guard.panic` failpoint lets
//!   chaos tests kill workers on purpose and prove the service keeps
//!   answering.
//! - **Disk** ([`envelope`]): artifacts (predictor weights, datasets,
//!   training checkpoints) are wrapped in a versioned envelope —
//!   `magic + schema_version + payload_len + checksum + payload` —
//!   so a single flipped byte is detected at load time instead of
//!   producing plausible-but-wrong latencies. Legacy bare-JSON files
//!   still load, with a warning and a counter.
//! - **Network** ([`validate`]): request fields are validated at the
//!   entry point with field-level messages, so absurd sizes and
//!   non-finite dimensions become 422s, not 500s deep in the predictor.
//! - **Numeric** ([`law`]): every MLP latency prediction is checked
//!   against the roofline lower bound and the kernel-launch-overhead
//!   floor; violations are clamped and counted. This promotes the
//!   paper's bounding mechanism (Eq. 1) to a serving invariant: a
//!   corrupted predictor can never report a latency the hardware could
//!   not produce.
//!
//! All counters flow through `neusight-obs` and are no-ops while
//! observability is disabled; the *behavior* (clamping, catching,
//! recovering) is unconditional.

pub mod envelope;
pub mod law;
pub mod supervise;
pub mod validate;

pub use envelope::{write_artifact, Decoded, GuardError, SCHEMA_VERSION};
pub use law::enforce_floor;
pub use supervise::{catch, inject_panic, recover_poison, Supervisor, PANIC_POINT};
pub use validate::FieldError;

/// Metric names exported by this crate, in `neusight-obs` dot form.
/// Prometheus exposition mangles them to `neusight_guard_*`.
pub mod metric_names {
    /// Panics caught by [`crate::supervise::catch`].
    pub const PANICS: &str = "guard.panics.total";
    /// Long-lived workers restarted by a [`crate::Supervisor`].
    pub const WORKER_RESTARTS: &str = "guard.worker.restarts.total";
    /// Predictions clamped to the performance-law floor.
    pub const LAW_CLAMPS: &str = "guard.law.clamps.total";
    /// Legacy (bare JSON, unchecksummed) artifacts read through.
    pub const ARTIFACT_LEGACY: &str = "guard.artifact.legacy.total";
    /// Poisoned locks recovered via `PoisonError::into_inner`.
    pub const LOCK_POISON_RECOVERIES: &str = "guard.lock.poison.recoveries.total";
}

/// Serializes tests that mutate the process-global obs/fault state.
#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    pub fn hold() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn metric_names_are_dot_form() {
        for name in [
            super::metric_names::PANICS,
            super::metric_names::WORKER_RESTARTS,
            super::metric_names::LAW_CLAMPS,
            super::metric_names::ARTIFACT_LEGACY,
            super::metric_names::LOCK_POISON_RECOVERIES,
        ] {
            assert!(name.starts_with("guard."), "{name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '.'),
                "{name}"
            );
        }
    }
}

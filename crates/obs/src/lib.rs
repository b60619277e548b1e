//! **neusight-obs**: structured tracing, metrics, and profiling hooks for
//! the whole NeuSight prediction pipeline.
//!
//! The paper's pipeline (tile decomposition → per-tile MLP inference →
//! wave/roofline bounding → graph aggregation → distributed overlap) is a
//! multi-stage latency model: when a forecast is wrong, the only way to
//! find out *where* is per-stage visibility. This crate provides it with
//! zero external dependencies (not even the vendored ones), so every
//! workspace crate can depend on it without cycles:
//!
//! - **Spans** ([`span!`], [`SpanGuard`]): RAII-timed, nestable regions
//!   with key/value fields, collected thread-safely into a global
//!   recorder. Thread-local stacks track parent/child nesting.
//! - **Metrics** ([`metrics`]): a global registry of named [`Counter`]s,
//!   [`Gauge`]s, and log₂-bucketed [`Histogram`]s (prediction-cache
//!   hits/misses, GEMM dispatch counts, collector steals, per-family
//!   latency histograms, …).
//! - **Exporters** ([`export`]): JSON-lines span logs, Chrome
//!   `chrome://tracing` traces, and Prometheus-style text exposition.
//! - **Profiling** ([`profile`]): per-stage wall-time aggregation behind
//!   the CLI's `neusight profile` breakdown table.
//!
//! # The no-op fast path
//!
//! Observability is **off by default**. Every span constructor and metric
//! mutation first does one `Relaxed` load of a global [`AtomicBool`]; when
//! disabled, spans allocate nothing and counters skip their atomic RMW, so
//! instrumented hot paths (memoized `predict_graph`, the GEMM microkernel
//! driver) stay within noise of their uninstrumented selves. The CLI flips
//! the flag on for `--trace` / `--metrics` / `profile`. `neusight serve`
//! and `neusight router` keep it on for `/metrics` but switch spans off
//! ([`set_spans`]) unless `--trace` or `--trace-jsonl` asks for them.
//!
//! # Example
//!
//! ```
//! use neusight_obs as obs;
//!
//! obs::set_enabled(true);
//! {
//!     let _outer = obs::span!("predict_graph", gpu = "H100", nodes = 4);
//!     let _inner = obs::span!("batch_predict");
//!     obs::metrics::counter("example.kernels").add(4);
//! }
//! let spans = obs::take_spans();
//! assert_eq!(spans.len(), 2);
//! // Inner spans are recorded at drop time, before their parents.
//! assert_eq!(spans[0].name, "batch_predict");
//! assert_eq!(spans[0].parent, Some(spans[1].id));
//! assert_eq!(obs::metrics::counter("example.kernels").get(), 4);
//! obs::set_enabled(false);
//! obs::reset();
//! ```

pub mod export;
pub mod metrics;
pub mod profile;
mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram};
pub use span::{
    dropped_spans, event_with_fields, set_spans, snapshot_spans, span, span_recording,
    span_with_fields, take_spans, MAX_RETAINED_SPANS,
};
pub use span::{FieldList, SpanGuard, SpanRecord};
pub use trace::{Stage, TraceContext};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Master switch for the whole subsystem.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability is currently recording.
///
/// This is the single `Relaxed` load every instrumentation site pays when
/// the subsystem is disabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span and metric recording on or off (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Independent switch for per-request tracing (the [`trace`] module's
/// flight recorder, stage histograms, and slowest-K reservoir). **On by
/// default**: a server traces requests out of the box without dragging in
/// the full span/metric profiling stack, whose cost is only worth paying
/// in profiling runs. [`set_enabled`] implies tracing; this flag extends
/// it to processes that leave general observability off.
static TRACING: AtomicBool = AtomicBool::new(true);

/// Whether per-request tracing is recording (see [`set_tracing`]).
#[inline]
#[must_use]
pub fn tracing() -> bool {
    ENABLED.load(Ordering::Relaxed) || TRACING.load(Ordering::Relaxed)
}

/// Turns per-request tracing on or off independently of [`set_enabled`]
/// (on by default; ignored — effectively on — while the full subsystem is
/// enabled).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// The process-wide monotonic epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the first observability call in this
/// process. Saturates (rather than wraps) far beyond any realistic run.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Clears all recorded spans and zeroes every registered metric.
///
/// Metric *handles* stay valid: values are zeroed in place, so call sites
/// that cached an `Arc<Counter>` keep counting into the same cell.
pub fn reset() {
    span::clear_spans();
    metrics::reset();
    trace::reset_recorder();
}

/// Opens a timed span with key/value fields, e.g.
/// `span!("predict_op", gpu = spec.name(), family = class.name())`.
///
/// Field values are rendered with `format!("{}")` **only when enabled**;
/// when disabled the expansion is a single atomic load and a no-op guard.
/// Bind the result (`let _span = span!(…)`) — the span closes when the
/// guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::span_recording() {
            $crate::span_with_fields(
                $name,
                vec![$((stringify!($key), format!("{}", $value))),+],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

/// Records an instantaneous event (a zero-duration span), e.g.
/// `event!("cache_evicted", dropped = n)`.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event_with_fields($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::span_recording() {
            $crate::event_with_fields(
                $name,
                vec![$((stringify!($key), format!("{}", $value))),+],
            )
        }
    };
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that touch the global recorder/registry/flag.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_records_nothing() {
        let _guard = test_lock::hold();
        set_enabled(false);
        reset();
        {
            let _span = span!("invisible", detail = 42);
            event!("also_invisible");
            metrics::counter("obs.test.disabled").inc();
        }
        assert!(take_spans().is_empty());
        assert_eq!(metrics::counter("obs.test.disabled").get(), 0);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}

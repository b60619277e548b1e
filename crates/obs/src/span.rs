//! Timed, nestable spans collected into a process-global recorder.
//!
//! A [`SpanGuard`] measures the region between its construction and its
//! drop. Guards opened while another guard is live on the same thread
//! record that guard as their parent (a thread-local stack tracks the
//! lineage), so the exported trace reconstructs the full call tree.
//! Completed spans are appended to a mutex-guarded global vector; any
//! thread may record concurrently.

use crate::{enabled, now_ns};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Upper bound on retained spans. A long-lived process recording spans
/// (a server run with `--trace`) must not accumulate span records
/// without bound: once the recorder is full, new spans are counted in
/// [`dropped_spans`] but not stored, and guard creation degrades to a
/// single atomic load — the serving hot path stops paying for span
/// bookkeeping entirely once saturated. Draining ([`take_spans`], which `neusight profile` does
/// between measurements) or clearing ([`clear_spans`]) reopens the
/// recorder.
pub const MAX_RETAINED_SPANS: usize = 16_384;

/// Approximate count of retained spans, maintained outside the mutex so
/// the saturated fast path never locks.
static RETAINED_SPANS: AtomicUsize = AtomicUsize::new(0);
static DROPPED_SPANS: AtomicU64 = AtomicU64::new(0);

/// Spans discarded because the recorder was at [`MAX_RETAINED_SPANS`]
/// since the last drain/clear.
#[must_use]
pub fn dropped_spans() -> u64 {
    DROPPED_SPANS.load(Ordering::Relaxed)
}

/// Whether spans record while observability is enabled (on by default).
static SPANS: AtomicBool = AtomicBool::new(true);

/// Turns span recording on or off without touching metrics (on by
/// default). A long-lived server keeps metrics on for `/metrics` but
/// records spans only when it will export them: nothing else reads the
/// recorder, and a full one holds megabytes.
pub fn set_spans(on: bool) {
    SPANS.store(on, Ordering::Relaxed);
}

/// True while observability is enabled, spans are on ([`set_spans`]) and
/// the recorder has room; on saturation the would-be span is counted as
/// dropped and the caller skips it entirely (one relaxed load plus one
/// increment per suppressed span). The `span!`/`event!` macros call this
/// before rendering field values, so a saturated recorder also skips the
/// per-field `format!` allocations.
#[inline]
#[must_use]
pub fn span_recording() -> bool {
    if !enabled() || !SPANS.load(Ordering::Relaxed) {
        return false;
    }
    if RETAINED_SPANS.load(Ordering::Relaxed) < MAX_RETAINED_SPANS {
        return true;
    }
    DROPPED_SPANS.fetch_add(1, Ordering::Relaxed);
    false
}

/// Key/value annotations attached to a span or event. Keys are static
/// (the span taxonomy is fixed at compile time); values are rendered at
/// record time.
pub type FieldList = Vec<(&'static str, String)>;

/// One completed span (or instantaneous event, when `dur_ns == 0` and the
/// name was recorded through [`event_with_fields`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the process.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name (see the taxonomy in DESIGN.md §Observability).
    pub name: &'static str,
    /// Small dense id of the recording thread (assigned on first use).
    pub thread: u64,
    /// Start, nanoseconds since the process observability epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (0 for events).
    pub dur_ns: u64,
    /// Key/value annotations.
    pub fields: FieldList,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Dense per-thread id, stable for the thread's lifetime.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Ids of the spans currently open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

fn recorder() -> &'static Mutex<Vec<SpanRecord>> {
    static RECORDER: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    RECORDER.get_or_init(|| Mutex::new(Vec::new()))
}

fn push_record(record: SpanRecord) {
    let mut spans = recorder().lock().unwrap_or_else(PoisonError::into_inner);
    if spans.len() >= MAX_RETAINED_SPANS {
        // Lost the race with concurrent recorders right at the cap.
        DROPPED_SPANS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    spans.push(record);
    RETAINED_SPANS.store(spans.len(), Ordering::Relaxed);
}

/// Drains and returns every span recorded so far, oldest first (by
/// completion time — children complete before their parents). Reopens a
/// saturated recorder.
#[must_use]
pub fn take_spans() -> Vec<SpanRecord> {
    let mut spans = recorder().lock().unwrap_or_else(PoisonError::into_inner);
    let taken = std::mem::take(&mut *spans);
    RETAINED_SPANS.store(0, Ordering::Relaxed);
    DROPPED_SPANS.store(0, Ordering::Relaxed);
    taken
}

/// Returns a copy of the recorded spans without draining them.
#[must_use]
pub fn snapshot_spans() -> Vec<SpanRecord> {
    recorder()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Discards all recorded spans. Reopens a saturated recorder.
pub fn clear_spans() {
    let mut spans = recorder().lock().unwrap_or_else(PoisonError::into_inner);
    spans.clear();
    RETAINED_SPANS.store(0, Ordering::Relaxed);
    DROPPED_SPANS.store(0, Ordering::Relaxed);
}

/// A live span still being timed.
#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    fields: FieldList,
}

/// RAII handle for a span: the region between construction and drop is
/// recorded as one [`SpanRecord`]. When observability is disabled the
/// guard is an empty shell and drop is free.
#[derive(Debug)]
#[must_use = "a span measures the region until this guard drops; binding it to `_` closes it immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// A guard that records nothing (the disabled fast path).
    #[inline]
    pub const fn noop() -> SpanGuard {
        SpanGuard { active: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(span.start_ns);
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards normally drop LIFO; tolerate out-of-order drops by
            // removing this span wherever it sits.
            if let Some(pos) = stack.iter().rposition(|&id| id == span.id) {
                stack.remove(pos);
            }
        });
        push_record(SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name,
            thread: span.thread,
            start_ns: span.start_ns,
            dur_ns,
            fields: span.fields,
        });
    }
}

/// Opens a span with no fields. Prefer the [`crate::span!`] macro, which
/// also skips field rendering when disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::noop();
    }
    span_with_fields(name, Vec::new())
}

/// Opens a span carrying pre-rendered fields (the [`crate::span!`] macro
/// expansion). Returns a no-op guard when disabled.
pub fn span_with_fields(name: &'static str, fields: FieldList) -> SpanGuard {
    if !span_recording() {
        return SpanGuard::noop();
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            thread: thread_id(),
            start_ns: now_ns(),
            fields,
        }),
    }
}

/// Records an instantaneous event (zero-duration span) parented to the
/// innermost open span on this thread. No-op when disabled.
pub fn event_with_fields(name: &'static str, fields: FieldList) {
    if !span_recording() {
        return;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|stack| stack.borrow().last().copied());
    push_record(SpanRecord {
        id,
        parent,
        name,
        thread: thread_id(),
        start_ns: now_ns(),
        dur_ns: 0,
        fields,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use std::time::Duration;

    fn find<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} not recorded"))
    }

    #[test]
    fn recorder_caps_retained_spans() {
        let _guard = test_lock::hold();
        crate::set_enabled(true);
        clear_spans();
        for _ in 0..(MAX_RETAINED_SPANS + 10) {
            event_with_fields("tick", Vec::new());
        }
        assert_eq!(snapshot_spans().len(), MAX_RETAINED_SPANS);
        assert!(dropped_spans() >= 10);
        // Saturation also suppresses guard creation, not just the push.
        {
            let _g = span("saturated");
        }
        assert_eq!(snapshot_spans().len(), MAX_RETAINED_SPANS);
        // Draining reopens the recorder and resets the dropped counter.
        assert_eq!(take_spans().len(), MAX_RETAINED_SPANS);
        assert_eq!(dropped_spans(), 0);
        {
            let _g = span("reopened");
        }
        assert_eq!(take_spans().len(), 1);
        crate::set_enabled(false);
    }

    #[test]
    fn nesting_and_timing_are_consistent() {
        let _guard = test_lock::hold();
        crate::set_enabled(true);
        clear_spans();
        {
            let _outer = crate::span!("outer", layer = "test");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = crate::span!("inner");
                std::thread::sleep(Duration::from_millis(1));
            }
            crate::event!("tick", n = 3);
        }
        let spans = take_spans();
        crate::set_enabled(false);
        assert_eq!(spans.len(), 3);
        let outer = find(&spans, "outer");
        let inner = find(&spans, "inner");
        let tick = find(&spans, "tick");

        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(tick.parent, Some(outer.id));
        assert_eq!(tick.dur_ns, 0);
        assert_eq!(outer.fields, vec![("layer", "test".to_owned())]);
        assert_eq!(tick.fields, vec![("n", "3".to_owned())]);

        // The child lies strictly inside the parent's window.
        assert!(inner.start_ns >= outer.start_ns);
        let inner_end = inner.start_ns + inner.dur_ns;
        let outer_end = outer.start_ns + outer.dur_ns;
        assert!(inner_end <= outer_end);
        assert!(inner.dur_ns <= outer.dur_ns);
        // Sleeps bound the durations from below.
        assert!(inner.dur_ns >= 1_000_000, "inner {} ns", inner.dur_ns);
        assert!(outer.dur_ns >= 3_000_000, "outer {} ns", outer.dur_ns);
    }

    #[test]
    fn siblings_share_a_parent_and_ids_are_unique() {
        let _guard = test_lock::hold();
        crate::set_enabled(true);
        clear_spans();
        {
            let _root = span("root");
            let _a = span("a");
            drop(_a);
            let _b = span("b");
        }
        let spans = take_spans();
        crate::set_enabled(false);
        let root = find(&spans, "root");
        assert_eq!(find(&spans, "a").parent, Some(root.id));
        assert_eq!(find(&spans, "b").parent, Some(root.id));
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spans.len());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let _guard = test_lock::hold();
        crate::set_enabled(true);
        clear_spans();
        const THREADS: usize = 8;
        const SPANS_PER_THREAD: usize = 200;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..SPANS_PER_THREAD {
                        let _worker = span("worker");
                        let _inner = span("worker_inner");
                    }
                });
            }
        });
        let spans = take_spans();
        crate::set_enabled(false);
        assert_eq!(spans.len(), THREADS * SPANS_PER_THREAD * 2);
        // Every inner span's parent lives on the same thread.
        for inner in spans.iter().filter(|s| s.name == "worker_inner") {
            let parent = spans
                .iter()
                .find(|s| Some(s.id) == inner.parent)
                .expect("parent recorded");
            assert_eq!(parent.thread, inner.thread);
            assert_eq!(parent.name, "worker");
        }
    }

    #[test]
    fn spans_off_records_nothing_and_leaves_metrics_on() {
        let _guard = test_lock::hold();
        crate::set_enabled(true);
        set_spans(false);
        clear_spans();
        {
            let _g = crate::span!("quiet", n = 1);
            crate::event!("quiet_event");
        }
        crate::metrics::counter("obs.test.spans_off").inc();
        let recorded = take_spans();
        let counted = crate::metrics::counter("obs.test.spans_off").get();
        set_spans(true);
        crate::set_enabled(false);
        assert!(recorded.is_empty());
        assert_eq!(
            dropped_spans(),
            0,
            "a switched-off span is not a dropped one"
        );
        assert!(counted >= 1);
    }

    #[test]
    fn snapshot_does_not_drain() {
        let _guard = test_lock::hold();
        crate::set_enabled(true);
        clear_spans();
        drop(span("kept"));
        assert_eq!(snapshot_spans().len(), 1);
        assert_eq!(snapshot_spans().len(), 1);
        assert_eq!(take_spans().len(), 1);
        assert!(snapshot_spans().is_empty());
        crate::set_enabled(false);
    }
}

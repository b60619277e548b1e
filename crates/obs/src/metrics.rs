//! A process-global metrics registry: named counters, gauges, and
//! log₂-bucketed histograms.
//!
//! Handles are `Arc`s into the registry, so hot paths look a metric up
//! once (e.g. in a `OnceLock`) and then mutate lock-free. Every mutation
//! is gated on [`crate::enabled`]: disabled, a counter bump costs one
//! relaxed load and a branch; enabled, one relaxed fetch-add.
//!
//! Naming convention: `crate.subsystem.metric` in lowercase dot-form
//! (`core.predict_cache.hit`, `nn.gemm.dispatch.avx2`); exporters map it
//! to their own syntax (Prometheus flattens dots to underscores).

use crate::enabled;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of log₂ histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, and the last bucket absorbs the rest.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one. No-op while observability is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. No-op while observability is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value. No-op while observability is disabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if enabled() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 if never set).
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.0.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A log-scale histogram of `u64` observations (typically nanoseconds).
///
/// Values spanning nine orders of magnitude — a cache hit vs a cold sweep
/// — land in distinct buckets while the whole structure stays 65 atomics.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `⌊log₂ v⌋ + 1`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket, for exposition (`le` labels).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// p50/p90/p99 of one histogram, interpolated within terminal buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantileSummary {
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// The quantile estimate shared by live histograms and snapshots: walk
/// the cumulative counts to the terminal bucket, then interpolate
/// linearly between the bucket's bounds by the target's position within
/// its count.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn quantile_from_counts(counts: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut before = 0u64;
    for (index, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if before + count >= target {
            let lower = if index == 0 {
                0
            } else {
                bucket_upper_bound(index - 1)
            };
            let upper = bucket_upper_bound(index);
            let frac = (target - before) as f64 / count as f64;
            return lower + (frac * (upper - lower) as f64) as u64;
        }
        before += count;
    }
    bucket_upper_bound(counts.len().saturating_sub(1))
}

/// Quantile estimate over an exported [`HistogramSnapshot`], using the
/// same interpolation as [`Histogram::quantile_upper_bound`].
#[must_use]
pub fn snapshot_quantile(snapshot: &HistogramSnapshot, q: f64) -> u64 {
    quantile_from_counts(&snapshot.buckets, snapshot.count, q)
}

impl Histogram {
    /// Records one observation. No-op while observability is disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.record_unguarded(value);
    }

    /// Records regardless of the global enable flag. The request-tracing
    /// path uses this: it carries its own [`crate::set_tracing`] gate, so
    /// a server traces (and exports stage histograms) even when the span
    /// and metric profiling stack is off.
    #[inline]
    pub(crate) fn record_unguarded(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in seconds as integer nanoseconds.
    #[inline]
    pub fn record_secs(&self, seconds: f64) {
        if !enabled() {
            return;
        }
        let ns = (seconds * 1e9).clamp(0.0, 1.8e19);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.record(ns as u64);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 for an empty histogram.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Estimate of the `q`-quantile (`q ∈ [0,1]`), or 0 for an empty
    /// histogram. Interpolates linearly within the terminal bucket (rather
    /// than returning its raw upper bound), so estimates track the data
    /// even when a single log₂ bucket spans a 2× latency range.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.bucket_counts();
        quantile_from_counts(&counts, self.count(), q)
    }

    /// The p50/p90/p99 convenience summary, as exported.
    #[must_use]
    pub fn quantiles(&self) -> QuantileSummary {
        let counts: Vec<u64> = self.bucket_counts();
        let total = self.count();
        QuantileSummary {
            p50: quantile_from_counts(&counts, total, 0.50),
            p90: quantile_from_counts(&counts, total, 0.90),
            p99: quantile_from_counts(&counts, total, 0.99),
        }
    }

    /// Copies out the bucket counts.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// Point-in-time copy of a histogram, as exported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket counts (see [`bucket_upper_bound`]).
    pub buckets: Vec<u64>,
}

/// Point-in-time copy of every registered metric, keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram copies.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn get_or_insert<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let created = Arc::new(T::default());
    map.insert(name.to_owned(), Arc::clone(&created));
    created
}

/// The counter registered under `name` (created on first use). Cache the
/// handle on hot paths — the lookup takes the registry lock.
#[must_use]
pub fn counter(name: &str) -> Arc<Counter> {
    get_or_insert(&registry().counters, name)
}

/// The gauge registered under `name` (created on first use).
#[must_use]
pub fn gauge(name: &str) -> Arc<Gauge> {
    get_or_insert(&registry().gauges, name)
}

/// The histogram registered under `name` (created on first use).
#[must_use]
pub fn histogram(name: &str) -> Arc<Histogram> {
    get_or_insert(&registry().histograms, name)
}

/// Zeroes every registered metric **in place**: cached handles stay valid
/// and keep writing into the same cells.
pub fn reset() {
    let reg = registry();
    for c in reg
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
    {
        c.reset();
    }
    for g in reg
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
    {
        g.reset();
    }
    for h in reg
        .histograms
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
    {
        h.reset();
    }
}

/// Snapshots every registered metric for export.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, c)| (name.clone(), c.get()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, g)| (name.clone(), g.get()))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, h)| {
            (
                name.clone(),
                HistogramSnapshot {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.bucket_counts(),
                },
            )
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(11), 2047);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn counters_account_correctly_under_concurrent_writers() {
        let _guard = test_lock::hold();
        crate::set_enabled(true);
        let counter = counter("obs.test.concurrent_counter");
        counter.reset();
        const THREADS: u64 = 8;
        const INCREMENTS: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..INCREMENTS {
                        counter.inc();
                    }
                });
            }
        });
        crate::set_enabled(false);
        assert_eq!(counter.get(), THREADS * INCREMENTS);
    }

    #[test]
    fn histogram_accounting_under_concurrent_writers() {
        let _guard = test_lock::hold();
        crate::set_enabled(true);
        let hist = histogram("obs.test.concurrent_hist");
        hist.reset();
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 1_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let hist = Arc::clone(&hist);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        hist.record(t * PER_THREAD + i);
                    }
                });
            }
        });
        crate::set_enabled(false);
        assert_eq!(hist.count(), THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(hist.sum(), n * (n - 1) / 2);
        assert_eq!(hist.bucket_counts().iter().sum::<u64>(), n);
        // Values run 0..4000, so the median bucket must bound ≥ 2000 and
        // the whole range tops out under 4096.
        assert!(hist.quantile_upper_bound(0.5) >= 1999);
        assert!(hist.quantile_upper_bound(1.0) <= 4095);
    }

    #[test]
    fn registry_returns_shared_handles_and_resets_in_place() {
        let _guard = test_lock::hold();
        crate::set_enabled(true);
        let a = counter("obs.test.shared");
        let b = counter("obs.test.shared");
        a.reset();
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let g = gauge("obs.test.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        reset();
        crate::set_enabled(false);
        // The pre-reset handle still points at the (zeroed) cell.
        assert_eq!(a.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(snapshot().counters.get("obs.test.shared"), Some(&0));
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_upper_bound(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }
}

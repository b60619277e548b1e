//! The NeuSight framework: five family predictors + tile database +
//! memory-bound fallback, composed into kernel-, operator- and model-level
//! latency forecasting (§5).

use crate::error::{CoreError, Result};
use crate::predictor::{KernelPredictor, PredictorConfig};
use crate::tiledb::TileDatabase;
use neusight_gpu::{roofline, DType, GpuSpec, KernelDataset, KernelLaunch, OpClass, OpDesc};
use neusight_graph::{Graph, Phase};
use neusight_obs as obs;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Training configuration for the whole framework: one
/// [`PredictorConfig`] per family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeuSightConfig {
    /// Per-family training settings, keyed by [`OpClass::name`].
    pub per_class: BTreeMap<String, PredictorConfig>,
    /// Element type assumed for traffic accounting.
    pub dtype: DType,
}

impl NeuSightConfig {
    /// The standard evaluation configuration.
    #[must_use]
    pub fn standard() -> NeuSightConfig {
        let per_class = OpClass::trained()
            .iter()
            .map(|&c| (c.name().to_owned(), PredictorConfig::standard(c)))
            .collect();
        NeuSightConfig {
            per_class,
            dtype: DType::F32,
        }
    }

    /// A tiny configuration for unit tests.
    #[must_use]
    pub fn tiny() -> NeuSightConfig {
        let per_class = OpClass::trained()
            .iter()
            .map(|&c| (c.name().to_owned(), PredictorConfig::tiny()))
            .collect();
        NeuSightConfig {
            per_class,
            dtype: DType::F32,
        }
    }
}

/// Aggregated latency prediction for a dataflow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphPrediction {
    /// Total predicted latency, seconds.
    pub total_s: f64,
    /// Forward-phase portion, seconds.
    pub forward_s: f64,
    /// Backward-phase portion, seconds.
    pub backward_s: f64,
    /// Per-node predictions in execution order, seconds.
    pub per_node_s: Vec<f64>,
}

/// Default bound on the number of memoized `(GPU, op)` predictions held by
/// [`NeuSight`]; see [`NeuSight::set_prediction_cache_capacity`].
pub const DEFAULT_PREDICTION_CACHE_CAPACITY: usize = 65_536;

/// Hot-path metric handles (one registry lookup per process).
struct CoreMetrics {
    cache_hit: Arc<obs::Counter>,
    cache_miss: Arc<obs::Counter>,
    cache_eviction: Arc<obs::Counter>,
    cache_size: Arc<obs::Gauge>,
}

fn core_metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CoreMetrics {
        cache_hit: obs::metrics::counter("core.predict_cache.hit"),
        cache_miss: obs::metrics::counter("core.predict_cache.miss"),
        cache_eviction: obs::metrics::counter("core.predict_cache.eviction"),
        cache_size: obs::metrics::gauge("core.predict_cache.size"),
    })
}

/// The performance-law floor for one kernel: the roofline lower bound
/// (Eq. 1) or the launch-overhead floor, whichever is higher. An MLP
/// output below this is physically impossible and gets clamped (and
/// counted) by [`neusight_guard::law::enforce_floor`] — the paper's
/// bounding mechanism promoted to a runtime invariant, so a corrupted
/// or drifted predictor can never report a latency the hardware could
/// not produce. Applied identically on the scalar and batched MLP
/// paths, preserving their bitwise equality.
fn law_floor(op: &OpDesc, dtype: DType, spec: &GpuSpec) -> f64 {
    roofline::ideal_latency(op, dtype, spec).max(roofline::launch_overhead_floor(spec))
}

/// Rejects operator descriptors that are physically meaningless before
/// they reach launch planning or the MLPs: non-finite or negative FLOP
/// counts (u64 dims can overflow into `inf` when multiplied as `f64`)
/// and zero/non-finite memory traffic (a kernel that moves no bytes
/// does not exist).
fn validate_op(op: &OpDesc, dtype: DType) -> Result<()> {
    let flops = op.flops();
    if !flops.is_finite() || flops < 0.0 {
        return Err(CoreError::InvalidInput(format!(
            "field `flops`: must be finite and non-negative, got {flops} for {op}"
        )));
    }
    neusight_guard::validate::require_finite_positive("memory_bytes", op.memory_bytes(dtype))
        .map_err(|e| CoreError::InvalidInput(format!("{e} for {op}")))?;
    Ok(())
}

/// Records a predicted latency into the per-family histogram
/// (`core.predicted_latency_ns.<family>`). Only called when enabled, so
/// the registry lookup never lands on the disabled fast path.
fn record_family_latency(family: &str, latency_s: f64) {
    obs::metrics::histogram(&format!("core.predicted_latency_ns.{family}")).record_secs(latency_s);
}

/// Default shard count for the prediction cache. The effective count is
/// capped so that every shard gets at least [`MIN_ENTRIES_PER_SHARD`]
/// entries of budget — tiny caches (unit tests, `--cache-capacity 4`)
/// collapse to a single shard and keep exact global FIFO semantics.
pub const DEFAULT_PREDICTION_CACHE_SHARDS: usize = 16;

/// Minimum per-shard capacity before the cache stops splitting further.
const MIN_ENTRIES_PER_SHARD: usize = 1024;

/// Exact point-in-time accounting for one cache shard. The invariant
/// `inserts - evictions == entries` holds at any quiescent point because
/// all three are updated under the shard's own lock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Live entries in this shard.
    pub entries: usize,
    /// This shard's share of the total capacity.
    pub capacity: usize,
    /// Lookup hits since the last reshard.
    pub hits: u64,
    /// Lookup misses since the last reshard.
    pub misses: u64,
    /// FIFO evictions since the last reshard.
    pub evictions: u64,
    /// Inserts since the last reshard.
    pub inserts: u64,
}

/// One cache shard: a small FIFO map behind its own mutex, plus ungated
/// atomic counters (unlike the obs counters, these count even while
/// observability is disabled, so occupancy accounting is always exact).
#[derive(Debug, Default)]
struct Shard {
    inner: Mutex<ShardInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

/// One cached prediction. The insertion sequence number is global, so a
/// reshard can rebuild the exact FIFO order across shards.
#[derive(Debug)]
struct CacheEntry {
    fp: u64,
    op: OpDesc,
    latency_s: f64,
    seq: u64,
}

impl CacheEntry {
    fn is(&self, fp: u64, op: &OpDesc) -> bool {
        self.fp == fp && self.op == *op
    }
}

/// Passes a key hash ([`cache_key_hash`]) through as the shard map's
/// hash, so a key is hashed once per lookup or insert.
#[derive(Debug, Default)]
struct KeyHashHasher(u64);

impl Hasher for KeyHashHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the shard maps are keyed by a u64 key hash");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Mutable state of one shard: its entries by key hash.
#[derive(Debug, Default)]
struct ShardInner {
    /// The first entry inserted under each key hash that is still live.
    map: HashMap<u64, CacheEntry, BuildHasherDefault<KeyHashHasher>>,
    /// Entries whose key hash was taken when they were inserted, with
    /// that hash. Nearly always empty: it takes a 64-bit collision.
    collided: Vec<(u64, CacheEntry)>,
    /// `(key hash, sequence number)` of this shard's live entries, oldest
    /// first.
    order: VecDeque<(u64, u64)>,
    capacity: usize,
}

impl ShardInner {
    fn len(&self) -> usize {
        self.map.len() + self.collided.len()
    }

    fn find(&self, hash: u64, fp: u64, op: &OpDesc) -> Option<&CacheEntry> {
        match self.map.get(&hash) {
            Some(entry) if entry.is(fp, op) => Some(entry),
            _ => self
                .collided
                .iter()
                .find(|(h, entry)| *h == hash && entry.is(fp, op))
                .map(|(_, entry)| entry),
        }
    }

    /// Adds an entry whose key is not in the shard, as the newest.
    fn push(&mut self, hash: u64, entry: CacheEntry) {
        self.order.push_back((hash, entry.seq));
        if let std::collections::hash_map::Entry::Vacant(slot) = self.map.entry(hash) {
            slot.insert(entry);
        } else {
            self.collided.push((hash, entry));
        }
    }

    /// Removes the oldest entry; `None` once the shard is empty.
    fn pop_oldest(&mut self) -> Option<CacheEntry> {
        let (hash, seq) = self.order.pop_front()?;
        if self.map.get(&hash).is_some_and(|entry| entry.seq == seq) {
            return self.map.remove(&hash);
        }
        let at = self
            .collided
            .iter()
            .position(|(h, entry)| *h == hash && entry.seq == seq)
            .expect("every ordered entry is live");
        Some(self.collided.swap_remove(at).1)
    }

    /// Removes every entry, returning them with their key hashes.
    fn drain(&mut self) -> impl Iterator<Item = (u64, CacheEntry)> + '_ {
        self.order.clear();
        self.map.drain().chain(self.collided.drain(..))
    }
}

/// The shard layout: rebuilt (rarely) when capacity or shard count
/// changes; read-locked (cheaply) on every cache access.
#[derive(Debug)]
struct CacheState {
    shards: Box<[Shard]>,
    mask: u64,
    total_capacity: usize,
    configured_shards: usize,
}

#[derive(Debug)]
struct PredictionCacheInner {
    state: RwLock<CacheState>,
    /// Total live entries, maintained by atomic add/sub under shard locks.
    len: AtomicUsize,
    /// Monotonic insertion counter, shared by all shards.
    seq: AtomicU64,
}

/// The shared prediction cache, sharded by `(GPU fingerprint, OpDesc)`
/// hash.
///
/// Lives behind an `Arc` so clones of a trained framework share one cache
/// (prediction is pure, so sharing is value-transparent). Skipped by serde:
/// a loaded framework starts cold.
///
/// The hot path takes one uncontended `RwLock` read (the shard layout)
/// plus one shard mutex; concurrent lookups for different kernels hit
/// different shards and proceed in parallel — the serving layer's
/// replacement for the former single global `Mutex`.
#[derive(Debug, Clone)]
struct PredictionCache(Arc<PredictionCacheInner>);

/// Largest power of two `<= x` (x >= 1).
fn prev_power_of_two(x: usize) -> usize {
    debug_assert!(x >= 1);
    1 << (usize::BITS - 1 - x.leading_zeros())
}

/// Effective shard count for a capacity: the configured count (rounded up
/// to a power of two), capped so each shard is budgeted at least
/// [`MIN_ENTRIES_PER_SHARD`] entries. Capacities below the threshold use
/// one shard, which preserves exact global FIFO order and counts.
fn effective_shards(total_capacity: usize, configured: usize) -> usize {
    let configured = configured.clamp(1, 1024).next_power_of_two();
    if total_capacity < 2 * MIN_ENTRIES_PER_SHARD {
        return 1;
    }
    configured.min(prev_power_of_two(total_capacity / MIN_ENTRIES_PER_SHARD))
}

impl CacheState {
    fn new(total_capacity: usize, configured_shards: usize) -> CacheState {
        let count = effective_shards(total_capacity, configured_shards);
        let per_shard = total_capacity / count;
        let shards: Box<[Shard]> = (0..count)
            .map(|_| Shard {
                inner: Mutex::new(ShardInner {
                    capacity: per_shard,
                    ..ShardInner::default()
                }),
                ..Shard::default()
            })
            .collect();
        CacheState {
            shards,
            mask: (count - 1) as u64,
            total_capacity,
            configured_shards,
        }
    }

    fn shard_for(&self, hash: u64) -> &Shard {
        &self.shards[((hash >> 32) & self.mask) as usize]
    }
}

impl Default for PredictionCache {
    fn default() -> PredictionCache {
        PredictionCache(Arc::new(PredictionCacheInner {
            state: RwLock::new(CacheState::new(
                DEFAULT_PREDICTION_CACHE_CAPACITY,
                DEFAULT_PREDICTION_CACHE_SHARDS,
            )),
            len: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
        }))
    }
}

/// The hash of a cache key, computed once per lookup or insert. Bits 32
/// and up pick the shard; the shard's map takes the low bits and the top
/// seven, so the keys of one shard still spread over its map.
fn cache_key_hash(fp: u64, op: &OpDesc) -> u64 {
    let mut h = DefaultHasher::new();
    fp.hash(&mut h);
    op.hash(&mut h);
    h.finish()
}

impl PredictionCache {
    /// Looks up one `(GPU, op)` key, counting the hit/miss on the owning
    /// shard (always) and the global obs counters (when enabled).
    fn get(&self, fp: u64, op: &OpDesc) -> Option<f64> {
        let hash = cache_key_hash(fp, op);
        let state = self.0.state.read();
        let shard = state.shard_for(hash);
        let found = shard.inner.lock().find(hash, fp, op).map(|e| e.latency_s);
        if found.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            core_metrics().cache_hit.inc();
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
            core_metrics().cache_miss.inc();
        }
        found
    }

    /// Inserts if absent, evicting this shard's oldest entries once over
    /// its budget. All occupancy accounting happens under the shard lock,
    /// so `inserts - evictions == entries` is exact per shard.
    fn insert(&self, fp: u64, op: &OpDesc, latency_s: f64) {
        let hash = cache_key_hash(fp, op);
        let state = self.0.state.read();
        let shard = state.shard_for(hash);
        let mut inner = shard.inner.lock();
        if inner.capacity == 0 || inner.find(hash, fp, op).is_some() {
            return;
        }
        let seq = self.0.seq.fetch_add(1, Ordering::Relaxed);
        let entry = CacheEntry {
            fp,
            op: op.clone(),
            latency_s,
            seq,
        };
        inner.push(hash, entry);
        shard.inserts.fetch_add(1, Ordering::Relaxed);
        self.0.len.fetch_add(1, Ordering::Relaxed);
        self.evict_shard_over_capacity(shard, &mut inner);
    }

    fn evict_shard_over_capacity(&self, shard: &Shard, inner: &mut ShardInner) {
        while inner.len() > inner.capacity && inner.pop_oldest().is_some() {
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            self.0.len.fetch_sub(1, Ordering::Relaxed);
            core_metrics().cache_eviction.inc();
        }
    }

    fn len(&self) -> usize {
        self.0.len.load(Ordering::Relaxed)
    }

    fn capacity(&self) -> usize {
        self.0.state.read().total_capacity
    }

    fn shard_count(&self) -> usize {
        self.0.state.read().shards.len()
    }

    fn clear(&self) {
        let state = self.0.state.read();
        for shard in &state.shards {
            let mut inner = shard.inner.lock();
            let removed = inner.drain().count();
            self.0.len.fetch_sub(removed, Ordering::Relaxed);
        }
    }

    /// Rebuilds the shard layout for a new capacity and/or configured
    /// shard count, preserving entries (newest survive) and counting
    /// overflow as evictions. Holds the write lock, so it is mutually
    /// exclusive with all lookups; capacity changes are rare
    /// (startup / tests), lookups are the hot path.
    fn reshard(&self, total_capacity: usize, configured_shards: usize) {
        let mut state = self.0.state.write();
        // Drain every live entry with its key hash.
        let mut entries: Vec<(u64, CacheEntry)> = Vec::with_capacity(self.len());
        for shard in &state.shards {
            entries.extend(shard.inner.lock().drain());
        }
        self.0.len.store(0, Ordering::Relaxed);
        // Oldest first, so re-inserting replays the exact FIFO history.
        entries.sort_unstable_by_key(|(_, entry)| entry.seq);
        *state = CacheState::new(total_capacity, configured_shards);
        for (hash, entry) in entries {
            let shard = state.shard_for(hash);
            let mut inner = shard.inner.lock();
            if inner.capacity == 0 {
                core_metrics().cache_eviction.inc();
                continue;
            }
            inner.push(hash, entry);
            self.0.len.fetch_add(1, Ordering::Relaxed);
            self.evict_shard_over_capacity(shard, &mut inner);
        }
        drop(state);
        self.publish_size();
    }

    /// Per-shard accounting snapshot, index-aligned with the shard array.
    fn shard_stats(&self) -> Vec<CacheShardStats> {
        let state = self.0.state.read();
        state
            .shards
            .iter()
            .map(|shard| {
                let inner = shard.inner.lock();
                CacheShardStats {
                    entries: inner.len(),
                    capacity: inner.capacity,
                    hits: shard.hits.load(Ordering::Relaxed),
                    misses: shard.misses.load(Ordering::Relaxed),
                    evictions: shard.evictions.load(Ordering::Relaxed),
                    inserts: shard.inserts.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    #[allow(clippy::cast_precision_loss)]
    fn publish_size(&self) {
        core_metrics().cache_size.set(self.len() as f64);
    }
}

/// A stable identity for a [`GpuSpec`] in the prediction cache: the name
/// plus the exact bit patterns of every numeric field, so two specs that
/// would predict differently can never collide on a shared name.
fn spec_fingerprint(spec: &GpuSpec) -> u64 {
    let mut h = DefaultHasher::new();
    spec.name().hash(&mut h);
    spec.year().hash(&mut h);
    spec.generation().hash(&mut h);
    spec.peak_tflops().to_bits().hash(&mut h);
    spec.memory_gb().to_bits().hash(&mut h);
    spec.memory_gbps().to_bits().hash(&mut h);
    spec.num_sms().hash(&mut h);
    spec.l2_mb().to_bits().hash(&mut h);
    h.finish()
}

/// The trained NeuSight framework.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NeuSight {
    predictors: BTreeMap<String, KernelPredictor>,
    tiledb: TileDatabase,
    dtype: DType,
    #[serde(skip)]
    cache: PredictionCache,
}

impl NeuSight {
    /// Trains all family predictors from a measured dataset and builds the
    /// tile database from the same profiles.
    ///
    /// Families with no records in the dataset are skipped (their kernels
    /// will use the memory-bound fallback at prediction time).
    ///
    /// # Errors
    ///
    /// Returns an error if *no* family could be trained.
    pub fn train(dataset: &KernelDataset, config: &NeuSightConfig) -> Result<NeuSight> {
        let _span = obs::span!("train_framework", records = dataset.len());
        let mut predictors = BTreeMap::new();
        for class in OpClass::trained() {
            let Some(cfg) = config.per_class.get(class.name()) else {
                continue;
            };
            let trained = {
                let _family_span = obs::span!("train_family", family = class.name());
                KernelPredictor::train(class, dataset, config.dtype, cfg)
            };
            match trained {
                Ok(p) => {
                    predictors.insert(class.name().to_owned(), p);
                }
                Err(CoreError::EmptyTrainingSet(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if predictors.is_empty() {
            return Err(CoreError::EmptyTrainingSet("all families".to_owned()));
        }
        Ok(NeuSight::from_parts(
            predictors,
            TileDatabase::from_records(dataset),
            config.dtype,
        ))
    }

    /// Reassembles a trained framework from its parts, with a cold
    /// prediction cache.
    pub(crate) fn from_parts(
        predictors: BTreeMap<String, KernelPredictor>,
        tiledb: TileDatabase,
        dtype: DType,
    ) -> NeuSight {
        NeuSight {
            predictors,
            tiledb,
            dtype,
            cache: PredictionCache::default(),
        }
    }

    /// The family predictors, keyed by [`OpClass::name`].
    pub(crate) fn predictors(&self) -> &BTreeMap<String, KernelPredictor> {
        &self.predictors
    }

    /// The element type used for traffic accounting.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Families with a trained predictor.
    #[must_use]
    pub fn trained_classes(&self) -> Vec<String> {
        self.predictors.keys().cloned().collect()
    }

    /// Validation SMAPE per trained family.
    #[must_use]
    pub fn validation_report(&self) -> BTreeMap<String, f32> {
        self.predictors
            .iter()
            .map(|(name, p)| (name.clone(), p.validation_smape()))
            .collect()
    }

    /// The tile database built during training.
    #[must_use]
    pub fn tile_database(&self) -> &TileDatabase {
        &self.tiledb
    }

    /// Reconstructs launch geometry for a kernel on a (possibly unseen)
    /// GPU: tile from the nearest database match, then Eq. 2–3.
    ///
    /// # Errors
    ///
    /// Returns a tiling error if the database tile cannot cover the output
    /// (cannot happen for database-derived tiles, which are clamped).
    pub fn plan_launch(&self, op: &OpDesc, spec: &GpuSpec) -> Result<KernelLaunch> {
        Ok(self.tiledb.plan_launch(op, spec)?)
    }

    /// Predicts the latency of one kernel on a GPU, in seconds.
    ///
    /// Kernels without a trained family predictor — and all zero-FLOP /
    /// memory-bound-class kernels such as embeddings — use the paper's
    /// fallback: memory traffic divided by peak bandwidth (§4.3).
    ///
    /// Results are memoized per `(GPU, op)`; repeated queries (transformer
    /// layers repeat identical kernels dozens of times) hit the cache.
    /// Fused operators route through here too, so fusion predictions are
    /// cached under the fused descriptor.
    ///
    /// # Errors
    ///
    /// Propagates launch-planning errors.
    pub fn predict_op(&self, op: &OpDesc, spec: &GpuSpec) -> Result<f64> {
        let _span = obs::span!(
            "predict_op",
            gpu = spec.name(),
            family = op.op_class().name()
        );
        let fp = spec_fingerprint(spec);
        if let Some(hit) = self.cache.get(fp, op) {
            return Ok(hit);
        }
        let lat = self.predict_op_uncached(op, spec)?;
        if obs::enabled() {
            record_family_latency(op.op_class().name(), lat);
        }
        self.cache.insert(fp, op, lat);
        self.cache.publish_size();
        Ok(lat)
    }

    /// [`NeuSight::predict_op`] bypassing the memo cache (neither read nor
    /// written). This is the reference path the batched/memoized predictors
    /// are verified against, and what benchmarks use as the baseline.
    ///
    /// # Errors
    ///
    /// Propagates launch-planning errors.
    pub fn predict_op_uncached(&self, op: &OpDesc, spec: &GpuSpec) -> Result<f64> {
        validate_op(op, self.dtype)?;
        let class = op.op_class();
        if class == OpClass::MemoryBound || op.flops() <= 0.0 {
            return Ok(op.memory_bytes(self.dtype) / spec.memory_bw());
        }
        let Some(predictor) = self.predictors.get(class.name()) else {
            return Ok(op.memory_bytes(self.dtype) / spec.memory_bw());
        };
        let launch = self.plan_launch(op, spec)?;
        let lat = predictor.predict_latency(op, &launch, self.dtype, spec);
        // The memory-bound fallback above *is* a performance law, so only
        // MLP outputs pass through the guard.
        Ok(neusight_guard::law::enforce_floor(
            lat,
            law_floor(op, self.dtype, spec),
        ))
    }

    /// Drops all memoized predictions (e.g. between benchmark iterations).
    pub fn clear_prediction_cache(&self) {
        self.cache.clear();
        self.cache.publish_size();
    }

    /// Number of memoized `(GPU, op)` predictions currently held.
    #[must_use]
    pub fn prediction_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The prediction cache's entry bound (summed across shards).
    #[must_use]
    pub fn prediction_cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Re-bounds the prediction cache, evicting oldest-first down to the
    /// new capacity immediately. Evictions increment the
    /// `core.predict_cache.eviction` counter. A capacity of 0 disables
    /// memoization entirely.
    ///
    /// Shrinking may also shrink the shard count (see
    /// [`NeuSight::set_prediction_cache_shards`]); surviving entries keep
    /// their original insertion order.
    pub fn set_prediction_cache_capacity(&self, capacity: usize) {
        let shards = self.cache.0.state.read().configured_shards;
        self.cache.reshard(capacity, shards);
    }

    /// Number of live cache shards. Lookups for different kernels that
    /// land in different shards never contend.
    #[must_use]
    pub fn prediction_cache_shards(&self) -> usize {
        self.cache.shard_count()
    }

    /// Requests a shard count (rounded up to a power of two, clamped to
    /// `1..=1024`). The effective count is additionally capped so each
    /// shard keeps a useful FIFO window — tiny capacities always use one
    /// shard, preserving exact global insertion-order eviction.
    pub fn set_prediction_cache_shards(&self, shards: usize) {
        let capacity = self.cache.capacity();
        self.cache.reshard(capacity, shards.max(1));
    }

    /// Exact per-shard occupancy and hit/miss/eviction/insert counts.
    /// Unlike the obs counters these are unconditional, so
    /// `inserts - evictions == entries` holds per shard at any quiescent
    /// point.
    #[must_use]
    pub fn prediction_cache_shard_stats(&self) -> Vec<CacheShardStats> {
        self.cache.shard_stats()
    }

    /// Predicts per-device latency of a whole dataflow graph by summing
    /// kernel predictions in execution order (§5: kernels run
    /// sequentially per device).
    ///
    /// Nodes are deduplicated by [`OpDesc`], already-memoized kernels are
    /// served from the cache, and the remaining unique kernels of each
    /// family run through one batched MLP forward pass instead of one pass
    /// per node. Every latency is bitwise-identical to the per-node
    /// [`NeuSight::predict_op_uncached`] path.
    ///
    /// # Errors
    ///
    /// Propagates per-kernel errors.
    pub fn predict_graph(&self, graph: &Graph, spec: &GpuSpec) -> Result<GraphPrediction> {
        let _span = obs::span!("predict_graph", gpu = spec.name(), nodes = graph.len());
        let mut predictions = self.predict_graph_batch(&[(graph, spec)])?;
        Ok(predictions.pop().expect("one job in, one prediction out"))
    }

    /// Predicts several `(graph, GPU)` jobs in one pass, coalescing the
    /// kernels of *all* jobs before dispatching to the MLPs: ops are
    /// deduplicated per `(GPU, op)` across every job, memoized entries are
    /// served from the shared cache, and the remaining unique kernels run
    /// through **one** batched forward pass per `(GPU, family)` — however
    /// many jobs contributed them. This is the serving layer's
    /// micro-batching primitive: N concurrent predict requests cost one
    /// MLP dispatch per family, not N.
    ///
    /// Results are positionally aligned with `jobs` and bitwise-identical
    /// to predicting each job separately (and to the per-node
    /// [`NeuSight::predict_op_uncached`] path).
    ///
    /// # Errors
    ///
    /// Propagates per-kernel launch-planning errors.
    pub fn predict_graph_batch(&self, jobs: &[(&Graph, &GpuSpec)]) -> Result<Vec<GraphPrediction>> {
        // No span of its own: the stage spans below nest directly under
        // the caller's root (`predict_graph` or the server's
        // `serve_batch`), keeping the §5c taxonomy
        // `predict_graph` → {dedup, cache_probe, …} intact.

        // Chaos testing: a simulated transient failure of the MLP
        // predictor path (e.g. an accelerator fault in a real deployment).
        // The serving layer's circuit breaker and roofline fallback key
        // off this error.
        if let Some(injected) = neusight_fault::fail_point!("core.predict.mlp") {
            injected.sleep();
            if injected.fail {
                return Err(CoreError::FaultInjected(injected.error()));
            }
        }

        // Unique GPUs by fingerprint (jobs typically share one spec).
        let mut gpu_fps: Vec<u64> = Vec::new();
        let mut gpu_specs: Vec<&GpuSpec> = Vec::new();
        let mut job_gpu: Vec<usize> = Vec::with_capacity(jobs.len());
        for (_, spec) in jobs {
            let fp = spec_fingerprint(spec);
            let gpu = gpu_fps.iter().position(|&g| g == fp).unwrap_or_else(|| {
                gpu_fps.push(fp);
                gpu_specs.push(spec);
                gpu_fps.len() - 1
            });
            job_gpu.push(gpu);
        }

        // Deduplicate kernels across all jobs: each unique `(GPU, op)` is
        // predicted exactly once. Kernel tables are in first-seen node
        // order, so `unique` lists ops in the order a walk over every
        // job's nodes would first meet them.
        let mut unique: Vec<(usize, &OpDesc)> = Vec::new();
        let mut job_slots: Vec<Vec<usize>> = Vec::with_capacity(jobs.len());
        {
            let _stage = obs::span("dedup");
            let mut slot_of: HashMap<(usize, &OpDesc), usize> = HashMap::new();
            for ((graph, _), &gpu) in jobs.iter().zip(&job_gpu) {
                let mut slots = Vec::with_capacity(graph.kernels().len());
                for op in graph.kernels() {
                    let next = unique.len();
                    let slot = *slot_of.entry((gpu, op)).or_insert(next);
                    if slot == next {
                        validate_op(op, self.dtype)?;
                        unique.push((gpu, op));
                    }
                    slots.push(slot);
                }
                job_slots.push(slots);
            }
        }
        obs::trace::predict_mark("dedup");

        let mut latencies: Vec<Option<f64>> = vec![None; unique.len()];
        {
            let _stage = obs::span("cache_probe");
            // Per-key sharded lookups: concurrent batch requests probing
            // different kernels touch different shard locks.
            for (slot, (gpu, op)) in unique.iter().enumerate() {
                latencies[slot] = self.cache.get(gpu_fps[*gpu], op);
            }
        }
        obs::trace::predict_mark("cache_probe");

        // Uncached kernels: memory-bound fallbacks are closed-form; the
        // rest are grouped by `(GPU, family)` for one batched forward pass
        // each.
        let mut batches: BTreeMap<(usize, &str), Vec<(usize, KernelLaunch)>> = BTreeMap::new();
        {
            let _stage = obs::span("fallback");
            for (slot, (gpu, op)) in unique.iter().enumerate() {
                if latencies[slot].is_some() {
                    continue;
                }
                let spec = gpu_specs[*gpu];
                let class = op.op_class();
                if class == OpClass::MemoryBound
                    || op.flops() <= 0.0
                    || !self.predictors.contains_key(class.name())
                {
                    let lat = op.memory_bytes(self.dtype) / spec.memory_bw();
                    if obs::enabled() {
                        record_family_latency(class.name(), lat);
                    }
                    latencies[slot] = Some(lat);
                } else {
                    let launch = self.plan_launch(op, spec)?;
                    batches
                        .entry((*gpu, class.name()))
                        .or_default()
                        .push((slot, launch));
                }
            }
        }
        obs::trace::predict_mark("fallback");
        for ((gpu, class_name), items) in &batches {
            let _stage = obs::span!("batch_predict", family = class_name, kernels = items.len());
            let spec = gpu_specs[*gpu];
            let predictor = &self.predictors[*class_name];
            let kernels: Vec<(&OpDesc, &KernelLaunch)> = items
                .iter()
                .map(|(slot, launch)| (unique[*slot].1, launch))
                .collect();
            let lats = predictor.predict_latency_batch(&kernels, self.dtype, spec);
            for ((slot, _), lat) in items.iter().zip(lats) {
                // Same law guard as the scalar path, same floor, applied
                // to the same f64 — batched predictions stay bitwise
                // identical to `predict_op_uncached`.
                let lat = neusight_guard::law::enforce_floor(
                    lat,
                    law_floor(unique[*slot].1, self.dtype, spec),
                );
                if obs::enabled() {
                    record_family_latency(class_name, lat);
                }
                latencies[*slot] = Some(lat);
            }
        }
        obs::trace::predict_mark("batch_predict");

        {
            let _stage = obs::span("cache_write");
            for ((gpu, op), lat) in unique.iter().zip(&latencies) {
                let lat = lat.expect("every unique op resolved");
                self.cache.insert(gpu_fps[*gpu], op, lat);
            }
            self.cache.publish_size();
        }
        obs::trace::predict_mark("cache_write");

        let _stage = obs::span("aggregate");
        let mut out = Vec::with_capacity(jobs.len());
        for ((graph, _), slots) in jobs.iter().zip(&job_slots) {
            let mut per_node_s = Vec::with_capacity(graph.len());
            let (mut forward_s, mut backward_s) = (0.0, 0.0);
            for node in graph.iter() {
                let lat = latencies[slots[node.kernel.0]].expect("every unique op resolved");
                per_node_s.push(lat);
                match node.phase {
                    Phase::Forward => forward_s += lat,
                    Phase::Backward => backward_s += lat,
                }
            }
            out.push(GraphPrediction {
                total_s: forward_s + backward_s,
                forward_s,
                backward_s,
                per_node_s,
            });
        }
        obs::trace::predict_mark("aggregate");
        Ok(out)
    }

    /// Persists the trained framework (predictor weights, scalers, tile
    /// database) in the binary [`codec`](crate::codec) layout wrapped in
    /// the checksummed [`neusight_guard::envelope`], so any later
    /// corruption of the file is detected at load time instead of
    /// producing plausible-but-wrong latencies.
    ///
    /// # Errors
    ///
    /// Returns I/O errors.
    pub fn save(&self, path: &Path) -> Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let bytes = crate::codec::encode(self);
        neusight_guard::envelope::write_artifact(path, &bytes).map_err(|e| match e {
            neusight_guard::GuardError::Io(io) => CoreError::Io(io),
            other => CoreError::Format(other.to_string()),
        })?;
        Ok(())
    }

    /// Loads a framework saved by [`NeuSight::save`]. The payload's
    /// leading tag picks the decoder (see [`codec::decode`](crate::codec::decode)):
    /// envelopes holding JSON, written before the binary layout, still
    /// load, and legacy bare-JSON predictors (written before the
    /// envelope) load transparently with a warning and the
    /// `guard.artifact.legacy.total` counter.
    ///
    /// # Errors
    ///
    /// Returns I/O errors (missing file included) or a
    /// [`CoreError::Format`] for corrupt, truncated, or
    /// version-mismatched files.
    pub fn load(path: &Path) -> Result<NeuSight> {
        let bytes = fs::read(path)?;
        let decoded = neusight_guard::envelope::decode(&bytes, &path.display().to_string())
            .map_err(|e| match e {
                neusight_guard::GuardError::Io(io) => CoreError::Io(io),
                other => CoreError::Format(other.to_string()),
            })?;
        crate::codec::decode(&decoded.payload)
    }

    /// Applies `f` to every weight and bias of every family predictor's
    /// MLP. Exists so robustness tests can deliberately corrupt a
    /// trained framework and prove the performance-law output guard
    /// catches the damage; not part of the training API.
    #[doc(hidden)]
    pub fn map_predictor_parameters(&mut self, mut f: impl FnMut(f32) -> f32) {
        for predictor in self.predictors.values_mut() {
            predictor.map_mlp_parameters(&mut f);
        }
        // Clones share the prediction cache behind an `Arc` on the
        // premise that prediction is pure. Mutating the weights breaks
        // that premise, so detach into a private cold cache (same
        // capacity layout) instead of clearing the shared one — clearing
        // would still let this instance's now-divergent predictions
        // poison siblings (and theirs poison us).
        let (capacity, shards) = {
            let state = self.cache.0.state.read();
            (state.total_capacity, state.configured_shards)
        };
        let fresh = PredictionCache::default();
        fresh.reshard(capacity, shards);
        self.cache = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_data::{collect_training_set, training_gpus, SweepScale};
    use neusight_gpu::catalog;
    use neusight_graph::{config, inference_graph, training_graph};
    use neusight_sim::SimulatedGpu;
    use proptest::prelude::*;

    fn tiny_framework() -> NeuSight {
        let gpus = training_gpus();
        let ds = collect_training_set(&gpus, SweepScale::Tiny, DType::F32);
        NeuSight::train(&ds, &NeuSightConfig::tiny()).expect("trainable")
    }

    #[test]
    fn trains_all_five_families() {
        let ns = tiny_framework();
        assert_eq!(ns.trained_classes().len(), 5);
        assert_eq!(ns.validation_report().len(), 5);
        assert!(!ns.tile_database().is_empty());
    }

    #[test]
    fn predicts_every_model_kernel() {
        let ns = tiny_framework();
        let spec = catalog::gpu("V100").unwrap();
        let graph = inference_graph(&config::bert_large(), 2);
        let pred = ns.predict_graph(&graph, &spec).unwrap();
        assert_eq!(pred.per_node_s.len(), graph.len());
        assert!(pred.per_node_s.iter().all(|&l| l.is_finite() && l > 0.0));
        assert!(pred.total_s > 0.0);
        assert_eq!(pred.backward_s, 0.0);
    }

    #[test]
    fn training_graph_prediction_splits_phases() {
        let ns = tiny_framework();
        let spec = catalog::gpu("A100-40GB").unwrap();
        let graph = training_graph(&config::bert_large(), 2);
        let pred = ns.predict_graph(&graph, &spec).unwrap();
        assert!(pred.backward_s > 0.0 && pred.forward_s > 0.0);
        assert!((pred.total_s - pred.forward_s - pred.backward_s).abs() < 1e-12);
    }

    #[test]
    fn batched_graph_matches_per_node_path_bitwise() {
        let ns = tiny_framework();
        for (name, graph) in [
            ("V100", training_graph(&config::bert_large(), 2)),
            ("A100-40GB", inference_graph(&config::bert_large(), 4)),
        ] {
            let spec = catalog::gpu(name).unwrap();
            let batched = ns.predict_graph(&graph, &spec).unwrap();
            for (node, lat) in graph.iter().zip(&batched.per_node_s) {
                let scalar = ns.predict_op_uncached(&node.op, &spec).unwrap();
                assert_eq!(
                    lat.to_bits(),
                    scalar.to_bits(),
                    "{name}: batched {lat} != per-node {scalar} for {}",
                    node.op
                );
            }
        }
    }

    #[test]
    fn graph_batch_matches_individual_predictions_bitwise() {
        let ns = tiny_framework();
        let v100 = catalog::gpu("V100").unwrap();
        let h100 = catalog::gpu("H100").unwrap();
        let g1 = inference_graph(&config::bert_large(), 2);
        let g2 = training_graph(&config::gpt2_large(), 4);
        let g3 = inference_graph(&config::bert_large(), 2); // duplicate of g1
        let jobs: Vec<(&Graph, &GpuSpec)> =
            vec![(&g1, &v100), (&g2, &v100), (&g3, &h100), (&g1, &v100)];
        let batched = ns.predict_graph_batch(&jobs).unwrap();
        assert_eq!(batched.len(), jobs.len());
        // Identical jobs produce identical predictions.
        assert_eq!(batched[0], batched[3]);
        // Every job matches the uncached per-node reference bitwise.
        for ((graph, spec), pred) in jobs.iter().zip(&batched) {
            assert_eq!(pred.per_node_s.len(), graph.len());
            for (node, lat) in graph.iter().zip(&pred.per_node_s) {
                let scalar = ns.predict_op_uncached(&node.op, spec).unwrap();
                assert_eq!(
                    lat.to_bits(),
                    scalar.to_bits(),
                    "batched {lat} != per-node {scalar} for {}",
                    node.op
                );
            }
        }
        // And matches the single-job path bitwise (warm or cold).
        ns.clear_prediction_cache();
        let single = ns.predict_graph(&g2, &v100).unwrap();
        assert_eq!(single, batched[1]);
    }

    #[test]
    fn empty_graph_batch_is_empty() {
        let ns = tiny_framework();
        assert!(ns.predict_graph_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn prediction_cache_is_shared_and_clearable() {
        let ns = tiny_framework();
        let spec = catalog::gpu("T4").unwrap();
        let op = OpDesc::bmm(4, 256, 256, 128);
        let first = ns.predict_op(&op, &spec).unwrap();
        // A clone shares the memo cache (Arc), and cached == uncached.
        let clone = ns.clone();
        let second = clone.predict_op(&op, &spec).unwrap();
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(
            first.to_bits(),
            ns.predict_op_uncached(&op, &spec).unwrap().to_bits()
        );
        ns.clear_prediction_cache();
        assert_eq!(
            first.to_bits(),
            ns.predict_op(&op, &spec).unwrap().to_bits()
        );
    }

    #[test]
    fn cache_distinguishes_same_named_specs() {
        // Two specs sharing a name but differing in hardware numbers must
        // not collide in the cache.
        let ns = tiny_framework();
        let a = catalog::gpu("V100").unwrap();
        let mut b = a.clone();
        b = neusight_gpu::GpuSpec::builder(b.name())
            .year(b.year())
            .generation(b.generation())
            .peak_tflops(b.peak_tflops())
            .memory_gb(b.memory_gb())
            .memory_gbps(b.memory_gbps() * 2.0)
            .num_sms(b.num_sms())
            .l2_mb(b.l2_mb())
            .build()
            .unwrap();
        let op = OpDesc::embedding(2048, 512, 30000); // memory-bound: bw-sensitive
        let on_a = ns.predict_op(&op, &a).unwrap();
        let on_b = ns.predict_op(&op, &b).unwrap();
        assert!(
            (on_a / on_b - 2.0).abs() < 1e-9,
            "doubled bandwidth must halve the fallback latency: {on_a} vs {on_b}"
        );
    }

    #[test]
    fn prediction_cache_capacity_bounds_and_evicts_fifo() {
        let ns = tiny_framework();
        let spec = catalog::gpu("T4").unwrap();
        ns.set_prediction_cache_capacity(4);
        assert_eq!(ns.prediction_cache_capacity(), 4);
        // Eviction counting is observable only while obs is enabled; the
        // counter is global, but only this instance (capacity 4) evicts.
        let evictions = neusight_obs::metrics::counter("core.predict_cache.eviction");
        let before = evictions.get();
        neusight_obs::set_enabled(true);
        let ops: Vec<OpDesc> = (1..=10)
            .map(|i| OpDesc::embedding(128 * i, 64, 1000))
            .collect();
        for op in &ops {
            ns.predict_op(op, &spec).unwrap();
        }
        neusight_obs::set_enabled(false);
        assert_eq!(ns.prediction_cache_len(), 4);
        assert_eq!(evictions.get() - before, 6, "10 inserts into capacity 4");
        // Newest entries survive (FIFO evicts oldest first): the last op
        // is a hit, the first must re-miss but still match bitwise.
        let warm = ns.predict_op(&ops[9], &spec).unwrap();
        assert_eq!(
            warm.to_bits(),
            ns.predict_op_uncached(&ops[9], &spec).unwrap().to_bits()
        );
        let refilled = ns.predict_op(&ops[0], &spec).unwrap();
        assert_eq!(
            refilled.to_bits(),
            ns.predict_op_uncached(&ops[0], &spec).unwrap().to_bits()
        );
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let ns = tiny_framework();
        let spec = catalog::gpu("T4").unwrap();
        ns.set_prediction_cache_capacity(0);
        let op = OpDesc::bmm(2, 64, 64, 64);
        let a = ns.predict_op(&op, &spec).unwrap();
        assert_eq!(ns.prediction_cache_len(), 0);
        assert_eq!(a.to_bits(), ns.predict_op(&op, &spec).unwrap().to_bits());
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let ns = tiny_framework();
        let spec = catalog::gpu("V100").unwrap();
        for i in 1..=8 {
            ns.predict_op(&OpDesc::embedding(64 * i, 32, 500), &spec)
                .unwrap();
        }
        assert_eq!(ns.prediction_cache_len(), 8);
        ns.set_prediction_cache_capacity(3);
        assert_eq!(ns.prediction_cache_len(), 3);
        // predict_graph still fills and respects the bound.
        let graph = inference_graph(&config::bert_large(), 2);
        ns.predict_graph(&graph, &spec).unwrap();
        assert!(ns.prediction_cache_len() <= 3);
    }

    #[test]
    fn sharded_cache_occupancy_accounting_is_exact() {
        // Big enough for a real multi-shard layout: 8192 entries over 4
        // shards of 2048 each.
        let ns = tiny_framework();
        let spec = catalog::gpu("T4").unwrap();
        ns.set_prediction_cache_capacity(8192);
        ns.set_prediction_cache_shards(4);
        assert_eq!(ns.prediction_cache_shards(), 4);
        // Insert well past capacity from 8 threads so inserts and
        // evictions interleave across shards.
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let ns = ns.clone();
                let spec = spec.clone();
                scope.spawn(move || {
                    for i in 0..1500u64 {
                        let op = OpDesc::embedding(1 + t * 1500 + i, 32, 100);
                        ns.predict_op(&op, &spec).unwrap();
                    }
                });
            }
        });
        // The eviction-race fix: per-shard counters are updated under the
        // shard lock, so inserts - evictions == entries exactly, per
        // shard, and the shard sum matches the global length.
        let stats = ns.prediction_cache_shard_stats();
        let mut total_entries = 0usize;
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(
                s.inserts - s.evictions,
                s.entries as u64,
                "shard {i} occupancy drifted: {s:?}"
            );
            assert!(s.entries <= s.capacity, "shard {i} over budget: {s:?}");
            total_entries += s.entries;
        }
        assert_eq!(total_entries, ns.prediction_cache_len());
        assert_eq!(ns.prediction_cache_len(), 8192);
    }

    #[test]
    fn tiny_capacity_collapses_to_one_shard() {
        // Shard splitting must never shrink the FIFO window below what a
        // small capacity promises; exact global FIFO needs one shard.
        let ns = tiny_framework();
        ns.set_prediction_cache_capacity(4);
        ns.set_prediction_cache_shards(16);
        assert_eq!(ns.prediction_cache_shards(), 1);
        ns.set_prediction_cache_capacity(1 << 20);
        assert_eq!(ns.prediction_cache_shards(), 16);
    }

    /// Keys whose 64-bit hashes collide stay apart in a shard, and come
    /// out oldest first whether they sit in the map or beside it.
    #[test]
    fn colliding_key_hashes_stay_apart_and_evict_oldest_first() {
        let ops: Vec<OpDesc> = (1..=3).map(|i| OpDesc::embedding(i, 8, 100)).collect();
        let entry = |i: usize, seq: u64| CacheEntry {
            fp: 7,
            op: ops[i].clone(),
            latency_s: i as f64,
            seq,
        };
        let mut shard = ShardInner::default();
        for i in 0..3 {
            shard.push(42, entry(i, i as u64));
        }
        assert_eq!((shard.len(), shard.collided.len()), (3, 2));
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(shard.find(42, 7, op).map(|e| e.latency_s), Some(i as f64));
            assert!(shard.find(42, 8, op).is_none() && shard.find(41, 7, op).is_none());
        }
        // The oldest sits in the map; once it leaves, the next key under
        // the same hash takes the map's slot.
        assert_eq!(shard.pop_oldest().map(|e| e.seq), Some(0));
        assert!(shard.find(42, 7, &ops[0]).is_none());
        shard.push(42, entry(0, 3));
        assert_eq!(shard.map[&42].seq, 3);
        let order: Vec<u64> = std::iter::from_fn(|| shard.pop_oldest().map(|e| e.seq)).collect();
        assert_eq!(order, [1, 2, 3]);
        assert_eq!(shard.len(), 0);
    }

    #[test]
    fn reshard_preserves_entries_and_fifo_order() {
        let ns = tiny_framework();
        let spec = catalog::gpu("V100").unwrap();
        let ops: Vec<OpDesc> = (1..=8)
            .map(|i| OpDesc::embedding(64 * i, 32, 500))
            .collect();
        for op in &ops {
            ns.predict_op(op, &spec).unwrap();
        }
        assert_eq!(ns.prediction_cache_len(), 8);
        // Changing the shard request rebuilds the layout without losing
        // entries...
        ns.set_prediction_cache_shards(8);
        assert_eq!(ns.prediction_cache_len(), 8);
        // ...and a subsequent shrink still evicts oldest-first, proving
        // insertion sequence numbers survived the rebuild.
        ns.set_prediction_cache_capacity(3);
        assert_eq!(ns.prediction_cache_len(), 3);
        let stats = ns.prediction_cache_shard_stats();
        assert_eq!(stats.iter().map(|s| s.entries).sum::<usize>(), 3);
    }

    #[test]
    fn hammer_sharded_cache_bitwise_equals_uncached_64_threads() {
        // 64 threads race predict_op over a shared working set; every
        // result must be bitwise identical to the uncached reference path
        // (the old Mutex cache's guarantee, now per shard).
        let ns = tiny_framework();
        let spec = catalog::gpu("A100-80GB").unwrap();
        let ops: Vec<OpDesc> = (0..96)
            .map(|i| match i % 3 {
                0 => OpDesc::bmm(1 + i / 3, 64, 64, 64),
                1 => OpDesc::embedding(128 * (1 + i / 3), 64, 1000),
                _ => OpDesc::fc(64 * (1 + i / 3), 128, 256),
            })
            .collect();
        let reference: Vec<u64> = ops
            .iter()
            .map(|op| ns.predict_op_uncached(op, &spec).unwrap().to_bits())
            .collect();
        std::thread::scope(|scope| {
            for t in 0..64usize {
                let ns = ns.clone();
                let spec = spec.clone();
                let ops = &ops;
                let reference = &reference;
                scope.spawn(move || {
                    // Each thread walks the set at a different offset so
                    // first-insert races are spread over all keys.
                    for round in 0..3 {
                        for i in 0..ops.len() {
                            let k = (i + t * 7 + round) % ops.len();
                            let got = ns.predict_op(&ops[k], &spec).unwrap();
                            assert_eq!(
                                got.to_bits(),
                                reference[k],
                                "thread {t} diverged on op {k}"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(ns.prediction_cache_len(), ops.len());
        let stats = ns.prediction_cache_shard_stats();
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(
                s.inserts - s.evictions,
                s.entries as u64,
                "shard {i} occupancy drifted after hammer: {s:?}"
            );
        }
    }

    #[test]
    fn embedding_uses_memory_bound_fallback() {
        let ns = tiny_framework();
        let spec = catalog::gpu("T4").unwrap();
        let op = OpDesc::embedding(4096, 1024, 50000);
        let lat = ns.predict_op(&op, &spec).unwrap();
        let expected = op.memory_bytes(DType::F32) / spec.memory_bw();
        assert!((lat - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn predictions_work_on_unseen_gpus() {
        let ns = tiny_framework();
        let h100 = catalog::gpu("H100").unwrap();
        let op = OpDesc::bmm(16, 2048, 2048, 2048); // OOD dims and GPU
        let lat = ns.predict_op(&op, &h100).unwrap();
        assert!(lat.is_finite() && lat > 0.0);
        // Bounded below by physics: cannot beat the roofline.
        let floor = op.flops() / neusight_gpu::roofline::roofline_flops_for(&op, DType::F32, &h100);
        assert!(lat >= floor * 0.5, "lat {lat} vs floor {floor}");
    }

    #[test]
    fn save_load_round_trip() {
        let ns = tiny_framework();
        let dir = std::env::temp_dir().join("neusight-test-framework");
        let path = dir.join("ns.json");
        ns.save(&path).unwrap();
        let back = NeuSight::load(&path).unwrap();
        let spec = catalog::gpu("P100").unwrap();
        let op = OpDesc::fc(512, 512, 2048);
        assert_eq!(
            ns.predict_op(&op, &spec).unwrap(),
            back.predict_op(&op, &spec).unwrap()
        );
        // The loaded tile database rebuilds its index and plans every
        // kernel as the trained one does.
        for spec in &crate::tiledb::tests::all_gpus() {
            for op in &crate::tiledb::tests::table4_kernels() {
                assert_eq!(
                    back.plan_launch(op, spec).unwrap(),
                    ns.plan_launch(op, spec).unwrap(),
                    "{op} on {}",
                    spec.name()
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_errors() {
        let err = NeuSight::load(Path::new("/nonexistent/ns.json")).unwrap_err();
        assert!(matches!(err, CoreError::Io(_)));
    }

    #[test]
    fn fused_ops_route_to_head_family() {
        let ns = tiny_framework();
        let spec = catalog::gpu("V100").unwrap();
        let rows = 2048u64;
        let dim = 1024u64;
        let add = OpDesc::elementwise(neusight_gpu::EwKind::Add, rows * dim);
        let ln = OpDesc::layer_norm(rows, dim);
        let fused = OpDesc::fused(vec![add.clone(), ln.clone()]).unwrap();
        let fused_lat = ns.predict_op(&fused, &spec).unwrap();
        let separate = ns.predict_op(&add, &spec).unwrap() + ns.predict_op(&ln, &spec).unwrap();
        assert!(
            fused_lat < separate,
            "fusion should predict faster: {fused_lat} vs {separate}"
        );
    }

    #[test]
    fn graph_prediction_simulator_agreement_smoke() {
        // Even the tiny training budget should land within a loose factor
        // of the simulator on an in-distribution-ish workload.
        let ns = tiny_framework();
        let spec = catalog::gpu("V100").unwrap();
        let graph = inference_graph(&config::bert_large(), 2);
        let predicted = ns.predict_graph(&graph, &spec).unwrap().total_s;
        let measured = SimulatedGpu::new(spec)
            .execute_graph(&graph, DType::F32)
            .total_s;
        let ratio = predicted / measured;
        assert!(
            (0.2..5.0).contains(&ratio),
            "prediction {predicted} vs measurement {measured}"
        );
    }

    /// The node-walk dedup `predict_graph_batch` ran before graphs carried
    /// a kernel table: every node's op is probed in a `(GPU, op)` map, and
    /// each first-seen op is predicted on the per-node uncached path.
    /// Returns the predictions and the cache entries a cold run must
    /// leave, in insertion order.
    #[allow(clippy::type_complexity)]
    fn node_walk_oracle(
        ns: &NeuSight,
        jobs: &[(&Graph, &GpuSpec)],
    ) -> (Vec<GraphPrediction>, Vec<(u64, OpDesc, u64)>) {
        let mut slot_of: HashMap<(u64, &OpDesc), usize> = HashMap::new();
        let mut unique: Vec<(u64, OpDesc, f64)> = Vec::new();
        let mut out = Vec::new();
        for (graph, spec) in jobs {
            let gpu = spec_fingerprint(spec);
            let (mut forward_s, mut backward_s) = (0.0, 0.0);
            let mut per_node_s = Vec::new();
            for node in graph.iter() {
                let next = unique.len();
                let slot = *slot_of.entry((gpu, &node.op)).or_insert(next);
                if slot == next {
                    let lat = ns.predict_op_uncached(&node.op, spec).unwrap();
                    unique.push((gpu, node.op.clone(), lat));
                }
                let lat = unique[slot].2;
                per_node_s.push(lat);
                match node.phase {
                    Phase::Forward => forward_s += lat,
                    Phase::Backward => backward_s += lat,
                }
            }
            out.push(GraphPrediction {
                total_s: forward_s + backward_s,
                forward_s,
                backward_s,
                per_node_s,
            });
        }
        let entries = unique
            .into_iter()
            .map(|(gpu, op, lat)| (gpu, op, lat.to_bits()))
            .collect();
        (out, entries)
    }

    /// The prediction cache's entries in insertion order.
    fn cache_entries(ns: &NeuSight) -> Vec<(u64, OpDesc, u64)> {
        let state = ns.cache.0.state.read();
        let mut entries: Vec<(u64, (u64, OpDesc, u64))> = Vec::new();
        for shard in state.shards.iter() {
            let inner = shard.inner.lock();
            let collided = inner.collided.iter().map(|(_, entry)| entry);
            for entry in inner.map.values().chain(collided) {
                let CacheEntry {
                    fp,
                    op,
                    latency_s,
                    seq,
                } = entry;
                entries.push((*seq, (*fp, op.clone(), latency_s.to_bits())));
            }
        }
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, entry)| entry).collect()
    }

    fn prediction_bits(preds: &[GraphPrediction]) -> Vec<(u64, u64, u64, Vec<u64>)> {
        preds
            .iter()
            .map(|p| {
                let per_node = p.per_node_s.iter().map(|s| s.to_bits()).collect();
                let (t, f, b) = (p.total_s, p.forward_s, p.backward_s);
                (t.to_bits(), f.to_bits(), b.to_bits(), per_node)
            })
            .collect()
    }

    /// Table 4 plus the CNNs, inference and training, each plain and
    /// fused, at batch 2.
    fn oracle_graphs() -> &'static [Graph] {
        static GRAPHS: OnceLock<Vec<Graph>> = OnceLock::new();
        GRAPHS.get_or_init(|| {
            let mut graphs = Vec::new();
            for name in neusight_graph::workload_names() {
                for training in [false, true] {
                    let graph = neusight_graph::workload_graph(&name, 2, training).unwrap();
                    graphs.push(neusight_graph::fuse_graph(&graph));
                    graphs.push(graph);
                }
            }
            graphs
        })
    }

    fn oracle_framework() -> &'static NeuSight {
        static NS: OnceLock<NeuSight> = OnceLock::new();
        NS.get_or_init(tiny_framework)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Kernel-table dedup agrees bitwise with the node-walk oracle on
        /// random batches (repeated graphs and GPUs included), cold and
        /// warm, and leaves the same cache entries in the same order.
        #[test]
        fn kernel_table_dedup_matches_node_walk_oracle(
            picks in prop::collection::vec(
                (0usize..32, prop::sample::select(vec!["V100", "H100", "T4"])),
                1..5,
            ),
        ) {
            let ns = oracle_framework();
            let specs: Vec<GpuSpec> =
                picks.iter().map(|(_, gpu)| catalog::gpu(gpu).unwrap()).collect();
            let jobs: Vec<(&Graph, &GpuSpec)> = picks
                .iter()
                .zip(&specs)
                .map(|((graph, _), spec)| (&oracle_graphs()[*graph], spec))
                .collect();
            let (want, want_entries) = node_walk_oracle(ns, &jobs);
            ns.clear_prediction_cache();
            let cold = ns.predict_graph_batch(&jobs).unwrap();
            prop_assert_eq!(cache_entries(ns), want_entries);
            let warm = ns.predict_graph_batch(&jobs).unwrap();
            prop_assert_eq!(prediction_bits(&cold), prediction_bits(&want));
            prop_assert_eq!(prediction_bits(&warm), prediction_bits(&want));
        }
    }
}

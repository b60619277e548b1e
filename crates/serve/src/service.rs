//! The prediction service behind the HTTP routes: wire types for
//! `/v1/predict`, name resolution shared with the CLI, a kernel-plan
//! cache so repeated requests skip IR construction, the batched entry
//! point the micro-batching dispatcher calls, and the response-memo
//! answer the event loop gives on its own thread.

use crate::lifecycle::{Lifecycle, LifecycleConfig};
use crate::model::{ModelEpoch, ModelHandle};
use neusight_baselines::OpLatencyPredictor;
use neusight_core::NeuSight;
use neusight_fault::{BreakerConfig, BreakerState, CircuitBreaker};
use neusight_gpu::{catalog, GpuSpec, OpClass, OpDesc};
use neusight_graph::{config, workload_graph, KernelPlan};
use neusight_obs as obs;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

fn default_batch() -> u64 {
    1
}

fn default_false() -> bool {
    false
}

/// Body of a `POST /v1/predict` request.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Workload name: Table 4 (exact or unambiguous prefix), `resnet50`,
    /// or `vgg16`.
    pub model: String,
    /// Catalog GPU name (`neusight gpus`).
    pub gpu: String,
    /// Batch size (default 1).
    #[serde(default = "default_batch")]
    pub batch: u64,
    /// Forecast a training iteration (forward + backward) instead of
    /// inference.
    #[serde(default = "default_false")]
    pub train: bool,
    /// Apply the operator-fusion pass before predicting.
    #[serde(default = "default_false")]
    pub fused: bool,
    /// Include the full per-node latency vector in the response.
    #[serde(default = "default_false")]
    pub detail: bool,
}

/// Body of a `POST /v1/predict` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Canonical model name after prefix resolution.
    pub model: String,
    /// Canonical GPU name.
    pub gpu: String,
    /// Batch size.
    pub batch: u64,
    /// `"training"` or `"inference"`.
    pub mode: String,
    /// Whether the fused graph was predicted.
    pub fused: bool,
    /// Number of kernels in the predicted graph.
    pub kernels: usize,
    /// End-to-end forecast, milliseconds.
    pub total_ms: f64,
    /// Forward-phase portion, milliseconds.
    pub forward_ms: f64,
    /// Backward-phase portion, milliseconds.
    pub backward_ms: f64,
    /// Latency aggregated per op family, milliseconds.
    pub per_family_ms: BTreeMap<String, f64>,
    /// Per-kernel latencies in execution order, milliseconds (only when
    /// the request set `detail`).
    pub per_node_ms: Option<Vec<f64>>,
    /// `true` when the MLP predictor path was unavailable and this
    /// response was served by the roofline fallback instead. Degraded
    /// forecasts are coarser (no learned utilization model) but keep the
    /// service answering.
    #[serde(default = "default_false")]
    pub degraded: bool,
}

/// A service-level failure, carrying the HTTP status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status code.
    pub status: u16,
    /// Human-readable message for the JSON error envelope.
    pub message: String,
}

impl ServeError {
    /// A 400 for unresolvable names / bad parameters.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> ServeError {
        ServeError {
            status: 400,
            message: message.into(),
        }
    }

    /// A 422 for requests that parse as JSON but fail field-level
    /// validation (absurd sizes, empty names). The message names the
    /// offending field so clients can fix it.
    #[must_use]
    pub fn unprocessable(message: impl Into<String>) -> ServeError {
        ServeError {
            status: 422,
            message: message.into(),
        }
    }

    /// A 500 for unexpected prediction failures.
    #[must_use]
    pub fn internal(message: impl Into<String>) -> ServeError {
        ServeError {
            status: 500,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.status)
    }
}

impl std::error::Error for ServeError {}

/// Upper bound on the `batch` field of a predict request. Far beyond any
/// realistic training batch; exists so absurd values are rejected with a
/// field-level 422 at the boundary instead of building astronomically
/// sized graphs.
pub const MAX_REQUEST_BATCH: u64 = 4096;

/// Upper bound on `model` / `gpu` name length, bytes.
pub const MAX_NAME_BYTES: usize = 256;

/// Cache key for kernel plans: canonical model × batch × phase × fusion.
type PlanKey = (String, u64, bool, bool);

/// Bound on memoized serialized responses. The request space is tiny
/// (model × GPU × batch × flags), so this is generous; FIFO eviction
/// keeps worst-case memory bounded against adversarial request streams.
const RESPONSE_CACHE_CAPACITY: usize = 8192;

/// Memo key: the model epoch the body was computed under, the request,
/// and the degraded flag it was served with.
type MemoKey = (u64, PredictRequest, bool);

/// A memo key's parts, whether the key owns its request or borrows it:
/// the map stores [`MemoKey`]s, and a lookup hashes and compares a
/// borrowed view, so a memo hit copies no request string.
trait MemoKeyView {
    fn parts(&self) -> (u64, &PredictRequest, bool);
}

impl MemoKeyView for MemoKey {
    fn parts(&self) -> (u64, &PredictRequest, bool) {
        (self.0, &self.1, self.2)
    }
}

impl MemoKeyView for (u64, &PredictRequest, bool) {
    fn parts(&self) -> (u64, &PredictRequest, bool) {
        *self
    }
}

impl<'a> Borrow<dyn MemoKeyView + 'a> for MemoKey {
    fn borrow(&self) -> &(dyn MemoKeyView + 'a) {
        self
    }
}

/// Hashes exactly as [`MemoKey`]'s tuple hash does: the parts in order,
/// the request through `&PredictRequest`'s forwarding impl.
impl Hash for dyn MemoKeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn MemoKeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn MemoKeyView + '_ {}

/// A bounded FIFO memo of fully serialized response bodies, keyed by the
/// model epoch plus the request plus the degraded flag it was served
/// under.
///
/// Prediction is pure *per model generation*, so for a repeated request
/// the entire JSON body is a function of `(epoch, request, degraded)` —
/// the serving hot path can skip graph walking *and* serialization and
/// answer with a shared `Arc<str>`. Serialization goes through the same
/// `serde_json::to_string` call as the uncached path, so cached bytes
/// are identical by construction. Epochs in the key mean a model swap
/// can never replay bodies from the displaced weights; old-epoch entries
/// are purged eagerly on swap and a defensive check counts any stale
/// body that would somehow survive as `model.stale_hits.total` (the
/// acceptance bar for that counter is zero).
struct ResponseCache {
    map: HashMap<MemoKey, (u64, Arc<str>)>,
    order: VecDeque<MemoKey>,
}

impl ResponseCache {
    fn new() -> ResponseCache {
        ResponseCache {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The non-degraded body memoized for `request` under `epoch`.
    fn get(&self, epoch: u64, request: &PredictRequest) -> Option<Arc<str>> {
        let key: &dyn MemoKeyView = &(epoch, request, false);
        let (stamped_epoch, body) = self.map.get(key)?;
        if *stamped_epoch != epoch {
            // Unreachable by construction (the epoch is part of the key),
            // but the whole point of the counter is to prove that in
            // production rather than assume it.
            obs::metrics::counter("model.stale_hits.total").inc();
            return None;
        }
        Some(Arc::clone(body))
    }

    /// Inserts a body unless the key is already memoized; reports whether
    /// anything was actually added (cache gossip counts fresh entries).
    fn insert(&mut self, key: MemoKey, body: Arc<str>) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        self.order.push_back(key.clone());
        let epoch = key.0;
        self.map.insert(key, (epoch, body));
        while self.map.len() > RESPONSE_CACHE_CAPACITY {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
        }
        true
    }

    /// Drops every entry not computed under `epoch` — called on model
    /// swap and rollback so a displaced generation's bodies cannot
    /// outlive it.
    fn purge_other_epochs(&mut self, epoch: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|key, _| key.0 == epoch);
        self.order.retain(|key| key.0 == epoch);
        before - self.map.len()
    }
}

/// One gossiped cache entry: the request key and the exact serialized
/// response body it maps to on the donor. The body ships verbatim (not
/// re-serialized) so a warmed replica answers byte-identically to the
/// donor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GossipEntry {
    /// The memo key (degraded entries are never gossiped).
    pub request: PredictRequest,
    /// The serialized `PredictResponse` body, verbatim.
    pub body: String,
}

/// Wire payload of `/v1/cache/export` and `/v1/cache/import`, carried
/// inside the checksummed guard envelope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GossipPayload {
    /// Registry version tag of the donor's serving model. Importers
    /// refuse payloads from a different version — after a weight change
    /// a warm-gossip must not seed predictions computed by the old
    /// model. Defaults to empty for payloads from pre-lifecycle donors,
    /// which are therefore refused by versioned receivers.
    #[serde(default)]
    pub model_version: String,
    /// Hot entries, newest first.
    pub entries: Vec<GossipEntry>,
}

/// Upper bound on entries in one gossip exchange.
pub const MAX_GOSSIP_ENTRIES: usize = 1024;

/// Upper bound on summed body bytes in one gossip exchange — keeps the
/// wrapped envelope comfortably under the codec's 1 MiB body cap.
pub const MAX_GOSSIP_BYTES: usize = 768 * 1024;

/// The long-lived prediction service: one trained [`NeuSight`] plus a
/// kernel-plan cache, shared by every connection handler through the
/// dispatcher.
///
/// Amortization is the whole point of the server (the ROADMAP's
/// "millions of users" shape): the predictor weights and tile database
/// load once, each workload's graph is built once and its
/// [`KernelPlan`] reused across requests, and the
/// bounded memo cache inside [`NeuSight`] carries warm per-kernel
/// predictions from any request to all later ones.
pub struct PredictService {
    /// The serving model generation behind an epoch-tagged atomic swap
    /// (see [`ModelHandle`]); the degraded-tier roofline baseline rides
    /// inside each generation so it always matches the serving dtype.
    pub(crate) model: ModelHandle,
    /// Each served workload's [`KernelPlan`]: all a forecast reads of
    /// its graph, at about 5 bytes a node plus the kernel table.
    plans: Mutex<HashMap<PlanKey, Arc<KernelPlan>>>,
    specs: Mutex<HashMap<String, GpuSpec>>,
    /// Trips after consecutive MLP-path failures; while open, requests go
    /// straight to the roofline fallback without touching the predictor.
    pub(crate) breaker: CircuitBreaker,
    /// Serialized response bodies for repeated requests (see
    /// [`ResponseCache`]).
    responses: Mutex<ResponseCache>,
    /// Brownout tier: when set (by the router's shed controller via
    /// `POST /v1/control/brownout`), every prediction is served from the
    /// roofline fallback even though the MLP path is healthy — cheaper
    /// answers instead of dropped requests.
    forced_degraded: AtomicBool,
    /// Reload gate + shadow-scoring + post-promotion observation state
    /// (see [`crate::lifecycle`]).
    pub(crate) lifecycle: Lifecycle,
    /// `serve.response_cache.hits`, resolved once.
    memo_hits: Arc<obs::Counter>,
}

/// Version tag used when a service is constructed from bare weights
/// (tests, `--model` single-file mode) rather than the registry.
pub const UNVERSIONED: &str = "unversioned";

impl PredictService {
    /// Wraps a trained framework with the default breaker tuning.
    #[must_use]
    pub fn new(ns: NeuSight) -> PredictService {
        PredictService::with_breaker(ns, BreakerConfig::default())
    }

    /// Wraps a trained framework with explicit breaker tuning.
    #[must_use]
    pub fn with_breaker(ns: NeuSight, config: BreakerConfig) -> PredictService {
        PredictService::with_version(UNVERSIONED, ns, config, LifecycleConfig::default())
    }

    /// Wraps a trained framework under an explicit registry version tag
    /// with explicit breaker and lifecycle tuning.
    #[must_use]
    pub fn with_version(
        version: impl Into<String>,
        ns: NeuSight,
        config: BreakerConfig,
        lifecycle: LifecycleConfig,
    ) -> PredictService {
        PredictService {
            model: ModelHandle::new(version, ns),
            plans: Mutex::new(HashMap::new()),
            specs: Mutex::new(HashMap::new()),
            breaker: CircuitBreaker::new("serve.predict", config),
            responses: Mutex::new(ResponseCache::new()),
            forced_degraded: AtomicBool::new(false),
            lifecycle: Lifecycle::new(lifecycle),
            memo_hits: obs::metrics::counter("serve.response_cache.hits"),
        }
    }

    /// Version tag of the serving model generation.
    #[must_use]
    pub fn model_version(&self) -> String {
        self.model.version()
    }

    /// Epoch number of the serving model generation.
    #[must_use]
    pub fn model_epoch(&self) -> u64 {
        self.model.epoch()
    }

    /// Atomically installs `ns` as the serving model under a fresh epoch
    /// and purges every memoized response from older generations.
    /// Returns the new generation.
    pub fn install_model(&self, version: &str, ns: NeuSight) -> Arc<ModelEpoch> {
        let next = self.model.swap(version, ns);
        let purged =
            neusight_guard::recover_poison(self.responses.lock()).purge_other_epochs(next.epoch());
        obs::metrics::counter("model.reloads.total").inc();
        obs::event!(
            "model_swap",
            version = next.version(),
            epoch = next.epoch(),
            purged = purged
        );
        next
    }

    /// Rolls the serving model back to the retained previous generation
    /// (same weights, fresh epoch), purging the failed generation's
    /// memoized responses, bumping `model.rollbacks.total`, and dumping
    /// the flight recorder for the post-mortem. Returns `None` when no
    /// previous generation is retained.
    pub fn rollback_model(&self, reason: &str) -> Option<Arc<ModelEpoch>> {
        let restored = self.model.rollback()?;
        neusight_guard::recover_poison(self.responses.lock()).purge_other_epochs(restored.epoch());
        obs::metrics::counter("model.rollbacks.total").inc();
        obs::event!(
            "model_rollback",
            version = restored.version(),
            epoch = restored.epoch(),
            reason = reason
        );
        let path = obs::trace::dump_path();
        if let Err(e) = obs::trace::dump_to_file(&path) {
            obs::event!("model_rollback_dump_failed", error = e);
        }
        Some(restored)
    }

    /// Whether the brownout tier is active.
    #[must_use]
    pub fn forced_degraded(&self) -> bool {
        self.forced_degraded.load(Ordering::SeqCst)
    }

    /// Enters or leaves the brownout tier (idempotent).
    pub fn set_forced_degraded(&self, on: bool) {
        let was = self.forced_degraded.swap(on, Ordering::SeqCst);
        obs::metrics::gauge("serve.degraded.forced").set(f64::from(u8::from(on)));
        if was != on {
            obs::event!("serve_brownout", on = on);
        }
    }

    /// The serving model generation (derefs to the underlying
    /// [`NeuSight`], e.g. for cache-capacity control). The `Arc` pins
    /// one generation: a concurrent swap does not change it.
    #[must_use]
    pub fn neusight(&self) -> Arc<ModelEpoch> {
        self.model.current()
    }

    /// Current state of the predictor circuit breaker.
    #[must_use]
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Canonical workload name for a request's `model` field.
    ///
    /// # Errors
    ///
    /// 400 with the resolver's message for unknown/ambiguous names.
    pub fn canonical_model(name: &str) -> Result<String, ServeError> {
        match name.to_ascii_lowercase().as_str() {
            "resnet50" => Ok("resnet50".to_owned()),
            "vgg16" => Ok("vgg16".to_owned()),
            _ => config::resolve(name)
                .map(|m| m.name)
                .map_err(|e| ServeError::bad_request(e.to_string())),
        }
    }

    /// Field-level validation of a parsed request, before any name
    /// resolution or graph construction.
    ///
    /// # Errors
    ///
    /// 422 naming the offending field for out-of-range batch sizes and
    /// empty or oversized names. (Unknown-but-plausible names stay 400,
    /// from the resolvers.)
    pub fn validate(req: &PredictRequest) -> Result<(), ServeError> {
        neusight_guard::validate::require_range("batch", req.batch, 1, MAX_REQUEST_BATCH)
            .map_err(|e| ServeError::unprocessable(e.to_string()))?;
        neusight_guard::validate::require_name("model", &req.model, MAX_NAME_BYTES)
            .map_err(|e| ServeError::unprocessable(e.to_string()))?;
        neusight_guard::validate::require_name("gpu", &req.gpu, MAX_NAME_BYTES)
            .map_err(|e| ServeError::unprocessable(e.to_string()))?;
        Ok(())
    }

    /// Catalog spec for a request's `gpu` field (cached).
    ///
    /// # Errors
    ///
    /// 400 for names outside the catalog.
    pub fn resolve_gpu(&self, name: &str) -> Result<GpuSpec, ServeError> {
        let mut specs = neusight_guard::recover_poison(self.specs.lock());
        if let Some(spec) = specs.get(name) {
            return Ok(spec.clone());
        }
        let spec = catalog::gpu(name).map_err(|e| ServeError::bad_request(e.to_string()))?;
        specs.insert(name.to_owned(), spec.clone());
        Ok(spec)
    }

    /// The (cached) kernel plan for a resolved request. A miss builds
    /// the graph, fuses it if asked (fusion needs the topology), keeps
    /// its plan and drops the rest.
    ///
    /// # Errors
    ///
    /// 500 if graph construction fails for a name that resolved — a
    /// service bug, but one that must answer as JSON, not a panic.
    pub(crate) fn plan(
        &self,
        canonical: &str,
        batch: u64,
        train: bool,
        fused: bool,
    ) -> Result<Arc<KernelPlan>, ServeError> {
        let key = (canonical.to_owned(), batch, train, fused);
        let mut plans = neusight_guard::recover_poison(self.plans.lock());
        if let Some(plan) = plans.get(&key) {
            return Ok(Arc::clone(plan));
        }
        let graph = workload_graph(canonical, batch, train).map_err(|e| {
            ServeError::internal(format!("graph construction failed for `{canonical}`: {e}"))
        })?;
        let graph = if fused {
            neusight_graph::fuse_graph(&graph)
        } else {
            graph
        };
        let plan = Arc::new(graph.into_plan());
        plans.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Serves a whole micro-batch of predict requests with **one**
    /// [`NeuSight::predict_plan_batch`] call: the kernels of every
    /// request in the batch are deduplicated together and dispatched as
    /// one MLP forward pass per `(GPU, op family)`. Results are
    /// positionally aligned with `requests`.
    pub fn predict_batch(
        &self,
        requests: &[PredictRequest],
    ) -> Vec<Result<PredictResponse, ServeError>> {
        let current = self.model.current();
        self.predict_batch_with(&current, requests)
    }

    /// [`PredictService::predict_batch`] pinned to one model generation,
    /// so a concurrent swap cannot change the predictor (or which epoch
    /// the caller memoizes under) halfway through a batch.
    fn predict_batch_with(
        &self,
        current: &ModelEpoch,
        requests: &[PredictRequest],
    ) -> Vec<Result<PredictResponse, ServeError>> {
        // Resolve every request first; unresolvable ones fail without
        // poisoning the rest of the batch.
        type Resolved = (String, GpuSpec, Arc<KernelPlan>);
        let resolved: Vec<Result<Resolved, ServeError>> = requests
            .iter()
            .map(|req| {
                Self::validate(req)?;
                let model = Self::canonical_model(&req.model)?;
                let spec = self.resolve_gpu(&req.gpu)?;
                let plan = self.plan(&model, req.batch, req.train, req.fused)?;
                Ok((model, spec, plan))
            })
            .collect();

        let jobs: Vec<(&KernelPlan, &GpuSpec)> = resolved
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|(_, spec, plan)| (plan.as_ref(), spec))
            .collect();

        // MLP path, guarded by the circuit breaker. Any failure — or an
        // open breaker — degrades the whole micro-batch to the roofline
        // fallback instead of dropping it.
        let mut degraded = false;
        let mut predictions = Vec::new().into_iter();
        if !jobs.is_empty() {
            if self.forced_degraded() {
                // Brownout: the MLP path is healthy but the fleet is
                // overloaded — answer from the cheap analytical tier
                // without touching breaker accounting.
                obs::metrics::counter("serve.predict.brownout_served").inc();
                degraded = true;
            } else if self.breaker.allow() {
                match current.predict_plan_batch(&jobs) {
                    Ok(p) => {
                        self.breaker.record_success();
                        predictions = p.into_iter();
                    }
                    Err(e) => {
                        self.breaker.record_failure();
                        obs::metrics::counter("serve.predict.mlp_failures").inc();
                        obs::event!("predict_degraded", reason = e);
                        degraded = true;
                    }
                }
            } else {
                obs::metrics::counter("serve.predict.breaker_short_circuit").inc();
                degraded = true;
            }
        }

        requests
            .iter()
            .zip(resolved)
            .map(|(req, slot)| {
                let (model, spec, plan) = slot?;
                let (total_s, forward_s, backward_s, per_node_s) = if degraded {
                    obs::metrics::counter("serve.degraded.responses").inc();
                    let (lat, kernel_s) = current.baseline().predict_graph_by_kernel(&plan, &spec);
                    let per_node_s = plan.nodes().map(|(kernel, _)| kernel_s[kernel.0]).collect();
                    (lat.total_s, lat.forward_s, lat.backward_s, per_node_s)
                } else {
                    let pred = predictions.next().ok_or_else(|| {
                        ServeError::internal("prediction missing for resolved job")
                    })?;
                    (
                        pred.total_s,
                        pred.forward_s,
                        pred.backward_s,
                        pred.per_node_s,
                    )
                };
                // Per-family sums in node order, keyed by class until the
                // (at most six) map keys are built.
                let class_of: Vec<OpClass> = plan.kernels().iter().map(OpDesc::op_class).collect();
                let mut family_ms: [Option<f64>; OpClass::ALL.len()] = Default::default();
                for ((kernel, _), lat) in plan.nodes().zip(&per_node_s) {
                    *family_ms[class_of[kernel.0] as usize].get_or_insert(0.0) += lat * 1e3;
                }
                let per_family_ms = OpClass::ALL
                    .iter()
                    .zip(family_ms)
                    .filter_map(|(class, ms)| Some((class.name().to_owned(), ms?)))
                    .collect();
                Ok(PredictResponse {
                    model,
                    gpu: spec.name().to_owned(),
                    batch: req.batch,
                    mode: if req.train { "training" } else { "inference" }.to_owned(),
                    fused: req.fused,
                    kernels: plan.len(),
                    total_ms: total_s * 1e3,
                    forward_ms: forward_s * 1e3,
                    backward_ms: backward_s * 1e3,
                    per_family_ms,
                    per_node_ms: req
                        .detail
                        .then(|| per_node_s.iter().map(|s| s * 1e3).collect()),
                    degraded,
                })
            })
            .collect()
    }

    /// Answers `requests` from the response memo under the pinned
    /// generation `current`, or returns `None` for the caller to serve
    /// them another way.
    ///
    /// The memo answers only while the breaker is closed and brownout is
    /// off, and only when **every** request has a cached non-degraded
    /// body. Even then the predictor is probed once (an empty
    /// `predict_plan_batch`, which runs the `core.predict.mlp` failpoint
    /// before touching any job), so injected MLP faults and breaker
    /// accounting see every answer exactly as they would without the
    /// memo. A failed probe counts as an MLP failure and returns `None`,
    /// so the full machinery serves the requests degraded. A hit counts
    /// `serve.response_cache.hits` and runs the lifecycle hook like any
    /// other answered batch.
    ///
    /// The dispatcher calls this for a whole batch; the event loop calls
    /// it for one request (see [`PredictService::memo_answer`]).
    fn answer_from_memo(
        &self,
        current: &ModelEpoch,
        requests: &[PredictRequest],
    ) -> Option<Vec<Result<Arc<str>, ServeError>>> {
        if requests.is_empty()
            || self.breaker_state() != BreakerState::Closed
            || self.forced_degraded()
        {
            return None;
        }
        let bodies: Vec<Result<Arc<str>, ServeError>> = {
            let memo = neusight_guard::recover_poison(self.responses.lock());
            requests
                .iter()
                .map(|req| memo.get(current.epoch(), req).map(Ok))
                .collect::<Option<_>>()?
        };
        if let Err(e) = current.predict_plan_batch(&[]) {
            self.breaker.record_failure();
            obs::metrics::counter("serve.predict.mlp_failures").inc();
            obs::event!("predict_degraded", reason = e);
            return None;
        }
        self.breaker.record_success();
        self.memo_hits.add(bodies.len() as u64);
        self.lifecycle_after_batch(current, requests, &bodies);
        Some(bodies)
    }

    /// The event loop's memo lookup: `request`'s cached body and the
    /// generation that computed it, or `None` to hand the request to the
    /// dispatcher (a miss, a failed probe, an open breaker, brownout, or
    /// a reload in progress — see [`PredictService::answer_from_memo`]).
    ///
    /// While the lifecycle is shadowing or observing, every request goes
    /// to the dispatcher: shadow scoring must not run on the loop thread,
    /// and the observation window counts the dispatcher's answers. Only
    /// a reload turns the lifecycle on, and reloads are staged on the
    /// loop thread itself, so the check cannot race one.
    pub(crate) fn memo_answer(
        &self,
        request: &PredictRequest,
    ) -> Option<(Arc<str>, Arc<ModelEpoch>)> {
        if self.lifecycle.is_active() {
            return None;
        }
        let current = self.model.current();
        let body = self
            .answer_from_memo(&current, std::slice::from_ref(request))?
            .pop()?
            .ok()?;
        Some((body, current))
    }

    /// Serves a micro-batch as fully serialized JSON bodies.
    ///
    /// A batch whose every request is a memo hit is answered from the
    /// memo (see [`PredictService::answer_from_memo`]). Anything else —
    /// cold requests, invalid requests, open/half-open breaker, brownout,
    /// a failed probe — takes [`PredictService::predict_batch`] and
    /// memoizes the serialized successes on the way out. Serialization
    /// uses the same `serde_json::to_string` in both paths, so a cached
    /// body is byte-identical to a freshly computed one.
    pub fn predict_batch_serialized(
        &self,
        requests: &[PredictRequest],
    ) -> Vec<Result<Arc<str>, ServeError>> {
        self.predict_batch_serialized_with(&self.model.current(), requests)
    }

    /// [`PredictService::predict_batch_serialized`] pinned to one model
    /// generation — the dispatcher's entry point. The prediction, the
    /// memo keys, and the shadow comparison all see the same epoch even
    /// if a swap lands concurrently, and the caller labels the answers
    /// with that generation's version.
    pub(crate) fn predict_batch_serialized_with(
        &self,
        current: &ModelEpoch,
        requests: &[PredictRequest],
    ) -> Vec<Result<Arc<str>, ServeError>> {
        if let Some(bodies) = self.answer_from_memo(current, requests) {
            return bodies;
        }
        let results = self.predict_batch_with(current, requests);
        let bodies: Vec<Result<Arc<str>, ServeError>> = {
            let mut memo = neusight_guard::recover_poison(self.responses.lock());
            requests
                .iter()
                .zip(results)
                .map(|(req, result)| {
                    let response = result?;
                    let body: Arc<str> = serde_json::to_string(&response)
                        .map_err(|e| {
                            ServeError::internal(format!("response serialization failed: {e}"))
                        })?
                        .into();
                    memo.insert(
                        (current.epoch(), req.clone(), response.degraded),
                        Arc::clone(&body),
                    );
                    Ok(body)
                })
                .collect()
        };
        obs::trace::predict_mark("serialize");
        self.lifecycle_after_batch(current, requests, &bodies);
        bodies
    }

    /// JSON body for `GET /v1/models`.
    #[must_use]
    pub fn models_json(&self) -> String {
        #[derive(Serialize)]
        struct Entry {
            name: String,
            family: String,
            approx_params: Option<u64>,
            seq_len: Option<u64>,
        }
        #[derive(Serialize)]
        struct Listing {
            models: Vec<Entry>,
        }
        let mut models: Vec<Entry> = config::table4()
            .into_iter()
            .map(|m| Entry {
                approx_params: Some(m.approx_params()),
                seq_len: Some(m.seq_len),
                name: m.name,
                family: "transformer".to_owned(),
            })
            .collect();
        for cnn in ["resnet50", "vgg16"] {
            models.push(Entry {
                name: cnn.to_owned(),
                family: "cnn".to_owned(),
                approx_params: None,
                seq_len: None,
            });
        }
        serde_json::to_string(&Listing { models }).unwrap_or_else(|_| {
            obs::metrics::counter("serve.listing.serialize_failures").inc();
            r#"{"error":"model listing serialization failed"}"#.to_owned()
        })
    }

    /// JSON body for `GET /v1/gpus`.
    #[must_use]
    pub fn gpus_json(&self) -> String {
        #[derive(Serialize)]
        struct Entry {
            name: String,
            role: String,
            year: u32,
            peak_tflops: f64,
            memory_gb: f64,
            memory_gbps: f64,
            num_sms: u32,
        }
        #[derive(Serialize)]
        struct Listing {
            gpus: Vec<Entry>,
        }
        let gpus = catalog::all()
            .into_iter()
            .map(|entry| Entry {
                name: entry.spec.name().to_owned(),
                role: match entry.role {
                    catalog::SplitRole::Train => "train".to_owned(),
                    catalog::SplitRole::Test => "held-out".to_owned(),
                },
                year: entry.spec.year(),
                peak_tflops: entry.spec.peak_tflops(),
                memory_gb: entry.spec.memory_gb(),
                memory_gbps: entry.spec.memory_gbps(),
                num_sms: entry.spec.num_sms(),
            })
            .collect();
        serde_json::to_string(&Listing { gpus }).unwrap_or_else(|_| {
            obs::metrics::counter("serve.listing.serialize_failures").inc();
            r#"{"error":"gpu listing serialization failed"}"#.to_owned()
        })
    }

    /// Body for `GET /v1/cache/export`: up to `limit` hot (non-degraded)
    /// memoized responses, newest first, wrapped in the checksummed guard
    /// envelope. Bounded by [`MAX_GOSSIP_ENTRIES`] entries and
    /// [`MAX_GOSSIP_BYTES`] of body bytes so the exchange always fits the
    /// HTTP codec's body cap.
    #[must_use]
    pub fn export_cache(&self, limit: usize) -> Vec<u8> {
        let limit = limit.min(MAX_GOSSIP_ENTRIES);
        let current = self.model.current();
        let mut entries = Vec::new();
        let mut body_bytes = 0usize;
        {
            let memo = neusight_guard::recover_poison(self.responses.lock());
            for key in memo.order.iter().rev() {
                if entries.len() >= limit {
                    break;
                }
                // Degraded bodies describe the *donor's* failure mode, not
                // the workload; warming a healthy replica with them would
                // poison its memo. Bodies from a displaced epoch (purged
                // on swap, but a swap may race this export) must not ship
                // under the current version tag either.
                if key.2 || key.0 != current.epoch() {
                    continue;
                }
                let Some((_, body)) = memo.map.get(key) else {
                    continue;
                };
                if body_bytes + body.len() > MAX_GOSSIP_BYTES {
                    break;
                }
                body_bytes += body.len();
                entries.push(GossipEntry {
                    request: key.1.clone(),
                    body: body.to_string(),
                });
            }
        }
        obs::metrics::counter("serve.gossip.exported").add(entries.len() as u64);
        let payload = GossipPayload {
            model_version: current.version().to_owned(),
            entries,
        };
        let payload = serde_json::to_string(&payload).unwrap_or_else(|_| {
            obs::metrics::counter("serve.listing.serialize_failures").inc();
            r#"{"model_version":"","entries":[]}"#.to_owned()
        });
        neusight_guard::envelope::wrap(payload.as_bytes())
    }

    /// Handles `POST /v1/cache/import`: unwraps a gossiped envelope and
    /// seeds the response memo with its entries. Returns how many entries
    /// were actually new. Every entry is re-validated on the way in — the
    /// request must pass field validation and the body must parse as a
    /// non-degraded [`PredictResponse`] — so a misbehaving donor cannot
    /// plant garbage.
    ///
    /// # Errors
    ///
    /// 400 for a tampered/legacy envelope, unparsable payload, oversized
    /// entry count, or any entry that fails validation.
    pub fn import_cache(&self, bytes: &[u8]) -> Result<usize, ServeError> {
        let decoded = neusight_guard::envelope::decode(bytes, "cache.gossip")
            .map_err(|e| ServeError::bad_request(format!("gossip envelope rejected: {e}")))?;
        if decoded.legacy {
            return Err(ServeError::bad_request(
                "gossip requires a checksummed envelope (legacy payload rejected)",
            ));
        }
        let text = std::str::from_utf8(decoded.payload)
            .map_err(|_| ServeError::bad_request("gossip payload is not UTF-8"))?;
        let payload: GossipPayload = serde_json::from_str(text)
            .map_err(|e| ServeError::bad_request(format!("gossip payload unparsable: {e}")))?;
        let current = self.model.current();
        if payload.model_version != current.version() {
            obs::metrics::counter("serve.gossip.version_refused").inc();
            return Err(ServeError::bad_request(format!(
                "gossip model version `{}` does not match serving version `{}`",
                payload.model_version,
                current.version()
            )));
        }
        if payload.entries.len() > MAX_GOSSIP_ENTRIES {
            return Err(ServeError::bad_request(format!(
                "gossip payload carries {} entries (max {MAX_GOSSIP_ENTRIES})",
                payload.entries.len()
            )));
        }
        for entry in &payload.entries {
            Self::validate(&entry.request)?;
            let response: PredictResponse = serde_json::from_str(&entry.body).map_err(|e| {
                ServeError::bad_request(format!("gossip entry body unparsable: {e}"))
            })?;
            if response.degraded {
                return Err(ServeError::bad_request(
                    "gossip entry carries a degraded response",
                ));
            }
        }
        let mut imported = 0usize;
        {
            let mut memo = neusight_guard::recover_poison(self.responses.lock());
            for entry in payload.entries {
                // Insert the donor's bytes verbatim: byte-identical answers
                // across the fleet are the contract the router's bitwise
                // gate checks. Keyed under the *current* epoch — the
                // version check above proved the donor serves the same
                // weights.
                if memo.insert((current.epoch(), entry.request, false), entry.body.into()) {
                    imported += 1;
                }
            }
        }
        obs::metrics::counter("serve.gossip.imported").add(imported as u64);
        Ok(imported)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_baselines::RooflineBaseline;
    use neusight_core::NeuSightConfig;
    use neusight_data::{collect_training_set, training_gpus, SweepScale};
    use neusight_fault::{FaultSpec, PointConfig};
    use neusight_gpu::DType;
    use std::sync::{OnceLock, PoisonError};
    use std::time::Duration;

    fn trained() -> NeuSight {
        static CELL: OnceLock<NeuSight> = OnceLock::new();
        CELL.get_or_init(|| {
            let data = collect_training_set(&training_gpus(), SweepScale::Tiny, DType::F32);
            NeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training")
        })
        .clone()
    }

    fn service() -> &'static PredictService {
        static CELL: OnceLock<PredictService> = OnceLock::new();
        CELL.get_or_init(|| PredictService::new(trained()))
    }

    /// Serializes tests that arm the process-global fault registry.
    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn req(model: &str, gpu: &str, batch: u64, train: bool) -> PredictRequest {
        PredictRequest {
            model: model.to_owned(),
            gpu: gpu.to_owned(),
            batch,
            train,
            fused: false,
            detail: false,
        }
    }

    /// A borrowed lookup finds exactly the owned key it names: the same
    /// epoch, the same request, not degraded. FIFO eviction and epoch
    /// purging still drop entries by their owned keys.
    #[test]
    fn memo_lookup_by_borrowed_key_matches_owned_keys() {
        let mut memo = ResponseCache::new();
        let hot = req("gpt2-large", "H100", 2, false);
        let degraded = req("gpt2-large", "H100", 4, false);
        assert!(memo.insert((1, hot.clone(), false), "hot".into()));
        assert!(!memo.insert((1, hot.clone(), false), "again".into()));
        assert!(memo.insert((1, degraded.clone(), true), "degraded".into()));
        assert_eq!(memo.get(1, &hot).as_deref(), Some("hot"));
        assert_eq!(memo.get(2, &hot), None);
        assert_eq!(memo.get(1, &degraded), None);
        assert_eq!(
            memo.get(
                1,
                &PredictRequest {
                    detail: true,
                    ..hot.clone()
                }
            ),
            None
        );

        for batch in 0..RESPONSE_CACHE_CAPACITY as u64 {
            memo.insert(
                (1, req("bert-large", "V100", batch, true), false),
                "x".into(),
            );
        }
        assert_eq!(memo.map.len(), RESPONSE_CACHE_CAPACITY);
        assert_eq!(memo.get(1, &hot), None, "the oldest entry is evicted first");
        assert_eq!(
            memo.get(1, &req("bert-large", "V100", 0, true)).as_deref(),
            Some("x")
        );

        assert_eq!(memo.purge_other_epochs(2), RESPONSE_CACHE_CAPACITY);
        assert!(memo.map.is_empty() && memo.order.is_empty());
        assert!(memo.insert((2, hot.clone(), false), "next".into()));
        assert_eq!(memo.get(2, &hot).as_deref(), Some("next"));
    }

    #[test]
    fn request_json_round_trip_with_defaults() {
        let parsed: PredictRequest =
            serde_json::from_str(r#"{"model":"gpt2","gpu":"H100"}"#).unwrap();
        assert_eq!(parsed.model, "gpt2");
        assert_eq!(parsed.batch, 1);
        assert!(!parsed.train && !parsed.fused && !parsed.detail);
        let full: PredictRequest = serde_json::from_str(
            r#"{"model":"bert","gpu":"V100","batch":8,"train":true,"fused":true,"detail":true}"#,
        )
        .unwrap();
        assert!(full.train && full.fused && full.detail);
        assert_eq!(full.batch, 8);
    }

    #[test]
    fn batch_predictions_match_direct_predict_graph_bitwise() {
        let _guard = fault_lock();
        let svc = service();
        let spec = catalog::gpu("V100").unwrap();
        let requests = vec![
            req("gpt2", "V100", 2, false),
            req("bert", "V100", 2, true),
            req("gpt2", "V100", 2, false), // duplicate coalesces
        ];
        let out = svc.predict_batch(&requests);
        assert_eq!(out.len(), 3);
        let gpt2 = out[0].as_ref().unwrap();
        assert_eq!(gpt2.model, "GPT2-Large");
        assert_eq!(gpt2.mode, "inference");
        assert_eq!(out[2].as_ref().unwrap(), gpt2);
        let direct = svc
            .neusight()
            .predict_graph(
                &neusight_graph::inference_graph(&config::gpt2_large(), 2),
                &spec,
            )
            .unwrap();
        assert_eq!((direct.total_s * 1e3).to_bits(), gpt2.total_ms.to_bits());
        let bert = out[1].as_ref().unwrap();
        assert_eq!(bert.mode, "training");
        assert!(bert.backward_ms > 0.0);
        // Family breakdown sums back to the total (modulo float assoc).
        let family_sum: f64 = bert.per_family_ms.values().sum();
        assert!((family_sum - bert.total_ms).abs() < 1e-6 * bert.total_ms.max(1.0));
    }

    #[test]
    fn bad_requests_fail_without_poisoning_the_batch() {
        let _guard = fault_lock();
        let svc = service();
        let out = svc.predict_batch(&[
            req("gpt2", "V100", 1, false),
            req("nonesuch", "V100", 1, false),
            req("gpt2", "NoSuchGPU", 1, false),
            req("gpt3", "V100", 1, false), // ambiguous prefix
            req("gpt2", "V100", 0, false), // zero batch
            req("gpt2", "V100", MAX_REQUEST_BATCH + 1, false), // absurd batch
            req("", "V100", 1, false),     // empty model name
        ]);
        assert!(out[0].is_ok());
        // Plausible-but-unknown names are resolver 400s...
        for bad in &out[1..4] {
            assert_eq!(bad.as_ref().unwrap_err().status, 400);
        }
        assert!(out[3].as_ref().unwrap_err().message.contains("ambiguous"));
        // ...while field-level violations are 422s naming the field.
        for (bad, field) in out[4..].iter().zip(["batch", "batch", "model"]) {
            let err = bad.as_ref().unwrap_err();
            assert_eq!(err.status, 422, "{}", err.message);
            assert!(err.message.contains(field), "{}", err.message);
        }
    }

    #[test]
    fn detail_flag_includes_per_node_vector() {
        let _guard = fault_lock();
        let svc = service();
        let mut with_detail = req("bert", "T4", 1, false);
        with_detail.detail = true;
        let out = svc.predict_batch(&[with_detail, req("bert", "T4", 1, false)]);
        let detailed = out[0].as_ref().unwrap();
        let plain = out[1].as_ref().unwrap();
        let nodes = detailed.per_node_ms.as_ref().unwrap();
        assert_eq!(nodes.len(), detailed.kernels);
        assert!(plain.per_node_ms.is_none());
        assert_eq!(detailed.total_ms.to_bits(), plain.total_ms.to_bits());
    }

    /// Arms `core.predict.mlp` so every MLP-path call fails.
    fn arm_mlp_faults() {
        neusight_fault::configure(
            &FaultSpec::empty().with_point("core.predict.mlp", PointConfig::always()),
            7,
        );
    }

    #[test]
    fn degraded_fallback_matches_roofline_bitwise() {
        let _guard = fault_lock();
        let svc = PredictService::new(trained());
        arm_mlp_faults();
        let out = svc.predict_batch(&[req("gpt2", "V100", 2, false)]);
        neusight_fault::reset();
        let resp = out[0].as_ref().expect("degraded, not dropped");
        assert!(resp.degraded);
        // The degraded forecast is exactly the roofline baseline — an
        // independent computation over the same graph must match bitwise.
        let spec = catalog::gpu("V100").unwrap();
        let graph = neusight_graph::inference_graph(&config::gpt2_large(), 2);
        let roofline = RooflineBaseline::new(svc.neusight().dtype());
        let lat = roofline.predict_graph(&graph, &spec);
        assert_eq!(resp.total_ms.to_bits(), (lat.total_s * 1e3).to_bits());
        assert_eq!(resp.forward_ms.to_bits(), (lat.forward_s * 1e3).to_bits());
    }

    #[test]
    fn breaker_trips_then_short_circuits_while_open() {
        let _guard = fault_lock();
        let svc = PredictService::with_breaker(
            trained(),
            BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(3600),
                half_open_probes: 1,
            },
        );
        arm_mlp_faults();
        for _ in 0..2 {
            let out = svc.predict_batch(&[req("gpt2", "V100", 1, false)]);
            assert!(out[0].as_ref().unwrap().degraded);
        }
        neusight_fault::reset();
        assert_eq!(svc.breaker_state(), BreakerState::Open);
        // Faults are gone, but the open breaker still short-circuits to
        // the fallback instead of touching the predictor.
        let out = svc.predict_batch(&[req("gpt2", "V100", 1, false)]);
        assert!(out[0].as_ref().unwrap().degraded);
        assert_eq!(svc.breaker_state(), BreakerState::Open);
    }

    #[test]
    fn breaker_recovers_through_half_open_probe() {
        let _guard = fault_lock();
        let svc = PredictService::with_breaker(
            trained(),
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::ZERO,
                half_open_probes: 1,
            },
        );
        arm_mlp_faults();
        let out = svc.predict_batch(&[req("gpt2", "V100", 1, false)]);
        assert!(out[0].as_ref().unwrap().degraded);
        neusight_fault::reset();
        // Cooldown elapsed (zero), so the next batch is a half-open probe;
        // with faults disarmed it succeeds and closes the breaker.
        let out = svc.predict_batch(&[req("gpt2", "V100", 1, false)]);
        assert!(!out[0].as_ref().unwrap().degraded);
        assert_eq!(svc.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn serialized_batches_are_cached_and_byte_identical() {
        let _guard = fault_lock();
        let svc = PredictService::new(trained());
        let requests = vec![req("gpt2", "V100", 2, false), req("bert", "T4", 1, true)];
        let cold = svc.predict_batch_serialized(&requests);
        // The cold path serializes exactly what predict_batch returns.
        let reference = svc.predict_batch(&requests);
        for (body, resp) in cold.iter().zip(&reference) {
            let body = body.as_ref().unwrap();
            let expect = serde_json::to_string(resp.as_ref().unwrap()).unwrap();
            assert_eq!(body.as_ref(), expect.as_str());
        }
        // The warm path answers from the memo (same Arc) with identical
        // bytes.
        let warm = svc.predict_batch_serialized(&requests);
        for (a, b) in cold.iter().zip(&warm) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert!(Arc::ptr_eq(a, b), "warm hit should share the cached body");
        }
    }

    #[test]
    fn serialized_fast_path_still_degrades_under_injected_faults() {
        let _guard = fault_lock();
        let svc = PredictService::new(trained());
        let requests = vec![req("gpt2", "V100", 1, false)];
        // Warm the memo with a healthy response first.
        let healthy = svc.predict_batch_serialized(&requests);
        assert!(!healthy[0].as_ref().unwrap().contains("\"degraded\":true"));
        // Now every MLP call fails. The all-hit fast path must notice via
        // its probe and serve degraded instead of replaying the stale
        // healthy body.
        arm_mlp_faults();
        let degraded = svc.predict_batch_serialized(&requests);
        neusight_fault::reset();
        svc.breaker.reset();
        assert!(
            degraded[0].as_ref().unwrap().contains("\"degraded\":true"),
            "fast path must not mask injected MLP faults"
        );
        // Errors (unresolvable names) are never cached.
        let bad = svc.predict_batch_serialized(&[req("nonesuch", "V100", 1, false)]);
        assert_eq!(bad[0].as_ref().unwrap_err().status, 400);
    }

    #[test]
    fn catalog_listings_are_valid_json() {
        let svc = service();
        let models = svc.models_json();
        assert!(models.contains("GPT2-Large") && models.contains("resnet50"));
        let gpus = svc.gpus_json();
        assert!(gpus.contains("H100") && gpus.contains("held-out"));
        // Round-trip through the parser to prove validity.
        let _: serde::value::Value = parse_value(&models);
        let _: serde::value::Value = parse_value(&gpus);
    }

    #[test]
    fn gossip_round_trip_warms_a_cold_replica_bitwise() {
        let _guard = fault_lock();
        let donor = PredictService::new(trained());
        let requests = vec![req("gpt2", "V100", 2, false), req("bert", "T4", 1, true)];
        let donor_bodies = donor.predict_batch_serialized(&requests);
        let envelope = donor.export_cache(MAX_GOSSIP_ENTRIES);

        let newcomer = PredictService::new(trained());
        let imported = newcomer.import_cache(&envelope).expect("import");
        assert_eq!(imported, 2);
        // Re-importing the same envelope adds nothing.
        assert_eq!(newcomer.import_cache(&envelope).expect("re-import"), 0);
        // The warmed replica now answers from the memo with the donor's
        // exact bytes.
        let warmed = newcomer.predict_batch_serialized(&requests);
        for (a, b) in donor_bodies.iter().zip(&warmed) {
            assert_eq!(
                a.as_ref().unwrap().as_ref(),
                b.as_ref().unwrap().as_ref(),
                "gossiped bodies must be byte-identical"
            );
        }
    }

    #[test]
    fn gossip_import_rejects_tampered_and_garbage_envelopes() {
        let _guard = fault_lock();
        let svc = PredictService::new(trained());
        svc.predict_batch_serialized(&[req("gpt2", "V100", 1, false)]);
        let mut envelope = svc.export_cache(8);
        // Flip a payload byte: the checksum must catch it.
        let last = envelope.len() - 1;
        envelope[last] ^= 0x01;
        let err = svc.import_cache(&envelope).unwrap_err();
        assert_eq!(err.status, 400);
        // Raw (legacy, unchecksummed) payloads are rejected outright.
        let err = svc.import_cache(br#"{"entries":[]}"#).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn gossip_export_skips_degraded_entries() {
        let _guard = fault_lock();
        let svc = PredictService::new(trained());
        arm_mlp_faults();
        let degraded = svc.predict_batch_serialized(&[req("gpt2", "V100", 3, false)]);
        neusight_fault::reset();
        svc.breaker.reset();
        assert!(degraded[0].as_ref().unwrap().contains("\"degraded\":true"));
        svc.predict_batch_serialized(&[req("bert", "T4", 1, false)]);
        let envelope = svc.export_cache(MAX_GOSSIP_ENTRIES);
        let fresh = PredictService::new(trained());
        assert_eq!(fresh.import_cache(&envelope).expect("import"), 1);
    }

    /// Parses arbitrary JSON into the vendored Value tree.
    fn parse_value(text: &str) -> serde::value::Value {
        struct Any(serde::value::Value);
        impl serde::Deserialize for Any {
            fn from_value(v: &serde::value::Value) -> Result<Any, serde::Error> {
                Ok(Any(v.clone()))
            }
        }
        let Any(v) = serde_json::from_str(text).expect("valid JSON");
        v
    }
}

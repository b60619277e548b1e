//! Model lifecycle: the gate between a published candidate artifact and
//! the serving [`crate::model::ModelHandle`].
//!
//! A reload (`POST /v1/admin/reload` or SIGHUP) walks the candidate
//! through the state machine **staged → canary → shadow → serving**,
//! with **rolled-back** reachable from every stage:
//!
//! 1. **staged** — the artifact must decode from its NSG1 envelope, its
//!    manifest fingerprint must match the weights, and the candidate
//!    must produce finite, positive, performance-law-plausible
//!    predictions on a built-in golden op set (each prediction is
//!    checked against the roofline floor for that op: a model that
//!    claims to beat physics by more than [`LAW_FLOOR`]× is broken).
//! 2. **canary** — the candidate's golden-set MAPE against the
//!    simulated-GPU reference must not regress past a configured slack
//!    vs the *serving* model's MAPE, both computed in-process (the
//!    manifest's self-reported MAPE is never trusted).
//! 3. **shadow** (optional, `shadow_samples > 0`) — a bounded fraction
//!    of live predict traffic is duplicated to the candidate (spending
//!    the PR 9 hedge-style [`TokenBucket`], so shadow load can never
//!    exceed `shadow_fraction` of throughput) and the relative
//!    divergence vs the served bodies is accumulated; the candidate is
//!    promoted only if mean divergence stays under the threshold.
//!
//! Promotion swaps the [`crate::model::ModelHandle`] (fresh epoch, memo
//! purge) and opens a post-promotion **observation window**: if the
//! error ratio over the next `observe_requests` responses spikes, the
//! swap is automatically reverted. Every rejection or rollback bumps
//! `neusight_model_rollbacks_total` and dumps the flight recorder.

use crate::model::ModelEpoch;
use crate::service::{PredictRequest, PredictService, ServeError};
use neusight_baselines::{OpLatencyPredictor, RooflineBaseline};
use neusight_core::registry::{load_artifact, Registry};
use neusight_core::NeuSight;
use neusight_fault::TokenBucket;
use neusight_gpu::{catalog, GpuSpec, OpDesc};
use neusight_obs as obs;
use neusight_sim::SimulatedGpu;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A candidate may not predict below `LAW_FLOOR ×` the roofline bound
/// for any golden op — the roofline is a physical floor, so weights
/// that beat it decisively are corrupt. (A little slack below 1.0
/// absorbs dtype/efficiency-factor differences between the predictor's
/// laws and the baseline's.)
pub const LAW_FLOOR: f64 = 0.05;

/// ... and may not predict above `LAW_CEILING ×` the roofline bound:
/// utilization has a physical floor too, and a 10 000× overshoot means
/// the MLP head is emitting garbage.
pub const LAW_CEILING: f64 = 1e4;

/// Tuning for the reload gate and post-promotion watchdog.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LifecycleConfig {
    /// Allowed golden-set MAPE regression of a candidate relative to
    /// the serving model: candidate passes canary iff
    /// `mape ≤ serving_mape · (1 + slack) + 0.02`.
    pub canary_mape_slack: f64,
    /// Shadow traffic budget as a fraction of live predicts (token
    /// bucket deposit ratio).
    pub shadow_fraction: f64,
    /// Token-bucket burst for shadow sampling.
    pub shadow_burst: u32,
    /// Default shadow samples required before promotion; `0` skips the
    /// shadow stage and promotes synchronously after canary.
    pub shadow_samples: u32,
    /// Maximum tolerated mean relative divergence between candidate and
    /// serving predictions over the shadow window.
    pub shadow_divergence_max: f64,
    /// Post-promotion observation window, in responses.
    pub observe_requests: u64,
    /// Error-ratio ceiling over the observation window; above it the
    /// promotion is reverted.
    pub observe_max_error_ratio: f64,
}

impl Default for LifecycleConfig {
    fn default() -> LifecycleConfig {
        LifecycleConfig {
            canary_mape_slack: 0.10,
            shadow_fraction: 0.25,
            shadow_burst: 32,
            shadow_samples: 0,
            shadow_divergence_max: 0.50,
            observe_requests: 50,
            observe_max_error_ratio: 0.10,
        }
    }
}

/// Body of `POST /v1/admin/reload`. All fields optional: an empty body
/// (or SIGHUP) reloads the latest registry version with defaults.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct ReloadRequest {
    /// Registry version tag to stage; defaults to the latest.
    #[serde(default)]
    pub version: Option<String>,
    /// Absolute path of an artifact to stage directly, bypassing the
    /// registry directory (testing / emergency use).
    #[serde(default)]
    pub path: Option<String>,
    /// Overrides [`LifecycleConfig::shadow_samples`] for this reload.
    #[serde(default)]
    pub shadow_samples: Option<u32>,
}

/// Result of a reload attempt: the HTTP status it maps to plus a JSON
/// body describing the lifecycle decision.
#[derive(Debug, Clone)]
pub struct ReloadOutcome {
    /// 200 promoted (observing), 202 shadow in progress, 400 operator
    /// error, 409 candidate rejected / reload already in flight.
    pub status: u16,
    /// JSON body.
    pub body: String,
}

impl ReloadOutcome {
    fn rejected(stage: &str, version: &str, reason: &str) -> ReloadOutcome {
        ReloadOutcome {
            status: 409,
            body: format!(
                r#"{{"status":"rejected","stage":{},"version":{},"reason":{}}}"#,
                json_string(stage),
                json_string(version),
                json_string(reason)
            ),
        }
    }

    fn bad_request(reason: &str) -> ReloadOutcome {
        ReloadOutcome {
            status: 400,
            body: format!(r#"{{"error":{}}}"#, json_string(reason)),
        }
    }
}

use crate::http::json_string;

/// Candidate under shadow scoring.
struct ShadowState {
    version: String,
    ns: NeuSight,
    needed: u32,
    samples: u32,
    divergence_sum: f64,
}

/// Post-promotion watchdog window.
struct ObserveState {
    seen: u64,
    errors: u64,
}

enum State {
    Idle,
    /// Boxed: the candidate model is far larger than the other states.
    Shadowing(Box<ShadowState>),
    Observing(ObserveState),
}

/// Reload gate + shadow + observation state carried by the service.
pub struct Lifecycle {
    pub(crate) config: LifecycleConfig,
    state: Mutex<State>,
    /// Shadow sampling budget: deposits come from live predicts,
    /// withdrawals pay for candidate evaluations.
    bucket: TokenBucket,
    /// Fast-path flag so the per-batch hook costs one atomic load when
    /// no lifecycle activity is pending.
    active: AtomicBool,
    /// Last terminal transition, for `/v1/admin/model`.
    last: Mutex<Option<String>>,
}

impl Lifecycle {
    /// Fresh idle lifecycle with the given tuning.
    #[must_use]
    pub fn new(config: LifecycleConfig) -> Lifecycle {
        let bucket = TokenBucket::new(config.shadow_fraction, config.shadow_burst);
        Lifecycle {
            config,
            state: Mutex::new(State::Idle),
            bucket,
            active: AtomicBool::new(false),
            last: Mutex::new(None),
        }
    }

    /// Human-readable current state: `serving`, `shadowing`, or
    /// `observing`.
    #[must_use]
    pub fn state_name(&self) -> &'static str {
        match *neusight_guard::recover_poison(self.state.lock()) {
            State::Idle => "serving",
            State::Shadowing(_) => "shadowing",
            State::Observing(_) => "observing",
        }
    }

    /// Whether a reload is shadowing or observing (one atomic load).
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    fn set_state(&self, state: State) {
        let active = !matches!(state, State::Idle);
        *neusight_guard::recover_poison(self.state.lock()) = state;
        self.active.store(active, Ordering::SeqCst);
    }

    fn record_last(&self, summary: String) {
        *neusight_guard::recover_poison(self.last.lock()) = Some(summary);
    }

    fn last_transition(&self) -> Option<String> {
        neusight_guard::recover_poison(self.last.lock()).clone()
    }
}

/// The built-in golden op set: one representative per predictor family,
/// small enough that the full sanity + canary pass stays in the
/// low-millisecond range.
#[must_use]
pub fn golden_ops() -> Vec<OpDesc> {
    // Shapes sit inside the training sweep's well-sampled regime, where
    // even the tiny CI predictor lands within a few × of the roofline —
    // tight enough that mangled weights stand out, loose enough that a
    // legitimately retrained model sails through.
    vec![
        OpDesc::bmm(16, 512, 512, 512),
        OpDesc::bmm(4, 1024, 1024, 1024),
        OpDesc::fc(256, 1024, 1024),
        OpDesc::fc(1024, 4096, 1024),
        OpDesc::softmax(4096, 1024),
        OpDesc::layer_norm(4096, 1024),
    ]
}

/// The golden GPU the gate evaluates on (a training-split device, so
/// the predictor has seen its regime).
pub const GOLDEN_GPU: &str = "V100";

fn golden_spec() -> Result<GpuSpec, String> {
    catalog::gpu(GOLDEN_GPU).map_err(|e| format!("golden GPU unavailable: {e}"))
}

/// Stage 1: envelope-decoded weights must produce finite, positive,
/// law-plausible predictions for every golden op.
///
/// # Errors
///
/// A human-readable description of the first violated check.
pub fn golden_sanity(ns: &NeuSight) -> Result<(), String> {
    let spec = golden_spec()?;
    let baseline = RooflineBaseline::new(ns.dtype());
    for op in golden_ops() {
        let pred = ns
            .predict_op(&op, &spec)
            .map_err(|e| format!("golden op {op:?} failed to predict: {e}"))?;
        if !pred.is_finite() || pred <= 0.0 {
            return Err(format!("golden op {op:?} predicted non-positive {pred}"));
        }
        let floor = baseline.predict_op(&op, &spec);
        if floor > 0.0 {
            let ratio = pred / floor;
            if !(LAW_FLOOR..=LAW_CEILING).contains(&ratio) {
                return Err(format!(
                    "golden op {op:?} violates performance-law sanity: \
                     predicted {pred:.3e}s is {ratio:.2e}× the roofline floor {floor:.3e}s"
                ));
            }
        }
    }
    Ok(())
}

/// Golden-set MAPE of a predictor against the simulated-GPU reference —
/// the canary metric, also stamped into registry manifests by
/// `neusight publish`.
///
/// # Errors
///
/// A human-readable description if any golden op fails to predict.
pub fn golden_mape(ns: &NeuSight) -> Result<f64, String> {
    let spec = golden_spec()?;
    let sim = SimulatedGpu::new(spec.clone());
    let mut sum = 0.0;
    let mut n = 0usize;
    for op in golden_ops() {
        let pred = ns
            .predict_op(&op, &spec)
            .map_err(|e| format!("golden op {op:?} failed to predict: {e}"))?;
        let measured = sim.measure(&op, ns.dtype(), 25).mean_latency_s;
        if measured > 0.0 {
            sum += ((pred - measured) / measured).abs();
            n += 1;
        }
    }
    if n == 0 {
        return Err("golden set produced no measurable ops".to_owned());
    }
    Ok(sum / n as f64)
}

impl PredictService {
    /// Accounts a rejected candidate / reverted promotion: bumps
    /// `neusight_model_rollbacks_total` and dumps the flight recorder so
    /// the decision is reconstructible post-mortem.
    pub(crate) fn record_gate_rollback(&self, stage: &str, version: &str, reason: &str) {
        obs::metrics::counter("model.rollbacks.total").inc();
        obs::event!(
            "model_reload_rejected",
            stage = stage,
            version = version,
            reason = reason
        );
        let path = obs::trace::dump_path();
        if let Err(e) = obs::trace::dump_to_file(&path) {
            obs::event!("model_rollback_dump_failed", error = e);
        }
    }

    /// Stages a candidate through the lifecycle gate. `models_dir` is
    /// the registry directory (needed unless the request names an
    /// explicit `path`).
    pub fn reload(&self, models_dir: Option<&Path>, req: &ReloadRequest) -> ReloadOutcome {
        // One candidate at a time: a reload while a shadow is running
        // would orphan the first candidate's accounting.
        if matches!(
            *neusight_guard::recover_poison(self.lifecycle.state.lock()),
            State::Shadowing(_)
        ) {
            return ReloadOutcome {
                status: 409,
                body: r#"{"status":"busy","reason":"a shadow evaluation is already in progress"}"#
                    .to_owned(),
            };
        }

        // Resolve the candidate artifact.
        let artifact = if let Some(path) = &req.path {
            load_artifact(Path::new(path))
        } else {
            let Some(dir) = models_dir else {
                return ReloadOutcome::bad_request(
                    "no models directory configured (start with --models-dir or pass `path`)",
                );
            };
            let registry = Registry::open(dir);
            let version = match &req.version {
                Some(v) => v.clone(),
                None => match registry.latest() {
                    Ok(Some(entry)) => entry.manifest.version,
                    Ok(None) => {
                        return ReloadOutcome::bad_request("registry directory holds no artifacts")
                    }
                    Err(e) => {
                        return ReloadOutcome::bad_request(&format!("registry scan failed: {e}"))
                    }
                },
            };
            registry.load(&version)
        };
        let requested = req
            .version
            .clone()
            .or_else(|| req.path.clone())
            .unwrap_or_else(|| "latest".to_owned());
        let artifact = match artifact {
            Ok(a) => a,
            Err(e) => {
                // The artifact itself is bad (tampered envelope, fingerprint
                // mismatch, unparsable weights): a gate failure, not an
                // operator error.
                let reason = format!("staged candidate failed to load: {e}");
                self.record_gate_rollback("staged", &requested, &reason);
                self.lifecycle
                    .record_last(format!("rejected `{requested}` at staged: {reason}"));
                return ReloadOutcome::rejected("staged", &requested, &reason);
            }
        };
        let version = artifact.manifest.version.clone();

        // Stage 1: golden-op sanity under the performance laws.
        if let Err(reason) = golden_sanity(&artifact.model) {
            self.record_gate_rollback("staged", &version, &reason);
            self.lifecycle
                .record_last(format!("rejected `{version}` at staged: {reason}"));
            return ReloadOutcome::rejected("staged", &version, &reason);
        }

        // Stage 2: canary — candidate golden-set MAPE vs the serving
        // model's, both computed here and now.
        let serving = self.model.current();
        let serving_mape = match golden_mape(&serving) {
            Ok(m) => m,
            Err(e) => {
                return ReloadOutcome::bad_request(&format!(
                    "serving model failed golden evaluation: {e}"
                ))
            }
        };
        let candidate_mape = match golden_mape(&artifact.model) {
            Ok(m) => m,
            Err(reason) => {
                self.record_gate_rollback("canary", &version, &reason);
                self.lifecycle
                    .record_last(format!("rejected `{version}` at canary: {reason}"));
                return ReloadOutcome::rejected("canary", &version, &reason);
            }
        };
        let ceiling = serving_mape * (1.0 + self.lifecycle.config.canary_mape_slack) + 0.02;
        obs::metrics::gauge("model.canary.candidate_mape").set(candidate_mape);
        obs::metrics::gauge("model.canary.serving_mape").set(serving_mape);
        if candidate_mape > ceiling {
            let reason = format!(
                "canary MAPE regression: candidate {candidate_mape:.4} vs serving \
                 {serving_mape:.4} (ceiling {ceiling:.4})"
            );
            self.record_gate_rollback("canary", &version, &reason);
            self.lifecycle
                .record_last(format!("rejected `{version}` at canary: {reason}"));
            return ReloadOutcome::rejected("canary", &version, &reason);
        }

        // Stage 3: shadow scoring against live traffic, if requested.
        let shadow_samples = req
            .shadow_samples
            .unwrap_or(self.lifecycle.config.shadow_samples);
        if shadow_samples > 0 {
            self.lifecycle
                .set_state(State::Shadowing(Box::new(ShadowState {
                    version: version.clone(),
                    ns: artifact.model,
                    needed: shadow_samples,
                    samples: 0,
                    divergence_sum: 0.0,
                })));
            obs::event!(
                "model_shadow_start",
                version = version,
                samples = shadow_samples
            );
            return ReloadOutcome {
                status: 202,
                body: format!(
                    r#"{{"status":"shadowing","version":{},"samples_needed":{shadow_samples}}}"#,
                    json_string(&version)
                ),
            };
        }

        self.promote(&version, artifact.model)
    }

    /// Installs a gated candidate and opens the observation window.
    fn promote(&self, version: &str, ns: NeuSight) -> ReloadOutcome {
        let next = self.install_model(version, ns);
        self.lifecycle
            .set_state(State::Observing(ObserveState { seen: 0, errors: 0 }));
        self.lifecycle
            .record_last(format!("promoted `{version}` as epoch {}", next.epoch()));
        ReloadOutcome {
            status: 200,
            body: format!(
                r#"{{"status":"serving","version":{},"epoch":{}}}"#,
                json_string(version),
                next.epoch()
            ),
        }
    }

    /// Per-batch lifecycle hook, called from the predict hot path with
    /// the generation the batch was served under. Costs one atomic load
    /// while idle.
    pub(crate) fn lifecycle_after_batch(
        &self,
        current: &ModelEpoch,
        requests: &[PredictRequest],
        bodies: &[Result<Arc<str>, ServeError>],
    ) {
        // Deposits power the shadow budget even while idle, so a reload
        // issued under steady traffic has tokens ready.
        for _ in requests {
            self.lifecycle.bucket.on_request();
        }
        if !self.lifecycle.is_active() {
            return;
        }
        let mut state = neusight_guard::recover_poison(self.lifecycle.state.lock());
        match &mut *state {
            State::Idle => {}
            State::Observing(observe) => {
                observe.seen += bodies.len() as u64;
                observe.errors += bodies
                    .iter()
                    .filter(|b| matches!(b, Err(e) if e.status >= 500))
                    .count() as u64;
                if observe.seen >= self.lifecycle.config.observe_requests {
                    let ratio = observe.errors as f64 / observe.seen as f64;
                    let (seen, errors) = (observe.seen, observe.errors);
                    *state = State::Idle;
                    self.lifecycle.active.store(false, Ordering::SeqCst);
                    drop(state);
                    if ratio > self.lifecycle.config.observe_max_error_ratio {
                        let reason = format!(
                            "observation window error spike: {errors}/{seen} responses failed"
                        );
                        let restored = self.rollback_model(&reason);
                        self.lifecycle.record_last(match restored {
                            Some(m) => format!(
                                "rolled back to `{}` (epoch {}): {reason}",
                                m.version(),
                                m.epoch()
                            ),
                            None => format!("rollback unavailable after {reason}"),
                        });
                    } else {
                        obs::event!(
                            "model_observation_pass",
                            version = current.version(),
                            seen = seen,
                            errors = errors
                        );
                        self.lifecycle.record_last(format!(
                            "observation window passed for `{}` ({errors}/{seen} errors)",
                            current.version()
                        ));
                    }
                }
            }
            State::Shadowing(shadow) => {
                let mut done = None;
                for (req, body) in requests.iter().zip(bodies) {
                    if shadow.samples >= shadow.needed {
                        break;
                    }
                    let Ok(body) = body else { continue };
                    if !self.lifecycle.bucket.try_spend() {
                        break;
                    }
                    if let Some(divergence) = self.shadow_score(&shadow.ns, req, body) {
                        shadow.samples += 1;
                        shadow.divergence_sum += divergence;
                        obs::metrics::counter("model.shadow.samples").inc();
                    }
                }
                if shadow.samples >= shadow.needed {
                    let mean = shadow.divergence_sum / f64::from(shadow.samples.max(1));
                    done = Some((shadow.version.clone(), shadow.ns.clone(), mean));
                }
                if let Some((version, ns, mean)) = done {
                    *state = State::Idle;
                    self.lifecycle.active.store(false, Ordering::SeqCst);
                    drop(state);
                    obs::metrics::gauge("model.shadow.mean_divergence").set(mean);
                    if mean <= self.lifecycle.config.shadow_divergence_max {
                        let _ = self.promote(&version, ns);
                    } else {
                        let reason = format!(
                            "shadow divergence {mean:.4} exceeds {:.4}",
                            self.lifecycle.config.shadow_divergence_max
                        );
                        self.record_gate_rollback("shadow", &version, &reason);
                        self.lifecycle
                            .record_last(format!("rejected `{version}` at shadow: {reason}"));
                    }
                }
            }
        }
    }

    /// Scores one shadowed request: the candidate predicts the same
    /// workload and the relative divergence vs the served body's total
    /// is returned (`None` if the body is degraded or the candidate
    /// cannot predict it — those samples don't count either way).
    fn shadow_score(&self, candidate: &NeuSight, req: &PredictRequest, body: &str) -> Option<f64> {
        let served: crate::service::PredictResponse = serde_json::from_str(body).ok()?;
        if served.degraded {
            return None;
        }
        let model = PredictService::canonical_model(&req.model).ok()?;
        let spec = self.resolve_gpu(&req.gpu).ok()?;
        let plan = self.plan(&model, req.batch, req.train, req.fused).ok()?;
        let pred = candidate.predict_plan(&plan, &spec).ok()?;
        let candidate_ms = pred.total_s * 1e3;
        let served_ms = served.total_ms;
        if !(served_ms.is_finite() && candidate_ms.is_finite()) || served_ms <= 0.0 {
            return None;
        }
        Some(((candidate_ms - served_ms) / served_ms).abs())
    }

    /// JSON body for `GET /v1/admin/model`: serving version/epoch,
    /// retained rollback version, lifecycle state, and the last terminal
    /// transition.
    #[must_use]
    pub fn model_status_json(&self) -> String {
        let current = self.model.current();
        let previous = match self.model.previous_version() {
            Some(v) => json_string(&v),
            None => "null".to_owned(),
        };
        let last = match self.lifecycle.last_transition() {
            Some(s) => json_string(&s),
            None => "null".to_owned(),
        };
        format!(
            r#"{{"version":{},"epoch":{},"previous":{previous},"state":{},"last_transition":{last}}}"#,
            json_string(current.version()),
            current.epoch(),
            json_string(self.lifecycle.state_name()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neusight_core::NeuSightConfig;
    use neusight_data::{collect_training_set, training_gpus, SweepScale};
    use neusight_gpu::DType;
    use std::sync::OnceLock;

    fn trained() -> NeuSight {
        static CELL: OnceLock<NeuSight> = OnceLock::new();
        CELL.get_or_init(|| {
            let data = collect_training_set(&training_gpus(), SweepScale::Tiny, DType::F32);
            NeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training")
        })
        .clone()
    }

    /// Mangles predictor weights hard enough that the golden gate must
    /// notice (used to fabricate regressed candidates).
    fn mangled() -> NeuSight {
        let mut ns = trained();
        ns.map_predictor_parameters(|w| w * 17.0 + 3.0);
        ns
    }

    #[test]
    fn trained_weights_pass_sanity_and_report_finite_mape() {
        let ns = trained();
        golden_sanity(&ns).expect("trained weights are sane");
        let mape = golden_mape(&ns).expect("mape computes");
        assert!(mape.is_finite() && mape >= 0.0);
    }

    #[test]
    fn mangled_weights_fail_the_gate() {
        let ns = mangled();
        let sane = golden_sanity(&ns);
        let regressed = golden_mape(&ns)
            .map(|m| m > golden_mape(&trained()).unwrap() * 1.12 + 0.02)
            .unwrap_or(true);
        assert!(
            sane.is_err() || regressed,
            "a 17x+3 parameter mangle must fail sanity or canary"
        );
    }

    #[test]
    fn reload_with_no_registry_is_an_operator_error() {
        let svc = PredictService::new(trained());
        let out = svc.reload(None, &ReloadRequest::default());
        assert_eq!(out.status, 400);
        assert!(out.body.contains("models directory"));
    }

    #[test]
    fn reload_missing_artifact_counts_a_rollback() {
        obs::set_enabled(true);
        let svc = PredictService::new(trained());
        let before = obs::metrics::counter("model.rollbacks.total").get();
        let out = svc.reload(
            None,
            &ReloadRequest {
                path: Some("/nonexistent/candidate.json".to_owned()),
                ..ReloadRequest::default()
            },
        );
        assert_eq!(out.status, 409);
        assert!(out.body.contains("staged"));
        let after = obs::metrics::counter("model.rollbacks.total").get();
        assert!(after > before, "gate failure must count as a rollback");
    }

    #[test]
    fn status_json_reports_serving_state() {
        let svc = PredictService::new(trained());
        let status = svc.model_status_json();
        assert!(status.contains(r#""state":"serving""#), "{status}");
        assert!(status.contains(r#""epoch":1"#), "{status}");
        assert!(status.contains(r#""previous":null"#), "{status}");
    }
}

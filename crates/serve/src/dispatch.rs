//! The micro-batching dispatcher: a single consumer thread that drains
//! the admission queue, enforces per-request deadlines, and serves each
//! drained batch with one [`PredictService::predict_batch`] call — so
//! concurrent predict requests collapse into one MLP dispatch per
//! `(GPU, op family)` instead of one per request. (A response-memo hit
//! gets here only when the event loop may not answer it itself; see
//! `server.rs`.)

use crate::model::ModelEpoch;
use crate::queue::BoundedQueue;
use crate::service::{PredictRequest, PredictService, ServeError};
use neusight_guard as guard;
use neusight_obs as obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A dispatcher reply: the serialized JSON response body, or the error to
/// render.
pub type ReplyResult = Result<Arc<str>, ServeError>;

/// What the dispatcher posts for one finished job.
pub struct Completed {
    /// The reply.
    pub result: ReplyResult,
    /// The model generation the batch was served under. Its version
    /// labels the answer, even if a swap lands before the event loop
    /// delivers it.
    pub model: Arc<ModelEpoch>,
    /// The stage-stamped trace.
    pub trace: obs::TraceContext,
}

/// A mailbox for background completions destined for an event loop: a
/// worker pushes `(ticket, value)` pairs and fires the wake callback (the
/// reactor's wakeup fd), and the event loop drains the batch on its next
/// turn. Serve's dispatcher posts [`Completed`] values; the router's
/// operator fan-outs post finished responses.
pub struct Completions<T> {
    results: Mutex<Vec<(u64, T)>>,
    wake: Box<dyn Fn() + Send + Sync>,
}

impl<T> Completions<T> {
    /// Creates a mailbox whose `wake` is invoked (outside the lock) after
    /// every push.
    pub fn new(wake: impl Fn() + Send + Sync + 'static) -> Arc<Completions<T>> {
        Arc::new(Completions {
            results: Mutex::new(Vec::new()),
            wake: Box::new(wake),
        })
    }

    /// Delivers one completion and wakes the consumer.
    pub fn push(&self, ticket: u64, value: T) {
        guard::recover_poison(self.results.lock()).push((ticket, value));
        (self.wake)();
    }

    /// Takes everything delivered so far.
    #[must_use]
    pub fn drain(&self) -> Vec<(u64, T)> {
        std::mem::take(&mut *guard::recover_poison(self.results.lock()))
    }
}

/// Where a finished job's result goes: an entry in the event loop's
/// completion mailbox, keyed by the reactor's per-request ticket.
pub struct Reply {
    /// The reactor's per-request ticket.
    pub token: u64,
    /// The event loop's mailbox.
    pub completions: Arc<Completions<Completed>>,
}

impl Reply {
    /// Delivers the result along with its model generation and the
    /// stage-stamped trace. A ticket the event loop no longer waits for
    /// (connection closed, deadline fired) is dropped there: the
    /// prediction is memoized either way.
    pub fn send(self, result: ReplyResult, model: &Arc<ModelEpoch>, trace: obs::TraceContext) {
        let model = Arc::clone(model);
        self.completions.push(
            self.token,
            Completed {
                result,
                model,
                trace,
            },
        );
    }
}

/// A queued predict request plus its reply slot and deadline.
pub struct Job {
    /// Parsed request body.
    pub request: PredictRequest,
    /// When the request was admitted to the queue.
    pub enqueued: Instant,
    /// Absolute deadline; jobs dequeued after it get a 504.
    pub deadline: Instant,
    /// Where the serialized result goes.
    pub reply: Reply,
    /// Request trace, stamped through queue/batch-wait/predict here.
    pub trace: obs::TraceContext,
}

/// Dispatcher tuning knobs (a subset of the server config).
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Most requests coalesced into one service call.
    pub max_batch: usize,
    /// Optional wait after the first job of a batch, letting concurrent
    /// requests pile in before dispatch (0 = serve immediately; queueing
    /// during the previous batch provides natural coalescing).
    pub batch_window: Duration,
    /// Test/bench hook: artificial service time per batch, for driving
    /// the queue into overload deterministically.
    pub service_delay: Duration,
}

/// Metric handles the dispatcher updates per batch.
struct DispatchMetrics {
    queue_depth: Arc<obs::Gauge>,
    batch_size: Arc<obs::Histogram>,
    queue_wait_ns: Arc<obs::Histogram>,
    sojourn_ms: Arc<obs::Gauge>,
    timeouts: Arc<obs::Counter>,
    batches: Arc<obs::Counter>,
}

impl DispatchMetrics {
    fn new() -> DispatchMetrics {
        DispatchMetrics {
            queue_depth: obs::metrics::gauge("serve.queue.depth"),
            batch_size: obs::metrics::histogram("serve.batch.size"),
            queue_wait_ns: obs::metrics::histogram("serve.queue.wait_ns"),
            sojourn_ms: obs::metrics::gauge("serve.queue.sojourn_ms"),
            timeouts: obs::metrics::counter("serve.http.timeout"),
            batches: obs::metrics::counter("serve.dispatch.batches"),
        }
    }
}

/// Runs the dispatch loop until the queue is closed **and** empty — so a
/// graceful drain serves every admitted request before the thread exits.
/// Between batches the thread sleeps on the queue's condvar: an idle
/// dispatcher does not wake until a push or the close.
pub fn run(
    service: &PredictService,
    queue: &BoundedQueue<Job>,
    config: &DispatchConfig,
    sojourn_ms: &AtomicU64,
) {
    let metrics = DispatchMetrics::new();
    while let Some(first) = queue.pop_wait() {
        if !config.batch_window.is_zero() {
            std::thread::sleep(config.batch_window);
        }
        let mut jobs = vec![first];
        jobs.extend(queue.drain_up_to(config.max_batch.saturating_sub(1)));
        serve_batch(service, config, &metrics, jobs, sojourn_ms);
        let depth = queue.len();
        #[allow(clippy::cast_precision_loss)]
        metrics.queue_depth.set(depth as f64);
        if depth == 0 {
            // An empty queue means no standing backlog: clear the
            // congestion signal so Retry-After and the router's shed
            // controller see an honest zero.
            sojourn_ms.store(0, Ordering::Relaxed);
            metrics.sojourn_ms.set(0.0);
        }
    }
}

/// Serves one drained batch: expired jobs get 504, the rest are predicted
/// together and replied to individually.
fn serve_batch(
    service: &PredictService,
    config: &DispatchConfig,
    metrics: &DispatchMetrics,
    jobs: Vec<Job>,
    sojourn_ms: &AtomicU64,
) {
    let _span = obs::span!("serve_batch", jobs = jobs.len());
    metrics.batches.inc();
    metrics.batch_size.record(jobs.len() as u64);
    if !config.service_delay.is_zero() {
        std::thread::sleep(config.service_delay);
    }
    // One model generation for the whole batch: it computes every body
    // and labels every answer.
    let model = service.neusight();
    let now = Instant::now();
    // CoDel discipline: the congestion signal is the *minimum* sojourn
    // across the batch — nonzero only when even the youngest job had to
    // wait, i.e. a standing queue, not a transient burst.
    let mut min_sojourn: Option<Duration> = None;
    let mut live: Vec<Job> = Vec::with_capacity(jobs.len());
    for mut job in jobs {
        // Dispatcher pickup ends the queue stage for every job, expired
        // or not.
        job.trace.stamp(obs::Stage::Queue);
        let waited = now.duration_since(job.enqueued);
        metrics.queue_wait_ns.record_secs(waited.as_secs_f64());
        min_sojourn = Some(min_sojourn.map_or(waited, |m| m.min(waited)));
        if now > job.deadline {
            metrics.timeouts.inc();
            let Job { reply, trace, .. } = job;
            reply.send(
                Err(ServeError {
                    status: 504,
                    message: "deadline exceeded while queued".to_owned(),
                }),
                &model,
                trace,
            );
        } else {
            live.push(job);
        }
    }
    if let Some(waited) = min_sojourn {
        #[allow(clippy::cast_possible_truncation)]
        let ms = waited.as_millis().min(u128::from(u64::MAX)) as u64;
        sojourn_ms.store(ms, Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        metrics.sojourn_ms.set(ms as f64);
    }
    if live.is_empty() {
        return;
    }
    let requests: Vec<PredictRequest> = live.iter().map(|j| j.request.clone()).collect();
    for job in &mut live {
        job.trace.stamp(obs::Stage::BatchWait);
    }
    // The batch predict runs under panic supervision (with the
    // `guard.panic` chaos failpoint inside, so tests can kill it on
    // purpose): a panic here must cost at most the requests in this
    // batch, never the dispatcher thread.
    obs::trace::begin_predict_marks();
    let attempt = guard::catch("serve.dispatch.batch", || {
        guard::inject_panic();
        service.predict_batch_serialized_with(&model, &requests)
    });
    obs::trace::finish_predict_marks();
    match attempt {
        Ok(results) => {
            for (mut job, result) in live.into_iter().zip(results) {
                // A reply nobody waits for any more (client gone or
                // timed out) costs nothing: the prediction is already
                // memoized, so the work is not wasted.
                job.trace.stamp(obs::Stage::Predict);
                let Job { reply, trace, .. } = job;
                reply.send(result, &model, trace);
            }
        }
        Err(_) => {
            // One request in the batch may be the poison pill — retry
            // each job individually so it cannot take down its
            // batchmates. A job that panics again is the culprit and
            // gets a 500; the rest succeed.
            for mut job in live {
                let result = guard::catch("serve.dispatch.retry", || {
                    guard::inject_panic();
                    service
                        .predict_batch_serialized_with(&model, std::slice::from_ref(&job.request))
                        .pop()
                        .unwrap_or_else(|| {
                            Err(ServeError::internal("predict_batch returned no result"))
                        })
                })
                .unwrap_or_else(|message| {
                    Err(ServeError::internal(format!(
                        "prediction worker panicked: {message}"
                    )))
                });
                job.trace.stamp(obs::Stage::Predict);
                let Job { reply, trace, .. } = job;
                reply.send(result, &model, trace);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::LifecycleConfig;
    use neusight_core::{NeuSight, NeuSightConfig};
    use neusight_data::{collect_training_set, training_gpus, SweepScale};
    use neusight_fault::BreakerConfig;
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

    /// A swap that lands between the predict and the delivery must not
    /// relabel the answer: the completion names the generation that
    /// computed the body, and so does the rendered `X-Model-Version`.
    #[test]
    #[cfg(target_os = "linux")]
    fn completions_carry_the_generation_that_computed_them() {
        let service = PredictService::with_version(
            "v1",
            trained(),
            BreakerConfig::default(),
            LifecycleConfig::default(),
        );
        let completions = Completions::new(|| {});
        let job = Job {
            request: PredictRequest {
                model: "bert".to_owned(),
                gpu: "T4".to_owned(),
                batch: 1,
                train: false,
                fused: false,
                detail: false,
            },
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(10),
            reply: Reply {
                token: 7,
                completions: Arc::clone(&completions),
            },
            trace: obs::TraceContext::start(None),
        };
        let config = DispatchConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            service_delay: Duration::ZERO,
        };
        let metrics = DispatchMetrics::new();
        serve_batch(&service, &config, &metrics, vec![job], &AtomicU64::new(0));
        service.install_model("v2", trained());

        let (ticket, completed) = completions.drain().pop().expect("one completion");
        assert_eq!(ticket, 7);
        assert_eq!(completed.model.version(), "v1");
        assert_eq!(service.model_version(), "v2");
        let response = crate::server::predict_response(completed.result, &completed.model);
        assert_eq!(response.status, 200);
        let version = response
            .headers
            .iter()
            .find(|(name, _)| name == "X-Model-Version")
            .map(|(_, value)| value.as_str());
        assert_eq!(version, Some("v1"));
    }
}

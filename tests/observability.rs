//! Integration tests for the `neusight-obs` pipeline instrumentation:
//! cache accounting across cold/warm graph predictions, span emission,
//! exporter output on a real forecast, and a server that records no
//! spans unless they will be exported.
//!
//! The observability subsystem is process-global, so every test
//! serializes on one mutex and leaves the flag disabled on exit.

use neusight::core::{NeuSight, NeuSightConfig};
use neusight::data::{collect_training_set, training_gpus, SweepScale};
use neusight::gpu::{catalog, DType, OpDesc};
use neusight::graph::{config, inference_graph};
use neusight::obs;
use neusight::serve::{Client, ServeConfig, Server};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn trained() -> NeuSight {
    let data = collect_training_set(&training_gpus(), SweepScale::Tiny, DType::F32);
    NeuSight::train(&data, &NeuSightConfig::tiny()).expect("tiny training")
}

fn counter(name: &str) -> u64 {
    obs::metrics::counter(name).get()
}

#[test]
fn gpt2_cache_counters_cold_vs_warm() {
    let _guard = obs_lock();
    let ns = trained();
    let spec = catalog::gpu("A100-40GB").expect("catalog");
    let graph = inference_graph(&config::gpt2_large(), 2);
    let unique: HashSet<OpDesc> = graph.iter().map(|n| n.op.clone()).collect();
    let unique = unique.len() as u64;
    assert!(unique > 0 && unique < graph.len() as u64);

    obs::set_enabled(true);
    obs::reset();
    ns.clear_prediction_cache();

    // Cold: every unique op misses, nothing hits.
    ns.predict_graph(&graph, &spec).expect("cold predict");
    assert_eq!(counter("core.predict_cache.miss"), unique);
    assert_eq!(counter("core.predict_cache.hit"), 0);
    assert_eq!(counter("core.predict_cache.eviction"), 0);
    assert_eq!(
        obs::metrics::gauge("core.predict_cache.size").get(),
        unique as f64
    );

    // Warm: every unique op hits, no new misses.
    ns.predict_graph(&graph, &spec).expect("warm predict");
    assert_eq!(counter("core.predict_cache.miss"), unique);
    assert_eq!(counter("core.predict_cache.hit"), unique);

    obs::set_enabled(false);
    obs::reset();
}

#[test]
fn prediction_emits_nested_pipeline_spans() {
    let _guard = obs_lock();
    let ns = trained();
    let spec = catalog::gpu("H100").expect("catalog");
    let graph = inference_graph(&config::bert_large(), 1);

    obs::set_enabled(true);
    obs::reset();
    ns.clear_prediction_cache();
    ns.predict_graph(&graph, &spec).expect("predict");
    let spans = obs::take_spans();
    obs::set_enabled(false);
    obs::reset();

    let root = spans
        .iter()
        .find(|s| s.name == "predict_graph")
        .expect("predict_graph span");
    assert!(root.parent.is_none());
    for stage in ["dedup", "cache_probe", "batch_predict", "aggregate"] {
        let child = spans
            .iter()
            .find(|s| s.name == stage)
            .unwrap_or_else(|| panic!("missing `{stage}` span"));
        assert_eq!(child.parent, Some(root.id), "`{stage}` nests under root");
        assert!(child.start_ns >= root.start_ns);
        assert!(child.start_ns + child.dur_ns <= root.start_ns + root.dur_ns);
    }
}

#[test]
fn exporters_render_a_real_forecast() {
    let _guard = obs_lock();
    let ns = trained();
    let spec = catalog::gpu("V100").expect("catalog");
    let graph = inference_graph(&config::gpt2_large(), 1);

    obs::set_enabled(true);
    obs::reset();
    ns.clear_prediction_cache();
    ns.predict_graph(&graph, &spec).expect("predict");
    let spans = obs::take_spans();
    let snapshot = obs::metrics::snapshot();
    obs::set_enabled(false);
    obs::reset();

    let chrome = obs::export::chrome_trace(&spans);
    assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(chrome.contains("\"name\":\"predict_graph\""));
    assert!(chrome.ends_with("]}\n") || chrome.ends_with("]}"));

    let jsonl = obs::export::json_lines(&spans);
    assert_eq!(jsonl.lines().count(), spans.len());
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));

    let prom = obs::export::prometheus(&snapshot);
    assert!(prom.contains("# TYPE neusight_core_predict_cache_miss counter"));
    assert!(prom.contains("neusight_core_predict_cache_hit 0"));
    let sample = prom
        .lines()
        .find(|l| l.starts_with("neusight_core_predict_cache_miss "))
        .expect("miss sample");
    let value: u64 = sample.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(value > 0, "cold predict must record misses");
}

#[test]
fn disabled_observability_records_nothing() {
    let _guard = obs_lock();
    let ns = trained();
    let spec = catalog::gpu("T4").expect("catalog");
    let graph = inference_graph(&config::bert_large(), 1);

    obs::set_enabled(false);
    obs::reset();
    ns.clear_prediction_cache();
    ns.predict_graph(&graph, &spec).expect("predict");
    assert!(obs::take_spans().is_empty());
    assert_eq!(counter("core.predict_cache.miss"), 0);
    assert_eq!(counter("core.predict_cache.hit"), 0);
}

/// Posts each body to a fresh in-process server three times (one cold
/// predict, then two memo hits) and returns the spans recorded meanwhile
/// and the memo hits counted.
fn serve_cold_and_warm(bodies: &[&str]) -> (Vec<obs::SpanRecord>, u64) {
    obs::reset();
    let server = Server::spawn(ServeConfig::default(), trained()).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");
    for body in bodies {
        for _ in 0..3 {
            let response = client.post_json("/v1/predict", body).expect("predict");
            assert_eq!(response.status, 200, "{}", response.text());
        }
    }
    server.shutdown_and_join().expect("clean drain");
    (obs::take_spans(), counter("serve.response_cache.hits"))
}

/// `neusight serve` without `--trace` keeps metrics on for `/metrics`
/// and spans off: cold predicts and memo hits leave the span recorder
/// empty (and count no dropped spans), while the metrics still count.
/// With spans on, the same traffic records the dispatcher's batch spans.
#[test]
fn serving_without_a_span_export_records_no_spans() {
    let _guard = obs_lock();
    let bodies = [
        r#"{"model":"gpt2","gpu":"H100","batch":2}"#,
        r#"{"model":"bert","gpu":"T4","batch":1,"train":true}"#,
    ];
    obs::set_enabled(true);
    obs::set_spans(false);
    let (quiet, quiet_hits) = serve_cold_and_warm(&bodies);
    let dropped = obs::dropped_spans();
    obs::set_spans(true);
    let (traced, _) = serve_cold_and_warm(&bodies);
    obs::set_enabled(false);
    obs::reset();

    assert!(
        quiet.is_empty(),
        "spans recorded with no export asked for: {:?}",
        quiet.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    assert_eq!(dropped, 0);
    assert_eq!(quiet_hits, 4, "two memo hits per key");
    for name in ["serve_batch", "dedup", "batch_predict", "aggregate"] {
        assert!(
            traced.iter().any(|s| s.name == name),
            "no `{name}` span with spans on"
        );
    }
}

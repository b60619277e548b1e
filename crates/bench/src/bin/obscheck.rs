//! CI checker for the observability exports: validates that the files a
//! `neusight … --trace FILE --metrics-out FILE` run emitted are
//! well-formed and carry the signals the pipeline is supposed to record.
//!
//! ```text
//! cargo run -p neusight-bench --bin obscheck -- TRACE.json METRICS.prom
//! cargo run -p neusight-bench --bin obscheck -- serve PREDICT.json METRICS.prom
//! ```
//!
//! Checks (exit code 1 with a message on the first failure):
//! - the trace file parses as JSON with a non-empty `traceEvents` array,
//!   every event has the Chrome trace-event required keys, and a
//!   `predict_graph` span with its pipeline children is present;
//! - the metrics file is Prometheus text exposition: `# TYPE` headers,
//!   parsable sample values, and a non-zero prediction-cache activity
//!   counter (`hit` + `miss` > 0).
//!
//! In `serve` mode (the CI smoke step for `neusight serve`), the first
//! file is instead a saved `POST /v1/predict` response body — checked for
//! the latency fields a client depends on — and the metrics file is a
//! scraped `/metrics` page, required to show served HTTP traffic
//! (`neusight_serve_http_requests > 0`) on top of the structural checks.
//!
//! In `serve2` mode (the CI benchmark gate for the serve tier), the one
//! file is a loadgen sweep (`BENCH_serve2.json`): its `levels` must be
//! non-empty, and every level must show nonzero throughput and a finite
//! p99 under 250 ms.
//!
//! In `trace` mode (the CI gate for the flight recorder), the first file
//! is a trace dump (`GET /v1/debug/traces`) — validated for schema
//! completeness, monotone per-stage timestamps, and telescoping stage
//! durations — and the second is a scraped `/metrics` page whose
//! per-stage histogram sums must account for the end-to-end latency sum
//! within 5 %.

use serde::value::Value;
use std::process::ExitCode;

/// Newtype that rides the vendored `serde_json` parser to get the raw
/// [`Value`] tree out (the facade has no `Deserialize for Value`).
struct Any(Value);

impl serde::Deserialize for Any {
    fn from_value(v: &Value) -> Result<Any, serde::Error> {
        Ok(Any(v.clone()))
    }
}

fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

#[allow(clippy::cast_precision_loss)]
fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn check(condition: bool, message: &str) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(message.to_owned())
    }
}

fn check_trace(text: &str) -> Result<(), String> {
    let Any(root) =
        serde_json::from_str(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = match get(&root, "traceEvents") {
        Some(Value::Array(events)) => events,
        _ => return Err("trace has no `traceEvents` array".to_owned()),
    };
    check(!events.is_empty(), "trace has zero events")?;
    for (index, event) in events.iter().enumerate() {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            check(
                get(event, key).is_some(),
                &format!("event {index} is missing `{key}`"),
            )?;
        }
        let ph = get(event, "ph").and_then(as_str).unwrap_or("");
        check(
            ph == "X" || ph == "i",
            &format!("event {index} has unexpected phase `{ph}`"),
        )?;
        if ph == "X" {
            check(
                get(event, "dur").and_then(as_f64).is_some(),
                &format!("duration event {index} has no numeric `dur`"),
            )?;
        }
    }
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| get(e, "name").and_then(as_str))
        .collect();
    for required in ["predict_graph", "batch_predict", "cache_probe"] {
        check(
            names.contains(&required),
            &format!("trace has no `{required}` span"),
        )?;
    }
    println!("trace OK: {} events", events.len());
    Ok(())
}

/// Structural pass over a Prometheus text page: every `# TYPE` is legal,
/// every sample parses to a finite non-negative number. Returns the
/// `(name, value)` samples for mode-specific checks.
fn parse_exposition(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut types = 0usize;
    let mut samples = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or("empty `# TYPE` line")?;
            let kind = parts.next().ok_or(format!("`# TYPE {name}` has no kind"))?;
            check(
                matches!(kind, "counter" | "gauge" | "histogram"),
                &format!("metric {name} has unknown type `{kind}`"),
            )?;
            types += 1;
            continue;
        }
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or(format!("unparsable sample line `{line}`"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("non-numeric value in `{line}`"))?;
        check(
            value.is_finite() && value >= 0.0,
            &format!("negative or non-finite sample in `{line}`"),
        )?;
        samples.push((name.to_owned(), value));
    }
    check(types > 0, "metrics file has no `# TYPE` headers")?;
    check(!samples.is_empty(), "metrics file has no samples")?;
    Ok(samples)
}

/// Sum of samples whose name starts with any of the prefixes.
fn sample_sum(samples: &[(String, f64)], prefixes: &[&str]) -> f64 {
    samples
        .iter()
        .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(_, value)| value)
        .sum()
}

fn check_metrics(text: &str) -> Result<(), String> {
    let samples = parse_exposition(text)?;
    check(
        sample_sum(
            &samples,
            &[
                "neusight_core_predict_cache_hit",
                "neusight_core_predict_cache_miss",
            ],
        ) > 0.0,
        "prediction-cache hit+miss counters are all zero",
    )?;
    println!("metrics OK: {} samples", samples.len());
    Ok(())
}

/// `/metrics` scraped from a serving process: structurally valid, and the
/// server actually answered traffic.
fn check_serve_metrics(text: &str) -> Result<(), String> {
    let samples = parse_exposition(text)?;
    check(
        sample_sum(&samples, &["neusight_serve_http_requests"]) > 0.0,
        "`neusight_serve_http_requests` is zero — the server saw no traffic",
    )?;
    check(
        sample_sum(&samples, &["neusight_serve_request_latency_ns_count"]) > 0.0,
        "request-latency histogram is empty",
    )?;
    check(
        samples
            .iter()
            .any(|(name, _)| name.starts_with("neusight_guard_law_clamps")),
        "`neusight_guard_law_clamps` is missing — predictions are not running under the law guard",
    )?;
    println!("serve metrics OK: {} samples", samples.len());
    Ok(())
}

/// `--metrics-out` of a `neusight chaos` run (the CI chaos smoke step):
/// structurally valid exposition that shows the fault subsystem actually
/// exercised — faults injected, retried, checkpointed, and resumed. Any
/// circuit-breaker state gauge present must hold a legal encoding
/// (0 closed / 1 half-open / 2 open).
fn check_chaos_metrics(text: &str) -> Result<(), String> {
    let samples = parse_exposition(text)?;
    check(
        sample_sum(&samples, &["neusight_fault_injected"]) > 0.0,
        "no injected faults recorded (`neusight_fault_injected_*` all zero)",
    )?;
    check(
        sample_sum(&samples, &["neusight_data_collect_retries"]) > 0.0,
        "`neusight_data_collect_retries` is zero — injected faults were never retried",
    )?;
    check(
        sample_sum(&samples, &["neusight_data_collect_checkpoints"]) > 0.0,
        "`neusight_data_collect_checkpoints` is zero — no progress was persisted",
    )?;
    check(
        sample_sum(&samples, &["neusight_data_collect_resumes"]) > 0.0,
        "`neusight_data_collect_resumes` is zero — the abort failpoint never exercised recovery",
    )?;
    for (name, value) in &samples {
        if name.ends_with("breaker_state") {
            check(
                *value == 0.0 || *value == 1.0 || *value == 2.0,
                &format!("breaker gauge `{name}` holds illegal state {value}"),
            )?;
        }
    }
    println!("chaos metrics OK: {} samples", samples.len());
    Ok(())
}

/// Metrics scraped from a run with the `guard.panic` failpoint armed
/// (the CI guard smoke step): panics were actually injected, caught, and
/// survived by restarts, and the performance-law clamp counter is
/// exported (it may legitimately be zero — the law guard only fires on
/// broken predictors — but the metric must exist).
fn check_guard_metrics(text: &str) -> Result<(), String> {
    let samples = parse_exposition(text)?;
    check(
        sample_sum(&samples, &["neusight_guard_panics"]) > 0.0,
        "`neusight_guard_panics` is zero — injected panics were never caught",
    )?;
    check(
        sample_sum(&samples, &["neusight_guard_worker_restarts"]) > 0.0,
        "`neusight_guard_worker_restarts` is zero — no supervised unit was restarted",
    )?;
    check(
        samples
            .iter()
            .any(|(name, _)| name.starts_with("neusight_guard_law_clamps")),
        "`neusight_guard_law_clamps` sample is missing from the exposition",
    )?;
    println!("guard metrics OK: {} samples", samples.len());
    Ok(())
}

/// `obscheck reload METRICS.prom` — the CI gate for the model-lifecycle
/// chaos smoke: the `/metrics` page scraped after the reload chaos run
/// must show (1) at least one recorded rollback — the corrupted or
/// regressed candidate was refused by the gate, (2) at least one
/// completed reload — the good candidate was promoted, (3) **zero**
/// stale-epoch cache hits — a swap never served bytes computed by a
/// previous model, and (4) a `neusight_model_info` gauge naming the
/// serving version, with live traffic recorded throughout.
fn check_reload_metrics(text: &str) -> Result<(), String> {
    let samples = parse_exposition(text)?;
    check(
        sample_sum(&samples, &["neusight_model_rollbacks_total"]) >= 1.0,
        "`neusight_model_rollbacks_total` is zero — the bad candidate was never refused",
    )?;
    check(
        sample_sum(&samples, &["neusight_model_reloads_total"]) >= 1.0,
        "`neusight_model_reloads_total` is zero — no candidate was ever promoted",
    )?;
    check(
        sample_sum(&samples, &["neusight_model_stale_hits_total"]) == 0.0,
        "`neusight_model_stale_hits_total` is non-zero — a stale-epoch cache entry was observed",
    )?;
    check(
        samples
            .iter()
            .any(|(name, _)| name.starts_with("neusight_model_info{") && name.contains("version=")),
        "`neusight_model_info` gauge is missing (or carries no version label)",
    )?;
    check(
        sample_sum(&samples, &["neusight_serve_http_requests"]) > 0.0,
        "`neusight_serve_http_requests` is zero — the reload smoke saw no live traffic",
    )?;
    println!("reload metrics OK: {} samples", samples.len());
    Ok(())
}

/// A saved `POST /v1/predict` response body: the fields a capacity-planning
/// client depends on, with sane values.
fn check_predict_body(text: &str) -> Result<(), String> {
    let Any(root) =
        serde_json::from_str(text).map_err(|e| format!("predict body is not valid JSON: {e}"))?;
    for key in ["model", "gpu", "mode"] {
        check(
            get(&root, key).and_then(as_str).is_some(),
            &format!("predict body is missing string field `{key}`"),
        )?;
    }
    let total_ms = get(&root, "total_ms")
        .and_then(as_f64)
        .ok_or("predict body has no numeric `total_ms`")?;
    check(
        total_ms.is_finite() && total_ms > 0.0,
        &format!("implausible total_ms {total_ms}"),
    )?;
    let kernels = get(&root, "kernels")
        .and_then(as_f64)
        .ok_or("predict body has no numeric `kernels`")?;
    check(kernels >= 1.0, "predict body reports zero kernels")?;
    let forward_ms = get(&root, "forward_ms")
        .and_then(as_f64)
        .ok_or("predict body has no numeric `forward_ms`")?;
    check(
        forward_ms.is_finite() && forward_ms >= 0.0 && forward_ms <= total_ms * (1.0 + 1e-9),
        "forward_ms exceeds total_ms",
    )?;
    match get(&root, "per_family_ms") {
        Some(Value::Object(families)) => {
            check(!families.is_empty(), "per_family_ms is empty")?;
        }
        _ => return Err("predict body has no `per_family_ms` object".to_owned()),
    }
    println!("predict body OK: {total_ms:.3} ms across {kernels} kernels");
    Ok(())
}

/// The serving-path stage taxonomy, in pipeline order — must match
/// `neusight_obs::trace::Stage`.
const TRACE_STAGES: [&str; 5] = ["queue", "batch_wait", "predict", "render", "write"];

/// `obscheck trace DUMP.json METRICS.prom` — the CI gate for the flight
/// recorder: the dump (from `GET /v1/debug/traces` or a SIGUSR1/panic
/// dump file) must be schema-complete with monotone per-stage timestamps
/// and telescoping durations, and the per-stage latency histograms on the
/// scraped `/metrics` page must sum to the end-to-end latency histogram
/// within 5 % — proving the attribution accounts for (essentially) all
/// of every request's wall time.
fn check_trace_dump(dump_text: &str, metrics_text: &str) -> Result<(), String> {
    let Any(root) = serde_json::from_str(dump_text)
        .map_err(|e| format!("trace dump is not valid JSON: {e}"))?;
    let recorded = get(&root, "recorded")
        .and_then(as_f64)
        .ok_or("dump has no numeric `recorded`")?;
    let retained = get(&root, "retained")
        .and_then(as_f64)
        .ok_or("dump has no numeric `retained`")?;
    let capacity = get(&root, "capacity")
        .and_then(as_f64)
        .ok_or("dump has no numeric `capacity`")?;
    check(
        recorded >= retained && retained <= capacity,
        "dump counts are inconsistent (retained must be <= recorded and <= capacity)",
    )?;

    let stage_names: Vec<&str> = match get(&root, "stages") {
        Some(Value::Array(stages)) => stages.iter().filter_map(as_str).collect(),
        _ => return Err("dump has no `stages` array".to_owned()),
    };
    check(
        stage_names == TRACE_STAGES,
        &format!("dump stage set {stage_names:?} does not match {TRACE_STAGES:?}"),
    )?;

    let traces = match get(&root, "traces") {
        Some(Value::Array(traces)) => traces,
        _ => return Err("dump has no `traces` array".to_owned()),
    };
    check(!traces.is_empty(), "dump retains zero traces")?;
    #[allow(clippy::cast_precision_loss)]
    let trace_count = traces.len() as f64;
    check(
        trace_count == retained,
        "dump `retained` disagrees with the `traces` array length",
    )?;

    for (index, trace) in traces.iter().enumerate() {
        let id = get(trace, "id")
            .and_then(as_str)
            .ok_or(format!("trace {index} has no string `id`"))?;
        check(!id.is_empty(), &format!("trace {index} has an empty id"))?;
        let start_ns = get(trace, "start_ns")
            .and_then(as_f64)
            .ok_or(format!("trace {index} has no numeric `start_ns`"))?;
        let stamps = match get(trace, "stamps") {
            Some(Value::Array(stamps)) => stamps,
            _ => return Err(format!("trace {index} has no `stamps` array")),
        };
        check(
            stamps.len() == TRACE_STAGES.len(),
            &format!("trace {index} has {} stamps, expected 5", stamps.len()),
        )?;
        // Stage timestamps must be monotone, starting at `start_ns`.
        let mut previous = start_ns;
        for (position, stamp) in stamps.iter().enumerate() {
            let at =
                as_f64(stamp).ok_or(format!("trace {index} stamp {position} is not numeric"))?;
            check(
                at >= previous,
                &format!("trace {index} stamp {position} is not monotone ({at} < {previous})"),
            )?;
            previous = at;
        }
        let total_ns = get(trace, "total_ns")
            .and_then(as_f64)
            .ok_or(format!("trace {index} has no numeric `total_ns`"))?;
        check(
            total_ns == previous - start_ns,
            &format!("trace {index} total_ns disagrees with its final stamp"),
        )?;
        let stages = get(trace, "stages").ok_or(format!("trace {index} has no `stages` object"))?;
        let mut stage_sum = 0.0;
        for name in TRACE_STAGES {
            let ns = get(stages, &format!("{name}_ns"))
                .and_then(as_f64)
                .ok_or(format!("trace {index} has no numeric `{name}_ns`"))?;
            stage_sum += ns;
        }
        // The stamps telescope by construction, so this is exact.
        check(
            stage_sum == total_ns,
            &format!("trace {index} stage durations sum to {stage_sum}, not total {total_ns}"),
        )?;
        let status = get(trace, "status")
            .and_then(as_f64)
            .ok_or(format!("trace {index} has no numeric `status`"))?;
        check(
            (100.0..1000.0).contains(&status),
            &format!("trace {index} carries implausible HTTP status {status}"),
        )?;
    }

    if let Some(Value::Array(slowest)) = get(&root, "slowest") {
        for (rank, entry) in slowest.iter().enumerate() {
            check(
                get(entry, "id").and_then(as_str).is_some()
                    && get(entry, "total_ns").and_then(as_f64).is_some(),
                &format!("slowest entry {rank} is missing `id` or `total_ns`"),
            )?;
        }
    } else {
        return Err("dump has no `slowest` array".to_owned());
    }

    // Cross-check against /metrics: per-stage histogram sums must account
    // for the end-to-end sum within 5 % (both aggregate the same request
    // population, and the stages telescope per request).
    let samples = parse_exposition(metrics_text)?;
    let total_sum = sample_sum(&samples, &["neusight_serve_trace_total_ns_sum"]);
    check(
        total_sum > 0.0,
        "`neusight_serve_trace_total_ns` histogram is empty — no finished traces on /metrics",
    )?;
    let stage_sum: f64 = TRACE_STAGES
        .iter()
        .map(|name| sample_sum(&samples, &[&format!("neusight_serve_stage_{name}_ns_sum")]))
        .sum();
    let drift = (stage_sum - total_sum).abs() / total_sum;
    check(
        drift <= 0.05,
        &format!(
            "per-stage histogram sums ({stage_sum:.0} ns) drift {:.1}% from the \
             end-to-end sum ({total_sum:.0} ns)",
            drift * 100.0
        ),
    )?;
    println!(
        "trace dump OK: {} traces retained of {recorded:.0} recorded, \
         stage/total drift {:.2}%",
        traces.len(),
        drift * 100.0
    );
    Ok(())
}

/// `obscheck serve2 BENCH_serve2.json` — the benchmark gate for the
/// serve tier: the loadgen sweep must carry a non-empty `levels` array,
/// and every level must show nonzero throughput and a plausible p99.
fn check_serve_bench(text: &str) -> Result<(), String> {
    let Any(root) =
        serde_json::from_str(text).map_err(|e| format!("serve bench is not valid JSON: {e}"))?;
    let Some(Value::Array(levels)) = get(&root, "levels") else {
        return Err("serve bench has no `levels` array".to_owned());
    };
    check(!levels.is_empty(), "serve bench `levels` is empty")?;
    let mut best = 0.0_f64;
    for level in levels {
        let concurrency = get(level, "concurrency")
            .and_then(as_f64)
            .ok_or("serve bench level has no numeric `concurrency`")?;
        let rps = get(level, "throughput_rps")
            .and_then(as_f64)
            .ok_or("serve bench level has no numeric `throughput_rps`")?;
        let p99 = get(level, "latency")
            .and_then(|l| get(l, "p99_ms"))
            .and_then(as_f64)
            .ok_or("serve bench level has no numeric `latency.p99_ms`")?;
        check(
            rps > 0.0,
            &format!("serve throughput at {concurrency}-way is zero"),
        )?;
        // Loose sanity bound: on a loopback benchmark, a p99 in the
        // hundreds of milliseconds means the event loop is stalling.
        check(
            p99.is_finite() && p99 > 0.0 && p99 < 250.0,
            &format!("implausible serve p99 of {p99} ms at {concurrency}-way"),
        )?;
        best = best.max(rps);
    }
    println!(
        "serve bench OK: peak {best:.0} req/s over {} levels",
        levels.len()
    );
    Ok(())
}

/// `obscheck cluster BENCH_cluster.json` — the gate for the router's
/// multi-replica sweep: the summary must attest bitwise-identical routed
/// responses, carry error-free levels for 1, 2, and 4 replicas, and show
/// near-linear scaling (>= 1.7x at 2 replicas, >= 3.0x at 4) over the
/// single-replica baseline.
fn check_cluster_bench(text: &str) -> Result<(), String> {
    let Any(root) =
        serde_json::from_str(text).map_err(|e| format!("cluster bench is not valid JSON: {e}"))?;
    check(
        get(&root, "mode").and_then(as_str) == Some("cluster"),
        "cluster bench file does not carry `\"mode\": \"cluster\"`",
    )?;
    check(
        get(&root, "bitwise_identical") == Some(&Value::Bool(true)),
        "routed responses were not bitwise-identical to direct replica responses",
    )?;
    let levels = match get(&root, "levels") {
        Some(Value::Array(levels)) if !levels.is_empty() => levels,
        _ => return Err("cluster bench: `levels` is missing or empty".to_owned()),
    };
    let mut rps_of = std::collections::HashMap::<u64, f64>::new();
    for level in levels {
        let replicas = get(level, "replicas")
            .and_then(as_f64)
            .ok_or("cluster bench: level has no numeric `replicas`")?;
        let rps = get(level, "throughput_rps")
            .and_then(as_f64)
            .ok_or("cluster bench: level has no numeric `throughput_rps`")?;
        let errors = get(level, "errors")
            .and_then(as_f64)
            .ok_or("cluster bench: level has no numeric `errors`")?;
        check(
            errors == 0.0,
            &format!("{errors} errors at {replicas} replicas — cluster must be error-free"),
        )?;
        check(
            rps > 0.0,
            &format!("zero throughput at {replicas} replicas"),
        )?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        rps_of.insert(replicas as u64, rps);
    }
    let rps = |replicas: u64| -> Result<f64, String> {
        rps_of
            .get(&replicas)
            .copied()
            .ok_or(format!("cluster bench has no {replicas}-replica level"))
    };
    let (one, two, four) = (rps(1)?, rps(2)?, rps(4)?);
    check(
        two >= 1.7 * one,
        &format!("2-replica scaling below 1.7x ({two:.0} vs {one:.0} req/s baseline)"),
    )?;
    check(
        four >= 3.0 * one,
        &format!("4-replica scaling below 3.0x ({four:.0} vs {one:.0} req/s baseline)"),
    )?;
    println!(
        "cluster bench OK: {one:.0} -> {two:.0} -> {four:.0} req/s at 1/2/4 replicas \
         ({:.2}x, {:.2}x), responses bitwise-identical",
        two / one,
        four / one
    );
    Ok(())
}

/// `obscheck tail BENCH_tail.json` — the gate for the hedged-request
/// tail benchmark: both passes must be error-free, hedging must cut the
/// p99 by at least 2x against the slowed replica, and the duplicates
/// must stay within the 10 % hedge budget (with at least one hedge
/// actually winning, so the cut is attributable to hedging).
fn check_tail_bench(text: &str) -> Result<(), String> {
    let Any(root) =
        serde_json::from_str(text).map_err(|e| format!("tail bench is not valid JSON: {e}"))?;
    check(
        get(&root, "mode").and_then(as_str) == Some("tail"),
        "tail bench file does not carry `\"mode\": \"tail\"`",
    )?;
    for pass in ["unhedged", "hedged"] {
        let run = get(&root, pass).ok_or(format!("tail bench: missing `{pass}` pass"))?;
        let errors = get(run, "errors")
            .and_then(as_f64)
            .ok_or(format!("tail bench: `{pass}` has no numeric `errors`"))?;
        check(
            errors == 0.0,
            &format!("{errors} errors in the {pass} pass — hedging must add zero failures"),
        )?;
        let requests = get(run, "requests").and_then(as_f64).unwrap_or(0.0);
        check(
            requests >= 100.0,
            &format!("only {requests} requests in the {pass} pass — too few to trust a p99"),
        )?;
    }
    let p99_of = |pass: &str| -> Result<f64, String> {
        get(&root, pass)
            .and_then(|run| get(run, "latency"))
            .and_then(|l| get(l, "p99_ms"))
            .and_then(as_f64)
            .ok_or(format!("tail bench: `{pass}` has no `latency.p99_ms`"))
    };
    let (slow_p99, hedged_p99) = (p99_of("unhedged")?, p99_of("hedged")?);
    check(
        hedged_p99 > 0.0 && slow_p99 >= 2.0 * hedged_p99,
        &format!("hedging cut p99 below 2x ({slow_p99:.2} ms -> {hedged_p99:.2} ms)"),
    )?;
    let fraction = get(&root, "hedged_fraction")
        .and_then(as_f64)
        .ok_or("tail bench: no numeric `hedged_fraction`")?;
    check(
        fraction <= 0.10,
        &format!("hedged fraction {fraction:.3} exceeds the 10 % budget"),
    )?;
    let won = get(&root, "hedges_won").and_then(as_f64).unwrap_or(0.0);
    check(
        won >= 1.0,
        "no hedge ever won — the p99 cut is not attributable to hedging",
    )?;
    println!(
        "tail bench OK: p99 {slow_p99:.2} ms -> {hedged_p99:.2} ms ({:.1}x cut), \
         hedged {:.1}% of traffic ({won:.0} wins)",
        slow_p99 / hedged_p99,
        fraction * 100.0
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let run = || -> Result<(), String> {
        match args.as_slice() {
            [mode, predict_path, metrics_path] if mode == "serve" => {
                check_predict_body(&read(predict_path)?)?;
                check_serve_metrics(&read(metrics_path)?)
            }
            [mode, bench_path] if mode == "serve2" => check_serve_bench(&read(bench_path)?),
            [mode, dump_path, metrics_path] if mode == "trace" => {
                check_trace_dump(&read(dump_path)?, &read(metrics_path)?)
            }
            [mode, metrics_path] if mode == "chaos" => check_chaos_metrics(&read(metrics_path)?),
            [mode, metrics_path] if mode == "guard" => check_guard_metrics(&read(metrics_path)?),
            [mode, metrics_path] if mode == "reload" => check_reload_metrics(&read(metrics_path)?),
            [mode, bench_path] if mode == "cluster" => check_cluster_bench(&read(bench_path)?),
            [mode, bench_path] if mode == "tail" => check_tail_bench(&read(bench_path)?),
            [trace_path, metrics_path] => {
                check_trace(&read(trace_path)?)?;
                check_metrics(&read(metrics_path)?)
            }
            _ => Err(
                "usage: obscheck TRACE.json METRICS.prom | obscheck serve PREDICT.json METRICS.prom | obscheck serve2 BENCH_serve2.json | obscheck trace DUMP.json METRICS.prom | obscheck chaos METRICS.prom | obscheck guard METRICS.prom | obscheck reload METRICS.prom | obscheck cluster BENCH_cluster.json | obscheck tail BENCH_tail.json"
                    .to_owned(),
            ),
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("obscheck: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let trace = r#"{"traceEvents":[
            {"name":"predict_graph","ph":"X","ts":0.0,"dur":5.0,"pid":1,"tid":1},
            {"name":"cache_probe","ph":"X","ts":0.5,"dur":1.0,"pid":1,"tid":1},
            {"name":"batch_predict","ph":"X","ts":2.0,"dur":2.0,"pid":1,"tid":1}
        ]}"#;
        assert!(check_trace(trace).is_ok());
    }

    #[test]
    fn rejects_bad_traces() {
        assert!(check_trace("not json").is_err());
        assert!(check_trace(r#"{"traceEvents":[]}"#).is_err());
        // Missing the required pipeline spans.
        let other = r#"{"traceEvents":[
            {"name":"something","ph":"X","ts":0.0,"dur":1.0,"pid":1,"tid":1}
        ]}"#;
        assert!(check_trace(other).is_err());
        // Duration event without `dur`.
        let nodur = r#"{"traceEvents":[
            {"name":"predict_graph","ph":"X","ts":0.0,"pid":1,"tid":1}
        ]}"#;
        assert!(check_trace(nodur).is_err());
    }

    #[test]
    fn accepts_valid_prometheus_text() {
        let text = "# TYPE neusight_core_predict_cache_hit counter\n\
                    neusight_core_predict_cache_hit 39\n\
                    # TYPE neusight_core_predict_cache_miss counter\n\
                    neusight_core_predict_cache_miss 13\n";
        assert!(check_metrics(text).is_ok());
    }

    #[test]
    fn rejects_bad_metrics() {
        assert!(check_metrics("").is_err());
        assert!(check_metrics("# TYPE x counter\nx nope\n").is_err());
        // Zero cache activity: the instrumented pipeline did not run.
        let idle = "# TYPE neusight_core_predict_cache_hit counter\n\
                    neusight_core_predict_cache_hit 0\n";
        assert!(check_metrics(idle).is_err());
    }

    #[test]
    fn serve_metrics_require_served_traffic() {
        let good = "# TYPE neusight_serve_http_requests counter\n\
                    neusight_serve_http_requests 12\n\
                    # TYPE neusight_serve_request_latency_ns histogram\n\
                    neusight_serve_request_latency_ns_bucket{le=\"+Inf\"} 12\n\
                    neusight_serve_request_latency_ns_sum 240000\n\
                    neusight_serve_request_latency_ns_count 12\n\
                    # TYPE neusight_guard_law_clamps counter\n\
                    neusight_guard_law_clamps 0\n";
        assert!(check_serve_metrics(good).is_ok());
        // A server whose predictions bypass the law guard is miswired.
        let unguarded = good
            .replace("# TYPE neusight_guard_law_clamps counter\n", "")
            .replace("neusight_guard_law_clamps 0\n", "");
        assert!(check_serve_metrics(&unguarded).is_err());
        let idle = "# TYPE neusight_serve_http_requests counter\n\
                    neusight_serve_http_requests 0\n";
        assert!(check_serve_metrics(idle).is_err());
        // Cache-only metrics are not evidence the server answered.
        let wrong = "# TYPE neusight_core_predict_cache_hit counter\n\
                     neusight_core_predict_cache_hit 9\n";
        assert!(check_serve_metrics(wrong).is_err());
    }

    #[test]
    fn chaos_metrics_require_exercised_fault_machinery() {
        let good = "# TYPE neusight_fault_injected_data_collect_device counter\n\
                    neusight_fault_injected_data_collect_device 84\n\
                    # TYPE neusight_data_collect_retries counter\n\
                    neusight_data_collect_retries 84\n\
                    # TYPE neusight_data_collect_checkpoints counter\n\
                    neusight_data_collect_checkpoints 8\n\
                    # TYPE neusight_data_collect_resumes counter\n\
                    neusight_data_collect_resumes 2\n\
                    # TYPE neusight_serve_predict_breaker_state gauge\n\
                    neusight_serve_predict_breaker_state 0\n";
        assert!(check_chaos_metrics(good).is_ok());
        // Faults without retries means the resilience path never ran.
        let no_retries = "# TYPE neusight_fault_injected_data_collect_device counter\n\
                          neusight_fault_injected_data_collect_device 84\n\
                          # TYPE neusight_data_collect_retries counter\n\
                          neusight_data_collect_retries 0\n";
        assert!(check_chaos_metrics(no_retries).is_err());
        // A breaker gauge outside {0, 1, 2} is a corrupt encoding.
        let bad_state = good.replace("breaker_state 0", "breaker_state 7");
        assert!(check_chaos_metrics(&bad_state).is_err());
        assert!(check_chaos_metrics("").is_err());
    }

    #[test]
    fn guard_metrics_require_caught_panics_and_exported_clamp_counter() {
        let good = "# TYPE neusight_guard_panics counter\n\
                    neusight_guard_panics 5\n\
                    # TYPE neusight_guard_worker_restarts counter\n\
                    neusight_guard_worker_restarts 5\n\
                    # TYPE neusight_guard_law_clamps counter\n\
                    neusight_guard_law_clamps 0\n";
        assert!(check_guard_metrics(good).is_ok());
        // No caught panics means the failpoint never reached a guard.
        let quiet = good.replace("neusight_guard_panics 5", "neusight_guard_panics 0");
        assert!(check_guard_metrics(&quiet).is_err());
        // The clamp counter must at least be exported.
        let unclamped = "# TYPE neusight_guard_panics counter\n\
                         neusight_guard_panics 5\n\
                         # TYPE neusight_guard_worker_restarts counter\n\
                         neusight_guard_worker_restarts 5\n";
        assert!(check_guard_metrics(unclamped).is_err());
        assert!(check_guard_metrics("").is_err());
    }

    #[test]
    fn reload_metrics_gate_requires_rollback_promotion_and_zero_stale_hits() {
        let good = "# TYPE neusight_model_rollbacks_total counter\n\
                    neusight_model_rollbacks_total 2\n\
                    # TYPE neusight_model_reloads_total counter\n\
                    neusight_model_reloads_total 1\n\
                    # TYPE neusight_model_stale_hits_total counter\n\
                    neusight_model_stale_hits_total 0\n\
                    # TYPE neusight_model_info gauge\n\
                    neusight_model_info{version=\"v0002\",epoch=\"3\"} 1\n\
                    # TYPE neusight_serve_http_requests counter\n\
                    neusight_serve_http_requests 500\n";
        assert!(check_reload_metrics(good).is_ok());
        // An absent stale-hits counter reads as zero (it only registers
        // when a stale hit is observed, which must never happen).
        let unregistered = good
            .replace("# TYPE neusight_model_stale_hits_total counter\n", "")
            .replace("neusight_model_stale_hits_total 0\n", "");
        assert!(check_reload_metrics(&unregistered).is_ok());
        // No rollback means the chaos candidate was never refused.
        let no_rollback = good.replace("rollbacks_total 2", "rollbacks_total 0");
        assert!(check_reload_metrics(&no_rollback).is_err());
        // No promotion means the good candidate never served.
        let no_promote = good.replace("reloads_total 1", "reloads_total 0");
        assert!(check_reload_metrics(&no_promote).is_err());
        // A single stale-epoch hit fails the gate outright.
        let stale = good.replace("stale_hits_total 0", "stale_hits_total 1");
        assert!(check_reload_metrics(&stale).is_err());
        // The info gauge must name the serving version.
        let anonymous = good.replace(
            "neusight_model_info{version=\"v0002\",epoch=\"3\"} 1",
            "neusight_model_info 1",
        );
        assert!(check_reload_metrics(&anonymous).is_err());
        // Traffic-free runs prove nothing.
        let idle = good.replace("http_requests 500", "http_requests 0");
        assert!(check_reload_metrics(&idle).is_err());
    }

    #[test]
    fn serve_bench_gate_checks_every_level() {
        let sweep = r#"{"levels":[
            {"concurrency":32,"throughput_rps":80000.0,"latency":{"p99_ms":0.5}},
            {"concurrency":256,"throughput_rps":75000.0,"latency":{"p99_ms":4.8}}
        ]}"#;
        assert!(check_serve_bench(sweep).is_ok());

        // Structural failures: no or empty levels, stalled p99, zero
        // throughput, missing fields.
        let flat = r#"{"concurrency":256,"throughput_rps":44000.0,"latency":{"p99_ms":6.5}}"#;
        assert!(check_serve_bench(flat).is_err());
        assert!(check_serve_bench(r#"{"levels":[]}"#).is_err());
        let stalled = sweep.replace("\"p99_ms\":4.8", "\"p99_ms\":900.0");
        assert!(check_serve_bench(&stalled).is_err());
        let idle = sweep.replace("\"throughput_rps\":75000.0", "\"throughput_rps\":0.0");
        assert!(check_serve_bench(&idle).is_err());
        let no_p99 = r#"{"levels":[
            {"concurrency":32,"throughput_rps":80000.0,"latency":{}}
        ]}"#;
        assert!(check_serve_bench(no_p99).is_err());
        assert!(check_serve_bench("not json").is_err());
    }

    /// A schema-complete two-trace dump whose stages telescope exactly.
    const GOOD_DUMP: &str = r#"{"capacity":4096,"recorded":2,"retained":2,
        "stages":["queue","batch_wait","predict","render","write"],
        "traces":[
            {"id":"req-1","trace_id":1,"start_ns":100,"stamps":[110,120,150,155,160],
             "stages":{"queue_ns":10,"batch_wait_ns":10,"predict_ns":30,"render_ns":5,"write_ns":5},
             "total_ns":60,"status":200},
            {"id":"neusight-0000000000000002","trace_id":2,"start_ns":200,"stamps":[200,200,200,210,212],
             "stages":{"queue_ns":0,"batch_wait_ns":0,"predict_ns":0,"render_ns":10,"write_ns":2},
             "total_ns":12,"status":200}
        ],
        "slowest":[{"id":"req-1","trace_id":1,"total_ns":60,"status":200}]}"#;

    /// Matching metrics: stage sums (10+10+30+15+7=72) equal the
    /// end-to-end sum exactly.
    const GOOD_TRACE_METRICS: &str = "\
        # TYPE neusight_serve_stage_queue_ns histogram\n\
        neusight_serve_stage_queue_ns_sum 10\n\
        neusight_serve_stage_queue_ns_count 2\n\
        # TYPE neusight_serve_stage_batch_wait_ns histogram\n\
        neusight_serve_stage_batch_wait_ns_sum 10\n\
        neusight_serve_stage_batch_wait_ns_count 2\n\
        # TYPE neusight_serve_stage_predict_ns histogram\n\
        neusight_serve_stage_predict_ns_sum 30\n\
        neusight_serve_stage_predict_ns_count 2\n\
        # TYPE neusight_serve_stage_render_ns histogram\n\
        neusight_serve_stage_render_ns_sum 15\n\
        neusight_serve_stage_render_ns_count 2\n\
        # TYPE neusight_serve_stage_write_ns histogram\n\
        neusight_serve_stage_write_ns_sum 7\n\
        neusight_serve_stage_write_ns_count 2\n\
        # TYPE neusight_serve_trace_total_ns histogram\n\
        neusight_serve_trace_total_ns_sum 72\n\
        neusight_serve_trace_total_ns_count 2\n";

    #[test]
    fn trace_dump_gate_accepts_consistent_dump_and_metrics() {
        assert!(check_trace_dump(GOOD_DUMP, GOOD_TRACE_METRICS).is_ok());
    }

    #[test]
    fn trace_dump_gate_rejects_structural_failures() {
        assert!(check_trace_dump("not json", GOOD_TRACE_METRICS).is_err());
        // Non-monotone stamps (predict earlier than batch_wait).
        let backwards = GOOD_DUMP.replace("[110,120,150,155,160]", "[110,120,115,155,160]");
        assert!(check_trace_dump(&backwards, GOOD_TRACE_METRICS).is_err());
        // Stage durations that do not telescope to the total.
        let leaky = GOOD_DUMP.replace("\"predict_ns\":30", "\"predict_ns\":25");
        assert!(check_trace_dump(&leaky, GOOD_TRACE_METRICS).is_err());
        // Retained count disagreeing with the traces array.
        let miscounted = GOOD_DUMP.replace("\"retained\":2", "\"retained\":7");
        assert!(check_trace_dump(&miscounted, GOOD_TRACE_METRICS).is_err());
        // Missing slowest reservoir.
        let no_slowest = GOOD_DUMP.replace("\"slowest\"", "\"slowestX\"");
        assert!(check_trace_dump(&no_slowest, GOOD_TRACE_METRICS).is_err());
        // A wrong stage taxonomy is a schema break.
        let renamed = GOOD_DUMP.replace("\"batch_wait\"", "\"batching\"");
        assert!(check_trace_dump(&renamed, GOOD_TRACE_METRICS).is_err());
    }

    #[test]
    fn trace_dump_gate_enforces_histogram_attribution() {
        // Stage sums drifting >5% from the end-to-end sum fail the gate.
        let leaky_metrics =
            GOOD_TRACE_METRICS.replace("stage_predict_ns_sum 30", "stage_predict_ns_sum 10");
        assert!(check_trace_dump(GOOD_DUMP, &leaky_metrics).is_err());
        // An empty end-to-end histogram means tracing never ran.
        let idle = GOOD_TRACE_METRICS.replace("trace_total_ns_sum 72", "trace_total_ns_sum 0");
        assert!(check_trace_dump(GOOD_DUMP, &idle).is_err());
    }

    /// A cluster sweep with clean near-linear scaling: 2000 -> 3900 ->
    /// 7800 req/s at 1/2/4 replicas (1.95x, 3.9x).
    const GOOD_CLUSTER: &str = r#"{"generated_by":"loadgen","mode":"cluster",
        "concurrency":64,"service_delay_us":500,"bitwise_identical":true,
        "levels":[
            {"replicas":1,"duration_s":3.0,"requests":6000,"errors":0,
             "throughput_rps":2000.0,"latency":{"p50_ms":30.0,"p99_ms":45.0}},
            {"replicas":2,"duration_s":3.0,"requests":11700,"errors":0,
             "throughput_rps":3900.0,"latency":{"p50_ms":16.0,"p99_ms":25.0}},
            {"replicas":4,"duration_s":3.0,"requests":23400,"errors":0,
             "throughput_rps":7800.0,"latency":{"p50_ms":8.0,"p99_ms":14.0}}
        ]}"#;

    #[test]
    fn cluster_gate_accepts_near_linear_scaling() {
        assert!(check_cluster_bench(GOOD_CLUSTER).is_ok());
    }

    #[test]
    fn cluster_gate_enforces_scaling_floors() {
        // 2-replica throughput below 1.7x the baseline.
        let flat2 = GOOD_CLUSTER.replace("\"throughput_rps\":3900.0", "\"throughput_rps\":3300.0");
        assert!(check_cluster_bench(&flat2).is_err());
        // 4-replica throughput below 3.0x the baseline.
        let flat4 = GOOD_CLUSTER.replace("\"throughput_rps\":7800.0", "\"throughput_rps\":5900.0");
        assert!(check_cluster_bench(&flat4).is_err());
    }

    #[test]
    fn cluster_gate_rejects_structural_failures() {
        assert!(check_cluster_bench("not json").is_err());
        // Wrong mode marker.
        let wrong_mode = GOOD_CLUSTER.replace("\"mode\":\"cluster\"", "\"mode\":\"serve\"");
        assert!(check_cluster_bench(&wrong_mode).is_err());
        // Routed responses diverged from direct replica responses.
        let diverged =
            GOOD_CLUSTER.replace("\"bitwise_identical\":true", "\"bitwise_identical\":false");
        assert!(check_cluster_bench(&diverged).is_err());
        // Any routed error fails the gate outright.
        let errored = GOOD_CLUSTER.replacen("\"errors\":0", "\"errors\":3", 1);
        assert!(check_cluster_bench(&errored).is_err());
        // All three fleet sizes must be present.
        let missing = GOOD_CLUSTER.replace("\"replicas\":4", "\"replicas\":3");
        assert!(check_cluster_bench(&missing).is_err());
        // An empty sweep never ran.
        let empty = r#"{"mode":"cluster","bitwise_identical":true,"levels":[]}"#;
        assert!(check_cluster_bench(empty).is_err());
    }

    /// A tail run where hedging cuts the slowed p99 ~16x while
    /// duplicating under 1 % of traffic.
    const GOOD_TAIL: &str = r#"{"generated_by":"loadgen","mode":"tail",
        "replicas":3,"slow_replica_ms":50,"hedge_delay_ms":5,
        "concurrency":8,"slow_share":0.02,
        "unhedged":{"hedged":false,"duration_s":3.0,"requests":3000,"errors":0,
            "throughput_rps":1000.0,"latency":{"p50_ms":0.2,"p99_ms":98.0}},
        "hedged":{"hedged":true,"duration_s":3.0,"requests":27000,"errors":0,
            "throughput_rps":9000.0,"latency":{"p50_ms":0.6,"p99_ms":6.0}},
        "hedges_fired":250,"hedges_won":248,
        "hedged_fraction":0.009,"p99_cut":16.3}"#;

    #[test]
    fn tail_gate_accepts_a_budgeted_p99_cut() {
        assert!(check_tail_bench(GOOD_TAIL).is_ok());
    }

    #[test]
    fn tail_gate_enforces_cut_and_budget() {
        // Hedged p99 not at least 2x better than unhedged.
        let weak = GOOD_TAIL.replace("\"p99_ms\":6.0", "\"p99_ms\":60.0");
        assert!(check_tail_bench(&weak).is_err());
        // Duplicates above the 10 % budget.
        let greedy = GOOD_TAIL.replace("\"hedged_fraction\":0.009", "\"hedged_fraction\":0.17");
        assert!(check_tail_bench(&greedy).is_err());
        // A cut with zero hedge wins is not attributable to hedging.
        let unearned = GOOD_TAIL.replace("\"hedges_won\":248", "\"hedges_won\":0");
        assert!(check_tail_bench(&unearned).is_err());
    }

    #[test]
    fn tail_gate_rejects_structural_failures() {
        assert!(check_tail_bench("not json").is_err());
        let wrong_mode = GOOD_TAIL.replace("\"mode\":\"tail\"", "\"mode\":\"cluster\"");
        assert!(check_tail_bench(&wrong_mode).is_err());
        // Errors in either pass fail the gate outright.
        let errored = GOOD_TAIL.replacen("\"errors\":0", "\"errors\":2", 1);
        assert!(check_tail_bench(&errored).is_err());
        // Too few requests to trust a p99.
        let thin = GOOD_TAIL.replace("\"requests\":3000", "\"requests\":40");
        assert!(check_tail_bench(&thin).is_err());
    }

    #[test]
    fn predict_body_field_checks() {
        let good = r#"{"model":"BERT-Large","gpu":"H100","batch":2,"mode":"inference",
            "fused":false,"kernels":97,"total_ms":5.25,"forward_ms":5.25,
            "backward_ms":0.0,"per_family_ms":{"bmm":3.0,"softmax":2.25}}"#;
        assert!(check_predict_body(good).is_ok());
        assert!(check_predict_body("not json").is_err());
        assert!(check_predict_body(r#"{"model":"x"}"#).is_err());
        let zero = r#"{"model":"x","gpu":"y","mode":"inference","kernels":0,
            "total_ms":0.0,"forward_ms":0.0,"per_family_ms":{"bmm":1.0}}"#;
        assert!(check_predict_body(zero).is_err());
        let inverted = r#"{"model":"x","gpu":"y","mode":"inference","kernels":3,
            "total_ms":1.0,"forward_ms":2.0,"per_family_ms":{"bmm":1.0}}"#;
        assert!(check_predict_body(inverted).is_err());
    }
}

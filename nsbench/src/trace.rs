//! The traced run: attributes a workload's cost to the crates.
//!
//! Nothing inside the program is instrumented. The benchmark's own spans
//! surround each public call it makes into a crate, and each HTTP
//! exchange; the servers' existing `/metrics` pages are scraped before
//! and after each window. Spans stay in memory and are written out at
//! the end.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use neusight_core::{features::NUM_FEATURES, NeuSight};
use neusight_gpu::{catalog, OpClass, OpDesc};
use neusight_nn::{Matrix, Mlp};
use neusight_serve::{PredictResponse, PredictService};

use crate::cells::{self, Cell};
use crate::http::delta_quantile;
use crate::serving::Topology;
use crate::stats::{mean, median, quantile};
use crate::{fixture, measure, Ctx, Outcome, Round, Workload};

/// Window of each traced HTTP phase of a hot workload, seconds.
const HOT_WINDOW_S: f64 = 3.0;
/// Idle time over which the router's own CPU use is measured, seconds.
const IDLE_S: f64 = 2.0;
/// Memo hits replayed in-process for the hot workloads.
const HOT_REPLAY: usize = 2000;

pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn open(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let now = self.at(Instant::now());
        self.record_ns(name, now, now, None, request)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.at(Instant::now());
    }

    /// Runs `f` inside a span; returns its result and duration in µs.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (s, e) = (self.at(start), self.at(end));
        self.record_ns(name, s, e, parent, request);
        (out, (e - s) as f64 / 1e3)
    }

    /// Per span name: count, total µs, self µs (duration minus the part
    /// its children cover).
    fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += dur as f64 / 1e3;
            entry.2 += dur.saturating_sub(children) as f64 / 1e3;
        }
        out
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Per-request costs of the in-process replay.
#[derive(Default)]
struct Replay {
    /// `predict_batch_serialized` per request of the timed mix, µs.
    timed_serve_us: Vec<f64>,
    /// Cold requests (first time a key is seen).
    serve_us: Vec<f64>,
    graph_us: Vec<f64>,
    plan_us: f64,
    planned: usize,
    predict_us: Vec<f64>,
    forward_us: Vec<f64>,
    forward_rows: Vec<f64>,
    unique: usize,
    missed: usize,
    failed: usize,
    wall_s: f64,
}

/// Replays `requests` in-process through the public calls the server
/// makes, one request at a time. Service `a` answers exactly as the
/// dispatcher would; a second predictor `b`, fed the same sequence so
/// its kernel cache holds the same entries, repeats the cold requests
/// piece by piece (graph, tile planning, batched prediction, MLP
/// forward) so that each piece is timed on its own.
fn replay(
    ctx: &Ctx,
    tracer: &mut Tracer,
    requests: &[&Cell],
    timed_from: usize,
    expected: &dyn Fn(&Cell) -> Option<Vec<u8>>,
) -> Result<Replay, String> {
    let load = || NeuSight::load(&ctx.fixture).map_err(|e| e.to_string());
    let a = PredictService::new(load()?);
    let b = load()?;
    let hidden = neusight_core::PredictorConfig::standard(OpClass::Bmm).hidden;
    let mlp = Mlp::new(NUM_FEATURES, &hidden, 2, 7);
    let trained: HashSet<String> = b.trained_classes().into_iter().collect();
    let mut seen: HashSet<String> = HashSet::new();
    let mut cached: HashSet<(String, OpDesc)> = HashSet::new();
    let mut out = Replay::default();
    let started = Instant::now();
    for (r, cell) in requests.iter().enumerate() {
        let id = Some(r as u64);
        let root = tracer.open("request", id);
        let request = cell.request();
        let (mut bodies, serve_us) =
            tracer.time("serve.predict_batch_serialized", Some(root), id, || {
                a.predict_batch_serialized(std::slice::from_ref(&request))
            });
        let body = match bodies.pop() {
            Some(Ok(body)) => body.to_string(),
            _ => {
                out.failed += 1;
                tracer.close(root);
                continue;
            }
        };
        if expected(cell).is_some_and(|want| want != body.as_bytes()) {
            out.failed += 1;
        }
        if r >= timed_from {
            out.timed_serve_us.push(serve_us);
        }
        if seen.insert(cell.body()) {
            out.serve_us.push(serve_us);
            let (graph, graph_us) = tracer.time("graph.workload_graph", Some(root), id, || {
                neusight_graph::workload_graph(&cell.model, cell.batch, cell.train)
            });
            let graph = graph.map_err(|e| e.to_string())?;
            out.graph_us.push(graph_us);
            let spec = catalog::gpu(&cell.gpu).map_err(|e| e.to_string())?;
            let unique: HashSet<&OpDesc> = graph.iter().map(|n| &n.op).collect();
            let fresh: Vec<&OpDesc> = unique
                .iter()
                .copied()
                .filter(|op| cached.insert((cell.gpu.clone(), (*op).clone())))
                .collect();
            out.unique += unique.len();
            out.missed += fresh.len();
            let modelled: Vec<&OpDesc> = fresh
                .iter()
                .copied()
                .filter(|op| {
                    let class = op.op_class();
                    class != OpClass::MemoryBound
                        && op.flops() > 0.0
                        && trained.contains(class.name())
                })
                .collect();
            let (plans, plan_us) = tracer.time("core.plan_launch", Some(root), id, || {
                modelled
                    .iter()
                    .map(|op| b.plan_launch(op, &spec).map(black_box))
                    .collect::<Result<Vec<_>, _>>()
            });
            plans.map_err(|e| e.to_string())?;
            out.plan_us += plan_us;
            out.planned += modelled.len();
            let before = b.prediction_cache_len();
            let (prediction, predict_us) =
                tracer.time("core.predict_graph_batch", Some(root), id, || {
                    b.predict_graph_batch(&[(&graph, &spec)])
                });
            let prediction = prediction.map_err(|e| e.to_string())?;
            out.predict_us.push(predict_us);
            // The replayed cache must miss exactly the kernels the shadow
            // set says are new, and core must agree with what serve sent.
            let served: Option<PredictResponse> = serde_json::from_str(&body).ok();
            let agrees = served.is_some_and(|s| s.total_ms == prediction[0].total_s * 1e3);
            if b.prediction_cache_len() - before != fresh.len() || !agrees {
                out.failed += 1;
            }
            // One MLP forward per (GPU, family) group of new kernels, at
            // the group's row count, as `predict_graph_batch` issues them.
            let mut groups: BTreeMap<&'static str, usize> = BTreeMap::new();
            for op in &modelled {
                *groups.entry(op.op_class().name()).or_default() += 1;
            }
            for rows in groups.into_values() {
                let input = Matrix::from_vec(
                    rows,
                    NUM_FEATURES,
                    (0..rows * NUM_FEATURES)
                        .map(|i| (i % 7) as f32 * 0.25)
                        .collect(),
                );
                let (_, us) = tracer.time("nn.forward", Some(root), id, || {
                    black_box(mlp.forward(black_box(&input)))
                });
                out.forward_us.push(us);
                out.forward_rows.push(rows as f64);
            }
        }
        tracer.close(root);
    }
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Converts a round's exchanges into spans, one per HTTP exchange.
fn exchange_spans(tracer: &mut Tracer, round: &Round, name: &'static str) {
    for e in &round.exchanges {
        tracer.record_ns(name, e.sent, e.done, None, Some(e.request as u64));
    }
}

/// Cost of recording one span, ns (for the overhead estimate).
fn span_cost_ns(epoch: Instant) -> f64 {
    let mut scratch = Tracer::new(epoch);
    let n = 100_000;
    let t = Instant::now();
    for i in 0..n {
        black_box(scratch.time("probe", None, Some(i), || black_box(i)));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(ctx.epoch);
    let mut attempted = 0;
    let mut failed = 0;
    let mut m: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();

    // data + nn training: the fixture build, timed and checked bit-exact
    // against the fixture the servers load.
    let start = Instant::now();
    let rebuilt;
    let build = match &ctx.fixture_build {
        Some(build) => build,
        None => {
            rebuilt = fixture::build(&ctx.work)?;
            attempted += 1;
            let stored = std::fs::read(&ctx.fixture).map_err(|e| e.to_string())?;
            if stored != rebuilt.bytes {
                eprintln!("nsbench: retraining gave a different fixture");
                failed += 1;
            }
            &rebuilt
        }
    };
    let collect_end = start + std::time::Duration::from_secs_f64(build.collect_s);
    let (s, c) = (tracer.at(start), tracer.at(collect_end));
    tracer.record_ns("data.collect_training_set", s, c, None, None);
    let train_end = tracer.at(collect_end + std::time::Duration::from_secs_f64(build.train_s));
    tracer.record_ns("nn.train", c, train_end, None, None);
    m.insert("data.collect_s", (build.collect_s, "s"));
    m.insert("nn.train_s", (build.train_s, "s"));

    // guard: the checksummed load.
    let mut loads = Vec::new();
    for _ in 0..3 {
        let (ns, us) = tracer.time("guard.load", None, None, || NeuSight::load(&ctx.fixture));
        ns.map_err(|e| e.to_string())?;
        loads.push(us / 1e3);
    }
    m.insert("guard.load_ms", (median(&loads), "ms"));
    m.insert("core.tiledb_rows", (ctx.tiledb_rows as f64, "count"));

    // graph, core, nn, serve: the in-process replay of this workload's
    // requests.
    let (requests, timed_from): (Vec<&Cell>, usize) = match ctx.workload {
        Workload::PlanCold => (
            ctx.plan_order.iter().map(|&i| &ctx.universe[i]).collect(),
            0,
        ),
        _ => {
            let mut reqs: Vec<&Cell> = ctx.dash.iter().collect();
            let keys = crate::dash_sequence(ctx.seed, HOT_REPLAY as f64 / crate::HOT_RATE);
            reqs.extend(keys.iter().map(|&k| &ctx.dash[k]));
            (reqs, ctx.dash.len())
        }
    };
    let known: BTreeMap<String, Vec<u8>> = ctx
        .universe
        .iter()
        .zip(&ctx.plan_expected)
        .filter_map(|(c, b)| Some((c.body(), b.clone()?)))
        .chain(
            ctx.dash
                .iter()
                .map(|c| c.body())
                .zip(ctx.dash_expected.iter().cloned()),
        )
        .collect();
    let rep = replay(ctx, &mut tracer, &requests, timed_from, &|c| {
        known.get(&c.body()).cloned()
    })?;
    attempted += requests.len();
    failed += rep.failed;
    let cold = rep.serve_us.len().max(1) as f64;
    m.insert("graph.build_us", (mean(&rep.graph_us), "us"));
    m.insert("graph.cached_graphs", (rep.graph_us.len() as f64, "count"));
    m.insert("core.predict_us", (mean(&rep.predict_us), "us"));
    m.insert(
        "core.plan_launch_us",
        (rep.plan_us / rep.planned.max(1) as f64, "us"),
    );
    m.insert(
        "core.unique_kernels_per_req",
        (rep.unique as f64 / cold, "count"),
    );
    m.insert(
        "core.kernel_hit_ratio",
        (1.0 - rep.missed as f64 / rep.unique.max(1) as f64, "ratio"),
    );
    m.insert("nn.forward_us", (mean(&rep.forward_us), "us"));
    m.insert("nn.rows_per_forward", (mean(&rep.forward_rows), "count"));
    let forward_total: f64 = rep.forward_us.iter().sum();
    let core_self = (rep.predict_us.iter().sum::<f64>() - rep.plan_us - forward_total) / cold;
    m.insert("core.self_us", (core_self, "us"));
    m.insert("serve.inproc_us", (mean(&rep.timed_serve_us), "us"));

    // The workload over HTTP, with the servers' own stage histograms.
    let window = match ctx.workload {
        Workload::PlanCold => 0.0,
        _ => HOT_WINDOW_S,
    };
    let idle = match ctx.workload {
        Workload::RoutedHot => IDLE_S,
        _ => 0.0,
    };
    let (rounds, served) = measure(ctx, ctx.workload, window, 1, true, idle)?;
    let main = &rounds[0];
    let exchange_name = match ctx.workload.topology() {
        Topology::Serve => "serve.http_exchange",
        Topology::Routed => "router.http_exchange",
    };
    exchange_spans(&mut tracer, main, exchange_name);
    attempted += main.attempted;
    failed += main.failed;
    let scrapes = main.scrapes.as_ref().expect("traced rounds scrape");
    let (sb, sa) = (&scrapes.servers.0, &scrapes.servers.1);
    let mut stage_sum_us = 0.0;
    for (stage, name) in [
        ("queue", "serve.stage.queue_us.p50"),
        ("batch_wait", "serve.stage.batch_wait_us.p50"),
        ("predict", "serve.stage.predict_us.p50"),
        ("render", "serve.stage.render_us.p50"),
        ("write", "serve.stage.write_us.p50"),
    ] {
        let us = delta_quantile(sb, sa, &format!("neusight_serve_stage_{stage}_ns"), 0.5) / 1e3;
        stage_sum_us += us;
        m.insert(name, (us, "us"));
    }
    let delta = |name: &str| sa.value(name) - sb.value(name);
    let dispatched = delta("neusight_serve_batch_size_sum");
    m.insert(
        "serve.memo_hit_ratio",
        (
            delta("neusight_serve_response_cache_hits") / dispatched.max(1.0),
            "ratio",
        ),
    );
    m.insert(
        "serve.batch_size_mean",
        (
            dispatched / delta("neusight_serve_batch_size_count").max(1.0),
            "count",
        ),
    );
    let (client_p50, client_p99, _) = crate::latency(ctx.workload, &rounds);
    m.insert("client.forecasts_per_s", (main.forecasts_per_s(), "1/s"));
    m.insert("client.p50_ms", (client_p50, "ms"));
    m.insert("client.p99_ms", (client_p99, "ms"));
    let client_p50_us = client_p50 * 1e3;
    m.insert("serve.residual_us", (client_p50_us - stage_sum_us, "us"));
    let inproc_ms = mean(&rep.timed_serve_us) / 1e3;
    let cpu = main.cpu_ms_per_req();
    m.insert(
        "bench.attribution_residual_pct",
        (100.0 * (cpu - inproc_ms) / cpu, "%"),
    );
    m.insert("host.steal_pct", (main.steal_pct, "%"));
    m.insert("loadgen.late_ms.p99", (quantile(&main.late_ms, 0.99), "ms"));
    m.insert("loadgen.cpu_pct", (main.loadgen_cpu_pct, "%"));

    // The router hop: a direct and a routed window of the dashboard mix,
    // reusing this workload's own window where it is one of them.
    let (direct, routed) = match ctx.workload {
        Workload::PlanCold => (None, None),
        Workload::DashHot => (Some(main), None),
        Workload::RoutedHot => (None, Some(main)),
    };
    let extra_direct;
    let direct = match direct {
        Some(r) => r,
        None => {
            extra_direct = measure(ctx, Workload::DashHot, HOT_WINDOW_S, 1, false, 0.0)?.0;
            exchange_spans(&mut tracer, &extra_direct[0], "serve.http_exchange");
            attempted += extra_direct[0].attempted;
            failed += extra_direct[0].failed;
            &extra_direct[0]
        }
    };
    let extra_routed;
    let routed = match routed {
        Some(r) => r,
        _ => {
            extra_routed = measure(ctx, Workload::RoutedHot, HOT_WINDOW_S, 1, true, IDLE_S)?.0;
            exchange_spans(&mut tracer, &extra_routed[0], "router.http_exchange");
            attempted += extra_routed[0].attempted;
            failed += extra_routed[0].failed;
            &extra_routed[0]
        }
    };
    let rs = routed.scrapes.as_ref().expect("traced rounds scrape");
    let (fb, fa) = (&rs.front.0, &rs.front.1);
    m.insert(
        "router.stage.route_us.p50",
        (
            delta_quantile(fb, fa, "neusight_router_stage_route_ns", 0.5) / 1e3,
            "us",
        ),
    );
    m.insert(
        "router.stage.upstream_wait_us.p50",
        (
            delta_quantile(fb, fa, "neusight_router_stage_upstream_wait_ns", 0.5) / 1e3,
            "us",
        ),
    );
    let p50 = |w, r: &Round| crate::latency(w, std::slice::from_ref(r)).0;
    let hop_ms = p50(Workload::RoutedHot, routed) - p50(Workload::DashHot, direct);
    m.insert("router.hop_us", (hop_ms * 1e3, "us"));
    m.insert(
        "router.cpu_ms_per_req",
        (routed.front_cpu_ms / routed.ok.max(1) as f64, "ms"),
    );
    m.insert(
        "router.idle_cpu_pct",
        (routed.idle_cpu_pct.unwrap_or(f64::NAN), "%"),
    );

    // Accuracy of the window's answers, split by whether the GPU was
    // seen in training.
    let (mape, _) = tracer.time("sim.execute_graph", None, None, || {
        cells::forecast_mape(ctx.cells(ctx.workload), &served)
    });
    let ((_, in_dist, ood), unparsable) = mape?;
    failed += unparsable;
    m.insert("forecast_mape_in_dist_pct", (in_dist, "%"));
    m.insert("forecast_mape_ood_pct", (ood, "%"));

    // Overhead of the benchmark's own spans against the traced wall time.
    let traced_wall_s = rep.wall_s + main.wall_s;
    let overhead = span_cost_ns(ctx.epoch) * tracer.spans.len() as f64 / (traced_wall_s * 1e9);
    m.insert("bench.trace_overhead_pct", (100.0 * overhead, "%"));

    print_attribution(&tracer, &rep, main, ctx.workload);
    let path = ctx
        .work
        .parent()
        .expect("work dir has a parent")
        .join(format!("spans-{}-{}.json", ctx.workload.name(), ctx.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| e.to_string())?;
    eprintln!(
        "nsbench: {} spans written to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    })
}

/// Prints the self time of every span name, and how the cold-request
/// layers add up against the server CPU the HTTP window measured.
fn print_attribution(tracer: &Tracer, rep: &Replay, main: &Round, workload: Workload) {
    println!(
        "{:<32} {:>8} {:>14} {:>14}",
        "span", "count", "total_us", "self_us"
    );
    for (name, (count, total, own)) in tracer.self_times() {
        println!("{name:<32} {count:>8} {total:>14.1} {own:>14.1}");
    }
    let cold = rep.serve_us.len().max(1) as f64;
    let per = |total: f64| total / cold;
    let serve = per(rep.serve_us.iter().sum());
    let graph = per(rep.graph_us.iter().sum());
    let predict = per(rep.predict_us.iter().sum());
    let plan = per(rep.plan_us);
    let forward = per(rep.forward_us.iter().sum());
    println!(
        "per cold request (µs, in-process, {} requests):",
        rep.serve_us.len()
    );
    for (layer, us) in [
        ("graph  (workload_graph)", graph),
        ("core   (plan_launch)", plan),
        ("nn     (Mlp::forward)", forward),
        (
            "core   (rest of predict_graph_batch)",
            predict - plan - forward,
        ),
        (
            "serve  (rest of predict_batch_serialized)",
            serve - graph - predict,
        ),
    ] {
        println!("  {layer:<44} {us:>12.1}  {:>5.1}%", 100.0 * us / serve);
    }
    let timed = mean(&rep.timed_serve_us);
    let cpu_us = main.cpu_ms_per_req() * 1e3;
    println!(
        "{}: in-process cost per timed request {timed:.1} µs; server CPU per request over HTTP {cpu_us:.1} µs; residual (HTTP, reactor, dispatch, batching) {:.1} µs = {:.1}%",
        workload.name(),
        cpu_us - timed,
        100.0 * (cpu_us - timed) / cpu_us
    );
}

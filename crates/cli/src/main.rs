//! `neusight` — the command-line interface to NeuSight-rs.
//!
//! ```text
//! neusight train [--scale tiny|standard] [--out FILE]
//! neusight gpus
//! neusight models
//! neusight predict --model NAME --gpu NAME [--batch N] [--train] [--fused]
//!                  [--predictor FILE]
//! neusight kernel  --gpu NAME --op bmm:B,M,N,K | fc:B,I,O | softmax:R,D
//!                  [--predictor FILE]
//! neusight profile --model NAME --gpu NAME [--batch N] [--train] [--fused]
//!                  [--runs N] [--predictor FILE]
//! neusight profile --serve (--input DUMP.json | --addr HOST:PORT)
//! neusight distributed --model NAME --server a100|h100 --batch N
//!                      --strategy dp|tp|pp|pp-1f1b [--microbatches N] [--predictor FILE]
//! neusight compare --model NAME [--batch N] [--train] [--predictor FILE]
//! neusight serving --model NAME [--batch N] [--tokens N] [--predictor FILE]
//! neusight export-dot --model NAME [--batch N] [--train] [--fused]
//! neusight serve   [--addr HOST:PORT] [--port N] [--workers N] [--queue-depth N]
//!                  [--deadline-ms N] [--max-batch N] [--predictor FILE]
//!                  [--models-dir DIR]
//! neusight router  (--replicas N | --upstream HOST:PORT,HOST:PORT,…)
//!                  [--addr HOST:PORT] [--warm-gossip] [--predictor FILE]
//!                  [--restart-budget N] [--hedge] [--shed-target-ms N]
//!                  [--models-dir DIR]
//! neusight publish --version TAG [--parent TAG] [--models-dir DIR]
//!                  [--predictor FILE] [--perturb F] [--no-golden]
//! neusight chaos   [--fault-spec SPEC] [--fault-seed N] [--scale tiny|standard]
//! neusight verify-artifacts [DIR-OR-FILE]
//! ```
//!
//! # Model lifecycle
//!
//! `publish` seals a predictor into the versioned registry (`models/` by
//! default) with a manifest: version tag, parent lineage, weight
//! fingerprint, and the golden-set MAPE measured at publish time.
//! `serve --models-dir DIR` boots from the registry's latest artifact
//! instead of the bare predictor file, and `POST /v1/admin/reload` (or
//! SIGHUP) hot-swaps to a newer version through the staged → canary →
//! shadow gate described in DESIGN.md §11. The router's
//! `POST /v1/admin/reload` rolls the swap across the fleet one replica
//! at a time. `--perturb F` multiplies every trained weight by `F` at
//! publish time — a deliberately-regressed candidate for chaos-testing
//! the gate.
//!
//! A trained predictor is cached at `neusight-predictor.json` in the
//! working directory by default; `train` creates it, everything else loads
//! it (training on the fly if missing). The global `--cache-capacity N`
//! flag bounds the prediction memo cache (entries, FIFO eviction) for any
//! command that loads a predictor — `serve` and `predict` share the knob.
//!
//! # Observability flags (every command)
//!
//! Passing any of these enables the `neusight-obs` subsystem for the run
//! (it is otherwise compiled to a no-op fast path):
//!
//! - `--trace FILE` — write the recorded spans as a Chrome trace-event
//!   JSON file, loadable in `chrome://tracing` or Perfetto.
//! - `--trace-jsonl FILE` — write the spans as JSON-lines (one span object
//!   per line), for `jq`/`grep` pipelines.
//! - `--metrics` — print every registered counter/gauge/histogram to
//!   stdout in Prometheus text exposition format after the command.
//! - `--metrics-out FILE` — write the same exposition to a file.
//!
//! `serve` and `router` always keep metrics on for `/metrics`, and record
//! spans only when `--trace` or `--trace-jsonl` is given; the file is
//! written after the drain. A router records its route and relay spans
//! in `FILE`, and each replica it spawns records its own in
//! `FILE.replica-<i>`. Unknown options are rejected (the list is
//! `args::KNOWN_OPTIONS`); `--reactor` is still accepted as a no-op.
//!
//! `neusight profile` runs a model forecast under full instrumentation and
//! prints a per-stage wall-time breakdown table (span taxonomy in
//! DESIGN.md §Observability) plus cache/dispatch metric summaries.
//!
//! # Fault injection flags (every command)
//!
//! - `--fault-spec SPEC` — arm deterministic failpoints, e.g.
//!   `data.collect.device=0.2;core.predict.mlp=1.0:count=3`.
//! - `--fault-seed N` — seed for the fault schedule; the same seed
//!   reproduces the same fire pattern exactly.
//!
//! The `NEUSIGHT_FAULT_SPEC` / `NEUSIGHT_FAULT_SEED` environment
//! variables arm the same registry (flags win). `neusight chaos` runs a
//! checkpointed collection sweep under injected device faults and aborts,
//! then prints the per-failpoint hit/fire table — the quickest way to see
//! the fault subsystem work end to end.
//!
//! Model names accept any unambiguous prefix (`gpt2` → `GPT2-Large`),
//! ignoring case and punctuation.

mod args;

use args::{ArgError, Args};
use neusight_core::{codec, NeuSight, NeuSightConfig};
use neusight_data::SweepScale;
use neusight_dist::{
    a100_nvlink_4x, fits_server, h100_dgx_4x, plan_training, DistForecaster, ParallelStrategy,
};
use neusight_gpu::{catalog, DType, OpDesc};
use neusight_graph::{config, fuse_graph, inference_graph, training_graph};
use neusight_obs as obs;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_PREDICTOR: &str = "neusight-predictor.json";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return fail(&e.to_string()),
    };
    let profiling = args.positional(0) == Some("profile");
    if profiling || observability_requested(&args) {
        obs::set_enabled(true);
    }
    if let Err(e) = configure_faults(&args) {
        return fail(&e.to_string());
    }
    let result = match args.positional(0) {
        Some("train") => cmd_train(&args),
        Some("gpus") => cmd_gpus(),
        Some("models") => cmd_models(),
        Some("predict") => cmd_predict(&args),
        Some("kernel") => cmd_kernel(&args),
        Some("profile") => cmd_profile(&args),
        Some("distributed") => cmd_distributed(&args),
        Some("compare") => cmd_compare(&args),
        Some("serving") => cmd_serving(&args),
        Some("serve") => cmd_serve(&args),
        Some("router") => cmd_router(&args),
        Some("chaos") => cmd_chaos(&args),
        Some("publish") => cmd_publish(&args),
        Some("verify-artifacts") => cmd_verify_artifacts(&args),
        Some("export-dot") => cmd_export_dot(&args),
        Some(other) => Err(ArgError(format!("unknown command `{other}`")).into()),
        None => {
            print_usage();
            Ok(())
        }
    };
    let result = result.and_then(|()| export_observability(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e.to_string()),
    }
}

/// Arms the deterministic fault registry from the environment
/// (`NEUSIGHT_FAULT_SPEC` / `NEUSIGHT_FAULT_SEED`), then from the
/// `--fault-spec` / `--fault-seed` flags, which take precedence.
fn configure_faults(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    neusight_fault::configure_from_env()?;
    if let Some(text) = args.option("fault-spec") {
        if text.is_empty() {
            return Err(ArgError(
                "--fault-spec needs POINT=PROB[:count=N][:after=N][:delay_ms=N][:kind=fail|delay]"
                    .to_owned(),
            )
            .into());
        }
        let spec: neusight_fault::FaultSpec = text.parse()?;
        neusight_fault::configure(&spec, args.get_or("fault-seed", 0u64)?);
    }
    Ok(())
}

/// Whether any of the global observability flags is present.
fn observability_requested(args: &Args) -> bool {
    spans_requested(args) || args.has("metrics") || args.has("metrics-out")
}

/// Whether a span export (`--trace` / `--trace-jsonl`) was asked for.
fn spans_requested(args: &Args) -> bool {
    args.has("trace") || args.has("trace-jsonl")
}

/// Observability for a long-lived `serve` or `router` process: metrics
/// always, for `/metrics`; spans only when an export at exit will read
/// them, since nothing else does and a full recorder holds megabytes.
fn enable_serving_observability(args: &Args) {
    obs::set_enabled(true);
    obs::set_spans(spans_requested(args));
}

/// Writes/prints the requested trace and metrics exports after a command.
fn export_observability(args: &Args) -> CliResult {
    if !obs::enabled() {
        return Ok(());
    }
    let file_arg = |flag: &str| -> Result<Option<&str>, ArgError> {
        match args.option(flag) {
            Some("") => Err(ArgError(format!("--{flag} needs a file path"))),
            other => Ok(other),
        }
    };
    let spans = obs::take_spans();
    if let Some(path) = file_arg("trace")? {
        fs::write(path, obs::export::chrome_trace(&spans))?;
        eprintln!("wrote {} spans to {path} (chrome://tracing)", spans.len());
    }
    if let Some(path) = file_arg("trace-jsonl")? {
        fs::write(path, obs::export::json_lines(&spans))?;
        eprintln!("wrote {} spans to {path} (JSON-lines)", spans.len());
    }
    if args.has("metrics") || args.has("metrics-out") {
        let text = obs::export::prometheus(&obs::metrics::snapshot());
        if let Some(path) = file_arg("metrics-out")? {
            fs::write(path, &text)?;
            eprintln!("wrote metrics to {path}");
        }
        if args.has("metrics") {
            print!("{text}");
        }
    }
    Ok(())
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("run `neusight` with no arguments for usage");
    ExitCode::FAILURE
}

fn print_usage() {
    println!(
        "neusight — forecast deep learning latency on GPUs you don't have\n\n\
         commands:\n\
           train        measure the training sweep and fit the predictors\n\
           gpus         list the GPU catalog (Table 3)\n\
           models       list the workload zoo (Table 4)\n\
           predict      forecast a model graph on a GPU\n\
           kernel       forecast a single kernel on a GPU\n\
           profile      instrumented forecast with per-stage breakdown\n\
           profile --serve  tail-latency attribution from a flight-recorder dump\n\
           distributed  forecast multi-GPU training on a 4-GPU server\n\
           compare      forecast one model across the whole GPU catalog\n\
           serving      forecast TTFT and tokens/second for generation\n\
           serve        run the HTTP prediction service (see --addr etc.)\n\
           router       front N serve replicas with consistent-hash routing\n\
                        (supervised restarts; --hedge; --shed-target-ms N)\n\
           chaos        run a collection sweep under injected faults\n\
           publish      seal a predictor into the versioned model registry\n\
                        (--version TAG; --perturb F for chaos candidates)\n\
           verify-artifacts  check artifact checksums under a dir (or one file)\n\
           export-dot   print a model's kernel graph in Graphviz DOT\n\n\
         global flags:\n\
           --predictor FILE      predictor path (default neusight-predictor.json)\n\
           --cache-capacity N    bound the prediction memo cache (entries)\n\
           --cache-shards N      prediction-cache lock shards (default 16)\n\
           --fault-spec SPEC     arm failpoints, e.g. data.collect.device=0.2\n\
           --fault-seed N        deterministic fault schedule seed\n\n\
         observability (any command):\n\
           --trace FILE        Chrome trace-event JSON (chrome://tracing)\n\
           --trace-jsonl FILE  span log, one JSON object per line\n\
           --metrics           Prometheus text exposition on stdout\n\
           --metrics-out FILE  same exposition, written to a file\n\n\
         see the crate docs for per-command options"
    );
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn load_or_train(args: &Args) -> Result<NeuSight, Box<dyn std::error::Error>> {
    let path = args.option("predictor").unwrap_or(DEFAULT_PREDICTOR);
    let ns = if Path::new(path).exists() {
        NeuSight::load(Path::new(path))?
    } else {
        eprintln!("no predictor at {path}; training one (use `neusight train` to control this)…");
        let ns = train_new(SweepScale::Standard)?;
        ns.save(Path::new(path))?;
        eprintln!("saved to {path}");
        ns
    };
    apply_cache_flags(args, &ns)?;
    Ok(ns)
}

/// Applies the global `--cache-shards` / `--cache-capacity` flags to a
/// loaded predictor (shared by the bare-file and registry load paths).
fn apply_cache_flags(args: &Args, ns: &NeuSight) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(shards) = args.option("cache-shards") {
        let shards: usize = shards
            .parse()
            .map_err(|_| ArgError(format!("invalid value `{shards}` for --cache-shards")))?;
        ns.set_prediction_cache_shards(shards);
    }
    if let Some(capacity) = args.option("cache-capacity") {
        let capacity: usize = capacity
            .parse()
            .map_err(|_| ArgError(format!("invalid value `{capacity}` for --cache-capacity")))?;
        ns.set_prediction_cache_capacity(capacity);
    }
    Ok(())
}

/// Loads the serving predictor: the registry's latest artifact when
/// `--models-dir` is given (falling back to the bare predictor file on
/// an empty registry), the bare `--predictor` file otherwise. Returns
/// the model and, for registry loads, its version tag.
fn load_serving_model(
    args: &Args,
) -> Result<(NeuSight, Option<String>), Box<dyn std::error::Error>> {
    let Some(dir) = args.option("models-dir") else {
        return Ok((load_or_train(args)?, None));
    };
    let registry = neusight_core::Registry::open(dir);
    match registry.latest()? {
        Some(entry) => {
            eprintln!(
                "loading model {} from registry {dir} (fingerprint {:#018x})",
                entry.manifest.version, entry.manifest.fingerprint
            );
            let artifact = registry.load(&entry.manifest.version)?;
            apply_cache_flags(args, &artifact.model)?;
            Ok((artifact.model, Some(entry.manifest.version)))
        }
        None => {
            eprintln!("registry {dir} is empty; falling back to --predictor");
            Ok((load_or_train(args)?, None))
        }
    }
}

fn train_new(scale: SweepScale) -> Result<NeuSight, Box<dyn std::error::Error>> {
    let gpus = neusight_data::training_gpus();
    eprintln!(
        "measuring the operator sweep on {} training GPUs…",
        gpus.len()
    );
    let data = neusight_data::collect_training_set(&gpus, scale, DType::F32);
    eprintln!("training on {} records…", data.len());
    let config = match scale {
        SweepScale::Tiny => NeuSightConfig::tiny(),
        SweepScale::Standard => NeuSightConfig::standard(),
    };
    Ok(NeuSight::train(&data, &config)?)
}

fn cmd_train(args: &Args) -> CliResult {
    let scale = match args.option("scale").unwrap_or("standard") {
        "tiny" => SweepScale::Tiny,
        "standard" => SweepScale::Standard,
        other => return Err(ArgError(format!("unknown scale `{other}`")).into()),
    };
    let out = args.option("out").unwrap_or(DEFAULT_PREDICTOR);
    let ns = train_new(scale)?;
    for (family, smape) in ns.validation_report() {
        println!("validation SMAPE[{family}] = {smape:.3}");
    }
    ns.save(Path::new(out))?;
    println!("saved predictor to {out}");
    Ok(())
}

fn cmd_gpus() -> CliResult {
    for entry in catalog::all() {
        let role = match entry.role {
            catalog::SplitRole::Train => "train",
            catalog::SplitRole::Test => "held-out",
        };
        println!("{:<10} [{role:^8}] {}", entry.spec.name(), entry.spec);
    }
    Ok(())
}

fn cmd_models() -> CliResult {
    for model in config::table4() {
        println!("{model}");
    }
    println!("ResNet50 / VGG16 are available through `predict --model resnet50|vgg16`");
    Ok(())
}

fn resolve_gpu(args: &Args) -> Result<neusight_gpu::GpuSpec, Box<dyn std::error::Error>> {
    Ok(catalog::gpu(args.require("gpu")?)?)
}

/// Lower-cases and strips punctuation so `gpt2` compares equal to the
/// prefix of `GPT2-Large`.
fn normalized(name: &str) -> String {
    name.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Looks up a Table 4 model by exact name or unambiguous normalized
/// prefix (`gpt2` → `GPT2-Large`; `gpt3` is ambiguous and rejected).
fn resolve_model(name: &str) -> Result<config::ModelConfig, ArgError> {
    if let Some(model) = config::by_name(name) {
        return Ok(model);
    }
    let want = normalized(name);
    let mut matches: Vec<config::ModelConfig> = config::table4()
        .into_iter()
        .filter(|m| !want.is_empty() && normalized(&m.name).starts_with(&want))
        .collect();
    match matches.len() {
        1 => Ok(matches.remove(0)),
        0 => Err(ArgError(format!(
            "unknown model `{name}` (see `neusight models`)"
        ))),
        _ => Err(ArgError(format!(
            "ambiguous model `{name}`: matches {}",
            matches
                .iter()
                .map(|m| m.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ))),
    }
}

fn cmd_predict(args: &Args) -> CliResult {
    let ns = load_or_train(args)?;
    let spec = resolve_gpu(args)?;
    let name = args.require("model")?;
    let batch: u64 = args.get_or("batch", 1)?;
    let training = args.has("train");

    let mut graph = graph_for(name, batch, training)?;
    if args.has("fused") {
        graph = fuse_graph(&graph);
    }
    let forecast = ns.predict_graph(&graph, &spec)?;
    println!(
        "{} on {} (batch {batch}{}{}): {:.2} ms across {} kernels",
        name,
        spec.name(),
        if training {
            ", training"
        } else {
            ", inference"
        },
        if args.has("fused") { ", fused" } else { "" },
        forecast.total_s * 1e3,
        graph.len()
    );
    if training {
        println!(
            "  forward {:.2} ms / backward {:.2} ms",
            forecast.forward_s * 1e3,
            forecast.backward_s * 1e3
        );
    }
    Ok(())
}

/// Parses `family:dims` kernel specs, e.g. `bmm:8,512,512,512`.
fn parse_op(text: &str) -> Result<OpDesc, ArgError> {
    let (family, dims_text) = text
        .split_once(':')
        .ok_or_else(|| ArgError(format!("expected FAMILY:DIMS, got `{text}`")))?;
    let dims: Vec<u64> = dims_text
        .split(',')
        .map(|d| {
            d.trim()
                .parse()
                .map_err(|_| ArgError(format!("bad dimension `{d}`")))
        })
        .collect::<Result<_, _>>()?;
    let need = |n: usize| -> Result<(), ArgError> {
        if dims.len() == n {
            Ok(())
        } else {
            Err(ArgError(format!(
                "{family} takes {n} dims, got {}",
                dims.len()
            )))
        }
    };
    match family {
        "bmm" => {
            need(4)?;
            Ok(OpDesc::bmm(dims[0], dims[1], dims[2], dims[3]))
        }
        "fc" => {
            need(3)?;
            Ok(OpDesc::fc(dims[0], dims[1], dims[2]))
        }
        "softmax" => {
            need(2)?;
            Ok(OpDesc::softmax(dims[0], dims[1]))
        }
        "layernorm" => {
            need(2)?;
            Ok(OpDesc::layer_norm(dims[0], dims[1]))
        }
        "conv2d" => {
            need(7)?;
            Ok(OpDesc::conv2d(
                dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6],
            ))
        }
        other => Err(ArgError(format!("unknown kernel family `{other}`"))),
    }
}

fn cmd_kernel(args: &Args) -> CliResult {
    let ns = load_or_train(args)?;
    let spec = resolve_gpu(args)?;
    let op = parse_op(args.require("op")?)?;
    let launch = ns.plan_launch(&op, &spec)?;
    let latency = ns.predict_op(&op, &spec)?;
    println!(
        "{op} on {}: {:.3} ms (tile {}, {} tiles, {} waves{})",
        spec.name(),
        latency * 1e3,
        launch.tile,
        launch.num_tiles,
        launch.num_waves,
        if launch.split_k > 1 {
            format!(", split-K {}", launch.split_k)
        } else {
            String::new()
        }
    );
    Ok(())
}

fn cmd_distributed(args: &Args) -> CliResult {
    let ns = load_or_train(args)?;
    let name = args.require("model")?;
    let model = resolve_model(name)?;
    let server = match args.require("server")? {
        "a100" => a100_nvlink_4x()?,
        "h100" => h100_dgx_4x()?,
        other => return Err(ArgError(format!("unknown server `{other}`")).into()),
    };
    let batch: u64 = args.get_or("batch", 8)?;
    let microbatches: u64 = args.get_or("microbatches", 4)?;
    let strategy = match args.require("strategy")? {
        "dp" => ParallelStrategy::Data,
        "tp" => ParallelStrategy::Tensor,
        "pp" => ParallelStrategy::gpipe(microbatches),
        "pp-1f1b" => ParallelStrategy::one_f_one_b(microbatches),
        other => return Err(ArgError(format!("unknown strategy `{other}`")).into()),
    };
    if !fits_server(&model, batch, strategy, &server, DType::F32) {
        println!(
            "{} batch {batch} with {} does not fit the {} — OOM",
            model.name,
            strategy.label(),
            server.name
        );
        return Ok(());
    }
    let plan = plan_training(&model, batch, server.num_gpus, strategy, DType::F32)?;
    let forecast = DistForecaster::new(&ns).predict_iteration(&plan, &server);
    println!(
        "{} batch {batch}, {} on {}: {:.1} ms per training iteration",
        model.name,
        strategy.label(),
        server.name,
        forecast * 1e3
    );
    Ok(())
}

/// Builds the graph a `--model NAME` argument refers to.
fn graph_for(name: &str, batch: u64, training: bool) -> Result<neusight_graph::Graph, ArgError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "resnet50" if training => neusight_graph::cnn::resnet50_training(batch),
        "resnet50" => neusight_graph::cnn::resnet50_inference(batch),
        "vgg16" => neusight_graph::cnn::vgg16_inference(batch),
        _ => {
            let model = resolve_model(name)?;
            if training {
                training_graph(&model, batch)
            } else {
                inference_graph(&model, batch)
            }
        }
    })
}

/// Runs a forecast under full instrumentation and prints the per-stage
/// wall-time breakdown plus metric summaries (`neusight profile`).
///
/// With `--serve`, analyzes a serving-path flight-recorder dump instead:
/// per-stage latency attribution and the slowest requests, from a dump
/// file (`--input`) or a live server (`--addr`).
fn cmd_profile(args: &Args) -> CliResult {
    if args.has("serve") {
        return cmd_profile_serve(args);
    }
    let name = args.require("model")?;
    let spec = resolve_gpu(args)?;
    let batch: u64 = args.get_or("batch", 1)?;
    let training = args.has("train");
    let runs: usize = args.get_or("runs", 3)?;

    let ns = load_or_train(args)?;
    let mut graph = graph_for(name, batch, training)?;
    if args.has("fused") {
        graph = fuse_graph(&graph);
    }

    // Profile only the forecast: drop the spans and counters that
    // predictor loading/training produced above.
    let _setup = obs::take_spans();
    obs::metrics::reset();

    let cold_start = Instant::now();
    let forecast = ns.predict_graph(&graph, &spec)?;
    let cold_s = cold_start.elapsed().as_secs_f64();
    let warm_start = Instant::now();
    for _ in 0..runs {
        let _ = ns.predict_graph(&graph, &spec)?;
    }
    let warm_s = warm_start.elapsed().as_secs_f64() / runs.max(1) as f64;

    println!(
        "{} on {} (batch {batch}, {}): forecast {:.3} ms across {} kernels",
        graph.name(),
        spec.name(),
        if training { "training" } else { "inference" },
        forecast.total_s * 1e3,
        graph.len()
    );
    println!(
        "predictor wall time: cold {:.3} ms, warm {:.3} ms avg over {runs} run(s)\n",
        cold_s * 1e3,
        warm_s * 1e3
    );

    let spans = obs::snapshot_spans();
    let stages = obs::profile::aggregate(&spans);
    print!("{}", obs::profile::render_table(&stages));

    let snap = obs::metrics::snapshot();
    let interesting: Vec<_> = snap
        .counters
        .iter()
        .filter(|(_, value)| **value > 0)
        .collect();
    if !interesting.is_empty() {
        println!("\ncounters:");
        for (name, value) in interesting {
            println!("  {name:<40} {value}");
        }
    }
    let set_gauges: Vec<_> = snap.gauges.iter().filter(|(_, v)| **v != 0.0).collect();
    if !set_gauges.is_empty() {
        println!("\ngauges:");
        for (name, value) in set_gauges {
            println!("  {name:<40} {value}");
        }
    }
    let latency_histograms: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .collect();
    if !latency_histograms.is_empty() {
        println!("\nhistograms (count / mean / ~p99):");
        for (name, h) in latency_histograms {
            #[allow(clippy::cast_precision_loss)]
            let mean_us = h.sum as f64 / h.count as f64 / 1e3;
            let p99 = obs::metrics::histogram(name).quantile_upper_bound(0.99);
            #[allow(clippy::cast_precision_loss)]
            let p99_us = p99 as f64 / 1e3;
            println!(
                "  {name:<40} {} / {mean_us:.2} us / <={p99_us:.2} us",
                h.count
            );
        }
    }
    Ok(())
}

/// Navigates the vendored serde value tree: object field lookup.
fn json_field<'v>(v: &'v serde::value::Value, key: &str) -> Option<&'v serde::value::Value> {
    match v {
        serde::value::Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, value)| value),
        _ => None,
    }
}

/// Coerces a JSON number to `u64` (the dump writes only non-negative
/// integers, but floats survive a round-trip through other tools).
#[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
fn json_u64(v: &serde::value::Value) -> Option<u64> {
    match *v {
        serde::value::Value::Int(i) if i >= 0 => Some(i as u64),
        serde::value::Value::UInt(u) => Some(u),
        serde::value::Value::Float(f) if f >= 0.0 => Some(f as u64),
        _ => None,
    }
}

/// `neusight profile --serve`: tail-latency attribution from a flight
/// recorder dump — per-stage totals/means/maxes plus the slowest
/// requests with their trace IDs.
#[allow(clippy::cast_precision_loss)]
fn cmd_profile_serve(args: &Args) -> CliResult {
    struct RawJson(serde::value::Value);
    impl serde::Deserialize for RawJson {
        fn from_value(v: &serde::value::Value) -> Result<RawJson, serde::Error> {
            Ok(RawJson(v.clone()))
        }
    }

    let text = if let Some(path) = args.option("input") {
        if path.is_empty() {
            return Err(ArgError("--input needs a dump file path".to_owned()).into());
        }
        fs::read_to_string(path)?
    } else if let Some(addr) = args.option("addr") {
        let addr: std::net::SocketAddr = addr
            .parse()
            .map_err(|_| ArgError(format!("invalid --addr `{addr}`")))?;
        let mut client = neusight_serve::Client::connect(addr)?;
        let response = client.get("/v1/debug/traces")?;
        if response.status != 200 {
            return Err(
                ArgError(format!("GET /v1/debug/traces returned {}", response.status)).into(),
            );
        }
        response.text()
    } else {
        return Err(ArgError(
            "profile --serve needs --input DUMP.json or --addr HOST:PORT".to_owned(),
        )
        .into());
    };

    let RawJson(root) = serde_json::from_str(&text)?;
    let recorded = json_field(&root, "recorded")
        .and_then(json_u64)
        .unwrap_or(0);
    let capacity = json_field(&root, "capacity")
        .and_then(json_u64)
        .unwrap_or(0);
    let stage_names: Vec<String> = match json_field(&root, "stages") {
        Some(serde::value::Value::Array(items)) => items
            .iter()
            .filter_map(|v| match v {
                serde::value::Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => return Err(ArgError("dump has no `stages` array".to_owned()).into()),
    };
    let traces = match json_field(&root, "traces") {
        Some(serde::value::Value::Array(items)) => items,
        _ => return Err(ArgError("dump has no `traces` array".to_owned()).into()),
    };

    println!(
        "flight recorder: {} recorded, {} retained (capacity {capacity})\n",
        recorded,
        traces.len()
    );
    if traces.is_empty() {
        println!("no traces retained; send requests first (or lower the load)");
        return Ok(());
    }

    // Per-stage aggregation across every retained trace.
    let mut counts = vec![0u64; stage_names.len()];
    let mut totals = vec![0u64; stage_names.len()];
    let mut maxes = vec![0u64; stage_names.len()];
    let mut grand_total: u64 = 0;
    let mut e2e_max: u64 = 0;
    for trace in traces {
        let stages = json_field(trace, "stages");
        for (index, name) in stage_names.iter().enumerate() {
            let ns = stages
                .and_then(|s| json_field(s, &format!("{name}_ns")))
                .and_then(json_u64)
                .unwrap_or(0);
            if ns > 0 {
                counts[index] += 1;
            }
            totals[index] += ns;
            maxes[index] = maxes[index].max(ns);
        }
        let total_ns = json_field(trace, "total_ns")
            .and_then(json_u64)
            .unwrap_or(0);
        grand_total += total_ns;
        e2e_max = e2e_max.max(total_ns);
    }

    println!(
        "{:<12} {:>7} {:>12} {:>11} {:>11} {:>7}",
        "stage", "count", "total ms", "mean us", "max us", "share"
    );
    let row = |name: &str, count: u64, total: u64, max: u64| {
        let mean_us = total as f64 / count.max(1) as f64 / 1e3;
        let share = if grand_total > 0 {
            100.0 * total as f64 / grand_total as f64
        } else {
            0.0
        };
        println!(
            "{name:<12} {count:>7} {:>12.3} {mean_us:>11.2} {:>11.2} {share:>6.1}%",
            total as f64 / 1e6,
            max as f64 / 1e3
        );
    };
    for (index, name) in stage_names.iter().enumerate() {
        row(name, counts[index], totals[index], maxes[index]);
    }
    row("end-to-end", traces.len() as u64, grand_total, e2e_max);

    if let Some(serde::value::Value::Array(slowest)) = json_field(&root, "slowest") {
        if !slowest.is_empty() {
            println!("\nslowest requests:");
            for (rank, entry) in slowest.iter().enumerate() {
                let id = match json_field(entry, "id") {
                    Some(serde::value::Value::Str(s)) => s.as_str(),
                    _ => "?",
                };
                let total_ns = json_field(entry, "total_ns")
                    .and_then(json_u64)
                    .unwrap_or(0);
                let status = json_field(entry, "status").and_then(json_u64).unwrap_or(0);
                println!(
                    "  {:>2}. {id:<40} {:>9.3} ms  status {status}",
                    rank + 1,
                    total_ns as f64 / 1e6
                );
            }
        }
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> CliResult {
    let ns = load_or_train(args)?;
    let name = args.require("model")?;
    let batch: u64 = args.get_or("batch", 1)?;
    let training = args.has("train");
    let graph = graph_for(name, batch, training)?;
    println!(
        "{name} batch {batch} ({}) across the catalog:\n",
        if training { "training" } else { "inference" }
    );
    println!("{:<12} {:>14} {:>10}", "GPU", "Forecast (ms)", "vs best");
    let mut rows: Vec<(String, f64)> = Vec::new();
    for entry in catalog::all() {
        let forecast = ns.predict_graph(&graph, &entry.spec)?.total_s * 1e3;
        rows.push((entry.spec.name().to_owned(), forecast));
    }
    let best = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    for (gpu, ms) in rows {
        println!("{gpu:<12} {ms:>14.1} {:>9.2}x", ms / best);
    }
    Ok(())
}

fn cmd_serving(args: &Args) -> CliResult {
    let ns = load_or_train(args)?;
    let name = args.require("model")?;
    let model = resolve_model(name)?;
    let batch: u64 = args.get_or("batch", 1)?;
    let tokens: u64 = args.get_or("tokens", 128)?;
    println!(
        "{} batch {batch}: {}-token prompts, {tokens} generated tokens\n",
        model.name, model.seq_len
    );
    let prefill = inference_graph(&model, batch);
    println!(
        "{:<12} {:>11} {:>15} {:>11}",
        "GPU", "TTFT (ms)", "per-token (ms)", "tokens/s"
    );
    for entry in catalog::all() {
        let spec = entry.spec;
        if !neusight_sim::memory::fits(&model, batch, DType::F32, false, &spec) {
            println!("{:<12} {:>11}", spec.name(), "OOM");
            continue;
        }
        let ttft = ns.predict_graph(&prefill, &spec)?.total_s * 1e3;
        let decode = neusight_graph::decode_graph(&model, batch, model.seq_len + tokens / 2);
        let per_token = ns.predict_graph(&decode, &spec)?.total_s * 1e3;
        #[allow(clippy::cast_precision_loss)]
        let tps = batch as f64 * 1e3 / per_token;
        println!(
            "{:<12} {:>11.1} {:>15.2} {:>11.0}",
            spec.name(),
            ttft,
            per_token,
            tps
        );
    }
    Ok(())
}

/// Runs the long-lived HTTP prediction service (`neusight serve`).
///
/// Blocks until SIGTERM/SIGINT, then drains in-flight requests before
/// returning. Metrics are always on so `/metrics` has data; spans record
/// only under `--trace` / `--trace-jsonl`, written out after the drain.
fn cmd_serve(args: &Args) -> CliResult {
    enable_serving_observability(args);
    let mut addr = args.option("addr").unwrap_or("127.0.0.1:8780").to_owned();
    // `--port N` overrides the port of `--addr`; `--port 0` asks the OS
    // for an ephemeral port. Either way the bound address is announced
    // as a machine-parsable `ADDR host:port` first stdout line, so
    // router spawn-mode and tests stop racing on fixed ports.
    let ephemeral = args.option("port").is_some();
    if let Some(port) = args.option("port") {
        let port: u16 = port
            .parse()
            .map_err(|_| ArgError(format!("bad --port `{port}`")))?;
        let host = addr.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
        addr = format!("{host}:{port}");
    }
    let (ns, model_version) = load_serving_model(args)?;
    let config = neusight_serve::ServeConfig {
        addr,
        workers: args.get_or("workers", 32usize)?,
        queue_depth: args.get_or("queue-depth", 256usize)?,
        deadline: std::time::Duration::from_millis(args.get_or("deadline-ms", 1000u64)?),
        max_batch: args.get_or("max-batch", 64usize)?,
        handle_signals: true,
        model_version,
        models_dir: args.option("models-dir").map(std::path::PathBuf::from),
        ..neusight_serve::ServeConfig::default()
    };
    let server = neusight_serve::Server::bind(config, ns)?;
    if ephemeral {
        use std::io::Write as _;
        println!("ADDR {}", server.local_addr());
        let _ = std::io::stdout().flush();
    }
    println!("serving on http://{}", server.local_addr());
    println!("  POST /v1/predict   {{\"model\":\"gpt2\",\"gpu\":\"H100\",\"batch\":4}}");
    println!("  GET  /v1/models    GET /v1/gpus    GET /healthz    GET /metrics");
    println!("  GET  /v1/debug/traces  (flight recorder; also dumped on SIGUSR1/panic)");
    println!(
        "  POST /v1/admin/reload  GET /v1/admin/model  (hot model swap; SIGHUP = reload latest)"
    );
    println!("SIGTERM or Ctrl-C drains in-flight requests and exits");
    server.run()?;
    eprintln!("drained; bye");
    Ok(())
}

/// Runs the L7 cluster front-end (`neusight router`): consistent-hash
/// routing of `/v1/predict` across serve replicas, health probing with
/// drain + re-hash, and optional warm-cache gossip.
///
/// Two fleet shapes:
/// - `--replicas N` spawns N child `neusight serve --port 0` processes
///   (ephemeral ports, parsed from each child's `ADDR` line) and owns
///   their lifecycle — supervised restart on death (`--restart-budget`,
///   default 5 per replica; 0 disables), SIGTERM on shutdown;
/// - `--upstream host:port,host:port,…` attaches to replicas something
///   else manages.
///
/// Resilience flags: `--hedge` duplicates p99-slow predicts to the next
/// ring owner (≤10 % extra load, budget shared with failure retries);
/// `--shed-target-ms N` turns queue sojourn above N into replica
/// brownout and above 2N into router-side 503 shedding.
fn cmd_router(args: &Args) -> CliResult {
    enable_serving_observability(args);
    neusight_serve::signal::install();
    let spec = ReplicaSpec::from_args(args);
    let mut children: Vec<std::process::Child> = Vec::new();
    let upstreams: Vec<(String, std::net::SocketAddr)> = if let Some(list) = args.option("upstream")
    {
        list.split(',')
            .enumerate()
            .map(|(i, addr)| {
                addr.trim()
                    .parse()
                    .map(|addr| (format!("replica-{i}"), addr))
                    .map_err(|_| ArgError(format!("bad --upstream address `{addr}`")))
            })
            .collect::<Result<_, _>>()?
    } else {
        let replicas = args.get_or("replicas", 0usize)?;
        if replicas == 0 {
            return Err(ArgError(
                "router needs --replicas N (spawn) or --upstream host:port,… (attach)".to_owned(),
            )
            .into());
        }
        let mut spawned = Vec::new();
        for i in 0..replicas {
            let (child, addr) = spawn_replica(&spec, i)?;
            println!("replica-{i} on http://{addr} (pid {})", child.id());
            children.push(child);
            spawned.push((format!("replica-{i}"), addr));
        }
        spawned
    };
    let restart_budget = args.get_or("restart-budget", 5u32)?;
    let shed_target_ms = match args.option("shed-target-ms") {
        Some(value) => Some(
            value
                .parse::<u64>()
                .map_err(|_| ArgError(format!("invalid value `{value}` for --shed-target-ms")))?,
        ),
        None => None,
    };
    let config = neusight_router::RouterConfig {
        addr: args.option("addr").unwrap_or("127.0.0.1:8790").to_owned(),
        upstreams,
        warm_gossip: args.has("warm-gossip"),
        hedge: neusight_router::HedgeConfig {
            enabled: args.has("hedge"),
            ..neusight_router::HedgeConfig::default()
        },
        shed_target_ms,
        ..neusight_router::RouterConfig::default()
    };
    let fleet_size = config.upstreams.len();
    let router = neusight_router::Router::bind(config)?;
    println!(
        "routing on http://{} across {fleet_size} replica{}",
        router.local_addr(),
        if fleet_size == 1 { "" } else { "s" }
    );
    println!("  POST /v1/predict   sharded by (GPU, op family) consistent hashing");
    println!("  GET  /healthz      aggregated fleet health    GET /metrics  fleet exposition");
    println!(
        "SIGTERM or Ctrl-C drains the router{}",
        if children.is_empty() {
            ""
        } else {
            " and its replicas"
        }
    );

    // Spawn mode with a restart budget: hand the children to the
    // supervisor, which drains/respawns dead ones until shutdown and
    // then hands the survivors back for graceful termination.
    let stop_flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let supervisor_thread = if !children.is_empty() && restart_budget > 0 {
        println!("supervising replicas (restart budget {restart_budget} each)");
        let named: Vec<(String, std::process::Child)> = children
            .drain(..)
            .enumerate()
            .map(|(i, child)| (format!("replica-{i}"), child))
            .collect();
        let supervisor = neusight_router::Supervisor::new(
            named,
            neusight_router::SupervisorConfig {
                restart_budget,
                ..neusight_router::SupervisorConfig::default()
            },
        );
        let fleet = router.fleet();
        let spec = spec.clone();
        let stop = std::sync::Arc::clone(&stop_flag);
        Some(std::thread::spawn(move || {
            supervisor.run(
                &fleet,
                move |index| {
                    spawn_replica(&spec, index).map_err(|e| std::io::Error::other(e.to_string()))
                },
                move || {
                    stop.load(std::sync::atomic::Ordering::SeqCst)
                        || neusight_serve::signal::signaled()
                },
            )
        }))
    } else {
        None
    };

    let result = router.run();
    stop_flag.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(handle) = supervisor_thread {
        if let Ok(survivors) = handle.join() {
            children.extend(survivors.into_iter().map(|(_, child)| child));
        }
    }
    for child in &mut children {
        terminate_child(child);
    }
    for mut child in children {
        let _ = child.wait();
    }
    eprintln!("router drained; bye");
    result.map_err(Into::into)
}

/// The serve flags a spawned replica is launched with, owned — the
/// supervisor respawns replicas long after the borrowed CLI args are
/// out of reach.
#[derive(Clone)]
struct ReplicaSpec {
    predictor: Option<String>,
    max_batch: Option<String>,
    cache_capacity: Option<String>,
    cache_shards: Option<String>,
    fault_spec: Option<String>,
    fault_seed: Option<String>,
    models_dir: Option<String>,
    trace: Option<String>,
    trace_jsonl: Option<String>,
}

impl ReplicaSpec {
    fn from_args(args: &Args) -> ReplicaSpec {
        let owned = |flag: &str| args.option(flag).map(str::to_owned);
        ReplicaSpec {
            predictor: owned("predictor"),
            max_batch: owned("max-batch"),
            cache_capacity: owned("cache-capacity"),
            cache_shards: owned("cache-shards"),
            fault_spec: owned("fault-spec"),
            fault_seed: owned("fault-seed"),
            models_dir: owned("models-dir"),
            trace: owned("trace"),
            trace_jsonl: owned("trace-jsonl"),
        }
    }
}

/// Spawns one `neusight serve --port 0` child and parses the bound
/// address from its `ADDR host:port` announcement line. Always an
/// ephemeral port — a respawned replica must never try to rebind its
/// predecessor's port, which may linger in `TIME_WAIT`.
fn spawn_replica(
    spec: &ReplicaSpec,
    index: usize,
) -> Result<(std::process::Child, std::net::SocketAddr), Box<dyn std::error::Error>> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe()?;
    let mut command = std::process::Command::new(exe);
    command.args(["serve", "--port", "0"]);
    let forward = |command: &mut std::process::Command, flag: &str, value: &Option<String>| {
        if let Some(value) = value {
            command.args([flag, value]);
        }
    };
    forward(&mut command, "--predictor", &spec.predictor);
    forward(&mut command, "--max-batch", &spec.max_batch);
    forward(&mut command, "--cache-capacity", &spec.cache_capacity);
    forward(&mut command, "--cache-shards", &spec.cache_shards);
    forward(&mut command, "--fault-spec", &spec.fault_spec);
    forward(&mut command, "--fault-seed", &spec.fault_seed);
    forward(&mut command, "--models-dir", &spec.models_dir);
    // Each replica writes its own spans next to the router's file.
    for (flag, path) in [
        ("--trace", &spec.trace),
        ("--trace-jsonl", &spec.trace_jsonl),
    ] {
        let own = path.as_ref().map(|path| format!("{path}.replica-{index}"));
        forward(&mut command, flag, &own);
    }
    command
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    let mut child = command.spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| ArgError(format!("replica-{index} has no stdout")))?;
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            return Err(ArgError(format!(
                "replica-{index} exited before announcing its address"
            ))
            .into());
        }
        if let Some(addr) = line.trim().strip_prefix("ADDR ") {
            break addr.parse::<std::net::SocketAddr>().map_err(|_| {
                ArgError(format!("replica-{index} announced a bad address: {line}"))
            })?;
        }
    };
    // Keep draining the child's stdout so its pipe never fills.
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });
    Ok((child, addr))
}

/// Asks a spawned replica to drain gracefully. `Child::kill` is SIGKILL,
/// which would drop in-flight requests; the serve tier's drain path
/// listens for SIGTERM.
#[cfg(unix)]
fn terminate_child(child: &mut std::process::Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    #[allow(clippy::cast_possible_wrap)]
    let pid = child.id() as i32;
    if unsafe { kill(pid, SIGTERM) } != 0 {
        let _ = child.kill();
    }
}

#[cfg(not(unix))]
fn terminate_child(child: &mut std::process::Child) {
    let _ = child.kill();
}

/// Runs a checkpointed collection sweep under injected faults and prints
/// the failpoint hit/fire report (`neusight chaos`).
///
/// With no `--fault-spec`, arms a default schedule: 15 % transient device
/// failures plus two mid-sweep aborts, exercising retry-with-backoff and
/// checkpoint/resume in one run. The same `--fault-seed` reproduces the
/// identical schedule, retries and all.
fn cmd_chaos(args: &Args) -> CliResult {
    obs::set_enabled(true);
    if !neusight_fault::armed() {
        let spec: neusight_fault::FaultSpec =
            "data.collect.device=0.15;data.collect.abort=1.0:count=2".parse()?;
        neusight_fault::configure(&spec, args.get_or("fault-seed", 0u64)?);
    }
    let scale = match args.option("scale").unwrap_or("tiny") {
        "tiny" => SweepScale::Tiny,
        "standard" => SweepScale::Standard,
        other => return Err(ArgError(format!("unknown scale `{other}`")).into()),
    };
    let gpus = neusight_data::training_gpus();
    let ops = neusight_data::sweeps::full_sweep(scale);
    let refs: Vec<&OpDesc> = ops.iter().collect();
    let mut checkpoint = std::env::temp_dir();
    checkpoint.push(format!("neusight-chaos-{}.json", std::process::id()));
    let _ = fs::remove_file(&checkpoint);
    let mut config = neusight_data::ResumableConfig::new(checkpoint.clone());
    // Deep enough that 15 % transient failures essentially never exhaust
    // an item's budget (0.15^8), so the demo always converges.
    config.retry.max_attempts = 8;

    println!(
        "chaos: collecting {} items ({} GPUs x {} ops) under fault seed {}",
        gpus.len() * refs.len(),
        gpus.len(),
        refs.len(),
        neusight_fault::seed()
    );
    let started = Instant::now();
    let mut interrupts = 0u32;
    let dataset = loop {
        match neusight_data::collect_resumable(&gpus, &refs, DType::F32, &config) {
            Ok(dataset) => break dataset,
            Err(neusight_data::CollectError::Interrupted { completed, total }) => {
                interrupts += 1;
                println!("  interrupted at {completed}/{total}; resuming from checkpoint…");
            }
            Err(e) => {
                let _ = fs::remove_file(&checkpoint);
                return Err(e.into());
            }
        }
    };
    println!(
        "collected {} records in {:.2} s, surviving {interrupts} interrupt(s)\n",
        dataset.len(),
        started.elapsed().as_secs_f64()
    );

    println!(
        "{:<28} {:>8} {:>8}  configured as",
        "failpoint", "hits", "fires"
    );
    for (name, status) in neusight_fault::all_statuses() {
        let rendered = neusight_fault::FaultSpec::empty().with_point(&name, status.config.clone());
        println!(
            "{name:<28} {:>8} {:>8}  {rendered}",
            status.hits, status.fires
        );
    }

    let snap = obs::metrics::snapshot();
    let relevant: Vec<_> = snap
        .counters
        .iter()
        .filter(|(name, value)| {
            **value > 0
                && (name.starts_with("fault.")
                    || name.starts_with("data.collect.")
                    || name.starts_with("guard."))
        })
        .collect();
    if !relevant.is_empty() {
        println!("\ncounters:");
        for (name, value) in relevant {
            println!("  {name:<40} {value}");
        }
    }
    neusight_fault::reset();
    Ok(())
}

/// Rides the vendored `serde_json` parser to check syntactic validity
/// (the facade has no `Deserialize for Value`, so a newtype adapts it).
struct AnyJson;

impl serde::Deserialize for AnyJson {
    fn from_value(_: &serde::value::Value) -> Result<AnyJson, serde::Error> {
        Ok(AnyJson)
    }
}

/// One artifact's verification verdict.
enum Verdict {
    /// Envelope present, checksum good and payload well formed (a binary
    /// predictor that decodes, or JSON that parses). For registry
    /// artifacts, carries the verified manifest summary.
    Sealed(Option<String>),
    /// Pre-envelope bare JSON; readable, but carries no checksum.
    Legacy,
    /// Corrupt, truncated, or unreadable — with the reason.
    Failed(String),
}

fn verify_artifact(path: &Path) -> Verdict {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => return Verdict::Failed(format!("unreadable: {e}")),
    };
    let decoded = match neusight_guard::envelope::decode(&bytes, &path.display().to_string()) {
        Ok(decoded) => decoded,
        Err(e) => return Verdict::Failed(e.to_string()),
    };
    // The checksum proves the payload is what the writer wrote; a full
    // decode on top proves a binary predictor is well formed. A registry
    // artifact gets the stronger check: decode the manifest and
    // recompute the weight fingerprint against it (the envelope checksum
    // alone cannot catch a tamper sealed before wrapping).
    let payload = decoded.payload;
    if codec::is_model(payload) {
        return match codec::decode(payload) {
            Ok(_) => Verdict::Sealed(None),
            Err(e) => Verdict::Failed(format!("predictor invalid: {e}")),
        };
    }
    if payload.starts_with(&codec::REGISTRY_TAG) {
        return verify_registry_artifact(path);
    }
    // Any other payload is JSON, written before the binary layout: a JSON
    // parse catches legacy files (no checksum to rely on) and corruption
    // that happens to mimic the legacy shape, e.g. a flipped magic byte
    // demoting an envelope to "bare JSON".
    let text = match std::str::from_utf8(payload) {
        Ok(text) => text,
        Err(e) => return Verdict::Failed(format!("payload is not UTF-8: {e}")),
    };
    if let Err(e) = serde_json::from_str::<AnyJson>(text) {
        return Verdict::Failed(format!("payload is not valid JSON: {e}"));
    }
    if decoded.legacy {
        return Verdict::Legacy;
    }
    if text.starts_with("{\"manifest\"") {
        return verify_registry_artifact(path);
    }
    Verdict::Sealed(None)
}

/// Loads a registry artifact, which recomputes its weight fingerprint
/// against the manifest, and summarises the manifest.
fn verify_registry_artifact(path: &Path) -> Verdict {
    match neusight_core::registry::load_artifact(path) {
        Ok(artifact) => {
            let m = artifact.manifest;
            let lineage = match m.parent {
                Some(parent) => format!(", parent {parent}"),
                None => String::new(),
            };
            let mape = match m.golden_mape {
                Some(g) => format!(", golden-mape {g:.4}"),
                None => String::new(),
            };
            Verdict::Sealed(Some(format!(
                "version {}, fingerprint {:#018x}{lineage}{mape}",
                m.version, m.fingerprint
            )))
        }
        Err(e) => Verdict::Failed(format!("registry artifact invalid: {e}")),
    }
}

/// Collects every `.json` or `.nsg` (nsbench's fixture) file under
/// `root` (or `root` itself when it is a file), depth-first, in sorted
/// order for stable output.
fn artifact_files(root: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    if root.is_file() {
        return Ok(vec![root.to_path_buf()]);
    }
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("json" | "nsg")
            ) {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Seals a predictor into the versioned model registry
/// (`neusight publish --version TAG`). The manifest records lineage
/// (`--parent`), the weight fingerprint, and — unless `--no-golden` —
/// the golden-set MAPE measured at publish time, which the serve tier's
/// canary gate later compares against. `--perturb F` multiplies every
/// trained weight by `F` first: the supported way to mint a
/// deliberately-regressed candidate for chaos-testing the reload gate.
fn cmd_publish(args: &Args) -> CliResult {
    let version = args.require("version")?;
    let models_dir = args.option("models-dir").unwrap_or("models");
    let mut ns = load_or_train(args)?;
    if let Some(perturb) = args.option("perturb") {
        let factor: f32 = perturb
            .parse()
            .map_err(|_| ArgError(format!("invalid value `{perturb}` for --perturb")))?;
        ns.map_predictor_parameters(|w| w * factor);
        eprintln!("perturbed every weight by x{factor} (chaos candidate)");
    }
    let golden_mape = if args.has("no-golden") {
        None
    } else {
        eprintln!("evaluating the golden op set…");
        let mape = neusight_serve::golden_mape(&ns).map_err(ArgError)?;
        eprintln!("golden-set MAPE: {mape:.4}");
        Some(mape)
    };
    let registry = neusight_core::Registry::open(models_dir);
    let entry = registry.publish(version, args.option("parent"), golden_mape, &ns)?;
    println!(
        "published {} -> {} (fingerprint {:#018x}{})",
        entry.manifest.version,
        entry.path.display(),
        entry.manifest.fingerprint,
        match entry.manifest.parent.as_deref() {
            Some(parent) => format!(", parent {parent}"),
            None => String::new(),
        },
    );
    Ok(())
}

/// Verifies every `.json` or `.nsg` artifact under a directory (default
/// `artifacts/`): envelope checksums must match, and payloads must decode
/// by their leading tag (a binary predictor or registry artifact) or
/// else parse as JSON. Exits non-zero naming each corrupt file
/// (`neusight verify-artifacts`).
fn cmd_verify_artifacts(args: &Args) -> CliResult {
    let root = Path::new(args.positional(1).unwrap_or("artifacts"));
    if !root.exists() {
        return Err(ArgError(format!("no such file or directory `{}`", root.display())).into());
    }
    let files = artifact_files(root)?;
    if files.is_empty() {
        println!("no .json or .nsg artifacts under {}", root.display());
        return Ok(());
    }
    let mut failed: Vec<String> = Vec::new();
    let mut legacy = 0usize;
    for path in &files {
        match verify_artifact(path) {
            Verdict::Sealed(None) => println!("OK    {}", path.display()),
            Verdict::Sealed(Some(manifest)) => {
                println!("OK    {} ({manifest})", path.display());
            }
            Verdict::Legacy => {
                legacy += 1;
                println!("WARN  {} (legacy bare JSON, no checksum)", path.display());
            }
            Verdict::Failed(reason) => {
                println!("FAIL  {} ({reason})", path.display());
                failed.push(path.display().to_string());
            }
        }
    }
    println!(
        "{} artifact(s): {} ok, {legacy} legacy, {} failed",
        files.len(),
        files.len() - legacy - failed.len(),
        failed.len()
    );
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("artifact verification failed: {}", failed.join(", ")).into())
    }
}

fn cmd_export_dot(args: &Args) -> CliResult {
    let name = args.require("model")?;
    let batch: u64 = args.get_or("batch", 1)?;
    let mut graph = graph_for(name, batch, args.has("train"))?;
    if args.has("fused") {
        graph = fuse_graph(&graph);
    }
    print!("{}", neusight_graph::dot::to_dot(&graph));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_spec_parsing() {
        assert_eq!(
            parse_op("bmm:8,512,512,64").unwrap(),
            OpDesc::bmm(8, 512, 512, 64)
        );
        assert_eq!(
            parse_op("fc:128,1024,4096").unwrap(),
            OpDesc::fc(128, 1024, 4096)
        );
        assert_eq!(
            parse_op("softmax:4096,512").unwrap(),
            OpDesc::softmax(4096, 512)
        );
        assert_eq!(
            parse_op("conv2d:8,64,64,56,3,1,1").unwrap(),
            OpDesc::conv2d(8, 64, 64, 56, 3, 1, 1)
        );
        assert!(parse_op("bmm:8,512").is_err());
        assert!(parse_op("nope:1").is_err());
        assert!(parse_op("fc:1,x,3").is_err());
        assert!(parse_op("justtext").is_err());
    }

    #[test]
    fn model_prefix_resolution() {
        assert_eq!(resolve_model("GPT2-Large").unwrap().name, "GPT2-Large");
        assert_eq!(resolve_model("gpt2").unwrap().name, "GPT2-Large");
        assert_eq!(resolve_model("bert").unwrap().name, "BERT-Large");
        assert_eq!(resolve_model("opt").unwrap().name, "OPT-1.3B");
        assert_eq!(resolve_model("switch").unwrap().name, "SwitchTrans");
        // `gpt3` matches GPT3-XL and GPT3-2.7B.
        let err = resolve_model("gpt3").unwrap_err().to_string();
        assert!(err.contains("ambiguous"), "{err}");
        assert!(resolve_model("nonesuch").is_err());
        assert!(resolve_model("").is_err());
    }
}

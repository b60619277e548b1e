//! nsbench — the end-to-end and per-layer benchmark of neusight serving
//! on the standard predictor.
//!
//! ```text
//! bash nsbench/run.sh --workload plan-cold|dash-hot|routed-hot \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.sh` builds the `neusight` CLI and this runner from the checkout
//! and passes `--bin-dir`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced run attributes the cost to the crates. See
//! `nsbench/README.md`.

mod cells;
mod fixture;
mod http;
mod load;
mod procfs;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use neusight_core::NeuSight;
use neusight_serve::PredictService;

use cells::Cell;
use load::{Exchange, Schedule};
use serving::{Serving, Topology};
use stats::{median, quantile, Rng};

/// Offered rate of the open-loop workloads, requests per second. Well
/// under the slowest closed-loop capacity seen during host steal bursts
/// on two vCPUs, so a burst raises latency without building a backlog.
pub const HOT_RATE: f64 = 1000.0;

/// Rounds of the hot workloads; each restarts the serving processes.
const HOT_ROUNDS: usize = 4;

/// Requests in one latency window of the open loop: one second at
/// `HOT_RATE`, which leaves ten samples beyond the p99.
const WINDOW_SAMPLES: usize = HOT_RATE as usize;

/// Cells whose bodies are compared with the in-process reference.
const SAMPLE_CELLS: usize = 48;

/// Set-up cycles per run (spawn, ready, warm pass, stop) that `setup_s`
/// is the median of.
const SETUP_CYCLES: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanCold,
    DashHot,
    RoutedHot,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "plan-cold" => Some(Workload::PlanCold),
            "dash-hot" => Some(Workload::DashHot),
            "routed-hot" => Some(Workload::RoutedHot),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanCold => "plan-cold",
            Workload::DashHot => "dash-hot",
            Workload::RoutedHot => "routed-hot",
        }
    }

    pub fn topology(self) -> Topology {
        match self {
            Workload::RoutedHot => Topology::Routed,
            _ => Topology::Serve,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: get("--trace")? == "1",
        bin_dir: std::fs::canonicalize(get("--bin-dir")?).map_err(|e| format!("--bin-dir: {e}"))?,
    })
}

/// Everything a run needs: binaries, fixture, generated inputs and the
/// references answers are checked against.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub bin: PathBuf,
    pub fixture: PathBuf,
    /// Per-invocation scratch directory (server logs, spans).
    pub work: PathBuf,
    pub epoch: Instant,
    pub universe: Vec<Cell>,
    pub dash: Vec<Cell>,
    /// Seeded order of the plan-cold sweep (indices into `universe`).
    pub plan_order: Vec<usize>,
    /// `Some(body)` for cells whose answer is known in advance.
    pub plan_expected: Vec<Option<Vec<u8>>>,
    pub dash_expected: Vec<Vec<u8>>,
    pub fixture_build: Option<fixture::Build>,
    pub fingerprint: u64,
    pub tiledb_rows: usize,
}

impl Ctx {
    /// The cells a workload asks for: the whole sweep, or the dashboard keys.
    pub fn cells(&self, workload: Workload) -> &[Cell] {
        match workload {
            Workload::PlanCold => &self.universe,
            _ => &self.dash,
        }
    }
}

/// One restart of the serving processes and one measured window.
pub struct Round {
    pub wall_s: f64,
    pub attempted: usize,
    pub failed: usize,
    pub ok: usize,
    pub lat_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// CPU (utime + stime) of every serving process during the window.
    pub cpu_ms: f64,
    /// CPU of the front process alone (the router, when routed).
    pub front_cpu_ms: f64,
    pub rss_mb: f64,
    pub steal_pct: f64,
    pub loadgen_cpu_pct: f64,
    pub exchanges: Vec<Exchange>,
    /// CPU of the front process while idle after the window, % of one core.
    pub idle_cpu_pct: Option<f64>,
    /// `/metrics` of the front process, and of the servers behind it,
    /// before and after the window (traced runs only).
    pub scrapes: Option<Scrapes>,
}

pub struct Scrapes {
    pub front: (http::Scrape, http::Scrape),
    pub servers: (http::Scrape, http::Scrape),
}

impl Round {
    pub fn p50_ms(&self) -> f64 {
        quantile(&self.lat_ms, 0.5)
    }
    pub fn p99_ms(&self) -> f64 {
        quantile(&self.lat_ms, 0.99)
    }
    /// (p50, p99) of each full window of `WINDOW_SAMPLES` consecutive
    /// requests, in due-time order.
    pub fn windows(&self) -> Vec<(f64, f64)> {
        self.lat_ms
            .chunks_exact(WINDOW_SAMPLES)
            .map(|w| (quantile(w, 0.5), quantile(w, 0.99)))
            .collect()
    }

    pub fn forecasts_per_s(&self) -> f64 {
        self.ok as f64 / self.wall_s.max(1e-9)
    }

    pub fn cpu_ms_per_req(&self) -> f64 {
        self.cpu_ms / self.ok.max(1) as f64
    }
}

/// The requests of a workload and what they must be answered with.
pub struct Requests {
    pub rendered: Vec<Vec<u8>>,
    /// Expected body per key (`None`: not known in advance).
    pub expected: Vec<Option<Vec<u8>>>,
    /// Keys sent once, unmeasured, during set-up (the warm pass).
    pub warm: Vec<usize>,
}

impl Requests {
    fn of(ctx: &Ctx, workload: Workload) -> Requests {
        let cells = ctx.cells(workload);
        let rendered = cells
            .iter()
            .map(|c| http::render("POST", "/v1/predict", &c.body()))
            .collect();
        match workload {
            Workload::PlanCold => Requests {
                rendered,
                expected: ctx.plan_expected.clone(),
                warm: Vec::new(),
            },
            Workload::DashHot | Workload::RoutedHot => Requests {
                rendered,
                expected: ctx.dash_expected.iter().cloned().map(Some).collect(),
                warm: (0..cells.len()).collect(),
            },
        }
    }

    fn good(&self, key: usize, status: u16, body: &[u8]) -> bool {
        status == 200
            && self.expected[key]
                .as_deref()
                .is_none_or(|want| want == body)
    }
}

/// What a round sends: the requests, the key sequence, the schedule.
pub struct Plan<'a> {
    pub topology: Topology,
    pub requests: &'a Requests,
    pub keys: &'a [usize],
    pub schedule: Schedule,
    pub scrape: bool,
    /// Seconds to leave the processes idle after the window, measuring
    /// the front process's CPU (0: skip).
    pub idle_s: f64,
}

/// Spawns the serving processes and sends the warm pass. Returns them
/// ready, with the warm pass's (attempted, failed).
fn start_warm(
    ctx: &Ctx,
    topology: Topology,
    requests: &Requests,
    tag: &str,
) -> Result<(Serving, usize, usize), String> {
    let serving = Serving::start(&ctx.bin, &ctx.fixture, &ctx.work.join(tag), topology)
        .map_err(|e| format!("{tag}: {e}"))?;
    let mut failed = 0;
    if !requests.warm.is_empty() {
        let mut conn = http::Conn::connect(serving.addr).map_err(|e| e.to_string())?;
        for &key in &requests.warm {
            let good = match conn.exchange(&requests.rendered[key]) {
                Ok((status, body)) => requests.good(key, status, &body),
                Err(_) => false,
            };
            failed += usize::from(!good);
        }
    }
    Ok((serving, requests.warm.len(), failed))
}

/// One set-up of a workload's serving processes, measured alone.
struct Setup {
    /// utime + stime of every serving process over its whole life: spawn,
    /// start-up, warm pass and drain.
    cpu_s: f64,
    /// Wall time from spawn to ready, warm pass included.
    wall_s: f64,
    attempted: usize,
    failed: usize,
}

/// Spawns the serving processes, warms them, and stops them. Their CPU
/// is read with `getrusage` once they are reaped, so it counts threads
/// that exited early and, through the router, its replicas.
fn setup_cycle(
    ctx: &Ctx,
    workload: Workload,
    requests: &Requests,
    tag: &str,
) -> Result<Setup, String> {
    let cpu0 = procfs::reaped_children_cpu_s();
    let t0 = Instant::now();
    let (serving, attempted, failed) = start_warm(ctx, workload.topology(), requests, tag)?;
    let wall_s = t0.elapsed().as_secs_f64();
    serving
        .stop()
        .map_err(|e| format!("{tag}: stopping: {e}"))?;
    Ok(Setup {
        cpu_s: procfs::reaped_children_cpu_s() - cpu0,
        wall_s,
        attempted,
        failed,
    })
}

pub fn run_round(ctx: &Ctx, plan: &Plan, tag: &str) -> Result<Round, String> {
    let (serving, mut attempted, mut failed) = start_warm(ctx, plan.topology, plan.requests, tag)?;

    let servers = &serving.servers;
    let scrape = |addrs: &[std::net::SocketAddr]| -> Result<http::Scrape, String> {
        let mut merged = http::Scrape::parse("");
        for addr in addrs {
            merged.add(&http::Scrape::fetch(*addr).map_err(|e| e.to_string())?);
        }
        Ok(merged)
    };
    let before = if plan.scrape {
        Some((scrape(&[serving.addr])?, scrape(servers)?))
    } else {
        None
    };
    let ticks0: Vec<u64> = serving
        .pids
        .iter()
        .map(|&p| procfs::stat_ticks(p))
        .collect();
    // The generator's CPU from /proc/<pid>/stat counts its helper
    // caller, which has exited by the time `drive` returns.
    let own0 = procfs::stat_ticks(std::process::id());
    let host0 = procfs::HostTicks::take();
    let exchanges = load::drive(
        serving.addr,
        plan.schedule,
        &plan.requests.rendered,
        plan.keys,
        ctx.epoch,
    )
    .map_err(|e| format!("{tag}: load generator: {e}"))?;
    let host1 = procfs::HostTicks::take();
    let own1 = procfs::stat_ticks(std::process::id());
    let ticks1: Vec<u64> = serving
        .pids
        .iter()
        .map(|&p| procfs::stat_ticks(p))
        .collect();
    let cpu_ms: Vec<f64> = ticks0
        .iter()
        .zip(&ticks1)
        .map(|(a, b)| b.saturating_sub(*a) as f64 * procfs::MS_PER_TICK)
        .collect();
    let scrapes = match before {
        Some((front_before, servers_before)) => Some(Scrapes {
            front: (front_before, scrape(&[serving.addr])?),
            servers: (servers_before, scrape(servers)?),
        }),
        None => None,
    };
    let rss_mb = serving.pids.iter().map(|&p| procfs::peak_rss_mb(p)).sum();
    let idle_cpu_pct = (plan.idle_s > 0.0).then(|| {
        let front = &serving.pids[..1];
        let before = procfs::CpuSnapshot::take(front);
        std::thread::sleep(std::time::Duration::from_secs_f64(plan.idle_s));
        let after = procfs::CpuSnapshot::take(front);
        100.0 * before.ms_until(&after) / (plan.idle_s * 1e3)
    });
    serving
        .stop()
        .map_err(|e| format!("{tag}: stopping: {e}"))?;

    let first = exchanges.iter().map(|e| e.due).min().unwrap_or(0);
    let last = exchanges.iter().map(|e| e.done).max().unwrap_or(0);
    let wall_s = last.saturating_sub(first) as f64 / 1e9;
    let mut ok = 0;
    for e in &exchanges {
        attempted += 1;
        if plan.requests.good(e.key, e.status, &e.body) {
            ok += 1;
        } else {
            failed += 1;
        }
    }
    Ok(Round {
        wall_s,
        attempted,
        failed,
        ok,
        lat_ms: exchanges.iter().map(Exchange::latency_ms).collect(),
        late_ms: exchanges.iter().map(Exchange::late_ms).collect(),
        cpu_ms: cpu_ms.iter().sum(),
        front_cpu_ms: cpu_ms[0],
        rss_mb,
        steal_pct: host0.steal_pct_until(&host1),
        loadgen_cpu_pct: 100.0 * own1.saturating_sub(own0) as f64 * procfs::MS_PER_TICK
            / (wall_s * 1e3).max(1e-9),
        exchanges,
        idle_cpu_pct,
        scrapes,
    })
}

/// Seeded dashboard key sequence for `seconds` at the open-loop rate.
pub fn dash_sequence(seed: u64, seconds: f64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0xda5);
    let n = (HOT_RATE * seconds).round() as usize;
    (0..n).map(|_| rng.below(cells::DASH_KEYS)).collect()
}

fn setup(args: &Args) -> Result<Ctx, String> {
    let bin = args.bin_dir.join("neusight");
    if !bin.exists() {
        return Err(format!("{} is missing; build with run.sh", bin.display()));
    }
    let state = args.bin_dir.join("nsbench-data");
    let (fixture, fixture_build) = fixture::ensure(&state.join("fixtures"))?;
    let work = state.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;

    let ns = NeuSight::load(&fixture).map_err(|e| e.to_string())?;
    let fingerprint = neusight_core::registry::model_fingerprint(&ns).map_err(|e| e.to_string())?;
    let tiledb_rows = ns.tile_database().len();
    let reference = PredictService::new(ns);

    let universe = cells::universe();
    let dash = cells::dash_keys(&universe);
    let mut rng = Rng::new(args.seed);
    let mut plan_order: Vec<usize> = (0..universe.len()).collect();
    rng.shuffle(&mut plan_order);
    let mut plan_expected: Vec<Option<Vec<u8>>> = vec![None; universe.len()];
    if args.workload == Workload::PlanCold {
        let mut sample = plan_order.clone();
        rng.shuffle(&mut sample);
        sample.truncate(SAMPLE_CELLS);
        let chosen: Vec<&Cell> = sample.iter().map(|&i| &universe[i]).collect();
        for (i, body) in sample
            .iter()
            .zip(cells::reference_bodies(&reference, &chosen)?)
        {
            plan_expected[*i] = Some(body.into_bytes());
        }
    }
    let dash_refs: Vec<&Cell> = dash.iter().collect();
    let dash_expected = cells::reference_bodies(&reference, &dash_refs)?
        .into_iter()
        .map(String::into_bytes)
        .collect();
    Ok(Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        bin,
        fixture,
        work,
        epoch: Instant::now(),
        universe,
        dash,
        plan_order,
        plan_expected,
        dash_expected,
        fixture_build,
        fingerprint,
        tiledb_rows,
    })
}

/// The outcome of a whole invocation.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// name → (value, unit)
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

/// Rounds of one workload. plan-cold repeats its fixed sweep until
/// `seconds` have passed (at least three times); the hot workloads run
/// `HOT_ROUNDS` windows of `seconds / HOT_ROUNDS` each.
/// Returns the rounds and the body served for each cell of the workload.
pub fn measure(
    ctx: &Ctx,
    workload: Workload,
    seconds: f64,
    rounds: usize,
    scrape: bool,
    idle_s: f64,
) -> Result<(Vec<Round>, Vec<String>), String> {
    let started = Instant::now();
    let mut out = Vec::new();
    match workload {
        Workload::PlanCold => {
            let mut requests = Requests::of(ctx, workload);
            let mut first_bodies = vec![String::new(); ctx.universe.len()];
            loop {
                let plan = Plan {
                    topology: Topology::Serve,
                    requests: &requests,
                    keys: &ctx.plan_order,
                    schedule: Schedule::Closed,
                    scrape,
                    idle_s,
                };
                let round = run_round(ctx, &plan, &format!("plan-cold-{}", out.len()))?;
                if out.is_empty() {
                    // Later rounds must repeat the first round's answers.
                    for e in &round.exchanges {
                        first_bodies[e.key] = String::from_utf8_lossy(&e.body).into_owned();
                        if e.status == 200 && requests.expected[e.key].is_none() {
                            requests.expected[e.key] = Some(e.body.clone());
                        }
                    }
                }
                out.push(round);
                let elapsed = started.elapsed().as_secs_f64();
                if out.len() >= rounds && (elapsed >= seconds || elapsed > 120.0) {
                    break;
                }
            }
            Ok((out, first_bodies))
        }
        Workload::DashHot | Workload::RoutedHot => {
            let requests = Requests::of(ctx, workload);
            let window = (seconds / rounds as f64).max(1.0);
            for r in 0..rounds {
                let keys = dash_sequence(ctx.seed.wrapping_add(r as u64), window);
                let plan = Plan {
                    topology: workload.topology(),
                    requests: &requests,
                    keys: &keys,
                    schedule: Schedule::Open { rate: HOT_RATE },
                    scrape,
                    idle_s,
                };
                out.push(run_round(ctx, &plan, &format!("{}-{r}", workload.name()))?);
            }
            let bodies = ctx
                .dash_expected
                .iter()
                .map(|b| String::from_utf8_lossy(b).into_owned())
                .collect();
            Ok((out, bodies))
        }
    }
}

/// Client latency (p50, p99) in ms over a workload's rounds, and how it
/// was taken. Open loop: each one-second window (1000 requests by due
/// time) gets its own p50 and p99, and the median over all windows is
/// reported, so a stall shorter than ten requests' spacing moves no
/// window's p99. Closed loop (plan-cold's 254-request sweep): all rounds'
/// samples pooled.
pub fn latency(workload: Workload, rounds: &[Round]) -> (f64, f64, String) {
    if workload == Workload::PlanCold {
        let pooled: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.lat_ms.iter().copied())
            .collect();
        let basis = format!(
            "{} samples pooled over {} rounds",
            pooled.len(),
            rounds.len()
        );
        (quantile(&pooled, 0.5), quantile(&pooled, 0.99), basis)
    } else {
        let windows: Vec<(f64, f64)> = rounds.iter().flat_map(Round::windows).collect();
        let p50s: Vec<f64> = windows.iter().map(|w| w.0).collect();
        let p99s: Vec<f64> = windows.iter().map(|w| w.1).collect();
        let basis = format!(
            "median over {} one-second windows of {WINDOW_SAMPLES} samples",
            windows.len()
        );
        (median(&p50s), median(&p99s), basis)
    }
}

fn end_to_end(ctx: &Ctx) -> Result<Outcome, String> {
    let min_rounds = match ctx.workload {
        Workload::PlanCold => 3,
        _ => HOT_ROUNDS,
    };
    let requests = Requests::of(ctx, ctx.workload);
    let setups = (0..SETUP_CYCLES)
        .map(|i| setup_cycle(ctx, ctx.workload, &requests, &format!("setup-{i}")))
        .collect::<Result<Vec<Setup>, String>>()?;
    let (rounds, bodies) = measure(ctx, ctx.workload, ctx.seconds, min_rounds, false, 0.0)?;
    let ((mape, _, _), unparsable) = cells::forecast_mape(ctx.cells(ctx.workload), &bodies)?;

    let list = |f: &dyn Fn(&Setup) -> f64| setups.iter().map(f).collect::<Vec<_>>();
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let (setup_cpu, setup_wall) = (list(&|s| s.cpu_s), list(&|s| s.wall_s));
    println!(
        "setup: cpu_s [{}] median {:.4} (gated as setup_s); wall_s [{}] median {:.4} (not gated)",
        show(&setup_cpu),
        median(&setup_cpu),
        show(&setup_wall),
        median(&setup_wall)
    );
    println!(
        "{:>5} {:>7} {:>6} {:>4} {:>8} {:>8} {:>8} {:>10} {:>8} {:>7} {:>8} {:>11} {:>9}",
        "round",
        "wall_s",
        "ok",
        "fail",
        "p50_ms",
        "p99_ms",
        "svc_p99",
        "cpu_ms/req",
        "rss_mb",
        "steal%",
        "late_p50",
        "late_p99_ms",
        "gen_cpu%"
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "{:>5} {:>7.3} {:>6} {:>4} {:>8.4} {:>8.4} {:>8.4} {:>10.4} {:>8.1} {:>7.2} {:>8.4} {:>11.4} {:>9.1}",
            i,
            r.wall_s,
            r.ok,
            r.failed,
            r.p50_ms(),
            r.p99_ms(),
            quantile(&r.exchanges.iter().map(|e| e.done.saturating_sub(e.sent) as f64 / 1e6).collect::<Vec<_>>(), 0.99),
            r.cpu_ms_per_req(),
            r.rss_mb,
            r.steal_pct,
            quantile(&r.late_ms, 0.5),
            quantile(&r.late_ms, 0.99),
            r.loadgen_cpu_pct,
        );
    }
    let per = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    println!(
        "noise: host.steal_pct median {:.2} max {:.2}; loadgen.late_ms.p99 median {:.4}",
        per(&|r| r.steal_pct),
        rounds.iter().map(|r| r.steal_pct).fold(0.0, f64::max),
        per(&|r| quantile(&r.late_ms, 0.99)),
    );
    // Wall-clock client figures move with host steal far beyond any
    // usable bound (see README), so they are printed, not gated.
    let (p50, p99, basis) = latency(ctx.workload, &rounds);
    println!(
        "client (not gated): forecasts_per_s {:.3} 1/s, p50_ms {p50:.4} ms, p99_ms {p99:.4} ms; latency {basis}",
        per(&Round::forecasts_per_s)
    );
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", (median(&setup_cpu), "s"));
    metrics.insert("cpu_ms_per_req", (per(&Round::cpu_ms_per_req), "ms"));
    metrics.insert("peak_rss_mb", (per(&|r| r.rss_mb), "MB"));
    metrics.insert("forecast_mape_pct", (mape, "%"));
    let attempted = rounds.iter().map(|r| r.attempted).sum::<usize>()
        + setups.iter().map(|s| s.attempted).sum::<usize>();
    let failed = rounds.iter().map(|r| r.failed).sum::<usize>()
        + setups.iter().map(|s| s.failed).sum::<usize>();
    Ok(Outcome {
        correct: failed == 0 && unparsable == 0,
        attempted,
        failed,
        metrics,
    })
}

fn print_outcome(ctx: &Ctx, outcome: &Outcome) {
    println!("workload {} seed {}:", ctx.workload.name(), ctx.seed);
    for (name, (value, unit)) in &outcome.metrics {
        println!("  {name:<34} {value:>14.6} {unit}");
    }
    let mut correct = outcome.correct;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() {
                *value
            } else {
                eprintln!("nsbench: metric {name} is not a number");
                correct = false;
                -1.0
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() {
    let code = match real_main() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("nsbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let ctx = setup(&args)?;
    eprintln!(
        "nsbench: fixture {} fingerprint {:016x}, tile database {} rows; universe {} cells, {} dashboard keys",
        ctx.fixture.display(),
        ctx.fingerprint,
        ctx.tiledb_rows,
        ctx.universe.len(),
        ctx.dash.len()
    );
    let outcome = if args.trace {
        trace::run(&ctx)?
    } else {
        end_to_end(&ctx)?
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    print_outcome(&ctx, &outcome);
    Ok(())
}

//! Wall-clock job benchmark for the SympleGraph engine.
//!
//! ```text
//! perfbench --workload <bfs|kcore-udf|pagerank> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread submits one job at a time (a closed loop) and
//! times each from the kernel call to the output it returns. Before the
//! timed loop every distinct job is validated against its
//! `symple_algos` oracle and run once through the traced body, whose
//! output and deterministic counters must equal the public kernel's.
//! With `--trace 0` the timed loop is untraced and the end-to-end
//! metrics are printed; with `--trace 1` untraced and traced jobs
//! alternate and the per-layer metrics are printed. The last line of
//! standard output is one JSON object with the run's verdict and
//! metrics. See `README.md` beside this crate for the workloads and the
//! metric-to-layer mapping.

mod layers;
mod workload;

use layers::LayerClock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use symple_core::{EngineConfig, RunStats, SpanCategory};
use symple_net::{CommKind, COMM_KINDS};
use workload::{Job, Output, Setup, Workload, MACHINES};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `job_tail_ms` is this percentile of the untraced job walls. It is
/// fixed rather than the highest one the run's job count allows, so that
/// a change in speed does not change which percentile is compared.
const TAIL_PERCENTILE: f64 = 90.0;
/// The untraced loop runs until at least this many jobs lie beyond the
/// tail percentile.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <bfs|kcore-udf|pagerank> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A metric as printed: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The counters that must be identical between any two runs of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Deterministic {
    virtual_secs: f64,
    wire_bytes: u64,
    edges: u64,
}

impl Deterministic {
    fn of(stats: &RunStats) -> Self {
        Deterministic {
            virtual_secs: stats.virtual_time(),
            wire_bytes: stats.comm.total_bytes(),
            edges: stats.work.edges_traversed(),
        }
    }
}

/// Per-category bytes and messages from the trace must equal `CommStats`.
fn reconcile_bytes(stats: &RunStats) -> Result<(), String> {
    for kind in COMM_KINDS {
        let cat = kind.byte_category();
        let (trace, comm) = (stats.trace.bytes(cat), stats.comm.bytes(kind));
        let (trace_msgs, comm_msgs) = (stats.trace.messages(cat), stats.comm.messages(kind));
        if trace != comm || trace_msgs != comm_msgs {
            return Err(format!(
                "{kind} traffic: trace has {trace} B in {trace_msgs} messages, \
                 CommStats {comm} B in {comm_msgs}"
            ));
        }
    }
    Ok(())
}

/// A distinct job with the output its oracle accepted and the counters
/// every later run of it must reproduce.
struct Validated {
    job: Job,
    expected: Output,
    stats: RunStats,
}

/// Outcome counters over every job the run attempted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs `f`, counting it as attempted and as failed if it panics.
    fn attempt<R>(&mut self, f: impl FnOnce() -> R) -> Option<R> {
        self.attempted += 1;
        let r = catch_unwind(AssertUnwindSafe(f)).ok();
        if r.is_none() {
            self.failed += 1;
        }
        r
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `TAIL_PERCENTILE` nearest-rank percentile of `values` and the
/// number of samples above it.
fn tail(values: &[f64]) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((TAIL_PERCENTILE / 100.0 * v.len() as f64).ceil() as usize).max(1);
    (
        v.get(rank - 1).copied().unwrap_or(0.0),
        v.len().saturating_sub(rank),
    )
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` (peak resident set) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's last-level cache size as the kernel reports it.
fn llc_size() -> String {
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, format!("L{level} {}", size.trim())));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, s)| s)
}

/// Everything a run measured, before it is turned into metrics.
struct Run {
    setups: Vec<workload::SetupTimes>,
    setup: Setup,
    pool: Vec<Validated>,
    reference: Duration,
    tally: Tally,
    /// Untraced job walls of the timed loop (seconds).
    walls: Vec<f64>,
    /// Wall of the timed loop.
    loop_wall: Duration,
    /// Traced job walls of the timed loop (`--trace 1` only).
    traced_walls: Vec<f64>,
    /// Every machine's layer clock of every traced timed job.
    clocks: Vec<LayerClock>,
    /// Statistics of every traced timed job.
    traced_stats: Vec<RunStats>,
}

fn run(args: &Args) -> Result<Run, String> {
    let cfg = workload::engine();

    // Setup, several times: `setup_s` is the median.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take()); // free the previous graph before generating the next
        let s = workload::setup(args.workload, args.seed);
        setups.push(s.times);
        setup = Some(s);
    }
    let setup = setup.expect("at least one setup");

    // Oracles, outside every timed interval: validate each distinct job
    // once, then run it traced and reconcile.
    let mut tally = Tally::default();
    let reference = workload::time_reference(&setup, setup.jobs[0]);
    let mut pool = Vec::with_capacity(setup.jobs.len());
    for &job in &setup.jobs {
        let Some((out, stats)) = tally.attempt(|| workload::run_job(&setup, &cfg, job)) else {
            continue;
        };
        if tally
            .attempt(|| workload::validate(&setup, job, &out))
            .is_none()
        {
            continue;
        }
        reconcile_bytes(&stats)?;
        let public = workload::public_fingerprint(&setup, &cfg, job, &out);
        let Some((traced, traced_stats, _)) =
            tally.attempt(|| workload::run_traced(&setup, &cfg, job))
        else {
            continue;
        };
        if traced.fingerprint() != public {
            return Err(format!(
                "traced body output {:#018x} differs from the public kernel's {public:#018x} on {job:?}",
                traced.fingerprint()
            ));
        }
        reconcile(&traced_stats, Deterministic::of(&stats), job)?;
        pool.push(Validated {
            job,
            expected: out,
            stats,
        });
    }
    if pool.is_empty() {
        return Err("no job passed its oracle".to_string());
    }

    // The timed closed loop.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut clocks = Vec::new();
    let mut traced_stats = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let loop_start = Instant::now();
    // The loop keeps going past its budget, unless a job has failed, until
    // the tail has enough samples beyond it, or the traced run has timed
    // at least one traced job.
    let short = |walls: &[f64], traced: &[f64]| {
        if args.trace {
            traced.is_empty()
        } else {
            tail(walls).1 < TAIL_BEYOND
        }
    };
    let mut i = 0usize;
    while loop_start.elapsed() < budget || (short(&walls, &traced_walls) && tally.failed == 0) {
        let traced = args.trace && i % 2 == 1;
        let v = &pool[(if args.trace { i / 2 } else { i }) % pool.len()];
        i += 1;
        if traced {
            let start = Instant::now();
            let Some((out, stats, cl)) =
                tally.attempt(|| workload::run_traced(&setup, &cfg, v.job))
            else {
                continue;
            };
            traced_walls.push(secs(start.elapsed()));
            if out != v.expected {
                tally.failed += 1;
                continue;
            }
            reconcile(&stats, Deterministic::of(&v.stats), v.job)?;
            clocks.extend(cl);
            traced_stats.push(stats);
        } else {
            let start = Instant::now();
            let Some((out, stats)) = tally.attempt(|| workload::run_job(&setup, &cfg, v.job))
            else {
                continue;
            };
            walls.push(secs(start.elapsed()));
            if out != v.expected {
                tally.failed += 1;
                continue;
            }
            if Deterministic::of(&stats) != Deterministic::of(&v.stats) {
                return Err(format!("{:?}: counters changed between runs", v.job));
            }
        }
    }
    let loop_wall = loop_start.elapsed();

    Ok(Run {
        setups,
        setup,
        pool,
        reference,
        tally,
        walls,
        loop_wall,
        traced_walls,
        clocks,
        traced_stats,
    })
}

/// A traced job must match the untraced one's counters exactly, and its
/// trace must match its `CommStats`.
fn reconcile(traced: &RunStats, untraced: Deterministic, job: Job) -> Result<(), String> {
    reconcile_bytes(traced)?;
    let det = Deterministic::of(traced);
    if det != untraced {
        return Err(format!(
            "{job:?}: traced run counted {det:?}, untraced {untraced:?}"
        ));
    }
    Ok(())
}

fn mean<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    ratio(items.iter().map(f).sum(), items.len() as f64)
}

fn end_to_end(r: &Run) -> Vec<Metric> {
    let pool_mean =
        |f: &dyn Fn(&Deterministic) -> f64| mean(&r.pool, |v| f(&Deterministic::of(&v.stats)));
    let setup_s = median(&r.setups.iter().map(|t| secs(t.total())).collect::<Vec<_>>());
    let (tail_s, _) = tail(&r.walls);
    vec![
        metric("job_p50_ms", median(&r.walls) * 1e3, "ms"),
        metric("job_tail_ms", tail_s * 1e3, "ms"),
        metric(
            "jobs_per_s",
            r.walls.len() as f64 / secs(r.loop_wall),
            "1/s",
        ),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric("virtual_job_ms", pool_mean(&|d| d.virtual_secs * 1e3), "ms"),
        metric(
            "wire_bytes_per_job",
            pool_mean(&|d| d.wire_bytes as f64),
            "bytes",
        ),
        metric("edges_per_job", pool_mean(&|d| d.edges as f64), "edges"),
    ]
}

fn per_layer(r: &Run) -> Vec<Metric> {
    let setup_median = |f: fn(&workload::SetupTimes) -> Duration| {
        median(&r.setups.iter().map(|t| secs(f(t))).collect::<Vec<_>>())
    };
    let g = &r.setup.graph;

    // Layer wall times: per traced job, mean over machines.
    let machine_jobs = r.clocks.len() as f64;
    let clock_mean = |f: fn(&LayerClock) -> Duration| {
        ratio(r.clocks.iter().map(|c| secs(f(c))).sum(), machine_jobs)
    };
    let pull = clock_mean(|c| c.pull);
    let push = clock_mean(|c| c.push);
    let signal = clock_mean(|c| c.signal);
    let signal_ns: f64 = r.clocks.iter().map(|c| c.signal.as_nanos() as f64).sum();
    let signal_edges: u64 = r.clocks.iter().map(|c| c.signal_edges).sum();
    let signal_calls: u64 = r.clocks.iter().map(|c| c.signal_calls).sum();
    let covered: f64 = r.clocks.iter().map(|c| secs(c.covered())).sum();
    let traced_wall: f64 = r.traced_walls.iter().sum();

    // Measured network wall, per traced job.
    let node_wall: f64 = r
        .traced_stats
        .iter()
        .flat_map(|s| &s.trace.nodes)
        .map(|n| n.wall_secs)
        .sum();
    let comm_wall: f64 = r
        .traced_stats
        .iter()
        .flat_map(|s| &s.trace.nodes)
        .map(|n| n.comm_wall_secs)
        .sum();
    let traced_jobs = r.traced_stats.len() as f64;

    // Deterministic counters: mean over the distinct jobs.
    let work = |f: fn(&RunStats) -> u64| mean(&r.pool, |v| f(&v.stats) as f64);
    let traversed = work(|s| s.work.edges_traversed());
    let skipped = work(|s| s.work.skipped_by_dep());
    let emitted = work(|s| s.work.updates_emitted());
    let applied = work(|s| s.work.updates_applied());
    let virt = |cat: SpanCategory| mean(&r.pool, |v| v.stats.time.category(cat));

    let p50 = median(&r.walls);
    let reference = secs(r.reference);
    vec![
        metric("graph.generate_s", setup_median(|t| t.generate), "s"),
        metric("graph.relabel_s", setup_median(|t| t.relabel), "s"),
        metric("graph.vertices", g.num_vertices() as f64, "count"),
        metric("graph.edges", g.num_edges() as f64, "count"),
        metric("graph.csr_bytes", workload::csr_bytes(g) as f64, "bytes"),
        metric("core.partition_s", setup_median(|t| t.partition), "s"),
        metric("core.local_graph_s", setup_median(|t| t.local_graph), "s"),
        metric("core.mirrors", r.setup.mirrors as f64, "count"),
        metric("core.job_init_s", clock_mean(|c| c.init), "s"),
        metric("core.pull_s", pull, "s"),
        metric("core.push_s", push, "s"),
        metric("core.collective_s", clock_mean(|c| c.collective), "s"),
        metric("core.engine_self_s", pull + push - signal, "s"),
        metric("core.edges_traversed", traversed, "count"),
        metric("core.skipped_by_dep", skipped, "count"),
        metric(
            "core.skip_ratio",
            ratio(skipped, traversed + skipped),
            "ratio",
        ),
        metric("core.updates_emitted", emitted, "count"),
        metric("core.updates_applied", applied, "count"),
        metric("core.apply_ratio", ratio(applied, emitted), "ratio"),
        metric(
            "core.pull_iterations",
            work(|s| s.work.pull_iterations()),
            "count",
        ),
        metric(
            "core.push_iterations",
            work(|s| s.work.push_iterations()),
            "count",
        ),
        metric("udf.instrument_s", setup_median(|t| t.instrument), "s"),
        metric("udf.bind_s", clock_mean(|c| c.bind), "s"),
        metric("udf.signal_s", signal, "s"),
        metric(
            "udf.signal_calls",
            ratio(signal_calls as f64, traced_jobs),
            "count",
        ),
        metric(
            "udf.signal_ns_per_edge",
            ratio(signal_ns, signal_edges as f64),
            "ns/edge",
        ),
        metric(
            "net.node_wall_max_s",
            mean(&r.traced_stats, |s| secs(s.max_node_wall())),
            "s",
        ),
        metric("net.comm_wall_s", ratio(comm_wall, traced_jobs), "s"),
        metric("net.comm_wall_ratio", ratio(comm_wall, node_wall), "ratio"),
        metric(
            "net.update_bytes",
            work(|s| s.comm.bytes(CommKind::Update)),
            "bytes",
        ),
        metric(
            "net.dep_bytes",
            work(|s| s.comm.bytes(CommKind::Dependency)),
            "bytes",
        ),
        metric(
            "net.collective_bytes",
            work(|s| s.comm.bytes(CommKind::Sync)),
            "bytes",
        ),
        metric("net.messages", work(|s| s.comm.total_messages()), "count"),
        metric("net.virt.compute_s", virt(SpanCategory::Compute), "s"),
        metric("net.virt.serialize_s", virt(SpanCategory::Serialize), "s"),
        metric("net.virt.send_s", virt(SpanCategory::Send), "s"),
        metric("net.virt.exchange_s", virt(SpanCategory::Exchange), "s"),
        metric("net.virt.dep_wait_s", virt(SpanCategory::DepWait), "s"),
        metric("net.virt.barrier_s", virt(SpanCategory::Barrier), "s"),
        metric("net.virt.collective_s", virt(SpanCategory::Collective), "s"),
        metric("net.virt.apply_s", virt(SpanCategory::Apply), "s"),
        metric("algos.reference_s", reference, "s"),
        metric("algos.speedup_vs_reference", ratio(reference, p50), "ratio"),
        metric(
            "trace.overhead_ratio",
            ratio(median(&r.traced_walls), p50) - 1.0,
            "ratio",
        ),
        metric(
            "trace.unaccounted_ratio",
            1.0 - ratio(covered, MACHINES as f64 * traced_wall),
            "ratio",
        ),
    ]
}

fn json_result(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    layers::timer_floor_ns();
    let r = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: reconciliation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cfg: EngineConfig = workload::engine();
    let g = &r.setup.graph;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: nproc {nproc}, LLC {}, machines x threads {} x {}, backend {}",
        llc_size(),
        cfg.machines,
        cfg.threads,
        cfg.backend
    );
    println!(
        "input: R-MAT scale {} edge factor {} (draw {}) relabelled by seed {}: {} vertices, {} edges, CSR {} bytes (computed)",
        workload::SCALE,
        workload::EDGE_FACTOR,
        workload::RMAT_SEED,
        args.seed,
        g.num_vertices(),
        g.num_edges(),
        workload::csr_bytes(g)
    );
    println!(
        "loop: closed, 1 client, {} distinct jobs, {} untraced + {} traced timed jobs in {:.3} s",
        r.pool.len(),
        r.walls.len(),
        r.traced_walls.len(),
        secs(r.loop_wall)
    );
    let metrics = if args.trace {
        per_layer(&r)
    } else {
        end_to_end(&r)
    };
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        let (_, beyond) = tail(&r.walls);
        println!(
            "job_tail_ms is p{TAIL_PERCENTILE} of {} jobs ({beyond} beyond it)",
            r.walls.len()
        );
    }
    let fail_ratio = ratio(r.tally.failed as f64, r.tally.attempted as f64);
    println!("fail_ratio = {fail_ratio} ratio");
    let correct = r.tally.failed == 0;
    println!("{}", json_result(correct, &r.tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The three workloads: their shared input and engine, one job through
//! the public kernel (untraced) or the traced body, the reference
//! oracles, and output fingerprints.

use crate::layers::{self, LayerClock, Untraced};
use std::collections::VecDeque;
use std::str::FromStr;
use std::time::{Duration, Instant};
use symple_algos::{
    bfs, bfs_reference, kcore, kcore_reference, pagerank, pagerank_reference, validate_bfs,
    validate_kcore, validate_pagerank, BfsOutput, KcoreOutput, PagerankOutput,
};
use symple_core::{run_spmd, DepLayout, EngineConfig, LocalGraph, Partition, Policy, RunStats};
use symple_graph::{fnv1a64, Bitmap, Graph, RmatConfig, Rng64, Vid};
use symple_udf::{instrument, paper_udfs, InstrumentedUdf};

/// R-MAT scale: 2^18 = 262,144 vertices.
pub const SCALE: u32 = 18;
/// R-MAT edge factor: 16 × 2^18 = 4,194,304 directed edges.
pub const EDGE_FACTOR: u32 = 16;
/// Machines (one OS thread each).
pub const MACHINES: usize = 2;
/// K-core's k.
pub const KCORE_K: u32 = 4;
/// PageRank tolerance in fixed-point units.
pub const PAGERANK_TOL: u64 = 1000;
/// PageRank iteration cap.
pub const PAGERANK_ITERS: u32 = 20;
/// BFS roots per run; jobs cycle through them.
pub const BFS_ROOTS: usize = 16;
/// The R-MAT draw that every run's seed relabels.
pub const RMAT_SEED: u64 = 1;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Direction-optimising BFS queries through `symple_algos::bfs`.
    Bfs,
    /// K-core (k = 4) with the instrumented paper UDF as the signal.
    KcoreUdf,
    /// Fixed-point PageRank through `symple_algos::pagerank`.
    Pagerank,
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "bfs" => Ok(Workload::Bfs),
            "kcore-udf" => Ok(Workload::KcoreUdf),
            "pagerank" => Ok(Workload::Pagerank),
            other => Err(format!(
                "unknown workload `{other}` (expected bfs, kcore-udf or pagerank)"
            )),
        }
    }
}

/// The engine every workload runs on: two machines under SympleGraph's
/// policy, every other knob at its default (simulated transport, one
/// apply thread per machine).
pub fn engine() -> EngineConfig {
    EngineConfig::new(MACHINES, Policy::symple())
}

/// Wall time of each setup step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// R-MAT generation, CSR included.
    pub generate: Duration,
    /// Relabelling the vertices by the seed's permutation, CSR included.
    pub relabel: Duration,
    /// `Partition::chunked` and `DepLayout::high_degree`.
    pub partition: Duration,
    /// `LocalGraph::build` for every rank.
    pub local_graph: Duration,
    /// `instrument` of the K-core UDF (zero on other workloads).
    pub instrument: Duration,
}

impl SetupTimes {
    /// The whole setup.
    pub fn total(&self) -> Duration {
        self.generate + self.relabel + self.partition + self.local_graph + self.instrument
    }
}

/// A workload's inputs, built once per setup.
pub struct Setup {
    /// The input graph.
    pub graph: Graph,
    /// The distinct jobs a run cycles through: one BFS query per root,
    /// or the single whole-graph job.
    pub jobs: Vec<Job>,
    /// The instrumented K-core UDF (`kcore-udf` only).
    pub udf: Option<InstrumentedUdf>,
    /// Mirror vertices over all machines' local graphs.
    pub mirrors: usize,
    /// How long each step took.
    pub times: SetupTimes,
}

/// Generates the input, partitions it and builds every machine's local
/// graph as the engine does, timing each step.
///
/// The input is one fixed R-MAT draw with its vertices relabelled by a
/// permutation drawn from `seed`, as Graph500 permutes vertex numbers,
/// and the BFS roots are fixed vertices of the draw under their new
/// names. Every seed thus gives a different input of the same shape:
/// separate R-MAT draws at this size differ in how many rounds K-core
/// peeling takes (4 or 5), and BFS queries from different roots differ
/// in edges traversed by up to 4x, which would make the workloads'
/// costs vary more across seeds than any change worth detecting.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let cfg = engine();
    let t = Instant::now();
    let drawn = RmatConfig::graph500(SCALE, EDGE_FACTOR)
        .seed(RMAT_SEED)
        .generate();
    let generate = t.elapsed();

    let roots = match workload {
        Workload::Bfs => bfs_roots(&drawn),
        Workload::KcoreUdf | Workload::Pagerank => Vec::new(),
    };
    let t = Instant::now();
    let (graph, perm) = relabel(drawn, seed);
    let relabel = t.elapsed();
    let jobs = match workload {
        Workload::Bfs => roots
            .iter()
            .map(|r| Job::Bfs(Vid::new(perm[r.index()])))
            .collect(),
        Workload::KcoreUdf => vec![Job::KcoreUdf],
        Workload::Pagerank => vec![Job::Pagerank],
    };

    let t = Instant::now();
    let part = Partition::chunked(&graph, cfg.machines, cfg.partition_alpha);
    let layout = DepLayout::high_degree(&graph, &part, cfg.degree_threshold);
    let partition = t.elapsed();

    let t = Instant::now();
    let locals: Vec<LocalGraph> = (0..cfg.machines)
        .map(|rank| LocalGraph::build(&graph, &part, &layout, rank))
        .collect();
    let local_graph = t.elapsed();
    let mirrors = locals.iter().map(LocalGraph::num_mirrors).sum();
    drop(locals);

    let t = Instant::now();
    let udf = (workload == Workload::KcoreUdf).then(|| {
        instrument(&paper_udfs::kcore_udf(KCORE_K.into())).expect("the K-core UDF instruments")
    });
    let instrument = t.elapsed();

    Setup {
        graph,
        jobs,
        udf,
        mirrors,
        times: SetupTimes {
            generate,
            relabel,
            partition,
            local_graph,
            instrument,
        },
    }
}

/// `graph` with vertex `v` renamed to `perm[v]` for a uniformly random
/// permutation drawn from `seed` (duplicate edges and self-loops kept),
/// and the permutation.
fn relabel(graph: Graph, seed: u64) -> (Graph, Vec<u32>) {
    let n = graph.num_vertices();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng64::seed_from_u64(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_index(i + 1));
    }
    let rename = |v: Vid| Vid::new(perm[v.index()]);
    let edges: Vec<(Vid, Vid)> = graph.edges().map(|(u, v)| (rename(u), rename(v))).collect();
    drop(graph);
    (Graph::from_edges(n, &edges), perm)
}

/// Bytes of the graph's two CSRs (`usize` offsets, `u32` targets), as
/// computed from its shape.
pub fn csr_bytes(graph: &Graph) -> u64 {
    let offsets = (graph.num_vertices() as u64 + 1) * std::mem::size_of::<usize>() as u64;
    let targets = graph.num_edges() as u64 * std::mem::size_of::<Vid>() as u64;
    2 * (offsets + targets)
}

/// One job.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// A BFS query from this root.
    Bfs(Vid),
    /// K-core of the whole graph through the UDF body.
    KcoreUdf,
    /// PageRank of the whole graph.
    Pagerank,
}

/// `BFS_ROOTS` distinct roots drawn with a fixed stream among the
/// vertices that can reach the vertex of highest out-degree, so that
/// every query explores the giant component rather than a handful of
/// vertices.
fn bfs_roots(graph: &Graph) -> Vec<Vid> {
    let hub = graph
        .vertices()
        .max_by_key(|&v| (graph.out_degree(v), std::cmp::Reverse(v)))
        .expect("the graph has vertices");
    let mut reaches_hub = Bitmap::new(graph.num_vertices());
    reaches_hub.set_vid(hub);
    let mut queue = VecDeque::from([hub]);
    while let Some(v) = queue.pop_front() {
        for &u in graph.in_neighbors(v) {
            if !reaches_hub.get_vid(u) {
                reaches_hub.set_vid(u);
                queue.push_back(u);
            }
        }
    }
    let candidates: Vec<Vid> = graph
        .vertices()
        .filter(|&v| reaches_hub.get_vid(v))
        .collect();
    let want = BFS_ROOTS.min(candidates.len());
    let mut roots: Vec<Vid> = Vec::with_capacity(want);
    let mut probe = 0u64;
    while roots.len() < want {
        let pick = symple_algos::common::hash3(RMAT_SEED, 0xb0f5, probe) % candidates.len() as u64;
        probe += 1;
        let v = candidates[pick as usize];
        if !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}

/// A job's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// BFS depths and parents.
    Bfs(BfsOutput),
    /// The K-core membership bitmap and peeling rounds.
    Kcore(KcoreOutput),
    /// PageRank ranks, iterations and convergence flag.
    Pagerank(PagerankOutput),
}

impl Output {
    /// FNV-1a-64 over the output's little-endian bytes.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::new();
        match self {
            Output::Bfs(out) => {
                for x in out.depth.iter().chain(&out.parent) {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            Output::Kcore(out) => {
                for w in out.in_core.words() {
                    buf.extend_from_slice(&w.to_le_bytes());
                }
                buf.extend_from_slice(&out.rounds.to_le_bytes());
            }
            Output::Pagerank(out) => {
                for r in &out.rank {
                    buf.extend_from_slice(&r.to_le_bytes());
                }
                buf.extend_from_slice(&out.iterations.to_le_bytes());
                buf.push(u8::from(out.converged));
            }
        }
        fnv1a64(&buf)
    }
}

/// Runs one job untraced: through the public kernel for `bfs` and
/// `pagerank`, through the K-core UDF body for `kcore-udf`.
pub fn run_job(s: &Setup, cfg: &EngineConfig, job: Job) -> (Output, RunStats) {
    let g = &s.graph;
    match job {
        Job::Bfs(root) => {
            let (out, stats) = bfs(g, cfg, root);
            (Output::Bfs(out), stats)
        }
        Job::Pagerank => {
            let (out, stats) = pagerank(g, cfg, PAGERANK_TOL, PAGERANK_ITERS);
            (Output::Pagerank(out), stats)
        }
        Job::KcoreUdf => {
            let inst = s.udf.as_ref().expect("kcore-udf setup instruments the UDF");
            let mut res = run_spmd(g, cfg, |w| {
                layers::kcore_udf_body(w, inst, cfg, KCORE_K, &mut Untraced)
            });
            let (in_core, rounds) = res.outputs.swap_remove(0);
            (Output::Kcore(KcoreOutput { in_core, rounds }), res.stats)
        }
    }
}

/// Runs one job through the traced body. Returns the output, the run's
/// statistics and each machine's layer clock.
pub fn run_traced(s: &Setup, cfg: &EngineConfig, job: Job) -> (Output, RunStats, Vec<LayerClock>) {
    let g = &s.graph;
    let start = Instant::now();
    match job {
        Job::Bfs(root) => {
            let mut res = run_spmd(g, cfg, |w| {
                let mut clock = LayerClock::start(start);
                let out = layers::bfs_body(w, root, &mut clock);
                (out, clock)
            });
            let clocks = res.outputs.iter().map(|(_, c)| *c).collect();
            let ((depth, parent), _) = res.outputs.swap_remove(0);
            (Output::Bfs(BfsOutput { depth, parent }), res.stats, clocks)
        }
        Job::Pagerank => {
            let mut res = run_spmd(g, cfg, |w| {
                let mut clock = LayerClock::start(start);
                let out = layers::pagerank_body(w, PAGERANK_TOL, PAGERANK_ITERS, &mut clock);
                (out, clock)
            });
            let clocks = res.outputs.iter().map(|(_, c)| *c).collect();
            let ((rank, iterations, converged), _) = res.outputs.swap_remove(0);
            let out = PagerankOutput {
                rank,
                iterations,
                converged,
            };
            (Output::Pagerank(out), res.stats, clocks)
        }
        Job::KcoreUdf => {
            let inst = s.udf.as_ref().expect("kcore-udf setup instruments the UDF");
            let mut res = run_spmd(g, cfg, |w| {
                let mut clock = LayerClock::start(start);
                let out = layers::kcore_udf_body(w, inst, cfg, KCORE_K, &mut clock);
                (out, clock)
            });
            let clocks = res.outputs.iter().map(|(_, c)| *c).collect();
            let ((in_core, rounds), _) = res.outputs.swap_remove(0);
            (
                Output::Kcore(KcoreOutput { in_core, rounds }),
                res.stats,
                clocks,
            )
        }
    }
}

/// The fingerprint of the public kernel's output on `job`, whose
/// untraced output is `untraced`: the output the traced body must
/// reproduce. For `kcore-udf` that is the native `symple_algos::kcore`,
/// whose core set and rounds the UDF body must match.
pub fn public_fingerprint(s: &Setup, cfg: &EngineConfig, job: Job, untraced: &Output) -> u64 {
    match job {
        Job::Bfs(_) | Job::Pagerank => untraced.fingerprint(),
        Job::KcoreUdf => {
            let (native, _) = kcore(&s.graph, cfg, KCORE_K);
            Output::Kcore(native).fingerprint()
        }
    }
}

/// Checks `out` against the workload's `symple_algos` oracle. Panics on
/// the first violated invariant.
pub fn validate(s: &Setup, job: Job, out: &Output) {
    let g = &s.graph;
    match (job, out) {
        (Job::Bfs(root), Output::Bfs(out)) => validate_bfs(g, root, out),
        (Job::KcoreUdf, Output::Kcore(out)) => validate_kcore(g, KCORE_K, out),
        (Job::Pagerank, Output::Pagerank(out)) => {
            validate_pagerank(g, PAGERANK_TOL, PAGERANK_ITERS, out)
        }
        _ => panic!("output kind does not match the job"),
    }
}

/// Runs the single-threaded reference once on `job` and returns its
/// wall time.
pub fn time_reference(s: &Setup, job: Job) -> Duration {
    let g = &s.graph;
    let t = Instant::now();
    match job {
        Job::Bfs(root) => {
            std::hint::black_box(bfs_reference(g, root));
        }
        Job::KcoreUdf => {
            std::hint::black_box(kcore_reference(g, KCORE_K));
        }
        Job::Pagerank => {
            std::hint::black_box(pagerank_reference(g, PAGERANK_TOL, PAGERANK_ITERS));
        }
    }
    t.elapsed()
}

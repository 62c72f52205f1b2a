//! The traced run's instrumentation: a [`Probe`] that each SPMD body
//! calls the engine through, and the benchmark-owned SPMD bodies
//! themselves.
//!
//! The bodies repeat `symple_algos`' private BFS and PageRank bodies
//! call for call, built from the public `BfsPull`, `BfsPush` and
//! `PagerankPull` programs, so that `Worker::pull`, `Worker::push`, the
//! collectives and each `signal` can be timed from outside the engine.
//! The benchmark asserts that every traced output equals the public
//! kernel's, so a copy that drifts from `symple_algos` fails the run.
//!
//! Every accumulator belongs to one machine thread: the [`LayerClock`] is
//! owned by the body running on that thread, and `signal` counts go into
//! a thread-local drained after each pull. No counter is shared between
//! machines, so tracing adds no cross-thread traffic.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use symple_algos::bfs::{BfsPull, BfsPush, NONE};
use symple_algos::pagerank::{PagerankPull, ALPHA, BASE, SCALE};
use symple_core::{BitDep, EngineConfig, PullProgram, PushProgram, SignalOutcome, Worker};
use symple_graph::{Bitmap, Vid};
use symple_udf::{InstrumentedUdf, PropArray, PropertyStore, UdfDep, UdfProgram};

/// How an SPMD body reaches the engine's layers. [`Untraced`] calls
/// straight through; [`LayerClock`] times each call.
pub trait Probe {
    /// One `Worker::pull`.
    fn pull<P: PullProgram>(
        &mut self,
        w: &mut Worker,
        prog: &P,
        dep: &mut P::Dep,
        apply: &mut dyn FnMut(Vid, P::Update) -> bool,
    ) -> u64;

    /// One `Worker::push`.
    fn push<P: PushProgram>(
        &mut self,
        w: &mut Worker,
        prog: &P,
        frontier: &[Vid],
        apply: &mut dyn FnMut(Vid, P::Update) -> bool,
    ) -> u64;

    /// One collective (`sync_bitmap`, `sync_values` or `allreduce`).
    fn collective<R>(&mut self, f: impl FnOnce() -> R) -> R;

    /// Binding a UDF program (`UdfProgram::new` and `.exec`).
    fn bind<R>(&mut self, f: impl FnOnce() -> R) -> R;
}

/// The untimed probe.
pub struct Untraced;

impl Probe for Untraced {
    fn pull<P: PullProgram>(
        &mut self,
        w: &mut Worker,
        prog: &P,
        dep: &mut P::Dep,
        apply: &mut dyn FnMut(Vid, P::Update) -> bool,
    ) -> u64 {
        w.pull(prog, dep, apply)
    }

    fn push<P: PushProgram>(
        &mut self,
        w: &mut Worker,
        prog: &P,
        frontier: &[Vid],
        apply: &mut dyn FnMut(Vid, P::Update) -> bool,
    ) -> u64 {
        w.push(prog, frontier, apply)
    }

    fn collective<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn bind<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Wall time one machine spent in each layer during one job.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerClock {
    /// From the kernel call to the first line of the body: cluster
    /// spawn plus `Worker::new` (partition, layout, local graph).
    pub init: Duration,
    /// Inside `Worker::pull`, `signal` included.
    pub pull: Duration,
    /// Inside `Worker::push`.
    pub push: Duration,
    /// Inside `sync_bitmap`, `sync_values` and `allreduce`.
    pub collective: Duration,
    /// Inside `UdfProgram::new` and `.exec`.
    pub bind: Duration,
    /// Inside the pull program's `signal` (part of `pull`), estimated
    /// from the timed sample of calls.
    pub signal: Duration,
    /// `signal` calls.
    pub signal_calls: u64,
    /// Edges the `signal` calls reported scanning.
    pub signal_edges: u64,
}

impl LayerClock {
    /// Starts a machine's clock at the body's first line; `job_start` is
    /// when the client called the kernel.
    pub fn start(job_start: Instant) -> Self {
        LayerClock {
            init: job_start.elapsed(),
            ..LayerClock::default()
        }
    }

    /// Time covered by some layer span (`signal` lies inside `pull`).
    pub fn covered(&self) -> Duration {
        self.init + self.pull + self.push + self.collective + self.bind
    }
}

/// One in this many `signal` calls is timed; `signal` time is the timed
/// calls' total scaled by calls / timed calls. Reading the clock around
/// every call would cost more than many calls themselves.
const SIGNAL_SAMPLE: u64 = 64;

/// `signal` counters of one machine thread since the last drain.
#[derive(Debug, Clone, Copy)]
struct SignalTally {
    calls: u64,
    edges: u64,
    timed_calls: u64,
    timed_ns: u64,
}

const NO_SIGNALS: SignalTally = SignalTally {
    calls: 0,
    edges: 0,
    timed_calls: 0,
    timed_ns: 0,
};

thread_local! {
    static SIGNAL: Cell<SignalTally> = const { Cell::new(NO_SIGNALS) };
}

/// The median wall time of an empty `Instant::now()` / `elapsed()` pair
/// on this host, subtracted from every timed `signal` call. Measured on
/// first use; call it once before timing anything.
pub fn timer_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut samples: Vec<u64> = (0..1001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// A pull program that counts its `signal` calls in the calling thread's
/// [`SIGNAL`] tally and times one in [`SIGNAL_SAMPLE`] of them. With one
/// apply thread per machine (the default) every call runs on the machine
/// thread that drains the tally.
struct Timed<'p, P>(&'p P);

impl<P: PullProgram> PullProgram for Timed<'_, P> {
    type Update = P::Update;
    type Dep = P::Dep;

    fn dense_active(&self, v: Vid) -> bool {
        self.0.dense_active(v)
    }

    fn guards_skip(&self) -> bool {
        self.0.guards_skip()
    }

    fn certified_latch(&self) -> bool {
        self.0.certified_latch()
    }

    fn signal(
        &self,
        v: Vid,
        srcs: &[Vid],
        dep: &mut P::Dep,
        slot: usize,
        carried: bool,
        emit: &mut dyn FnMut(P::Update),
    ) -> SignalOutcome {
        let mut tally = SIGNAL.with(Cell::get);
        tally.calls += 1;
        let out = if tally.calls.is_multiple_of(SIGNAL_SAMPLE) {
            let t = Instant::now();
            let out = self.0.signal(v, srcs, dep, slot, carried, emit);
            let ns = t.elapsed().as_nanos() as u64;
            tally.timed_ns += ns.saturating_sub(timer_floor_ns());
            tally.timed_calls += 1;
            out
        } else {
            self.0.signal(v, srcs, dep, slot, carried, emit)
        };
        tally.edges += out.edges;
        SIGNAL.with(|c| c.set(tally));
        out
    }
}

impl Probe for LayerClock {
    fn pull<P: PullProgram>(
        &mut self,
        w: &mut Worker,
        prog: &P,
        dep: &mut P::Dep,
        apply: &mut dyn FnMut(Vid, P::Update) -> bool,
    ) -> u64 {
        SIGNAL.with(|c| c.set(NO_SIGNALS));
        let t = Instant::now();
        let activated = w.pull(&Timed(prog), dep, apply);
        self.pull += t.elapsed();
        let tally = SIGNAL.with(|c| c.replace(NO_SIGNALS));
        if tally.timed_calls > 0 {
            let ns = tally.timed_ns as f64 * tally.calls as f64 / tally.timed_calls as f64;
            self.signal += Duration::from_nanos(ns as u64);
        }
        self.signal_calls += tally.calls;
        self.signal_edges += tally.edges;
        activated
    }

    fn push<P: PushProgram>(
        &mut self,
        w: &mut Worker,
        prog: &P,
        frontier: &[Vid],
        apply: &mut dyn FnMut(Vid, P::Update) -> bool,
    ) -> u64 {
        let t = Instant::now();
        let activated = w.push(prog, frontier, apply);
        self.push += t.elapsed();
        activated
    }

    fn collective<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.collective += t.elapsed();
        r
    }

    fn bind<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.bind += t.elapsed();
        r
    }
}

/// Switch push → pull when `frontier_edges > unexplored_edges / ALPHA`
/// (Beamer's α, as in `symple_algos::bfs`).
const BFS_ALPHA: u64 = 14;
/// Switch pull → push when the frontier shrinks below `|V| / BETA`.
const BFS_BETA: u64 = 24;

/// Direction-optimising BFS from `root`: `symple_algos::bfs`'s body
/// (adaptive direction) with every engine call made through `probe`.
/// Returns the synchronised `(depth, parent)` arrays.
pub fn bfs_body(w: &mut Worker, root: Vid, probe: &mut impl Probe) -> (Vec<u32>, Vec<u32>) {
    let graph = w.graph();
    let n = graph.num_vertices();
    let mut visited = Bitmap::new(n);
    let mut frontier = Bitmap::new(n);
    let mut depth = vec![NONE; n];
    let mut parent = vec![NONE; n];
    let mut local_frontier: Vec<Vid> = Vec::new();

    if w.is_master(root) {
        depth[root.index()] = 0;
        parent[root.index()] = root.raw();
        visited.set_vid(root);
        frontier.set_vid(root);
        local_frontier.push(root);
    }
    probe.collective(|| w.sync_bitmap(&mut visited));
    probe.collective(|| w.sync_bitmap(&mut frontier));

    let root_out = graph.out_degree(root) as u64 * u64::from(w.is_master(root));
    let mut unexplored_edges =
        graph.num_edges() as u64 - probe.collective(|| w.allreduce(root_out, |a, b| a + b));
    let local_len = local_frontier.len() as u64;
    let mut frontier_total = probe.collective(|| w.allreduce(local_len, |a, b| a + b));
    let local_out: u64 = local_frontier
        .iter()
        .map(|&v| graph.out_degree(v) as u64)
        .sum();
    let mut frontier_edges = probe.collective(|| w.allreduce(local_out, |a, b| a + b));
    let mut pulling = false;

    let mut dep = BitDep::new(w.dep_slots_needed());
    let mut level = 0u32;
    while frontier_total > 0 {
        level += 1;
        if pulling {
            if frontier_total < n as u64 / BFS_BETA {
                pulling = false;
            }
        } else if frontier_edges * BFS_ALPHA > unexplored_edges {
            pulling = true;
        }

        let mut new_frontier: Vec<Vid> = Vec::new();
        {
            let mut apply = |v: Vid, par: Vid| -> bool {
                if depth[v.index()] == NONE {
                    depth[v.index()] = level;
                    parent[v.index()] = par.raw();
                    new_frontier.push(v);
                    true
                } else {
                    false
                }
            };
            if pulling {
                let prog = BfsPull {
                    frontier: &frontier,
                    visited: &visited,
                };
                probe.pull(w, &prog, &mut dep, &mut apply);
            } else {
                let prog = BfsPush { visited: &visited };
                probe.push(w, &prog, &local_frontier, &mut apply);
            }
        }

        for &v in &new_frontier {
            visited.set_vid(v);
        }
        frontier.clear_all();
        for &v in &new_frontier {
            frontier.set_vid(v);
        }
        probe.collective(|| w.sync_bitmap(&mut visited));
        probe.collective(|| w.sync_bitmap(&mut frontier));

        let local_out: u64 = new_frontier
            .iter()
            .map(|&v| graph.out_degree(v) as u64)
            .sum();
        frontier_edges = probe.collective(|| w.allreduce(local_out, |a, b| a + b));
        let local_len = new_frontier.len() as u64;
        frontier_total = probe.collective(|| w.allreduce(local_len, |a, b| a + b));
        unexplored_edges = unexplored_edges.saturating_sub(frontier_edges);
        local_frontier = new_frontier;
    }

    probe.collective(|| w.sync_values(&mut depth));
    probe.collective(|| w.sync_values(&mut parent));
    (depth, parent)
}

/// Fixed-point PageRank: `symple_algos::pagerank`'s body with every
/// engine call made through `probe`. Returns `(rank, iterations,
/// converged)`.
pub fn pagerank_body(
    w: &mut Worker,
    tol: u64,
    max_iters: u32,
    probe: &mut impl Probe,
) -> (Vec<u64>, u32, bool) {
    let graph = w.graph();
    let n = graph.num_vertices();
    let mut rank = vec![SCALE; n];
    let mut contrib = vec![0u64; n];
    let mut sums = vec![0u64; n];
    let mut dep = BitDep::new(w.dep_slots_needed());
    let mut iterations = 0u32;
    let mut converged = false;
    while iterations < max_iters && !converged {
        iterations += 1;
        let mut local_dangling = 0u64;
        for v in graph.vertices() {
            let deg = graph.out_degree(v) as u64;
            contrib[v.index()] = rank[v.index()].checked_div(deg).unwrap_or(0);
        }
        for v in w.masters() {
            if graph.out_degree(v) == 0 {
                local_dangling += rank[v.index()];
            }
        }
        let dangling_share =
            probe.collective(|| w.allreduce(local_dangling, |a, b| a + b)) / n as u64;
        sums.fill(0);
        {
            let prog = PagerankPull { contrib: &contrib };
            let mut apply = |v: Vid, partial: u64| -> bool {
                sums[v.index()] += partial;
                false
            };
            probe.pull(w, &prog, &mut dep, &mut apply);
        }
        let mut local_residual = 0u64;
        for v in w.masters() {
            let new = BASE + ALPHA * (sums[v.index()] + dangling_share) / SCALE;
            local_residual = local_residual.max(new.abs_diff(rank[v.index()]));
            rank[v.index()] = new;
        }
        probe.collective(|| w.sync_values(&mut rank));
        let residual = probe.collective(|| w.allreduce(local_residual, |a, b| a.max(b)));
        converged = residual <= tol;
    }
    (rank, iterations, converged)
}

/// K-core peeling with the instrumented paper UDF as the signal: each
/// round binds `inst` over the `active` property, pulls per-vertex
/// active-neighbour counts, drops masters below `k`, then syncs the
/// active set and agrees on whether anything was removed. Returns the
/// core bitmap and the number of rounds.
pub fn kcore_udf_body(
    w: &mut Worker,
    inst: &InstrumentedUdf,
    cfg: &EngineConfig,
    k: u32,
    probe: &mut impl Probe,
) -> (Bitmap, u32) {
    let n = w.graph().num_vertices();
    let mut active = Bitmap::new(n);
    active.set_all();
    let mut counts = vec![0u32; n];
    let mut props = PropertyStore::new();
    let mut dep: Option<UdfDep> = None;
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        counts.fill(0);
        props.insert("active", PropArray::Bools(active.clone()));
        {
            let prog = probe.bind(|| {
                UdfProgram::new(inst, &props)
                    .exec(cfg.udf_exec)
                    .dep_width(cfg.dep_width)
                    .active_when("active", true)
            });
            let slots = w.dep_slots_needed();
            let dep = dep.get_or_insert_with(|| prog.make_dep(slots));
            let mut apply = |v: Vid, delta: u64| -> bool {
                counts[v.index()] += u32::try_from(delta).expect("count delta fits u32");
                false
            };
            probe.pull(w, &prog, dep, &mut apply);
        }
        let mut removed = 0u64;
        for v in w.masters() {
            if active.get_vid(v) && counts[v.index()] < k {
                active.clear(v.index());
                removed += 1;
            }
        }
        probe.collective(|| w.sync_bitmap(&mut active));
        if probe.collective(|| w.allreduce(removed, |a, b| a + b)) == 0 {
            break;
        }
    }
    (active, rounds)
}

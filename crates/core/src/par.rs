//! Deterministic chunked intra-machine executor (Gemini's multicore edge
//! loop, §5.1 of the paper's baseline).
//!
//! Each hot loop of [`crate::Worker`] — the Gemini/Galois bucket walk,
//! SympleGraph's low-degree (dependency-free) pass, its high-degree
//! dependency pass, and the update decode loops — is split into
//! fixed-size chunks of destination entries. A scoped pool of
//! `EngineConfig::threads` workers claims chunks from a shared atomic
//! cursor (work stealing by racing for the next index), and every chunk
//! serializes its updates into a private outbox segment.
//!
//! **Determinism.** All observable artifacts depend only on chunk
//! *identity*, never on which worker ran a chunk or in what order:
//!
//! * outbox segments concatenate in chunk order, so the update byte
//!   stream is byte-identical to sequential execution;
//! * per-chunk counters are integers and sum in chunk order;
//! * the virtual clock is charged via a *simulated* schedule
//!   (`CostModel::schedule_lanes`), not measured wall time.
//!
//! Hence `threads = 1, 2, 8, …` all produce bit-identical results,
//! stats, and traces — only host wall time and the modelled
//! critical-path compute charge change.
//!
//! **Loop-carried dependency.** The high-degree pass shares mutable
//! dependency state between destinations. Bucket entries are sorted by
//! slot (each slot appears on exactly one entry), so an entry-range chunk
//! touches a contiguous slot range that is *disjoint* from every other
//! chunk's. Each chunk gets a [`DepState::extract_shard`] view of its
//! range, mutates it privately, and the shards merge back in chunk
//! order — reproducing sequential loop-carried semantics exactly.

use crate::{BucketPart, DepState, Partition, PullProgram, PushProgram};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use symple_graph::{Graph, Vid};
use symple_net::Wire;

/// Executor parameters, copied from `EngineConfig`: worker threads per
/// simulated machine and destination entries per work-stealing chunk.
#[derive(Debug, Clone, Copy)]
pub struct ParCfg {
    /// Worker threads (1 = sequential, the default).
    pub threads: usize,
    /// Entries per chunk (the stealing granule and cost-model unit).
    pub chunk: usize,
    /// Audit skipped segments (`EngineConfig::early_exit = Evaluate`):
    /// re-run each skipped segment's guarded UDF and assert it is inert.
    /// Programs whose certificate does not prove the latch are audited
    /// even when this is `false`.
    pub evaluate_skipped: bool,
}

/// Splits `range` into contiguous chunks of at most `chunk` items, in
/// order. The chunk boundaries depend only on `range` and `chunk`, never
/// on the thread count — they are the unit of deterministic accounting.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn chunk_ranges(range: Range<usize>, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(range.len().div_ceil(chunk.max(1)));
    let mut start = range.start;
    while start < range.end {
        let end = (start + chunk).min(range.end);
        out.push(start..end);
        start = end;
    }
    out
}

/// Applies `f` to every task on a pool of `threads` scoped workers that
/// claim tasks by racing on a shared atomic cursor — idle workers steal
/// whatever is next, so imbalanced chunks self-balance. Results come back
/// **in task order** regardless of which worker processed what: the
/// scheduling is free to race, the output is not.
///
/// With `threads <= 1` (or fewer than two tasks) no threads are spawned
/// and the closure runs inline, in order.
pub fn par_map<T, R, F>(threads: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    if threads <= 1 || n <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = slots[i]
                    .lock()
                    .expect("executor task slot poisoned")
                    .take()
                    .expect("cursor hands each task out once");
                let out = f(i, task);
                let prev = results[i]
                    .lock()
                    .expect("executor result slot poisoned")
                    .replace(out);
                debug_assert!(prev.is_none(), "cursor hands each result slot out once");
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("executor result slot poisoned")
                .expect("scope joins every worker, so every task completed")
        })
        .collect()
}

/// What one chunk produced: a private outbox segment plus integer
/// counters. Everything a pass needs to reassemble deterministic output.
#[derive(Default)]
struct ChunkOut {
    bytes: Vec<u8>,
    edges: u64,
    verts: u64,
    skipped: u64,
    emitted: u64,
}

/// Accumulated result of one (or several concatenated) chunked passes:
/// the in-order outbox bytes, summed counters, and the per-chunk
/// `(edges, vertices)` costs the critical-path charge is computed from.
#[derive(Default)]
pub(crate) struct PassOutput {
    pub bytes: Vec<u8>,
    pub edges: u64,
    pub verts: u64,
    pub skipped: u64,
    pub emitted: u64,
    pub chunk_costs: Vec<(u64, u64)>,
}

impl PassOutput {
    fn push_chunk(&mut self, c: ChunkOut) {
        self.chunk_costs.push((c.edges, c.verts));
        self.bytes.extend_from_slice(&c.bytes);
        self.edges += c.edges;
        self.verts += c.verts;
        self.skipped += c.skipped;
        self.emitted += c.emitted;
    }

    fn from_chunks(chunks: Vec<ChunkOut>) -> Self {
        let mut pass = PassOutput::default();
        for c in chunks {
            pass.push_chunk(c);
        }
        pass
    }

    /// Appends `other` after this pass (bytes and chunk costs keep their
    /// relative order).
    pub fn absorb(&mut self, other: PassOutput) {
        self.bytes.extend_from_slice(&other.bytes);
        self.edges += other.edges;
        self.verts += other.verts;
        self.skipped += other.skipped;
        self.emitted += other.emitted;
        self.chunk_costs.extend_from_slice(&other.chunk_costs);
    }
}

/// Chunked walk of a bucket part whose destinations carry no propagated
/// dependency (the Gemini/Galois walk and SympleGraph's low-degree
/// fallback): every chunk gets its own single-slot scratch state detached
/// from `dep`, so breaks act locally exactly as in sequential execution.
pub(crate) fn scratch_pass<P: PullProgram>(
    prog: &P,
    part: &BucketPart,
    dep: &P::Dep,
    pc: ParCfg,
) -> PassOutput {
    let tasks: Vec<(Range<usize>, P::Dep)> = chunk_ranges(0..part.len(), pc.chunk)
        .into_iter()
        .map(|r| (r, dep.detach(1)))
        .collect();
    let chunks = par_map(pc.threads, tasks, |_, (range, mut scratch)| {
        let mut out = ChunkOut::default();
        for idx in range {
            let (v, _slot, srcs) = part.entry(idx);
            out.verts += 1;
            if !prog.dense_active(v) {
                continue;
            }
            scratch.reset_range(0..1);
            let res = prog.signal(v, srcs, &mut scratch, 0, false, &mut |upd| {
                v.write(&mut out.bytes);
                upd.write(&mut out.bytes);
                out.emitted += 1;
            });
            out.edges += res.edges;
        }
        out
    });
    PassOutput::from_chunks(chunks)
}

/// Chunked walk of the high-degree (dependency-propagated) entries in
/// `entries`. Entries are slot-ascending, so each chunk's slot range is
/// contiguous and disjoint from every other chunk's; the chunk mutates a
/// detached shard of `dep` over exactly that range and the shards merge
/// back afterwards — sequential loop-carried semantics, preserved.
pub(crate) fn hi_pass<P: PullProgram>(
    prog: &P,
    part: &BucketPart,
    entries: Range<usize>,
    dep: &mut P::Dep,
    pc: ParCfg,
) -> PassOutput {
    let tasks: Vec<(Range<usize>, Range<usize>, P::Dep)> = chunk_ranges(entries, pc.chunk)
        .into_iter()
        .map(|r| {
            let s0 = part.entry(r.start).1;
            let s1 = part.entry(r.end - 1).1 + 1;
            (r, s0..s1)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|(r, s)| {
            let shard = dep.extract_shard(s.clone());
            (r, s, shard)
        })
        .collect();
    debug_assert!(
        tasks.windows(2).all(|w| w[0].1.end <= w[1].1.start),
        "bucket entries must be slot-ascending for disjoint shards"
    );
    let chunks = par_map(pc.threads, tasks, |_, (range, slots, mut shard)| {
        let mut out = ChunkOut::default();
        for idx in range {
            let (v, slot, srcs) = part.entry(idx);
            out.verts += 1;
            if !prog.dense_active(v) {
                continue;
            }
            let local = slot - slots.start;
            if shard.should_skip(local) {
                out.skipped += 1;
                // Certified early-exit (the skip itself) is the seed
                // behaviour; what the knob adds is the *audit*: re-run
                // the segment when asked to (Evaluate mode) or when the
                // program's certificate cannot prove the latch, and
                // assert the guarded UDF is inert. Only programs whose
                // signal opens with a skip guard can be re-run safely.
                if (pc.evaluate_skipped || !prog.certified_latch()) && prog.guards_skip() {
                    let res = prog.signal(v, srcs, &mut shard, local, true, &mut |_| {
                        panic!("skipped segment emitted an update: latch violated")
                    });
                    assert_eq!(
                        res.edges, 0,
                        "skipped segment scanned edges: latch violated"
                    );
                }
                continue;
            }
            let res = prog.signal(v, srcs, &mut shard, local, true, &mut |upd| {
                v.write(&mut out.bytes);
                upd.write(&mut out.bytes);
                out.emitted += 1;
            });
            out.edges += res.edges;
        }
        (out, slots, shard)
    });
    let mut pass = PassOutput::default();
    for (out, slots, shard) in chunks {
        dep.merge_shard(slots, &shard);
        pass.push_chunk(out);
    }
    pass
}

/// Result of a chunked push (sparse) walk: one outbox per destination
/// machine, assembled from per-chunk segments in chunk order.
pub(crate) struct PushOutput {
    pub outboxes: Vec<Vec<u8>>,
    pub edges: u64,
    pub emitted: u64,
    pub chunk_costs: Vec<(u64, u64)>,
}

/// Chunked walk of the frontier's out-edges. Push mode has no
/// loop-carried dependency, so chunks only need private per-destination
/// outboxes, concatenated in chunk order per destination.
pub(crate) fn push_pass<P: PushProgram>(
    prog: &P,
    graph: &Graph,
    part: &Partition,
    frontier: &[Vid],
    pc: ParCfg,
) -> PushOutput {
    let world = part.num_parts();
    let chunks = par_map(
        pc.threads,
        chunk_ranges(0..frontier.len(), pc.chunk),
        |_, range| {
            let mut boxes: Vec<Vec<u8>> = vec![Vec::new(); world];
            let mut edges = 0u64;
            let mut emitted = 0u64;
            let examined = range.len() as u64;
            for &u in &frontier[range] {
                edges += prog.signal(u, graph.out_neighbors(u), &mut |dst, upd| {
                    let owner = part.owner(dst);
                    dst.write(&mut boxes[owner]);
                    upd.write(&mut boxes[owner]);
                    emitted += 1;
                });
            }
            (boxes, edges, emitted, examined)
        },
    );
    let mut out = PushOutput {
        outboxes: vec![Vec::new(); world],
        edges: 0,
        emitted: 0,
        chunk_costs: Vec::with_capacity(chunks.len()),
    };
    for (boxes, edges, emitted, examined) in chunks {
        for (dst, segment) in boxes.into_iter().enumerate() {
            out.outboxes[dst].extend_from_slice(&segment);
        }
        out.edges += edges;
        out.emitted += emitted;
        out.chunk_costs.push((edges, examined));
    }
    out
}

/// Decoded `(vid, update)` pairs in stream order, plus the per-chunk
/// `(edges, vertices)` apply costs.
pub(crate) type DecodedUpdates<U> = (Vec<(Vid, U)>, Vec<(u64, u64)>);

/// Chunked decode of a `(vid, update)` byte stream. Returns the pairs in
/// stream order plus per-chunk `(0, pairs)` costs (applying an update is
/// charged as one vertex header, as in sequential execution).
pub(crate) fn decode_pass<U: Wire + Copy + Send>(buf: &[u8], pc: ParCfg) -> DecodedUpdates<U> {
    let pair = 4 + U::SIZE;
    let n = buf.len() / pair;
    let chunks = par_map(pc.threads, chunk_ranges(0..n, pc.chunk), |_, range| {
        let mut out = Vec::with_capacity(range.len());
        for i in range {
            let c = &buf[i * pair..(i + 1) * pair];
            out.push((Vid::read(c), U::read(&c[4..])));
        }
        out
    });
    let mut pairs = Vec::with_capacity(n);
    let mut costs = Vec::with_capacity(chunks.len());
    for c in chunks {
        costs.push((0, c.len() as u64));
        pairs.extend_from_slice(&c);
    }
    (pairs, costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_in_order() {
        assert_eq!(chunk_ranges(0..10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(3..7, 100), vec![3..7]);
        assert!(chunk_ranges(5..5, 2).is_empty());
        assert_eq!(chunk_ranges(0..4, 1).len(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_rejected() {
        let _ = chunk_ranges(0..3, 0);
    }

    #[test]
    fn par_map_returns_results_in_task_order() {
        let tasks: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = tasks.iter().map(|t| t * t).collect();
        for threads in [1, 2, 8, 300] {
            let got = par_map(threads, tasks.clone(), |i, t| {
                assert_eq!(i, t, "index matches the task's position");
                t * t
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, empty, |_, t: u32| t).is_empty());
        assert_eq!(par_map(4, vec![9u32], |i, t| (i, t)), vec![(0, 9)]);
    }

    #[test]
    fn par_map_balances_imbalanced_tasks() {
        // One huge task plus many tiny ones: with stealing, the tiny
        // tasks drain on other workers. We can't observe the schedule
        // (by design), only that results stay ordered and complete.
        let mut tasks = vec![1_000_000u64];
        tasks.extend(std::iter::repeat_n(10u64, 63));
        let got = par_map(4, tasks, |_, spins| {
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(got.len(), 64);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        // A panic on any executor worker resurfaces on the caller when the
        // scope joins (std rethrows it as "a scoped thread panicked").
        let _ = par_map(2, vec![0u32, 1, 2, 3], |_, t| {
            if t == 2 {
                panic!("task failure must not be swallowed");
            }
            t
        });
    }
}

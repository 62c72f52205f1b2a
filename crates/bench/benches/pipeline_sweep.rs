//! Criterion sweep over the update-exchange frame size: the same BFS and
//! K-core runs with every payload shipped as one frame (the bulk case,
//! `exchange_chunk(usize::MAX)`) and chunked at several frame sizes.
//! This tracks the *raw CPU cost* of framing (slice, ship, reassemble,
//! canonical-order fold) against the one-frame baseline — the end-to-end
//! overlap win lives in the modelled columns of `BENCH_pipeline.json`
//! (`experiments --pipeline-json`), which a wall-clock microbench on a
//! shared host cannot measure deterministically.

mod common;

use common::{bench_graph, fast_criterion};
use criterion::{criterion_main, Criterion};
use symple_algos::{bfs, kcore};
use symple_core::{EngineConfig, Policy};
use symple_graph::Vid;

fn bench(c: &mut Criterion) {
    let graph = bench_graph();
    let mut group = c.benchmark_group("pipeline_sweep");
    let cases: [(&str, usize); 4] = [
        ("bulk", usize::MAX),
        ("pipelined/4KiB", 4 * 1024),
        ("pipelined/16KiB", 16 * 1024),
        ("pipelined/64KiB", 64 * 1024),
    ];
    for (name, chunk) in cases {
        let cfg = EngineConfig::new(4, Policy::symple()).exchange_chunk(chunk);
        group.bench_function(format!("bfs/{name}"), |b| {
            b.iter(|| bfs(&graph, &cfg, Vid::new(1)))
        });
        group.bench_function(format!("kcore/{name}"), |b| {
            b.iter(|| kcore(&graph, &cfg, 4))
        });
    }
    group.finish();
}

fn benches() {
    let mut c = fast_criterion();
    bench(&mut c);
}
criterion_main!(benches);

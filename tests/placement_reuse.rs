//! Placement reuse: the partition, dependency layout, and local buckets
//! built by a graph's first job are shared by every later job on the same
//! `&Graph` (`symple_core::Placement`). Reuse saves host time only, so a
//! warm job must be bit-identical to a cold one in every observable:
//! outputs, work counters, `CommStats`, virtual time, and the chrome-trace
//! export.
//!
//! The memo behind it is keyed, so this suite also checks that the key is
//! complete: a job whose configuration differs from an earlier one in any
//! placement input (machine count, partition α, degree threshold, or
//! differentiated vs full layout) gets its own placement and matches the
//! same job on a fresh copy of the graph. A transposed graph never reuses
//! the original's placement.

use std::sync::Arc;
use std::time::Duration;
use symplegraph::algos::{bfs, kcore, pagerank};
use symplegraph::core::{run_spmd, EngineConfig, Placement, Policy, RunStats, TraceLevel};
use symplegraph::graph::{Bitmap, Graph, RmatConfig, Vid};
use symplegraph::udf::{instrument, paper_udfs, InstrumentedUdf, PropArray, PropertyStore};
use symplegraph::udf::{UdfDep, UdfProgram};

fn graph() -> Graph {
    RmatConfig::graph500(10, 8).cleaned(true).generate()
}

/// The four policies, covering both dependency layouts.
fn policies() -> [Policy; 4] {
    [
        Policy::symple(),
        Policy::symple_basic(),
        Policy::Gemini,
        Policy::Galois,
    ]
}

#[derive(Debug, Clone, Copy)]
enum Kernel {
    Bfs,
    Kcore,
    Pagerank,
    KcoreUdf,
}

const KERNELS: [Kernel; 4] = [
    Kernel::Bfs,
    Kernel::Kcore,
    Kernel::Pagerank,
    Kernel::KcoreUdf,
];

/// One job's output (as its `Debug` text) and statistics.
fn run(kernel: Kernel, g: &Graph, cfg: &EngineConfig, udf: &InstrumentedUdf) -> (String, RunStats) {
    match kernel {
        Kernel::Bfs => {
            let (out, stats) = bfs(g, cfg, Vid::new(3));
            (format!("{out:?}"), stats)
        }
        Kernel::Kcore => {
            let (out, stats) = kcore(g, cfg, 3);
            (format!("{out:?}"), stats)
        }
        Kernel::Pagerank => {
            let (out, stats) = pagerank(g, cfg, 1000, 10);
            (format!("{out:?}"), stats)
        }
        Kernel::KcoreUdf => kcore_udf(g, cfg, udf, 3),
    }
}

/// K-core peeling through the instrumented K-core UDF.
fn kcore_udf(g: &Graph, cfg: &EngineConfig, inst: &InstrumentedUdf, k: u32) -> (String, RunStats) {
    let res = run_spmd(g, cfg, |w| {
        let n = w.graph().num_vertices();
        let mut active = Bitmap::new(n);
        active.set_all();
        let mut counts = vec![0u32; n];
        let mut props = PropertyStore::new();
        let mut dep: Option<UdfDep> = None;
        loop {
            counts.fill(0);
            props.insert("active", PropArray::Bools(active.clone()));
            let prog = UdfProgram::new(inst, &props)
                .exec(cfg.udf_exec)
                .dep_width(cfg.dep_width)
                .active_when("active", true);
            let slots = w.dep_slots_needed();
            let dep = dep.get_or_insert_with(|| prog.make_dep(slots));
            w.pull(&prog, dep, &mut |v: Vid, delta: u64| {
                counts[v.index()] += u32::try_from(delta).expect("count delta fits u32");
                false
            });
            let mut removed = 0u64;
            for v in w.masters() {
                if active.get_vid(v) && counts[v.index()] < k {
                    active.clear(v.index());
                    removed += 1;
                }
            }
            w.sync_bitmap(&mut active);
            if w.allreduce(removed, |a, b| a + b) == 0 {
                break;
            }
        }
        (0..n).filter(|&i| active.get(i)).count()
    });
    (format!("{:?}", res.outputs), res.stats)
}

fn kcore_inst() -> InstrumentedUdf {
    instrument(&paper_udfs::kcore_udf(3)).expect("the K-core UDF instruments")
}

/// Asserts two runs agree on every deterministic observable. Host wall
/// clocks (`wall`, `max_node_wall`, `placement_wall`) are exempt.
fn assert_same(a: &(String, RunStats), b: &(String, RunStats), what: &str) {
    assert_eq!(a.0, b.0, "{what}: outputs diverged");
    assert_eq!(a.1.work, b.1.work, "{what}: work counters diverged");
    assert_eq!(a.1.comm, b.1.comm, "{what}: CommStats diverged");
    assert_eq!(
        a.1.virtual_time().to_bits(),
        b.1.virtual_time().to_bits(),
        "{what}: virtual time diverged"
    );
    assert_eq!(
        a.1.trace.to_chrome_json(),
        b.1.trace.to_chrome_json(),
        "{what}: chrome trace diverged"
    );
}

#[test]
fn warm_jobs_are_bit_identical_to_cold_ones() {
    let base = graph();
    let udf = kcore_inst();
    for kernel in KERNELS {
        for policy in policies() {
            for machines in [1usize, 2, 4] {
                for threads in [1usize, 4] {
                    let what = format!("{kernel:?}/{policy:?}/m={machines}/t={threads}");
                    let cfg = EngineConfig::new(machines, policy)
                        .threads(threads)
                        .trace_level(TraceLevel::Full);
                    let g = base.clone();
                    let cold = run(kernel, &g, &cfg, &udf);
                    let warm = run(kernel, &g, &cfg, &udf);
                    assert_same(&cold, &warm, &what);
                    assert!(
                        cold.1.time.placement_wall > Duration::ZERO,
                        "{what}: cold job built nothing"
                    );
                    assert_eq!(
                        warm.1.time.placement_wall,
                        Duration::ZERO,
                        "{what}: warm job rebuilt its placement"
                    );
                }
            }
        }
    }
}

#[test]
fn placement_key_is_complete() {
    let base = graph();
    let udf = kcore_inst();
    let a = EngineConfig::new(4, Policy::symple()).trace_level(TraceLevel::Full);
    let mut variants = Vec::new();
    variants.push(("machines", EngineConfig::new(2, Policy::symple())));
    let mut alpha = a.clone();
    alpha.partition_alpha = 200.0;
    variants.push(("partition_alpha", alpha));
    let mut threshold = a.clone();
    threshold.degree_threshold = 4;
    variants.push(("degree_threshold", threshold));
    let full = EngineConfig::new(
        4,
        Policy::SympleGraph {
            differentiated: false,
            double_buffering: true,
        },
    );
    variants.push(("full layout", full));

    for (field, b) in variants {
        let b = b.trace_level(TraceLevel::Full);
        // The variant must really change some job, or a key missing the
        // field would go unnoticed.
        let mut changes_a_job = false;
        for kernel in KERNELS {
            let what = format!("{kernel:?} after a change of {field}");
            let g = base.clone();
            let at_a = run(kernel, &g, &a, &udf);
            let after_a = run(kernel, &g, &b, &udf);
            let fresh = run(kernel, &base.clone(), &b, &udf);
            assert_same(&after_a, &fresh, &what);
            assert!(
                after_a.1.time.placement_wall > Duration::ZERO,
                "{what}: reused config A's placement"
            );
            changes_a_job |=
                at_a.1.comm != fresh.1.comm || at_a.1.virtual_time() != fresh.1.virtual_time();
        }
        assert!(changes_a_job, "{field}: the variant changes no job");
    }
}

#[test]
fn a_transpose_never_reuses_the_original_placement() {
    let g = graph();
    let udf = kcore_inst();
    let cfg = EngineConfig::new(4, Policy::symple()).trace_level(TraceLevel::Full);
    let fresh_t = g.transpose();
    for kernel in KERNELS {
        run(kernel, &g, &cfg, &udf);
        let t = g.transpose();
        let on_t = run(kernel, &t, &cfg, &udf);
        assert!(on_t.1.time.placement_wall > Duration::ZERO);
        assert!(!Arc::ptr_eq(
            &Placement::of(&g, &cfg),
            &Placement::of(&t, &cfg)
        ));
        assert_same(
            &on_t,
            &run(kernel, &fresh_t.clone(), &cfg, &udf),
            &format!("{kernel:?} on the transpose"),
        );
    }
}

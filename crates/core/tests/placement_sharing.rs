//! Concurrent jobs on one graph share a single placement.
//!
//! Two `run_spmd` calls racing on a cold `&Graph` both miss the graph's
//! placement memo; whichever inserts first wins, and every machine of both
//! jobs must end up on that one `Placement` with results identical to a
//! sequential run.

use std::sync::Arc;
use std::thread;
use symple_core::{
    run_spmd, BitDep, DistResult, EngineConfig, Placement, Policy, PullProgram, SignalOutcome,
};
use symple_graph::{Graph, RmatConfig, Vid};

/// Emits every in-neighbour until the first odd one, then breaks.
struct FirstOdd;

impl PullProgram for FirstOdd {
    type Update = Vid;
    type Dep = BitDep;
    fn dense_active(&self, _v: Vid) -> bool {
        true
    }
    fn signal(
        &self,
        _v: Vid,
        srcs: &[Vid],
        dep: &mut BitDep,
        slot: usize,
        _carried: bool,
        emit: &mut dyn FnMut(Vid),
    ) -> SignalOutcome {
        for (i, &u) in srcs.iter().enumerate() {
            emit(u);
            if u.raw() % 2 == 1 {
                dep.mark(slot);
                return SignalOutcome::broke_after(i as u64 + 1);
            }
        }
        SignalOutcome::scanned(srcs.len() as u64)
    }
}

/// One pull; each machine returns its received-update count and the
/// address of the placement it ran on.
fn job(g: &Graph, cfg: &EngineConfig) -> DistResult<(u64, usize)> {
    run_spmd(g, cfg, |w| {
        let mut dep = BitDep::new(w.dep_slots_needed());
        let mut received = 0u64;
        w.pull(&FirstOdd, &mut dep, &mut |_v: Vid, _u: Vid| {
            received += 1;
            true
        });
        (received, Arc::as_ptr(w.placement()) as usize)
    })
}

fn counts(res: &DistResult<(u64, usize)>) -> Vec<u64> {
    res.outputs.iter().map(|&(c, _)| c).collect()
}

fn assert_same(a: &DistResult<(u64, usize)>, b: &DistResult<(u64, usize)>) {
    assert_eq!(counts(a), counts(b));
    assert_eq!(a.stats.work, b.stats.work);
    assert_eq!(a.stats.comm, b.stats.comm);
    assert_eq!(
        a.stats.virtual_time().to_bits(),
        b.stats.virtual_time().to_bits()
    );
}

#[test]
fn concurrent_cold_jobs_build_one_placement() {
    let g = RmatConfig::graph500(11, 8).generate();
    for policy in [Policy::symple(), Policy::Gemini] {
        let cfg = EngineConfig::new(4, policy);
        let sequential = job(&g.clone(), &cfg);
        let cold = g.clone();
        let (a, b) = thread::scope(|s| {
            let a = s.spawn(|| job(&cold, &cfg));
            let b = s.spawn(|| job(&cold, &cfg));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_same(&a, &sequential);
        assert_same(&b, &sequential);
        let shared = Arc::as_ptr(&Placement::of(&cold, &cfg)) as usize;
        for res in [&a, &b] {
            assert!(res.outputs.iter().all(|&(_, p)| p == shared));
        }
    }
}

//! Per-graph placement, built once and shared across jobs.
//!
//! A job's machine-local structures — the chunked [`Partition`], the
//! [`DepLayout`], and each machine's [`LocalGraph`] buckets — depend only
//! on the graph and four configuration values. They are memoised on the
//! [`Graph`] itself (see [`Graph::memo`]), so the first job on a graph
//! builds them and every later job with the same machine count, partition
//! α, and dependency layout reuses them, the way Gemini partitions a graph
//! once at load and then runs kernels on it.

use crate::{DepLayout, EngineConfig, LocalGraph, Partition};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use symple_graph::Graph;

/// Everything a [`Placement`] is derived from besides the graph. The
/// placement is built *from* the key, so the two cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlacementKey {
    machines: usize,
    /// `partition_alpha`'s bits, compared exactly.
    alpha_bits: u64,
    /// The differentiated layout's in-degree threshold; `None` for the
    /// full layout, which ignores the threshold.
    degree_threshold: Option<usize>,
}

impl PlacementKey {
    fn of(cfg: &EngineConfig) -> Self {
        PlacementKey {
            machines: cfg.machines,
            alpha_bits: cfg.partition_alpha.to_bits(),
            degree_threshold: cfg.differentiated().then_some(cfg.degree_threshold),
        }
    }
}

/// The partition, dependency layout, and per-machine buckets of one graph
/// under one configuration, shared by every job that runs with it.
///
/// Each machine's [`LocalGraph`] is built on first use by that machine, so
/// a cold job still builds its buckets in parallel across machines and a
/// warm job builds nothing. None of this is charged on the virtual clock.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use symple_core::{EngineConfig, Placement, Policy};
/// use symple_graph::star;
///
/// let g = star(200);
/// let cfg = EngineConfig::new(2, Policy::Gemini);
/// let placement = Placement::of(&g, &cfg);
/// assert!(Arc::ptr_eq(&placement, &Placement::of(&g, &cfg)));
/// assert_eq!(placement.partition().num_parts(), 2);
/// let edges: usize = (0..2).map(|r| placement.local(&g, r).num_edges()).sum();
/// assert_eq!(edges, g.num_edges());
/// ```
#[derive(Debug)]
pub struct Placement {
    part: Partition,
    layout: DepLayout,
    locals: Vec<OnceLock<LocalGraph>>,
}

impl Placement {
    /// The placement of `graph` under `cfg`, built on the first request
    /// and shared by later ones with the same machine count, partition
    /// α, and dependency layout (the degree threshold counts only under
    /// differentiated propagation).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.machines` is zero.
    pub fn of(graph: &Graph, cfg: &EngineConfig) -> Arc<Placement> {
        Self::shared(graph, cfg).0
    }

    /// [`Placement::of`] plus machine `rank`'s buckets, with the host wall
    /// time this call spent building either (zero when both were reused).
    pub(crate) fn for_rank(
        graph: &Graph,
        cfg: &EngineConfig,
        rank: usize,
    ) -> (Arc<Placement>, Duration) {
        let (placement, mut spent) = Self::shared(graph, cfg);
        if placement.locals[rank].get().is_none() {
            let t = Instant::now();
            placement.local(graph, rank);
            spent += t.elapsed();
        }
        (placement, spent)
    }

    /// The memoised placement and the time this call spent building it.
    fn shared(graph: &Graph, cfg: &EngineConfig) -> (Arc<Placement>, Duration) {
        let key = PlacementKey::of(cfg);
        let mut spent = Duration::ZERO;
        let placement = graph.memo(key, || {
            let t = Instant::now();
            let built = Placement::build(graph, key);
            spent = t.elapsed();
            built
        });
        (placement, spent)
    }

    fn build(graph: &Graph, key: PlacementKey) -> Placement {
        let part = Partition::chunked(graph, key.machines, f64::from_bits(key.alpha_bits));
        let layout = match key.degree_threshold {
            Some(threshold) => DepLayout::high_degree(graph, &part, threshold),
            None => DepLayout::full(&part),
        };
        Placement {
            part,
            layout,
            locals: (0..key.machines).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The global partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// The dependency-slot layout.
    pub fn layout(&self) -> &DepLayout {
        &self.layout
    }

    /// Machine `rank`'s buckets, built on first use. `graph` must be the
    /// graph this placement was obtained from.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below the placement's machine count.
    pub fn local(&self, graph: &Graph, rank: usize) -> &LocalGraph {
        self.locals[rank].get_or_init(|| LocalGraph::build(graph, &self.part, &self.layout, rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Policy;
    use symple_graph::RmatConfig;

    #[test]
    fn key_ignores_the_threshold_only_for_the_full_layout() {
        let base = EngineConfig::new(2, Policy::symple());
        let mut other = base.clone();
        other.degree_threshold = 8;
        assert_ne!(PlacementKey::of(&base), PlacementKey::of(&other));
        let full = EngineConfig::new(2, Policy::symple_basic());
        let mut full_other = full.clone();
        full_other.degree_threshold = 8;
        assert_eq!(PlacementKey::of(&full), PlacementKey::of(&full_other));
        assert_eq!(
            PlacementKey::of(&full),
            PlacementKey::of(&EngineConfig::new(2, Policy::Gemini))
        );
    }

    #[test]
    fn matches_a_from_scratch_build() {
        let g = RmatConfig::graph500(9, 8).generate();
        for policy in [Policy::symple(), Policy::Gemini] {
            let cfg = EngineConfig::new(3, policy);
            let placement = Placement::of(&g, &cfg);
            let part = Partition::chunked(&g, 3, cfg.partition_alpha);
            assert_eq!(placement.partition(), &part);
            let layout = if cfg.differentiated() {
                DepLayout::high_degree(&g, &part, cfg.degree_threshold)
            } else {
                DepLayout::full(&part)
            };
            for rank in 0..3 {
                let fresh = LocalGraph::build(&g, &part, &layout, rank);
                let shared = placement.local(&g, rank);
                assert_eq!(shared.num_mirrors(), fresh.num_mirrors());
                assert_eq!(format!("{shared:?}"), format!("{fresh:?}"));
            }
        }
    }

    #[test]
    fn for_rank_reports_build_time_only_when_it_built() {
        let g = RmatConfig::graph500(9, 8).generate();
        let cfg = EngineConfig::new(2, Policy::symple());
        let (cold, cold_wall) = Placement::for_rank(&g, &cfg, 0);
        assert!(cold_wall > Duration::ZERO);
        let (warm, warm_wall) = Placement::for_rank(&g, &cfg, 0);
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(warm_wall, Duration::ZERO);
        // Rank 1's buckets are still unbuilt: only they are timed.
        let (_, rank1_wall) = Placement::for_rank(&g, &cfg, 1);
        assert!(rank1_wall > Duration::ZERO);
    }
}

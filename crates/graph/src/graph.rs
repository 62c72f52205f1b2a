//! The directed graph type used throughout the reproduction.

use crate::memo::Memo;
use crate::{Csr, Vid};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A directed graph with both forward (out-edge) and reverse (in-edge)
/// adjacency.
///
/// The engines need both directions: push (sparse) mode traverses out-edges
/// of frontier vertices; pull (dense) mode — where loop-carried dependency
/// matters — traverses in-edges of candidate vertices. Construct via
/// [`crate::GraphBuilder`] or a generator.
///
/// A graph is immutable once built (no method takes `&mut self`), so
/// structures derived from it can be computed once and shared: see
/// [`Graph::memo`].
#[derive(Clone)]
pub struct Graph {
    out: Csr,
    incoming: Csr,
    /// Derived structures; a clone or transpose starts with an empty memo.
    memo: Memo,
}

impl Graph {
    /// Assembles a graph from `(src, dst)` pairs.
    ///
    /// This is a low-level constructor that keeps duplicates and self-loops
    /// exactly as given; prefer [`crate::GraphBuilder`] which can
    /// deduplicate, drop self-loops, and symmetrize.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(Vid, Vid)]) -> Self {
        let out = Csr::from_edges(num_vertices, edges);
        let reversed: Vec<(Vid, Vid)> = edges.iter().map(|&(s, d)| (d, s)).collect();
        let incoming = Csr::from_edges(num_vertices, &reversed);
        Graph {
            out,
            incoming,
            memo: Memo::default(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Sorted out-neighbors of `v` (targets of edges leaving `v`).
    #[inline]
    pub fn out_neighbors(&self, v: Vid) -> &[Vid] {
        self.out.neighbors(v)
    }

    /// Sorted in-neighbors of `v` (sources of edges entering `v`).
    #[inline]
    pub fn in_neighbors(&self, v: Vid) -> &[Vid] {
        self.incoming.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: Vid) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: Vid) -> usize {
        self.incoming.degree(v)
    }

    /// The forward CSR.
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// The reverse CSR.
    pub fn in_csr(&self) -> &Csr {
        &self.incoming
    }

    /// Iterates all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = Vid> + '_ {
        Vid::range(0, self.num_vertices() as u32)
    }

    /// Iterates `(src, dst)` over all directed edges.
    pub fn edges(&self) -> impl Iterator<Item = (Vid, Vid)> + '_ {
        self.out.iter_edges()
    }

    /// In-neighbors of `v` restricted to ids in `[lo, hi)` — the slice of
    /// `v`'s in-edges owned by one partition under outgoing edge-cut.
    pub fn in_neighbors_in_range(&self, v: Vid, lo: Vid, hi: Vid) -> &[Vid] {
        self.incoming.neighbors_in_range(v, lo, hi)
    }

    /// The transpose graph (every edge reversed). Since a [`Graph`]
    /// already stores both directions, this just swaps the two CSRs —
    /// useful for backward traversals (e.g. the backward reachability
    /// phase of SCC detection).
    pub fn transpose(&self) -> Graph {
        Graph {
            out: self.incoming.clone(),
            incoming: self.out.clone(),
            memo: Memo::default(),
        }
    }

    /// The structure memoised on this graph under `key`, built by `build`
    /// on the first request and shared by every later one.
    ///
    /// `build` must derive its result from this graph and `key` alone:
    /// keys are matched by exact `K: Eq` equality (together with the value
    /// type `T`), and the graph never changes, so a memoised value can
    /// never go stale. The memo holds at most four entries and evicts the
    /// oldest first; an evicted value lives on while any caller still
    /// holds its `Arc`. [`Clone`] and [`Graph::transpose`] start with an
    /// empty memo. Concurrent first requests for one key may each run
    /// `build`; all of them receive the value inserted first.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use symple_graph::path;
    ///
    /// let g = path(10);
    /// let degrees = || -> Vec<usize> { g.vertices().map(|v| g.in_degree(v)).collect() };
    /// let a = g.memo("in-degrees", degrees);
    /// let b = g.memo("in-degrees", || -> Vec<usize> { unreachable!("memoised") });
    /// assert!(Arc::ptr_eq(&a, &b));
    /// assert_eq!(a.len(), 10);
    /// ```
    pub fn memo<K, T>(&self, key: K, build: impl FnOnce() -> T) -> Arc<T>
    where
        K: Any + Eq + Send + Sync,
        T: Any + Send + Sync,
    {
        self.memo.get_or_build(key, build)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(vertices={}, edges={})",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Vid {
        Vid::new(i)
    }

    #[test]
    fn directions_are_consistent() {
        let g = Graph::from_edges(4, &[(v(0), v(1)), (v(2), v(1)), (v(1), v(3))]);
        assert_eq!(g.out_neighbors(v(0)), &[v(1)]);
        assert_eq!(g.in_neighbors(v(1)), &[v(0), v(2)]);
        assert_eq!(g.out_degree(v(1)), 1);
        assert_eq!(g.in_degree(v(3)), 1);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn every_out_edge_has_an_in_edge() {
        let edges = [(v(0), v(1)), (v(1), v(2)), (v(2), v(0)), (v(0), v(2))];
        let g = Graph::from_edges(3, &edges);
        for (s, d) in g.edges() {
            assert!(g.in_neighbors(d).contains(&s));
        }
        let total_in: usize = g.vertices().map(|u| g.in_degree(u)).sum();
        assert_eq!(total_in, g.num_edges());
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = Graph::from_edges(4, &[(v(0), v(1)), (v(2), v(1)), (v(1), v(3))]);
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for (s, d) in g.edges() {
            assert!(t.out_neighbors(d).contains(&s));
        }
        // double transpose is identity on adjacency
        let tt = t.transpose();
        for u in g.vertices() {
            assert_eq!(tt.out_neighbors(u), g.out_neighbors(u));
        }
    }

    #[test]
    fn clone_and_transpose_start_with_an_empty_memo() {
        // An out-star: one source (the hub); its transpose has two.
        let g = Graph::from_edges(3, &[(v(0), v(1)), (v(0), v(2))]);
        let sources = |g: &Graph| g.vertices().filter(|&u| g.in_degree(u) == 0).count();
        assert_eq!(*g.memo("sources", || sources(&g)), 1);
        assert_eq!(g.memo.len(), 1);
        assert_eq!(g.clone().memo.len(), 0);
        let t = g.transpose();
        assert_eq!(t.memo.len(), 0);
        assert_eq!(*t.memo("sources", || sources(&t)), 2);
        assert_eq!(*g.memo("sources", || sources(&t)), 1, "still memoised");
    }

    #[test]
    fn vertices_iterator() {
        let g = Graph::from_edges(3, &[]);
        assert_eq!(g.vertices().count(), 3);
    }
}

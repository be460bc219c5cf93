//! Read-only graph access as a trait, so algorithms can run over stores
//! other than the concrete CSR [`Graph`] — notably sp-stream's
//! `DeltaOverlay`, which layers a mutation chain over an immutable base.
//!
//! The contract mirrors the CSR accessors exactly, including **iteration
//! order**: `neighbors_w(v)` must yield a fixed, implementation-defined
//! order that is stable across calls, because refinement accumulates
//! floating-point gains in that order and the determinism story (bit-exact
//! results across runs, threads, and overlay-vs-compacted stores) depends
//! on the order agreeing between equivalent stores.

use crate::csr::Graph;
use crate::partition::Bisection;
use sp_geometry::Point2;
use sp_machine::trace::fnv::Fingerprint;

/// Read-only access to an undirected weighted graph.
pub trait GraphAccess {
    /// Number of vertices.
    fn n(&self) -> usize;
    /// Number of undirected edges.
    fn m(&self) -> usize;
    /// Degree of vertex `v`.
    fn degree(&self, v: u32) -> usize;
    /// Vertex weight (mass) of `v`.
    fn vwgt(&self, v: u32) -> f64;
    /// Neighbours of `v` with edge weights, in the store's canonical order.
    fn neighbors_w(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_;
    /// Sum of all vertex weights, accumulated in ascending vertex order
    /// (implementations must preserve this order for bit-exactness).
    fn total_vwgt(&self) -> f64 {
        (0..self.n() as u32).map(|v| self.vwgt(v)).sum()
    }
}

impl GraphAccess for Graph {
    #[inline]
    fn n(&self) -> usize {
        Graph::n(self)
    }
    #[inline]
    fn m(&self) -> usize {
        Graph::m(self)
    }
    #[inline]
    fn degree(&self, v: u32) -> usize {
        Graph::degree(self, v)
    }
    #[inline]
    fn vwgt(&self, v: u32) -> f64 {
        Graph::vwgt(self, v)
    }
    #[inline]
    fn neighbors_w(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        Graph::neighbors_w(self, v)
    }
    fn total_vwgt(&self) -> f64 {
        Graph::total_vwgt(self)
    }
}

/// Structural fingerprint of a graph over any store: FNV-1a across vertex
/// count, per-row degrees, neighbour ids, and the raw bits of edge and
/// vertex weights, in canonical iteration order. Two stores representing
/// the same graph (e.g. [`crate::CompactGraph`] and the reference CSR it
/// was built from) hash identically; any structural or weight difference
/// — including elided-versus-materialized unit weights — does not.
pub fn graph_fingerprint<G: GraphAccess>(g: &G) -> u64 {
    let mut h = Fingerprint::new();
    h.u64(g.n() as u64);
    h.u64(g.m() as u64);
    for v in 0..g.n() as u32 {
        h.u64(g.degree(v) as u64);
        h.f64_bits(g.vwgt(v));
        for (u, w) in g.neighbors_w(v) {
            h.u64(u as u64);
            h.f64_bits(w);
        }
    }
    h.finish()
}

/// Fingerprint of the CSR image of any store, array by array: vertex
/// count, row offsets, neighbour ids, edge-weight bits, vertex-weight bits
/// (FNV-1a, another byte order than [`graph_fingerprint`]'s). This is
/// sp-serve's result-cache key of a graph, so a store and the CSR it
/// compacts to hash alike.
pub fn csr_fingerprint<G: GraphAccess>(g: &G) -> u64 {
    let n = g.n() as u32;
    let mut fp = Fingerprint::new();
    fp.u64(n as u64);
    let mut off = 0;
    fp.u64(off);
    for v in 0..n {
        off += g.degree(v) as u64;
        fp.u64(off);
    }
    for v in 0..n {
        for (u, _) in g.neighbors_w(v) {
            fp.u64(u as u64);
        }
    }
    for v in 0..n {
        for (_, w) in g.neighbors_w(v) {
            fp.f64_bits(w);
        }
    }
    for v in 0..n {
        fp.f64_bits(g.vwgt(v));
    }
    fp.finish()
}

/// [`csr_fingerprint`] together with optional coordinates: a 0 byte when
/// there are none, else a 1 byte and every coordinate's bits, so a graph
/// without coordinates hashes apart from the same graph with them.
pub fn input_fingerprint<G: GraphAccess>(g: &G, coords: Option<&[Point2]>) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64(csr_fingerprint(g));
    match coords {
        None => fp.byte(0),
        Some(c) => {
            fp.byte(1);
            for p in c {
                fp.f64_bits(p.x);
                fp.f64_bits(p.y);
            }
        }
    }
    fp.finish()
}

/// Weighted cut of a bisection over any graph store (each edge counted
/// once via `u > v`), matching [`Bisection::cut`] bit-for-bit on CSR.
pub fn cut_of<G: GraphAccess>(g: &G, bi: &Bisection) -> f64 {
    let mut c = 0.0;
    for v in 0..g.n() as u32 {
        let sv = bi.side(v);
        for (u, w) in g.neighbors_w(v) {
            if u > v && bi.side(u) != sv {
                c += w;
            }
        }
    }
    c
}

/// Per-side vertex weights, accumulated in ascending vertex order
/// (bit-identical to [`Bisection::weights`] on CSR).
pub fn weights_of<G: GraphAccess>(g: &G, bi: &Bisection) -> (f64, f64) {
    let mut w = [0.0f64; 2];
    for v in 0..g.n() as u32 {
        w[bi.side(v) as usize] += g.vwgt(v);
    }
    (w[0], w[1])
}

/// Weighted imbalance `max(w0, w1) / (total / 2) − 1` over any store.
pub fn imbalance_of<G: GraphAccess>(g: &G, bi: &Bisection) -> f64 {
    let (w0, w1) = weights_of(g, bi);
    let total = w0 + w1;
    if total <= 0.0 {
        return 0.0;
    }
    w0.max(w1) / (total / 2.0) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 4.0);
        b.add_edge(3, 0, 1.0);
        b.set_vwgt(2, 3.0);
        b.build()
    }

    #[test]
    fn trait_metrics_agree_with_inherent() {
        let g = diamond();
        let bi = Bisection::new(vec![0, 0, 1, 1]);
        assert_eq!(cut_of(&g, &bi), bi.cut(&g));
        assert_eq!(weights_of(&g, &bi), bi.weights(&g));
        assert_eq!(imbalance_of(&g, &bi), bi.imbalance(&g));
        assert_eq!(GraphAccess::total_vwgt(&g), g.total_vwgt());
        assert_eq!(GraphAccess::m(&g), 4);
    }

    #[test]
    fn neighbor_order_matches_csr() {
        let g = diamond();
        for v in 0..4u32 {
            let via_trait: Vec<_> = GraphAccess::neighbors_w(&g, v).collect();
            let via_csr: Vec<_> = g.neighbors_w(v).collect();
            assert_eq!(via_trait, via_csr);
        }
    }
}

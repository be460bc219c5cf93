//! Builder-free, parallel two-pass CSR assembly.
//!
//! The [`crate::GraphBuilder`] path accumulates a `Vec<(u32, u32, f64)>`
//! tuple buffer — 16 B per undirected edge of transient peak on top of the
//! final CSR. The row assemblers here skip that buffer entirely: a first
//! pass counts every row's degree, a serial prefix sum fixes every row's
//! offset, and a second pass fills each row directly into the final
//! arrays. Both passes cut the rows into contiguous chunks and deal them
//! over the host pool ([`sp_machine::pool::each`]), and every chunk
//! writes a disjoint slice of the output.
//!
//! Determinism: a row's content is a pure function of its vertex id, so
//! the output bytes are identical no matter how many threads execute the
//! chunks or how chunks are sized. Rows are canonicalized by sorting on
//! neighbour id, matching the ascending-neighbour convention the builder
//! path emits; rows must be duplicate-free (debug-asserted).
//!
//! Edge lists ([`csr_from_pairs`], the builder and MatrixMarket input) go
//! through one serial sort, merge and scatter instead (`csr_from_edges`).

use crate::csr::Graph;
use sp_machine::pool;
use std::ops::Range;

/// Rows per chunk: about four chunks per pool thread, claimed one at a
/// time so that uneven rows even out, but never so few rows that handing a
/// chunk out costs more than filling it.
pub(crate) fn chunk_len(n: usize) -> usize {
    n.div_ceil(4 * pool::width()).max(1024)
}

/// Rows of chunk `c` of `n` rows.
pub(crate) fn chunk_rows(c: usize, chunk: usize, n: usize) -> Range<usize> {
    c * chunk..((c + 1) * chunk).min(n)
}

/// `data`, an array laid out by the CSR offsets `xadj`, cut into the
/// pieces that hold each chunk's rows.
fn row_chunks<'a, T>(xadj: &[usize], chunk: usize, mut data: &'a mut [T]) -> Vec<&'a mut [T]> {
    let n = xadj.len().saturating_sub(1);
    (0..n.div_ceil(chunk))
        .map(|c| {
            let rows = chunk_rows(c, chunk, n);
            let len = xadj[rows.end] - xadj[rows.start];
            let (piece, rest) = std::mem::take(&mut data).split_at_mut(len);
            data = rest;
            piece
        })
        .collect()
}

/// One entry of a row: a neighbour id, with or without its edge weight.
trait Entry: Copy {
    /// Without weights every edge weighs 1.0, set by one memset.
    const WEIGHTED: bool;
    /// The neighbour and the edge's weight.
    fn edge(self) -> (u32, f64);
}

impl Entry for u32 {
    const WEIGHTED: bool = false;
    fn edge(self) -> (u32, f64) {
        (self, 1.0)
    }
}

impl Entry for (u32, f64) {
    const WEIGHTED: bool = true;
    fn edge(self) -> (u32, f64) {
        self
    }
}

/// The count, prefix-sum and fill passes both row assemblers share.
fn csr_from_entries<E, F>(n: usize, vwgt: Vec<f64>, row: F) -> Graph
where
    E: Entry + Send,
    F: Fn(u32, &mut Vec<E>) + Sync,
{
    assert_eq!(vwgt.len(), n);
    let chunk = chunk_len(n);
    // Pass 1: row `v`'s degree lands in `xadj[v + 1]`, and the prefix sum
    // turns degrees into offsets.
    let mut xadj = vec![0usize; n + 1];
    pool::each(xadj[1..].chunks_mut(chunk), |c, degs| {
        let mut scratch = Vec::new();
        for (v, d) in chunk_rows(c, chunk, n).zip(degs) {
            scratch.clear();
            row(v as u32, &mut scratch);
            *d = scratch.len();
        }
    });
    for v in 0..n {
        xadj[v + 1] += xadj[v];
    }
    let m = xadj[n];
    // Pass 2: direct fill into each chunk's slices.
    let mut adjncy = vec![0u32; m];
    let mut ewgt = vec![if E::WEIGHTED { 0.0 } else { 1.0 }; m];
    let pieces = row_chunks(&xadj, chunk, &mut adjncy)
        .into_iter()
        .zip(row_chunks(&xadj, chunk, &mut ewgt));
    pool::each(pieces, |c, (a, e)| {
        let mut scratch = Vec::new();
        let mut off = 0usize;
        for v in chunk_rows(c, chunk, n) {
            scratch.clear();
            row(v as u32, &mut scratch);
            scratch.sort_unstable_by_key(|x| x.edge().0);
            debug_assert!(
                scratch.windows(2).all(|w| w[0].edge().0 != w[1].edge().0),
                "duplicate neighbour in row {v}"
            );
            for &x in &scratch {
                let (u, w) = x.edge();
                debug_assert_ne!(u as usize, v, "self-loop in row {v}");
                a[off] = u;
                if E::WEIGHTED {
                    e[off] = w;
                }
                off += 1;
            }
        }
        debug_assert_eq!(off, a.len());
    });
    Graph::from_csr(xadj, adjncy, ewgt, vwgt)
}

/// Assemble a weighted CSR graph from a per-row closure. `row` must push
/// `(neighbour, weight)` pairs for vertex `v` — in any order, but with no
/// duplicate neighbours and no self-loops. The closure is called twice per
/// row (count pass, fill pass) and must be deterministic in `v`.
pub fn csr_from_rows<F>(n: usize, vwgt: Vec<f64>, row: F) -> Graph
where
    F: Fn(u32, &mut Vec<(u32, f64)>) + Sync,
{
    csr_from_entries(n, vwgt, row)
}

/// Unit-weight variant of [`csr_from_rows`]: the closure pushes neighbour
/// ids only, every edge weight is `1.0` (one memset, no per-edge work) and
/// every vertex weight is `1.0`.
pub fn csr_unit_from_rows<F>(n: usize, row: F) -> Graph
where
    F: Fn(u32, &mut Vec<u32>) + Sync,
{
    csr_from_entries(n, vec![1.0; n], row)
}

/// Sort every CSR row ascending, in parallel over row chunks. Used by
/// assemblers whose scatter fill leaves rows in schedule-dependent order
/// (e.g. the triangle-soup path in the Delaunay generator): after the
/// sort, output bytes are independent of thread count.
pub fn sort_rows(xadj: &[usize], adjncy: &mut [u32]) {
    let n = xadj.len().saturating_sub(1);
    let chunk = chunk_len(n);
    pool::each(row_chunks(xadj, chunk, adjncy), |c, a| {
        let rows = chunk_rows(c, chunk, n);
        let base = xadj[rows.start];
        for w in xadj[rows.start..=rows.end].windows(2) {
            a[w[0] - base..w[1] - base].sort_unstable();
        }
    });
}

/// Assemble a unit-weight CSR graph from an undirected edge list, merging
/// parallel edges by multiplicity (weight = number of copies, matching
/// what `GraphBuilder` computes when every copy carries weight `1.0`).
/// Self-loops are dropped. The pair buffer is 8 B/edge — half the
/// builder's 16 B tuple — and is sorted and consumed in place.
pub fn csr_from_pairs(n: usize, mut pairs: Vec<(u32, u32)>, vwgt: Vec<f64>) -> Graph {
    pairs.retain(|&(u, v)| u != v);
    for p in pairs.iter_mut() {
        if p.0 > p.1 {
            *p = (p.1, p.0);
        }
        assert!((p.1 as usize) < n, "edge ({},{}) out of range", p.0, p.1);
    }
    csr_from_edges(n, pairs, vwgt, |(u, v)| (u, v, 1.0))
}

/// Sort `edges`, each `(u, v, weight)` with `u < v < n` under `edge`, by
/// `(u, v)`, fold every run of equal ends into one edge weighing the run's
/// sum (in sorted order, so a run of 1.0s weighs its multiplicity
/// exactly), and scatter each merged edge into both of its rows.
pub(crate) fn csr_from_edges<E: Copy>(
    n: usize,
    mut edges: Vec<E>,
    vwgt: Vec<f64>,
    edge: impl Fn(E) -> (u32, u32, f64),
) -> Graph {
    assert_eq!(vwgt.len(), n);
    let ends = |e| {
        let (u, v, _) = edge(e);
        (u, v)
    };
    edges.sort_unstable_by_key(|&e| ends(e));
    let runs = || edges.chunk_by(|&a, &b| ends(a) == ends(b));
    let mut xadj = vec![0usize; n + 1];
    for run in runs() {
        let (u, v) = ends(run[0]);
        xadj[u as usize + 1] += 1;
        xadj[v as usize + 1] += 1;
    }
    for v in 0..n {
        xadj[v + 1] += xadj[v];
    }
    let m = xadj[n];
    let mut adjncy = vec![0u32; m];
    let mut ewgt = vec![0f64; m];
    let mut cursor = xadj[..n].to_vec();
    for run in runs() {
        let (u, v, w0) = edge(run[0]);
        let w = run[1..].iter().fold(w0, |s, &e| s + edge(e).2);
        for (a, b) in [(u, v), (v, u)] {
            let at = &mut cursor[a as usize];
            adjncy[*at] = b;
            ewgt[*at] = w;
            *at += 1;
        }
    }
    Graph::from_csr(xadj, adjncy, ewgt, vwgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;

    fn assert_bytes_eq(a: &Graph, b: &Graph) {
        assert_eq!(a.xadj(), b.xadj());
        assert_eq!(a.adjncy(), b.adjncy());
        assert_eq!(a.ewgts(), b.ewgts());
        assert_eq!(a.vwgts(), b.vwgts());
    }

    #[test]
    fn rows_path_matches_builder() {
        // A ring with chords, weighted, emitted both ways.
        let n = 97usize;
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 {
            let nx = (v + 1) % n as u32;
            b.add_edge(v, nx, 1.0 + f64::from(v % 3));
            let chord = (v + 7) % n as u32;
            b.add_edge(v, chord, 2.0);
        }
        let reference = b.build();
        let direct = csr_from_rows(n, vec![1.0; n], |v, row| {
            for (u, w) in reference.neighbors_w(v) {
                row.push((u, w));
            }
        });
        assert_bytes_eq(&reference, &direct);
    }

    #[test]
    fn unit_rows_path_matches_builder() {
        let n = 64usize;
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1, 1.0);
        }
        let reference = b.build();
        let direct = csr_unit_from_rows(n, |v, row| {
            if v > 0 {
                row.push(v - 1);
            }
            if (v as usize) < n - 1 {
                row.push(v + 1);
            }
        });
        assert_bytes_eq(&reference, &direct);
    }

    #[test]
    fn pairs_path_merges_multiplicity_like_builder() {
        let n = 8usize;
        let pairs = vec![(0u32, 1u32), (1, 0), (2, 3), (3, 3), (5, 4), (2, 3)];
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &pairs {
            b.add_edge(u, v, 1.0);
        }
        let reference = b.build();
        let direct = csr_from_pairs(n, pairs, vec![1.0; n]);
        assert_bytes_eq(&reference, &direct);
    }
}

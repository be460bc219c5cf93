//! Compressed-sparse-row graphs with vertex and edge weights.
//!
//! All ScalaPart stages operate on undirected weighted graphs: the input is
//! unweighted, but coarsening introduces vertex weights (contracted masses)
//! and edge weights (summed multi-edges), so the representation carries both
//! from the start. Vertices are `u32`; adjacency offsets are `usize`.

/// An undirected graph in CSR form. Every edge `(u, v)` appears twice, once
/// in each endpoint's adjacency list; self-loops are disallowed.
#[derive(Clone, Debug)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    ewgt: Vec<f64>,
    vwgt: Vec<f64>,
}

impl Graph {
    /// Build directly from CSR arrays. Panics (debug) on malformed input;
    /// call [`Graph::validate`] for a checked verdict.
    pub fn from_csr(xadj: Vec<usize>, adjncy: Vec<u32>, ewgt: Vec<f64>, vwgt: Vec<f64>) -> Self {
        debug_assert_eq!(xadj.len(), vwgt.len() + 1);
        debug_assert_eq!(adjncy.len(), ewgt.len());
        debug_assert_eq!(*xadj.last().unwrap_or(&0), adjncy.len());
        Graph {
            xadj,
            adjncy,
            ewgt,
            vwgt,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adjncy[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Neighbours of `v` together with edge weights.
    #[inline]
    pub fn neighbors_w(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.xadj[v as usize]..self.xadj[v as usize + 1];
        self.adjncy[r.clone()]
            .iter()
            .copied()
            .zip(self.ewgt[r].iter().copied())
    }

    /// Vertex weight (mass) of `v`.
    #[inline]
    pub fn vwgt(&self, v: u32) -> f64 {
        self.vwgt[v as usize]
    }

    /// All vertex weights.
    #[inline]
    pub fn vwgts(&self) -> &[f64] {
        &self.vwgt
    }

    /// Sum of all vertex weights.
    pub fn total_vwgt(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// Sum of undirected edge weights.
    pub fn total_ewgt(&self) -> f64 {
        self.ewgt.iter().sum::<f64>() / 2.0
    }

    /// Raw CSR offsets (for algorithms that stream the structure).
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw adjacency array.
    #[inline]
    pub fn adjncy(&self) -> &[u32] {
        &self.adjncy
    }

    /// Raw edge-weight array, parallel to [`Graph::adjncy`].
    #[inline]
    pub fn ewgts(&self) -> &[f64] {
        &self.ewgt
    }

    /// Average degree `2M / N`.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.adjncy.len() as f64 / self.n() as f64
        }
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Structural validation: monotone offsets, in-range targets, no
    /// self-loops, symmetric adjacency with matching weights.
    pub fn validate(&self) -> Result<(), String> {
        if self.xadj.len() != self.n() + 1 {
            return Err("xadj length mismatch".into());
        }
        if self.xadj[0] != 0 || *self.xadj.last().unwrap() != self.adjncy.len() {
            return Err("xadj endpoints wrong".into());
        }
        for w in self.xadj.windows(2) {
            if w[1] < w[0] {
                return Err("xadj not monotone".into());
            }
        }
        if self.ewgt.len() != self.adjncy.len() {
            return Err("ewgt length mismatch".into());
        }
        let n = self.n() as u32;
        // Where in `u`'s row the mirror of the next edge into `u` sits when
        // rows ascend, as every assembler emits them: the edges into `u`
        // arrive in ascending `v`, which is the order of `u`'s own row, so
        // the cursor only moves forward. Any other row order misses at the
        // cursor and scans the row instead.
        let mut cursor: Vec<usize> = self.xadj[..self.n()].to_vec();
        for v in 0..n {
            for (u, w) in self.neighbors_w(v) {
                if u >= n {
                    return Err(format!("edge target {u} out of range"));
                }
                if u == v {
                    return Err(format!("self loop at {v}"));
                }
                if !w.is_finite() || w <= 0.0 {
                    return Err(format!("bad edge weight {w} on ({v},{u})"));
                }
                // Symmetric counterpart with equal weight.
                let mirrors = |x: u32, wx: f64| x == v && (wx - w).abs() <= 1e-9 * w.max(1.0);
                let c = cursor[u as usize];
                if c < self.xadj[u as usize + 1] && mirrors(self.adjncy[c], self.ewgt[c]) {
                    cursor[u as usize] = c + 1;
                } else if !self.neighbors_w(u).any(|(x, wx)| mirrors(x, wx)) {
                    return Err(format!("edge ({v},{u}) missing symmetric counterpart"));
                }
            }
        }
        for (v, &w) in self.vwgt.iter().enumerate() {
            if !w.is_finite() || w <= 0.0 {
                return Err(format!("bad vertex weight {w} at {v}"));
            }
        }
        Ok(())
    }

    /// Extract the subgraph induced by `verts` (which must be duplicate-free).
    /// Returns the subgraph plus the map from sub-vertex index to original id.
    ///
    /// One sequential count pass, a prefix sum, and one fill pass straight
    /// into the final arrays. Rows come out ascending in the new ids: a row
    /// is sorted only where the relabelling was not monotone on it, which
    /// never happens when `verts` ascends and the rows of `self` do.
    pub fn induced_subgraph(&self, verts: &[u32]) -> (Graph, Vec<u32>) {
        let mut inv = vec![u32::MAX; self.n()];
        for (i, &v) in verts.iter().enumerate() {
            debug_assert_eq!(inv[v as usize], u32::MAX, "duplicate vertex {v}");
            inv[v as usize] = i as u32;
        }
        let mut xadj = Vec::with_capacity(verts.len() + 1);
        let mut total = 0usize;
        xadj.push(0);
        for &v in verts {
            total += self
                .neighbors(v)
                .iter()
                .filter(|&&u| inv[u as usize] != u32::MAX)
                .count();
            xadj.push(total);
        }
        let mut adjncy: Vec<u32> = Vec::with_capacity(total);
        let mut ewgt: Vec<f64> = Vec::with_capacity(total);
        for &v in verts {
            let start = adjncy.len();
            let mut ascending = true;
            for (u, w) in self.neighbors_w(v) {
                let j = inv[u as usize];
                if j != u32::MAX {
                    ascending &= adjncy.len() == start || adjncy[adjncy.len() - 1] < j;
                    adjncy.push(j);
                    ewgt.push(w);
                }
            }
            if !ascending {
                let mut row: Vec<(u32, f64)> = adjncy[start..]
                    .iter()
                    .copied()
                    .zip(ewgt[start..].iter().copied())
                    .collect();
                row.sort_unstable_by_key(|e| e.0);
                for (k, (j, w)) in row.into_iter().enumerate() {
                    adjncy[start + k] = j;
                    ewgt[start + k] = w;
                }
            }
        }
        let vwgt = verts.iter().map(|&v| self.vwgt(v)).collect();
        (Graph::from_csr(xadj, adjncy, ewgt, vwgt), verts.to_vec())
    }
}

/// Incremental builder accumulating an undirected edge list; deduplicates
/// parallel edges by summing their weights and silently drops self-loops.
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
    vwgt: Vec<f64>,
}

impl GraphBuilder {
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            vwgt: vec![1.0; n],
        }
    }

    /// Pre-size the edge buffer.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            vwgt: vec![1.0; n],
        }
    }

    /// Add an undirected edge (either endpoint order). Self-loops ignored.
    pub fn add_edge(&mut self, u: u32, v: u32, w: f64) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range"
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    pub fn set_vwgt(&mut self, v: u32, w: f64) {
        self.vwgt[v as usize] = w;
    }

    /// Number of (possibly duplicate) edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finish: sort, merge duplicates, emit symmetric CSR.
    ///
    /// Sorting and duplicate merging happen **in place** on the tuple
    /// buffer (a write cursor compacts the sorted run), so the transient
    /// peak is one tuple buffer plus the final CSR — not two tuple
    /// buffers, which is what the previous clone-into-`merged` cost.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable_by_key(|e| (e.0, e.1));
        // Merge duplicates in place: `w` is the write cursor over the
        // sorted run; equal (u, v) keys fold their weights into the last
        // written entry.
        let mut w = 0usize;
        for r in 0..self.edges.len() {
            let e = self.edges[r];
            if w > 0 && self.edges[w - 1].0 == e.0 && self.edges[w - 1].1 == e.1 {
                self.edges[w - 1].2 += e.2;
            } else {
                self.edges[w] = e;
                w += 1;
            }
        }
        self.edges.truncate(w);
        // Counting pass.
        let mut deg = vec![0usize; self.n];
        for &(u, v, _) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut xadj = Vec::with_capacity(self.n + 1);
        xadj.push(0usize);
        for d in &deg {
            xadj.push(xadj.last().unwrap() + d);
        }
        let total = *xadj.last().unwrap();
        let mut adjncy = vec![0u32; total];
        let mut ewgt = vec![0f64; total];
        let mut cursor = std::mem::take(&mut deg);
        cursor.copy_from_slice(&xadj[..self.n]);
        for &(u, v, w) in &self.edges {
            adjncy[cursor[u as usize]] = v;
            ewgt[cursor[u as usize]] = w;
            cursor[u as usize] += 1;
            adjncy[cursor[v as usize]] = u;
            ewgt[cursor[v as usize]] = w;
            cursor[v as usize] += 1;
        }
        Graph {
            xadj,
            adjncy,
            ewgt,
            vwgt: self.vwgt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 1.0);
        }
        b.build()
    }

    #[test]
    fn path_graph_structure() {
        let g = path(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_edges_merge_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.5);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        assert_eq!(g.m(), 2);
        let w = g.neighbors_w(0).find(|&(u, _)| u == 1).unwrap().1;
        assert_eq!(w, 3.5);
        g.validate().unwrap();
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.m(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn weights_and_totals() {
        let mut b = GraphBuilder::new(3);
        b.set_vwgt(0, 2.0);
        b.set_vwgt(1, 3.0);
        b.add_edge(0, 1, 4.0);
        b.add_edge(1, 2, 6.0);
        let g = b.build();
        assert_eq!(g.total_vwgt(), 6.0);
        assert_eq!(g.total_ewgt(), 10.0);
        assert_eq!(g.vwgt(0), 2.0);
        assert_eq!(g.avg_degree(), 4.0 / 3.0);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn validate_rejects_asymmetry() {
        // Hand-build a broken CSR: edge 0→1 without the reverse.
        let g = Graph::from_csr(vec![0, 1, 1], vec![1], vec![1.0], vec![1.0, 1.0]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        // Triangle 0-1-2 plus pendant 3; take {0, 1, 3}.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        let g = b.build();
        let (s, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(s.n(), 3);
        assert_eq!(s.m(), 1); // only 0-1 survives
        assert_eq!(map, vec![0, 1, 3]);
        s.validate().unwrap();
    }

    /// The extraction this one replaced: every row through the closure of
    /// `csr_from_rows`, which sorts each of them.
    fn induced_subgraph_by_rows(g: &Graph, verts: &[u32]) -> (Graph, Vec<u32>) {
        let mut inv = vec![u32::MAX; g.n()];
        for (i, &v) in verts.iter().enumerate() {
            inv[v as usize] = i as u32;
        }
        let vwgt: Vec<f64> = verts.iter().map(|&v| g.vwgt(v)).collect();
        let sub = crate::build::csr_from_rows(verts.len(), vwgt, |i, row| {
            for (u, w) in g.neighbors_w(verts[i as usize]) {
                let j = inv[u as usize];
                if j != u32::MAX {
                    row.push((j, w));
                }
            }
        });
        (sub, verts.to_vec())
    }

    #[test]
    fn induced_subgraph_matches_the_row_closure_path_byte_for_byte() {
        use crate::compact::CompactGraph;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5B6);
        for n in [1usize, 2, 40, 300] {
            let mut b = GraphBuilder::new(n);
            for _ in 0..4 * n {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                b.add_edge(u as u32, v as u32, rng.random_range(1..9) as f64 / 4.0);
            }
            for v in 0..n {
                b.set_vwgt(v as u32, rng.random_range(1..5) as f64);
            }
            let g = b.build();
            let compact = CompactGraph::from_graph(&g);
            let all: Vec<u32> = (0..n as u32).collect();
            let some: Vec<u32> = all
                .iter()
                .copied()
                .filter(|_| rng.random_range(0..3) > 0)
                .collect();
            let mut lists = vec![Vec::new(), all.clone(), some.clone()];
            lists.push(some.iter().rev().copied().collect());
            for base in [&all, &some] {
                let mut shuffled = base.clone();
                shuffled.shuffle(&mut rng);
                lists.push(shuffled);
            }
            for verts in &lists {
                let (sub, map) = g.induced_subgraph(verts);
                let (want, want_map) = induced_subgraph_by_rows(&g, verts);
                assert_eq!(sub.xadj(), want.xadj());
                assert_eq!(sub.adjncy(), want.adjncy());
                assert_eq!(sub.ewgts(), want.ewgts());
                assert_eq!(sub.vwgts(), want.vwgts());
                assert_eq!(map, want_map);
                sub.validate().unwrap();
                let (csub, cmap) = compact.induced_subgraph(verts);
                let csub = csub.to_graph();
                assert_eq!(csub.xadj(), sub.xadj());
                assert_eq!(csub.adjncy(), sub.adjncy());
                assert_eq!(csub.ewgts(), sub.ewgts());
                assert_eq!(csub.vwgts(), sub.vwgts());
                assert_eq!(cmap, map);
            }
        }
    }

    #[test]
    fn validate_takes_rows_in_any_order_and_still_checks_the_mirror() {
        // Triangle 0-1-2 with descending rows: every mirror lookup misses
        // at the cursor and falls back to the scan.
        let xadj = vec![0, 2, 4, 6];
        let adjncy = vec![2, 1, 2, 0, 1, 0];
        let unsorted = Graph::from_csr(xadj.clone(), adjncy.clone(), vec![1.0; 6], vec![1.0; 3]);
        unsorted.validate().unwrap();
        // The weight of 0→2 differs from that of 2→0.
        let mut ewgt = vec![1.0; 6];
        ewgt[0] = 2.0;
        let skewed = Graph::from_csr(xadj, adjncy, ewgt, vec![1.0; 3]);
        assert!(skewed.validate().is_err());
        // Ascending rows, one weight asymmetric: the cursor finds the
        // neighbour and must still compare the weight.
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 3)] {
            b.add_edge(u, v, 1.5);
        }
        let good = b.build();
        good.validate().unwrap();
        let mut ewgt = good.ewgts().to_vec();
        *ewgt.last_mut().unwrap() = 2.5; // 3→2 against 2→3 at 1.5
        let bad = Graph::from_csr(
            good.xadj().to_vec(),
            good.adjncy().to_vec(),
            ewgt,
            good.vwgts().to_vec(),
        );
        assert!(bad.validate().is_err());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        g.validate().unwrap();
    }
}

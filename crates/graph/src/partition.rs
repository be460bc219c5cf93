//! Bisections and partition-quality metrics.
//!
//! The paper partitions into two parts (`V₁`, `V₂`) of nearly equal size and
//! measures quality as the edge-separator size (cut). We track weighted cut
//! and weighted part sizes so the same code serves coarse graphs.

use crate::csr::Graph;

/// A two-way partition: `side[v] ∈ {0, 1}`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bisection {
    side: Vec<u8>,
}

impl Bisection {
    pub fn new(side: Vec<u8>) -> Self {
        debug_assert!(side.iter().all(|&s| s <= 1));
        Bisection { side }
    }

    /// All vertices on side 0.
    pub fn from_fn(n: usize, f: impl Fn(u32) -> bool) -> Self {
        Bisection {
            side: (0..n as u32).map(|v| u8::from(f(v))).collect(),
        }
    }

    #[inline]
    pub fn side(&self, v: u32) -> u8 {
        self.side[v as usize]
    }

    #[inline]
    pub fn set(&mut self, v: u32, s: u8) {
        debug_assert!(s <= 1);
        self.side[v as usize] = s;
    }

    #[inline]
    pub fn flip(&mut self, v: u32) {
        self.side[v as usize] ^= 1;
    }

    pub fn len(&self) -> usize {
        self.side.len()
    }

    pub fn is_empty(&self) -> bool {
        self.side.is_empty()
    }

    pub fn sides(&self) -> &[u8] {
        &self.side
    }

    /// Number of vertices on each side.
    pub fn counts(&self) -> (usize, usize) {
        let ones = self.side.iter().map(|&s| s as usize).sum::<usize>();
        (self.side.len() - ones, ones)
    }

    /// Vertex-weight on each side.
    pub fn weights(&self, g: &Graph) -> (f64, f64) {
        let mut w = [0.0f64; 2];
        for v in 0..g.n() as u32 {
            w[self.side(v) as usize] += g.vwgt(v);
        }
        (w[0], w[1])
    }

    /// Weighted cut: total weight of edges with endpoints on opposite sides.
    pub fn cut(&self, g: &Graph) -> f64 {
        let mut c = 0.0;
        for v in 0..g.n() as u32 {
            let sv = self.side(v);
            for (u, w) in g.neighbors_w(v) {
                if u > v && self.side(u) != sv {
                    c += w;
                }
            }
        }
        c
    }

    /// Number of cut edges (unweighted separator size |S|).
    pub fn cut_edges(&self, g: &Graph) -> usize {
        let mut c = 0;
        for v in 0..g.n() as u32 {
            let sv = self.side(v);
            for &u in g.neighbors(v) {
                if u > v && self.side(u) != sv {
                    c += 1;
                }
            }
        }
        c
    }

    /// Vertices incident to at least one cut edge.
    pub fn boundary(&self, g: &Graph) -> Vec<u32> {
        let mut out = Vec::new();
        for v in 0..g.n() as u32 {
            let sv = self.side(v);
            if g.neighbors(v).iter().any(|&u| self.side(u) != sv) {
                out.push(v);
            }
        }
        out
    }

    /// Weighted imbalance: `max(w0, w1) / (total / 2) − 1` (0 = perfect).
    pub fn imbalance(&self, g: &Graph) -> f64 {
        let (w0, w1) = self.weights(g);
        let total = w0 + w1;
        if total <= 0.0 {
            return 0.0;
        }
        w0.max(w1) / (total / 2.0) - 1.0
    }

    /// Check that the bisection covers the graph and neither side is empty
    /// (for non-trivial graphs).
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.side.len() != g.n() {
            return Err(format!(
                "bisection covers {} of {} vertices",
                self.side.len(),
                g.n()
            ));
        }
        if g.n() >= 2 {
            let (a, b) = self.counts();
            if a == 0 || b == 0 {
                return Err(format!("degenerate bisection: sizes ({a}, {b})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as u32, ((i + 1) % n) as u32, 1.0);
        }
        b.build()
    }

    #[test]
    fn cycle_half_split_cuts_two() {
        let g = cycle(8);
        let bi = Bisection::from_fn(8, |v| v >= 4);
        assert_eq!(bi.cut(&g), 2.0);
        assert_eq!(bi.cut_edges(&g), 2);
        assert_eq!(bi.counts(), (4, 4));
        assert_eq!(bi.imbalance(&g), 0.0);
        bi.validate(&g).unwrap();
    }

    #[test]
    fn boundary_of_cycle_split() {
        let g = cycle(8);
        let bi = Bisection::from_fn(8, |v| v >= 4);
        let mut b = bi.boundary(&g);
        b.sort_unstable();
        assert_eq!(b, vec![0, 3, 4, 7]);
    }

    #[test]
    fn weighted_cut_and_imbalance() {
        let mut gb = GraphBuilder::new(4);
        gb.add_edge(0, 1, 5.0);
        gb.add_edge(2, 3, 1.0);
        gb.add_edge(1, 2, 3.0);
        gb.set_vwgt(0, 3.0);
        let g = gb.build();
        let bi = Bisection::new(vec![0, 0, 1, 1]);
        assert_eq!(bi.cut(&g), 3.0);
        let (w0, w1) = bi.weights(&g);
        assert_eq!((w0, w1), (4.0, 2.0));
        assert!((bi.imbalance(&g) - (4.0 / 3.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn flip_changes_cut() {
        let g = cycle(4);
        let mut bi = Bisection::new(vec![0, 0, 1, 1]);
        assert_eq!(bi.cut(&g), 2.0);
        bi.flip(1);
        assert_eq!(bi.cut(&g), 2.0); // cycle of 4: still 2 crossing edges
        bi.flip(0);
        assert_eq!(bi.counts(), (0, 4));
    }

    #[test]
    fn degenerate_bisection_rejected() {
        let g = cycle(4);
        let bi = Bisection::new(vec![0, 0, 0, 0]);
        assert!(bi.validate(&g).is_err());
        let short = Bisection::new(vec![0, 1]);
        assert!(short.validate(&g).is_err());
    }

    #[test]
    fn quality_snapshot() {
        let g = cycle(6);
        let bi = Bisection::from_fn(6, |v| v >= 3);
        assert_eq!(bi.cut_edges(&g), 2);
        assert_eq!(bi.counts(), (3, 3));
        assert_eq!(bi.imbalance(&g), 0.0);
    }
}

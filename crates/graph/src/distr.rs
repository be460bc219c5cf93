//! Distributing graph vertices over simulated ranks.
//!
//! The paper reads the graph "in approximately equal sized chunks" (block
//! distribution) and later redistributes by lattice sub-domain once
//! coordinates exist. Both mappings live here, as does the bookkeeping a
//! rank needs about its boundary and ghost vertices.

use crate::build::{chunk_len, chunk_rows};
use crate::csr::Graph;
use sp_geometry::{Aabb2, Point2};
use sp_machine::pool;

/// Vertices a graph must have before [`Distribution::cross_edges`] counts
/// on the pool. Measured on a 2-vCPU host, grids on 8 ranks, best of 30,
/// pooled against inline: 8,100 vertices 37 / 37 µs, 32,761 vertices
/// 95 / 134 µs, 65,536 vertices 248 / 329 µs. The floor keeps graphs the
/// size of `sp-serve`'s misses (a 128×128 grid) inline.
const MIN_POOLED_CROSS: usize = 20_000;

/// An assignment of every vertex to a rank.
#[derive(Clone, Debug)]
pub struct Distribution {
    /// `owner[v]` = rank that owns vertex `v`.
    pub owner: Vec<u32>,
    /// Number of ranks.
    pub p: usize,
}

impl Distribution {
    /// Contiguous block distribution: vertex `v` goes to rank
    /// `v / ceil(n/p)` (the paper's initial read-in layout).
    pub fn block(n: usize, p: usize) -> Self {
        assert!(p >= 1);
        let chunk = n.div_ceil(p.max(1)).max(1);
        let owner = (0..n)
            .map(|v| ((v / chunk) as u32).min(p as u32 - 1))
            .collect();
        Distribution { owner, p }
    }

    /// Lattice distribution: rank = lattice cell of the vertex coordinate on
    /// a `q × q` grid over `bbox` (row-major: rank = j·q + i).
    pub fn lattice(coords: &[Point2], bbox: &Aabb2, q: usize) -> Self {
        let owner = coords
            .iter()
            .map(|&c| {
                let (i, j) = bbox.cell_of(q, c);
                (j * q + i) as u32
            })
            .collect();
        Distribution { owner, p: q * q }
    }

    /// Vertices owned by each rank.
    pub fn rank_vertices(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.p];
        for (v, &r) in self.owner.iter().enumerate() {
            out[r as usize].push(v as u32);
        }
        out
    }

    /// Per-rank vertex counts.
    pub fn rank_sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.p];
        for &r in &self.owner {
            s[r as usize] += 1;
        }
        s
    }

    /// Load imbalance: `max_size / (n/p)`; 1.0 is perfect.
    pub fn imbalance(&self) -> f64 {
        if self.owner.is_empty() {
            return 1.0;
        }
        let max = *self.rank_sizes().iter().max().unwrap() as f64;
        max / (self.owner.len() as f64 / self.p as f64)
    }

    /// Total number of edges crossing rank boundaries (each counted once),
    /// one range of vertices a piece on the pool when the graph is large
    /// enough to pay for it. The integer sum of the ranges' counts is the
    /// same however they ran.
    pub fn cross_edges(&self, g: &Graph) -> usize {
        let n = g.n();
        let chunk = chunk_len(n);
        let mut counts = vec![0usize; n.div_ceil(chunk)];
        pool::each_if(n >= MIN_POOLED_CROSS, counts.iter_mut(), |c, count| {
            for v in chunk_rows(c, chunk, n) {
                let v = v as u32;
                let own = self.owner[v as usize];
                *count += g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| u > v && self.owner[u as usize] != own)
                    .count();
            }
        });
        counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid::{grid_2d, grid_2d_coords};

    #[test]
    fn block_distribution_is_balanced() {
        let d = Distribution::block(103, 8);
        assert_eq!(d.owner.len(), 103);
        let sizes = d.rank_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().all(|&s| s <= 13 + 1));
        assert!(d.imbalance() < 1.15);
    }

    #[test]
    fn block_handles_p_greater_than_n() {
        let d = Distribution::block(3, 8);
        assert_eq!(d.rank_sizes().iter().sum::<usize>(), 3);
        assert!(d.owner.iter().all(|&r| (r as usize) < 8));
    }

    #[test]
    fn lattice_distribution_respects_cells() {
        let coords = grid_2d_coords(8, 8);
        let bb = Aabb2::unit();
        let d = Distribution::lattice(&coords, &bb, 2);
        assert_eq!(d.p, 4);
        // Vertex at (0,0) is in cell (0,0) = rank 0; at (1,1) rank 3.
        assert_eq!(d.owner[0], 0);
        assert_eq!(d.owner[63], 3);
        // Roughly a quarter each.
        let sizes = d.rank_sizes();
        assert!(sizes.iter().all(|&s| (9..=25).contains(&s)), "{sizes:?}");
    }

    #[test]
    fn cross_edges_count_the_seam() {
        let g = grid_2d(4, 4);
        // Rows 0-1 vs 2-3: the seam is the four edges between rows 1 and 2.
        let d = Distribution::block(16, 2);
        assert_eq!(d.cross_edges(&g), 4);
    }

    #[test]
    fn single_rank_has_no_boundary() {
        let g = grid_2d(3, 3);
        let d = Distribution::block(9, 1);
        assert_eq!(d.cross_edges(&g), 0);
    }
}

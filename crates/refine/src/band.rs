//! Hop-based band selection (the Pt-Scotch band-graph approach the paper
//! contrasts its strip with): movable vertices are those within `hops` BFS
//! steps of a cut-edge endpoint.

use sp_graph::{Bisection, Graph};
use std::collections::VecDeque;

/// Movable mask of vertices within `hops` hops of the current cut, and
/// `bi`'s weighted cut.
///
/// The cut is summed during the boundary scan in
/// [`cut_of`](sp_graph::access::cut_of)'s order (ascending `v`, each row
/// in its order, `u > v`), so it has `cut_of`'s bits: only a boundary
/// vertex has a cut edge, and its row is read on from its first cut edge
/// to its end.
pub fn band_by_hops(g: &Graph, bi: &Bisection, hops: u32) -> (Vec<bool>, f64) {
    let n = g.n();
    let mut dist = vec![u32::MAX; n];
    let mut q = VecDeque::new();
    let mut cut = 0.0;
    for v in 0..n as u32 {
        let sv = bi.side(v);
        let Some(first) = g.neighbors(v).iter().position(|&u| bi.side(u) != sv) else {
            continue;
        };
        dist[v as usize] = 0;
        q.push_back(v);
        for (u, w) in g.neighbors_w(v).skip(first) {
            if u > v && bi.side(u) != sv {
                cut += w;
            }
        }
    }
    while let Some(v) = q.pop_front() {
        let d = dist[v as usize];
        if d >= hops {
            continue;
        }
        for &u in g.neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = d + 1;
                q.push_back(u);
            }
        }
    }
    (dist.into_iter().map(|d| d != u32::MAX).collect(), cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sp_graph::access::cut_of;
    use sp_graph::gen::{delaunay_graph, grid_2d};
    use sp_graph::GraphBuilder;

    #[test]
    fn the_band_cut_has_the_bits_of_cut_of() {
        let mut rng = StdRng::seed_from_u64(0xBA4D);
        let (mesh, coords) = delaunay_graph(1200, &mut rng);
        // Edge weights from [0.1, 3.0): the order of summation shows.
        let mut b = GraphBuilder::new(mesh.n());
        for v in 0..mesh.n() as u32 {
            for &u in mesh.neighbors(v).iter().filter(|&&u| u > v) {
                b.add_edge(v, u, rng.random_range(0.1..3.0));
            }
        }
        let g = b.build();
        for round in 0..4 {
            // A wavy split with a few stray vertices on the wrong side.
            let stray: Vec<bool> = (0..g.n())
                .map(|_| rng.random_range(0.0..1.0) < 0.05)
                .collect();
            let bi = Bisection::from_fn(g.n(), |v| {
                let c = coords[v as usize];
                (c.x - 0.5 - 0.1 * (7.0 * c.y + round as f64).sin() > 0.0) != stray[v as usize]
            });
            for hops in [0, 1, 3] {
                let (band, cut) = band_by_hops(&g, &bi, hops);
                assert_eq!(cut.to_bits(), cut_of(&g, &bi).to_bits(), "hops {hops}");
                assert!(band.iter().any(|&b| b));
            }
        }
    }

    #[test]
    fn band_zero_is_exactly_the_boundary() {
        let g = grid_2d(8, 8);
        let bi = Bisection::from_fn(g.n(), |v| (v as usize % 8) >= 4);
        let (mask, _) = band_by_hops(&g, &bi, 0);
        let boundary = bi.boundary(&g);
        let in_mask: Vec<u32> = (0..g.n() as u32).filter(|&v| mask[v as usize]).collect();
        assert_eq!(in_mask, boundary);
    }

    #[test]
    fn band_grows_with_hops() {
        let g = grid_2d(10, 10);
        let bi = Bisection::from_fn(g.n(), |v| (v as usize % 10) >= 5);
        let c0 = band_by_hops(&g, &bi, 0).0.iter().filter(|&&b| b).count();
        let c2 = band_by_hops(&g, &bi, 2).0.iter().filter(|&&b| b).count();
        assert!(c2 > c0);
        assert_eq!(c0, 20); // two columns flank the cut
        assert_eq!(c2, 60); // six columns
    }

    #[test]
    fn uncut_graph_has_empty_band() {
        let g = grid_2d(4, 4);
        let bi = Bisection::from_fn(g.n(), |_| false);
        let (band, cut) = band_by_hops(&g, &bi, 3);
        assert!(band.iter().all(|&b| !b));
        assert_eq!(cut, 0.0);
    }
}

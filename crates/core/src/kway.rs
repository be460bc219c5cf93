//! K-way partitioning by recursive bisection.
//!
//! The paper evaluates single edge separators; a deployable partitioner
//! also needs k parts. This module applies any of the bisection methods
//! recursively, with rank groups split proportionally at each level — the
//! standard recursive-bisection construction used by Chaco and the
//! geometric partitioners the paper builds on.
//!
//! Limitation: every bisection here splits at the weight median (50/50),
//! so for k that is not a power of two the deeper side of the recursion
//! over-weights its parts (k = 3 yields ≈ 25/25/50). Power-of-two k is
//! balanced to the underlying bisector's tolerance.

use crate::methods::{run_method_checked, Method};
use crate::observe::{Cancelled, NoopObserver, PipelineObserver};
use sp_geometry::Point2;
use sp_graph::Graph;
use sp_machine::{CostModel, Machine};

/// A k-way partition: `part[v] ∈ 0..k`.
#[derive(Clone, Debug)]
pub struct KWayPartition {
    pub part: Vec<u32>,
    pub k: usize,
}

/// Quality statistics of a [`KWayPartition`] on a particular graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionSummary {
    pub n: usize,
    pub k: usize,
    pub edge_cut: f64,
    pub cut_edges: usize,
    pub imbalance: f64,
    pub comm_volume: usize,
}

impl KWayPartition {
    /// Total weight of edges crossing parts.
    pub fn edge_cut(&self, g: &Graph) -> f64 {
        let mut cut = 0.0;
        for v in 0..g.n() as u32 {
            for (u, w) in g.neighbors_w(v) {
                if u > v && self.part[u as usize] != self.part[v as usize] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Number of cut edges.
    pub fn cut_edges(&self, g: &Graph) -> usize {
        let mut cut = 0;
        for v in 0..g.n() as u32 {
            for &u in g.neighbors(v) {
                if u > v && self.part[u as usize] != self.part[v as usize] {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Per-part vertex weights.
    pub fn part_weights(&self, g: &Graph) -> Vec<f64> {
        let mut w = vec![0.0; self.k];
        for v in 0..g.n() as u32 {
            w[self.part[v as usize] as usize] += g.vwgt(v);
        }
        w
    }

    /// `max part weight / (total/k)` − 1; 0 is perfect balance.
    pub fn imbalance(&self, g: &Graph) -> f64 {
        let w = self.part_weights(g);
        let total: f64 = w.iter().sum();
        if total <= 0.0 || self.k == 0 {
            return 0.0;
        }
        let max = w.iter().copied().fold(0.0, f64::max);
        max / (total / self.k as f64) - 1.0
    }

    /// Total communication volume: for each vertex, the number of distinct
    /// foreign parts among its neighbours (the standard model for halo
    /// exchange volume in a simulation).
    pub fn comm_volume(&self, g: &Graph) -> usize {
        let mut vol = 0;
        let mut seen: Vec<u32> = Vec::new();
        for v in 0..g.n() as u32 {
            seen.clear();
            let pv = self.part[v as usize];
            for &u in g.neighbors(v) {
                let pu = self.part[u as usize];
                if pu != pv && !seen.contains(&pu) {
                    seen.push(pu);
                }
            }
            vol += seen.len();
        }
        vol
    }

    /// Quality summary of this partition on `g` — the figures the
    /// `scalapart` CLI prints and the sp-serve response reports.
    pub fn summary(&self, g: &Graph) -> PartitionSummary {
        PartitionSummary {
            n: g.n(),
            k: self.k,
            edge_cut: self.edge_cut(g),
            cut_edges: self.cut_edges(g),
            imbalance: self.imbalance(g),
            comm_volume: self.comm_volume(g),
        }
    }

    /// Serialize the partition as JSON: the label vector plus the
    /// [`summary`](Self::summary) statistics. This is the one
    /// serialization path shared by the `scalapart` CLI (`--json`) and the
    /// sp-serve submit response, so clients of either see the same schema.
    /// Floats use Rust's shortest round-trip `Display`, which is valid
    /// JSON and parses back bit-identically.
    pub fn to_json(&self, g: &Graph) -> String {
        let s = self.summary(g);
        let mut out = String::with_capacity(32 + 4 * self.part.len());
        out.push_str("{\"schema\": \"sp-partition-v1\"");
        out.push_str(&format!(", \"n\": {}", s.n));
        out.push_str(&format!(", \"k\": {}", s.k));
        out.push_str(&format!(", \"edge_cut\": {}", s.edge_cut));
        out.push_str(&format!(", \"cut_edges\": {}", s.cut_edges));
        out.push_str(&format!(", \"imbalance\": {}", s.imbalance));
        out.push_str(&format!(", \"comm_volume\": {}", s.comm_volume));
        out.push_str(", \"part\": [");
        for (i, p) in self.part.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.to_string());
        }
        out.push_str("]}");
        out
    }

    /// Sanity: covers the graph, parts in range, no empty part when
    /// `k ≤ n`.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.part.len() != g.n() {
            return Err("partition length mismatch".into());
        }
        let mut seen = vec![false; self.k];
        for &p in &self.part {
            if p as usize >= self.k {
                return Err(format!("part {p} out of range"));
            }
            seen[p as usize] = true;
        }
        if self.k <= g.n() && !seen.iter().all(|&b| b) {
            return Err("empty part".into());
        }
        Ok(())
    }
}

/// Recursively bisect `g` into `k` parts using `method` on `p` simulated
/// ranks (rank groups are split proportionally to the part sizes at each
/// level, as the paper's multilevel competitors do).
pub fn recursive_kway(
    method: Method,
    g: &Graph,
    coords: Option<&[Point2]>,
    k: usize,
    p: usize,
    seed: u64,
) -> KWayPartition {
    recursive_kway_impl(method, g, coords, k, p, seed, None, &mut NoopObserver)
        .expect("NoopObserver never cancels")
}

/// Like [`recursive_kway`], but the *root* bisection runs on the supplied
/// machine, so a recorder installed there traces it (the recursion's
/// sub-bisections run on fresh machines for their shrunken rank groups).
/// For `k = 2` this traces the entire run.
pub fn recursive_kway_on(
    method: Method,
    g: &Graph,
    coords: Option<&[Point2]>,
    k: usize,
    seed: u64,
    machine: &mut Machine,
) -> KWayPartition {
    let p = machine.p();
    recursive_kway_impl(
        method,
        g,
        coords,
        k,
        p,
        seed,
        Some(machine),
        &mut NoopObserver,
    )
    .expect("NoopObserver never cancels")
}

/// Cancellable [`recursive_kway_on`]: the observer's
/// [`poll_cancel`](PipelineObserver::poll_cancel) is checked before every
/// recursive split and, for the ScalaPart method, at every pipeline
/// checkpoint inside each bisection. On `Err(Cancelled)` the partial
/// labelling is discarded. This is sp-serve's per-job entry point: each
/// job runs on a fresh machine with a deadline-polling observer.
pub fn recursive_kway_checked_on(
    method: Method,
    g: &Graph,
    coords: Option<&[Point2]>,
    k: usize,
    seed: u64,
    machine: &mut Machine,
    obs: &mut dyn PipelineObserver,
) -> Result<KWayPartition, Cancelled> {
    let p = machine.p();
    recursive_kway_impl(method, g, coords, k, p, seed, Some(machine), obs)
}

#[allow(clippy::too_many_arguments)]
fn recursive_kway_impl(
    method: Method,
    g: &Graph,
    coords: Option<&[Point2]>,
    k: usize,
    p: usize,
    seed: u64,
    machine: Option<&mut Machine>,
    obs: &mut dyn PipelineObserver,
) -> Result<KWayPartition, Cancelled> {
    assert!(k >= 1);
    let mut part = vec![0u32; g.n()];
    if k > 1 && g.n() >= 2 {
        // The root is bisected where it lies: nothing to cut out of.
        if obs.poll_cancel() {
            return Err(Cancelled);
        }
        let root = Node {
            g,
            coords,
            ids: None,
        };
        bisect(method, &root, 0, k, p, seed, &mut part, machine, obs)?;
    }
    Ok(KWayPartition { part, k })
}

/// One graph of the recursion: what a bisection runs on, and what its
/// children are cut out of.
struct Node<'a> {
    g: &'a Graph,
    coords: Option<&'a [Point2]>,
    /// The input graph's id of every vertex of `g`; `None` at the root,
    /// which is the input graph.
    ids: Option<&'a [u32]>,
}

/// Cut the child on `verts` (ids in `parent.g`, ascending) out of its
/// parent and partition it into parts `first_part .. first_part + k`.
///
/// The polls are a sequence callers count: one here, before the
/// extraction, then the three of [`run_method_checked`].
#[allow(clippy::too_many_arguments)]
fn split(
    method: Method,
    parent: &Node,
    verts: Vec<u32>,
    first_part: u32,
    k: usize,
    p: usize,
    seed: u64,
    out: &mut [u32],
    obs: &mut dyn PipelineObserver,
) -> Result<(), Cancelled> {
    if k <= 1 || verts.len() < 2 {
        for &v in &verts {
            out[parent.ids.map_or(v, |ids| ids[v as usize]) as usize] = first_part;
        }
        return Ok(());
    }
    if obs.poll_cancel() {
        return Err(Cancelled);
    }
    let (sub, mut ids) = parent.g.induced_subgraph(&verts);
    let coords: Option<Vec<Point2>> = parent
        .coords
        .map(|c| verts.iter().map(|&v| c[v as usize]).collect());
    drop(verts);
    if let Some(parent_ids) = parent.ids {
        for v in &mut ids {
            *v = parent_ids[*v as usize];
        }
    }
    let node = Node {
        g: &sub,
        coords: coords.as_deref(),
        ids: Some(&ids),
    };
    bisect(method, &node, first_part, k, p, seed, out, None, obs)
}

/// Bisect `node.g` (`k ≥ 2` parts to make, at least two vertices) and
/// [`split`] each side further.
#[allow(clippy::too_many_arguments)]
fn bisect(
    method: Method,
    node: &Node,
    first_part: u32,
    k: usize,
    p: usize,
    seed: u64,
    out: &mut [u32],
    machine: Option<&mut Machine>,
    obs: &mut dyn PipelineObserver,
) -> Result<(), Cancelled> {
    // Split k into proportional halves (handles non-powers of two).
    let k0 = k / 2;
    let k1 = k - k0;
    let bisection = {
        let mut fresh;
        let machine = match machine {
            Some(m) => m,
            None => {
                fresh = Machine::new(p.max(1), CostModel::qdr_infiniband());
                &mut fresh
            }
        };
        let seed = seed ^ first_part as u64;
        run_method_checked(method, node.g, node.coords, machine, seed, obs)?.bisection
    };
    // Assign the lighter side to the smaller k when k is odd so part
    // weights track k0 : k1.
    let (w0, w1) = bisection.weights(node.g);
    let zero_gets_k0 = (w0 <= w1) == (k0 <= k1);
    // Both side lists in one pass, at their final size. A vertex picks its
    // list by index, not by branch: in id order the sides alternate at
    // random, and the mispredictions cost twice what the pass does.
    let (n0, n1) = bisection.counts();
    let (len0, len1) = if zero_gets_k0 { (n0, n1) } else { (n1, n0) };
    let mut sides = [Vec::with_capacity(len0), Vec::with_capacity(len1)];
    for (v, &s) in bisection.sides().iter().enumerate() {
        sides[usize::from((s == 0) != zero_gets_k0)].push(v as u32);
    }
    let [side0, side1] = sides;
    // The recursion below holds only what it still needs: this node and
    // the side not yet cut out of it.
    drop(bisection);
    let p0 = ((p * k0) / k).max(1);
    let p1 = (p - p0).max(1);
    split(method, node, side0, first_part, k0, p0, seed, out, obs)?;
    split(
        method,
        node,
        side1,
        first_part + k0 as u32,
        k1,
        p1,
        seed,
        out,
        obs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::{grid_2d, grid_2d_coords};

    #[test]
    fn four_way_grid_partition_is_balanced() {
        let g = grid_2d(24, 24);
        let coords = grid_2d_coords(24, 24);
        let kp = recursive_kway(Method::Rcb, &g, Some(&coords), 4, 8, 1);
        kp.validate(&g).unwrap();
        assert!(kp.imbalance(&g) < 0.05, "imbalance {}", kp.imbalance(&g));
        // Four quadrants of a grid: cut ≈ 2 × 24 = 48.
        assert!(kp.cut_edges(&g) <= 96, "cut {}", kp.cut_edges(&g));
    }

    #[test]
    fn odd_k_is_valid_with_documented_imbalance() {
        // Median bisections give k = 3 parts of ≈ 25/25/50: the imbalance
        // is bounded by 0.5 (see module docs), not unbounded.
        let g = grid_2d(21, 21);
        let coords = grid_2d_coords(21, 21);
        let kp = recursive_kway(Method::Rcb, &g, Some(&coords), 3, 4, 2);
        kp.validate(&g).unwrap();
        assert!(kp.imbalance(&g) < 0.55, "imbalance {}", kp.imbalance(&g));
        let w = kp.part_weights(&g);
        assert!(w.iter().all(|&wi| wi > 0.0));
    }

    #[test]
    fn eight_way_partition_is_balanced() {
        let g = grid_2d(32, 32);
        let coords = grid_2d_coords(32, 32);
        let kp = recursive_kway(Method::Rcb, &g, Some(&coords), 8, 8, 5);
        kp.validate(&g).unwrap();
        assert!(kp.imbalance(&g) < 0.05, "imbalance {}", kp.imbalance(&g));
        assert!(kp.comm_volume(&g) >= kp.cut_edges(&g) / 2);
    }

    #[test]
    fn scalapart_kway_works_without_coords() {
        let g = grid_2d(20, 20);
        let kp = recursive_kway(Method::ScalaPart, &g, None, 4, 16, 3);
        kp.validate(&g).unwrap();
        assert!(kp.imbalance(&g) < 0.25, "imbalance {}", kp.imbalance(&g));
        assert!(kp.cut_edges(&g) < g.m() / 3);
    }

    #[test]
    fn kway_on_machine_matches_plain_and_traces_root() {
        use sp_machine::{CostModel, TraceRecorder};
        let g = grid_2d(24, 24);
        let coords = grid_2d_coords(24, 24);
        let mut m = Machine::new(8, CostModel::qdr_infiniband());
        m.set_recorder(Box::new(TraceRecorder::new(8)));
        let kp = recursive_kway_on(Method::Rcb, &g, Some(&coords), 4, 1, &mut m);
        kp.validate(&g).unwrap();
        let plain = recursive_kway(Method::Rcb, &g, Some(&coords), 4, 8, 1);
        assert_eq!(kp.part, plain.part);
        let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
        assert!(!rec.is_empty());
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = grid_2d(5, 5);
        let kp = recursive_kway(Method::Rcb, &g, None, 1, 1, 4);
        kp.validate(&g).unwrap();
        assert_eq!(kp.cut_edges(&g), 0);
        assert_eq!(kp.imbalance(&g), 0.0);
    }

    #[test]
    fn to_json_shares_the_cli_service_schema() {
        let g = grid_2d(4, 4);
        let kp = recursive_kway(Method::Rcb, &g, Some(&grid_2d_coords(4, 4)), 2, 2, 1);
        let j = kp.to_json(&g);
        assert!(j.starts_with("{\"schema\": \"sp-partition-v1\""), "{j}");
        assert!(j.contains("\"n\": 16"));
        assert!(j.contains("\"k\": 2"));
        assert!(j.contains("\"part\": ["));
        assert!(j.matches(',').count() >= 16, "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        let s = kp.summary(&g);
        assert!(j.contains(&format!("\"cut_edges\": {}", s.cut_edges)));
        assert!(j.contains(&format!("\"comm_volume\": {}", s.comm_volume)));
    }

    /// Observer that cancels after a fixed number of checkpoint polls.
    struct CancelAfter(usize);
    impl crate::observe::PipelineObserver for CancelAfter {
        fn poll_cancel(&mut self) -> bool {
            if self.0 == 0 {
                return true;
            }
            self.0 -= 1;
            false
        }
    }

    #[test]
    fn checked_kway_cancels_cooperatively_and_cleanly() {
        use sp_machine::CostModel;
        let g = grid_2d(24, 24);
        let coords = grid_2d_coords(24, 24);
        // Immediate cancellation: caught at the very first checkpoint.
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let r = recursive_kway_checked_on(
            Method::ScalaPart,
            &g,
            None,
            4,
            1,
            &mut m,
            &mut CancelAfter(0),
        );
        assert!(matches!(r, Err(Cancelled)));
        // Mid-pipeline cancellation: a few checkpoints in, still Err.
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let r = recursive_kway_checked_on(
            Method::ScalaPart,
            &g,
            None,
            4,
            1,
            &mut m,
            &mut CancelAfter(3),
        );
        assert!(r.is_err());
        // A never-cancelling observer matches the plain entry point
        // bit-exactly — the checkpoints themselves perturb nothing.
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let kp = recursive_kway_checked_on(
            Method::ScalaPart,
            &g,
            Some(&coords),
            4,
            1,
            &mut m,
            &mut CancelAfter(usize::MAX),
        )
        .unwrap();
        let plain = recursive_kway(Method::ScalaPart, &g, Some(&coords), 4, 4, 1);
        assert_eq!(kp.part, plain.part);
    }

    /// The recursion this one replaced: every child, the root included, cut
    /// out of the input graph by its input-graph ids.
    #[allow(clippy::too_many_arguments)]
    fn split_from_root(
        method: Method,
        g: &Graph,
        coords: Option<&[Point2]>,
        verts: &[u32],
        first_part: u32,
        k: usize,
        p: usize,
        seed: u64,
        out: &mut [u32],
    ) {
        if k <= 1 || verts.len() < 2 {
            for &v in verts {
                out[v as usize] = first_part;
            }
            return;
        }
        let (k0, k1) = (k / 2, k - k / 2);
        let (sub, map) = g.induced_subgraph(verts);
        let sub_coords: Option<Vec<Point2>> =
            coords.map(|c| map.iter().map(|&v| c[v as usize]).collect());
        let mut m = Machine::new(p.max(1), CostModel::qdr_infiniband());
        let r = crate::methods::run_method_on(
            method,
            &sub,
            sub_coords.as_deref(),
            &mut m,
            seed ^ first_part as u64,
        );
        let (w0, w1) = r.bisection.weights(&sub);
        let zero_gets_k0 = (w0 <= w1) == (k0 <= k1);
        let mut side0 = Vec::new();
        let mut side1 = Vec::new();
        for (i, &v) in map.iter().enumerate() {
            if (r.bisection.side(i as u32) == 0) == zero_gets_k0 {
                side0.push(v);
            } else {
                side1.push(v);
            }
        }
        let p0 = ((p * k0) / k).max(1);
        let p1 = (p - p0).max(1);
        split_from_root(method, g, coords, &side0, first_part, k0, p0, seed, out);
        let first1 = first_part + k0 as u32;
        split_from_root(method, g, coords, &side1, first1, k1, p1, seed, out);
    }

    fn kway_from_root(
        method: Method,
        g: &Graph,
        coords: Option<&[Point2]>,
        k: usize,
        p: usize,
        seed: u64,
    ) -> Vec<u32> {
        let mut part = vec![0u32; g.n()];
        let verts: Vec<u32> = (0..g.n() as u32).collect();
        split_from_root(method, g, coords, &verts, 0, k, p, seed, &mut part);
        part
    }

    fn label_fingerprint(part: &[u32]) -> u64 {
        let mut fp = sp_machine::trace::fnv::Fingerprint::new();
        for &l in part {
            fp.u64(l as u64);
        }
        fp.finish()
    }

    #[test]
    fn children_cut_from_their_parent_get_the_labels_of_children_cut_from_the_root() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let grid = (grid_2d(24, 20), grid_2d_coords(24, 20));
        let mesh = sp_graph::gen::delaunay_graph(500, &mut StdRng::seed_from_u64(0xDE1));
        for (g, coords) in [&grid, &mesh] {
            for method in [Method::Rcb, Method::SpPg7Nl, Method::ParMetisLike] {
                for k in [2usize, 3, 5, 8, 64] {
                    let kp = recursive_kway(method, g, Some(coords), k, 16, 7);
                    kp.validate(g).unwrap();
                    assert_eq!(
                        kp.part,
                        kway_from_root(method, g, Some(coords), k, 16, 7),
                        "{} k={k} n={}",
                        method.name(),
                        g.n()
                    );
                }
            }
        }
        let kp = recursive_kway(Method::ScalaPart, &grid.0, None, 4, 16, 3);
        assert_eq!(
            kp.part,
            kway_from_root(Method::ScalaPart, &grid.0, None, 4, 16, 3)
        );
    }

    #[test]
    fn labels_are_those_of_the_commit_that_cut_every_child_from_the_root() {
        // FNV-1a over the labels, recorded at the last commit whose `split`
        // extracted from the input graph (PR 16). RCB on grid coordinates
        // draws no random number, so the values hold under any `rand`.
        let g = grid_2d(24, 20);
        let coords = grid_2d_coords(24, 20);
        for (k, want) in [
            (3usize, 0x62b6_0000_cab1_fea5u64),
            (8, 0x3f97_66fe_19ad_9225),
            (64, 0x5983_6aac_8abb_0525),
        ] {
            let kp = recursive_kway(Method::Rcb, &g, Some(&coords), k, 16, 7);
            assert_eq!(label_fingerprint(&kp.part), want, "k={k}");
        }
    }

    /// Counts the polls and cancels at the `cancel_at`th (0-based).
    struct PollCounter {
        polls: usize,
        cancel_at: usize,
    }
    impl crate::observe::PipelineObserver for PollCounter {
        fn poll_cancel(&mut self) -> bool {
            self.polls += 1;
            self.polls > self.cancel_at
        }
    }

    #[test]
    fn every_bisection_polls_four_times_and_its_first_poll_precedes_the_extraction() {
        let g = grid_2d(24, 24);
        let coords = grid_2d_coords(24, 24);
        let k = 8;
        let run = |cancel_at: usize| {
            let mut m = Machine::new(8, CostModel::qdr_infiniband());
            let mut obs = PollCounter {
                polls: 0,
                cancel_at,
            };
            let r = recursive_kway_checked_on(
                Method::SpPg7Nl,
                &g,
                Some(&coords),
                k,
                1,
                &mut m,
                &mut obs,
            );
            (r.map(|kp| kp.part), obs.polls)
        };
        let (done, polls) = run(usize::MAX);
        assert_eq!(polls, 4 * (k - 1));
        assert_eq!(
            done.unwrap(),
            recursive_kway(Method::SpPg7Nl, &g, Some(&coords), k, 8, 1).part
        );
        // Cancelling at the first poll of bisection i stops the run there:
        // no later poll is made.
        for i in 0..k - 1 {
            let (r, polls) = run(4 * i);
            assert_eq!(r, Err(Cancelled), "bisection {i}");
            assert_eq!(polls, 4 * i + 1, "bisection {i}");
        }
    }

    #[test]
    fn comm_volume_counts_distinct_foreign_parts() {
        // Path 0-1-2 split into 3 parts: middle vertex touches 2 foreign
        // parts, ends touch 1 each → volume 4.
        let mut b = sp_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let kp = KWayPartition {
            part: vec![0, 1, 2],
            k: 3,
        };
        assert_eq!(kp.comm_volume(&g), 4);
        assert_eq!(kp.cut_edges(&g), 2);
    }
}

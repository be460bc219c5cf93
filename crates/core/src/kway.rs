//! K-way partitioning by recursive bisection.
//!
//! The paper evaluates single edge separators; a deployable partitioner
//! also needs k parts. This module applies any of the bisection methods
//! recursively — the standard recursive-bisection construction used by
//! Chaco and the geometric partitioners the paper builds on. A bisection
//! of `k` parts on `p` ranks gives `k0 = k/2` parts and `p·k0/k` ranks to
//! its first side and the rest to the second; each side is then cut out of
//! its parent (ids ascending) and bisected on a fresh machine of its own
//! rank group with seed `seed ^ first_part`, down to sides of one part or
//! one vertex, which are labelled. [`recursive_kway`] is the plain entry
//! point; [`recursive_kway_checked_on`] the full one, on the caller's
//! machine and under an observer.
//!
//! **Both sides at once.** In the paper the two sides run at the same time
//! on their disjoint rank groups. Here they run on the host pool
//! ([`sp_machine::pool`]) side by side when all of these hold, and one
//! after the other otherwise:
//!
//! * the recursion's thread share is at least 2. It starts at
//!   [`pool::width`], read once on the caller, and each fork halves it
//!   (`t/2` to the first side, `t − t/2` to the second);
//! * both sides bisect again (at least 2 parts and 2 vertices each), so
//!   `k = 2` never forks;
//! * the method does not coarsen ([`Method::coarsens`]): two multilevel
//!   hierarchies alive at once cost more memory than the fork saves time;
//! * the observer forks ([`PipelineObserver::fork`]). One that does not
//!   keeps the serial schedule, whatever the width.
//!
//! Both children are cut out on the caller, each after its own observer's
//! poll, and the fork runs one bisection per side.
//!
//! **Why the schedule cannot show.** A side's inputs — its subgraph, its
//! coordinates, its rank count, its seed, its fresh machine — are fixed
//! before the fork and shared with nobody, and its labels go to its own
//! vertices, which no other side writes; the join publishes them. The
//! caller's machine runs only the root bisection, so the simulated time a
//! caller reads cannot move either. So every label and every clock is that
//! of the serial schedule, at every width. `Err(Cancelled)` from either side
//! fails the whole run; a panic on either side resumes on the caller after
//! the join.
//!
//! Limitation: every bisection here splits at the weight median (50/50),
//! so for k that is not a power of two the deeper side of the recursion
//! over-weights its parts (k = 3 yields ≈ 25/25/50). Power-of-two k is
//! balanced to the underlying bisector's tolerance.

use crate::methods::{run_method_checked, Method};
use crate::observe::{Cancelled, NoopObserver, PipelineObserver};
use sp_geometry::Point2;
use sp_graph::Graph;
use sp_machine::{pool, CostModel, Machine};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

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
/// level, as the paper's multilevel competitors do): the plain entry
/// point, [`recursive_kway_checked_on`] on a fresh machine of `p` ranks.
pub fn recursive_kway(
    method: Method,
    g: &Graph,
    coords: Option<&[Point2]>,
    k: usize,
    p: usize,
    seed: u64,
) -> KWayPartition {
    let mut machine = Machine::new(p.max(1), CostModel::qdr_infiniband());
    recursive_kway_checked_on(method, g, coords, k, seed, &mut machine, &mut NoopObserver)
        .expect("NoopObserver never cancels")
}

/// The full entry point: [`recursive_kway`] on `machine.p()` ranks, where
/// the *root* bisection runs on the supplied machine, so a recorder
/// installed there traces it (the recursion's sub-bisections run on fresh
/// machines for their shrunken rank groups; for `k = 2` this traces the
/// entire run), and the run is cancellable: the observer's
/// [`poll_cancel`](PipelineObserver::poll_cancel) is checked before every
/// recursive split and, for the ScalaPart method, at every pipeline
/// checkpoint inside each bisection. On `Err(Cancelled)` the partial
/// labelling is discarded. Where the recursion forks (module doc), the
/// two sides' checkpoints go to the children [`PipelineObserver::fork`]
/// returned, not to `obs`. This is the entry point of the `scalapart` CLI
/// and of sp-serve, whose jobs each run on a fresh machine under the
/// profiler wrapped around a deadline-polling observer.
pub fn recursive_kway_checked_on(
    method: Method,
    g: &Graph,
    coords: Option<&[Point2]>,
    k: usize,
    seed: u64,
    machine: &mut Machine,
    obs: &mut dyn PipelineObserver,
) -> Result<KWayPartition, Cancelled> {
    assert!(k >= 1);
    let part: Vec<AtomicU32> = std::iter::repeat_with(AtomicU32::default)
        .take(g.n())
        .collect();
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
        let rec = Recursion {
            method,
            seed,
            out: &part,
        };
        bisect(&rec, &root, 0, k, pool::width(), machine, obs)?;
    }
    // Every fork has joined: each label is in place, and published.
    let part = part.into_iter().map(AtomicU32::into_inner).collect();
    Ok(KWayPartition { part, k })
}

/// What every bisection of one recursion shares: the method, the seed each
/// derives its own from, and the labels of the input graph's vertices.
struct Recursion<'a> {
    method: Method,
    seed: u64,
    /// `out[v]` is vertex `v`'s part. Each vertex is written once, by the
    /// one bisection that names its part, so relaxed stores suffice: a
    /// fork's join (the worker's Release decrement of the dispatch's
    /// pending count, the caller's Acquire load of zero) orders them before
    /// anything after the fork, the final read included.
    out: &'a [AtomicU32],
}

impl Recursion<'_> {
    /// Put `verts` (ids in `node.g`) into part `part`.
    fn label(&self, node: &Node, verts: &[u32], part: u32) {
        for &v in verts {
            let v = node.ids.map_or(v, |ids| ids[v as usize]);
            self.out[v as usize].store(part, Ordering::Relaxed);
        }
    }
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

/// A graph cut out of its parent, owning what its [`Node`] borrows.
struct Child {
    g: Graph,
    coords: Option<Vec<Point2>>,
    ids: Vec<u32>,
}

impl Child {
    fn node(&self) -> Node<'_> {
        Node {
            g: &self.g,
            coords: self.coords.as_deref(),
            ids: Some(&self.ids),
        }
    }
}

/// Do `k` parts of `verts` need a bisection, or are they one part?
fn recurses(k: usize, verts: &[u32]) -> bool {
    k >= 2 && verts.len() >= 2
}

/// Cut the child on `verts` (ids in `parent.g`, ascending) out of its
/// parent, after the poll that precedes every extraction.
fn cut(parent: &Node, verts: Vec<u32>, obs: &mut dyn PipelineObserver) -> Result<Child, Cancelled> {
    if obs.poll_cancel() {
        return Err(Cancelled);
    }
    let (g, mut ids) = parent.g.induced_subgraph(&verts);
    let coords = parent
        .coords
        .map(|c| verts.iter().map(|&v| c[v as usize]).collect());
    drop(verts);
    if let Some(parent_ids) = parent.ids {
        for v in &mut ids {
            *v = parent_ids[*v as usize];
        }
    }
    Ok(Child { g, coords, ids })
}

/// Partition the vertices `verts` of `parent.g` into parts
/// `first_part .. first_part + k`: one part is a labelling, more are a
/// child cut out and bisected.
///
/// The polls are a sequence callers count: one before the extraction
/// ([`cut`]), then the three of [`run_method_checked`].
#[allow(clippy::too_many_arguments)]
fn split(
    rec: &Recursion,
    parent: &Node,
    verts: Vec<u32>,
    first_part: u32,
    k: usize,
    p: usize,
    threads: usize,
    obs: &mut dyn PipelineObserver,
) -> Result<(), Cancelled> {
    if !recurses(k, &verts) {
        rec.label(parent, &verts, first_part);
        return Ok(());
    }
    let child = cut(parent, verts, obs)?;
    let mut machine = Machine::new(p, CostModel::qdr_infiniband());
    bisect(
        rec,
        &child.node(),
        first_part,
        k,
        threads,
        &mut machine,
        obs,
    )
}

/// Bisect `node.g` (`k ≥ 2` parts to make, at least two vertices) on
/// `machine`, whose rank group is then divided between the sides, and
/// [`split`] each side further: one after the other, or both at once over
/// `threads` host threads (see the module doc for when).
fn bisect(
    rec: &Recursion,
    node: &Node,
    first_part: u32,
    k: usize,
    threads: usize,
    machine: &mut Machine,
    obs: &mut dyn PipelineObserver,
) -> Result<(), Cancelled> {
    // Split k into proportional halves (handles non-powers of two).
    let k0 = k / 2;
    let k1 = k - k0;
    let p = machine.p();
    let seed = rec.seed ^ first_part as u64;
    let bisection =
        run_method_checked(rec.method, node.g, node.coords, machine, seed, obs)?.bisection;
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
    // the sides not yet cut out of it.
    drop(bisection);
    let p0 = ((p * k0) / k).max(1);
    let p1 = (p - p0).max(1);
    let first1 = first_part + k0 as u32;
    let fork =
        threads >= 2 && !rec.method.coarsens() && recurses(k0, &side0) && recurses(k1, &side1);
    let Some([mut obs0, mut obs1]) = fork.then(|| obs.fork()).flatten() else {
        split(rec, node, side0, first_part, k0, p0, threads, obs)?;
        return split(rec, node, side1, first1, k1, p1, threads, obs);
    };
    // Both children are cut out here, before the fork: cut on the workers,
    // they raised the benchmark's `geo-mesh` peak RSS by 12–14 %. Each side
    // then keeps its child, fresh machine, seed, labels and observer to
    // itself, and half the threads.
    let child0 = cut(node, side0, &mut *obs0)?;
    let child1 = cut(node, side1, &mut *obs1)?;
    let t0 = threads / 2;
    let halves = [
        (child0, obs0, first_part, k0, p0, t0),
        (child1, obs1, first1, k1, p1, threads - t0),
    ];
    // Read after the join, which orders the store before it. The thread
    // share is at most the width, so the two halves get a task each.
    let cancelled = AtomicBool::new(false);
    pool::each(halves, |_, (child, mut obs, first, k, p, t)| {
        let mut machine = Machine::new(p, CostModel::qdr_infiniband());
        if bisect(rec, &child.node(), first, k, t, &mut machine, &mut *obs).is_err() {
            cancelled.store(true, Ordering::Relaxed);
        }
    });
    if cancelled.into_inner() {
        Err(Cancelled)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ProfilingObserver;
    use sp_graph::gen::{grid_2d, grid_2d_coords};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

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
        // k = 3 splits the 8 ranks unevenly (2 and 6); ScalaPart coarsens.
        use sp_machine::TraceRecorder;
        let g = grid_2d(24, 24);
        let coords = grid_2d_coords(24, 24);
        for method in [Method::Rcb, Method::ScalaPart] {
            for k in [3usize, 4, 8] {
                let at = format!("{} k={k}", method.name());
                let mut m = Machine::new(8, CostModel::qdr_infiniband());
                m.set_recorder(Box::new(TraceRecorder::new(8)));
                let mut obs = NoopObserver;
                let kp =
                    recursive_kway_checked_on(method, &g, Some(&coords), k, 1, &mut m, &mut obs);
                let kp = kp.unwrap();
                kp.validate(&g).unwrap_or_else(|e| panic!("{at}: {e}"));
                let plain = recursive_kway(method, &g, Some(&coords), k, 8, 1);
                assert_eq!(kp.part, plain.part, "{at}");
                let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
                assert!(!rec.is_empty(), "{at}");
            }
        }
    }

    #[test]
    fn the_geometric_pipelines_bisect_graphs_of_two_to_four_vertices() {
        // The strip is at least 4 vertices and at most all of them: on a
        // graph of 2 or 3 that was an empty range, and a panic.
        for (rows, cols) in [(1usize, 2usize), (1, 3), (2, 2)] {
            let g = grid_2d(rows, cols);
            let coords = grid_2d_coords(rows, cols);
            for method in [Method::SpPg7Nl, Method::ScalaPart] {
                let kp = recursive_kway(method, &g, Some(&coords), 2, 4, 1);
                kp.validate(&g)
                    .unwrap_or_else(|e| panic!("{} {rows}x{cols}: {e}", method.name()));
            }
        }
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
        let r = run_method_checked(
            method,
            &sub,
            sub_coords.as_deref(),
            &mut m,
            seed ^ first_part as u64,
            &mut NoopObserver,
        )
        .unwrap();
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
                    let want = kway_from_root(method, g, Some(coords), k, 16, 7);
                    for threads in WIDTHS {
                        let kp = install(threads, || {
                            recursive_kway(method, g, Some(coords), k, 16, 7)
                        });
                        kp.validate(g).unwrap();
                        assert_eq!(
                            kp.part,
                            want,
                            "{} k={k} n={} threads={threads}",
                            method.name(),
                            g.n()
                        );
                    }
                }
            }
        }
        let want = kway_from_root(Method::ScalaPart, &grid.0, None, 4, 16, 3);
        for threads in WIDTHS {
            let kp = install(threads, || {
                recursive_kway(Method::ScalaPart, &grid.0, None, 4, 16, 3)
            });
            assert_eq!(kp.part, want, "threads={threads}");
        }
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
            for threads in WIDTHS {
                let kp = install(threads, || {
                    recursive_kway(Method::Rcb, &g, Some(&coords), k, 16, 7)
                });
                assert_eq!(label_fingerprint(&kp.part), want, "k={k} threads={threads}");
            }
        }
    }

    /// Host pool widths of the fork tests: one thread never forks, two fork
    /// the root's halves, four the halves of those too.
    const WIDTHS: [usize; 3] = [1, 2, 4];

    fn install<R>(threads: usize, op: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(op)
    }

    /// A forkable observer: it and every child it forks spend one shared
    /// budget of polls and cancel once it is spent. A child on the second
    /// side of a fork (or below one) panics at its own `panic_at`th poll.
    #[derive(Clone)]
    struct SharedBudget {
        left: Arc<AtomicUsize>,
        panic_at: Option<usize>,
        second_side: bool,
        polls: usize,
    }

    impl SharedBudget {
        fn new(budget: usize, panic_at: Option<usize>) -> Self {
            SharedBudget {
                left: Arc::new(AtomicUsize::new(budget)),
                panic_at,
                second_side: false,
                polls: 0,
            }
        }

        fn child(&self, second_side: bool) -> Box<dyn PipelineObserver + Send> {
            Box::new(SharedBudget {
                second_side: self.second_side || second_side,
                polls: 0,
                ..self.clone()
            })
        }
    }

    impl PipelineObserver for SharedBudget {
        fn poll_cancel(&mut self) -> bool {
            self.polls += 1;
            if self.second_side && Some(self.polls) == self.panic_at {
                std::panic::panic_any("the second side gives up");
            }
            let spend = |left: usize| left.checked_sub(1);
            self.left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, spend)
                .is_err()
        }

        fn fork(&mut self) -> Option<[Box<dyn PipelineObserver + Send>; 2]> {
            Some([self.child(false), self.child(true)])
        }
    }

    /// The labels and root elapsed bits of an 8-way SP-PG7-NL run.
    fn sp_pg7nl_8way(obs: &mut dyn PipelineObserver) -> Result<(Vec<u32>, u64), Cancelled> {
        let g = grid_2d(24, 24);
        let coords = grid_2d_coords(24, 24);
        let mut m = Machine::new(8, CostModel::qdr_infiniband());
        recursive_kway_checked_on(Method::SpPg7Nl, &g, Some(&coords), 8, 1, &mut m, obs)
            .map(|kp| (kp.part, m.elapsed().to_bits()))
    }

    #[test]
    fn a_forked_recursion_is_cancelled_whichever_side_trips_first() {
        let want = install(1, || sp_pg7nl_8way(&mut NoopObserver)).unwrap();
        // Seven bisections of four polls each, forked or not.
        let polls = 4 * 7;
        for threads in WIDTHS {
            let run = |budget| {
                install(threads, || {
                    sp_pg7nl_8way(&mut SharedBudget::new(budget, None))
                })
            };
            assert_eq!(run(polls).as_ref(), Ok(&want), "threads={threads}");
            for budget in 0..polls {
                assert_eq!(
                    run(budget),
                    Err(Cancelled),
                    "threads={threads} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn a_panic_on_a_forked_side_reaches_the_caller_and_the_next_run_is_whole() {
        let want = install(1, || sp_pg7nl_8way(&mut NoopObserver)).unwrap();
        install(2, || {
            // The root's second child polls once before the fork, when it
            // is cut out, and the second time inside the forked task.
            let mut obs = SharedBudget::new(usize::MAX, Some(2));
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sp_pg7nl_8way(&mut obs)));
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"the second side gives up")
            );
            assert_eq!(sp_pg7nl_8way(&mut NoopObserver), Ok(want));
        });
    }

    /// Counts its forks; its children are [`NoopObserver`]s.
    #[derive(Default)]
    struct ForkCounter(usize);

    impl PipelineObserver for ForkCounter {
        fn fork(&mut self) -> Option<[Box<dyn PipelineObserver + Send>; 2]> {
            self.0 += 1;
            NoopObserver.fork()
        }
    }

    #[test]
    fn a_profiled_geometric_kway_run_forks_and_keeps_the_unwatched_bits() {
        let want = install(2, || sp_pg7nl_8way(&mut NoopObserver));
        let mut forks = ForkCounter::default();
        let got = install(2, || {
            sp_pg7nl_8way(&mut ProfilingObserver::wrapping(&mut forks))
        });
        assert!(forks.0 >= 1, "the profiled run did not fork");
        assert_eq!(got, want);
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

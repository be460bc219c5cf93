//! `DeltaOverlay`: a mutable graph store layering a delta chain over an
//! immutable base CSR.
//!
//! The paper's pipeline (and everything downstream of it) consumes
//! immutable CSR graphs; rebuilding a full CSR per mutation step is
//! exactly the cost a dynamic workload cannot pay. The overlay instead
//! keeps the base behind an `Arc` and materialises a replacement
//! adjacency list *only for vertices a delta touched*. Reads go through
//! [`sp_graph::GraphAccess`], so the refinement machinery runs directly
//! on the overlay; [`DeltaOverlay::compact`] folds the chain back into a
//! fresh CSR when a full re-partition (or a cheap long-term
//! representation) is worth it.
//!
//! ## What reads and writes cost
//!
//! FM reads every vertex's weight and neighbours once per call, so a read
//! must cost what it costs on the CSR. `slot[v]` says where `v`'s
//! adjacency lives: `BASE` for the base row, otherwise an index into
//! `patched`. Vertex weights are one dense array, copied from the base by
//! the first `SetVwgt` after a rebase and dropped at the next one (the new
//! base then carries them). That is 12 bytes a vertex beside a base CSR of
//! a hundred or more.
//!
//! A write costs what the delta costs: the first touch of a vertex copies
//! its base row, later ones edit the copy. [`DeltaOverlay::apply_batch`]
//! makes a batch atomic without a copy of the overlay: it logs the inverse
//! of every mutation and, on the first invalid delta, undoes the log
//! backwards. The log holds *positions and old values* — an entry's index
//! in its list, the weight and the coordinate that were overwritten — not
//! inverse deltas to replay: an inverse `AddEdge` would re-insert by
//! binary search, which on a base row that is not ascending need not find
//! the position the entry was removed from, and an inverse `ShiftCoord`
//! would subtract, which does not restore the bits it added to.
//!
//! ## Canonical order and fingerprints
//!
//! Patched adjacency lists are kept ascending by neighbour id; untouched
//! vertices keep the base's order. `compact()` emits exactly the
//! neighbour order the overlay iterates, so refining on the overlay and
//! refining on its compacted CSR are bit-identical, and
//! [`DeltaOverlay::graph_fingerprint`] (which hashes the *logical* CSR
//! image: n, offsets, adjacency, edge-weight bits, vertex-weight bits —
//! sp-graph's `access::csr_fingerprint`, which sp-serve's cache key
//! uses too) is invariant under
//! [`DeltaOverlay::rebase`] at any point in the chain.

use crate::delta::{DeltaError, GraphDelta};
use sp_geometry::Point2;
use sp_graph::{access, Graph, GraphAccess};
use std::sync::Arc;

/// `slot` value of a vertex whose adjacency is the base row.
const BASE: u32 = u32::MAX;

/// The replacement adjacency of one touched vertex.
struct Patched {
    /// The vertex whose `slot` points here.
    v: u32,
    /// Its full adjacency: the base row as it was at the first touch,
    /// edited since. Ascending by neighbour whenever the base row was.
    list: Vec<(u32, f64)>,
}

/// The inverse of one mutation, as [`DeltaOverlay::apply_batch`] logs it.
enum Undo {
    /// An entry went in at `pos` of `patched[slot].list`.
    Inserted { slot: u32, pos: usize },
    /// `entry` came out of `pos` of `patched[slot].list`.
    Removed {
        slot: u32,
        pos: usize,
        entry: (u32, f64),
    },
    /// The weight of `v` was `old`.
    Vwgt { v: u32, old: f64 },
    /// The coordinate of `v` was `old`.
    Coord { v: u32, old: Point2 },
}

/// A delta chain layered over an immutable base CSR.
pub struct DeltaOverlay {
    base: Arc<Graph>,
    /// Per vertex: index into `patched`, or [`BASE`].
    slot: Vec<u32>,
    /// One replacement list per touched vertex, in first-touch order.
    patched: Vec<Patched>,
    /// Every vertex weight, once a `SetVwgt` has changed one since the
    /// last rebase; until then the base's are read.
    vwgt: Option<Vec<f64>>,
    /// Embedding coordinates (owned: coordinate drift mutates in place).
    coords: Option<Vec<Point2>>,
    /// Undirected edge count, maintained incrementally.
    m: usize,
    /// Deltas applied over the overlay's lifetime (survives rebase).
    deltas_applied: u64,
}

impl DeltaOverlay {
    /// Wrap a base graph (and optionally its embedding coordinates).
    pub fn new(base: Arc<Graph>, coords: Option<Vec<Point2>>) -> Result<Self, DeltaError> {
        if let Some(c) = &coords {
            if c.len() != base.n() {
                return Err(DeltaError::BadCoord);
            }
        }
        let m = base.m();
        Ok(DeltaOverlay {
            slot: vec![BASE; base.n()],
            base,
            patched: Vec::new(),
            vwgt: None,
            coords,
            m,
            deltas_applied: 0,
        })
    }

    /// Number of vertices (fixed for the overlay's lifetime).
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Current undirected edge count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The replacement list of `v`, if a delta has touched it.
    #[inline]
    fn patched_list(&self, v: u32) -> Option<&[(u32, f64)]> {
        match self.slot[v as usize] {
            BASE => None,
            s => Some(&self.patched[s as usize].list),
        }
    }

    /// Current degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        match self.patched_list(v) {
            Some(list) => list.len(),
            None => self.base.degree(v),
        }
    }

    /// Current vertex weight of `v`.
    #[inline]
    pub fn vwgt(&self, v: u32) -> f64 {
        match &self.vwgt {
            Some(w) => w[v as usize],
            None => self.base.vwgt(v),
        }
    }

    /// Current neighbours of `v` with edge weights.
    #[inline]
    pub fn neighbors_w(&self, v: u32) -> NeighborIter<'_> {
        match self.patched_list(v) {
            Some(list) => NeighborIter::Patched(list.iter().copied()),
            None => {
                let r = self.base.xadj()[v as usize]..self.base.xadj()[v as usize + 1];
                NeighborIter::Base(
                    self.base.adjncy()[r.clone()]
                        .iter()
                        .copied()
                        .zip(self.base.ewgts()[r].iter().copied()),
                )
            }
        }
    }

    /// Current coordinates, if the overlay carries an embedding.
    pub fn coords(&self) -> Option<&[Point2]> {
        self.coords.as_deref()
    }

    /// The immutable base under the chain.
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// Vertices with a materialised replacement list (chain footprint).
    pub fn patched_vertices(&self) -> usize {
        self.patched.len()
    }

    /// Total deltas applied over the overlay's lifetime.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    fn check_vertex(&self, v: u32) -> Result<(), DeltaError> {
        if (v as usize) < self.n() {
            Ok(())
        } else {
            Err(DeltaError::VertexOutOfRange { v, n: self.n() })
        }
    }

    /// The slot of `v`'s replacement list, copied from the base row on the
    /// first touch.
    fn materialise(&mut self, v: u32) -> u32 {
        if self.slot[v as usize] == BASE {
            self.slot[v as usize] = self.patched.len() as u32;
            self.patched.push(Patched {
                v,
                list: self.base.neighbors_w(v).collect(),
            });
        }
        self.slot[v as usize]
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors_w(u).any(|(x, _)| x == v)
    }

    /// Apply one delta. Errors leave the overlay untouched.
    pub fn apply(&mut self, d: &GraphDelta) -> Result<(), DeltaError> {
        self.mutate(d, &mut |_| {})
    }

    /// Apply a batch in order, all of it or none of it: at the first
    /// invalid delta every mutation made so far is undone and the error
    /// returned, and no accessor, fingerprint or count can then tell the
    /// overlay from what it was before the call.
    pub fn apply_batch(&mut self, batch: &[GraphDelta]) -> Result<(), DeltaError> {
        let (patched, weighted) = (self.patched.len(), self.vwgt.is_some());
        let (m, deltas_applied) = (self.m, self.deltas_applied);
        let mut log = Vec::with_capacity(2 * batch.len());
        let Some(e) = batch
            .iter()
            .find_map(|d| self.mutate(d, &mut |u| log.push(u)).err())
        else {
            return Ok(());
        };
        for u in log.into_iter().rev() {
            match u {
                Undo::Inserted { slot, pos } => {
                    self.patched[slot as usize].list.remove(pos);
                }
                Undo::Removed { slot, pos, entry } => {
                    self.patched[slot as usize].list.insert(pos, entry)
                }
                Undo::Vwgt { v, old } => {
                    let w = self.vwgt.as_mut().expect("logged after materialising");
                    w[v as usize] = old;
                }
                Undo::Coord { v, old } => {
                    let c = self.coords.as_mut().expect("logged after the check");
                    c[v as usize] = old;
                }
            }
        }
        // Lists first touched by this batch are back to their base rows.
        for p in self.patched.drain(patched..) {
            self.slot[p.v as usize] = BASE;
        }
        if !weighted {
            self.vwgt = None;
        }
        self.m = m;
        self.deltas_applied = deltas_applied;
        Err(e)
    }

    /// Validate `d`, then apply it, handing `log` the inverse of every
    /// mutation in the order made. An error leaves the overlay untouched.
    fn mutate(&mut self, d: &GraphDelta, log: &mut impl FnMut(Undo)) -> Result<(), DeltaError> {
        match *d {
            GraphDelta::AddEdge { u, v, w } => {
                self.check_vertex(u)?;
                self.check_vertex(v)?;
                if u == v {
                    return Err(DeltaError::SelfLoop { v });
                }
                if !w.is_finite() || w <= 0.0 {
                    return Err(DeltaError::BadWeight { w });
                }
                if self.has_edge(u, v) {
                    return Err(DeltaError::DuplicateEdge { u, v });
                }
                for (a, b) in [(u, v), (v, u)] {
                    let slot = self.materialise(a);
                    let list = &mut self.patched[slot as usize].list;
                    // Base lists from GraphBuilder are ascending; patched
                    // lists are kept ascending, so a binary search works
                    // on both. (A base built from unsorted CSR falls back
                    // to the insertion point the search reports — still
                    // deterministic, still mirrored by compact().)
                    let pos = list.partition_point(|&(x, _)| x < b);
                    list.insert(pos, (b, w));
                    log(Undo::Inserted { slot, pos });
                }
                self.m += 1;
            }
            GraphDelta::RemoveEdge { u, v } => {
                self.check_vertex(u)?;
                self.check_vertex(v)?;
                if !self.has_edge(u, v) {
                    return Err(DeltaError::MissingEdge { u, v });
                }
                for (a, b) in [(u, v), (v, u)] {
                    let slot = self.materialise(a);
                    let list = &mut self.patched[slot as usize].list;
                    let pos = list.iter().position(|&(x, _)| x == b);
                    let pos = pos.expect("adjacency is symmetric");
                    let entry = list.remove(pos);
                    log(Undo::Removed { slot, pos, entry });
                }
                self.m -= 1;
            }
            GraphDelta::SetVwgt { v, w } => {
                self.check_vertex(v)?;
                if !w.is_finite() || w <= 0.0 {
                    return Err(DeltaError::BadWeight { w });
                }
                let base = &self.base;
                let all = self.vwgt.get_or_insert_with(|| base.vwgts().to_vec());
                log(Undo::Vwgt {
                    v,
                    old: std::mem::replace(&mut all[v as usize], w),
                });
            }
            GraphDelta::ShiftCoord { v, dx, dy } => {
                self.check_vertex(v)?;
                let Some(coords) = self.coords.as_mut() else {
                    return Err(DeltaError::BadCoord);
                };
                let old = coords[v as usize];
                // Two finite offsets can still sum past the largest f64,
                // and one non-finite coordinate panics the next full step.
                let new = Point2::new(old.x + dx, old.y + dy);
                if !new.x.is_finite() || !new.y.is_finite() {
                    return Err(DeltaError::BadCoord);
                }
                coords[v as usize] = new;
                log(Undo::Coord { v, old });
            }
        }
        self.deltas_applied += 1;
        Ok(())
    }

    /// Fold the chain into a fresh CSR. Neighbour order is exactly the
    /// overlay's iteration order, so the result partitions bit-identically.
    pub fn compact(&self) -> Graph {
        let n = self.n();
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        for v in 0..n as u32 {
            xadj.push(xadj.last().unwrap() + self.degree(v));
        }
        let total = *xadj.last().unwrap();
        let mut adjncy = Vec::with_capacity(total);
        let mut ewgt = Vec::with_capacity(total);
        for v in 0..n as u32 {
            for (u, w) in self.neighbors_w(v) {
                adjncy.push(u);
                ewgt.push(w);
            }
        }
        let vwgt = (0..n as u32).map(|v| self.vwgt(v)).collect();
        Graph::from_csr(xadj, adjncy, ewgt, vwgt)
    }

    /// Replace the base with the compacted CSR and clear the chain. A
    /// pure representation change: every accessor and fingerprint returns
    /// the same values before and after, at any point in a delta stream.
    pub fn rebase(&mut self) {
        self.base = Arc::new(self.compact());
        for p in self.patched.drain(..) {
            self.slot[p.v as usize] = BASE;
        }
        self.vwgt = None;
        self.m = self.base.m();
    }

    /// Fingerprint of the logical CSR image — sp-serve's graph
    /// fingerprint of [`DeltaOverlay::compact`], and invariant under
    /// [`DeltaOverlay::rebase`].
    pub fn graph_fingerprint(&self) -> u64 {
        access::csr_fingerprint(self)
    }

    /// Fingerprint of graph + coordinates — sp-serve's input fingerprint
    /// of the compacted graph with these coordinates.
    pub fn input_fingerprint(&self) -> u64 {
        access::input_fingerprint(self, self.coords.as_deref())
    }
}

impl GraphAccess for DeltaOverlay {
    fn n(&self) -> usize {
        DeltaOverlay::n(self)
    }
    fn m(&self) -> usize {
        DeltaOverlay::m(self)
    }
    fn degree(&self, v: u32) -> usize {
        DeltaOverlay::degree(self, v)
    }
    fn vwgt(&self, v: u32) -> f64 {
        DeltaOverlay::vwgt(self, v)
    }
    fn neighbors_w(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        DeltaOverlay::neighbors_w(self, v)
    }
}

/// Neighbour iterator over either representation.
pub enum NeighborIter<'a> {
    Base(
        std::iter::Zip<
            std::iter::Copied<std::slice::Iter<'a, u32>>,
            std::iter::Copied<std::slice::Iter<'a, f64>>,
        >,
    ),
    Patched(std::iter::Copied<std::slice::Iter<'a, (u32, f64)>>),
}

impl Iterator for NeighborIter<'_> {
    type Item = (u32, f64);
    fn next(&mut self) -> Option<(u32, f64)> {
        match self {
            NeighborIter::Base(it) => it.next(),
            NeighborIter::Patched(it) => it.next(),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            NeighborIter::Base(it) => it.size_hint(),
            NeighborIter::Patched(it) => it.size_hint(),
        }
    }
}

/// The overlay as it was before the dense slots — two `BTreeMap`s walked
/// on every read — kept as the oracle the differential tests hold
/// [`DeltaOverlay`] against, with what the tests of both stream modules
/// share: [`Image`], everything an overlay lets a caller observe.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use sp_trace::fnv::Fingerprint;
    use std::collections::BTreeMap;

    /// One body for both stores: their accessors share names, not a trait.
    macro_rules! image {
        ($ov:expr) => {{
            let ov = $ov;
            let bits = |x: &[f64]| x.iter().map(|w| w.to_bits()).collect::<Vec<u64>>();
            let c = ov.compact();
            Image {
                n: ov.n(),
                m: ov.m(),
                degree: (0..ov.n() as u32).map(|v| ov.degree(v)).collect(),
                vwgt: (0..ov.n() as u32).map(|v| ov.vwgt(v).to_bits()).collect(),
                neighbors: (0..ov.n() as u32)
                    .map(|v| ov.neighbors_w(v).map(|(u, w)| (u, w.to_bits())).collect())
                    .collect(),
                compact: (
                    c.xadj().to_vec(),
                    c.adjncy().to_vec(),
                    bits(c.ewgts()),
                    bits(c.vwgts()),
                ),
                graph_fp: ov.graph_fingerprint(),
                input_fp: ov.input_fingerprint(),
                patched: ov.patched_vertices(),
                deltas_applied: ov.deltas_applied(),
                coords: ov
                    .coords()
                    .map(|c| c.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()),
            }
        }};
    }

    pub(crate) struct Overlay {
        base: Arc<Graph>,
        adj: BTreeMap<u32, Vec<(u32, f64)>>,
        vwgt: BTreeMap<u32, f64>,
        coords: Option<Vec<Point2>>,
        m: usize,
        deltas_applied: u64,
    }

    impl Overlay {
        pub(crate) fn new(base: Arc<Graph>, coords: Option<Vec<Point2>>) -> Self {
            let m = base.m();
            Overlay {
                base,
                adj: BTreeMap::new(),
                vwgt: BTreeMap::new(),
                coords,
                m,
                deltas_applied: 0,
            }
        }

        pub(crate) fn n(&self) -> usize {
            self.base.n()
        }

        pub(crate) fn m(&self) -> usize {
            self.m
        }

        pub(crate) fn degree(&self, v: u32) -> usize {
            match self.adj.get(&v) {
                Some(list) => list.len(),
                None => self.base.degree(v),
            }
        }

        pub(crate) fn vwgt(&self, v: u32) -> f64 {
            match self.vwgt.get(&v) {
                Some(&w) => w,
                None => self.base.vwgt(v),
            }
        }

        pub(crate) fn neighbors_w(&self, v: u32) -> Box<dyn Iterator<Item = (u32, f64)> + '_> {
            match self.adj.get(&v) {
                Some(list) => Box::new(list.iter().copied()),
                None => Box::new(self.base.neighbors_w(v)),
            }
        }

        pub(crate) fn coords(&self) -> Option<&[Point2]> {
            self.coords.as_deref()
        }

        pub(crate) fn patched_vertices(&self) -> usize {
            self.adj.len()
        }

        pub(crate) fn deltas_applied(&self) -> u64 {
            self.deltas_applied
        }

        fn check_vertex(&self, v: u32) -> Result<(), DeltaError> {
            if (v as usize) < self.n() {
                Ok(())
            } else {
                Err(DeltaError::VertexOutOfRange { v, n: self.n() })
            }
        }

        fn list_mut(&mut self, v: u32) -> &mut Vec<(u32, f64)> {
            let base = &self.base;
            self.adj
                .entry(v)
                .or_insert_with(|| base.neighbors_w(v).collect())
        }

        fn has_edge(&self, u: u32, v: u32) -> bool {
            self.neighbors_w(u).any(|(x, _)| x == v)
        }

        pub(crate) fn apply(&mut self, d: &GraphDelta) -> Result<(), DeltaError> {
            match *d {
                GraphDelta::AddEdge { u, v, w } => {
                    self.check_vertex(u)?;
                    self.check_vertex(v)?;
                    if u == v {
                        return Err(DeltaError::SelfLoop { v });
                    }
                    if !w.is_finite() || w <= 0.0 {
                        return Err(DeltaError::BadWeight { w });
                    }
                    if self.has_edge(u, v) {
                        return Err(DeltaError::DuplicateEdge { u, v });
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        let list = self.list_mut(a);
                        let pos = list.partition_point(|&(x, _)| x < b);
                        list.insert(pos, (b, w));
                    }
                    self.m += 1;
                }
                GraphDelta::RemoveEdge { u, v } => {
                    self.check_vertex(u)?;
                    self.check_vertex(v)?;
                    if !self.has_edge(u, v) {
                        return Err(DeltaError::MissingEdge { u, v });
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        let list = self.list_mut(a);
                        let pos = list.iter().position(|&(x, _)| x == b).unwrap();
                        list.remove(pos);
                    }
                    self.m -= 1;
                }
                GraphDelta::SetVwgt { v, w } => {
                    self.check_vertex(v)?;
                    if !w.is_finite() || w <= 0.0 {
                        return Err(DeltaError::BadWeight { w });
                    }
                    self.vwgt.insert(v, w);
                }
                GraphDelta::ShiftCoord { v, dx, dy } => {
                    self.check_vertex(v)?;
                    let Some(coords) = self.coords.as_mut() else {
                        return Err(DeltaError::BadCoord);
                    };
                    let c = coords[v as usize];
                    let new = Point2::new(c.x + dx, c.y + dy);
                    if !new.x.is_finite() || !new.y.is_finite() {
                        return Err(DeltaError::BadCoord);
                    }
                    coords[v as usize] = new;
                }
            }
            self.deltas_applied += 1;
            Ok(())
        }

        pub(crate) fn compact(&self) -> Graph {
            let n = self.n();
            let mut xadj = Vec::with_capacity(n + 1);
            xadj.push(0usize);
            for v in 0..n as u32 {
                xadj.push(xadj.last().unwrap() + self.degree(v));
            }
            let total = *xadj.last().unwrap();
            let mut adjncy = Vec::with_capacity(total);
            let mut ewgt = Vec::with_capacity(total);
            for v in 0..n as u32 {
                for (u, w) in self.neighbors_w(v) {
                    adjncy.push(u);
                    ewgt.push(w);
                }
            }
            let vwgt = (0..n as u32).map(|v| self.vwgt(v)).collect();
            Graph::from_csr(xadj, adjncy, ewgt, vwgt)
        }

        pub(crate) fn rebase(&mut self) {
            self.base = Arc::new(self.compact());
            self.adj.clear();
            self.vwgt.clear();
            self.m = self.base.m();
        }

        pub(crate) fn graph_fingerprint(&self) -> u64 {
            let n = self.n();
            let mut fp = Fingerprint::new();
            fp.u64(n as u64);
            let mut off = 0usize;
            fp.u64(0);
            for v in 0..n as u32 {
                off += self.degree(v);
                fp.u64(off as u64);
            }
            for v in 0..n as u32 {
                for (u, _) in self.neighbors_w(v) {
                    fp.u64(u as u64);
                }
            }
            for v in 0..n as u32 {
                for (_, w) in self.neighbors_w(v) {
                    fp.f64_bits(w);
                }
            }
            for v in 0..n as u32 {
                fp.f64_bits(self.vwgt(v));
            }
            fp.finish()
        }

        pub(crate) fn input_fingerprint(&self) -> u64 {
            let mut fp = Fingerprint::new();
            fp.u64(self.graph_fingerprint());
            match &self.coords {
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

        pub(crate) fn image(&self) -> Image {
            image!(self)
        }
    }

    /// Everything an overlay lets a caller observe, floats by their bits.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Image {
        pub(crate) n: usize,
        pub(crate) m: usize,
        pub(crate) degree: Vec<usize>,
        pub(crate) vwgt: Vec<u64>,
        pub(crate) neighbors: Vec<Vec<(u32, u64)>>,
        /// `compact()`: offsets, targets, edge-weight and vertex-weight bits.
        pub(crate) compact: (Vec<usize>, Vec<u32>, Vec<u64>, Vec<u64>),
        pub(crate) graph_fp: u64,
        pub(crate) input_fp: u64,
        pub(crate) patched: usize,
        pub(crate) deltas_applied: u64,
        pub(crate) coords: Option<Vec<(u64, u64)>>,
    }

    impl Image {
        pub(crate) fn of(ov: &DeltaOverlay) -> Image {
            image!(ov)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Image;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords};
    use sp_graph::GraphBuilder;
    use sp_trace::fnv::splitmix64;

    fn overlay_of(g: Graph) -> DeltaOverlay {
        DeltaOverlay::new(Arc::new(g), None).unwrap()
    }

    #[test]
    fn add_remove_roundtrip_restores_fingerprint() {
        let g = grid_2d(6, 6);
        let mut ov = overlay_of(g);
        let fp0 = ov.graph_fingerprint();
        ov.apply(&GraphDelta::AddEdge {
            u: 0,
            v: 35,
            w: 2.0,
        })
        .unwrap();
        assert_ne!(ov.graph_fingerprint(), fp0);
        assert_eq!(ov.m(), 61);
        ov.apply(&GraphDelta::RemoveEdge { u: 35, v: 0 }).unwrap();
        assert_eq!(ov.graph_fingerprint(), fp0);
        assert_eq!(ov.m(), 60);
    }

    #[test]
    fn compact_matches_overlay_logically() {
        let g = grid_2d(5, 5);
        let mut ov = overlay_of(g);
        ov.apply(&GraphDelta::AddEdge {
            u: 0,
            v: 24,
            w: 3.0,
        })
        .unwrap();
        ov.apply(&GraphDelta::RemoveEdge { u: 0, v: 1 }).unwrap();
        ov.apply(&GraphDelta::SetVwgt { v: 12, w: 9.0 }).unwrap();
        let c = ov.compact();
        c.validate().unwrap();
        assert_eq!(c.n(), ov.n());
        assert_eq!(c.m(), ov.m());
        for v in 0..c.n() as u32 {
            assert_eq!(c.vwgt(v), ov.vwgt(v));
            let a: Vec<_> = c.neighbors_w(v).collect();
            let b: Vec<_> = ov.neighbors_w(v).collect();
            assert_eq!(a, b, "vertex {v}");
        }
    }

    #[test]
    fn rebase_is_invisible() {
        let g = grid_2d(4, 4);
        let mut a = overlay_of(g.clone());
        let mut b = overlay_of(g);
        let deltas = [
            GraphDelta::RemoveEdge { u: 5, v: 6 },
            GraphDelta::AddEdge {
                u: 0,
                v: 15,
                w: 1.5,
            },
            GraphDelta::SetVwgt { v: 3, w: 2.0 },
            GraphDelta::AddEdge { u: 5, v: 6, w: 7.0 },
        ];
        for (i, d) in deltas.iter().enumerate() {
            a.apply(d).unwrap();
            b.apply(d).unwrap();
            if i % 2 == 0 {
                b.rebase(); // only b compacts mid-chain
            }
            assert_eq!(a.graph_fingerprint(), b.graph_fingerprint(), "after {i}");
        }
        assert_eq!(b.patched_vertices(), 2); // cleared at the last rebase
    }

    #[test]
    fn apply_errors_leave_overlay_untouched() {
        let g = grid_2d(3, 3);
        let mut ov = overlay_of(g);
        let fp0 = ov.graph_fingerprint();
        let errs = [
            GraphDelta::AddEdge { u: 0, v: 1, w: 1.0 }, // duplicate
            GraphDelta::AddEdge { u: 2, v: 2, w: 1.0 }, // self loop
            GraphDelta::AddEdge {
                u: 0,
                v: 99,
                w: 1.0,
            }, // out of range
            GraphDelta::AddEdge {
                u: 0,
                v: 8,
                w: -1.0,
            }, // bad weight
            GraphDelta::RemoveEdge { u: 0, v: 8 },      // missing
            GraphDelta::SetVwgt { v: 0, w: f64::NAN },  // bad weight
            GraphDelta::ShiftCoord {
                v: 0,
                dx: 0.1,
                dy: 0.0,
            }, // no coords
        ];
        for d in &errs {
            assert!(ov.apply(d).is_err(), "{d:?}");
        }
        assert_eq!(ov.graph_fingerprint(), fp0);
        assert_eq!(ov.deltas_applied(), 0);
    }

    #[test]
    fn coordinate_drift_changes_input_fp_only() {
        let g = grid_2d(3, 3);
        let coords: Vec<Point2> = (0..9).map(|i| Point2::new(i as f64, 0.0)).collect();
        let mut ov = DeltaOverlay::new(Arc::new(g), Some(coords)).unwrap();
        let gfp = ov.graph_fingerprint();
        let ifp = ov.input_fingerprint();
        ov.apply(&GraphDelta::ShiftCoord {
            v: 4,
            dx: 0.5,
            dy: -0.5,
        })
        .unwrap();
        assert_eq!(ov.graph_fingerprint(), gfp);
        assert_ne!(ov.input_fingerprint(), ifp);
        assert_eq!(ov.coords().unwrap()[4], Point2::new(4.5, -0.5));
    }

    #[test]
    fn weighted_base_vertices_survive_patching() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.set_vwgt(1, 5.0);
        let mut ov = overlay_of(b.build());
        ov.apply(&GraphDelta::AddEdge { u: 0, v: 2, w: 2.0 })
            .unwrap();
        assert_eq!(ov.vwgt(1), 5.0);
        assert_eq!(ov.degree(1), 2);
        assert_eq!(GraphAccess::total_vwgt(&ov), 7.0);
    }

    /// A delta of any of the four kinds, valid against `ov`, its weights
    /// and offsets fractions that sums do not represent exactly.
    fn random_delta(ov: &DeltaOverlay, state: &mut u64) -> GraphDelta {
        let n = ov.n() as u64;
        loop {
            let r = splitmix64(state);
            let (a, b) = (((r >> 8) % n) as u32, ((r >> 34) % n) as u32);
            let mag = ((r >> 20) & 0xF) as f64;
            let adjacent = ov.neighbors_w(a).any(|(x, _)| x == b);
            match r % 4 {
                0 if a != b && !adjacent => {
                    return GraphDelta::AddEdge {
                        u: a,
                        v: b,
                        w: 0.25 + mag / 4.0,
                    }
                }
                1 if adjacent => return GraphDelta::RemoveEdge { u: a, v: b },
                2 => {
                    return GraphDelta::SetVwgt {
                        v: a,
                        w: 0.5 + mag / 3.0,
                    }
                }
                3 => {
                    return GraphDelta::ShiftCoord {
                        v: a,
                        dx: (mag - 7.5) / 16.0,
                        dy: (7.5 - mag) / 24.0,
                    }
                }
                _ => {}
            }
        }
    }

    /// A valid base whose rows 0 and 3 do not ascend.
    fn unsorted_base() -> (Graph, Vec<Point2>) {
        let rows: [&[(u32, f64)]; 6] = [
            &[(5, 0.75), (1, 1.5), (3, 2.25)],
            &[(0, 1.5), (2, 1.0), (4, 0.5)],
            &[(1, 1.0), (3, 3.0)],
            &[(4, 1.25), (0, 2.25), (2, 3.0)],
            &[(1, 0.5), (3, 1.25), (5, 2.0)],
            &[(0, 0.75), (4, 2.0)],
        ];
        let mut xadj = vec![0];
        for row in rows {
            xadj.push(xadj.last().unwrap() + row.len());
        }
        let (adjncy, ewgt) = rows.iter().flat_map(|row| row.iter().copied()).unzip();
        let g = Graph::from_csr(xadj, adjncy, ewgt, vec![1.0, 2.5, 1.0, 0.75, 1.0, 1.5]);
        g.validate().unwrap();
        (g, grid_2d_coords(2, 3))
    }

    /// Drive `deltas` random deltas through the `BTreeMap` overlay, through
    /// the dense one rebased at the same random points, and through a dense
    /// one that is never rebased and takes each delta as a batch of one.
    fn differential(base: Graph, coords: Vec<Point2>, seed: u64, deltas: usize) {
        let base = Arc::new(base);
        let mut old = reference::Overlay::new(base.clone(), Some(coords.clone()));
        let mut new = DeltaOverlay::new(base.clone(), Some(coords.clone())).unwrap();
        let mut flat = DeltaOverlay::new(base, Some(coords)).unwrap();
        let mut state = seed;
        for i in 0..deltas {
            let d = random_delta(&flat, &mut state);
            old.apply(&d).unwrap();
            new.apply(&d).unwrap();
            flat.apply_batch(std::slice::from_ref(&d)).unwrap();
            if splitmix64(&mut state).is_multiple_of(16) {
                old.rebase();
                new.rebase();
            }
            let want = old.image();
            assert_eq!(Image::of(&new), want, "delta {i}: {d:?}");
            // A rebase on one side only shows in the footprint, nowhere else.
            let flat = Image {
                patched: want.patched,
                ..Image::of(&flat)
            };
            assert_eq!(flat, want, "delta {i}: {d:?}");
        }
    }

    #[test]
    fn dense_overlay_matches_the_btreemap_overlay_delta_by_delta() {
        differential(grid_2d(8, 8), grid_2d_coords(8, 8), 1, 400);
        let (mesh, coords) = delaunay_graph(150, &mut StdRng::seed_from_u64(5));
        differential(mesh, coords, 2, 400);
        let (g, coords) = unsorted_base();
        differential(g, coords, 3, 200);
    }

    #[test]
    fn shift_to_a_non_finite_coordinate_is_rejected() {
        let mut ov =
            DeltaOverlay::new(Arc::new(grid_2d(3, 3)), Some(grid_2d_coords(3, 3))).unwrap();
        let far = GraphDelta::ShiftCoord {
            v: 0,
            dx: 1e308,
            dy: 0.0,
        };
        ov.apply(&far).unwrap(); // 1e308 is a coordinate
        let before = Image::of(&ov);
        assert_eq!(ov.apply(&far), Err(DeltaError::BadCoord)); // 2e308 is not
        assert_eq!(Image::of(&ov), before);
        let batch = [
            GraphDelta::SetVwgt { v: 1, w: 2.0 },
            GraphDelta::AddEdge { u: 0, v: 8, w: 1.0 },
            GraphDelta::ShiftCoord {
                v: 0,
                dx: -0.5,
                dy: 0.5,
            },
            far,
        ];
        assert_eq!(ov.apply_batch(&batch), Err(DeltaError::BadCoord));
        assert_eq!(Image::of(&ov), before);
    }

    #[test]
    fn rolled_back_batch_restores_an_unsorted_row_in_place() {
        // Row 0 is [5, 1, 3]. Touch it before the batch, so that the batch
        // edits the list it finds and rollback cannot fall back on the base
        // row; a search for where 3 or 5 "belongs" would put them elsewhere.
        let (g, coords) = unsorted_base();
        let mut ov = DeltaOverlay::new(Arc::new(g), Some(coords)).unwrap();
        ov.apply(&GraphDelta::RemoveEdge { u: 0, v: 1 }).unwrap();
        let before = Image::of(&ov);
        assert_eq!(
            before.neighbors[0],
            [(5, 0.75f64.to_bits()), (3, 2.25f64.to_bits())]
        );
        let batch = [
            GraphDelta::RemoveEdge { u: 3, v: 0 },
            GraphDelta::AddEdge { u: 0, v: 4, w: 0.5 },
            GraphDelta::RemoveEdge { u: 0, v: 5 },
            GraphDelta::AddEdge { u: 0, v: 3, w: 1.0 },
            GraphDelta::AddEdge { u: 2, v: 2, w: 1.0 },
        ];
        assert_eq!(ov.apply_batch(&batch), Err(DeltaError::SelfLoop { v: 2 }));
        assert_eq!(Image::of(&ov), before);
    }
}

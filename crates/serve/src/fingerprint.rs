//! Request fingerprinting for the result cache.
//!
//! The cache key must distinguish any two inputs the partitioner could
//! answer differently, so the graph fingerprint covers the *entire* CSR
//! content — structure (`xadj`, `adjncy`), edge-weight bits, vertex-weight
//! bits — plus the coordinate bits when the request supplies coordinates
//! (the geometric methods consume them). Two graphs that differ only in
//! edge weights therefore hash apart. Built on sp-trace's FNV-1a
//! [`Fingerprint`] (the same accumulator sp-verify uses), which is
//! hand-rolled and platform-stable, so cache keys (and the `fingerprint`
//! field echoed in responses) are reproducible across hosts.
//!
//! Fingerprinting reads the whole graph, and to have a graph to read the
//! request's source must first be generated or parsed. `SourceMemo`
//! remembers what each source came to, so only the first request naming
//! it pays for either.

use crate::cache::LruCache;
use crate::proto::GraphSource;
use scalapart::obs::Counter;
use sp_geometry::Point2;
use sp_graph::Graph;
use sp_trace::fnv::Fingerprint;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

/// Fingerprint a graph's full CSR content.
pub fn fingerprint_graph(g: &Graph) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64(g.n() as u64);
    for &x in g.xadj() {
        fp.u64(x as u64);
    }
    for &u in g.adjncy() {
        fp.u64(u as u64);
    }
    for &w in g.ewgts() {
        fp.f64_bits(w);
    }
    for &w in g.vwgts() {
        fp.f64_bits(w);
    }
    fp.finish()
}

/// Fingerprint a graph together with optional request coordinates. A
/// request without coordinates hashes differently from one with them —
/// the coordinate-free path embeds the graph itself, which changes the
/// result for every geometric method.
pub fn fingerprint_input(g: &Graph, coords: Option<&[Point2]>) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64(fingerprint_graph(g));
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

/// What a graph source resolves to, short of the graph: all that routing,
/// the cache key and the `parts` check need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SourceInfo {
    /// [`fingerprint_input`] of the materialised graph and coordinates.
    pub(crate) input_fp: u64,
    /// Its vertex count.
    pub(crate) n: usize,
}

/// A source's bytes, reduced to a fixed size: kind, length and two
/// unrelated 64-bit digests (FNV-1a and the standard library's SipHash).
/// The memo must not hold the bytes themselves — inline Chaco text is as
/// large as its graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SourceKey {
    chaco: bool,
    len: usize,
    fnv: u64,
    sip: u64,
}

impl SourceKey {
    pub(crate) fn of(source: &GraphSource<'_>) -> SourceKey {
        let (chaco, text) = match source {
            GraphSource::Spec(s) => (false, s),
            GraphSource::Chaco(s) => (true, s),
        };
        let mut fnv = Fingerprint::new();
        fnv.bytes(text.as_bytes());
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        sip.write(text.as_bytes());
        SourceKey {
            chaco,
            len: text.len(),
            fnv: fnv.finish(),
            sip: sip.finish(),
        }
    }
}

/// Sources remembered at once, per shard and per router. A campaign's
/// working set is a handful of meshes; an entry is 48 bytes.
const SOURCE_MEMO_CAPACITY: usize = 64;

/// Graph source → [`SourceInfo`], so that a repeat of a source yields its
/// routing key and cache key without generating, parsing or fingerprinting
/// a graph. It holds no graphs: a result miss still builds its own, and
/// what that comes to is checked against what was remembered.
///
/// The counters say what a submit cost: a hit is one answered from the
/// memo with no graph built, a miss one for which a graph was built.
pub(crate) struct SourceMemo {
    known: Mutex<LruCache<SourceKey, SourceInfo>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl SourceMemo {
    /// A memo counting into `sp_source_memo_{hits,misses}_total`.
    pub(crate) fn new(hits: Arc<Counter>, misses: Arc<Counter>) -> SourceMemo {
        SourceMemo {
            known: Mutex::new(LruCache::new(SOURCE_MEMO_CAPACITY)),
            hits,
            misses,
        }
    }

    fn known(&self) -> std::sync::MutexGuard<'_, LruCache<SourceKey, SourceInfo>> {
        self.known
            .lock()
            .expect("no memo operation panics under the lock")
    }

    /// What is remembered of the source behind `key`. Counts nothing: the
    /// caller reports [`spared`](Self::spared) once that has answered the
    /// submit, or goes on to build the graph and [`learn`](Self::learn).
    pub(crate) fn get(&self, key: &SourceKey) -> Option<SourceInfo> {
        self.known().get(key).map(|info| *info)
    }

    /// Count a submit answered with no graph built.
    pub(crate) fn spared(&self) {
        self.hits.inc();
    }

    /// Fingerprint a graph just materialised from the source behind `key`,
    /// remember it, and count the submit that needed it. A source is a pure
    /// function of its bytes, so an entry that disagrees with the graph
    /// means two sources share a key.
    pub(crate) fn learn(
        &self,
        key: SourceKey,
        graph: &Graph,
        coords: Option<&[Point2]>,
    ) -> SourceInfo {
        let info = SourceInfo {
            input_fp: fingerprint_input(graph, coords),
            n: graph.n(),
        };
        self.misses.inc();
        let mut known = self.known();
        debug_assert!(
            known.get(&key).is_none_or(|was| *was == info),
            "two graph sources share a memo key"
        );
        known.insert(key, Arc::new(info));
        info
    }

    /// [`get`](Self::get), else materialise and [`learn`](Self::learn).
    pub(crate) fn resolve(&self, source: &GraphSource<'_>) -> Result<SourceInfo, String> {
        let key = SourceKey::of(source);
        if let Some(info) = self.get(&key) {
            self.spared();
            return Ok(info);
        }
        let (graph, coords) = source.materialise()?;
        Ok(self.learn(key, &graph, coords.as_ref().map(|c| c.as_slice())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::GraphBuilder;

    #[test]
    fn memo_resolves_as_materialising_would_and_forgets_at_capacity() {
        let (hits, misses) = (Arc::new(Counter::default()), Arc::new(Counter::default()));
        let memo = SourceMemo::new(hits.clone(), misses.clone());
        let chaco = "3 2\n2\n1 3\n2\n";
        let sources = [
            GraphSource::Spec("gen:grid:8x6"),
            GraphSource::Spec("suite:kkt_power:tiny"),
            GraphSource::Chaco(chaco),
        ];
        for source in &sources {
            let (g, c) = source.materialise().unwrap();
            let want = SourceInfo {
                input_fp: fingerprint_input(&g, c.as_ref().map(|c| c.as_slice())),
                n: g.n(),
            };
            assert_eq!(memo.resolve(source), Ok(want), "cold");
            assert_eq!(memo.resolve(source), Ok(want), "warm");
        }
        assert_eq!((hits.get(), misses.get()), (3, 3));
        // The same bytes under the other field name are another source.
        assert!(memo
            .get(&SourceKey::of(&GraphSource::Spec(chaco)))
            .is_none());
        // A bad source is not remembered, and capacity is a hard bound.
        assert!(memo.resolve(&GraphSource::Spec("gen:grid:8x6:x")).is_err());
        for w in 0..SOURCE_MEMO_CAPACITY {
            let spec = format!("gen:grid:{}x2", w + 2);
            memo.resolve(&GraphSource::Spec(&spec)).unwrap();
        }
        assert_eq!(memo.known().len(), SOURCE_MEMO_CAPACITY);
        assert!(memo.get(&SourceKey::of(&sources[0])).is_none(), "evicted");
    }

    fn path_graph(weights: &[f64]) -> Graph {
        let mut b = GraphBuilder::new(weights.len() + 1);
        for (i, &w) in weights.iter().enumerate() {
            b.add_edge(i as u32, i as u32 + 1, w);
        }
        b.build()
    }

    #[test]
    fn identical_graphs_fingerprint_identically() {
        let a = path_graph(&[1.0, 2.0, 3.0]);
        let b = path_graph(&[1.0, 2.0, 3.0]);
        assert_eq!(fingerprint_graph(&a), fingerprint_graph(&b));
    }

    #[test]
    fn edge_weights_change_the_fingerprint() {
        // Same topology, different edge weights → different key. This is
        // the cache-correctness property: the partitioner can answer the
        // two differently, so they must occupy distinct cache entries.
        let a = path_graph(&[1.0, 1.0, 1.0]);
        let b = path_graph(&[1.0, 2.0, 1.0]);
        assert_eq!(a.adjncy(), b.adjncy());
        assert_eq!(a.xadj(), b.xadj());
        assert_ne!(fingerprint_graph(&a), fingerprint_graph(&b));
    }

    #[test]
    fn vertex_weights_and_coords_change_the_fingerprint() {
        let a = path_graph(&[1.0, 1.0]);
        let mut bb = GraphBuilder::new(3);
        bb.add_edge(0, 1, 1.0);
        bb.add_edge(1, 2, 1.0);
        bb.set_vwgt(1, 5.0);
        let b = bb.build();
        assert_ne!(fingerprint_graph(&a), fingerprint_graph(&b));

        let coords: Vec<Point2> = (0..3).map(|i| Point2::new(i as f64, 0.0)).collect();
        let plain = fingerprint_input(&a, None);
        let with = fingerprint_input(&a, Some(&coords));
        assert_ne!(plain, with);
        let mut moved = coords.clone();
        moved[2].y = 1.0;
        assert_ne!(with, fingerprint_input(&a, Some(&moved)));
    }
}

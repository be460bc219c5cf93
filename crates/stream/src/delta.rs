//! The graph update model: small, explicit mutations to an undirected
//! weighted graph (and, for mesh use cases, its embedding coordinates).
//!
//! A *delta chain* is an ordered sequence of [`GraphDelta`]s applied to an
//! immutable base CSR. Chains are fingerprinted incrementally — every
//! delta folds a canonical encoding into an FNV-1a accumulator — so two
//! sessions that opened the same base and applied the same deltas in the
//! same order share a fingerprint, which is what lets sp-serve key its
//! streaming result cache by `(base fingerprint, chain fingerprint)`.

use sp_trace::fnv::Fingerprint;

/// One mutation in a delta chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphDelta {
    /// Insert the undirected edge `(u, v)` with weight `w`. The edge must
    /// not already exist (use [`GraphDelta::SetVwgt`]-style replace-by-
    /// remove-then-add for weight changes, keeping the chain canonical).
    AddEdge { u: u32, v: u32, w: f64 },
    /// Remove the undirected edge `(u, v)`. The edge must exist.
    RemoveEdge { u: u32, v: u32 },
    /// Replace the vertex weight (mass) of `v` with `w`.
    SetVwgt { v: u32, w: f64 },
    /// Shift the embedding coordinate of `v` by `(dx, dy)` — mesh drift.
    ShiftCoord { v: u32, dx: f64, dy: f64 },
}

/// Why a delta could not be applied.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaError {
    /// Vertex id at or beyond `n` (the overlay never grows the vertex set).
    VertexOutOfRange { v: u32, n: usize },
    /// `AddEdge` with `u == v`.
    SelfLoop { v: u32 },
    /// `AddEdge` for an edge that already exists.
    DuplicateEdge { u: u32, v: u32 },
    /// `RemoveEdge` for an edge that does not exist.
    MissingEdge { u: u32, v: u32 },
    /// Non-finite or non-positive weight.
    BadWeight { w: f64 },
    /// `ShiftCoord` on an overlay opened without coordinates, or whose
    /// resulting coordinate is not finite: a non-finite offset, or a
    /// finite one that carries the coordinate past the largest `f64`.
    BadCoord,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::VertexOutOfRange { v, n } => {
                write!(f, "vertex {v} out of range (n = {n})")
            }
            DeltaError::SelfLoop { v } => write!(f, "self loop at {v}"),
            DeltaError::DuplicateEdge { u, v } => write!(f, "edge ({u},{v}) already exists"),
            DeltaError::MissingEdge { u, v } => write!(f, "edge ({u},{v}) does not exist"),
            DeltaError::BadWeight { w } => write!(f, "bad weight {w}"),
            DeltaError::BadCoord => write!(f, "bad coordinate delta"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl GraphDelta {
    /// The vertices this delta touches (seeds of the dirty region).
    pub fn touches(&self) -> (u32, Option<u32>) {
        match *self {
            GraphDelta::AddEdge { u, v, .. } | GraphDelta::RemoveEdge { u, v } => (u, Some(v)),
            GraphDelta::SetVwgt { v, .. } | GraphDelta::ShiftCoord { v, .. } => (v, None),
        }
    }

    /// Fold a canonical encoding of this delta into `fp`. Endpoints of
    /// edge deltas are folded in `(min, max)` order, so `AddEdge(u, v)`
    /// and `AddEdge(v, u)` — the same logical mutation — fingerprint
    /// identically.
    pub fn fold(&self, fp: &mut Fingerprint) {
        match *self {
            GraphDelta::AddEdge { u, v, w } => {
                fp.byte(1);
                fp.u64(u.min(v) as u64);
                fp.u64(u.max(v) as u64);
                fp.f64_bits(w);
            }
            GraphDelta::RemoveEdge { u, v } => {
                fp.byte(2);
                fp.u64(u.min(v) as u64);
                fp.u64(u.max(v) as u64);
            }
            GraphDelta::SetVwgt { v, w } => {
                fp.byte(3);
                fp.u64(v as u64);
                fp.f64_bits(w);
            }
            GraphDelta::ShiftCoord { v, dx, dy } => {
                fp.byte(4);
                fp.u64(v as u64);
                fp.f64_bits(dx);
                fp.f64_bits(dy);
            }
        }
    }
}

/// Extend a chain fingerprint by one delta: `next = FNV(prev ‖ delta)`.
/// Starting from any fixed value (sessions start from the base
/// fingerprint), equal chains yield equal fingerprints and any prefix
/// divergence propagates to every later link.
pub fn chain_extend(prev: u64, d: &GraphDelta) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64(prev);
    d.fold(&mut fp);
    fp.finish()
}

/// Fold a marker event (e.g. "repartition requested") into a chain
/// fingerprint, so a cache key distinguishes `[δ₁, repartition, δ₂]`
/// from `[δ₁, δ₂, repartition]`.
pub fn chain_mark(prev: u64, tag: u8) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64(prev);
    fp.byte(0xF0);
    fp.byte(tag);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_deltas_are_orientation_invariant() {
        let a = chain_extend(7, &GraphDelta::AddEdge { u: 3, v: 9, w: 2.0 });
        let b = chain_extend(7, &GraphDelta::AddEdge { u: 9, v: 3, w: 2.0 });
        assert_eq!(a, b);
        let ra = chain_extend(a, &GraphDelta::RemoveEdge { u: 9, v: 3 });
        let rb = chain_extend(a, &GraphDelta::RemoveEdge { u: 3, v: 9 });
        assert_eq!(ra, rb);
    }

    #[test]
    fn chains_distinguish_order_and_content() {
        let d1 = GraphDelta::SetVwgt { v: 1, w: 2.0 };
        let d2 = GraphDelta::SetVwgt { v: 2, w: 1.0 };
        let ab = chain_extend(chain_extend(0, &d1), &d2);
        let ba = chain_extend(chain_extend(0, &d2), &d1);
        assert_ne!(ab, ba);
        assert_ne!(
            chain_extend(0, &d1),
            chain_extend(0, &GraphDelta::SetVwgt { v: 1, w: 3.0 })
        );
    }

    #[test]
    fn marker_position_matters() {
        let d = GraphDelta::ShiftCoord {
            v: 0,
            dx: 0.1,
            dy: 0.0,
        };
        let early = chain_extend(chain_mark(0, 1), &d);
        let late = chain_mark(chain_extend(0, &d), 1);
        assert_ne!(early, late);
    }

    #[test]
    fn touches_reports_endpoints() {
        assert_eq!(
            GraphDelta::AddEdge { u: 5, v: 2, w: 1.0 }.touches(),
            (5, Some(2))
        );
        assert_eq!(GraphDelta::SetVwgt { v: 4, w: 1.0 }.touches(), (4, None));
    }
}

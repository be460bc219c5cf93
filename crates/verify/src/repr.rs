//! Representation-blindness verification: the compact CSR
//! ([`sp_graph::CompactGraph`], u32 offsets + elided unit weights) must be
//! indistinguishable from the reference [`Graph`]: its round trip is
//! bit-identical in all four arrays a `Graph` has, both representations
//! agree on [`graph_fingerprint`], and they cut out the same induced
//! subgraph. A round trip equal in every field is the same input to the
//! pipeline, so no pipeline run is needed here; the parallel stage covers
//! the pipeline's own blindness to host execution.

use sp_graph::{graph_fingerprint, CompactGraph, Graph};

use crate::{Failure, Report};

/// Heap bytes of the reference representation: `f64` vertex weights,
/// `u64` offsets, and per directed edge a `u32` target and an `f64`
/// weight.
fn reference_bytes(g: &Graph) -> usize {
    g.n() * 8 + g.xadj().len() * 8 + 2 * g.m() * (4 + 8)
}

/// Run the structural representation checks on `g`.
pub fn run_repr_campaign(g: &Graph) -> Report {
    let mut failures = Vec::new();
    let mut fail = |invariant, detail: String| {
        failures.push(Failure {
            stage: "repr",
            seed: None,
            invariant,
            detail,
        })
    };

    let compact = CompactGraph::from_graph(g);
    let round = compact.to_graph();
    if round.xadj() != g.xadj()
        || round.adjncy() != g.adjncy()
        || round.ewgts() != g.ewgts()
        || round.vwgts() != g.vwgts()
    {
        fail(
            "round-trip",
            "compact round-trip is not bit-identical".to_string(),
        );
    }
    let fp_ref = graph_fingerprint(g);
    let fp_cmp = graph_fingerprint(&compact);
    if fp_ref != fp_cmp {
        fail(
            "graph-fingerprint",
            format!("reference {fp_ref:#018x} vs compact {fp_cmp:#018x}"),
        );
    }
    // Induced subgraph of the even vertices through both representations.
    let verts: Vec<u32> = (0..g.n() as u32).step_by(2).collect();
    if !verts.is_empty() {
        let (sg, _) = g.induced_subgraph(&verts);
        let (sc, _) = compact.induced_subgraph(&verts);
        if graph_fingerprint(&sc) != graph_fingerprint(&sg) {
            fail(
                "induced-subgraph",
                "induced subgraphs diverge between representations".to_string(),
            );
        }
    }

    Report {
        summary: format!(
            "round trip bit-identical, graph fp {fp_ref:#018x}, induced subgraphs agree, \
             compact {} KiB vs reference {} KiB",
            compact.heap_bytes() / 1024,
            reference_bytes(g) / 1024
        ),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::gen::{delaunay_graph, grid_2d};

    #[test]
    fn grid_is_representation_blind() {
        let g = grid_2d(24, 24);
        let report = run_repr_campaign(&g);
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok());
        // Unit-weight grid: the compact representation must actually be
        // smaller, not just equivalent.
        assert!(CompactGraph::from_graph(&g).heap_bytes() * 2 < reference_bytes(&g));
    }

    #[test]
    fn delaunay_is_representation_blind() {
        let (g, _) = delaunay_graph(600, &mut StdRng::seed_from_u64(21));
        let report = run_repr_campaign(&g);
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok());
    }
}

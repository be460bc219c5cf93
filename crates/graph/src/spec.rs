//! Graph specs: the short names the `scalapart` CLI and sp-serve requests
//! use for a graph that is generated rather than read from a file.
//!
//! - `gen:grid:WxH` — a grid `W` vertices wide and `H` high
//!   ([`grid_2d`]`(H, W)`: `H` rows of `W`), with its natural coordinates;
//!   each dimension in `2..=4096`;
//! - `suite:name[:scale]` — a graph of the nine-graph suite
//!   ([`SuiteGraph`]) at `tiny` (the default) or `bench` scale.

use crate::csr::Graph;
use crate::gen::{grid_2d, grid_2d_coords};
use crate::suite::{SuiteGraph, TestScale};
use sp_geometry::Point2;

/// Build the graph a spec names, with its coordinates where the family
/// has them. The error is a one-line reason fit to show a user.
pub fn parse_graph_spec(spec: &str) -> Result<(Graph, Option<Vec<Point2>>), String> {
    let mut it = spec.split(':');
    match it.next() {
        Some("gen") => match it.next() {
            Some("grid") => {
                let dims = it
                    .next()
                    .ok_or("gen:grid needs dimensions, e.g. gen:grid:32x32")?;
                let (w, h) = dims
                    .split_once('x')
                    .ok_or("grid dimensions must look like 32x32")?;
                let parse = |s: &str| -> Result<usize, String> {
                    let v: usize = s.parse().map_err(|_| format!("bad grid dimension {s:?}"))?;
                    if (2..=4096).contains(&v) {
                        Ok(v)
                    } else {
                        Err(format!("grid dimension {v} outside 2..=4096"))
                    }
                };
                let (w, h) = (parse(w)?, parse(h)?);
                if it.next().is_some() {
                    return Err("gen:grid:WxH takes nothing after the dimensions".into());
                }
                Ok((grid_2d(h, w), Some(grid_2d_coords(h, w))))
            }
            other => Err(format!("unknown generator {other:?}; try gen:grid:WxH")),
        },
        Some("suite") => {
            let name = it.next().ok_or("suite: needs a graph name")?;
            let which = SuiteGraph::all()
                .into_iter()
                .find(|s| s.name() == name)
                .ok_or_else(|| {
                    let names: Vec<&str> = SuiteGraph::all().iter().map(|s| s.name()).collect();
                    format!("unknown suite graph {name:?}; known: {}", names.join(", "))
                })?;
            let scale = match it.next() {
                None | Some("tiny") => TestScale::Tiny,
                Some("bench") => TestScale::Bench,
                Some(other) => return Err(format!("unknown scale {other:?}; use tiny or bench")),
            };
            if it.next().is_some() {
                return Err("suite:name[:scale] takes nothing after the scale".into());
            }
            let tg = which.instantiate(scale, 1);
            Ok((tg.graph, tg.coords))
        }
        _ => Err(format!(
            "unknown graph spec {spec:?}; use gen:grid:WxH or suite:name[:scale]"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_spec_is_width_by_height() {
        // gen:grid:5x2 is 2 rows of 5: vertex 4 ends the top row, so its
        // neighbour below is 9, and 5 starts the next row.
        let (g, coords) = parse_graph_spec("gen:grid:5x2").unwrap();
        assert_eq!(g.n(), 10);
        assert_eq!(coords.unwrap().len(), 10);
        let nbrs = g.neighbors(4);
        assert!(nbrs.contains(&9), "{nbrs:?}");
        assert!(!nbrs.contains(&5), "{nbrs:?}");
    }
}

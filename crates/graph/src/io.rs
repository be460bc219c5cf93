//! Text I/O: Chaco/Metis graph format and coordinate files.
//!
//! The UFL graphs in the paper circulate in Chaco/Metis format; supporting
//! it lets users run this library on the real collection. The format:
//! first line `N M [fmt]`, then one line per vertex listing its 1-based
//! neighbours (optionally with weights, which we support for fmt=1/11).

use crate::build::csr_from_edges;
use crate::csr::Graph;
use sp_geometry::Point2;
use std::io::{BufRead, BufWriter, Write};

/// Parse a Chaco/Metis-format graph from a reader.
///
/// Hardened against adversarial input — every malformed file yields an
/// `Err`, never a panic or an unbounded allocation:
/// - header `N` is capped at `u32::MAX` (vertex ids are `u32`), and
///   neither `N` nor `M` sizes an allocation: the arrays grow with the
///   lines actually read;
/// - neighbour indices must be in `1..=N` (the format is 1-based; `0` is
///   always corrupt);
/// - self-loops and duplicate neighbours within a vertex line are
///   rejected (the builder would silently drop/merge them, masking
///   corruption);
/// - every edge must be mentioned by *both* endpoints and the resulting
///   edge count must match the header `M`, so truncated or asymmetric
///   files are caught;
/// - edge weights must be finite and positive, vertex weights finite and
///   non-negative (NaN/∞ would poison every downstream quality metric).
pub fn read_chaco<R: BufRead>(r: R) -> Result<Graph, String> {
    let mut lines = r.lines().enumerate();
    // Header (skipping comments).
    let (n, m, has_ewgt, has_vwgt) = loop {
        let (_, line) = lines.next().ok_or("empty file")?;
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let n: u64 = it
            .next()
            .ok_or("missing N")?
            .parse()
            .map_err(|_| "bad N".to_string())?;
        let m: u64 = it
            .next()
            .ok_or("missing M")?
            .parse()
            .map_err(|_| "bad M".to_string())?;
        if n > u32::MAX as u64 {
            return Err(format!("N = {n} exceeds the u32 vertex-id limit"));
        }
        if m > n.saturating_mul(n.saturating_add(1)) / 2 {
            return Err(format!("M = {m} impossible for N = {n}"));
        }
        let fmt = it.next().unwrap_or("0");
        let fmt_digits: Vec<char> = fmt.chars().collect();
        let has_ewgt = fmt_digits.last() == Some(&'1');
        let has_vwgt = fmt_digits.len() >= 2 && fmt_digits[fmt_digits.len() - 2] == '1';
        break (n as usize, m as usize, has_ewgt, has_vwgt);
    };
    // Stream each vertex line straight into the final CSR arrays: a
    // Chaco file *is* an adjacency list, so no builder tuple buffer is
    // needed — the transient peak is the output graph itself plus one
    // line's worth of scratch. Rows are canonicalized ascending and the
    // symmetric pass below both verifies every edge is mentioned by both
    // endpoints and copies the lower endpoint's listed weight onto the
    // upper direction (the builder path's exact semantics). The arrays
    // grow as lines arrive and nothing is reserved from the header, so
    // what is allocated is bounded by the input's bytes, whatever N and M
    // it declares.
    let mut xadj: Vec<usize> = vec![0];
    let (mut adjncy, mut ewgt): (Vec<u32>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut vwgt: Vec<f64> = Vec::new();
    let mut v = 0u32;
    // Directed mentions: a well-formed file lists every undirected edge
    // once from each endpoint, so the total must be exactly 2M.
    let mut mentions = 0usize;
    let mut row: Vec<(u32, f64)> = Vec::new();
    for (lineno, line) in lines {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.starts_with('%') || line.starts_with('#') {
            continue;
        }
        if v as usize >= n {
            if !line.is_empty() {
                return Err(format!("line {}: more vertex lines than N", lineno + 1));
            }
            continue;
        }
        let mut it = line.split_whitespace().peekable();
        if has_vwgt {
            let w: f64 = it
                .next()
                .ok_or(format!("line {}: missing vertex weight", lineno + 1))?
                .parse()
                .map_err(|_| format!("line {}: bad vertex weight", lineno + 1))?;
            if !w.is_finite() || w < 0.0 {
                return Err(format!("line {}: vertex weight {w} invalid", lineno + 1));
            }
            vwgt.push(w);
        } else {
            vwgt.push(1.0);
        }
        row.clear();
        while let Some(tok) = it.next() {
            let u: usize = tok
                .parse()
                .map_err(|_| format!("line {}: bad neighbour '{tok}'", lineno + 1))?;
            if u == 0 || u > n {
                return Err(format!("line {}: neighbour {u} out of range", lineno + 1));
            }
            let w = if has_ewgt {
                let w: f64 = it
                    .next()
                    .ok_or(format!("line {}: missing edge weight", lineno + 1))?
                    .parse()
                    .map_err(|_| format!("line {}: bad edge weight", lineno + 1))?;
                if !w.is_finite() || w <= 0.0 {
                    return Err(format!("line {}: edge weight {w} invalid", lineno + 1));
                }
                w
            } else {
                1.0
            };
            let u = (u - 1) as u32;
            if u == v {
                return Err(format!(
                    "line {}: self-loop on vertex {}",
                    lineno + 1,
                    v + 1
                ));
            }
            row.push((u, w));
            mentions += 1;
        }
        row.sort_unstable_by_key(|p| p.0);
        if row.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(format!("line {}: duplicate neighbour", lineno + 1));
        }
        for &(u, w) in &row {
            adjncy.push(u);
            ewgt.push(w);
        }
        xadj.push(adjncy.len());
        v += 1;
    }
    if (v as usize) != n {
        return Err(format!("expected {n} vertex lines, found {v}"));
    }
    if mentions != 2 * m {
        return Err(format!(
            "header declares {m} edges but vertex lines mention {mentions} endpoints \
             (expected {})",
            2 * m
        ));
    }
    // Symmetry pass: every directed mention needs its reverse (rows are
    // sorted, so the reverse is a binary search away); the lower
    // endpoint's listed weight is canonical for both directions.
    for a in 0..n {
        for k in xadj[a]..xadj[a + 1] {
            let bvtx = adjncy[k] as usize;
            let brow = &adjncy[xadj[bvtx]..xadj[bvtx + 1]];
            match brow.binary_search(&(a as u32)) {
                Ok(pos) => {
                    if a < bvtx {
                        ewgt[xadj[bvtx] + pos] = ewgt[k];
                    }
                }
                Err(_) => {
                    return Err(format!(
                        "asymmetric adjacency: header declares {m} edges, but edge \
                         ({},{}) is mentioned only once",
                        a + 1,
                        bvtx + 1
                    ));
                }
            }
        }
    }
    Ok(Graph::from_csr(xadj, adjncy, ewgt, vwgt))
}

/// Write a graph in Chaco/Metis format (unweighted form).
pub fn write_chaco<W: Write>(g: &Graph, w: W) -> std::io::Result<()> {
    write_chaco_fmt(g, w, false, false)
}

/// Write a graph in Chaco/Metis format with vertex weights (fmt `10`),
/// edge weights (fmt `1`), or both (fmt `11`). Weights print with Rust's
/// shortest round-trip `Display`, so [`read_chaco`] reconstructs them
/// bit-exactly.
pub fn write_chaco_weighted<W: Write>(g: &Graph, w: W) -> std::io::Result<()> {
    write_chaco_fmt(g, w, true, true)
}

fn write_chaco_fmt<W: Write>(g: &Graph, w: W, vwgt: bool, ewgt: bool) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    match (vwgt, ewgt) {
        (false, false) => writeln!(out, "{} {}", g.n(), g.m())?,
        (false, true) => writeln!(out, "{} {} 1", g.n(), g.m())?,
        (true, false) => writeln!(out, "{} {} 10", g.n(), g.m())?,
        (true, true) => writeln!(out, "{} {} 11", g.n(), g.m())?,
    }
    for v in 0..g.n() as u32 {
        let mut first = true;
        if vwgt {
            write!(out, "{}", g.vwgt(v))?;
            first = false;
        }
        for (u, wt) in g.neighbors_w(v) {
            if first {
                write!(out, "{}", u + 1)?;
                first = false;
            } else {
                write!(out, " {}", u + 1)?;
            }
            if ewgt {
                write!(out, " {wt}")?;
            }
        }
        writeln!(out)?;
    }
    out.flush()
}

/// Parse a MatrixMarket `coordinate` file as an undirected graph — the
/// native format of the UFL/SuiteSparse collection the paper's suite comes
/// from. The matrix must be square; diagonal entries are dropped; values
/// (if present) become edge weights by absolute value; `pattern` files get
/// unit weights. Both `symmetric` and `general` symmetry are accepted
/// (for `general`, each direction contributes and duplicates merge).
/// `N` is capped at `u32::MAX`, `nnz` sizes no allocation, and values must
/// be finite.
pub fn read_matrix_market<R: BufRead>(r: R) -> Result<Graph, String> {
    let mut lines = r.lines();
    let header = lines
        .next()
        .ok_or("empty file")?
        .map_err(|e| e.to_string())?;
    let h: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if h.len() < 4 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err("not a MatrixMarket matrix file".into());
    }
    if h[2] != "coordinate" {
        return Err(format!("unsupported storage '{}'", h[2]));
    }
    let pattern = h[3] == "pattern";
    // Dimensions (skipping comments).
    let (n, nnz) = loop {
        let line = lines
            .next()
            .ok_or("missing dimensions")?
            .map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let rows: usize = it
            .next()
            .ok_or("missing rows")?
            .parse()
            .map_err(|_| "bad rows")?;
        let cols: usize = it
            .next()
            .ok_or("missing cols")?
            .parse()
            .map_err(|_| "bad cols")?;
        let nnz: usize = it
            .next()
            .ok_or("missing nnz")?
            .parse()
            .map_err(|_| "bad nnz")?;
        if rows != cols {
            return Err(format!("matrix must be square, got {rows}×{cols}"));
        }
        if rows > u32::MAX as usize {
            return Err(format!("N = {rows} exceeds the u32 vertex-id limit"));
        }
        break (rows, nnz);
    };
    // Nothing is sized from the header until every entry has been read:
    // the edge buffer grows with the entries, and the graph's
    // N-sized arrays come after the count checks out.
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let i: usize = it
            .next()
            .ok_or("missing row index")?
            .parse()
            .map_err(|_| "bad row")?;
        let j: usize = it
            .next()
            .ok_or("missing col index")?
            .parse()
            .map_err(|_| "bad col")?;
        if i == 0 || j == 0 || i > n || j > n {
            return Err(format!("entry ({i},{j}) out of range"));
        }
        let w = if pattern {
            1.0
        } else {
            let x: f64 = it
                .next()
                .ok_or("missing value")?
                .parse()
                .map_err(|_| "bad value")?;
            if !x.is_finite() {
                return Err(format!("entry ({i},{j}): value {x} invalid"));
            }
            x.abs().max(1e-12)
        };
        if i != j {
            let (u, v) = ((i.min(j) - 1) as u32, (i.max(j) - 1) as u32);
            edges.push((u, v, w));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(format!("expected {nnz} entries, found {seen}"));
    }
    Ok(csr_from_edges(n, edges, vec![1.0; n], |e| e))
}

/// Read whitespace-separated `x y` coordinate lines.
pub fn read_coords<R: BufRead>(r: R) -> Result<Vec<Point2>, String> {
    let mut pts = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let x: f64 = it
            .next()
            .ok_or(format!("line {}: missing x", i + 1))?
            .parse()
            .map_err(|_| format!("line {}: bad x", i + 1))?;
        let y: f64 = it
            .next()
            .ok_or(format!("line {}: missing y", i + 1))?
            .parse()
            .map_err(|_| format!("line {}: bad y", i + 1))?;
        pts.push(Point2::new(x, y));
    }
    Ok(pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::gen::grid::grid_2d;

    #[test]
    fn chaco_roundtrip() {
        let g = grid_2d(6, 7);
        let mut buf = Vec::new();
        write_chaco(&g, &mut buf).unwrap();
        let g2 = read_chaco(buf.as_slice()).unwrap();
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.m(), g2.m());
        assert_eq!(g.adjncy(), g2.adjncy());
        g2.validate().unwrap();
    }

    #[test]
    fn chaco_reads_weighted_format() {
        let text = "3 2 11\n5 2 10\n3 1 10 3 7\n2 2 7\n";
        let g = read_chaco(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.vwgt(0), 5.0);
        assert_eq!(g.vwgt(1), 3.0);
        let w01 = g.neighbors_w(0).find(|&(u, _)| u == 1).unwrap().1;
        assert_eq!(w01, 10.0);
        g.validate().unwrap();
    }

    #[test]
    fn chaco_rejects_out_of_range() {
        let text = "2 1\n3\n1\n";
        assert!(read_chaco(text.as_bytes()).is_err());
    }

    #[test]
    fn chaco_skips_comments() {
        let text = "% a comment\n2 1\n2\n1\n";
        let g = read_chaco(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn chaco_weighted_roundtrip_is_bit_exact() {
        let mut b = GraphBuilder::new(4);
        b.set_vwgt(0, 2.5);
        b.set_vwgt(3, 0.125);
        b.add_edge(0, 1, 1.75);
        b.add_edge(1, 2, 1e-3);
        b.add_edge(2, 3, 123456.789);
        b.add_edge(0, 3, 7.0);
        let g = b.build();
        let mut buf = Vec::new();
        write_chaco_weighted(&g, &mut buf).unwrap();
        let g2 = read_chaco(buf.as_slice()).unwrap();
        assert_eq!(g.xadj(), g2.xadj());
        assert_eq!(g.adjncy(), g2.adjncy());
        assert_eq!(g.ewgts(), g2.ewgts());
        assert_eq!(g.vwgts(), g2.vwgts());
    }

    #[test]
    fn chaco_rejects_adversarial_input() {
        // Neighbour index 0 (the format is 1-based).
        assert!(read_chaco("2 1\n0\n1\n".as_bytes()).is_err());
        // Self-loop.
        assert!(read_chaco("2 1\n1 2\n1\n".as_bytes())
            .unwrap_err()
            .contains("self-loop"));
        // Duplicate neighbour in one line.
        assert!(read_chaco("3 2\n2 2\n1 1\n\n".as_bytes())
            .unwrap_err()
            .contains("duplicate"));
        // u32 overflow / absurd header: must Err, not allocate terabytes.
        assert!(read_chaco("5000000000 1\n".as_bytes())
            .unwrap_err()
            .contains("u32"));
        // A legal but huge N or M with no lines behind it: Err, having
        // allocated nothing from the header.
        assert!(read_chaco(format!("{} 0\n", u32::MAX).as_bytes())
            .unwrap_err()
            .contains("vertex lines"));
        assert!(read_chaco(format!("30000 {}\n", 1u64 << 28).as_bytes())
            .unwrap_err()
            .contains("vertex lines"));
        // M impossible for N.
        assert!(read_chaco("3 99\n2\n1\n\n".as_bytes()).is_err());
        // Asymmetric adjacency: edge mentioned from one side only.
        assert!(read_chaco("2 1\n2\n\n".as_bytes()).is_err());
        // Header/mention count mismatch (truncated file).
        assert!(read_chaco("3 2\n2\n1\n\n".as_bytes()).is_err());
        // Non-finite / non-positive weights.
        assert!(read_chaco("2 1 1\n2 NaN\n1 NaN\n".as_bytes()).is_err());
        assert!(read_chaco("2 1 1\n2 -1\n1 -1\n".as_bytes()).is_err());
        assert!(read_chaco("2 1 11\n-3 2 1\n1 1 1\n".as_bytes()).is_err());
    }

    /// Property: write → read is the identity on CSR bits, weighted and
    /// unweighted, over 256 seeded edge sets.
    #[test]
    fn chaco_roundtrip_property() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for case in 0..256 {
            let rng = &mut StdRng::seed_from_u64(case);
            let nv = rng.random_range(2usize..24);
            let mut b = GraphBuilder::new(nv);
            let mut any = false;
            for _ in 0..rng.random_range(1..60) {
                let u = rng.random_range(0usize..24) % nv;
                let v = rng.random_range(0usize..24) % nv;
                let w = rng.random_range(1u32..1000);
                if u != v {
                    b.add_edge(u as u32, v as u32, w as f64 / 8.0);
                    any = true;
                }
            }
            if !any {
                continue;
            }
            let g = b.build();
            for weighted in [false, true] {
                let mut buf = Vec::new();
                if weighted {
                    write_chaco_weighted(&g, &mut buf).unwrap();
                } else {
                    write_chaco(&g, &mut buf).unwrap();
                }
                let g2 = read_chaco(buf.as_slice()).unwrap();
                assert_eq!(g.xadj(), g2.xadj(), "case {case}");
                assert_eq!(g.adjncy(), g2.adjncy(), "case {case}");
                if weighted {
                    assert_eq!(g.ewgts(), g2.ewgts(), "case {case}");
                    assert_eq!(g.vwgts(), g2.vwgts(), "case {case}");
                }
            }
        }
    }

    #[test]
    fn matrix_market_symmetric_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a comment\n\
                    3 3 4\n1 1\n2 1\n3 1\n3 2\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3); // diagonal dropped; edges 1-2, 1-3, 2-3
        g.validate().unwrap();
    }

    #[test]
    fn matrix_market_real_values_become_weights() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n2 1 -4.5\n1 1 3.0\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 1);
        let w = g.neighbors_w(0).next().unwrap().1;
        assert_eq!(w, 4.5); // absolute value
    }

    #[test]
    fn matrix_market_rejects_bad_input() {
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real general\n".as_bytes()).is_err()
        );
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n".as_bytes()
        )
        .is_err()); // non-square
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n".as_bytes()
        )
        .is_err()); // nnz mismatch
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n".as_bytes()
        )
        .is_err()); // out of range
    }

    /// The error `read_matrix_market` gives a `general` file of `field`s.
    fn mm_err(field: &str, body: &str) -> String {
        let text = format!("%%MatrixMarket matrix coordinate {field} general\n{body}");
        read_matrix_market(text.as_bytes()).unwrap_err()
    }

    #[test]
    fn matrix_market_caps_n_at_the_u32_limit() {
        let n = (1u64 << 32) + 1;
        assert!(mm_err("pattern", &format!("{n} {n} 0\n")).contains("u32"));
    }

    #[test]
    fn matrix_market_reserves_nothing_from_nnz() {
        let err = mm_err("pattern", "2 2 9000000000000\n1 2\n");
        assert!(err.contains("expected 9000000000000 entries"), "{err}");
    }

    /// An infinite weight would poison every cut sum.
    #[test]
    fn matrix_market_rejects_infinite_values() {
        for value in ["inf", "-inf"] {
            assert!(mm_err("real", &format!("2 2 1\n1 2 {value}\n")).contains("invalid"));
        }
    }

    /// NaN must not pass as the 1e-12 floor `max` would turn it into.
    #[test]
    fn matrix_market_rejects_nan_values() {
        assert!(mm_err("real", "2 2 1\n1 2 NaN\n").contains("invalid"));
    }

    #[test]
    fn coords_roundtrip() {
        let pts = vec![Point2::new(0.5, -1.25), Point2::new(3.0, 4.0)];
        let text: String = pts.iter().map(|p| format!("{} {}\n", p.x, p.y)).collect();
        let back = read_coords(text.as_bytes()).unwrap();
        assert_eq!(back, pts);
    }

    #[test]
    fn coords_reject_garbage() {
        assert!(read_coords("1.0 nope\n".as_bytes()).is_err());
        assert!(read_coords("1.0\n".as_bytes()).is_err());
    }
}

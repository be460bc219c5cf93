//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [u32 length, big-endian][length bytes of UTF-8 JSON]
//! ```
//!
//! Frames larger than [`MAX_FRAME`] are rejected before reading the
//! payload, so a hostile length prefix cannot make the server allocate
//! gigabytes. Requests are parsed with the workspace's strict reader
//! ([`sp_trace::json`]); any malformed frame produces an `error` response and
//! the connection stays usable.
//!
//! Requests (`type` field selects):
//!
//! - `{"type": "submit", "graph": "gen:grid:32x32", "method": "sp",
//!   "parts": 4, "seed": 1, "deadline_ms": 5000}` — the `graph` string
//!   names a generated workload (`gen:grid:WxH` or `suite:name[:scale]`
//!   with scale `tiny`|`bench`); alternatively `"chaco": "<file text>"`
//!   submits an inline Chaco graph.
//! - `{"type": "metrics"}` — Prometheus text exposition (format 0.0.4)
//!   of the answering process's metric registry (a shard's service
//!   counters, or a router's own routing counters), carried in the `body`
//!   field of the response frame (`sp-serve metrics` unwraps it). This is
//!   the only exposition of the counters; a fleet is scraped shard by
//!   shard.
//! - `{"type": "shutdown"}` — graceful drain, then the server exits.
//!
//! Distributed-serving extensions (see DESIGN.md "Distributed serving").
//! No frame carries routing metadata: the router forwards a client's
//! frame bytes as they are, and a reply belongs to the request it answers
//! because it is the next frame on that connection (`net::Pool`).
//!
//! - `{"type": "ping"}` — health probe; answered with `{"type": "pong"}`.
//!
//! Streaming-session verbs (see DESIGN.md "Dynamic graphs"):
//!
//! - `{"type": "session_open", "session": "fleet", "graph":
//!   "gen:grid:32x32", "seed": 1}` — open a dynamic-graph session over a
//!   named workload (same `graph`/`chaco` forms as submit).
//! - `{"type": "session_delta", "session": "fleet", "deltas": [{"op":
//!   "add_edge", "u": 3, "v": 9, "w": 1.5}, {"op": "remove_edge", "u": 0,
//!   "v": 1}, {"op": "set_vwgt", "v": 4, "w": 2.0}, {"op": "shift_coord",
//!   "v": 7, "dx": 0.1, "dy": -0.2}]}` — apply a delta batch atomically.
//! - `{"type": "session_repartition", "session": "fleet"}` — re-refine
//!   the dirty region (or re-partition fully past the threshold).
//! - `{"type": "session_close", "session": "fleet"}` — drop the session.

use crate::json::Value;
use crate::service::{JobOutcome, SubmitError};
use scalapart::stream::GraphDelta;
use scalapart::Method;
use sp_geometry::Point2;
use sp_graph::{io::read_chaco, parse_graph_spec, Graph};
use sp_trace::json::{escape, num};
use std::io::{IoSlice, Read, Write};
use std::sync::Arc;

/// Largest accepted frame payload (16 MiB) — enough for a multi-million
/// vertex label vector, small enough to bound a hostile allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Read one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly before a header.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    // Header and payload leave in one write: on a `TCP_NODELAY` socket two
    // writes are two segments and two wake-ups of the reader.
    let header = len.to_be_bytes();
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// A decoded client request.
pub enum Request {
    Submit {
        graph: Arc<Graph>,
        coords: Option<Arc<Vec<Point2>>>,
        method: Method,
        parts: usize,
        seed: u64,
        deadline_ms: Option<u64>,
    },
    Metrics,
    Shutdown,
    Ping,
    SessionOpen {
        session: String,
        graph: Arc<Graph>,
        coords: Option<Arc<Vec<Point2>>>,
        seed: u64,
    },
    SessionDelta {
        session: String,
        deltas: Vec<GraphDelta>,
    },
    SessionRepartition {
        session: String,
    },
    SessionClose {
        session: String,
    },
}

impl Request {
    /// Decode a request frame. Errors are human-readable one-liners that
    /// go straight into an `error` response.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        match Parsed::from_frame(payload)? {
            Parsed::Ready(req) => Ok(req),
            Parsed::Submit(f) => {
                let (graph, coords) = f.source()?.materialise()?;
                let job = f.job(graph.n())?;
                Ok(Request::Submit {
                    graph,
                    coords,
                    method: job.method,
                    parts: job.parts,
                    seed: job.seed,
                    deadline_ms: job.deadline_ms,
                })
            }
        }
    }
}

/// A request frame as the shard and the router take it in: a submit whose
/// graph is still only named, or any other request decoded whole. Whoever
/// holds a submit decides whether its graph is ever built — a repeat of a
/// known source with a cached result never needs it (see
/// [`SourceMemo`](crate::fingerprint::SourceMemo)).
pub(crate) enum Parsed {
    Submit(SubmitFrame),
    /// Never a [`Request::Submit`].
    Ready(Request),
}

impl Parsed {
    /// Parse a request frame; errors as for [`Request::decode`].
    pub(crate) fn from_frame(payload: &[u8]) -> Result<Parsed, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let v = Value::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("missing \"type\" field")?;
        Ok(Parsed::Ready(match ty {
            "submit" => return Ok(Parsed::Submit(SubmitFrame { v })),
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            "ping" => Request::Ping,
            "session_open" => {
                let session = session_name(&v)?;
                let (graph, coords) = GraphSource::of(&v, "session_open")?.materialise()?;
                Request::SessionOpen {
                    session,
                    graph,
                    coords,
                    seed: v.get("seed").and_then(Value::as_u64).unwrap_or(1),
                }
            }
            "session_delta" => Request::SessionDelta {
                session: session_name(&v)?,
                deltas: decode_deltas(&v)?,
            },
            "session_repartition" => Request::SessionRepartition {
                session: session_name(&v)?,
            },
            "session_close" => Request::SessionClose {
                session: session_name(&v)?,
            },
            other => return Err(format!("unknown request type {other:?}")),
        }))
    }
}

/// A submit frame whose graph has not been built. Its fields are checked
/// in the order [`Request::decode`] always checked them — source, then
/// method, parts against the vertex count, seed, deadline — so a
/// malformed frame draws the same error whichever way `n` was learnt.
pub(crate) struct SubmitFrame {
    v: Value,
}

/// The fields of a submit beside its graph.
pub(crate) struct SubmitJob {
    pub method: Method,
    pub parts: usize,
    pub seed: u64,
    pub deadline_ms: Option<u64>,
}

impl SubmitFrame {
    pub(crate) fn source(&self) -> Result<GraphSource<'_>, String> {
        GraphSource::of(&self.v, "submit")
    }

    /// The job fields, validated for a graph of `n` vertices.
    pub(crate) fn job(&self, n: usize) -> Result<SubmitJob, String> {
        let v = &self.v;
        let method_name = v
            .get("method")
            .and_then(Value::as_str)
            .ok_or("missing \"method\"")?;
        let method =
            Method::parse(method_name).ok_or_else(|| format!("unknown method {method_name:?}"))?;
        let parts = v
            .get("parts")
            .and_then(Value::as_usize)
            .ok_or("missing or non-integer \"parts\"")?;
        if parts < 2 || parts > n {
            return Err(format!(
                "\"parts\" must be in 2..=n ({n} vertices), got {parts}"
            ));
        }
        let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(1);
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(d) => Some(
                d.as_u64()
                    .ok_or("\"deadline_ms\" must be a non-negative integer")?,
            ),
        };
        Ok(SubmitJob {
            method,
            parts,
            seed,
            deadline_ms,
        })
    }
}

type GraphAndCoords = (Arc<Graph>, Option<Arc<Vec<Point2>>>);

/// How a request names its graph: a `"graph"` workload spec or an inline
/// `"chaco"` text, exactly one of the two. A handful of bytes (or the
/// frame's own text) standing for a graph that may never need building.
#[derive(Clone, Copy)]
pub(crate) enum GraphSource<'a> {
    Spec(&'a str),
    Chaco(&'a str),
}

impl<'a> GraphSource<'a> {
    fn of(v: &'a Value, verb: &str) -> Result<GraphSource<'a>, String> {
        match (v.get("graph"), v.get("chaco")) {
            (Some(spec), None) => Ok(GraphSource::Spec(
                spec.as_str().ok_or("\"graph\" must be a string")?,
            )),
            (None, Some(text)) => Ok(GraphSource::Chaco(
                text.as_str().ok_or("\"chaco\" must be a string")?,
            )),
            (Some(_), Some(_)) => Err("give either \"graph\" or \"chaco\", not both".into()),
            (None, None) => Err(format!("{verb} needs a \"graph\" spec or inline \"chaco\"")),
        }
    }

    /// Generate or parse the graph (and its coordinates, where the
    /// workload has them).
    pub(crate) fn materialise(&self) -> Result<GraphAndCoords, String> {
        match self {
            GraphSource::Spec(spec) => {
                let (g, coords) = parse_graph_spec(spec)?;
                Ok((Arc::new(g), coords.map(Arc::new)))
            }
            GraphSource::Chaco(text) => {
                let g = read_chaco(text.as_bytes()).map_err(|e| format!("bad chaco graph: {e}"))?;
                Ok((Arc::new(g), None))
            }
        }
    }
}

/// Extract and validate the `session` name of a session verb. Names are
/// routing keys and journal keys, so they are bounded and non-empty.
fn session_name(v: &Value) -> Result<String, String> {
    let name = v
        .get("session")
        .and_then(Value::as_str)
        .ok_or("missing \"session\" name")?;
    if name.is_empty() {
        return Err("\"session\" must be non-empty".into());
    }
    if name.len() > 128 {
        return Err(format!(
            "\"session\" name of {} bytes exceeds the 128-byte limit",
            name.len()
        ));
    }
    Ok(name.to_string())
}

/// Decode the `deltas` array of a `session_delta` frame.
pub fn decode_deltas(v: &Value) -> Result<Vec<GraphDelta>, String> {
    let arr = v
        .get("deltas")
        .and_then(Value::as_arr)
        .ok_or("missing \"deltas\" array")?;
    let mut out = Vec::with_capacity(arr.len());
    for (i, d) in arr.iter().enumerate() {
        let op = d
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("delta {i} missing \"op\""))?;
        let u32_field = |key: &str| -> Result<u32, String> {
            d.get(key)
                .and_then(Value::as_u64)
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| format!("delta {i} ({op}) needs u32 \"{key}\""))
        };
        let f64_field = |key: &str| -> Result<f64, String> {
            d.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("delta {i} ({op}) needs number \"{key}\""))
        };
        out.push(match op {
            "add_edge" => GraphDelta::AddEdge {
                u: u32_field("u")?,
                v: u32_field("v")?,
                w: f64_field("w")?,
            },
            "remove_edge" => GraphDelta::RemoveEdge {
                u: u32_field("u")?,
                v: u32_field("v")?,
            },
            "set_vwgt" => GraphDelta::SetVwgt {
                v: u32_field("v")?,
                w: f64_field("w")?,
            },
            "shift_coord" => GraphDelta::ShiftCoord {
                v: u32_field("v")?,
                dx: f64_field("dx")?,
                dy: f64_field("dy")?,
            },
            other => return Err(format!("delta {i}: unknown op {other:?}")),
        });
    }
    Ok(out)
}

/// Encode a finished job as a response frame payload. `result_json` from
/// the cache is embedded verbatim, so a cache hit's response body is
/// byte-identical to the original's `result` object.
pub fn encode_outcome(outcome: &JobOutcome) -> String {
    match outcome {
        JobOutcome::Done {
            job_id,
            result,
            cache_hit,
            latency_ms,
        } => format!(
            "{{\"type\": \"result\", \"status\": \"ok\", \"job\": {job_id}, \"cache_hit\": {}, \"latency_ms\": {}, \"sim_time\": {}, \"fingerprint\": \"{:016x}\", \"result\": {}}}",
            cache_hit,
            num(*latency_ms),
            num(result.sim_time),
            result.input_fp,
            result.result_json
        ),
        JobOutcome::Timeout { job_id, latency_ms } => format!(
            "{{\"type\": \"result\", \"status\": \"timeout\", \"job\": {job_id}, \"latency_ms\": {}, \"message\": \"deadline exceeded; job cancelled at a pipeline checkpoint\"}}",
            num(*latency_ms)
        ),
        JobOutcome::Failed {
            job_id,
            message,
            latency_ms,
        } => format!(
            "{{\"type\": \"result\", \"status\": \"failed\", \"job\": {job_id}, \"latency_ms\": {}, \"message\": \"{}\"}}",
            num(*latency_ms),
            escape(message)
        ),
    }
}

/// Encode a Prometheus exposition as a response frame: the text rides in
/// the `body` field of a JSON frame (the framed protocol has no raw-text
/// mode; `sp-serve metrics` unescapes it back to plain text).
pub fn encode_metrics(exposition: &str) -> String {
    format!(
        "{{\"type\": \"metrics\", \"content_type\": \"text/plain; version=0.0.4\", \"body\": \"{}\"}}",
        escape(exposition)
    )
}

/// Encode a backpressure rejection.
pub fn encode_rejection(err: &SubmitError) -> String {
    match err {
        SubmitError::QueueFull { retry_after_ms } => format!(
            "{{\"type\": \"result\", \"status\": \"rejected\", \"reason\": \"queue_full\", \"retry_after_ms\": {retry_after_ms}}}"
        ),
        SubmitError::ShuttingDown => {
            "{\"type\": \"result\", \"status\": \"rejected\", \"reason\": \"shutting_down\"}"
                .to_string()
        }
    }
}

/// Encode a protocol-level error (malformed frame, unknown type, …).
pub fn encode_error(message: &str) -> String {
    format!(
        "{{\"type\": \"error\", \"message\": \"{}\"}}",
        escape(message)
    )
}

/// Encode a typed error: like [`encode_error`] but with a machine-readable
/// `code` so router clients can distinguish `no_shards` (every replica of
/// the keyspace is down) from `shard_protocol` (a shard's reply to a
/// submit is not a JSON object) and `forward_timeout` (the shard took the
/// job but exceeded the forward budget — it is *not* demoted; it may
/// still be computing).
pub fn encode_typed_error(code: &str, message: &str) -> String {
    format!(
        "{{\"type\": \"error\", \"code\": \"{}\", \"message\": \"{}\"}}",
        escape(code),
        escape(message)
    )
}

/// The health-probe response.
pub fn encode_pong() -> String {
    "{\"type\": \"pong\"}".to_string()
}

/// The raw byte span of a top-level field's value inside an encoded
/// response — no re-serialization, so two responses can be compared for
/// *byte* identity field by field (the determinism contract is stated in
/// bytes, not parsed values). Only keys of the outermost object match, so
/// a nested key of the same name ahead of the top-level one is skipped.
/// Handles object, array, string and scalar values.
pub fn extract_raw_field<'a>(resp: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\": ");
    let bytes = resp.as_bytes();
    let mut at = Nesting::default();
    // A `"` outside any string at depth 1 opens a key or a string value;
    // only a key is followed by `": `, so the needle cannot match a value.
    let key = (0..bytes.len()).find(|&i| {
        let opens = at.depth == 1 && !at.in_str && bytes[i..].starts_with(needle.as_bytes());
        at.step(bytes[i]);
        opens
    })?;
    let start = key + needle.len();
    let mut at = Nesting::default();
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if at.depth == 0 && !at.in_str && matches!(b, b',' | b'}' | b']') {
            return Some(resp[start..i].trim_end()); // a scalar ends at its delimiter
        }
        at.step(b);
        if at.depth == 0 && !at.in_str && matches!(b, b'"' | b'}' | b']') {
            return Some(&resp[start..=i]); // a string or container just closed
        }
    }
    None
}

/// Where a byte-wise scan of encoded JSON stands: container depth, and
/// whether it is inside a string (where brackets and quotes-after-escape
/// do not count).
#[derive(Default)]
struct Nesting {
    depth: i32,
    in_str: bool,
    esc: bool,
}

impl Nesting {
    fn step(&mut self, b: u8) {
        if self.in_str {
            match b {
                _ if self.esc => self.esc = false,
                b'\\' => self.esc = true,
                b'"' => self.in_str = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => self.in_str = true,
                b'{' | b'[' => self.depth += 1,
                b'}' | b']' => self.depth -= 1,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(s: &str) -> Result<Request, String> {
        Request::decode(s.as_bytes())
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"type\": \"metrics\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            b"{\"type\": \"metrics\"}"
        );
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = (MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_hang() {
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn submit_decodes_grid_suite_and_chaco() {
        let r = decode(
            r#"{"type": "submit", "graph": "gen:grid:8x6", "method": "rcb", "parts": 4, "seed": 7}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                graph,
                coords,
                method,
                parts,
                seed,
                deadline_ms,
            } => {
                assert_eq!(graph.n(), 48);
                assert_eq!(coords.unwrap().len(), 48);
                assert_eq!(method, Method::Rcb);
                assert_eq!((parts, seed, deadline_ms), (4, 7, None));
            }
            _ => panic!("expected Submit"),
        }

        let r =
            decode(r#"{"type": "submit", "graph": "suite:kkt_power", "method": "sp", "parts": 2}"#)
                .unwrap();
        match r {
            Request::Submit { graph, coords, .. } => {
                assert!(graph.n() >= 256);
                assert!(coords.is_none(), "kkt_power is the coordinate-free case");
            }
            _ => panic!("expected Submit"),
        }

        let chaco = "3 2\n2\n1 3\n2\n";
        let req = format!(
            "{{\"type\": \"submit\", \"chaco\": \"{}\", \"method\": \"parmetis\", \"parts\": 2}}",
            sp_trace::json::escape(chaco)
        );
        match decode(&req).unwrap() {
            Request::Submit { graph, .. } => assert_eq!((graph.n(), graph.m()), (3, 2)),
            _ => panic!("expected Submit"),
        }
    }

    #[test]
    fn malformed_submits_are_rejected_with_reasons() {
        for (req, want) in [
            ("{\"type\": \"nope\"}", "unknown request type"),
            ("{\"type\": \"cache_dump\"}", "unknown request type"),
            ("{\"type\": \"stats\"}", "unknown request type"),
            ("{\"no_type\": 1}", "missing \"type\""),
            ("not json at all", "bad JSON"),
            (
                r#"{"type": "submit", "method": "sp", "parts": 2}"#,
                "needs a \"graph\"",
            ),
            (
                r#"{"type": "submit", "graph": "gen:grid:2x2", "method": "sp", "parts": 9}"#,
                "\"parts\" must be in 2..=n",
            ),
            (
                r#"{"type": "submit", "graph": "gen:grid:4x4", "method": "quantum", "parts": 2}"#,
                "unknown method",
            ),
            (
                r#"{"type": "submit", "graph": "gen:grid:9999999x2", "method": "sp", "parts": 2}"#,
                "outside 2..=4096",
            ),
            (
                r#"{"type": "submit", "graph": "suite:no_such", "method": "sp", "parts": 2}"#,
                "unknown suite graph",
            ),
            (
                r#"{"type": "submit", "chaco": "2 5\n2\n1\n", "method": "sp", "parts": 2}"#,
                "bad chaco graph",
            ),
            // A header alone may not size an allocation.
            (
                r#"{"type": "submit", "chaco": "4000000000 0\n", "method": "rcb", "parts": 2}"#,
                "bad chaco graph",
            ),
            // A trailing segment would be one more name for the same graph.
            (
                r#"{"type": "submit", "graph": "gen:grid:8x8:junk", "method": "sp", "parts": 2}"#,
                "nothing after the dimensions",
            ),
            (
                r#"{"type": "submit", "graph": "suite:kkt_power:bench:x", "method": "sp", "parts": 2}"#,
                "nothing after the scale",
            ),
        ] {
            let err = match decode(req) {
                Err(e) => e,
                Ok(_) => panic!("{req}: unexpectedly accepted"),
            };
            assert!(err.contains(want), "{req}: {err}");
        }
    }

    #[test]
    fn error_encoding_escapes_payloads() {
        let e = encode_error("tab\there \"quoted\"");
        let v = Value::parse(&e).unwrap();
        assert_eq!(
            v.get("message").unwrap().as_str().unwrap(),
            "tab\there \"quoted\""
        );
        let t = encode_typed_error("no_shards", "all 3 shards down");
        let v = Value::parse(&t).unwrap();
        assert_eq!(v.get("code").unwrap().as_str().unwrap(), "no_shards");
    }

    #[test]
    fn raw_field_extraction_preserves_bytes() {
        let resp = r#"{"type": "result", "sim_time": 0.30000000000000004, "fingerprint": "00ab", "result": {"part": [0,1], "s": "br}ace"}}"#;
        assert_eq!(
            extract_raw_field(resp, "sim_time"),
            Some("0.30000000000000004")
        );
        assert_eq!(extract_raw_field(resp, "fingerprint"), Some("\"00ab\""));
        assert_eq!(
            extract_raw_field(resp, "result"),
            Some(r#"{"part": [0,1], "s": "br}ace"}"#)
        );
        assert_eq!(extract_raw_field(resp, "missing"), None);

        // Only top-level keys match: a "shards" count nested ahead of the
        // top-level "shards" array is skipped.
        let nested = r#"{"type": "fleet", "router": {"shards": 2, "shards_up": 1}, "shards": [{"name": "a", "up": true, "counts": {"completed": 3}}, {"name": "b", "up": false, "counts": null}]}"#;
        assert_eq!(
            extract_raw_field(nested, "shards"),
            Some(
                r#"[{"name": "a", "up": true, "counts": {"completed": 3}}, {"name": "b", "up": false, "counts": null}]"#
            )
        );
        assert_eq!(extract_raw_field(nested, "shards_up"), None);
        assert_eq!(extract_raw_field(nested, "type"), Some("\"fleet\""));
        // A decoy inside a string, and one nested deeper, ahead of the key.
        let decoy = r#"{"note": "\"cut\": 1, ", "inner": [{"cut": 2}], "cut": 3, "last": true}"#;
        assert_eq!(extract_raw_field(decoy, "cut"), Some("3"));
        assert_eq!(extract_raw_field(decoy, "last"), Some("true"));
    }

    #[test]
    fn session_verbs_decode() {
        match decode(
            r#"{"type": "session_open", "session": "s1", "graph": "gen:grid:6x6", "seed": 9}"#,
        )
        .unwrap()
        {
            Request::SessionOpen {
                session,
                graph,
                coords,
                seed,
            } => {
                assert_eq!(session, "s1");
                assert_eq!(graph.n(), 36);
                assert!(coords.is_some());
                assert_eq!(seed, 9);
            }
            _ => panic!("expected SessionOpen"),
        }
        let req = r#"{"type": "session_delta", "session": "s1", "deltas": [
            {"op": "add_edge", "u": 3, "v": 9, "w": 1.5},
            {"op": "remove_edge", "u": 0, "v": 1},
            {"op": "set_vwgt", "v": 4, "w": 2.0},
            {"op": "shift_coord", "v": 7, "dx": 0.1, "dy": -0.25}]}"#;
        match decode(req).unwrap() {
            Request::SessionDelta { session, deltas } => {
                assert_eq!(session, "s1");
                assert_eq!(deltas.len(), 4);
                assert!(matches!(deltas[0], GraphDelta::AddEdge { u: 3, v: 9, .. }));
                assert!(matches!(deltas[3], GraphDelta::ShiftCoord { v: 7, .. }));
            }
            _ => panic!("expected SessionDelta"),
        }
        assert!(matches!(
            decode(r#"{"type": "session_repartition", "session": "s1"}"#).unwrap(),
            Request::SessionRepartition { .. }
        ));
        assert!(matches!(
            decode(r#"{"type": "session_close", "session": "s1"}"#).unwrap(),
            Request::SessionClose { .. }
        ));
    }

    #[test]
    fn malformed_session_frames_are_rejected_with_reasons() {
        for (req, want) in [
            (
                r#"{"type": "session_open", "graph": "gen:grid:4x4"}"#,
                "missing \"session\"",
            ),
            (
                r#"{"type": "session_open", "session": "", "graph": "gen:grid:4x4"}"#,
                "non-empty",
            ),
            (
                r#"{"type": "session_open", "session": "x"}"#,
                "needs a \"graph\"",
            ),
            (
                r#"{"type": "session_delta", "session": "x"}"#,
                "missing \"deltas\"",
            ),
            (
                r#"{"type": "session_delta", "session": "x", "deltas": [{"op": "warp", "v": 1}]}"#,
                "unknown op",
            ),
            (
                r#"{"type": "session_delta", "session": "x", "deltas": [{"op": "add_edge", "u": 1}]}"#,
                "needs u32 \"v\"",
            ),
            (
                r#"{"type": "session_delta", "session": "x", "deltas": [{"op": "set_vwgt", "v": 1}]}"#,
                "needs number \"w\"",
            ),
        ] {
            let err = match decode(req) {
                Err(e) => e,
                Ok(_) => panic!("{req}: unexpectedly accepted"),
            };
            assert!(err.contains(want), "{req}: {err}");
        }
        let long = format!(
            r#"{{"type": "session_close", "session": "{}"}}"#,
            "s".repeat(200)
        );
        match decode(&long) {
            Err(e) => assert!(e.contains("128-byte limit"), "{e}"),
            Ok(_) => panic!("oversized session name unexpectedly accepted"),
        }
    }

    #[test]
    fn ping_decodes() {
        assert!(matches!(
            decode(r#"{"type": "ping"}"#).unwrap(),
            Request::Ping
        ));
    }
}

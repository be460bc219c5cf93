//! The workspace's one JSON module: emission helpers and a strict reader
//! (this workspace deliberately avoids serde; see DESIGN.md "Dependencies
//! actually used").
//!
//! The reader is a recursive-descent parser over request-sized inputs:
//! depth-limited (adversarial nesting cannot blow the stack), rejects
//! trailing garbage and duplicate keys, and handles the full string escape
//! set including surrogate pairs. Numbers parse as `f64`, which is exact
//! for every integer the protocol carries (counts, seeds ≤ 2⁵³; seeds
//! above that can be sent as strings). `sp-serve` reads wire frames with
//! it and `sp-bench` reads committed `BENCH_*.json` baselines.

/// Escape a string for inclusion inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number. Rust's shortest round-trip `Display`
/// is already valid JSON for finite values; non-finite values (which the
/// machine never produces) degrade to `null` rather than emitting invalid
/// JSON.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Object keys keep insertion order; duplicate keys
/// are rejected at parse time (a classic request-smuggling vector).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a complete JSON document (no trailing content allowed).
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing content at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer view of a number (exact for ≤ 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.i
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        let x: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
        if !x.is_finite() {
            return Err(format!("non-finite number '{text}'"));
        }
        Ok(Value::Num(x))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            self.i += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.i += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                self.i += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past digits
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                    self.i += 1;
                }
                c if c < 0x20 => return Err("raw control character in string".into()),
                _ => {
                    // Consume the longest run of plain bytes in one go.
                    // The input is a &str, so the run is valid UTF-8, and
                    // every delimiter we stop at is ASCII — always a char
                    // boundary. (Validating per character would re-scan
                    // the whole tail each step: quadratic on the
                    // multi-MiB strings MAX_FRAME allows.)
                    let start = self.i;
                    while let Some(&c) = self.b.get(self.i) {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.i += 1;
                    }
                    let run =
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.b[self.i..self.i + 4]).map_err(|e| e.to_string())?;
        let x = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape '{s}'"))?;
        self.i += 4;
        Ok(x)
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    reject_duplicate_keys(&fields)?;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

/// Duplicate keys are rejected once per object, when it closes. Small
/// objects compare pairwise without allocating; larger ones sort borrowed
/// keys, so a frame-sized object costs n·log n, not the n² of a scan per
/// key (200k keys fit in a sixth of a frame and took 83 s that way).
fn reject_duplicate_keys(fields: &[(String, Value)]) -> Result<(), String> {
    let dup = if fields.len() <= 16 {
        fields
            .iter()
            .enumerate()
            .find(|(i, (k, _))| fields[..*i].iter().any(|(seen, _)| seen == k))
            .map(|(_, (k, _))| k.as_str())
    } else {
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    };
    match dup {
        Some(key) => Err(format!("duplicate key '{key}'")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn numbers_round_trip() {
        for x in [0.0, 1.5, 1e-9, 123456.789, -2.5e17, f64::MIN_POSITIVE] {
            let s = num(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "{s}");
        }
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Value::parse(
            r#"{"type":"submit","graph":"gen:grid:8x8","parts":4,"seed":42,"deadline_ms":1000}"#,
        )
        .unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("submit"));
        assert_eq!(v.get("parts").unwrap().as_usize(), Some(4));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_and_roundtrips_sp_partition_json() {
        // The exact shape KWayPartition::to_json emits.
        let v = Value::parse(
            r#"{"schema": "sp-partition-v1", "n": 3, "k": 2, "edge_cut": 1.5, "cut_edges": 1, "imbalance": 0.25, "comm_volume": 2, "part": [0,1,1]}"#,
        )
        .unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("sp-partition-v1"));
        assert_eq!(v.get("edge_cut").unwrap().as_f64(), Some(1.5));
        let part: Vec<usize> = v
            .get("part")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_usize().unwrap())
            .collect();
        assert_eq!(part, vec![0, 1, 1]);
    }

    #[test]
    fn strings_escape_correctly() {
        assert_eq!(
            Value::parse(r#""a\"b\\c\ndAé""#).unwrap(),
            Value::Str("a\"b\\c\ndAé".into())
        );
        // Surrogate pair → astral plane.
        assert_eq!(Value::parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert!(Value::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "[1,]",
            "[1 2]",
            "{\"a\":1,\"a\":2}", // duplicate key
            "nul",
            "1.2.3",
            "NaN",
            "\"unterminated",
            "{\"a\":1} trailing",
            "1e999", // overflows to inf
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(40) + "1" + &"]".repeat(40);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn multi_mib_strings_parse_in_linear_time() {
        // A string near the MAX_FRAME scale must parse as one run, not
        // char-by-char with a full-tail UTF-8 validation per step (that
        // regression turned a 16 MiB frame into an hours-long spin).
        let body = "x".repeat(4 * 1024 * 1024);
        let doc = format!("{{\"pad\": \"{body}é\\n\"}}");
        let v = Value::parse(&doc).unwrap();
        let got = v.get("pad").and_then(Value::as_str).unwrap();
        assert_eq!(got.len(), body.len() + 'é'.len_utf8() + 1);
        assert!(got.ends_with("é\n"));
    }

    #[test]
    fn wide_objects_parse_in_near_linear_time_and_still_reject_duplicates() {
        // Duplicate detection used to scan every earlier key per key:
        // 100k keys took 21 s of one handler thread.
        let mut doc = String::from("{");
        for i in 0..100_000 {
            doc.push_str(&format!("\"k{i}\": {i}, "));
        }
        let t0 = std::time::Instant::now();
        let v = Value::parse(&format!("{doc}\"last\": null}}")).unwrap();
        assert!(t0.elapsed().as_secs_f64() < 2.0, "{:?}", t0.elapsed());
        assert_eq!(v.get("k99999").and_then(Value::as_u64), Some(99_999));
        let err = Value::parse(&format!("{doc}\"k0\": 0}}")).unwrap_err();
        assert!(err.contains("duplicate key 'k0'"), "{err}");
    }

    #[test]
    fn numbers_parse_exactly() {
        assert_eq!(
            Value::parse("0.0234567890123").unwrap().as_f64(),
            Some(0.0234567890123)
        );
        assert_eq!(Value::parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(Value::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Value::parse("1.5").unwrap().as_u64(), None);
    }
}

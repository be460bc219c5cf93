//! Prometheus text exposition (format 0.0.4) — render and lint.
//!
//! The renderer walks a [`Registry`] snapshot
//! and emits one block per family: `# HELP`, `# TYPE`, then one sample
//! line per series. Histograms expand to cumulative `_bucket{le=…}`
//! lines plus `_sum` and `_count`, exactly what `histogram_quantile`
//! expects on the scraping side.
//!
//! The lint exists so CI can validate a scrape without an external
//! `promtool` binary: it checks the structural rules a real Prometheus
//! server enforces at ingest (names, label syntax, TYPE/HELP placement,
//! cumulative bucket monotonicity, `+Inf` bucket == `_count`).

use crate::registry::{Instrument, Registry};
use std::fmt::Write as _;

/// Format a float the way Prometheus clients conventionally do: integers
/// without a trailing `.0`, non-finite values as `+Inf`/`-Inf`/`NaN`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "+Inf" } else { "-Inf" }.to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a label value: backslash, double-quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape a HELP text: backslash and newline (quotes are fine there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render the registry in Prometheus text exposition format 0.0.4.
pub fn render(registry: &Registry) -> String {
    let fams = registry.families.lock().unwrap();
    let mut out = String::new();
    for f in fams.iter() {
        let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
        let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.prom_type());
        for s in &f.series {
            match &s.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        f.name,
                        label_block(&s.labels, None),
                        c.get()
                    );
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        f.name,
                        label_block(&s.labels, None),
                        g.get()
                    );
                }
                Instrument::Histogram(h) => {
                    let (bounds, counts) = h.snapshot();
                    let mut cum = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cum = cum.saturating_add(*c);
                        let le = if i < bounds.len() {
                            fmt_value(bounds[i])
                        } else {
                            "+Inf".to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            f.name,
                            label_block(&s.labels, Some(("le", &le))),
                            cum
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        f.name,
                        label_block(&s.labels, None),
                        fmt_value(h.sum())
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        f.name,
                        label_block(&s.labels, None),
                        h.count()
                    );
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lint
// ---------------------------------------------------------------------------

fn is_valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn is_valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_labels(s: &str, line_no: usize, errors: &mut Vec<String>) -> Vec<(String, String)> {
    // s is the text inside `{...}`, e.g. `phase="embed",le="+Inf"`.
    let mut out = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let Some(eq) = rest.find('=') else {
            errors.push(format!("line {line_no}: label pair missing '='"));
            return out;
        };
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            errors.push(format!("line {line_no}: label value not quoted"));
            return out;
        }
        rest = &rest[1..];
        let mut val = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => val.push('\n'),
                    Some((_, '\\')) => val.push('\\'),
                    Some((_, '"')) => val.push('"'),
                    _ => {
                        errors.push(format!("line {line_no}: bad escape in label value"));
                        return out;
                    }
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => val.push(c),
            }
        }
        let Some(end) = end else {
            errors.push(format!("line {line_no}: unterminated label value"));
            return out;
        };
        out.push((key, val));
        rest = rest[end + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            errors.push(format!("line {line_no}: junk after label value: {rest:?}"));
            return out;
        }
    }
    out
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse::<f64>().ok(),
    }
}

/// Validate a Prometheus text exposition. Returns the list of problems;
/// empty means the text would be accepted by a Prometheus scrape.
pub fn lint(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    // name -> declared TYPE
    let mut types: Vec<(String, String)> = Vec::new();
    let mut helps: Vec<String> = Vec::new();
    let mut samples: Vec<(usize, Sample)> = Vec::new();
    let mut seen_series: Vec<String> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let Some((name, _)) = rest.split_once(' ') else {
                errors.push(format!("line {line_no}: HELP without text"));
                continue;
            };
            if !is_valid_metric_name(name) {
                errors.push(format!("line {line_no}: HELP for invalid name {name:?}"));
            }
            if helps.iter().any(|h| h == name) {
                errors.push(format!("line {line_no}: duplicate HELP for {name}"));
            }
            helps.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let Some((name, ty)) = rest.split_once(' ') else {
                errors.push(format!("line {line_no}: TYPE without a type"));
                continue;
            };
            if !is_valid_metric_name(name) {
                errors.push(format!("line {line_no}: TYPE for invalid name {name:?}"));
            }
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                errors.push(format!("line {line_no}: unknown type {ty:?}"));
            }
            if types.iter().any(|(n, _)| n == name) {
                errors.push(format!("line {line_no}: duplicate TYPE for {name}"));
            }
            // TYPE must precede any sample of that family.
            let owns = |s: &str| {
                s == name
                    || (s.starts_with(name)
                        && matches!(&s[name.len()..], "_bucket" | "_sum" | "_count"))
            };
            if samples.iter().any(|(_, s)| owns(&s.name)) {
                errors.push(format!("line {line_no}: TYPE for {name} after its samples"));
            }
            types.push((name.to_string(), ty.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_labels, value_part) = match line.find('{') {
            Some(brace) => {
                let Some(close) = line.rfind('}') else {
                    errors.push(format!("line {line_no}: unterminated label block"));
                    continue;
                };
                (
                    (&line[..brace], Some(&line[brace + 1..close])),
                    line[close + 1..].trim(),
                )
            }
            None => {
                let Some((n, v)) = line.split_once(char::is_whitespace) else {
                    errors.push(format!("line {line_no}: sample without value"));
                    continue;
                };
                ((n, None), v.trim())
            }
        };
        let (name, labels_src) = name_labels;
        if !is_valid_metric_name(name) {
            errors.push(format!("line {line_no}: invalid metric name {name:?}"));
            continue;
        }
        let labels = match labels_src {
            Some(src) => parse_labels(src, line_no, &mut errors),
            None => Vec::new(),
        };
        for (k, _) in &labels {
            if !is_valid_label_name(k) {
                errors.push(format!("line {line_no}: invalid label name {k:?}"));
            }
        }
        // Duplicate (name, labels) series are an ingest error.
        let series_key = {
            let mut ls: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            ls.sort();
            format!("{name}|{}", ls.join(","))
        };
        if seen_series.contains(&series_key) {
            errors.push(format!("line {line_no}: duplicate series {series_key}"));
        }
        seen_series.push(series_key);
        let value_str = value_part.split_whitespace().next().unwrap_or("");
        let Some(value) = parse_value(value_str) else {
            errors.push(format!("line {line_no}: unparseable value {value_str:?}"));
            continue;
        };
        samples.push((
            line_no,
            Sample {
                name: name.to_string(),
                labels,
                value,
            },
        ));
    }

    // Histogram structural checks.
    for (name, ty) in &types {
        if ty != "histogram" {
            // Counters must not be negative.
            if ty == "counter" {
                for (ln, s) in &samples {
                    if &s.name == name && s.value < 0.0 {
                        errors.push(format!("line {ln}: counter {name} is negative"));
                    }
                }
            }
            continue;
        }
        let bucket_name = format!("{name}_bucket");
        let count_name = format!("{name}_count");
        // Group buckets by their non-`le` labels.
        let mut groups: Vec<(String, Vec<(f64, f64)>)> = Vec::new(); // key -> (le, cum)
        for (ln, s) in &samples {
            if s.name != bucket_name {
                continue;
            }
            let Some(le) = s.labels.iter().find(|(k, _)| k == "le") else {
                errors.push(format!("line {ln}: {bucket_name} without le label"));
                continue;
            };
            let Some(le_v) = parse_value(&le.1) else {
                errors.push(format!("line {ln}: bad le value {:?}", le.1));
                continue;
            };
            let mut key: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            key.sort();
            let key = key.join(",");
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push((le_v, s.value)),
                None => groups.push((key, vec![(le_v, s.value)])),
            }
        }
        if groups.is_empty() {
            errors.push(format!("histogram {name} has no _bucket samples"));
        }
        for (key, buckets) in &groups {
            let mut prev = f64::NEG_INFINITY;
            let mut prev_cum = -1.0;
            let mut has_inf = false;
            let mut inf_cum = 0.0;
            for (le, cum) in buckets {
                if *le <= prev {
                    errors.push(format!(
                        "histogram {name}{{{key}}}: le values not increasing"
                    ));
                }
                if *cum < prev_cum {
                    errors.push(format!(
                        "histogram {name}{{{key}}}: bucket counts not cumulative"
                    ));
                }
                prev = *le;
                prev_cum = *cum;
                if le.is_infinite() {
                    has_inf = true;
                    inf_cum = *cum;
                }
            }
            if !has_inf {
                errors.push(format!("histogram {name}{{{key}}}: missing +Inf bucket"));
            }
            // +Inf bucket must equal _count for the same label set.
            let count = samples.iter().find(|(_, s)| {
                s.name == count_name && {
                    let mut k: Vec<String> =
                        s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    k.sort();
                    k.join(",") == *key
                }
            });
            match count {
                Some((_, c)) if has_inf && c.value != inf_cum => {
                    errors.push(format!(
                        "histogram {name}{{{key}}}: +Inf bucket {} != _count {}",
                        inf_cum, c.value
                    ));
                }
                None => errors.push(format!("histogram {name}{{{key}}}: missing _count")),
                _ => {}
            }
        }
    }

    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_everything() -> Registry {
        let r = Registry::new();
        let c = r.counter("sp_jobs_total", "Jobs ever submitted");
        c.add(3);
        let g = r.gauge("sp_queue_depth", "Jobs waiting in the queue");
        g.set(2);
        let h = r.histogram_with(
            "sp_job_latency_milliseconds",
            "End-to-end job latency",
            &[1.0, 10.0, 100.0],
            &[("phase", "total")],
        );
        h.observe(0.5);
        h.observe(5.0);
        h.observe(500.0);
        r
    }

    #[test]
    fn render_is_lint_clean() {
        let text = render(&registry_with_everything());
        let errs = lint(&text);
        assert!(
            errs.is_empty(),
            "lint errors: {errs:?}\n--- text ---\n{text}"
        );
    }

    #[test]
    fn render_shapes_histograms_correctly() {
        let text = render(&registry_with_everything());
        assert!(text.contains("# TYPE sp_job_latency_milliseconds histogram"));
        assert!(text.contains("sp_job_latency_milliseconds_bucket{phase=\"total\",le=\"1\"} 1"));
        assert!(text.contains("sp_job_latency_milliseconds_bucket{phase=\"total\",le=\"+Inf\"} 3"));
        assert!(text.contains("sp_job_latency_milliseconds_count{phase=\"total\"} 3"));
        assert!(text.contains("sp_jobs_total 3"));
        assert!(text.contains("sp_queue_depth 2"));
    }

    #[test]
    fn lint_catches_noncumulative_buckets() {
        let bad = "\
# HELP sp_h h
# TYPE sp_h histogram
sp_h_bucket{le=\"1\"} 5
sp_h_bucket{le=\"+Inf\"} 3
sp_h_sum 1
sp_h_count 3
";
        let errs = lint(bad);
        assert!(
            errs.iter().any(|e| e.contains("not cumulative")),
            "{errs:?}"
        );
    }

    #[test]
    fn lint_catches_missing_inf_bucket_and_count_mismatch() {
        let bad = "\
# HELP sp_h h
# TYPE sp_h histogram
sp_h_bucket{le=\"1\"} 2
sp_h_sum 1
sp_h_count 2
";
        let errs = lint(bad);
        assert!(errs.iter().any(|e| e.contains("missing +Inf")), "{errs:?}");

        let bad2 = "\
# HELP sp_h h
# TYPE sp_h histogram
sp_h_bucket{le=\"1\"} 2
sp_h_bucket{le=\"+Inf\"} 2
sp_h_sum 1
sp_h_count 3
";
        let errs = lint(bad2);
        assert!(errs.iter().any(|e| e.contains("!= _count")), "{errs:?}");
    }

    #[test]
    fn lint_catches_duplicate_series_and_bad_names() {
        let bad = "\
# TYPE sp_c counter
sp_c 1
sp_c 2
2bad 7
";
        let errs = lint(bad);
        assert!(
            errs.iter().any(|e| e.contains("duplicate series")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("invalid metric name")),
            "{errs:?}"
        );
    }

    #[test]
    fn lint_catches_type_after_samples() {
        let bad = "\
sp_c 1
# TYPE sp_c counter
";
        let errs = lint(bad);
        assert!(
            errs.iter().any(|e| e.contains("after its samples")),
            "{errs:?}"
        );
    }

    #[test]
    fn lint_accepts_escaped_label_values() {
        let ok = "\
# TYPE sp_g gauge
sp_g{path=\"a\\\\b\\\"c\\nd\"} 1
";
        let errs = lint(ok);
        assert!(errs.is_empty(), "{errs:?}");
    }
}

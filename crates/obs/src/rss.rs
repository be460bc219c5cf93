//! Process memory sampling from `/proc/self/status`.
//!
//! `VmRSS` is the current resident set, `VmHWM` the peak ("high water
//! mark") since process start — or since the last peak reset. Linux lets
//! a process reset its own VmHWM by writing `5` to
//! `/proc/self/clear_refs`, which is what makes *per-run* peak RSS
//! possible in `sp-bench scale`: reset, run, sample.
//!
//! On non-Linux hosts (or a hardened /proc) every call degrades to
//! `None`/no-op; callers must treat absence as "unknown", not zero.

/// Parse a `VmRSS:   123456 kB`-style line into bytes.
fn parse_kb_line(line: &str) -> Option<u64> {
    let rest = line.split(':').nth(1)?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

fn read_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(parse_kb_line)
}

/// Current resident set size in bytes.
pub fn current_rss_bytes() -> Option<u64> {
    read_status_field("VmRSS:")
}

/// Peak resident set size in bytes (since start or last [`reset_peak`]).
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_field("VmHWM:")
}

/// Reset the kernel's peak-RSS high-water mark to the current RSS.
/// Returns `false` where unsupported (non-Linux, restricted /proc) —
/// peak values then cover the whole process lifetime.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Bytes → MiB with one decimal, for human-facing reports.
pub fn bytes_to_mib(b: u64) -> f64 {
    (b as f64 / (1024.0 * 1024.0) * 10.0).round() / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_lines() {
        assert_eq!(parse_kb_line("VmRSS:\t  123456 kB"), Some(123456 * 1024));
        assert_eq!(parse_kb_line("VmHWM:      8 kB"), Some(8 * 1024));
        assert_eq!(parse_kb_line("garbage"), None);
    }

    #[test]
    fn live_sampling_is_consistent_where_supported() {
        // If /proc is available (Linux CI), RSS must be nonzero and peak
        // must dominate current.
        if let (Some(cur), Some(peak)) = (current_rss_bytes(), peak_rss_bytes()) {
            assert!(cur > 0);
            assert!(
                peak >= cur / 2,
                "peak {peak} implausibly below current {cur}"
            );
        }
    }

    #[test]
    fn reset_peak_tightens_the_high_water_mark() {
        if !reset_peak() {
            return; // unsupported host: nothing to assert
        }
        // After a reset, the peak tracks from the current RSS again, so it
        // must be within an order of magnitude of current (not a stale
        // process-lifetime maximum after a large allocation dies).
        let big: Vec<u8> = vec![1; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        assert!(reset_peak());
        let (cur, peak) = (current_rss_bytes().unwrap(), peak_rss_bytes().unwrap());
        assert!(
            peak <= cur + (16 << 20),
            "peak {peak} should be near current {cur} after reset"
        );
    }

    #[test]
    fn mib_rounding() {
        assert_eq!(bytes_to_mib(1024 * 1024), 1.0);
        assert_eq!(bytes_to_mib(1536 * 1024), 1.5);
    }
}

//! The metrics registry: named counters, gauges, and histograms.
//!
//! Design goals, in order:
//!
//! 1. **Lock-cheap on the hot path.** Every instrument is a handful of
//!    atomics behind an `Arc`; incrementing a counter or observing a
//!    histogram sample takes no lock. The registry's own mutex is touched
//!    only at registration (once per instrument, typically at service
//!    start) and at scrape time.
//! 2. **Provably passive.** Instruments never allocate after registration
//!    and never touch the code under observation — a counter bump cannot
//!    change a partition bit. The sp-verify passivity fuzz enforces this
//!    end to end.
//! 3. **Saturating, never wrapping.** A counter that would overflow pins
//!    at `u64::MAX` instead of wrapping to a small value that monitoring
//!    would misread as a reset.
//!
//! Instruments carry an optional label set fixed at registration
//! (`histogram_with(name, …, &[("phase", "embed")])`); series sharing a
//! name form one family in the Prometheus exposition. Registering the
//! same `(name, labels)` twice returns the existing instrument, so
//! independent subsystems can share a series without coordination.

use crate::hist::Histogram;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically non-decreasing counter. Saturates at `u64::MAX`.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    /// Saturating add: a counter pinned at `u64::MAX` stays there rather
    /// than wrapping (a wrap would read as a counter reset downstream).
    pub fn add(&self, n: u64) {
        let mut cur = self.v.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .v
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move both ways (queue depth, active
/// workers), plus a monotone `set_max` for high-water marks.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    pub fn sub(&self, d: i64) {
        self.v.fetch_sub(d, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below it (high-water marks).
    pub fn set_max(&self, v: i64) {
        self.v.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// What kind of instrument a family holds (all series of one name share
/// a kind — enforced at registration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    pub fn prom_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
pub(crate) enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

pub(crate) struct Series {
    /// `(key, value)` label pairs, fixed at registration.
    pub labels: Vec<(String, String)>,
    pub instrument: Instrument,
}

pub(crate) struct Family {
    pub name: String,
    pub help: String,
    pub kind: Kind,
    pub series: Vec<Series>,
}

/// The registry: a set of metric families shared by everything that
/// observes one process. Cheap to clone handles out of; the internal lock
/// guards only registration and scrape.
#[derive(Default)]
pub struct Registry {
    pub(crate) families: Mutex<Vec<Family>>,
}

/// A metric name usable in the Prometheus exposition format.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with("__")
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        mk: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(valid_name(name), "bad metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label(k), "bad label name {k:?} on {name}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut fams = self.families.lock().unwrap();
        if let Some(f) = fams.iter_mut().find(|f| f.name == name) {
            assert_eq!(
                f.kind, kind,
                "metric {name} registered as {:?} and {:?}",
                f.kind, kind
            );
            if let Some(s) = f.series.iter().find(|s| s.labels == labels) {
                return s.instrument.clone();
            }
            let instrument = mk();
            f.series.push(Series {
                labels,
                instrument: instrument.clone(),
            });
            return instrument;
        }
        let instrument = mk();
        fams.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            series: vec![Series {
                labels,
                instrument: instrument.clone(),
            }],
        });
        instrument
    }

    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, Kind::Counter, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, Kind::Gauge, labels, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, Kind::Histogram, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX, "must pin, not wrap");
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_moves_both_ways_and_tracks_high_water() {
        let g = Gauge::new();
        g.add(3);
        g.sub(1);
        assert_eq!(g.get(), 2);
        g.set_max(10);
        g.set_max(4);
        assert_eq!(g.get(), 10, "set_max never lowers");
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn reregistration_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("sp_test_total", "help");
        let b = r.counter("sp_test_total", "help");
        a.inc();
        assert_eq!(b.get(), 1, "same series, same atomics");
        let embed = [("phase", sp_trace::Phase::Embed.name())];
        let h1 = r.histogram_with("sp_h", "h", &[1.0, 2.0], &embed);
        let h2 = r.histogram_with("sp_h", "h", &[1.0, 2.0], &embed);
        h1.observe(1.5);
        assert_eq!(h2.count(), 1);
        // A different label set is a distinct series in the same family.
        let coarsen = [("phase", sp_trace::Phase::Coarsen.name())];
        let h3 = r.histogram_with("sp_h", "h", &[1.0, 2.0], &coarsen);
        assert_eq!(h3.count(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflicts_are_rejected() {
        let r = Registry::new();
        r.counter("sp_x", "x");
        r.gauge("sp_x", "x");
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn invalid_names_are_rejected() {
        Registry::new().counter("2bad-name", "x");
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let r = Registry::new();
        let c = r.counter("sp_conc_total", "x");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}

//! In-memory spans, recorded by the benchmark around its calls into each
//! layer and written out once at exit.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)`; spans of one op
//! share `op_id`. A layer's time is its spans' *self* time: duration minus
//! what their child spans cover.

use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u32,
}

/// Span storage for one thread. Nothing is written while measuring.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from; threads that share it can
    /// [`Tracer::absorb`] each other.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its index (a later span's parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op_id: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op_id: u32) -> usize {
        let t = self.now_ns();
        self.record(name, t, t, parent, op_id)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time a call as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op_id);
        let r = f();
        self.close(id);
        r
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time in ms of the spans named `name`, one total per op, in
    /// `op_id` order — ops in which the layer never ran read 0.
    pub fn self_ms_per_op(&self, name: &str, ops: &[u32]) -> Vec<f64> {
        let own = self.self_ns();
        ops.iter()
            .map(|&op| {
                let ns: u64 = self
                    .spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.op_id == op && s.name == name)
                    .map(|(_, &o)| o)
                    .sum();
                ns as f64 / 1e6
            })
            .collect()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_op() {
        let mut t = Tracer::new(Instant::now());
        let op = t.record("op", 0, 10_000_000, None, 7);
        let phase = t.record("coarsen", 1_000_000, 5_000_000, Some(op), 7);
        t.record("coarsen.match", 1_000_000, 2_500_000, Some(phase), 7);
        t.record("op", 20_000_000, 21_000_000, None, 8);
        assert_eq!(t.self_ms_per_op("op", &[7, 8]), vec![6.0, 1.0]);
        assert_eq!(t.self_ms_per_op("coarsen", &[7, 8]), vec![2.5, 0.0]);
        assert_eq!(t.self_ms_per_op("coarsen.match", &[7]), vec![1.5]);
        assert_eq!(t.durations_ms("op"), vec![10.0, 1.0]);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.record("x", 0, 1, None, 0);
        let mut b = Tracer::new(epoch);
        let p = b.record("y", 0, 4_000_000, None, 1);
        b.record("z", 0, 1_000_000, Some(p), 1);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_ms_per_op("y", &[1]), vec![3.0]);
    }
}

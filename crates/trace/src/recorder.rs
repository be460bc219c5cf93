//! The machine-side event hook ([`Recorder`]) and the structured trace
//! capture implementation ([`TraceRecorder`]).

use crate::phase::{CollectiveKind, Phase};

/// Hooks the simulated machine emits events into. All times are on the
/// *simulated* clock, in seconds.
///
/// Every method has a no-op default, so implementors override only what
/// they need. The machine holds an `Option<Box<dyn Recorder>>` and skips
/// event assembly entirely when none is installed — instrumentation costs
/// nothing unless a recorder is attached.
pub trait Recorder: Send {
    /// A per-rank compute span: `rank` did `ops` abstract operations over
    /// `[start, start + dur]`.
    fn on_compute(&mut self, _rank: usize, _phase: Phase, _start: f64, _dur: f64, _ops: f64) {}

    /// A point-to-point send: `src` occupied `[start, start + dur]`
    /// injecting `words` 8-byte words towards `dst`.
    fn on_send(
        &mut self,
        _phase: Phase,
        _src: usize,
        _dst: usize,
        _words: usize,
        _start: f64,
        _dur: f64,
    ) {
    }

    /// A point-to-point receive: `dst` occupied `[start, start + dur]`
    /// draining `words` 8-byte words from `src`.
    fn on_recv(
        &mut self,
        _phase: Phase,
        _src: usize,
        _dst: usize,
        _words: usize,
        _start: f64,
        _dur: f64,
    ) {
    }

    /// A collective over ranks `0..starts.len()`: rank `r` entered at
    /// `starts[r]` (its clock at the call) and every participant left
    /// together at `end`. `words` is the total payload volume charged.
    fn on_collective(
        &mut self,
        _phase: Phase,
        _kind: CollectiveKind,
        _words: usize,
        _starts: &[f64],
        _end: f64,
    ) {
    }

    /// A completed phase span `[start, end]`, at hierarchy `level` (0 is
    /// the finest graph) when the span covers one level only, as the
    /// embedder's per-level spans of [`Phase::Embed`] do. Accounting is
    /// keyed by `phase` alone.
    fn on_phase(&mut self, _phase: Phase, _level: Option<usize>, _start: f64, _end: f64) {}

    /// Type-recovery escape hatch so callers can get their concrete
    /// recorder back out of `Machine::take_recorder`. Implement as
    /// `fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> { self }`.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// One captured machine event. All times are simulated seconds.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Rank-local computation.
    Compute {
        rank: usize,
        phase: Phase,
        start: f64,
        dur: f64,
        ops: f64,
    },
    /// Point-to-point send occupancy on the source rank.
    Send {
        phase: Phase,
        src: usize,
        dst: usize,
        words: usize,
        start: f64,
        dur: f64,
    },
    /// Point-to-point receive occupancy on the destination rank.
    Recv {
        phase: Phase,
        src: usize,
        dst: usize,
        words: usize,
        start: f64,
        dur: f64,
    },
    /// A collective: ranks `0..starts.len()` participate, entering at
    /// their own clocks and leaving together at `end`.
    Collective {
        phase: Phase,
        kind: CollectiveKind,
        words: usize,
        starts: Vec<f64>,
        end: f64,
    },
    /// A completed phase span, at one hierarchy level or none.
    Phase {
        phase: Phase,
        level: Option<usize>,
        start: f64,
        end: f64,
    },
}

/// Captures every machine event into a structured, inspectable log.
///
/// Derive aggregates with [`crate::Metrics::build`], or export a timeline
/// with [`TraceRecorder::chrome_trace`].
#[derive(Debug, Default)]
pub struct TraceRecorder {
    p: usize,
    events: Vec<Event>,
}

impl TraceRecorder {
    pub fn new(p: usize) -> Self {
        TraceRecorder {
            p,
            events: Vec::new(),
        }
    }

    /// Rank count of the machine this recorder was attached to.
    pub fn p(&self) -> usize {
        self.p
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Recover a `TraceRecorder` from the boxed trait object handed back
    /// by `Machine::take_recorder`. Returns `None` if the box holds some
    /// other recorder type.
    pub fn downcast(rec: Box<dyn Recorder>) -> Option<Box<TraceRecorder>> {
        rec.into_any().downcast().ok()
    }
}

impl Recorder for TraceRecorder {
    fn on_compute(&mut self, rank: usize, phase: Phase, start: f64, dur: f64, ops: f64) {
        self.events.push(Event::Compute {
            rank,
            phase,
            start,
            dur,
            ops,
        });
    }

    fn on_send(
        &mut self,
        phase: Phase,
        src: usize,
        dst: usize,
        words: usize,
        start: f64,
        dur: f64,
    ) {
        self.events.push(Event::Send {
            phase,
            src,
            dst,
            words,
            start,
            dur,
        });
    }

    fn on_recv(
        &mut self,
        phase: Phase,
        src: usize,
        dst: usize,
        words: usize,
        start: f64,
        dur: f64,
    ) {
        self.events.push(Event::Recv {
            phase,
            src,
            dst,
            words,
            start,
            dur,
        });
    }

    fn on_collective(
        &mut self,
        phase: Phase,
        kind: CollectiveKind,
        words: usize,
        starts: &[f64],
        end: f64,
    ) {
        self.events.push(Event::Collective {
            phase,
            kind,
            words,
            starts: starts.to_vec(),
            end,
        });
    }

    fn on_phase(&mut self, phase: Phase, level: Option<usize>, start: f64, end: f64) {
        self.events.push(Event::Phase {
            phase,
            level,
            start,
            end,
        });
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_recorder_captures_all_event_kinds() {
        let mut t = TraceRecorder::new(2);
        t.on_compute(0, Phase::Coarsen, 0.0, 1.0, 10.0);
        t.on_send(Phase::Coarsen, 0, 1, 4, 1.0, 0.5);
        t.on_recv(Phase::Coarsen, 0, 1, 4, 1.5, 0.5);
        t.on_collective(Phase::Embed, CollectiveKind::Barrier, 0, &[2.0, 2.0], 3.0);
        t.on_phase(Phase::Coarsen, None, 0.0, 2.0);
        assert_eq!(t.len(), 5);
        assert!(matches!(t.events()[0], Event::Compute { rank: 0, ops, .. } if ops == 10.0));
        assert!(matches!(
            &t.events()[3],
            Event::Collective { kind: CollectiveKind::Barrier, starts, .. } if starts.len() == 2
        ));
    }

    #[test]
    fn downcast_recovers_concrete_type() {
        let mut t = TraceRecorder::new(4);
        t.on_compute(1, Phase::Idle, 0.0, 1.0, 1.0);
        let boxed: Box<dyn Recorder> = Box::new(t);
        let back = TraceRecorder::downcast(boxed).expect("downcast");
        assert_eq!(back.p(), 4);
        assert_eq!(back.len(), 1);
        struct Other;
        impl Recorder for Other {
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        assert!(TraceRecorder::downcast(Box::new(Other)).is_none());
    }
}

//! Chrome trace-event JSON export.
//!
//! The output is a JSON array of trace events in the Trace Event Format
//! (the format `chrome://tracing` and Perfetto's <https://ui.perfetto.dev>
//! load directly): complete spans (`"ph": "X"`) for compute, message and
//! collective occupancy — one lane (`tid`) per simulated rank — plus
//! begin/end pairs (`"ph": "B"`/`"E"`) for pipeline phases on an extra
//! lane with `tid = p`. Timestamps are simulated microseconds.
//!
//! The array opens with metadata events (`"ph": "M"`): a `process_name`
//! for the simulated machine and a `thread_name` per lane, so viewers
//! label the rank lanes "rank 0", "rank 1", … and the phase lane
//! "pipeline phases" instead of bare tids.

use crate::json::{escape, num};
use crate::recorder::{Event, TraceRecorder};

/// Simulated seconds → trace microseconds.
const US: f64 = 1e6;

impl TraceRecorder {
    /// Render the captured events as a Chrome trace-event JSON array.
    ///
    /// Open it at <https://ui.perfetto.dev> (drag & drop) or via
    /// `chrome://tracing`. The timeline's total span equals the machine's
    /// simulated elapsed time.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 * self.events().len() + 16);
        out.push_str("[\n");
        let mut first = true;
        {
            let mut push = |line: String| {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str(&line);
            };
            // Metadata first: name the process and every lane.
            push(format!(
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \
                 \"args\": {{\"name\": \"sp-machine ({} simulated ranks)\"}}}}",
                self.p(),
            ));
            for r in 0..self.p() {
                push(format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \
                     \"tid\": {r}, \"args\": {{\"name\": \"rank {r}\"}}}}"
                ));
            }
            push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \
                 \"tid\": {}, \"args\": {{\"name\": \"pipeline phases\"}}}}",
                self.p(),
            ));
            for ev in self.events() {
                match ev {
                    Event::Compute {
                        rank,
                        phase,
                        start,
                        dur,
                        ops,
                    } => {
                        push(format!(
                            "{{\"name\": \"{}\", \"cat\": \"compute\", \"ph\": \"X\", \
                             \"pid\": 0, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                             \"args\": {{\"ops\": {}}}}}",
                            escape(phase.name()),
                            rank,
                            num(start * US),
                            num(dur * US),
                            num(*ops),
                        ));
                    }
                    Event::Send {
                        phase,
                        src,
                        dst,
                        words,
                        start,
                        dur,
                    } => {
                        push(format!(
                            "{{\"name\": \"send->{dst}\", \"cat\": \"comm\", \"ph\": \"X\", \
                             \"pid\": 0, \"tid\": {src}, \"ts\": {}, \"dur\": {}, \
                             \"args\": {{\"phase\": \"{}\", \"src\": {src}, \"dst\": {dst}, \
                             \"words\": {words}}}}}",
                            num(start * US),
                            num(dur * US),
                            escape(phase.name()),
                        ));
                    }
                    Event::Recv {
                        phase,
                        src,
                        dst,
                        words,
                        start,
                        dur,
                    } => {
                        push(format!(
                            "{{\"name\": \"recv<-{src}\", \"cat\": \"comm\", \"ph\": \"X\", \
                             \"pid\": 0, \"tid\": {dst}, \"ts\": {}, \"dur\": {}, \
                             \"args\": {{\"phase\": \"{}\", \"src\": {src}, \"dst\": {dst}, \
                             \"words\": {words}}}}}",
                            num(start * US),
                            num(dur * US),
                            escape(phase.name()),
                        ));
                    }
                    Event::Collective {
                        phase,
                        kind,
                        words,
                        starts,
                        end,
                    } => {
                        for (r, &t0) in starts.iter().enumerate() {
                            push(format!(
                                "{{\"name\": \"{}\", \"cat\": \"collective\", \"ph\": \"X\", \
                                 \"pid\": 0, \"tid\": {r}, \"ts\": {}, \"dur\": {}, \
                                 \"args\": {{\"phase\": \"{}\", \"active_ranks\": {}, \
                                 \"words\": {words}}}}}",
                                escape(kind.name()),
                                num(t0 * US),
                                num((end - t0).max(0.0) * US),
                                escape(phase.name()),
                                starts.len(),
                            ));
                        }
                    }
                    Event::Phase {
                        phase,
                        level,
                        start,
                        end,
                    } => {
                        let name = match level {
                            Some(l) => format!("{} level {l}", phase.name()),
                            None => phase.name().to_string(),
                        };
                        let lane = self.p();
                        push(format!(
                            "{{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"B\", \
                             \"pid\": 0, \"tid\": {lane}, \"ts\": {}}}",
                            escape(&name),
                            num(start * US),
                        ));
                        push(format!(
                            "{{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"E\", \
                             \"pid\": 0, \"tid\": {lane}, \"ts\": {}}}",
                            escape(&name),
                            num(end * US),
                        ));
                    }
                }
            }
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{CollectiveKind, Phase};
    use crate::recorder::Recorder;

    fn sample() -> TraceRecorder {
        let mut t = TraceRecorder::new(2);
        t.on_phase(Phase::Coarsen, None, 0.0, 3.0);
        t.on_compute(0, Phase::Coarsen, 0.0, 2.0, 100.0);
        t.on_compute(1, Phase::Coarsen, 0.0, 1.0, 50.0);
        t.on_send(Phase::Coarsen, 0, 1, 4, 2.0, 0.5);
        t.on_recv(Phase::Coarsen, 0, 1, 4, 2.5, 0.5);
        t.on_collective(Phase::Done, CollectiveKind::Barrier, 0, &[3.0, 3.0], 3.5);
        t
    }

    #[test]
    fn exports_only_x_b_e_m_events() {
        let json = sample().chrome_trace();
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        for line in json.lines().filter(|l| l.contains("\"ph\"")) {
            assert!(
                line.contains("\"ph\": \"X\"")
                    || line.contains("\"ph\": \"B\"")
                    || line.contains("\"ph\": \"E\"")
                    || line.contains("\"ph\": \"M\""),
                "{line}"
            );
        }
        // One lane per rank plus the phase lane.
        assert!(json.contains("\"tid\": 0"));
        assert!(json.contains("\"tid\": 1"));
        assert!(json.contains("\"tid\": 2")); // phase lane (p = 2)
    }

    #[test]
    fn metadata_names_process_and_every_lane() {
        let json = sample().chrome_trace();
        assert!(json.contains("\"name\": \"process_name\""));
        assert!(json.contains("sp-machine (2 simulated ranks)"));
        // thread_name for rank 0, rank 1, and the phase lane.
        assert_eq!(json.matches("\"name\": \"thread_name\"").count(), 3);
        assert!(json.contains("\"name\": \"rank 0\""));
        assert!(json.contains("\"name\": \"rank 1\""));
        assert!(json.contains("\"name\": \"pipeline phases\""));
        // Metadata precedes the first span.
        let meta = json.find("process_name").unwrap();
        let span = json.find("\"ph\": \"X\"").unwrap();
        assert!(meta < span);
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = sample().chrome_trace();
        // 2 simulated seconds of compute on rank 0 → dur 2 000 000 µs.
        assert!(json.contains("\"dur\": 2000000"), "{json}");
        // Collective on rank 0 from 3.0 to 3.5 s → 500 000 µs.
        assert!(json.contains("\"dur\": 500000"), "{json}");
    }

    #[test]
    fn phase_lane_has_matched_begin_end() {
        let json = sample().chrome_trace();
        assert_eq!(
            json.matches("\"ph\": \"B\"").count(),
            json.matches("\"ph\": \"E\"").count()
        );
    }

    #[test]
    fn a_level_span_is_named_by_its_phase_and_level() {
        let mut t = sample();
        t.on_phase(Phase::Embed, Some(3), 3.0, 3.5);
        let json = t.chrome_trace();
        assert_eq!(json.matches("\"name\": \"embed level 3\"").count(), 2);
    }

    #[test]
    fn empty_trace_is_metadata_only() {
        let t = TraceRecorder::new(1);
        let json = t.chrome_trace();
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        // No spans — only the naming metadata survives.
        for line in json.lines().filter(|l| l.contains("\"ph\"")) {
            assert!(line.contains("\"ph\": \"M\""), "{line}");
        }
        assert!(json.contains("\"name\": \"rank 0\""));
    }
}

//! Aggregated per-phase and per-rank metrics with a machine-readable JSON
//! snapshot.

use crate::json::{escape, num};
use crate::phase::Phase;
use crate::recorder::{Event, TraceRecorder};

/// Accounting snapshot of a machine run, produced by
/// `Machine::stats()`. Times are simulated seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineStats {
    /// Rank count.
    pub p: usize,
    /// Simulated elapsed time (max rank clock).
    pub elapsed: f64,
    /// Per-phase `(phase, comp, comm)` in canonical order, for every phase
    /// the machine entered; comp and comm are the max-rank shares its
    /// phase ledger accumulated.
    pub phases: Vec<(Phase, f64, f64)>,
    /// Per-rank accumulated computation time.
    pub rank_comp: Vec<f64>,
    /// Per-rank accumulated communication time.
    pub rank_comm: Vec<f64>,
    /// Per-rank final clock.
    pub rank_clock: Vec<f64>,
}

/// Per-phase aggregate counters. `comp`/`comm` come straight from the
/// machine's phase accounting; the volume counters come from trace events
/// and are zero when no trace was captured.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseMetrics {
    pub phase: Phase,
    /// Max-rank computation time in this phase (simulated seconds).
    pub comp: f64,
    /// Max-rank communication time in this phase (simulated seconds).
    pub comm: f64,
    /// Abstract compute operations executed in this phase (all ranks).
    pub ops: f64,
    /// Point-to-point messages sent in this phase.
    pub messages: usize,
    /// Point-to-point payload volume in 8-byte words.
    pub p2p_words: usize,
    /// Collective operations initiated in this phase.
    pub collectives: usize,
    /// Total payload volume of those collectives in 8-byte words.
    pub collective_words: usize,
    /// Max/mean per-rank compute time within the phase (1.0 is perfectly
    /// balanced); `None` when no trace was captured or the phase did no
    /// compute.
    pub load_imbalance: Option<f64>,
}

/// Per-rank aggregate counters. Times come from the machine; volume
/// counters from trace events (zero without a trace).
#[derive(Clone, Debug, PartialEq)]
pub struct RankMetrics {
    pub rank: usize,
    /// Accumulated computation time (simulated seconds).
    pub comp: f64,
    /// Accumulated communication time (simulated seconds).
    pub comm: f64,
    /// Final clock (simulated seconds).
    pub total: f64,
    /// Abstract compute operations executed by this rank.
    pub ops: f64,
    pub msgs_sent: usize,
    pub msgs_recv: usize,
    /// Point-to-point words sent.
    pub words_sent: usize,
    /// Point-to-point words received.
    pub words_recv: usize,
    /// Collectives this rank participated in.
    pub collectives: usize,
}

/// The full metrics snapshot for one machine run.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    pub p: usize,
    /// Simulated elapsed time.
    pub elapsed: f64,
    /// Max-rank computation time.
    pub comp_time: f64,
    /// Max-rank communication time.
    pub comm_time: f64,
    /// Max/mean final rank clock (1.0 is perfectly balanced).
    pub load_imbalance: f64,
    pub phases: Vec<PhaseMetrics>,
    pub ranks: Vec<RankMetrics>,
}

fn max_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

fn imbalance(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    if mean <= 0.0 {
        1.0
    } else {
        max_of(v) / mean
    }
}

impl MachineStats {
    /// `(comp, comm)` of `ph`, or `None` when the machine never entered it.
    pub fn phase(&self, ph: Phase) -> Option<(f64, f64)> {
        self.phases
            .iter()
            .find(|e| e.0 == ph)
            .map(|&(_, comp, comm)| (comp, comm))
    }
}

impl Metrics {
    /// Aggregate a run's metrics. `trace` supplies the volume counters;
    /// without it the time-based fields are still exact (they come from
    /// the machine's own accounting) and the volume counters are zero.
    pub fn build(stats: &MachineStats, trace: Option<&TraceRecorder>) -> Metrics {
        let p = stats.p;
        let mut phases: Vec<PhaseMetrics> = stats
            .phases
            .iter()
            .map(|&(phase, comp, comm)| PhaseMetrics {
                phase,
                comp,
                comm,
                ops: 0.0,
                messages: 0,
                p2p_words: 0,
                collectives: 0,
                collective_words: 0,
                load_imbalance: None,
            })
            .collect();
        let mut ranks: Vec<RankMetrics> = (0..p)
            .map(|r| RankMetrics {
                rank: r,
                comp: stats.rank_comp.get(r).copied().unwrap_or(0.0),
                comm: stats.rank_comm.get(r).copied().unwrap_or(0.0),
                total: stats.rank_clock.get(r).copied().unwrap_or(0.0),
                ops: 0.0,
                msgs_sent: 0,
                msgs_recv: 0,
                words_sent: 0,
                words_recv: 0,
                collectives: 0,
            })
            .collect();

        if let Some(trace) = trace {
            // Per-phase per-rank compute time, for phase-level imbalance.
            let mut phase_rank_comp: Vec<Vec<f64>> = phases.iter().map(|_| vec![0.0; p]).collect();
            fn idx_of(phases: &[PhaseMetrics], ph: Phase) -> Option<usize> {
                phases.iter().position(|m| m.phase == ph)
            }
            for ev in trace.events() {
                match ev {
                    Event::Compute {
                        rank,
                        phase,
                        dur,
                        ops,
                        ..
                    } => {
                        if let Some(i) = idx_of(&phases, *phase) {
                            phases[i].ops += ops;
                            phase_rank_comp[i][*rank] += dur;
                        }
                        if let Some(r) = ranks.get_mut(*rank) {
                            r.ops += ops;
                        }
                    }
                    Event::Send {
                        phase, src, words, ..
                    } => {
                        if let Some(i) = idx_of(&phases, *phase) {
                            phases[i].messages += 1;
                            phases[i].p2p_words += words;
                        }
                        if let Some(r) = ranks.get_mut(*src) {
                            r.msgs_sent += 1;
                            r.words_sent += words;
                        }
                    }
                    Event::Recv {
                        phase, dst, words, ..
                    } => {
                        if let Some(r) = ranks.get_mut(*dst) {
                            r.msgs_recv += 1;
                            r.words_recv += words;
                        }
                        let _ = phase; // p2p volume already counted on send
                    }
                    Event::Collective {
                        phase,
                        words,
                        starts,
                        ..
                    } => {
                        if let Some(i) = idx_of(&phases, *phase) {
                            phases[i].collectives += 1;
                            phases[i].collective_words += words;
                        }
                        for rm in ranks.iter_mut().take(starts.len()) {
                            rm.collectives += 1;
                        }
                    }
                    Event::Phase { .. } => {}
                }
            }
            for (i, per_rank) in phase_rank_comp.iter().enumerate() {
                if per_rank.iter().any(|&t| t > 0.0) {
                    phases[i].load_imbalance = Some(imbalance(per_rank));
                }
            }
        }

        Metrics {
            p,
            elapsed: stats.elapsed,
            comp_time: max_of(&stats.rank_comp),
            comm_time: max_of(&stats.rank_comm),
            load_imbalance: imbalance(&stats.rank_clock),
            phases,
            ranks,
        }
    }

    /// Machine-readable JSON snapshot. Schema documented in DESIGN.md
    /// ("Observability"): all times are simulated seconds, all volumes
    /// 8-byte words; floats print with shortest round-trip formatting so
    /// parsed values are bit-identical to the machine's accounting.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"sp-metrics-v1\",\n");
        out.push_str(&format!("  \"p\": {},\n", self.p));
        out.push_str(&format!("  \"elapsed\": {},\n", num(self.elapsed)));
        out.push_str(&format!("  \"comp_time\": {},\n", num(self.comp_time)));
        out.push_str(&format!("  \"comm_time\": {},\n", num(self.comm_time)));
        out.push_str(&format!(
            "  \"load_imbalance\": {},\n",
            num(self.load_imbalance)
        ));
        out.push_str("  \"phases\": [\n");
        for (i, ph) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"phase\": \"{}\", \"comp\": {}, \"comm\": {}, \"ops\": {}, \
                 \"messages\": {}, \"p2p_words\": {}, \"collectives\": {}, \
                 \"collective_words\": {}, \"load_imbalance\": {}}}{}\n",
                escape(ph.phase.name()),
                num(ph.comp),
                num(ph.comm),
                num(ph.ops),
                ph.messages,
                ph.p2p_words,
                ph.collectives,
                ph.collective_words,
                ph.load_imbalance.map_or("null".to_string(), num),
                if i + 1 < self.phases.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"ranks\": [\n");
        for (i, r) in self.ranks.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rank\": {}, \"comp\": {}, \"comm\": {}, \"total\": {}, \"ops\": {}, \
                 \"msgs_sent\": {}, \"msgs_recv\": {}, \"words_sent\": {}, \"words_recv\": {}, \
                 \"collectives\": {}}}{}\n",
                r.rank,
                num(r.comp),
                num(r.comm),
                num(r.total),
                num(r.ops),
                r.msgs_sent,
                r.msgs_recv,
                r.words_sent,
                r.words_recv,
                r.collectives,
                if i + 1 < self.ranks.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::CollectiveKind;
    use crate::recorder::Recorder;

    fn stats() -> MachineStats {
        MachineStats {
            p: 2,
            elapsed: 10.0,
            phases: vec![(Phase::Coarsen, 3.0, 1.0), (Phase::Embed, 4.0, 2.0)],
            rank_comp: vec![7.0, 5.0],
            rank_comm: vec![3.0, 1.0],
            rank_clock: vec![10.0, 6.0],
        }
    }

    #[test]
    fn build_without_trace_uses_machine_accounting() {
        let m = Metrics::build(&stats(), None);
        assert_eq!(m.p, 2);
        assert_eq!(m.comp_time, 7.0);
        assert_eq!(m.comm_time, 3.0);
        assert_eq!(m.load_imbalance, 10.0 / 8.0);
        assert_eq!(m.phases.len(), 2);
        assert_eq!(m.phases[0].comp, 3.0);
        assert_eq!(m.phases[0].messages, 0);
        assert_eq!(m.phases[0].load_imbalance, None);
        assert_eq!(m.ranks[1].total, 6.0);
    }

    #[test]
    fn build_with_trace_counts_volumes() {
        let mut t = TraceRecorder::new(2);
        t.on_compute(0, Phase::Coarsen, 0.0, 2.0, 20.0);
        t.on_compute(1, Phase::Coarsen, 0.0, 1.0, 10.0);
        t.on_send(Phase::Coarsen, 0, 1, 5, 2.0, 1.0);
        t.on_recv(Phase::Coarsen, 0, 1, 5, 3.0, 1.0);
        t.on_collective(
            Phase::Embed,
            CollectiveKind::AllreduceSum,
            8,
            &[4.0, 4.0],
            5.0,
        );
        let m = Metrics::build(&stats(), Some(&t));
        let coarsen = &m.phases[0];
        assert_eq!(coarsen.ops, 30.0);
        assert_eq!(coarsen.messages, 1);
        assert_eq!(coarsen.p2p_words, 5);
        assert_eq!(coarsen.collectives, 0);
        assert_eq!(coarsen.load_imbalance, Some(2.0 / 1.5));
        let embed = &m.phases[1];
        assert_eq!(embed.collectives, 1);
        assert_eq!(embed.collective_words, 8);
        assert_eq!(m.ranks[0].msgs_sent, 1);
        assert_eq!(m.ranks[0].words_sent, 5);
        assert_eq!(m.ranks[1].msgs_recv, 1);
        assert_eq!(m.ranks[1].words_recv, 5);
        assert_eq!(m.ranks[0].collectives, 1);
        assert_eq!(m.ranks[0].ops, 20.0);
    }

    #[test]
    fn json_is_exact_and_structured() {
        let st = MachineStats {
            p: 1,
            elapsed: 0.1234567890123,
            phases: vec![(Phase::Partition, 0.1, 0.0234567890123)],
            rank_comp: vec![0.1],
            rank_comm: vec![0.0234567890123],
            rank_clock: vec![0.1234567890123],
        };
        let j = Metrics::build(&st, None).to_json();
        // Shortest round-trip formatting: the exact accounting values
        // appear verbatim.
        assert!(j.contains("\"comm\": 0.0234567890123"), "{j}");
        assert!(j.contains("\"schema\": \"sp-metrics-v1\""));
        assert!(j.contains("\"load_imbalance\": null"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn imbalance_edge_cases() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 1.0);
        assert_eq!(imbalance(&[2.0, 2.0]), 1.0);
        assert_eq!(imbalance(&[3.0, 1.0]), 1.5);
    }
}

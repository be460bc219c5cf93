//! The simulated machine: per-rank clocks, parallel superstep execution,
//! point-to-point exchange, and collectives.

use crate::cost::CostModel;
use crate::fuzz::{Perturbation, Schedule};
use crate::pool;
use crate::words::CostOnly;
use sp_trace::{CollectiveKind, MachineStats, Phase, Recorder};

/// Per-phase time breakdown (simulated seconds, max over ranks).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    pub comp: f64,
    pub comm: f64,
}

impl PhaseBreakdown {
    pub fn total(&self) -> f64 {
        self.comp + self.comm
    }
}

/// One superstep's host-execution report, passed to the
/// [`Machine::set_superstep_hook`] observer after the rank clocks are
/// charged. Everything in here describes the *host* run — wall time,
/// active set, pool width; simulated results never depend on any of it, so
/// a hook is free to feed metrics without perturbing the simulation.
#[derive(Clone, Copy, Debug)]
pub struct SuperstepInfo {
    /// Simulation phase the superstep ran under.
    pub phase: Phase,
    /// Total ranks in the machine.
    pub ranks: usize,
    /// Ranks that charged nonzero ops (the superstep's active set).
    pub active: usize,
    /// Host threads the superstep could run on ([`pool::width`]).
    pub threads: usize,
    /// Host wall-clock seconds spent in the rank closures.
    pub wall_seconds: f64,
}

/// Observer for superstep host execution (see [`SuperstepInfo`]).
pub type SuperstepHook = Box<dyn FnMut(&SuperstepInfo) + Send>;

/// A P-rank simulated message-passing machine.
///
/// Observability: an optional [`Recorder`] (see `sp-trace`) receives
/// structured events — per-rank compute spans, per-message send/receive
/// occupancy, collective participation, phase spans — on the simulated
/// clock. With no recorder installed (the default) every emission site is
/// a single branch on `Option::is_some`, so instrumentation is free when
/// disabled.
pub struct Machine {
    p: usize,
    cost: CostModel,
    /// Per-rank simulated clock.
    clock: Vec<f64>,
    /// Cached `max(clock)` so [`Machine::elapsed`] is O(1): it is read on
    /// every phase switch and every global collective. Clocks only move
    /// forward, so a running max on the mutation paths stays exact.
    clock_max: f64,
    /// Per-rank, per-phase accumulated computation time.
    comp: Vec<f64>,
    /// Per-rank accumulated communication time.
    comm: Vec<f64>,
    /// Current phase.
    phase: Phase,
    /// Hierarchy level the current phase span covers, for trace display
    /// only — accounting is keyed by `phase`.
    phase_level: Option<usize>,
    /// The phase ledger: accumulated (comp, comm) per phase entered,
    /// indexed by `Phase as usize`, tracked as the max-rank share at phase
    /// switch boundaries. [`Machine::stats`] is its one reader.
    phases: [Option<PhaseBreakdown>; Phase::ALL.len()],
    /// comp/comm snapshot at the start of the current phase (per rank).
    phase_start: (Vec<f64>, Vec<f64>),
    /// Elapsed time when the current phase span began.
    phase_t0: f64,
    /// Event sink; `None` (the default) records nothing and costs nothing.
    recorder: Option<Box<dyn Recorder>>,
    /// Reusable per-rank buffers for exchange charging (send completion,
    /// receive cost, sender bound) — exchanges run every smoothing
    /// iteration, so their bookkeeping must not allocate.
    xch_send_done: Vec<f64>,
    xch_recv_cost: Vec<f64>,
    xch_sender_bound: Vec<f64>,
    /// Schedule fuzzer (see `fuzz::Schedule`): permutes host execution
    /// order. `None` (the default) runs the canonical schedule. Simulated
    /// clocks are charged in rank order either way, so a schedule must
    /// never change results — that is exactly the property sp-verify fuzzes.
    schedule: Option<Schedule>,
    /// Per-rank compute-slowdown factors; empty = unperturbed. Kept as a
    /// separate emptiness-gated vector so the unperturbed fast path does
    /// not even multiply by 1.0.
    skew: Vec<f64>,
    /// Extra simulated seconds added to every collective's completion time.
    collective_delay: f64,
    /// Reusable per-rank ops buffer for `compute` (supersteps run every
    /// smoothing iteration; their bookkeeping must not allocate).
    ops_buf: Vec<f64>,
    /// Host-execution observer, called once per superstep. `None` (the
    /// default) costs one branch.
    superstep_hook: Option<SuperstepHook>,
}

impl Machine {
    pub fn new(p: usize, cost: CostModel) -> Self {
        assert!(p >= 1, "machine needs at least one rank");
        Machine {
            p,
            cost,
            clock: vec![0.0; p],
            clock_max: 0.0,
            comp: vec![0.0; p],
            comm: vec![0.0; p],
            phase: Phase::Idle,
            phase_level: None,
            phases: [None; Phase::ALL.len()],
            phase_start: (vec![0.0; p], vec![0.0; p]),
            phase_t0: 0.0,
            recorder: None,
            xch_send_done: vec![0.0; p],
            xch_recv_cost: vec![0.0; p],
            xch_sender_bound: vec![0.0; p],
            schedule: None,
            skew: Vec::new(),
            collective_delay: 0.0,
            ops_buf: Vec::new(),
            superstep_hook: None,
        }
    }

    /// Install a host-execution observer called once per superstep with
    /// wall time and active-set facts. The hook observes only; it runs after
    /// clocks are charged and nothing it does can reach the simulation.
    pub fn set_superstep_hook(&mut self, hook: SuperstepHook) {
        self.superstep_hook = Some(hook);
    }

    /// Install a schedule fuzzer: subsequent supersteps run their rank
    /// closures in seed-determined host order. Legal schedules must not
    /// change simulated time or results.
    pub fn set_schedule(&mut self, sched: Schedule) {
        self.schedule = Some(sched);
    }

    /// Install a timing perturbation (compute skew, collective delay).
    /// Perturbations change simulated time but must never change data.
    pub fn set_perturbation(&mut self, pert: &Perturbation) {
        self.skew = if pert.compute_skew > 0.0 {
            pert.skew_factors(self.p)
        } else {
            Vec::new()
        };
        assert!(
            pert.collective_delay >= 0.0,
            "collectives cannot finish early"
        );
        self.collective_delay = pert.collective_delay;
    }

    #[inline]
    fn skewed(&self, rank: usize, dt: f64) -> f64 {
        if self.skew.is_empty() {
            dt
        } else {
            dt * self.skew[rank]
        }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.p
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Install an event recorder. Subsequent machine operations emit
    /// structured events into it (see `sp-trace::TraceRecorder`).
    pub fn set_recorder(&mut self, rec: Box<dyn Recorder>) {
        self.recorder = Some(rec);
    }

    /// Detach and return the recorder, first closing the current phase so
    /// the final phase span is flushed into it.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.close_phase();
        self.recorder.take()
    }

    /// Simulated elapsed time: the maximum rank clock. O(1) — the max is
    /// maintained on every clock mutation rather than folded over ranks
    /// here (this accessor sits inside `close_phase` on every phase
    /// switch, which at P=1024 made phase bookkeeping itself O(P)).
    pub fn elapsed(&self) -> f64 {
        self.clock_max
    }

    /// Begin a phase; closes the previous phase's accounting. Re-entering
    /// a phase accumulates into its existing bucket.
    pub fn phase(&mut self, ph: Phase) {
        self.close_phase();
        self.phase = ph;
        self.phase_level = None;
    }

    /// Begin a phase span that covers hierarchy level `level` only (0 is
    /// the finest graph), as the embedder's per-level spans do. The level
    /// shows up in traces; accounting aggregates by `ph` alone, so the
    /// spans of every level land in the phase's one bucket.
    pub fn phase_level(&mut self, ph: Phase, level: usize) {
        self.close_phase();
        self.phase = ph;
        self.phase_level = Some(level);
    }

    fn close_phase(&mut self) {
        let dcomp = self
            .comp
            .iter()
            .zip(&self.phase_start.0)
            .map(|(a, b)| a - b)
            .fold(0.0, f64::max);
        let dcomm = self
            .comm
            .iter()
            .zip(&self.phase_start.1)
            .map(|(a, b)| a - b)
            .fold(0.0, f64::max);
        let e = self.phases[self.phase as usize].get_or_insert_default();
        e.comp += dcomp;
        e.comm += dcomm;
        self.phase_start = (self.comp.clone(), self.comm.clone());
        let t = self.elapsed();
        if t > self.phase_t0 {
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.on_phase(self.phase, self.phase_level, self.phase_t0, t);
            }
        }
        self.phase_t0 = t;
    }

    /// Accounting snapshot: the phase ledger (max-rank comp and comm of
    /// every phase entered, in canonical order) plus per-rank totals, for
    /// the pipeline's phase times and the metrics layer
    /// (`sp-trace::Metrics`). Idempotent: calling it twice without
    /// intervening work returns the same snapshot.
    pub fn stats(&mut self) -> MachineStats {
        self.close_phase();
        let phases = Phase::ALL
            .iter()
            .filter_map(|&ph| self.phases[ph as usize].map(|b| (ph, b.comp, b.comm)))
            .collect();
        MachineStats {
            p: self.p,
            elapsed: self.elapsed(),
            phases,
            rank_comp: self.comp.clone(),
            rank_comm: self.comm.clone(),
            rank_clock: self.clock.clone(),
        }
    }

    /// Total communication time (max over ranks).
    pub fn comm_time(&self) -> f64 {
        self.comm.iter().copied().fold(0.0, f64::max)
    }

    /// Total computation time (max over ranks).
    pub fn comp_time(&self) -> f64 {
        self.comp.iter().copied().fold(0.0, f64::max)
    }

    /// Run one superstep: `f(rank, state)` executes for every rank on the
    /// host pool ([`crate::pool`]) and returns the number of abstract ops
    /// the rank performed, which is charged to its clock.
    ///
    /// On the host, one task per pool thread claims the ranks one at a time
    /// in rank order from a shared cursor until none is left
    /// ([`pool::each`]). So whichever ranks
    /// are busy this superstep — a prefix at the coarse levels, all of them
    /// at the finest — every thread keeps claiming while there is work, and
    /// the calling thread starts on rank 0 while a parked worker wakes: no
    /// thread is started per superstep. Each closure touches
    /// only its own rank's state and writes its ops into its own rank's
    /// slot, and the charging loop below always walks ranks in ascending
    /// order on the simulated clock — so thread count and host completion
    /// order are invisible to simulated time and data, the same argument
    /// that makes the `Schedule` fuzzer's permutations legal. A one-thread
    /// pool is an inline serial loop with no dispatch at all, and so is any
    /// superstep whose rank state is zero-sized (a pure cost charge).
    ///
    /// A closure that panics fails the superstep as a whole: every other
    /// rank still runs, no clock is charged, and the panic resumes on the
    /// caller with the machine and the pool still usable.
    pub fn compute<S: Send, F>(&mut self, states: &mut [S], f: F)
    where
        F: Fn(usize, &mut S) -> f64 + Sync,
    {
        assert_eq!(states.len(), self.p, "one state per rank");
        let threads = pool::width();
        let host_t0 = std::time::Instant::now();
        self.ops_buf.clear();
        self.ops_buf.resize(self.p, 0.0);
        if let Some(sched) = self.schedule.as_mut() {
            // Fuzzed schedule: the closures run one by one on this thread in
            // the seed's order, whatever the pool width. Results land by
            // rank and the charging loop below stays in rank order, so a
            // correct SPMD superstep is schedule-invariant by construction.
            let pos = sched.permutation(self.p);
            let mut slots: Vec<(usize, &mut S)> = states.iter_mut().enumerate().collect();
            slots.sort_by_key(|&(r, _)| pos[r]);
            for (r, s) in slots {
                self.ops_buf[r] = f(r, s);
            }
        } else if std::mem::size_of::<S>() == 0 {
            // Zero-sized rank state: the closures have nowhere to put work,
            // all they do is name a cost to charge, and that is not worth a
            // thread.
            for (r, s) in states.iter_mut().enumerate() {
                self.ops_buf[r] = f(r, s);
            }
        } else {
            // Ranks are claimed in order (inline when there is one task).
            // Each rank owns its state and its slot of the ops buffer, so
            // there is no sharing to synchronise and nothing
            // host-order-dependent to merge — slot `r` is rank `r`'s result
            // wherever it ran.
            pool::each(
                states.iter_mut().zip(self.ops_buf.iter_mut()),
                |r, (st, o)| {
                    *o = f(r, st);
                },
            );
        }
        let wall_seconds = host_t0.elapsed().as_secs_f64();
        let phase = self.phase;
        let mut active = 0usize;
        for r in 0..self.p {
            let o = self.ops_buf[r];
            let dt = self.skewed(r, o * self.cost.t_op);
            let start = self.clock[r];
            self.clock[r] += dt;
            self.clock_max = self.clock_max.max(self.clock[r]);
            self.comp[r] += dt;
            if o != 0.0 {
                active += 1;
                if let Some(rec) = self.recorder.as_deref_mut() {
                    rec.on_compute(r, phase, start, dt, o);
                }
            }
        }
        if let Some(hook) = self.superstep_hook.as_mut() {
            hook(&SuperstepInfo {
                phase,
                ranks: self.p,
                active,
                threads,
                wall_seconds,
            });
        }
    }

    /// Charge compute ops to a single rank without running anything (for
    /// cost-only modelling of work already done on the data).
    pub fn charge_ops(&mut self, rank: usize, ops: f64) {
        let dt = self.skewed(rank, ops * self.cost.t_op);
        let start = self.clock[rank];
        self.clock[rank] += dt;
        self.clock_max = self.clock_max.max(self.clock[rank]);
        self.comp[rank] += dt;
        if ops != 0.0 {
            let phase = self.phase;
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.on_compute(rank, phase, start, dt, ops);
            }
        }
    }

    /// Point-to-point exchange with local synchronisation. `out[r]` holds
    /// `(dest, size)` pairs sent by rank `r`. Only the cost moves: the
    /// data already lives in shared memory, so nothing is delivered.
    ///
    /// Cost: each rank pays `t_s + t_w·words` per message sent and per
    /// message received, and cannot finish before any partner's send
    /// completes (receivers wait for senders; senders do not wait).
    /// Uses the machine's reusable buffers; only event emission for an
    /// installed recorder allocates.
    pub fn exchange(&mut self, out: &[Vec<(usize, CostOnly)>]) {
        assert_eq!(out.len(), self.p);
        let phase = self.phase;
        // Send-completion time per rank; sends occupy the rank back to
        // back, so each message's span starts where the previous ended.
        let mut send_done = std::mem::take(&mut self.xch_send_done);
        let mut recv_cost = std::mem::take(&mut self.xch_recv_cost);
        let mut sender_bound = std::mem::take(&mut self.xch_sender_bound);
        send_done.clear();
        send_done.extend_from_slice(&self.clock);
        recv_cost.clear();
        recv_cost.resize(self.p, 0.0);
        sender_bound.clear();
        sender_bound.resize(self.p, 0.0);
        for (r, msgs) in out.iter().enumerate() {
            for &(d, m) in msgs {
                assert!(d < self.p, "bad destination {d}");
                assert!(d != r, "self-message from rank {r}");
                let w = m.words;
                let c = self.cost.msg(w);
                let start = send_done[r];
                send_done[r] += c;
                if let Some(rec) = self.recorder.as_deref_mut() {
                    rec.on_send(phase, r, d, w, start, c);
                }
            }
        }
        for (r, msgs) in out.iter().enumerate() {
            for &(d, m) in msgs {
                recv_cost[d] += self.cost.msg(m.words);
                sender_bound[d] = sender_bound[d].max(send_done[r]);
            }
        }
        // Receive-side message lists are only needed for event emission.
        let inbox_meta: Option<Vec<Vec<(usize, usize)>>> = if self.recorder.is_some() {
            let mut meta: Vec<Vec<(usize, usize)>> = (0..self.p).map(|_| Vec::new()).collect();
            for (r, msgs) in out.iter().enumerate() {
                for &(d, m) in msgs {
                    meta[d].push((r, m.words));
                }
            }
            for msgs in &mut meta {
                msgs.sort_by_key(|(s, _)| *s);
            }
            Some(meta)
        } else {
            None
        };
        for r in 0..self.p {
            let start = send_done[r].max(sender_bound[r]);
            let new_clock = start + recv_cost[r];
            self.comm[r] += new_clock - self.clock[r];
            self.clock[r] = new_clock;
            self.clock_max = self.clock_max.max(new_clock);
            // Receive occupancy: messages drain back to back from `start`
            // in source order (the order the inbox presents them).
            if let Some(meta) = &inbox_meta {
                let mut t = start;
                for &(s, w) in &meta[r] {
                    let c = self.cost.msg(w);
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.on_recv(phase, s, r, w, t, c);
                    }
                    t += c;
                }
            }
        }
        self.xch_send_done = send_done;
        self.xch_recv_cost = recv_cost;
        self.xch_sender_bound = sender_bound;
    }

    /// Synchronise ranks `0..active` at time `t`, charging the wait to
    /// communication and emitting one collective event.
    fn sync_collective(&mut self, active: usize, t: f64, kind: CollectiveKind, words: usize) {
        // Perturbation: a delayed collective completes late for everyone.
        let t = if self.collective_delay > 0.0 {
            t + self.collective_delay
        } else {
            t
        };
        let starts = if self.recorder.is_some() {
            Some(self.clock[..active].to_vec())
        } else {
            None
        };
        for r in 0..active {
            self.comm[r] += t - self.clock[r];
            self.clock[r] = t;
        }
        self.clock_max = self.clock_max.max(t);
        if let Some(starts) = starts {
            let phase = self.phase;
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.on_collective(phase, kind, words, &starts, t);
            }
        }
    }

    /// Globally synchronising barrier (cost: one zero-byte collective).
    pub fn barrier(&mut self) {
        let t = self.elapsed() + self.cost.collective(self.p, 0);
        self.sync_collective(self.p, t, CollectiveKind::Barrier, 0);
    }

    /// Element-wise sum allreduce of `len`-element per-rank `f64` vectors:
    /// global synchronisation, charged without reducing any data (the
    /// result is already known on the host).
    pub fn allreduce_sum(&mut self, len: usize) {
        let t = self.elapsed() + self.cost.collective(self.p, len);
        self.sync_collective(self.p, t, CollectiveKind::AllreduceSum, len);
    }

    /// Allgather of `words` total 8-byte words over all ranks.
    pub fn allgather(&mut self, words: usize) {
        // Recursive doubling: log P stages, total data volume dominated by
        // the full gathered vector in the final stages.
        let t0 = self.elapsed();
        let stages = (self.p.max(1) as f64).log2().ceil().max(0.0);
        let t = t0 + stages * self.cost.t_s + self.cost.t_w * words as f64;
        self.sync_collective(self.p, t, CollectiveKind::Allgather, words);
    }

    /// Arg-min reduction over one key per rank: one word charged.
    pub fn allreduce_min_index(&mut self) {
        let t = self.elapsed() + self.cost.collective(self.p, 1);
        self.sync_collective(self.p, t, CollectiveKind::AllreduceMinIndex, 1);
    }

    /// Allgather of `words` total 8-byte words over the sub-communicator of
    /// ranks `0..active` only (the paper's shrinking rank groups `Pⁱ`):
    /// synchronises and charges just those ranks.
    pub fn group_allgather(&mut self, active: usize, words: usize) {
        let active = active.clamp(1, self.p);
        let t0 = self.clock[..active].iter().copied().fold(0.0, f64::max);
        let stages = (active as f64).log2().ceil().max(0.0);
        let t = t0 + stages * self.cost.t_s + self.cost.t_w * words as f64;
        self.sync_collective(active, t, CollectiveKind::GroupAllgather, words);
    }

    /// Allreduce of `len`-element vectors over ranks `0..active` only.
    pub fn group_allreduce_sum(&mut self, active: usize, len: usize) {
        let active = active.clamp(1, self.p);
        let t0 = self.clock[..active].iter().copied().fold(0.0, f64::max);
        let t = t0 + {
            let stages = (active as f64).log2().ceil().max(0.0);
            stages * self.cost.msg(len)
        };
        self.sync_collective(active, t, CollectiveKind::GroupAllreduceSum, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_trace::{Event, Metrics, TraceRecorder};

    fn free() -> CostModel {
        CostModel {
            t_s: 0.0,
            t_w: 0.0,
            t_op: 1.0,
        }
    }

    #[test]
    fn compute_charges_max_rank() {
        let mut m = Machine::new(4, free());
        let mut states = vec![0u32; 4];
        m.compute(&mut states, |r, s| {
            *s = r as u32;
            (r + 1) as f64
        });
        assert_eq!(m.elapsed(), 4.0);
        assert_eq!(states, vec![0, 1, 2, 3]);
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
    }

    /// Pool width is a pure host fact: every width must leave states and
    /// per-rank clock charges bit-identical — also when the tasks do not
    /// divide the ranks (unequal hands).
    #[test]
    fn pool_width_is_invisible_to_results_and_clocks() {
        let run = |threads: usize| {
            pool(threads).install(|| {
                let mut m = Machine::new(7, CostModel::qdr_infiniband());
                let mut states = vec![0.0f64; 7];
                m.compute(&mut states, |r, s| {
                    *s = (r as f64 + 1.0).sqrt();
                    (r * r) as f64 + 0.25
                });
                (states, m.elapsed().to_bits())
            })
        };
        let baseline = run(1);
        for threads in [2, 3, 8] {
            let got = run(threads);
            assert_eq!(got.1, baseline.1, "clock drift on {threads} threads");
            for (a, b) in got.0.iter().zip(&baseline.0) {
                assert_eq!(a.to_bits(), b.to_bits(), "state drift on {threads} threads");
            }
        }
    }

    /// Claiming ranks one at a time gives every pool thread a share of any
    /// active set. Contiguous halves of the ranks would run this one — only
    /// ranks 0..8 of 64 have work, the shape of every coarse level — on one
    /// thread.
    #[test]
    fn a_prefix_of_active_ranks_runs_on_both_threads_of_the_pool() {
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::thread::{self, ThreadId};
        use std::time::Duration;
        // Ranks 0 and 1 wait for each other, so one task cannot claim both
        // before the second thread has picked up the other;
        // the timeout turns a one-thread dispatch into a failure, not a hang.
        let met = (Mutex::new(0), Condvar::new());
        pool(2).install(|| {
            let mut m = Machine::new(64, free());
            let mut ran_on: Vec<Option<ThreadId>> = vec![None; 64];
            m.compute(&mut ran_on, |r, id| {
                *id = Some(thread::current().id());
                if r < 2 {
                    let mut arrived = met.0.lock().unwrap();
                    *arrived += 1;
                    met.1.notify_all();
                    let _ = met
                        .1
                        .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < 2)
                        .unwrap();
                }
                if r < 8 {
                    1.0
                } else {
                    0.0
                }
            });
            let active: HashSet<ThreadId> = ran_on[..8].iter().map(|id| id.unwrap()).collect();
            assert_eq!(active.len(), 2, "active ranks ran on {active:?}");
            assert!(
                active.contains(&thread::current().id()),
                "the calling thread runs a task itself"
            );
            let all: HashSet<ThreadId> = ran_on.iter().map(|id| id.unwrap()).collect();
            assert_eq!(all, active, "one spawned task, not one per rank");
            assert_eq!(m.elapsed(), 1.0);
        });
    }

    /// A superstep over zero-sized rank state is a cost charge: it runs
    /// inline on the calling thread whatever the pool, and is told apart
    /// from a twin with real state by nothing the simulation, the recorder
    /// or the hook can see.
    #[test]
    fn zero_sized_state_runs_inline_and_charges_like_a_sized_twin() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Mutex};
        use std::thread::{self, ThreadId};
        type Seen = (usize, usize, usize);
        fn run<S: Send + Clone>(state: S) -> (Vec<ThreadId>, Vec<Seen>, Vec<Event>, Vec<u64>) {
            let ran_on = Mutex::new(Vec::new());
            let hooked: Arc<Mutex<Vec<Seen>>> = Arc::default();
            let mut m = Machine::new(16, CostModel::qdr_infiniband());
            m.set_recorder(Box::new(TraceRecorder::new(16)));
            let sink = hooked.clone();
            m.set_superstep_hook(Box::new(move |i| {
                sink.lock().unwrap().push((i.ranks, i.active, i.threads));
            }));
            m.phase(Phase::Partition);
            let mut states = vec![state; 16];
            for step in 0..3usize {
                // The sized twin's ranks 0 and 1 wait for each other (up to a
                // deadline), so its supersteps cannot finish on one thread.
                let arrived = AtomicUsize::new(0);
                m.compute(&mut states, |r, _| {
                    ran_on.lock().unwrap().push(thread::current().id());
                    if std::mem::size_of::<S>() > 0 && r < 2 {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let t0 = std::time::Instant::now();
                        while arrived.load(Ordering::SeqCst) < 2
                            && t0.elapsed() < std::time::Duration::from_secs(10)
                        {
                            thread::yield_now();
                        }
                    }
                    ((r + step) % 5) as f64 * 1.5
                });
            }
            let clocks = m.stats().rank_clock.iter().map(|c| c.to_bits()).collect();
            let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
            let hooked = hooked.lock().unwrap().clone();
            (
                ran_on.into_inner().unwrap(),
                hooked,
                rec.events().to_vec(),
                clocks,
            )
        }
        pool(2).install(|| {
            let (zst_threads, zst_hook, zst_events, zst_clocks) = run(());
            let (sized_threads, sized_hook, sized_events, sized_clocks) = run(0u8);
            assert_eq!(zst_threads, vec![thread::current().id(); 48]);
            assert!(
                sized_threads.iter().any(|&t| t != thread::current().id()),
                "the twin runs on the pool"
            );
            assert_eq!(zst_hook, sized_hook);
            assert_eq!(zst_hook, [(16, 12, 2), (16, 13, 2), (16, 13, 2)]);
            assert_eq!(zst_events, sized_events);
            assert_eq!(zst_clocks, sized_clocks);
        });
    }

    /// A rank closure that panics fails its superstep, not the machine: the
    /// panic reaches the caller once every other rank has run, nothing is
    /// charged, and the next superstep runs and charges as usual.
    #[test]
    fn a_panicking_rank_fails_the_superstep_and_the_machine_lives_on() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        pool(2).install(|| {
            let mut m = Machine::new(8, free());
            let mut states = vec![0u32; 8];
            let failed = catch_unwind(AssertUnwindSafe(|| {
                m.compute(&mut states, |r, s| {
                    assert_ne!(r, 5, "rank 5 gives up");
                    *s += 1;
                    1.0
                })
            }));
            let payload = failed.expect_err("the panic reaches the caller");
            let text = payload.downcast_ref::<String>().expect("assert message");
            assert!(text.contains("rank 5 gives up"), "{text}");
            // Whichever task claimed which rank, every other rank ran.
            assert_eq!(states, [1, 1, 1, 1, 1, 0, 1, 1]);
            assert_eq!(m.elapsed(), 0.0);
            m.compute(&mut states, |r, s| {
                *s += 1;
                (r + 1) as f64
            });
            assert_eq!(states, [2, 2, 2, 2, 2, 1, 2, 2]);
            assert_eq!(m.clock, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
            assert_eq!(m.elapsed(), 8.0);
        });
    }

    /// The superstep hook observes host facts (active set, pool width) and
    /// runs after charging; installing one must not change the simulation.
    #[test]
    fn superstep_hook_reports_host_facts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicUsize::new(0));
        let active_seen = Arc::new(AtomicUsize::new(usize::MAX));
        let mut m = Machine::new(4, free());
        {
            let seen = seen.clone();
            let active_seen = active_seen.clone();
            m.set_superstep_hook(Box::new(move |info| {
                seen.fetch_add(1, Ordering::Relaxed);
                active_seen.store(info.active, Ordering::Relaxed);
                assert_eq!(info.ranks, 4);
                assert!(info.threads >= 1);
                assert!(info.wall_seconds >= 0.0);
            }));
        }
        let mut states = vec![(); 4];
        m.compute(&mut states, |r, _| if r < 3 { 2.0 } else { 0.0 });
        m.compute(&mut states, |_, _| 1.0);
        assert_eq!(seen.load(Ordering::Relaxed), 2, "one call per superstep");
        assert_eq!(active_seen.load(Ordering::Relaxed), 4);
        let mut plain = Machine::new(4, free());
        let mut pstates = vec![(); 4];
        plain.compute(&mut pstates, |r, _| if r < 3 { 2.0 } else { 0.0 });
        plain.compute(&mut pstates, |_, _| 1.0);
        assert_eq!(m.elapsed().to_bits(), plain.elapsed().to_bits());
    }

    #[test]
    fn exchange_charges_latency_and_bandwidth() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.5,
            t_op: 0.0,
        };
        let mut m = Machine::new(2, cost);
        m.exchange(&[vec![(1, CostOnly::new(4))], vec![]]);
        // Sender: 1 msg of 4 words = 1 + 2 = 3. Receiver: waits for sender
        // (3) then pays its receive cost (3) = 6.
        assert_eq!(m.clock[0], 3.0);
        assert_eq!(m.clock[1], 6.0);
        assert!(m.comm_time() >= 3.0);
    }

    #[test]
    fn exchange_is_locally_synchronising() {
        // Rank 2 exchanges nothing: its clock must not move.
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.0,
            t_op: 0.0,
        };
        let mut m = Machine::new(3, cost);
        m.exchange(&[vec![(1, CostOnly::new(1))], vec![], vec![]]);
        assert_eq!(m.clock[2], 0.0);
        assert!(m.clock[1] > 0.0);
    }

    #[test]
    fn allreduce_synchronises_globally() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.0,
            t_op: 1.0,
        };
        let mut m = Machine::new(4, cost);
        let mut states = vec![(); 4];
        m.compute(&mut states, |r, _| if r == 0 { 10.0 } else { 0.0 });
        m.allreduce_sum(1);
        // All clocks equal: laggard (10) + 2 stages × 1s latency.
        for r in 0..4 {
            assert_eq!(m.clock[r], 12.0);
        }
    }

    #[test]
    fn phase_breakdown_splits_comp_and_comm() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.0,
            t_op: 1.0,
        };
        let mut m = Machine::new(2, cost);
        m.phase(Phase::Coarsen);
        let mut s = vec![(); 2];
        m.compute(&mut s, |_, _| 5.0);
        m.phase(Phase::Embed);
        m.barrier();
        let st = m.stats();
        assert_eq!(st.phase(Phase::Coarsen), Some((5.0, 0.0)));
        assert_eq!(st.phase(Phase::Embed), Some((0.0, 1.0)));
    }

    #[test]
    fn reentered_phase_accumulates() {
        let mut m = Machine::new(2, free());
        let mut s = vec![(); 2];
        m.phase(Phase::Coarsen);
        m.compute(&mut s, |_, _| 5.0);
        m.phase(Phase::Embed);
        m.compute(&mut s, |_, _| 1.0);
        m.phase(Phase::Coarsen); // re-enter: must accumulate, not overwrite
        m.compute(&mut s, |_, _| 7.0);
        let st = m.stats();
        assert_eq!(st.phase(Phase::Coarsen), Some((12.0, 0.0)));
        assert_eq!(st.phase(Phase::Embed), Some((1.0, 0.0)));
    }

    #[test]
    fn empty_phase_reports_zeros() {
        let mut m = Machine::new(2, free());
        m.phase(Phase::Refine);
        m.phase(Phase::Done);
        let st = m.stats();
        assert_eq!(st.phase(Phase::Refine), Some((0.0, 0.0)));
        // A phase never entered has no row at all.
        assert_eq!(st.phase(Phase::Embed), None);
    }

    #[test]
    fn phase_breakdown_is_idempotent() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.5,
            t_op: 1.0,
        };
        let mut m = Machine::new(3, cost);
        let mut s = vec![(); 3];
        m.phase(Phase::Coarsen);
        m.compute(&mut s, |r, _| (r + 1) as f64);
        m.barrier();
        let a = m.stats();
        let b = m.stats();
        assert_eq!(a, b);
        let phases: Vec<Phase> = a.phases.iter().map(|e| e.0).collect();
        assert_eq!(phases, [Phase::Idle, Phase::Coarsen]);
    }

    #[test]
    fn breakdown_is_bounded_by_elapsed_times_p() {
        let cost = CostModel::qdr_infiniband();
        let mut m = Machine::new(4, cost);
        let mut s = vec![(); 4];
        m.phase(Phase::Coarsen);
        m.compute(&mut s, |r, _| 1000.0 * (r + 1) as f64);
        m.exchange(&[
            vec![(1, CostOnly::new(64))],
            vec![(2, CostOnly::new(8))],
            vec![],
            vec![],
        ]);
        m.phase(Phase::Partition);
        m.barrier();
        m.allgather(16);
        let e = m.elapsed();
        let phases = m.stats().phases;
        let total: f64 = phases.iter().map(|&(_, comp, comm)| comp + comm).sum();
        assert!(total <= e * m.p() as f64 + 1e-12, "{total} > {e} * p");
        for &(_, comp, comm) in &phases {
            assert!(comp <= e + 1e-12 && comm <= e + 1e-12);
        }
        // comp + comm of any single rank can never exceed its clock.
        assert!(m.comp_time() + m.comm_time() <= e * 2.0 + 1e-12);
    }

    #[test]
    fn elapsed_is_monotone() {
        let mut m = Machine::new(2, CostModel::qdr_infiniband());
        let mut last = 0.0;
        let mut s = vec![(); 2];
        for _ in 0..5 {
            m.compute(&mut s, |_, _| 100.0);
            m.barrier();
            let e = m.elapsed();
            assert!(e >= last);
            last = e;
        }
    }

    #[test]
    #[should_panic(expected = "self-message")]
    fn self_message_rejected() {
        let mut m = Machine::new(2, free());
        m.exchange(&[vec![(0, CostOnly::new(1))], vec![]]);
    }

    #[test]
    #[should_panic(expected = "bad destination 2")]
    fn destination_outside_the_machine_rejected() {
        let mut m = Machine::new(2, free());
        m.exchange(&[vec![(2, CostOnly::new(1))], vec![]]);
    }

    #[test]
    fn group_allgather_only_touches_active_ranks() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.0,
            t_op: 1.0,
        };
        let mut m = Machine::new(8, cost);
        m.group_allgather(4, 4);
        // Active ranks advanced by log2(4) = 2 stages; inactive untouched.
        assert_eq!(m.clock[0], 2.0);
        assert_eq!(m.clock[3], 2.0);
        assert_eq!(m.clock[4], 0.0);
        assert_eq!(m.clock[7], 0.0);
    }

    #[test]
    fn group_collective_synchronises_within_group() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.0,
            t_op: 1.0,
        };
        let mut m = Machine::new(4, cost);
        let mut s = vec![(); 4];
        m.compute(&mut s, |r, _| if r == 1 { 10.0 } else { 0.0 });
        m.group_allreduce_sum(2, 1);
        // Rank 0 catches up to rank 1's clock + 1 stage.
        assert_eq!(m.clock[0], 11.0);
        assert_eq!(m.clock[1], 11.0);
        assert_eq!(m.clock[2], 0.0);
    }

    #[test]
    fn group_of_one_is_free_of_latency() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 1.0,
            t_op: 0.0,
        };
        let mut m = Machine::new(4, cost);
        m.group_allgather(1, 1);
        // log2(1) = 0 stages; only the bandwidth term applies.
        assert!(m.clock[0] <= 1.0 + 1e-12);
    }

    #[test]
    fn trace_recorder_captures_machine_events() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.5,
            t_op: 1.0,
        };
        let mut m = Machine::new(2, cost);
        m.set_recorder(Box::new(TraceRecorder::new(2)));
        m.phase(Phase::Coarsen);
        let mut s = vec![(); 2];
        m.compute(&mut s, |r, _| (r + 1) as f64);
        m.exchange(&[vec![(1, CostOnly::new(4))], vec![]]);
        m.phase(Phase::Partition);
        m.allgather(3);
        let elapsed = m.elapsed();
        let stats = m.stats();
        let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();

        // Every event kind shows up.
        let has = |f: &dyn Fn(&Event) -> bool| rec.events().iter().any(f);
        assert!(has(&|e| matches!(e, Event::Compute { .. })));
        assert!(has(&|e| matches!(
            e,
            Event::Send {
                src: 0,
                dst: 1,
                words: 4,
                ..
            }
        )));
        assert!(has(&|e| matches!(
            e,
            Event::Recv {
                src: 0,
                dst: 1,
                words: 4,
                ..
            }
        )));
        assert!(has(&|e| matches!(
            e,
            Event::Collective {
                kind: CollectiveKind::Allgather,
                words: 3,
                ..
            }
        )));
        assert!(has(&|e| matches!(
            e,
            Event::Phase {
                phase: Phase::Coarsen,
                ..
            }
        )));

        // The trace's horizon equals the machine's elapsed time.
        let horizon = rec
            .events()
            .iter()
            .map(|e| match e {
                Event::Compute { start, dur, .. } => start + dur,
                Event::Send { start, dur, .. } => start + dur,
                Event::Recv { start, dur, .. } => start + dur,
                Event::Collective { end, .. } => *end,
                Event::Phase { end, .. } => *end,
            })
            .fold(0.0, f64::max);
        assert!((horizon - elapsed).abs() < 1e-9, "{horizon} vs {elapsed}");

        // Metrics agree with the machine's own accounting exactly.
        let metrics = Metrics::build(&stats, Some(&rec));
        let ledger = m.stats();
        for ph in &metrics.phases {
            let want = ledger.phase(ph.phase);
            assert_eq!(Some((ph.comp, ph.comm)), want, "{}", ph.phase);
        }
        assert_eq!(metrics.elapsed, elapsed);
        // Chrome export spans the same horizon (µs), with per-rank tids.
        let json = rec.chrome_trace();
        assert!(json.contains("\"tid\": 0") && json.contains("\"tid\": 1"));
        assert!(json.contains("\"ph\": \"X\""));
    }

    #[test]
    fn cached_elapsed_matches_fold_over_rank_clocks() {
        let mut m = Machine::new(5, CostModel::qdr_infiniband());
        let mut s = vec![(); 5];
        let check = |m: &Machine| {
            let fold = m.clock.iter().copied().fold(0.0, f64::max);
            assert_eq!(m.elapsed(), fold);
        };
        check(&m);
        m.compute(&mut s, |r, _| (5 - r) as f64 * 13.0);
        check(&m);
        m.charge_ops(2, 1e6);
        check(&m);
        m.exchange(&[
            vec![(1, CostOnly::new(100))],
            vec![],
            vec![(4, CostOnly::new(7))],
            vec![],
            vec![],
        ]);
        check(&m);
        m.exchange(&[vec![(3, CostOnly::new(50))], vec![], vec![], vec![], vec![]]);
        check(&m);
        m.group_allreduce_sum(2, 3);
        check(&m);
        m.barrier();
        check(&m);
        m.allgather(40);
        check(&m);
    }

    #[test]
    fn fuzzed_schedule_is_invisible_to_results_and_clocks() {
        let cost = CostModel::qdr_infiniband();
        let run = |sched: Option<Schedule>| {
            let mut m = Machine::new(4, cost);
            if let Some(s) = sched {
                m.set_schedule(s);
            }
            let mut states = vec![0u64; 4];
            m.compute(&mut states, |r, s| {
                *s = (r as u64 + 1) * 10;
                (r + 1) as f64 * 100.0
            });
            m.exchange(&[
                vec![(1, CostOnly::new(2)), (2, CostOnly::new(1))],
                vec![(2, CostOnly::new(1)), (0, CostOnly::new(1))],
                vec![(3, CostOnly::new(1))],
                vec![(2, CostOnly::new(1))],
            ]);
            m.allreduce_sum(3);
            (states, m.clock.clone(), m.comm.clone(), m.elapsed())
        };
        let base = run(None);
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let fuzzed = run(Some(Schedule::seeded(seed)));
            assert_eq!(base, fuzzed, "schedule seed {seed} changed the run");
        }
    }

    #[test]
    fn compute_skew_slows_time_but_keeps_accounting_consistent() {
        let cost = CostModel::qdr_infiniband();
        let run = |pert: Option<Perturbation>| {
            let mut m = Machine::new(4, cost);
            if let Some(p) = pert {
                m.set_perturbation(&p);
            }
            let mut states = vec![0u64; 4];
            m.compute(&mut states, |r, s| {
                *s = r as u64;
                1000.0
            });
            m.charge_ops(2, 500.0);
            m.allreduce_sum(1);
            (
                states,
                m.elapsed(),
                m.clock.clone(),
                m.comp.clone(),
                m.comm.clone(),
            )
        };
        let (base_states, base_elapsed, ..) = run(None);
        let pert = Perturbation {
            compute_skew: 0.4,
            collective_delay: 0.0,
            seed: 5,
        };
        let (states, elapsed, clock, comp, comm) = run(Some(pert));
        // Data unchanged; time only ever grows.
        assert_eq!(states, base_states);
        assert!(elapsed >= base_elapsed);
        // Accounting stays consistent: clock = comp + comm per rank.
        for r in 0..4 {
            assert!((clock[r] - (comp[r] + comm[r])).abs() < 1e-12);
        }
    }

    #[test]
    fn collective_delay_charges_comm_only() {
        let cost = free();
        let mut a = Machine::new(2, cost);
        let mut b = Machine::new(2, cost);
        b.set_perturbation(&Perturbation {
            compute_skew: 0.0,
            collective_delay: 2.5,
            seed: 0,
        });
        a.barrier();
        b.barrier();
        assert_eq!(b.elapsed(), a.elapsed() + 2.5);
        assert_eq!(b.comp_time(), a.comp_time());
        assert_eq!(b.comm_time(), a.comm_time() + 2.5);
    }

    #[test]
    fn zero_perturbation_is_bit_exact_identity() {
        let cost = CostModel::qdr_infiniband();
        let run = |pert: bool| {
            let mut m = Machine::new(3, cost);
            if pert {
                m.set_perturbation(&Perturbation::default());
            }
            let mut s = vec![(); 3];
            m.compute(&mut s, |r, _| (r * r + 1) as f64 * 0.1);
            m.exchange(&[vec![(1, CostOnly::new(3))], vec![], vec![]]);
            m.barrier();
            (m.clock.clone(), m.elapsed())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn no_recorder_means_no_events_and_same_costs() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.5,
            t_op: 1.0,
        };
        let run = |rec: bool| {
            let mut m = Machine::new(2, cost);
            if rec {
                m.set_recorder(Box::new(TraceRecorder::new(2)));
            }
            m.phase(Phase::Coarsen);
            let mut s = vec![(); 2];
            m.compute(&mut s, |r, _| (r + 1) as f64);
            m.exchange(&[vec![(1, CostOnly::new(4))], vec![]]);
            m.barrier();
            m.elapsed()
        };
        // Tracing must not perturb the simulated clock.
        assert_eq!(run(false), run(true));
        let mut m = Machine::new(2, cost);
        assert!(m.take_recorder().is_none());
    }
}

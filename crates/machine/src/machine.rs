//! The simulated machine: per-rank clocks, parallel superstep execution,
//! point-to-point exchange, and collectives.

use crate::cost::CostModel;
use crate::fuzz::{Perturbation, Schedule};
use crate::pool;
use crate::words::{CostOnly, Words};
use rayon::prelude::*;
use sp_trace::{CollectiveKind, MachineStats, Phase, Recorder};
use std::collections::HashMap;
use std::sync::Mutex;

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
/// charged. Everything in here describes the *host* run — wall time, task
/// batching, pool width; simulated results never depend on any of it, so
/// a hook is free to feed metrics without perturbing the simulation.
#[derive(Clone, Copy, Debug)]
pub struct SuperstepInfo {
    /// Simulation phase the superstep ran under.
    pub phase: Phase,
    /// Total ranks in the machine.
    pub ranks: usize,
    /// Ranks that charged nonzero ops (the superstep's active set).
    pub active: usize,
    /// Contiguous ranks per unit this superstep dealt round-robin over its
    /// host tasks (1 when the machine's rank batch is 0, the default).
    pub batch: usize,
    /// Host threads the superstep could be dealt over ([`pool::width`]).
    pub threads: usize,
    /// Host wall-clock seconds spent in the rank closures.
    pub wall_seconds: f64,
}

/// What one host task runs of a superstep: per unit dealt to it, the first
/// rank and the unit's slices of the rank states and of the ops buffer.
type Hand<'a, S> = Vec<(usize, &'a mut [S], &'a mut [f64])>;

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
    /// Optional free-form sub-phase detail, for trace display only —
    /// accounting is keyed by `phase`.
    phase_label: Option<String>,
    /// Accumulated (comp, comm) per phase, tracked as the max-rank share at
    /// phase switch boundaries.
    phases: HashMap<Phase, PhaseBreakdown>,
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
    /// order and message arrival order. `None` (the default) runs the
    /// canonical schedule. Simulated clocks are charged in rank order and
    /// inboxes are canonically re-sorted either way, so a schedule must
    /// never change results — that is exactly the property sp-verify fuzzes.
    schedule: Option<Schedule>,
    /// Per-rank compute-slowdown factors; empty = unperturbed. Kept as a
    /// separate emptiness-gated vector so the unperturbed fast path does
    /// not even multiply by 1.0.
    skew: Vec<f64>,
    /// Extra simulated seconds added to every collective's completion time.
    collective_delay: f64,
    /// Contiguous ranks per unit that [`Machine::compute`] deals to its
    /// host tasks; 0 = auto (one rank). Purely a host execution knob:
    /// results and clock charges are keyed by rank, never by task or
    /// thread, so any unit size yields identical simulations.
    rank_batch: usize,
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
            phase_label: None,
            phases: HashMap::new(),
            phase_start: (vec![0.0; p], vec![0.0; p]),
            phase_t0: 0.0,
            recorder: None,
            xch_send_done: vec![0.0; p],
            xch_recv_cost: vec![0.0; p],
            xch_sender_bound: vec![0.0; p],
            schedule: None,
            skew: Vec::new(),
            collective_delay: 0.0,
            rank_batch: 0,
            ops_buf: Vec::new(),
            superstep_hook: None,
        }
    }

    /// Set how many contiguous ranks make one unit in [`Machine::compute`],
    /// which deals units round-robin over the host pool's threads: 0 (the
    /// default) is auto, one rank a unit; `p` or more is a single unit, so
    /// the whole superstep runs inline on the calling thread. Simulated
    /// clocks and delivered data are identical for every value, and no
    /// production caller passes one: this is sp-verify's lever for forcing
    /// the inline path and odd unit shapes, which its `parallel` stage
    /// sweeps to prove that identity bit for bit.
    pub fn set_rank_batch(&mut self, batch: usize) {
        self.rank_batch = batch;
    }

    /// Install a host-execution observer called once per superstep with
    /// wall time and batching facts. The hook observes only; it runs after
    /// clocks are charged and nothing it does can reach the simulation.
    pub fn set_superstep_hook(&mut self, hook: SuperstepHook) {
        self.superstep_hook = Some(hook);
    }

    /// Install a schedule fuzzer: subsequent supersteps run their rank
    /// closures in seed-determined host order and exchanges shuffle message
    /// arrival before the canonical `(source, sequence)` sort. Legal
    /// schedules must not change simulated time or delivered data.
    pub fn set_schedule(&mut self, sched: Schedule) {
        self.schedule = Some(sched);
    }

    /// The installed schedule's seed, if any (for failure reports).
    pub fn schedule_seed(&self) -> Option<u64> {
        self.schedule.as_ref().map(|s| s.seed)
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

    pub fn has_recorder(&self) -> bool {
        self.recorder.is_some()
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
        self.phase_label = None;
    }

    /// Begin a phase with a free-form sub-phase label (e.g. `"smooth-3"`
    /// within [`Phase::Embed`]). The label shows up in traces; accounting
    /// aggregates by `ph` alone, so differently-labelled spans of the same
    /// phase always land in the same bucket.
    pub fn phase_labeled(&mut self, ph: Phase, label: &str) {
        self.close_phase();
        self.phase = ph;
        self.phase_label = Some(label.to_string());
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
        let e = self.phases.entry(self.phase).or_default();
        e.comp += dcomp;
        e.comm += dcomm;
        self.phase_start = (self.comp.clone(), self.comm.clone());
        let t = self.elapsed();
        if t > self.phase_t0 {
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.on_phase(self.phase, self.phase_label.as_deref(), self.phase_t0, t);
            }
        }
        self.phase_t0 = t;
    }

    /// Per-phase breakdown (max-rank comp and comm per phase). Idempotent:
    /// calling it twice without intervening work returns the same map.
    pub fn phase_breakdown(&mut self) -> HashMap<Phase, PhaseBreakdown> {
        self.close_phase();
        self.phases.clone()
    }

    /// Accounting snapshot for the metrics layer (`sp-trace::Metrics`):
    /// per-phase breakdown in canonical order plus per-rank totals.
    pub fn stats(&mut self) -> MachineStats {
        self.close_phase();
        let phases = Phase::ALL
            .iter()
            .filter_map(|&ph| self.phases.get(&ph).map(|b| (ph, b.comp, b.comm)))
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
    /// Host execution cuts the ranks into units of
    /// [`Machine::set_rank_batch`] contiguous ranks (one rank by default)
    /// and deals the units round-robin over one task per pool thread, so
    /// whichever ranks are busy this superstep — a prefix at the coarse
    /// levels, all of them at the finest — every thread gets its share.
    /// The calling thread runs the first task itself, parked workers the
    /// others: no thread is started per superstep. Each closure touches
    /// only its own rank's state and writes its ops into its own rank's
    /// slot, and the charging loop below always walks ranks in ascending
    /// order on the simulated clock — so unit size, thread count, and host
    /// completion order are all invisible to simulated time and data, the
    /// same argument that makes the `Schedule` fuzzer's permutations
    /// legal. One task (a single unit, or a one-thread pool) is an inline
    /// serial loop with no dispatch at all, and so is any superstep whose
    /// rank state is zero-sized (a pure cost charge).
    ///
    /// A closure that panics fails the superstep as a whole: the other
    /// tasks run to their end, no clock is charged, and the panic resumes
    /// on the caller with the machine and the pool still usable.
    pub fn compute<S: Send, F>(&mut self, states: &mut [S], f: F)
    where
        F: Fn(usize, &mut S) -> f64 + Sync,
    {
        assert_eq!(states.len(), self.p, "one state per rank");
        let threads = pool::width();
        let unit = self.rank_batch.clamp(1, self.p);
        let tasks = threads.min(self.p.div_ceil(unit));
        let host_t0 = std::time::Instant::now();
        self.ops_buf.clear();
        self.ops_buf.resize(self.p, 0.0);
        if let Some(sched) = self.schedule.as_mut() {
            // Fuzzed schedule: run the closures in a seed-determined host
            // order. Results land by rank and the charging loop below stays
            // in rank order, so a correct SPMD superstep (closures touch
            // only their own state) is schedule-invariant by construction.
            let pos = sched.permutation(self.p);
            let mut slots: Vec<(usize, &mut S)> = states.iter_mut().enumerate().collect();
            slots.sort_by_key(|&(r, _)| pos[r]);
            let pairs: Vec<(usize, f64)> =
                slots.into_par_iter().map(|(r, s)| (r, f(r, s))).collect();
            for (r, o) in pairs {
                self.ops_buf[r] = o;
            }
        } else if tasks == 1 || std::mem::size_of::<S>() == 0 {
            // A single unit or a one-thread pool: inline, no dispatch. So
            // is a superstep over zero-sized rank state: its closures have
            // nowhere to put work, all they do is name a cost to charge,
            // and that is not worth a thread.
            for (r, s) in states.iter_mut().enumerate() {
                self.ops_buf[r] = f(r, s);
            }
        } else {
            // Fork-join: unit `u` goes to task `u % tasks`. Each task owns
            // disjoint slices of states and of the ops buffer, so there is
            // no sharing to synchronise and nothing host-order-dependent
            // to merge — slot `r` is rank `r`'s result wherever it ran.
            // (The mutex is how a hand reaches its task through a shared
            // closure; nobody else ever asks for it.)
            let per_task = self.p.div_ceil(unit).div_ceil(tasks);
            let mut dealt: Vec<Mutex<Hand<S>>> = (0..tasks)
                .map(|_| Mutex::new(Vec::with_capacity(per_task)))
                .collect();
            for (u, (ss, os)) in states
                .chunks_mut(unit)
                .zip(self.ops_buf.chunks_mut(unit))
                .enumerate()
            {
                dealt[u % tasks]
                    .get_mut()
                    .expect("no task has run yet")
                    .push((u * unit, ss, os));
            }
            pool::run(tasks, |task| {
                let mut hand = dealt[task].lock().expect("a hand has one taker");
                for (base, ss, os) in hand.iter_mut() {
                    for (i, (st, o)) in ss.iter_mut().zip(os.iter_mut()).enumerate() {
                        *o = f(*base + i, st);
                    }
                }
            });
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
                batch: unit,
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
    /// `(dest, payload)` pairs sent by rank `r`; the return value's entry
    /// `r` holds `(src, payload)` pairs received by rank `r`, ordered by
    /// source rank.
    ///
    /// Cost: each rank pays `t_s + t_w·words` per message sent and per
    /// message received, and cannot finish before any partner's send
    /// completes (receivers wait for senders; senders do not wait).
    pub fn exchange<M: Words + Send>(&mut self, out: Vec<Vec<(usize, M)>>) -> Vec<Vec<(usize, M)>> {
        assert_eq!(out.len(), self.p);
        // Charge through the same code path as `exchange_costed`, so
        // cost-only and data-carrying exchanges are f64-identical by
        // construction.
        let meta: Vec<Vec<(usize, CostOnly)>> = out
            .iter()
            .map(|msgs| {
                msgs.iter()
                    .map(|(d, m)| (*d, CostOnly::new(m.words())))
                    .collect()
            })
            .collect();
        self.charge_exchange(&meta);
        // Deliver (no further charging).
        if self.schedule.is_some() {
            return self.deliver_fuzzed(out);
        }
        let mut inbox: Vec<Vec<(usize, M)>> = (0..self.p).map(|_| Vec::new()).collect();
        for (r, msgs) in out.into_iter().enumerate() {
            for (d, m) in msgs {
                inbox[d].push((r, m));
            }
        }
        for msgs in &mut inbox {
            msgs.sort_by_key(|(s, _)| *s);
        }
        inbox
    }

    /// Fuzzed delivery: tag each message with `(source, send sequence)`,
    /// shuffle the arrival order at every destination, then canonically
    /// re-sort. The sequence tag makes the sort a total order, so the
    /// delivered inbox is provably identical to the unfuzzed path — what
    /// the fuzzer exercises is any *consumer* that would accidentally
    /// depend on arrival order (and the sort's stability assumptions).
    fn deliver_fuzzed<M: Send>(&mut self, out: Vec<Vec<(usize, M)>>) -> Vec<Vec<(usize, M)>> {
        let sched = self
            .schedule
            .as_mut()
            .expect("fuzzed delivery needs a schedule");
        let mut tagged: Vec<Vec<(usize, usize, M)>> = (0..self.p).map(|_| Vec::new()).collect();
        for (r, msgs) in out.into_iter().enumerate() {
            for (seq, (d, m)) in msgs.into_iter().enumerate() {
                tagged[d].push((r, seq, m));
            }
        }
        let mut inbox: Vec<Vec<(usize, M)>> = Vec::with_capacity(self.p);
        for mut msgs in tagged {
            sched.shuffle(&mut msgs);
            msgs.sort_by_key(|&(s, q, _)| (s, q));
            inbox.push(msgs.into_iter().map(|(s, _, m)| (s, m)).collect());
        }
        inbox
    }

    /// Cost-only point-to-point exchange: identical charging and event
    /// emission to [`Machine::exchange`] — latency + bandwidth per message,
    /// receivers wait for senders — but no payload is materialised and
    /// nothing is delivered. `out[r]` holds `(dest, CostOnly)` pairs sent
    /// by rank `r`. Allocation-free outside of tracing.
    pub fn exchange_costed(&mut self, out: &[Vec<(usize, CostOnly)>]) {
        assert_eq!(out.len(), self.p);
        self.charge_exchange(out);
    }

    /// The single exchange charging path (see [`Machine::exchange`] for the
    /// cost semantics). Uses the machine's reusable buffers; only event
    /// emission for an installed recorder allocates.
    fn charge_exchange(&mut self, out: &[Vec<(usize, CostOnly)>]) {
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
                let w = m.words();
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
                recv_cost[d] += self.cost.msg(m.words());
                sender_bound[d] = sender_bound[d].max(send_done[r]);
            }
        }
        // Receive-side message lists are only needed for event emission.
        let inbox_meta: Option<Vec<Vec<(usize, usize)>>> = if self.recorder.is_some() {
            let mut meta: Vec<Vec<(usize, usize)>> = (0..self.p).map(|_| Vec::new()).collect();
            for (r, msgs) in out.iter().enumerate() {
                for &(d, m) in msgs {
                    meta[d].push((r, m.words()));
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

    /// Element-wise sum allreduce of per-rank `f64` vectors; every rank
    /// receives the same reduced vector.
    pub fn allreduce_sum(&mut self, contrib: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(contrib.len(), self.p);
        let len = contrib.first().map_or(0, |v| v.len());
        let mut acc = vec![0.0; len];
        for v in contrib {
            assert_eq!(v.len(), len, "allreduce contributions must be same length");
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
        self.allreduce_sum_costed(len);
        acc
    }

    /// Cost-only allreduce: charges exactly what [`Machine::allreduce_sum`]
    /// over `len`-element contributions would, without reducing any data.
    /// For sites whose "reduction" is a synchronisation fiction (the result
    /// is already known on the host).
    pub fn allreduce_sum_costed(&mut self, len: usize) {
        let t = self.elapsed() + self.cost.collective(self.p, len);
        self.sync_collective(self.p, t, CollectiveKind::AllreduceSum, len);
    }

    /// Allgather: concatenates every rank's contribution (in rank order)
    /// and hands the full vector to all ranks.
    ///
    /// Payload volume is sized per element through [`Words`], so
    /// heap-carrying elements (e.g. `Vec<u64>`) charge their true payload
    /// rather than `size_of` on the element header.
    pub fn allgather<T: Clone + Words>(&mut self, contrib: Vec<Vec<T>>) -> Vec<T> {
        assert_eq!(contrib.len(), self.p);
        let total: usize = contrib.iter().map(|v| v.len()).sum();
        let words: usize = contrib
            .iter()
            .flat_map(|v| v.iter())
            .map(|x| x.words())
            .sum();
        let mut all = Vec::with_capacity(total);
        for v in contrib {
            all.extend(v);
        }
        self.allgather_costed(words);
        all
    }

    /// Cost-only allgather of `words` total 8-byte words: identical charge
    /// to [`Machine::allgather`] whose contributions sum to `words`.
    pub fn allgather_costed(&mut self, words: usize) {
        // Recursive doubling: log P stages, total data volume dominated by
        // the full gathered vector in the final stages.
        let t0 = self.elapsed();
        let stages = (self.p.max(1) as f64).log2().ceil().max(0.0);
        let t = t0 + stages * self.cost.t_s + self.cost.t_w * words as f64;
        self.sync_collective(self.p, t, CollectiveKind::Allgather, words);
    }

    /// Reduce to the arg-min over per-rank `(key, payload)` pairs; all
    /// ranks receive the winning rank's index. Payload words charged.
    pub fn allreduce_min_index(&mut self, keys: &[f64]) -> usize {
        assert_eq!(keys.len(), self.p);
        let best = keys
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let t = self.elapsed() + self.cost.collective(self.p, 1);
        self.sync_collective(self.p, t, CollectiveKind::AllreduceMinIndex, 1);
        best
    }

    /// Allgather over the sub-communicator of ranks `0..active` only (the
    /// paper's shrinking rank groups `Pⁱ`): synchronises and charges just
    /// those ranks. `contrib` must still have one entry per machine rank;
    /// entries of inactive ranks must be empty. Payload volume is sized
    /// per element through [`Words`] (see [`Machine::allgather`]).
    pub fn group_allgather<T: Clone + Words>(
        &mut self,
        active: usize,
        contrib: Vec<Vec<T>>,
    ) -> Vec<T> {
        assert_eq!(contrib.len(), self.p);
        let active = active.clamp(1, self.p);
        debug_assert!(contrib[active..].iter().all(|v| v.is_empty()));
        let total: usize = contrib.iter().map(|v| v.len()).sum();
        let words: usize = contrib
            .iter()
            .flat_map(|v| v.iter())
            .map(|x| x.words())
            .sum();
        let mut all = Vec::with_capacity(total);
        for v in contrib {
            all.extend(v);
        }
        self.group_allgather_costed(active, words);
        all
    }

    /// Cost-only sub-communicator allgather: identical charge to
    /// [`Machine::group_allgather`] whose contributions sum to `words`.
    pub fn group_allgather_costed(&mut self, active: usize, words: usize) {
        let active = active.clamp(1, self.p);
        let t0 = self.clock[..active].iter().copied().fold(0.0, f64::max);
        let stages = (active as f64).log2().ceil().max(0.0);
        let t = t0 + stages * self.cost.t_s + self.cost.t_w * words as f64;
        self.sync_collective(active, t, CollectiveKind::GroupAllgather, words);
    }

    /// Allreduce over ranks `0..active` only; inactive contributions must
    /// be zero-filled vectors of the same length (they are not summed).
    pub fn group_allreduce_sum(&mut self, active: usize, contrib: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(contrib.len(), self.p);
        let active = active.clamp(1, self.p);
        let len = contrib.first().map_or(0, |v| v.len());
        let mut acc = vec![0.0; len];
        for v in &contrib[..active] {
            assert_eq!(v.len(), len);
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
        self.group_allreduce_sum_costed(active, len);
        acc
    }

    /// Cost-only sub-communicator allreduce: identical charge to
    /// [`Machine::group_allreduce_sum`] over `len`-element contributions.
    pub fn group_allreduce_sum_costed(&mut self, active: usize, len: usize) {
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

    /// Unit size is a pure host knob: every choice, on every pool width,
    /// must leave states and per-rank clock charges bit-identical — also
    /// when the units do not divide `p` (a short last unit) or the tasks
    /// do not divide the units (unequal hands).
    #[test]
    fn rank_batch_is_invisible_to_results_and_clocks() {
        let run = |threads: usize, batch: usize| {
            pool(threads).install(|| {
                let mut m = Machine::new(7, CostModel::qdr_infiniband());
                m.set_rank_batch(batch);
                let mut states = vec![0.0f64; 7];
                m.compute(&mut states, |r, s| {
                    *s = (r as f64 + 1.0).sqrt();
                    (r * r) as f64 + 0.25
                });
                (states, m.elapsed().to_bits())
            })
        };
        let baseline = run(1, 7);
        for threads in [1, 2, 3, 8] {
            for batch in [0, 1, 2, 3, 4, 5, 6, 7, 100] {
                let got = run(threads, batch);
                let at = format!("batch {batch} on {threads} threads");
                assert_eq!(got.1, baseline.1, "clock drift at {at}");
                for (a, b) in got.0.iter().zip(&baseline.0) {
                    assert_eq!(a.to_bits(), b.to_bits(), "state drift at {at}");
                }
            }
        }
    }

    /// Dealing units round-robin gives every pool thread a share of any
    /// active set. Contiguous halves of the ranks would run this one — only
    /// ranks 0..8 of 64 have work, the shape of every coarse level — on one
    /// thread.
    #[test]
    fn a_prefix_of_active_ranks_runs_on_both_threads_of_the_pool() {
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::thread::{self, ThreadId};
        use std::time::Duration;
        // Ranks 0 and 1 wait for each other, so a work-stealing pool cannot
        // finish one hand before its second thread has picked up the other;
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
            assert_eq!(all, active, "one spawned task, not one per unit");
            assert_eq!(m.elapsed(), 1.0);
        });
    }

    /// A superstep over zero-sized rank state is a cost charge: it runs
    /// inline on the calling thread whatever the pool, and is told apart
    /// from a twin with real state by nothing the simulation, the recorder
    /// or the hook can see.
    #[test]
    fn zero_sized_state_runs_inline_and_charges_like_a_sized_twin() {
        use std::sync::{Arc, Mutex};
        use std::thread::{self, ThreadId};
        type Seen = (usize, usize, usize, usize);
        fn run<S: Send + Clone>(state: S) -> (Vec<ThreadId>, Vec<Seen>, Vec<Event>, Vec<u64>) {
            let ran_on = Mutex::new(Vec::new());
            let hooked: Arc<Mutex<Vec<Seen>>> = Arc::default();
            let mut m = Machine::new(16, CostModel::qdr_infiniband());
            m.set_recorder(Box::new(TraceRecorder::new(16)));
            let sink = hooked.clone();
            m.set_superstep_hook(Box::new(move |i| {
                sink.lock()
                    .unwrap()
                    .push((i.ranks, i.active, i.batch, i.threads));
            }));
            m.phase(Phase::Partition);
            let mut states = vec![state; 16];
            for step in 0..3usize {
                m.compute(&mut states, |r, _| {
                    ran_on.lock().unwrap().push(thread::current().id());
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
                "the twin is dealt over the pool"
            );
            assert_eq!(zst_hook, sized_hook);
            assert_eq!(zst_hook, [(16, 12, 1, 2), (16, 13, 1, 2), (16, 13, 1, 2)]);
            assert_eq!(zst_events, sized_events);
            assert_eq!(zst_clocks, sized_clocks);
        });
    }

    /// A rank closure that panics fails its superstep, not the machine: the
    /// panic reaches the caller once the other task has finished, nothing
    /// is charged, and the next superstep runs and charges as usual.
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
            // Dealt 0, 2, 4, 6 and 1, 3, 5, 7: the first task ran to its
            // end, the second as far as rank 5.
            assert_eq!(states, [1, 1, 1, 1, 1, 0, 1, 0]);
            assert_eq!(m.elapsed(), 0.0);
            m.compute(&mut states, |r, s| {
                *s += 1;
                (r + 1) as f64
            });
            assert_eq!(states, [2, 2, 2, 2, 2, 1, 2, 1]);
            assert_eq!(m.clock, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
            assert_eq!(m.elapsed(), 8.0);
        });
    }

    /// The superstep hook observes host facts (batching, active set) and
    /// runs after charging; installing one must not change the simulation.
    #[test]
    fn superstep_hook_reports_batching_facts() {
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
                assert!(info.batch >= 1 && info.batch <= 4);
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
    fn exchange_delivers_and_orders_by_source() {
        let mut m = Machine::new(3, free());
        let out = vec![
            vec![(1usize, vec![10u64]), (2usize, vec![20u64])],
            vec![(2usize, vec![21u64])],
            vec![],
        ];
        let inbox = m.exchange(out);
        assert!(inbox[0].is_empty());
        assert_eq!(inbox[1], vec![(0, vec![10u64])]);
        assert_eq!(inbox[2], vec![(0, vec![20u64]), (1, vec![21u64])]);
    }

    #[test]
    fn exchange_charges_latency_and_bandwidth() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.5,
            t_op: 0.0,
        };
        let mut m = Machine::new(2, cost);
        let out = vec![vec![(1usize, vec![0u64; 4])], vec![]];
        m.exchange(out);
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
        let out = vec![vec![(1usize, vec![0u64])], vec![], vec![]];
        m.exchange(out);
        assert_eq!(m.clock[2], 0.0);
        assert!(m.clock[1] > 0.0);
    }

    #[test]
    fn allreduce_sums_elementwise() {
        let mut m = Machine::new(3, free());
        let contrib = vec![vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
        assert_eq!(m.allreduce_sum(&contrib), vec![111.0, 222.0]);
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
        m.allreduce_sum(&vec![vec![0.0]; 4]);
        // All clocks equal: laggard (10) + 2 stages × 1s latency.
        for r in 0..4 {
            assert_eq!(m.clock[r], 12.0);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let mut m = Machine::new(3, free());
        let all = m.allgather(vec![vec![0u32], vec![1, 11], vec![2]]);
        assert_eq!(all, vec![0, 1, 11, 2]);
    }

    #[test]
    fn allreduce_min_index_picks_global_best() {
        let mut m = Machine::new(4, free());
        assert_eq!(m.allreduce_min_index(&[3.0, 1.0, 2.0, 5.0]), 1);
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
        let bd = m.phase_breakdown();
        assert_eq!(bd[&Phase::Coarsen].comp, 5.0);
        assert_eq!(bd[&Phase::Coarsen].comm, 0.0);
        assert_eq!(bd[&Phase::Embed].comp, 0.0);
        assert_eq!(bd[&Phase::Embed].comm, 1.0);
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
        let bd = m.phase_breakdown();
        assert_eq!(bd[&Phase::Coarsen].comp, 12.0);
        assert_eq!(bd[&Phase::Embed].comp, 1.0);
    }

    #[test]
    fn empty_phase_reports_zeros() {
        let mut m = Machine::new(2, free());
        m.phase(Phase::Refine);
        m.phase(Phase::Done);
        let bd = m.phase_breakdown();
        assert_eq!(
            bd[&Phase::Refine],
            PhaseBreakdown {
                comp: 0.0,
                comm: 0.0
            }
        );
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
        let a = m.phase_breakdown();
        let b = m.phase_breakdown();
        assert_eq!(a, b);
        // And stats() agrees with the breakdown.
        let st = m.stats();
        for (ph, comp, comm) in &st.phases {
            assert_eq!(a[ph].comp, *comp);
            assert_eq!(a[ph].comm, *comm);
        }
    }

    #[test]
    fn breakdown_is_bounded_by_elapsed_times_p() {
        let cost = CostModel::qdr_infiniband();
        let mut m = Machine::new(4, cost);
        let mut s = vec![(); 4];
        m.phase(Phase::Coarsen);
        m.compute(&mut s, |r, _| 1000.0 * (r + 1) as f64);
        let _ = m.exchange(vec![
            vec![(1usize, vec![0u64; 64])],
            vec![(2usize, vec![0u64; 8])],
            vec![],
            vec![],
        ]);
        m.phase(Phase::Partition);
        m.barrier();
        let _ = m.allgather(vec![vec![0u64; 4]; 4]);
        let e = m.elapsed();
        let bd = m.phase_breakdown();
        let total: f64 = bd.values().map(|b| b.comp + b.comm).sum();
        assert!(total <= e * m.p() as f64 + 1e-12, "{total} > {e} * p");
        for b in bd.values() {
            assert!(b.comp <= e + 1e-12 && b.comm <= e + 1e-12);
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
        let _ = m.exchange(vec![vec![(0usize, vec![0u64])], vec![]]);
    }

    #[test]
    fn group_allgather_only_touches_active_ranks() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.0,
            t_op: 1.0,
        };
        let mut m = Machine::new(8, cost);
        let contrib: Vec<Vec<u32>> = (0..8)
            .map(|r| if r < 4 { vec![r as u32] } else { Vec::new() })
            .collect();
        let all = m.group_allgather(4, contrib);
        assert_eq!(all, vec![0, 1, 2, 3]);
        // Active ranks advanced by log2(4) = 2 stages; inactive untouched.
        assert_eq!(m.clock[0], 2.0);
        assert_eq!(m.clock[3], 2.0);
        assert_eq!(m.clock[4], 0.0);
        assert_eq!(m.clock[7], 0.0);
    }

    #[test]
    fn group_allreduce_sums_active_only() {
        let mut m = Machine::new(4, free());
        let contrib = vec![vec![1.0], vec![2.0], vec![100.0], vec![1000.0]];
        let out = m.group_allreduce_sum(2, &contrib);
        assert_eq!(out, vec![3.0]); // ranks 2,3 excluded
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
        m.group_allreduce_sum(2, &vec![vec![0.0]; 4]);
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
        let contrib: Vec<Vec<u64>> = (0..4)
            .map(|r| if r == 0 { vec![7u64] } else { Vec::new() })
            .collect();
        let all = m.group_allgather(1, contrib);
        assert_eq!(all, vec![7]);
        // log2(1) = 0 stages; only the bandwidth term applies.
        assert!(m.clock[0] <= 1.0 + 1e-12);
    }

    #[test]
    fn allgather_charges_heap_payloads_through_words() {
        // Regression: size_of::<Vec<u64>>() is 24 bytes of header — the
        // old accounting charged 3 words per element here instead of 100.
        let cost = CostModel {
            t_s: 0.0,
            t_w: 1.0,
            t_op: 0.0,
        };
        let mut m = Machine::new(2, cost);
        let contrib: Vec<Vec<Vec<u64>>> = vec![vec![vec![0u64; 100]], vec![vec![0u64; 100]]];
        let _ = m.allgather(contrib);
        // 200 words at t_w = 1 → at least 200 simulated seconds.
        assert!(m.elapsed() >= 200.0, "undercharged: {}", m.elapsed());

        let mut m = Machine::new(2, cost);
        let contrib: Vec<Vec<Vec<u64>>> = vec![vec![vec![0u64; 50]], Vec::new()];
        let _ = m.group_allgather(1, contrib);
        assert!(m.elapsed() >= 50.0, "group undercharged: {}", m.elapsed());
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
        let _ = m.exchange(vec![vec![(1usize, vec![0u64; 4])], vec![]]);
        m.phase(Phase::Partition);
        let _ = m.allgather(vec![vec![1u64, 2], vec![3u64]]);
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
        let bd = m.phase_breakdown();
        for ph in &metrics.phases {
            assert_eq!(ph.comp, bd[&ph.phase].comp, "{}", ph.phase);
            assert_eq!(ph.comm, bd[&ph.phase].comm, "{}", ph.phase);
        }
        assert_eq!(metrics.elapsed, elapsed);
        // Chrome export spans the same horizon (µs), with per-rank tids.
        let json = rec.chrome_trace();
        assert!(json.contains("\"tid\": 0") && json.contains("\"tid\": 1"));
        assert!(json.contains("\"ph\": \"X\""));
    }

    #[test]
    fn costed_exchange_charges_exactly_like_dummy_payloads() {
        let cost = CostModel::qdr_infiniband();
        let script: Vec<Vec<(usize, usize)>> = vec![
            vec![(1, 64), (2, 8), (3, 1)],
            vec![(2, 17)],
            vec![],
            vec![(0, 300)],
        ];
        let mut dummy = Machine::new(4, cost);
        let out: Vec<Vec<(usize, Vec<u64>)>> = script
            .iter()
            .map(|msgs| msgs.iter().map(|&(d, w)| (d, vec![0u64; w])).collect())
            .collect();
        let _ = dummy.exchange(out);

        let mut costed = Machine::new(4, cost);
        let out: Vec<Vec<(usize, CostOnly)>> = script
            .iter()
            .map(|msgs| msgs.iter().map(|&(d, w)| (d, CostOnly::new(w))).collect())
            .collect();
        costed.exchange_costed(&out);

        // Exact f64 equality — both run the same charging code path.
        assert_eq!(dummy.clock, costed.clock);
        assert_eq!(dummy.comm, costed.comm);
        assert_eq!(dummy.elapsed(), costed.elapsed());
    }

    #[test]
    fn costed_collectives_charge_exactly_like_data_variants() {
        let cost = CostModel::qdr_infiniband();
        let stagger = |m: &mut Machine| {
            let mut s = vec![(); 8];
            m.compute(&mut s, |r, _| (r * r) as f64);
        };

        let mut a = Machine::new(8, cost);
        stagger(&mut a);
        let _ = a.allreduce_sum(&vec![vec![0.0; 5]; 8]);
        let _ = a.allgather(vec![vec![0u64; 3]; 8]);
        let contrib: Vec<Vec<u64>> = (0..8)
            .map(|r| if r < 4 { vec![0u64; 6] } else { Vec::new() })
            .collect();
        let _ = a.group_allgather(4, contrib);
        let _ = a.group_allreduce_sum(4, &vec![vec![0.0; 2]; 8]);

        let mut b = Machine::new(8, cost);
        stagger(&mut b);
        b.allreduce_sum_costed(5);
        b.allgather_costed(24);
        b.group_allgather_costed(4, 24);
        b.group_allreduce_sum_costed(4, 2);

        assert_eq!(a.clock, b.clock);
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.elapsed(), b.elapsed());
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
        let _ = m.exchange(vec![
            vec![(1usize, vec![0u64; 100])],
            vec![],
            vec![(4usize, vec![0u64; 7])],
            vec![],
            vec![],
        ]);
        check(&m);
        m.exchange_costed(&[
            vec![(3usize, CostOnly::new(50))],
            vec![],
            vec![],
            vec![],
            vec![],
        ]);
        check(&m);
        m.group_allreduce_sum_costed(2, 3);
        check(&m);
        m.barrier();
        check(&m);
        m.allgather_costed(40);
        check(&m);
    }

    #[test]
    fn costed_exchange_emits_identical_trace_events() {
        let cost = CostModel {
            t_s: 1.0,
            t_w: 0.5,
            t_op: 1.0,
        };
        let events = |costed: bool| {
            let mut m = Machine::new(3, cost);
            m.set_recorder(Box::new(TraceRecorder::new(3)));
            m.phase(Phase::Embed);
            if costed {
                m.exchange_costed(&[
                    vec![(1, CostOnly::new(4)), (2, CostOnly::new(2))],
                    vec![(2, CostOnly::new(8))],
                    vec![],
                ]);
            } else {
                let _ = m.exchange(vec![
                    vec![(1usize, vec![0u64; 4]), (2usize, vec![0u64; 2])],
                    vec![(2usize, vec![0u64; 8])],
                    vec![],
                ]);
            }
            let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
            format!("{:?}", rec.events())
        };
        assert_eq!(events(false), events(true));
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
            let out = vec![
                vec![(1usize, vec![10u64, 11]), (2usize, vec![12u64])],
                vec![(2usize, vec![21u64]), (0usize, vec![20u64])],
                vec![(3usize, vec![32u64])],
                vec![(2usize, vec![31u64])],
            ];
            let inbox = m.exchange(out);
            m.allreduce_sum_costed(3);
            (states, inbox, m.clock.clone(), m.comm.clone(), m.elapsed())
        };
        let base = run(None);
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let fuzzed = run(Some(Schedule::seeded(seed)));
            assert_eq!(base, fuzzed, "schedule seed {seed} changed the run");
        }
    }

    #[test]
    fn fuzzed_delivery_preserves_per_source_send_order() {
        // Two messages from the same source to the same destination must
        // arrive in send order under every schedule.
        let mut m = Machine::new(2, free());
        m.set_schedule(Schedule::seeded(99));
        let out = vec![
            vec![
                (1usize, vec![1u64]),
                (1usize, vec![2u64]),
                (1usize, vec![3u64]),
            ],
            vec![],
        ];
        let inbox = m.exchange(out);
        assert_eq!(
            inbox[1],
            vec![(0, vec![1u64]), (0, vec![2u64]), (0, vec![3u64])]
        );
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
            m.allreduce_sum_costed(1);
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
            let _ = m.exchange(vec![vec![(1usize, vec![0u64; 3])], vec![], vec![]]);
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
            let _ = m.exchange(vec![vec![(1usize, vec![0u64; 4])], vec![]]);
            m.barrier();
            m.elapsed()
        };
        // Tracing must not perturb the simulated clock.
        assert_eq!(run(false), run(true));
        let mut m = Machine::new(2, cost);
        assert!(!m.has_recorder());
        assert!(m.take_recorder().is_none());
    }
}

//! Property tests for the machine's collectives against serial oracles:
//! a group collective charges exactly what the cost model says to exactly
//! its active prefix, and a fuzzed schedule never changes results or
//! clocks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_machine::{CostModel, CostOnly, Machine, Schedule};

/// Cases per property; case `c` draws from `StdRng::seed_from_u64(c)`.
const CASES: u64 = 48;

fn arb_cost(rng: &mut StdRng) -> CostModel {
    CostModel {
        t_s: rng.random_range(1e-7..1e-4),
        t_w: rng.random_range(1e-9..1e-6),
        t_op: rng.random_range(1e-10..1e-7),
    }
}

/// Between 1 and 5 compute weights in `[0, 1e4)`.
fn arb_work(rng: &mut StdRng) -> Vec<f64> {
    (0..rng.random_range(1..6))
        .map(|_| rng.random_range(0.0..1e4))
        .collect()
}

/// A machine with every rank's clock desynchronised by some prior compute,
/// so collectives start from a non-trivial state.
fn warmed(p: usize, cost: CostModel, work: &[f64]) -> Machine {
    let mut m = Machine::new(p, cost);
    let mut s = vec![(); p];
    m.compute(&mut s, |r, _| work[r % work.len()].abs());
    m
}

/// The clocks after each group collective, worked out serially from the
/// cost model: ranks `0..active` leave together at the latest of their
/// entry clocks plus the collective's cost, the others do not move.
#[test]
fn group_collectives_match_serial_oracle_over_active_prefix() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cost = arb_cost(rng);
        let p = rng.random_range(1usize..12);
        let active = rng.random_range(1usize..12).min(p);
        let len = rng.random_range(0usize..5);
        let mut m = warmed(p, cost, &arb_work(rng));
        let stages = (active as f64).log2().ceil();
        let expect = |before: &[f64], leave: &dyn Fn(f64) -> f64| -> Vec<u64> {
            let t = leave(before[..active].iter().copied().fold(0.0, f64::max));
            let mut after = before.to_vec();
            after[..active].fill(t);
            after.iter().map(|c| c.to_bits()).collect()
        };
        let clocks = |m: &mut Machine| -> Vec<f64> { m.stats().rank_clock };
        let bits = |c: Vec<f64>| -> Vec<u64> { c.iter().map(|c| c.to_bits()).collect() };

        let before = clocks(&mut m);
        m.group_allreduce_sum(active, len);
        let want = expect(&before, &|t0| t0 + stages * cost.msg(len));
        assert_eq!(
            bits(clocks(&mut m)),
            want,
            "case {case}: group_allreduce_sum"
        );

        let words = 2 * active;
        let before = clocks(&mut m);
        m.group_allgather(active, words);
        let want = expect(&before, &|t0| {
            t0 + stages * cost.t_s + cost.t_w * words as f64
        });
        assert_eq!(bits(clocks(&mut m)), want, "case {case}: group_allgather");
    }
}

#[test]
fn fuzzed_schedule_never_changes_collective_results_or_clocks() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cost = arb_cost(rng);
        let p = rng.random_range(2usize..10);
        let seed = rng.random();
        let work = arb_work(rng);
        let invisible =
            std::panic::catch_unwind(|| assert_fuzzed_schedule_is_invisible(cost, p, seed, &work));
        assert!(invisible.is_ok(), "case {case}");
    }
}

/// A compute, both collectives and a two-message exchange per rank, run
/// under the canonical schedule and under `Schedule::seeded(seed)`: the
/// states and the clocks must agree. Each rank sends to the next rank and
/// to the one after it, unless that is itself (`p = 2`): the machine
/// rejects self-messages.
fn assert_fuzzed_schedule_is_invisible(cost: CostModel, p: usize, seed: u64, work: &[f64]) {
    let run = |sched: Option<Schedule>| {
        let mut m = Machine::new(p, cost);
        if let Some(s) = sched {
            m.set_schedule(s);
        }
        let mut st = vec![0.0f64; p];
        m.compute(&mut st, |r, s| {
            *s = work[r % work.len()].sqrt();
            work[r % work.len()]
        });
        m.allreduce_sum(2);
        m.allgather(p);
        let out: Vec<Vec<(usize, CostOnly)>> = (0..p)
            .map(|s| {
                let mut msgs = vec![((s + 1) % p, CostOnly::new(1 + s % 3))];
                if (s + 2) % p != s {
                    msgs.push(((s + 2) % p, CostOnly::new(2)));
                }
                msgs
            })
            .collect();
        m.exchange(&out);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        (bits(&st), bits(&m.stats().rank_clock))
    };
    assert_eq!(
        run(None),
        run(Some(Schedule::seeded(seed))),
        "p = {p}, seed {seed:#x}"
    );
}

/// The smallest machine the property draws, over 16 schedules.
#[test]
fn fuzzed_schedule_is_invisible_at_two_ranks() {
    let cost = CostModel {
        t_s: 1e-5,
        t_w: 1e-8,
        t_op: 1e-9,
    };
    for seed in 0..16 {
        assert_fuzzed_schedule_is_invisible(cost, 2, seed, &[3.0, 1e3]);
    }
}

//! Property tests for the machine's collectives against serial oracles:
//! data results equal what a sequential reduction computes, `_costed`
//! variants charge identical simulated time to their data-carrying twins,
//! and a fuzzed schedule never changes results or clocks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_machine::{CostModel, Machine, Schedule};

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

#[test]
fn allgather_matches_serial_concatenation() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cost = arb_cost(rng);
        let p = rng.random_range(1usize..12);
        let lens: Vec<usize> = (0..rng.random_range(1..12))
            .map(|_| rng.random_range(0..5))
            .collect();
        let mut m = Machine::new(p, cost);
        let contrib: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                (0..lens[r % lens.len()])
                    .map(|i| (r * 100 + i) as u64)
                    .collect()
            })
            .collect();
        let expect: Vec<u64> = contrib.iter().flatten().copied().collect();
        assert_eq!(m.allgather(contrib), expect, "case {case}");
    }
}

#[test]
fn allreduce_min_index_matches_serial_argmin() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cost = arb_cost(rng);
        let keys: Vec<f64> = (0..rng.random_range(1..12))
            .map(|_| rng.random_range(-1e9..1e9))
            .collect();
        let mut m = Machine::new(keys.len(), cost);
        let got = m.allreduce_min_index(&keys);
        let expect = keys
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(got, expect, "case {case}");
    }
}

#[test]
fn group_collectives_match_serial_oracle_over_active_prefix() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cost = arb_cost(rng);
        let p = rng.random_range(1usize..12);
        let active = rng.random_range(1usize..12).min(p);
        let len = rng.random_range(0usize..5);
        let mut m = warmed(p, cost, &arb_work(rng));

        let contrib: Vec<Vec<f64>> = (0..p)
            .map(|r| {
                if r < active {
                    (0..len).map(|i| (r + 1) as f64 * (i + 1) as f64).collect()
                } else {
                    vec![0.0; len]
                }
            })
            .collect();
        let got = m.group_allreduce_sum(active, &contrib);
        for (i, g) in got.iter().enumerate() {
            let expect: f64 = (0..active).map(|r| (r + 1) as f64 * (i + 1) as f64).sum();
            assert!(
                (g - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                "case {case}: {g} vs {expect}"
            );
        }

        let gather: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                if r < active {
                    vec![r as u64; 2]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let expect: Vec<u64> = gather.iter().flatten().copied().collect();
        assert_eq!(m.group_allgather(active, gather), expect, "case {case}");
    }
}

#[test]
fn costed_variants_charge_identical_time() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cost = arb_cost(rng);
        let p = rng.random_range(1usize..12);
        let active = rng.random_range(1usize..12).min(p);
        let len = rng.random_range(0usize..6);
        let work = arb_work(rng);
        // Two machines stepped identically: one through the data-carrying
        // collectives, one through the cost-only twins. Clocks must agree
        // to the bit at every step.
        let mut a = warmed(p, cost, &work);
        let mut b = warmed(p, cost, &work);

        a.allreduce_sum(&vec![vec![1.0; len]; p]);
        b.allreduce_sum_costed(len);
        assert_eq!(a.elapsed().to_bits(), b.elapsed().to_bits(), "case {case}");

        let contrib: Vec<Vec<u64>> = (0..p).map(|r| vec![r as u64; len]).collect();
        a.allgather(contrib);
        b.allgather_costed(p * len);
        assert_eq!(a.elapsed().to_bits(), b.elapsed().to_bits(), "case {case}");

        let gather: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                if r < active {
                    vec![r as u64; len]
                } else {
                    Vec::new()
                }
            })
            .collect();
        a.group_allgather(active, gather);
        b.group_allgather_costed(active, active * len);
        assert_eq!(a.elapsed().to_bits(), b.elapsed().to_bits(), "case {case}");

        let contrib: Vec<Vec<f64>> = (0..p)
            .map(|r| {
                if r < active {
                    vec![r as f64; len]
                } else {
                    vec![0.0; len]
                }
            })
            .collect();
        a.group_allreduce_sum(active, &contrib);
        b.group_allreduce_sum_costed(active, len);
        assert_eq!(a.elapsed().to_bits(), b.elapsed().to_bits(), "case {case}");

        assert_eq!(
            a.comm_time().to_bits(),
            b.comm_time().to_bits(),
            "case {case}"
        );
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
/// results and the clock must agree. Each rank sends to the next rank and
/// to the one after it, unless that is itself (`p = 2`): the machine
/// rejects self-messages.
fn assert_fuzzed_schedule_is_invisible(cost: CostModel, p: usize, seed: u64, work: &[f64]) {
    let run = |sched: Option<Schedule>| {
        let mut m = Machine::new(p, cost);
        if let Some(s) = sched {
            m.set_schedule(s);
        }
        let mut st = vec![(); p];
        m.compute(&mut st, |r, _| work[r % work.len()]);
        let red = m.allreduce_sum(&(0..p).map(|r| vec![r as f64, 1.0]).collect::<Vec<_>>());
        let gat = m.allgather((0..p).map(|r| vec![r as u64]).collect());
        let out: Vec<Vec<(usize, Vec<u64>)>> = (0..p)
            .map(|s| {
                let mut msgs = vec![((s + 1) % p, vec![s as u64])];
                if (s + 2) % p != s {
                    msgs.push(((s + 2) % p, vec![(s * 7) as u64]));
                }
                msgs
            })
            .collect();
        let inbox = m.exchange(out);
        (red, gat, inbox, m.elapsed().to_bits())
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

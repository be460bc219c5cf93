//! Property tests for the simulated-machine cost model: clocks are
//! monotone, collectives synchronise, data delivery is exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_machine::{CostModel, Machine};

/// Cases per property; case `c` draws from `StdRng::seed_from_u64(c)`.
const CASES: u64 = 48;

fn arb_cost(rng: &mut StdRng) -> CostModel {
    CostModel {
        t_s: rng.random_range(0.0..1e-4),
        t_w: rng.random_range(0.0..1e-6),
        t_op: rng.random_range(1e-10..1e-7),
    }
}

#[test]
fn clocks_never_go_backwards() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cost = arb_cost(rng);
        let p = rng.random_range(1usize..16);
        let mut m = Machine::new(p, cost);
        let mut last = 0.0;
        for _ in 0..rng.random_range(1..12) {
            let work = rng.random_range(0.0..1e5);
            match rng.random_range(0..4) {
                0 => {
                    let mut s = vec![(); p];
                    m.compute(&mut s, |_, _| work);
                }
                1 => m.barrier(),
                2 => {
                    let _ = m.allreduce_sum(&vec![vec![work]; p]);
                }
                _ => {
                    let contrib: Vec<Vec<u64>> = (0..p).map(|r| vec![r as u64]).collect();
                    let _ = m.allgather(contrib);
                }
            }
            let e = m.elapsed();
            assert!(
                e >= last - 1e-15,
                "case {case}: elapsed went backwards: {last} -> {e}"
            );
            last = e;
        }
        assert!(m.comp_time() >= 0.0 && m.comm_time() >= 0.0, "case {case}");
    }
}

#[test]
fn exchange_delivers_every_message_exactly_once() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let p = rng.random_range(2usize..10);
        let mut m = Machine::new(p, CostModel::qdr_infiniband());
        let mut out: Vec<Vec<(usize, Vec<u64>)>> = vec![Vec::new(); p];
        let mut sent = 0usize;
        for _ in 0..rng.random_range(0..40) {
            let s = rng.random_range(0usize..10) % p;
            let d = rng.random_range(0usize..10) % p;
            let payload = rng.random_range(0u64..100);
            if s != d {
                out[s].push((d, vec![payload]));
                sent += 1;
            }
        }
        let inbox = m.exchange(out);
        let received: usize = inbox.iter().map(|v| v.len()).sum();
        assert_eq!(received, sent, "case {case}");
        // Sources are ordered per receiver.
        for msgs in &inbox {
            for w in msgs.windows(2) {
                assert!(w[0].0 <= w[1].0, "case {case}");
            }
        }
    }
}

#[test]
fn allreduce_matches_sequential_sum() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let p = rng.random_range(1usize..12);
        let vals: Vec<f64> = (0..rng.random_range(1..6))
            .map(|_| rng.random_range(-1e6..1e6))
            .collect();
        let mut m = Machine::new(p, CostModel::qdr_infiniband());
        let contrib: Vec<Vec<f64>> = (0..p)
            .map(|r| vals.iter().map(|v| v * (r + 1) as f64).collect())
            .collect();
        let got = m.allreduce_sum(&contrib);
        let scale: f64 = (1..=p).map(|r| r as f64).sum();
        for (g, v) in got.iter().zip(&vals) {
            assert!(
                (g - v * scale).abs() < 1e-6 * (1.0 + v.abs() * scale),
                "case {case}: {g} vs {}",
                v * scale
            );
        }
    }
}

#[test]
fn collectives_leave_all_clocks_equal() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cost = arb_cost(rng);
        let p = rng.random_range(1usize..16);
        let mut m = Machine::new(p, cost);
        let mut s = vec![(); p];
        m.compute(&mut s, |r, _| r as f64 * 100.0);
        m.barrier();
        let e = m.elapsed();
        // After a barrier a zero-cost compute shows every rank at e.
        let mut probe = vec![0.0f64; p];
        m.compute(&mut probe, |_, _| 0.0);
        assert!((m.elapsed() - e).abs() < 1e-15, "case {case}");
    }
}

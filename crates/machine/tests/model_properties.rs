//! Property tests for the simulated-machine cost model: clocks are
//! monotone, collectives synchronise, every message is charged once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_machine::trace::Event;
use sp_machine::{CostModel, CostOnly, Machine, TraceRecorder};

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
                2 => m.allreduce_sum(1),
                _ => m.allgather(p),
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

/// The exchange delivers nothing but the charge: every message sent is
/// charged one send and one receive of its words, and each receiver drains
/// its messages in source order.
#[test]
fn exchange_delivers_every_message_exactly_once() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let p = rng.random_range(2usize..10);
        let mut m = Machine::new(p, CostModel::qdr_infiniband());
        m.set_recorder(Box::new(TraceRecorder::new(p)));
        let mut out: Vec<Vec<(usize, CostOnly)>> = vec![Vec::new(); p];
        let mut sent = Vec::new();
        for _ in 0..rng.random_range(0..40) {
            let s = rng.random_range(0usize..10) % p;
            let d = rng.random_range(0usize..10) % p;
            let words = rng.random_range(0usize..100);
            if s != d {
                out[s].push((d, CostOnly::new(words)));
                sent.push((s, d, words));
            }
        }
        m.exchange(&out);
        let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
        let (mut sends, mut recvs) = (Vec::new(), Vec::new());
        for e in rec.events() {
            match *e {
                Event::Send {
                    src, dst, words, ..
                } => sends.push((src, dst, words)),
                Event::Recv {
                    src, dst, words, ..
                } => recvs.push((src, dst, words)),
                _ => {}
            }
        }
        // Sources are ordered per receiver.
        for d in 0..p {
            let from: Vec<usize> = recvs.iter().filter(|r| r.1 == d).map(|r| r.0).collect();
            assert!(from.windows(2).all(|w| w[0] <= w[1]), "case {case}");
        }
        sent.sort_unstable();
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, sent, "case {case}");
        assert_eq!(recvs, sent, "case {case}");
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

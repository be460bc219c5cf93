//! What only a process with a single caller can hold the pool to: how many
//! threads it starts and which ones it reuses. One test, so that nothing
//! else in this binary dispatches beside it (the unit tests of `pool.rs`
//! and `machine.rs` share their process with each other, and a dispatch
//! takes whichever workers are idle).

use sp_machine::{pool, CostModel, Machine};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

fn install<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(op)
}

/// Wait (up to a deadline) until `tasks` tasks have called this. Tasks
/// that meet have a thread each; tasks that do not may share a worker that
/// was idle again before the last of them was handed out.
fn meet(arrived: &AtomicUsize, tasks: usize) {
    arrived.fetch_add(1, Ordering::SeqCst);
    let t0 = Instant::now();
    while arrived.load(Ordering::SeqCst) < tasks && t0.elapsed() < Duration::from_secs(10) {
        thread::yield_now();
    }
}

/// Threads a `tasks`-wide dispatch ran on.
fn dispatch_threads(tasks: usize) -> HashSet<ThreadId> {
    let ids = Mutex::new(HashSet::new());
    let arrived = AtomicUsize::new(0);
    pool::run(tasks, |_| {
        ids.lock().unwrap().insert(thread::current().id());
        meet(&arrived, tasks);
    });
    ids.into_inner().unwrap()
}

#[test]
fn the_pool_starts_threads_for_peak_demand_only_and_outlives_panics() {
    assert_eq!(pool::threads_started(), 0, "workers start on first use");

    // A thousand supersteps on two host threads: one worker, started once.
    let unit_cost = CostModel {
        t_s: 0.0,
        t_w: 0.0,
        t_op: 1.0,
    };
    let mut seen = HashSet::new();
    install(2, || {
        let mut m = Machine::new(64, unit_cost);
        let mut ran_on: Vec<Option<ThreadId>> = vec![None; 64];
        for _ in 0..1000 {
            m.compute(&mut ran_on, |_, id| {
                *id = Some(thread::current().id());
                1.0
            });
            seen.extend(ran_on.iter().map(|id| id.unwrap()));
        }
        assert_eq!(m.elapsed(), 1000.0);
    });
    assert_eq!(seen.len(), 2, "the caller and one worker: {seen:?}");
    assert!(seen.contains(&thread::current().id()));
    assert_eq!(pool::threads_started(), 1);

    // A dispatch of three needs a second worker; one of its tasks panics.
    let arrived = AtomicUsize::new(0);
    let caught = catch_unwind(|| {
        pool::run(3, |i| {
            meet(&arrived, 3);
            if i == 1 {
                panic!("task 1 gives up");
            }
        })
    });
    assert!(caught.is_err());
    assert_eq!(pool::threads_started(), 2);
    let gang = dispatch_threads(3);
    assert_eq!(gang.len(), 3);
    assert!(seen.is_subset(&gang), "the first worker is still in use");
    for _ in 0..100 {
        assert_eq!(dispatch_threads(3), gang, "the same workers every time");
    }
    assert_eq!(pool::threads_started(), 2, "the panic cost no worker");

    // The same through the machine (`machine.rs` holds the states and the
    // clocks of this to account): rank 5 panics, and the next superstep
    // runs on the same threads.
    install(2, || {
        let mut m = Machine::new(8, unit_cost);
        let mut ran_on = vec![None; 8];
        let failed = catch_unwind(AssertUnwindSafe(|| {
            m.compute(&mut ran_on, |r, _| {
                assert_ne!(r, 5, "rank 5 gives up");
                1.0
            })
        }));
        assert!(failed.is_err());
        m.compute(&mut ran_on, |_, id| {
            *id = Some(thread::current().id());
            1.0
        });
        assert_eq!(m.elapsed(), 1.0);
        let used: HashSet<ThreadId> = ran_on.into_iter().map(|id| id.unwrap()).collect();
        assert!(used.len() == 2 && used.is_subset(&gang));
    });
    assert_eq!(pool::threads_started(), 2);
}

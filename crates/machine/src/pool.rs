//! The host threads under every superstep, `force_layout`, a forked k-way
//! recursion and `sp-graph`'s set-up passes: one process-wide set of
//! workers, started on first use and parked between dispatches.
//!
//! [`run`]`(tasks, f)` is a fork-join: `f(0)` runs on the caller, every
//! other `f(i)` is handed to a worker that is idle at that moment and
//! starts at once, and `run` returns when all have finished. There is no
//! queue and no stealing between dispatches.
//! [`each`] is what almost every caller uses: it runs `f(i, piece)` for
//! disjoint pieces of the caller's data (a superstep's rank units, a k-way
//! fork's two halves, a CSR pass's row chunks), and its tasks *claim* the
//! pieces one at a time from a shared cursor, so the caller starts on the
//! first piece while a parked worker wakes and a heavy piece holds up no
//! fixed share. Which thread runs which piece is therefore the schedule's
//! business and changes from call to call; what stays fixed is that piece
//! `i` is the caller's `i`th piece and writes only its own slot, the one
//! thing the determinism argument of DESIGN.md rests on. `force_layout`
//! claims its chunks through [`run`] with a counter of its own.
//! A worker between dispatches spins for `SPIN` and then parks, so
//! back-to-back supersteps are handed over in a few microseconds and an
//! idle process burns nothing.
//!
//! Four properties, and what breaks without each:
//!
//! 1. **A dispatch takes its own workers.** It pops them off the idle list
//!    and starts a thread for each one the list is short of. Callers that
//!    dispatch at once (two shards' job threads in one `sp-serve`, the
//!    threads of `cargo test`) therefore neither wait for each other nor
//!    fall back to one thread behind each other's back — a superstep that
//!    was promised two threads runs on two. Workers are never retired:
//!    steady state starts no thread, and the thread count is bounded by
//!    the peak of concurrent demand.
//! 2. **A dispatch from inside a task is legal.** It takes other workers,
//!    exactly as in (1); nothing ever waits for a *busy* worker, so
//!    nesting cannot deadlock.
//! 3. **A panicking task takes nothing down.** The panic is caught on the
//!    worker, every other task of the dispatch runs to its end, and the
//!    first payload resumes on the caller after the join — `sp-serve`'s
//!    `catch_unwind` then fails the job, and the worker, back on the idle
//!    list, serves the next one.
//! 4. **Width is asked per dispatch,** from [`width`], the one thing this
//!    workspace takes from rayon: `ThreadPool::install` and
//!    `RAYON_NUM_THREADS` are how the benchmark, CI's thread matrix and
//!    sp-verify's `parallel` stage set it, and they keep working. A task
//!    sees the width of the thread that dispatched it, not that of the
//!    worker it runs on: `install` only sets the width of the thread it is
//!    called on, and a dispatch made from inside a task (a forked k-way
//!    recursion's supersteps) must be as wide as the caller was told. A
//!    width above the core count oversubscribes; that is slower, never
//!    wrong.

use std::any::Any;
use std::cell::Cell;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long a worker waits for its next job, and a caller for its last
/// task, before parking. Long enough to bridge the host work between two
/// supersteps of a smoothing iteration (an empty 64-rank superstep is
/// handed over and joined in about 3 µs while the worker spins, 20–60 µs
/// once it has to be woken), short enough that an oversubscribed host
/// loses little to it.
const SPIN: Duration = Duration::from_micros(40);

/// Parked workers, most recently idle last.
static IDLE: Mutex<Vec<&'static Worker>> = Mutex::new(Vec::new());

/// Worker threads started since the process began.
static STARTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Width of the dispatch whose task this thread is running; 0 when it
    /// runs none (a caller's own task 0 runs at the caller's width anyway).
    static TASK_WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Host threads a dispatch may use: inside a pool task, the width its
/// dispatcher saw; else the installed rayon pool's width, else
/// `RAYON_NUM_THREADS`, else the host's parallelism; at least 1.
pub fn width() -> usize {
    match TASK_WIDTH.with(Cell::get) {
        0 => rayon::current_num_threads().max(1),
        w => w,
    }
}

/// Worker threads this process has started so far. Steady state adds
/// none; tests hold the pool to that.
pub fn threads_started() -> usize {
    STARTED.load(Ordering::Relaxed)
}

/// The idle list is only ever pushed to and popped from, so it is valid at
/// every step and a poisoned lock (no holder panics anyway) is recovered.
fn idle() -> MutexGuard<'static, Vec<&'static Worker>> {
    IDLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One fork-join, on the dispatching caller's stack.
struct Dispatch<'a> {
    f: &'a (dyn Fn(usize) + Sync),
    /// Tasks handed out and not yet finished.
    pending: AtomicUsize,
    /// Payload of the first task that panicked.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    caller: Thread,
    /// The caller's [`width`], which every task sees as its own.
    width: usize,
}

/// A task of a dispatch: which one, and of which.
#[derive(Clone, Copy)]
struct Job {
    dispatch: *mut Dispatch<'static>,
    index: usize,
}

// SAFETY: the pointer is only dereferenced by `Worker::work`, under the
// contract stated there; everything a `Dispatch` holds is `Sync`.
unsafe impl Send for Job {}

struct Worker {
    /// The dispatch of the next job; null while there is none. Written by
    /// the dispatcher that popped this worker off the idle list (Release,
    /// after `index`), taken by the worker (Acquire).
    dispatch: AtomicPtr<Dispatch<'static>>,
    index: AtomicUsize,
    thread: Thread,
}

impl Worker {
    fn post(&self, job: Job) {
        self.index.store(job.index, Ordering::Relaxed);
        self.dispatch.store(job.dispatch, Ordering::Release);
        self.thread.unpark();
    }

    fn next_job(&self) -> Job {
        wait_until(|| !self.dispatch.load(Ordering::Acquire).is_null());
        // Only this worker takes a posted job, and nobody posts another
        // before it is back on the idle list.
        let dispatch = self.dispatch.swap(ptr::null_mut(), Ordering::Relaxed);
        Job {
            dispatch,
            index: self.index.load(Ordering::Relaxed),
        }
    }

    /// Run `job`, then go back on the idle list, then report to the caller
    /// — in that order, so that a caller dispatching again right after its
    /// join finds this worker instead of starting a thread.
    fn work(&'static self, job: Job) {
        // SAFETY: `run` keeps the `Dispatch` alive and in place until
        // `pending` reaches zero (`Join` waits for that even while
        // unwinding), and this task's share of `pending` is only given up
        // by the `fetch_sub` below, after which `d` is not touched again.
        let d = unsafe { &*job.dispatch };
        TASK_WIDTH.with(|w| w.set(d.width));
        let ran = panic::catch_unwind(AssertUnwindSafe(|| (d.f)(job.index)));
        TASK_WIDTH.with(|w| w.set(0));
        if let Err(payload) = ran {
            d.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
        idle().push(self);
        let caller = d.caller.clone();
        // Release: the task's writes happen before the caller's Acquire
        // load of zero.
        if d.pending.fetch_sub(1, Ordering::Release) == 1 {
            caller.unpark();
        }
    }
}

/// A worker thread's whole life: the job it was started for, then whatever
/// it is posted, for as long as the process lives.
fn worker_main(first: Job) {
    let me: &'static Worker = Box::leak(Box::new(Worker {
        dispatch: AtomicPtr::new(ptr::null_mut()),
        index: AtomicUsize::new(0),
        thread: thread::current(),
    }));
    let mut job = first;
    loop {
        me.work(job);
        job = me.next_job();
    }
}

/// Spin on `done` for [`SPIN`], then park between looks. Whoever makes
/// `done` true unparks this thread afterwards; a stale token only costs
/// another look.
fn wait_until(done: impl Fn() -> bool) {
    let t0 = Instant::now();
    loop {
        for _ in 0..64 {
            if done() {
                return;
            }
            std::hint::spin_loop();
        }
        if t0.elapsed() >= SPIN {
            break;
        }
    }
    while !done() {
        thread::park();
    }
}

/// Joins a dispatch when dropped, so that no worker still holds the
/// caller's stack when the caller leaves `run`, by return or by unwinding.
struct Join<'d>(&'d AtomicUsize);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        wait_until(|| self.0.load(Ordering::Acquire) == 0);
    }
}

/// Run `f(0)` on the calling thread and `f(1)`, …, `f(tasks − 1)` on pool
/// workers, and return when all of them have finished. No task waits for
/// another to start: each is handed to a worker that is idle at that
/// moment, or to a new thread (a worker already done with an earlier task
/// of the same dispatch counts as idle). If any task panicked, the others
/// still run to their end and the first panic resumes on the caller.
pub fn run<F: Fn(usize) + Sync>(tasks: usize, f: F) {
    if tasks <= 1 {
        if tasks == 1 {
            f(0);
        }
        return;
    }
    let dispatch = Dispatch {
        f: &f,
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: thread::current(),
        width: width(),
    };
    {
        let _join = Join(&dispatch.pending);
        // The workers see the dispatch through a pointer that has lost its
        // lifetime; `_join` is what makes that sound (see `Worker::work`).
        let erased = &dispatch as *const Dispatch<'_> as *mut Dispatch<'static>;
        for index in 1..tasks {
            // Counted before it is handed out: if starting a thread fails
            // here, `_join` waits for exactly the tasks that are out.
            dispatch.pending.fetch_add(1, Ordering::Relaxed);
            let job = Job {
                dispatch: erased,
                index,
            };
            if let Err(e) = hand_out(job) {
                dispatch.pending.fetch_sub(1, Ordering::Relaxed);
                panic!("cannot start a pool worker thread: {e}");
            }
        }
        f(0);
    }
    let payload = dispatch
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Run `f(i, piece)` for every piece: `min(width(), pieces)` tasks of one
/// [`run`] claim the pieces in order from a shared cursor until none is
/// left, the caller's task starting with the first piece. A piece moves
/// into the task that claims it, so disjoint `&mut` pieces need no
/// sharing. One task is a plain loop on the caller, with no dispatch. A
/// piece that panics does not stop the others: every piece runs, and the
/// first panic resumes on the caller afterwards.
pub fn each<I, F>(pieces: I, f: F)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    F: Fn(usize, I::Item) + Sync,
{
    each_if(true, pieces, f);
}

/// [`each`] when `dispatch` holds, else the same pieces in order on the
/// caller. For passes whose size decides whether a dispatch can pay: the
/// caller compares its work with a measured floor.
pub fn each_if<I, F>(dispatch: bool, pieces: I, f: F)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    F: Fn(usize, I::Item) + Sync,
{
    let mut pieces = pieces.into_iter().enumerate();
    let tasks = if dispatch {
        width().min(pieces.len())
    } else {
        1
    };
    let failed = Mutex::new(None);
    let run_piece = |(i, piece)| {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(i, piece))) {
            failed
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    };
    if tasks <= 1 {
        pieces.for_each(run_piece);
    } else {
        // The caller takes the first piece before any worker is handed a
        // task, so every dispatched pass runs partly on the caller. The
        // cursor is held only while it yields the next piece, never while
        // a piece runs, so a panicking piece cannot poison it.
        let first = Mutex::new(pieces.next());
        let cursor = Mutex::new(pieces);
        run(tasks, |task| {
            if task == 0 {
                if let Some(piece) = first.lock().unwrap_or_else(PoisonError::into_inner).take() {
                    run_piece(piece);
                }
            }
            loop {
                let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some(piece) = next else { break };
                run_piece(piece);
            }
        });
    }
    if let Some(payload) = failed.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
}

/// Give `job` to an idle worker, or to a new one if none is idle.
fn hand_out(job: Job) -> io::Result<()> {
    let idle_worker = idle().pop();
    if let Some(worker) = idle_worker {
        worker.post(job);
        return Ok(());
    }
    // Workers live as long as the process and catch their tasks' panics,
    // so there is nothing to join and the handle is dropped.
    thread::Builder::new()
        .name("sp-pool".into())
        .spawn(move || worker_main(job))?;
    STARTED.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    /// Thread of each index of a `tasks`-wide dispatch, after checking that
    /// each ran exactly once. The tasks wait for each other before they
    /// return, so none of them can have waited for another's thread; the
    /// deadline turns a pool that queues tasks into a failure, not a hang.
    fn dispatch_threads(tasks: usize) -> Vec<ThreadId> {
        let ran: Vec<Mutex<Vec<ThreadId>>> = (0..tasks).map(|_| Mutex::default()).collect();
        let arrived = AtomicUsize::new(0);
        run(tasks, |i| {
            ran[i].lock().unwrap().push(thread::current().id());
            arrived.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            while arrived.load(Ordering::SeqCst) < tasks && t0.elapsed() < Duration::from_secs(10) {
                thread::yield_now();
            }
        });
        assert_eq!(arrived.load(Ordering::SeqCst), tasks);
        ran.into_iter()
            .map(|ids| {
                let ids = ids.into_inner().unwrap();
                assert_eq!(ids.len(), 1, "an index runs exactly once");
                ids[0]
            })
            .collect()
    }

    #[test]
    fn every_index_runs_once_on_a_thread_of_its_own_and_index_zero_on_the_caller() {
        run(0, |_| panic!("no task to run"));
        // 2 cores here: the wider dispatches oversubscribe, as CI's do.
        for tasks in [1, 2, 3, 5, 8] {
            let threads = dispatch_threads(tasks);
            assert_eq!(threads[0], thread::current().id());
            let distinct: HashSet<_> = threads.iter().collect();
            assert_eq!(distinct.len(), tasks, "tasks that met share no thread");
        }
    }

    #[test]
    fn width_is_the_installed_rayon_width() {
        for threads in [1, 2, 3, 8] {
            let installed = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            assert_eq!(installed.install(width), threads);
        }
    }

    #[test]
    fn a_panicking_task_resumes_on_the_caller_after_the_others_finished() {
        let finished = [AtomicBool::new(false), AtomicBool::new(false)];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(3, |i| match i {
                1 => panic::panic_any("task 1 gives up"),
                _ => finished[i / 2].store(true, Ordering::Relaxed),
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 1 gives up"));
        assert!(finished.iter().all(|f| f.load(Ordering::Relaxed)));
        // The caller's own task panicking is joined the same way.
        let worker_ran = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(2, |i| match i {
                0 => panic::panic_any("task 0 gives up"),
                _ => worker_ran.store(true, Ordering::Relaxed),
            })
        }));
        assert!(caught.is_err() && worker_ran.load(Ordering::Relaxed));
        // And the pool lives on.
        for _ in 0..100 {
            dispatch_threads(3);
        }
    }

    /// Every piece runs exactly once and lands in its own slot, at every
    /// width from one task to eight; a piece that panics stops no other
    /// piece, and its panic reaches the caller after all have run.
    #[test]
    fn each_runs_every_piece_once_and_a_panicking_piece_stops_no_other() {
        for tasks in 1..=8 {
            let installed = rayon::ThreadPoolBuilder::new()
                .num_threads(tasks)
                .build()
                .expect("pool");
            installed.install(|| {
                for pieces in [1usize, tasks, 3 * tasks + 1, 64] {
                    let mut slots = vec![0usize; pieces];
                    let runs = AtomicUsize::new(0);
                    each(slots.iter_mut(), |i, slot| {
                        *slot += i + 1;
                        runs.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(runs.into_inner(), pieces, "{tasks} tasks");
                    assert!(slots.iter().enumerate().all(|(i, &s)| s == i + 1));

                    let ran: Vec<AtomicUsize> = (0..pieces).map(|_| AtomicUsize::new(0)).collect();
                    let bad = pieces / 2;
                    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                        each(ran.iter(), |i, count| {
                            count.fetch_add(1, Ordering::Relaxed);
                            if i == bad {
                                panic::panic_any("one piece gives up");
                            }
                        })
                    }));
                    let payload = caught.expect_err("the panic reaches the caller");
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&"one piece gives up"));
                    assert!(
                        ran.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                        "{tasks} tasks, {pieces} pieces"
                    );
                }
            });
        }
    }

    #[test]
    fn a_dispatch_nested_in_a_task_completes() {
        let leaves = AtomicUsize::new(0);
        run(3, |_| {
            run(2, |_| {
                leaves.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(leaves.load(Ordering::Relaxed), 6);
    }

    /// Eight callers at once, each taking its own workers for every
    /// dispatch: no result lands in another's slots, and all of them finish
    /// (the deadline turns a lost wake-up into a failure, not a hang).
    #[test]
    fn concurrent_dispatchers_see_only_their_own_results_and_all_finish() {
        let (done, all_done) = mpsc::channel();
        for caller in 0..8usize {
            let done = done.clone();
            thread::spawn(move || {
                for round in 0..2000usize {
                    let tasks = 2 + (caller + round) % 4;
                    let token = caller * 1_000_000 + round * 10;
                    let slots: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                    run(tasks, |i| {
                        slots[i].fetch_add(token + i, Ordering::Relaxed);
                    });
                    for (i, slot) in slots.iter().enumerate() {
                        assert_eq!(slot.load(Ordering::Relaxed), token + i);
                    }
                }
                done.send(caller).expect("the test is still waiting");
            });
        }
        drop(done);
        let mut finished = HashSet::new();
        while finished.len() < 8 {
            match all_done.recv_timeout(Duration::from_secs(120)) {
                Ok(caller) => finished.insert(caller),
                Err(e) => panic!("only callers {finished:?} finished: {e}"),
            };
        }
    }
}

//! Offline stand-in for `rayon`, implementing the subset this workspace
//! uses: a width. [`current_num_threads`] is what `sp_machine::pool`
//! deals its tasks over, and [`ThreadPool::install`] sets it; the threads
//! themselves are the pool's own. Code written against this crate is
//! API-compatible with real rayon, and swapping the dependency changes
//! nothing the workspace computes.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`] (real
    /// rayon's `current_num_threads` reports the installed pool's width;
    /// this reproduces that inside the stub's inline `install`).
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Width of the current "pool": an [`ThreadPool::install`] override if
/// one is active, else `RAYON_NUM_THREADS` (the real crate's global-pool
/// env knob), else the host's available parallelism.
pub fn current_num_threads() -> usize {
    let installed = POOL_THREADS.with(|t| t.get());
    if installed > 0 {
        return installed;
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Stand-in for `rayon::ThreadPoolBuilder`: `build()` always succeeds;
/// the resulting pool's `install` runs the closure on the calling thread
/// with [`current_num_threads`] reporting the pool's configured width
/// (so thread-count-sensitive batching decisions see the pool size, as
/// they would under real rayon).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

pub struct ThreadPool {
    threads: usize,
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.threads,
        })
    }
}

impl ThreadPool {
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        if self.threads == 0 {
            return op();
        }
        let prev = POOL_THREADS.with(|t| t.replace(self.threads));
        // Restore on unwind too: a panicking closure must not leak the
        // override into unrelated code on this thread.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|t| t.set(self.0));
            }
        }
        let _restore = Restore(prev);
        op()
    }
}

//! Offline stand-in for `rayon`, implementing the subset this workspace
//! uses. The parallel-iterator entry points return plain std iterators,
//! so `.enumerate().map().collect()` chains compile unchanged and run
//! sequentially; [`scope`]/[`Scope::spawn`] are *real* fork-join
//! parallelism on scoped OS threads (`std::thread::scope`), which is what
//! the simulated machine's batched supersteps run on. Code written
//! against this crate is API-compatible with real rayon — swapping the
//! dependency changes host scheduling only, never results.

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

/// Fork-join scope handle (see [`scope`]).
pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn `body` onto the scope. Unlike real rayon there is no
    /// work-stealing pool — each spawn is a scoped OS thread — so spawns
    /// should be coarse (the machine batches ranks per spawn for exactly
    /// this reason).
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.0;
        inner.spawn(move || body(&Scope(inner)));
    }
}

/// Structured fork-join: `f` may spawn tasks on the scope; all of them
/// complete before `scope` returns (`std::thread::scope` semantics, which
/// are also real rayon's).
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R + Send,
    R: Send,
{
    std::thread::scope(|s| f(&Scope(s)))
}

pub mod iter {
    pub trait IntoParallelIterator {
        type Item;
        type Iter: Iterator<Item = Self::Item>;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<I: IntoIterator> IntoParallelIterator for I {
        type Item = I::Item;
        type Iter = I::IntoIter;
        fn into_par_iter(self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// `vec.par_extend(par_iter)`: appends in order, like the real
    /// crate's `ParallelExtend for Vec` over an indexed iterator.
    pub trait ParallelExtend<T> {
        fn par_extend<I: IntoParallelIterator<Item = T>>(&mut self, par_iter: I);
    }

    impl<T> ParallelExtend<T> for Vec<T> {
        fn par_extend<I: IntoParallelIterator<Item = T>>(&mut self, par_iter: I) {
            self.extend(par_iter.into_par_iter());
        }
    }

    pub trait IntoParallelRefMutIterator<'a> {
        type Item: 'a;
        type Iter: Iterator<Item = Self::Item>;
        fn par_iter_mut(&'a mut self) -> Self::Iter;
    }

    impl<'a, T: 'a> IntoParallelRefMutIterator<'a> for [T] {
        type Item = &'a mut T;
        type Iter = std::slice::IterMut<'a, T>;
        fn par_iter_mut(&'a mut self) -> Self::Iter {
            self.iter_mut()
        }
    }

    impl<'a, T: 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
        type Item = &'a mut T;
        type Iter = std::slice::IterMut<'a, T>;
        fn par_iter_mut(&'a mut self) -> Self::Iter {
            self.iter_mut()
        }
    }

    pub trait IntoParallelRefIterator<'a> {
        type Item: 'a;
        type Iter: Iterator<Item = Self::Item>;
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, T: 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;
        type Iter = std::slice::Iter<'a, T>;
        fn par_iter(&'a self) -> Self::Iter {
            self.iter()
        }
    }

    impl<'a, T: 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;
        type Iter = std::slice::Iter<'a, T>;
        fn par_iter(&'a self) -> Self::Iter {
            self.iter()
        }
    }
}

pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelExtend,
    };
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

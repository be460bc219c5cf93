//! Acceptance: the parallel builder-free generators must produce
//! byte-identical graphs no matter the host pool's width (set here through
//! `rayon::ThreadPool::install`, which is all `sp_machine::pool` reads of
//! rayon). Each family is generated at widths 1, 4 and 8 and compared
//! array-by-array (offsets, adjacency, edge weights, vertex weights). And
//! the width bounds the threads: a set-up pass runs on the caller and at
//! most `width − 1` of the pool's workers, never on threads of its own.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_graph::gen::{delaunay_graph, grid_2d, kkt_graph, trace_mesh};
use sp_graph::{csr_unit_from_rows, Graph};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

fn assert_bytes_eq(a: &Graph, b: &Graph, what: &str) {
    assert_eq!(a.xadj(), b.xadj(), "{what}: xadj drifted");
    assert_eq!(a.adjncy(), b.adjncy(), "{what}: adjncy drifted");
    assert_eq!(a.ewgts(), b.ewgts(), "{what}: ewgt drifted");
    assert_eq!(a.vwgts(), b.vwgts(), "{what}: vwgt drifted");
}

fn across_pools(build: impl Fn() -> Graph, what: &str) {
    let mut outputs = Vec::new();
    for threads in [1usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        outputs.push(pool.install(&build));
    }
    for g in &outputs[1..] {
        assert_bytes_eq(&outputs[0], g, what);
    }
}

#[test]
fn grid_bytes_are_thread_invariant() {
    across_pools(|| grid_2d(37, 53), "grid_2d");
}

#[test]
fn delaunay_bytes_are_thread_invariant() {
    across_pools(
        || delaunay_graph(3000, &mut StdRng::seed_from_u64(11)).0,
        "delaunay_graph",
    );
}

#[test]
fn trace_mesh_bytes_are_thread_invariant() {
    across_pools(
        || trace_mesh(2000, &mut StdRng::seed_from_u64(5)).0,
        "trace_mesh",
    );
}

#[test]
fn kkt_bytes_are_thread_invariant() {
    across_pools(
        || kkt_graph(1200, 600, 5, &mut StdRng::seed_from_u64(9)),
        "kkt_graph",
    );
}

/// A path with chords, assembled from rows: the same bytes at every width,
/// and each pass over the rows (the count pass makes the first `n` calls,
/// the fill pass the next `n`) on at most `width` threads, the caller's
/// among them. Which idle worker a pass gets is not fixed: the other tests
/// of this binary dispatch on the same pool.
#[test]
fn unit_rows_are_thread_invariant_and_run_on_at_most_width_threads() {
    let n = 5000u32;
    let mut outputs = Vec::new();
    for width in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap();
        let calls = AtomicUsize::new(0);
        let seen: [Mutex<HashSet<_>>; 2] = Default::default();
        let (g, caller) = pool.install(|| {
            let g = csr_unit_from_rows(n as usize, |v, row| {
                let pass = calls.fetch_add(1, Ordering::Relaxed) / n as usize;
                seen[pass].lock().unwrap().insert(thread::current().id());
                row.extend((v > 0).then(|| v - 1));
                row.extend((v + 1 < n).then_some(v + 1));
                row.push(v * 37 % n);
                row.retain(|&u| u != v);
                row.sort_unstable();
                row.dedup();
            });
            (g, thread::current().id())
        });
        for (pass, seen) in seen.into_iter().enumerate() {
            let seen = seen.into_inner().unwrap();
            assert!(seen.len() <= width, "width {width}, pass {pass}: {seen:?}");
            assert!(
                seen.contains(&caller),
                "width {width}, pass {pass}: not on the caller"
            );
        }
        outputs.push(g);
    }
    for g in &outputs[1..] {
        assert_bytes_eq(&outputs[0], g, "csr_unit_from_rows");
    }
}

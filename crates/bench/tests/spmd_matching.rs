//! The SPMD matcher at host widths 1, 2 and 4. Once a round routes more
//! proposals than its grant step's work floor, routing and granting run
//! per rank on the host pool; neither the matching nor any simulated clock
//! may depend on how wide that pool is.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_coarsen::{parallel_hem_in, validate_matching, CoarsenArena};
use sp_graph::distr::Distribution;
use sp_graph::gen::kkt_graph;
use sp_machine::{CostModel, Machine};

#[test]
fn hub_heavy_matching_is_bit_identical_at_every_width() {
    // 40,000 vertices around hubs: the first round routes about half of
    // them as proposals, well above the grant step's floor.
    let g = kkt_graph(27_000, 13_000, 6, &mut StdRng::seed_from_u64(5));
    let dist = Distribution::block(g.n(), 16);
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut m = Machine::new(16, CostModel::qdr_infiniband());
            let matching = parallel_hem_in(&g, &dist, &mut m, 8, 0x5EED, &mut CoarsenArena::new());
            (matching, m.elapsed())
        })
    };
    let (one, t1) = run(1);
    validate_matching(&g, &one).unwrap();
    assert!(one.pairs() * 4 > g.n(), "matched {} pairs", one.pairs());
    for threads in [2, 4] {
        let (m, t) = run(threads);
        assert!(m.mate == one.mate, "matching differs on {threads} threads");
        assert_eq!(
            t.to_bits(),
            t1.to_bits(),
            "clock differs on {threads} threads"
        );
    }
}

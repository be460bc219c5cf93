//! Golden SPMD matchings, recorded at the commit before the matcher's
//! proposals stopped travelling through the machine as payload and were
//! routed into per-destination inboxes on the host. Mate fingerprint, the
//! bits of simulated elapsed and communication time, and the recorder's
//! count of sends and their words, on a KKT graph with hub rows at 1, 9
//! and 64 ranks: routing must move neither a mate nor a charge.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_coarsen::{parallel_hem_in, validate_matching, CoarsenArena};
use sp_graph::distr::Distribution;
use sp_graph::gen::kkt_graph;
use sp_machine::trace::Event;
use sp_machine::{CostModel, Machine, TraceRecorder};

/// `(mate FNV-1a, elapsed bits, comm bits, sends, words sent)`.
type Row = (u64, u64, u64, usize, usize);

fn run(p: usize) -> Row {
    let g = kkt_graph(6000, 3000, 6, &mut StdRng::seed_from_u64(17));
    let dist = Distribution::block(g.n(), p);
    let mut m = Machine::new(p, CostModel::qdr_infiniband());
    m.set_recorder(Box::new(TraceRecorder::new(p)));
    let matching = parallel_hem_in(&g, &dist, &mut m, 8, 0x5EED, &mut CoarsenArena::new());
    validate_matching(&g, &matching).unwrap();
    let fp = matching
        .mate
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
            (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
    let (elapsed, comm) = (m.elapsed().to_bits(), m.comm_time().to_bits());
    let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
    let (sends, words) = rec.events().iter().fold((0, 0), |(n, w), e| match e {
        Event::Send { words, .. } => (n + 1, w + words),
        _ => (n, w),
    });
    (fp, elapsed, comm, sends, words)
}

#[test]
fn hub_graph_matching_matches_the_goldens_on_1_9_and_64_ranks() {
    for (p, want) in [1usize, 9, 64].into_iter().zip(GOLDEN) {
        let got = run(p);
        assert_eq!(got, want, "p={p}: got {got:#x?}");
    }
}

#[rustfmt::skip]
const GOLDEN: [Row; 3] = [
    (0x68c437d49eab2369, 0x3f3b0a7274bc9574, 0x0000000000000000, 0, 0), // p=1
    (0xa0eb086303bd95bb, 0x3f4ec4fc9ecc8928, 0x3f4d338cca534aa0, 1967, 5461), // p=9
    (0xa0eb086303bd95bb, 0x3f383f5c3661bbe6, 0x3f37bdac1d7fc2b6, 4820, 6824), // p=64
];

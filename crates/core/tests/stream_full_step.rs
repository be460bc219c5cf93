//! `sp-stream`'s full step claims to be "the same rank-count-invariant
//! routine the batch pipeline uses". Hold it to that: the bootstrap of an
//! [`IncrementalRepartitioner`] on a mesh with coordinates and
//! [`sp_pg7nl_bisect`] on a machine of `StreamConfig::ranks` ranks, with
//! the same geometric, strip, FM and seed settings, return the same sides,
//! cut and simulated time, bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scalapart::{sp_pg7nl_bisect, SpConfig};
use sp_graph::gen::delaunay_graph;
use sp_machine::{CostModel, Machine};
use sp_stream::{DeltaOverlay, IncrementalRepartitioner, StepMode, StreamConfig};
use std::sync::Arc;

#[test]
fn bootstrap_is_sp_pg7nl_on_the_same_machine() {
    let (g, coords) = delaunay_graph(3000, &mut StdRng::seed_from_u64(21));
    for ranks in [1usize, 9, 64] {
        let stream_cfg = StreamConfig {
            ranks,
            ..StreamConfig::default()
        };
        let overlay = DeltaOverlay::new(Arc::new(g.clone()), Some(coords.clone())).unwrap();
        let (rp, report) = IncrementalRepartitioner::new(overlay, stream_cfg);
        assert_eq!(report.mode, StepMode::Full);
        assert!(report.fm_passes > 0, "the strip was not refined");

        let batch_cfg = SpConfig {
            geo: stream_cfg.geo,
            strip_factor: stream_cfg.strip_factor,
            fm: stream_cfg.fm,
            seed: stream_cfg.seed,
            ..SpConfig::default()
        };
        let mut machine = Machine::new(ranks, CostModel::qdr_infiniband());
        let batch = sp_pg7nl_bisect(&g, &coords, &mut machine, &batch_cfg);

        assert_eq!(rp.partition().sides(), batch.bisection.sides(), "p={ranks}");
        assert_eq!(report.cut_after, batch.cut as f64, "p={ranks}");
        assert_eq!(
            report.sim_time.to_bits(),
            batch.total_time.to_bits(),
            "p={ranks}: stream {} batch {}",
            report.sim_time,
            batch.total_time
        );
    }
}

//! The machine cost model.

/// LogP-style cost parameters. Times are in seconds; a "word" is 8 bytes;
/// an "op" is one abstract unit of graph work (roughly: touching one edge).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Message startup latency (per message).
    pub t_s: f64,
    /// Per-word transfer time.
    pub t_w: f64,
    /// Per-operation compute time.
    pub t_op: f64,
}

impl CostModel {
    /// Calibrated to the paper's testbed class: QDR InfiniBand
    /// (~1.3 µs MPI latency, ~3.2 GB/s effective per link ⇒ ~2.5 ns per
    /// 8-byte word) and a 2.66 GHz Nehalem core sustaining roughly
    /// 10⁸–10⁹ irregular graph ops/s; we charge 5 ns per edge-op, which
    /// reproduces the paper's compute/communication balance.
    pub fn qdr_infiniband() -> Self {
        CostModel {
            t_s: 1.3e-6,
            t_w: 2.5e-9,
            t_op: 5.0e-9,
        }
    }

    /// Time to send one message of `words` 8-byte words.
    #[inline]
    pub fn msg(&self, words: usize) -> f64 {
        self.t_s + self.t_w * words as f64
    }

    /// Time for a recursive-doubling collective over `p` ranks moving
    /// `words` per stage.
    #[inline]
    pub fn collective(&self, p: usize, words: usize) -> f64 {
        let stages = (p.max(1) as f64).log2().ceil().max(0.0);
        stages * self.msg(words)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::qdr_infiniband()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_is_affine() {
        let c = CostModel {
            t_s: 1.0,
            t_w: 0.5,
            t_op: 0.0,
        };
        assert_eq!(c.msg(0), 1.0);
        assert_eq!(c.msg(4), 3.0);
    }

    #[test]
    fn collective_scales_logarithmically() {
        let c = CostModel {
            t_s: 1.0,
            t_w: 0.0,
            t_op: 0.0,
        };
        assert_eq!(c.collective(1, 0), 0.0);
        assert_eq!(c.collective(2, 0), 1.0);
        assert_eq!(c.collective(1024, 0), 10.0);
        assert_eq!(c.collective(1000, 0), 10.0); // ceil(log2 1000) = 10
    }
}

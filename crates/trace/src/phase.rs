//! Typed pipeline phases and collective kinds.

/// A pipeline phase. The machine attributes every charge to the current
/// phase; keying the breakdown by this enum (instead of by free-form
/// strings matched with `starts_with`) guarantees that sub-steps of a
/// phase — whichever hierarchy level they cover — aggregate into the same
/// bucket. [`Phase::name`] is the one place a phase becomes a string: in
/// metrics JSON, trace lanes, profiler records and Prometheus labels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Before the first explicit phase switch.
    #[default]
    Idle,
    /// Parallel heavy-edge-matching coarsening.
    Coarsen,
    /// Multilevel fixed-lattice embedding (all sub-steps: coarsest layout,
    /// per-level smoothing, projection migration).
    Embed,
    /// Parallel geometric partitioning + strip refinement.
    Partition,
    /// Initial partition of the coarsest graph (multilevel baselines).
    Initial,
    /// Uncoarsening refinement (multilevel baselines).
    Refine,
    /// After the pipeline finished (teardown collectives, final metrics).
    Done,
}

impl Phase {
    /// Every phase, in canonical reporting order.
    pub const ALL: [Phase; 7] = [
        Phase::Idle,
        Phase::Coarsen,
        Phase::Embed,
        Phase::Partition,
        Phase::Initial,
        Phase::Refine,
        Phase::Done,
    ];

    /// Stable lower-case name used in metrics JSON and trace lanes.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Coarsen => "coarsen",
            Phase::Embed => "embed",
            Phase::Partition => "partition",
            Phase::Initial => "initial",
            Phase::Refine => "refine",
            Phase::Done => "done",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which collective primitive a collective event came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    Barrier,
    AllreduceSum,
    AllreduceMinIndex,
    Allgather,
    GroupAllgather,
    GroupAllreduceSum,
}

impl CollectiveKind {
    /// Stable name used in metrics JSON and trace event names.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::AllreduceSum => "allreduce_sum",
            CollectiveKind::AllreduceMinIndex => "allreduce_min_index",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::GroupAllgather => "group_allgather",
            CollectiveKind::GroupAllreduceSum => "group_allreduce_sum",
        }
    }
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(Phase::Coarsen.to_string(), "coarsen");
        assert_eq!(
            CollectiveKind::GroupAllgather.to_string(),
            "group_allgather"
        );
    }

    #[test]
    fn default_phase_is_idle() {
        assert_eq!(Phase::default(), Phase::Idle);
    }
}

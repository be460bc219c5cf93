//! Partition refinement: Fiduccia–Mattheyses with an optional movable-set
//! restriction, the paper's coordinate **strip** selection around the
//! separating circle (§3, Fig 2), and the hop-based **band** selection
//! that Pt-Scotch uses (implemented for the baseline comparison).

pub mod band;
pub mod fm;
pub mod naive;
pub mod strip;

pub use band::band_by_hops;
pub use fm::{fm_refine, FmConfig, FmStats};
pub use naive::naive_fm_refine;
pub use strip::{strip_around_separator, strip_refine, StripRefinement, STRIP_FACTOR, STRIP_FM};

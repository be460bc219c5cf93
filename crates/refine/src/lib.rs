//! Partition refinement: Fiduccia–Mattheyses with an optional movable-set
//! restriction, the paper's coordinate **strip** selection around the
//! separating circle (§3, Fig 2), the hop-based **band** selection that
//! Pt-Scotch uses (implemented for the baseline comparison), and a
//! Kernighan–Lin reference used in tests.

pub mod band;
pub mod fm;
pub mod kl;
pub mod naive;
pub mod strip;

pub use band::band_by_hops;
pub use fm::{fm_refine, fm_refine_on, FmConfig, FmStats};
pub use kl::kl_refine;
pub use naive::naive_fm_refine;
pub use strip::{strip_around_separator, strip_refine, StripRefinement};

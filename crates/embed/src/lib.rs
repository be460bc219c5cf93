//! Force-directed graph embedding: the sequential multilevel Barnes–Hut
//! embedder (Hu 2006, used by the paper to give coordinates to RCB/G30
//! inputs) and ScalaPart's **fixed-lattice parallel embedding** — the
//! paper's main contribution — together with the multilevel projection and
//! smoothing driver that runs it across the coarsening hierarchy on the
//! simulated machine.

pub mod force;
pub mod lattice;
pub mod metrics;
pub mod multilevel;
pub mod seq;

pub use force::ForceParams;
pub use lattice::{
    lattice_smooth, lattice_smooth_with, LatticeConfig, LatticeStats, SmoothScratch,
};
pub use metrics::check_embedding;
pub use multilevel::{multilevel_lattice_embed_with, Smoother};
pub use seq::{embed_multilevel_seq, force_layout, random_init};

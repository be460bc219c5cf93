//! Multilevel coarsening via heavy-edge matching (HEM).
//!
//! ScalaPart "coarsens graphs in the same manner as in ParMetis": repeated
//! heavy-edge matching and contraction, halving the vertex count per step.
//! The paper's one adaptation — retaining only every *other* graph so
//! successive retained levels shrink by ≈ 4× (and the active rank count
//! shrinks by 4× with them) — lives in [`hierarchy`].
//!
//! One matcher of each kind — sequential ([`heavy_edge_matching_in`]) and
//! SPMD ([`parallel_hem_in`]: proposal/grant rounds with communication
//! charged to a [`sp_machine::Machine`]), of the same quality class — and
//! one contraction ([`contract_with`]), which gathers the coarse CSR
//! straight into the arrays the coarse graph owns. All three draw their
//! scratch from a [`CoarsenArena`]; ScalaPart and the multilevel
//! comparators coarsen with these same three and charge a contraction to
//! the machine through the same [`charge_contraction`].

pub mod arena;
pub mod contract;
pub mod hierarchy;
pub mod matching;
pub mod parallel;

pub use arena::{contract_with, heavy_edge_matching_in, CoarsenArena};
pub use contract::{validate_contraction, Contraction};
pub use hierarchy::{CoarsenConfig, Hierarchy, Level};
pub use matching::{validate_matching, Matching};
pub use parallel::{charge_contraction, parallel_hem_in};

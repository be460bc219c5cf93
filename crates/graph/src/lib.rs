//! Graph substrate for the ScalaPart reproduction.
//!
//! Provides the CSR graph representation shared by every stage (coarsening,
//! embedding, partitioning, refinement), bisection bookkeeping and quality
//! metrics, BFS/connectivity utilities, Chaco/Metis-format I/O, the synthetic
//! generators standing in for the paper's UFL test suite, and block/geometric
//! distribution of vertices over simulated ranks.

pub mod access;
pub mod build;
pub mod compact;
pub mod csr;
pub mod distr;
pub mod gen;
pub mod io;
pub mod partition;
pub mod spec;
pub mod suite;
pub mod traversal;

pub use access::{graph_fingerprint, GraphAccess};
pub use build::{csr_from_pairs, csr_from_rows, csr_unit_from_rows};
pub use compact::CompactGraph;
pub use csr::{Graph, GraphBuilder};
pub use partition::Bisection;
pub use spec::parse_graph_spec;
pub use suite::{SuiteGraph, TestGraph, TestScale};

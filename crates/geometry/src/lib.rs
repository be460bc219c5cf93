//! Geometric primitives for the ScalaPart reproduction.
//!
//! This crate provides everything the embedding and geometric-partitioning
//! stages need: fixed-dimension points, bounding boxes, a Barnes–Hut
//! quadtree, Hilbert-curve ordering, stereographic lifting onto the sphere,
//! approximate centerpoints via iterated Radon points, conformal maps on the
//! sphere, and great-circle sampling — i.e. the computational geometry layer
//! of Gilbert–Miller–Teng mesh partitioning and of force-directed embedding.

pub mod bbox;
pub mod centerpoint;
pub mod conformal;
pub mod greatcircle;
pub mod hilbert;
mod linalg;
pub mod point;
pub mod quadtree;
pub mod sphere;

pub use bbox::Aabb2;
pub use centerpoint::{centerpoint, CenterpointConfig};
pub use conformal::ConformalMap;
pub use greatcircle::{random_unit_vector, GreatCircle};
pub use hilbert::{hilbert_d2xy, hilbert_key_unit, hilbert_xy2d};
pub use point::{Point2, Point3};
pub use quadtree::QuadTree;
pub use sphere::{lift_normalized, normalize_for_lift, stereo_lift, stereo_project};

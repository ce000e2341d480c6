//! 2D geometry substrate for the `beaconplace` workspace.
//!
//! This crate provides the spatial primitives every other crate in the
//! workspace builds on:
//!
//! * [`Point`] and [`Vec2`] — positions and displacements in the plane,
//! * [`Rect`] and [`Terrain`] — axis-aligned regions and the square
//!   deployment terrain used throughout the paper,
//! * [`Lattice`] — the `step`-spaced measurement lattice a survey agent
//!   walks (the paper's `(i·step, j·step)` grid corners),
//! * [`Disk`] — radio coverage disks and fast lattice/disk intersection,
//! * [`circle`] — circle–circle intersection and lens areas (used by the
//!   locus-based localizer),
//! * [`polygon`] — polygon area/centroid for locus regions,
//! * [`hash`] — deterministic, splittable hashing used to realize the
//!   paper's *static* propagation-noise field without storing it, and the
//!   CRC-32 that guards the checkpoint and serve state files.
//!
//! Everything here is `f64`-based, allocation-free where possible, and
//! deterministic: the same inputs always produce bit-identical outputs, a
//! property the Monte-Carlo experiment engine relies on.
//!
//! # Example
//!
//! ```
//! use abp_geom::{Point, Terrain, Lattice};
//!
//! // The paper's terrain: a 100 m x 100 m square surveyed every 1 m.
//! let terrain = Terrain::square(100.0);
//! let lattice = Lattice::new(terrain, 1.0);
//! assert_eq!(lattice.len(), 101 * 101); // PT = (Side/step + 1)^2
//!
//! let p = Point::new(3.0, 4.0);
//! assert_eq!(p.distance(Point::ORIGIN), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circle;
pub mod disk;
pub mod hash;
pub mod lattice;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod segment;

pub use circle::{circle_circle_intersections, lens_area, Circle};
pub use disk::Disk;
pub use hash::{crc32, splitmix64, DeterministicField, HashState};
pub use lattice::{DiskRow, Lattice, LatticeIndex};
pub use point::{centroid, Point, Vec2};
pub use polygon::Polygon;
pub use rect::{Rect, Terrain};
pub use segment::{segments_intersect, Segment};

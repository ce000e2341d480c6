//! Beacon fields for the `beaconplace` workspace.
//!
//! A *beacon field* is the set of reference nodes (beacons, each at a known
//! position) that the localization system relies on. This crate provides:
//!
//! * [`Beacon`] and [`BeaconId`] — a beacon and its stable identity (the
//!   identity keys per-beacon propagation noise, see `abp-radio`),
//! * [`BeaconField`] — the mutable collection the placement algorithms
//!   extend one beacon at a time,
//! * [`generate`] — field generators: uniform-random (the paper's
//!   evaluation workload), regular grids (the §2.2 error-bound analysis),
//!   perturbed grids (the air-drop scenario of §1), and clustered fields.
//!
//! # Example
//!
//! ```
//! use abp_field::BeaconField;
//! use abp_geom::{Point, Terrain};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let terrain = Terrain::square(100.0);
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut field = BeaconField::random_uniform(20, terrain, &mut rng);
//! assert_eq!(field.len(), 20);
//! assert!((field.density() - 0.002).abs() < 1e-12); // paper's lowest density
//!
//! let id = field.add_beacon(Point::new(50.0, 50.0));
//! assert_eq!(field.len(), 21);
//! assert_eq!(field.get(id).unwrap().pos(), Point::new(50.0, 50.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
pub mod field;
pub mod generate;

pub use beacon::{Beacon, BeaconId};
pub use field::BeaconField;

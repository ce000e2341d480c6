//! Radio propagation models for the `beaconplace` workspace.
//!
//! Localization quality in the paper is governed entirely by *which beacons
//! a client can hear*, so the propagation model is the heart of the
//! simulation. This crate provides:
//!
//! * [`Propagation`] — the connectivity predicate every model implements,
//! * [`IdealDisk`] — the paper's idealized radio model (§2.1): perfect
//!   spherical propagation, identical range `R` for all radios,
//! * [`PerBeaconNoise`] — the paper's noise model (§4.2.1): beacon `B`
//!   reaches point `P` iff `dist(P, B) <= R(1 + u·nf(B))` with a per-beacon
//!   noise factor `nf(B) ~ U[0, Noise]` and `u ~ U[-1, 1]` per
//!   (beacon, point), *static in time*,
//! * [`LogDistance`] — a log-distance path-loss model with deterministic
//!   log-normal shadowing (the "more sophisticated propagation model" of
//!   the paper's future work, §6),
//! * [`Obstructed`] — line-segment obstacles that attenuate any base model
//!   (terrain-commonality effects, §1 and §6),
//! * [`TimeVarying`] — epoch-indexed noise on top of any model (the
//!   time-varying propagation loss of §6),
//! * [`link`] — the packet-level connectivity procedure of §2.2 (beacons
//!   transmit every `T`, clients listen for `t >> T` and threshold the
//!   received fraction against `CMthresh`).
//!
//! All models are *deterministic*: randomness is derived from seeds via
//! hash fields ([`abp_geom::DeterministicField`]), so connectivity never
//! flickers between the before- and after-placement surveys — exactly the
//! paper's "location based and static with respect to time" property.
//!
//! # Example
//!
//! ```
//! use abp_geom::Point;
//! use abp_radio::{IdealDisk, PerBeaconNoise, Propagation, TxId};
//!
//! let ideal = IdealDisk::new(15.0);
//! let b = Point::new(0.0, 0.0);
//! assert!(ideal.connected(TxId(0), b, Point::new(15.0, 0.0)));
//! assert!(!ideal.connected(TxId(0), b, Point::new(15.1, 0.0)));
//!
//! // Noise 0.5, seeded: reachability beyond R(1 + nf) is impossible.
//! let noisy = PerBeaconNoise::new(15.0, 0.5, 42);
//! assert!(!noisy.connected(TxId(0), b, Point::new(23.0, 0.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ideal;
pub mod link;
pub mod metrics;
pub mod noise;
pub mod obstacles;
pub mod shadowing;
pub mod terrain;
pub mod timevarying;

pub use ideal::IdealDisk;
pub use link::{LinkObservation, MessageLink};
pub use noise::{NoiseStyle, PerBeaconNoise};
pub use obstacles::{Obstructed, Wall};
pub use shadowing::LogDistance;
pub use terrain::{HeightField, TerrainShadowed};
pub use timevarying::TimeVarying;

use abp_geom::Point;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a transmitter (beacon) as seen by propagation models.
///
/// Propagation models key their per-beacon randomness (noise factors,
/// shadowing) on this id, so the same id always experiences the same
/// propagation conditions — the paper's static noise field. The id is
/// assigned by the beacon field (`abp-field`) and is stable for the life of
/// a beacon.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct TxId(pub u64);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl From<u64> for TxId {
    fn from(v: u64) -> Self {
        TxId(v)
    }
}

/// A radio propagation model: decides whether a transmitter reaches a
/// receiver position.
///
/// Implementations must be:
///
/// * **deterministic** — repeated queries with the same arguments return
///   the same answer (the paper's noise is static in time); and
/// * **range-bounded** — [`Propagation::max_range`] must upper-bound the
///   distance at which [`Propagation::connected`] can return `true`, which
///   the beacon-major survey uses to prune its inner loop.
///
/// The trait is object-safe; the experiment engine stores models as
/// `&dyn Propagation`.
pub trait Propagation: Send + Sync {
    /// Returns `true` if a transmission from `tx` located at `tx_pos`
    /// is received at `rx`.
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool;

    /// An upper bound on the distance at which `tx` (at `tx_pos`) can be
    /// received. `connected` must be `false` for every `rx` farther away.
    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64;

    /// The nominal transmission range `R` of the paper — the design range
    /// ignoring noise. Placement algorithms size their grids from this.
    fn nominal_range(&self) -> f64;

    /// A radius inside which `tx` (at `tx_pos`) is *guaranteed* to be
    /// received: `connected(tx, tx_pos, rx)` is `true` for every `rx`
    /// with `tx_pos.distance_squared(rx) <= core * core` — that squared
    /// form verbatim, so the boundary bit-semantics are pinned down. The
    /// core never exceeds [`Propagation::max_range`].
    ///
    /// Surveys use it to skip the `connected` call for every point inside
    /// the core (same heard sets, bit-identical accumulation); only the
    /// annulus between the core and `max_range` pays for the model.
    /// Defaults to `None` (no guaranteed core), which is always sound. A
    /// wrapper whose faults can drop a link inside its base model's core
    /// — death, bursts, obstacles, shadowing, time variation — keeps
    /// `None` for every transmitter they can cut at that moment. It may
    /// forward the base model's core for a transmitter none of its faults
    /// can cut, as `abp-fault`'s `FaultyRadio` does for a live beacon
    /// under no lossy burst.
    fn core_range(&self, _tx: TxId, _tx_pos: Point) -> Option<f64> {
        None
    }
}

// Allow `&M` and boxed models wherever a model is expected.
impl<M: Propagation + ?Sized> Propagation for &M {
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool {
        (**self).connected(tx, tx_pos, rx)
    }
    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64 {
        (**self).max_range(tx, tx_pos)
    }
    fn nominal_range(&self) -> f64 {
        (**self).nominal_range()
    }
    fn core_range(&self, tx: TxId, tx_pos: Point) -> Option<f64> {
        (**self).core_range(tx, tx_pos)
    }
}

impl<M: Propagation + ?Sized> Propagation for Box<M> {
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool {
        (**self).connected(tx, tx_pos, rx)
    }
    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64 {
        (**self).max_range(tx, tx_pos)
    }
    fn nominal_range(&self) -> f64 {
        (**self).nominal_range()
    }
    fn core_range(&self, tx: TxId, tx_pos: Point) -> Option<f64> {
        (**self).core_range(tx, tx_pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txid_display_and_from() {
        let id: TxId = 7u64.into();
        assert_eq!(id.to_string(), "tx7");
        assert_eq!(id, TxId(7));
    }

    #[test]
    fn trait_is_object_safe() {
        let model: Box<dyn Propagation> = Box::new(IdealDisk::new(10.0));
        assert!(model.connected(TxId(0), Point::ORIGIN, Point::new(5.0, 0.0)));
        assert_eq!(model.nominal_range(), 10.0);
        // And references delegate.
        let by_ref: &dyn Propagation = &*model;
        assert_eq!(by_ref.max_range(TxId(0), Point::ORIGIN), 10.0);
    }

    #[test]
    fn references_and_boxes_forward_core_range() {
        // Generic over the model, so the `&M` and `Box<M>` impls answer
        // (method-call auto-deref would reach the inner model directly).
        fn core<M: Propagation>(model: M) -> Option<f64> {
            model.core_range(TxId(3), Point::ORIGIN)
        }
        let ideal = IdealDisk::new(10.0);
        assert_eq!(core::<&IdealDisk>(&ideal), Some(10.0));
        assert_eq!(core(Box::new(ideal)), Some(10.0));
        let boxed: Box<dyn Propagation> = Box::new(ideal);
        assert_eq!(core::<&Box<dyn Propagation>>(&boxed), Some(10.0));
        let noisy = PerBeaconNoise::new(10.0, 0.3, 1);
        let want = noisy.core_range(TxId(3), Point::ORIGIN);
        assert!(want.is_some_and(|c| c < 10.0));
        assert_eq!(core::<&PerBeaconNoise>(&noisy), want);
        let boxed: Box<dyn Propagation> = Box::new(noisy);
        assert_eq!(core::<&Box<dyn Propagation>>(&boxed), want);
    }
}

//! Radio propagation models for the `beaconplace` workspace.
//!
//! Localization quality in the paper is governed entirely by *which beacons
//! a client can hear*, so the propagation model is the heart of the
//! simulation. This crate provides:
//!
//! * [`Propagation`] — the connectivity predicate every model implements,
//!   with [`Propagation::connected_runs`] deciding whole lattice [`Run`]s
//!   of receivers in one call (surveys send it every receiver outside a
//!   beacon's guaranteed core),
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
/// Two provided methods let a survey do less work for the same answers:
/// [`Propagation::core_range`] names a radius heard without asking, and
/// [`Propagation::connected_runs`] decides many receivers per call. An
/// override of either must agree with `connected` bit for bit.
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

    /// Decides a batch of lattice [`Run`]s of receivers for `tx` at once:
    /// bit `k` of `masks[n]` is set exactly when
    /// `connected(tx, tx_pos, runs[n].receiver(k, step))` is `true`, for
    /// `k < runs[n].len()`; higher bits are clear.
    ///
    /// Surveys hand each beacon's receivers outside its core here in one
    /// call instead of one `connected` call per receiver. The default asks
    /// `connected` per receiver, which is always exact; a model overrides
    /// it when it can share work across the batch, as
    /// [`PerBeaconNoise`] shares its per-beacon and per-column hashing.
    ///
    /// # Panics
    ///
    /// Panics if `masks` and `runs` differ in length.
    fn connected_runs(&self, tx: TxId, tx_pos: Point, step: f64, runs: &[Run], masks: &mut [u64]) {
        connected_runs_by_point(self, tx, tx_pos, step, runs, masks);
    }
}

/// A run of up to 64 consecutive lattice receivers along one row, for
/// [`Propagation::connected_runs`]: the points `((i0 + k)·step, j·step)`
/// for `k < len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Run {
    j: u32,
    i0: u32,
    len: u32,
}

impl Run {
    /// The most receivers one run holds: one bit each of a `u64` mask.
    pub const MAX_LEN: u32 = 64;

    /// The run of `len` receivers in row `j` from column `i0`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`Run::MAX_LEN`].
    #[inline]
    pub fn new(j: u32, i0: u32, len: u32) -> Run {
        assert!(
            len <= Run::MAX_LEN,
            "a run holds at most 64 receivers, got {len}"
        );
        Run { j, i0, len }
    }

    /// The row index.
    #[inline]
    pub fn j(&self) -> u32 {
        self.j
    }

    /// The first column index.
    #[inline]
    pub fn i0(&self) -> u32 {
        self.i0
    }

    /// The number of receivers.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the run holds no receiver.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Receiver `k` of the run on a lattice of spacing `step`, computed
    /// as `abp_geom::Lattice::point` computes it.
    #[inline]
    pub fn receiver(&self, k: u32, step: f64) -> Point {
        Point::new((self.i0 + k) as f64 * step, self.j as f64 * step)
    }
}

/// [`Propagation::connected_runs`] by one `connected` call per receiver:
/// the trait's default, and the fallback of overrides for the cases they
/// do not batch.
pub(crate) fn connected_runs_by_point<M: Propagation + ?Sized>(
    model: &M,
    tx: TxId,
    tx_pos: Point,
    step: f64,
    runs: &[Run],
    masks: &mut [u64],
) {
    assert_eq!(runs.len(), masks.len(), "one mask per run");
    for (run, mask) in runs.iter().zip(masks) {
        let mut bits = 0u64;
        for k in 0..run.len {
            bits |= u64::from(model.connected(tx, tx_pos, run.receiver(k, step))) << k;
        }
        *mask = bits;
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
    fn connected_runs(&self, tx: TxId, tx_pos: Point, step: f64, runs: &[Run], masks: &mut [u64]) {
        (**self).connected_runs(tx, tx_pos, step, runs, masks)
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
    fn connected_runs(&self, tx: TxId, tx_pos: Point, step: f64, runs: &[Run], masks: &mut [u64]) {
        (**self).connected_runs(tx, tx_pos, step, runs, masks)
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

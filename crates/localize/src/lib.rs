//! Connectivity-based RF localization (paper §2) and extensions.
//!
//! A client node estimates its own position from the beacons it can hear:
//!
//! * [`ConnectivityOracle`] — computes the connected beacon set at any
//!   point, combining a beacon field with a propagation model; a
//!   [`CandidateTable`] narrows each query to the beacons listed for its
//!   cell, for surveys that query a whole lattice point by point,
//! * [`CentroidLocalizer`] — the paper's localizer (from Bulusu,
//!   Heidemann & Estrin, *GPS-less low cost outdoor localization for very
//!   small devices*, 2000): the estimate is the **centroid of the
//!   positions of all connected beacons**,
//! * [`UnheardPolicy`] — what to report when *no* beacon is heard (the
//!   paper leaves this case unspecified; see DESIGN.md),
//! * [`LocusLocalizer`] — the footnote-3 alternative: the client lies in
//!   the intersection of the connected beacons' coverage disks; this
//!   localizer computes that locus as a polygon and uses its area
//!   centroid,
//! * [`MultilaterationLocalizer`] — the future-work (§6) comparison point:
//!   least-squares position from noisy range estimates,
//! * [`localization_error`] — the paper's `LE` metric,
//! * [`regions`] — localization-region counting (Figure 1's granularity
//!   argument).
//!
//! # Example
//!
//! ```
//! use abp_field::BeaconField;
//! use abp_geom::{Point, Terrain};
//! use abp_localize::{CentroidLocalizer, Localizer, UnheardPolicy, localization_error};
//! use abp_radio::IdealDisk;
//!
//! let field = BeaconField::from_positions(
//!     Terrain::square(100.0),
//!     [Point::new(40.0, 50.0), Point::new(60.0, 50.0)],
//! );
//! let model = IdealDisk::new(15.0);
//! let localizer = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);
//!
//! // A client at (50, 50) hears both beacons; estimate = their centroid.
//! let fix = localizer.localize(&field, &model, Point::new(50.0, 50.0));
//! assert_eq!(fix.estimate, Some(Point::new(50.0, 50.0)));
//! assert_eq!(localization_error(fix.estimate.unwrap(), Point::new(50.0, 50.0)), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centroid;
pub mod error;
pub mod locus;
pub mod multilat;
pub mod oracle;
pub mod regions;
pub mod weighted;

/// Telemetry: point-localization evaluations performed by any
/// [`Localizer`] implementation in this crate (one per `localize` call).
pub static LOCALIZER_EVALS: abp_trace::Counter = abp_trace::Counter::new("localizer_evals");

pub use centroid::{CentroidLocalizer, UnheardPolicy};
pub use error::localization_error;
pub use locus::LocusLocalizer;
pub use multilat::MultilaterationLocalizer;
pub use oracle::{CandidateTable, ConnectivityOracle};
pub use weighted::WeightedCentroidLocalizer;

use abp_field::BeaconField;
use abp_geom::Point;
use abp_radio::Propagation;
use serde::{Deserialize, Serialize};

/// The outcome of one localization attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fix {
    /// The position estimate, or `None` when the localizer declines to
    /// produce one (no beacons heard under
    /// [`UnheardPolicy::Exclude`](crate::UnheardPolicy)).
    pub estimate: Option<Point>,
    /// How many beacons were heard.
    pub heard: usize,
}

impl Fix {
    /// Localization error against the client's actual position, or `None`
    /// if there is no estimate.
    pub fn error(&self, actual: Point) -> Option<f64> {
        self.estimate.map(|e| localization_error(e, actual))
    }
}

/// The typed outcome of a connectivity-aware localization attempt.
///
/// Produced by [`Localizer::try_localize`]. Under fault injection
/// (`abp-fault`) beacons die and links drop, so an estimator can find
/// itself below the beacon count its method needs. Rather than panicking
/// — or silently falling back and letting the caller mistake a crude
/// estimate for a full-method one — the outcome says *which* happened,
/// while still carrying a best-effort [`Fix`] in both cases.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Localization {
    /// Enough beacons were heard for the estimator's full method.
    Full(Fix),
    /// Connectivity fell below [`Localizer::min_beacons`]: `heard` says
    /// how many beacons were available, and `fallback` is the graceful
    /// degraded estimate (for example a centroid instead of a
    /// multilateration solve, or the unheard-policy position).
    Degraded {
        /// How many beacons were heard — fewer than the estimator needs.
        heard: usize,
        /// The best-effort estimate produced anyway.
        fallback: Fix,
    },
}

impl Localization {
    /// The fix, whether full-method or degraded.
    pub fn fix(&self) -> Fix {
        match *self {
            Localization::Full(fix) => fix,
            Localization::Degraded { fallback, .. } => fallback,
        }
    }

    /// How many beacons were heard.
    pub fn heard(&self) -> usize {
        match *self {
            Localization::Full(fix) => fix.heard,
            Localization::Degraded { heard, .. } => heard,
        }
    }

    /// Whether connectivity fell below the estimator's minimum.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Localization::Degraded { .. })
    }
}

/// A localization algorithm: estimates a client's position from the
/// beacons it hears at `at`.
///
/// Object-safe so experiments can swap localizers at run time.
pub trait Localizer {
    /// Produces a fix for a client located at `at`, gathering neighbors
    /// through a caller-provided [`ConnectivityOracle`] — the entry point
    /// that lets neighbor gathering go through a candidate table
    /// ([`ConnectivityOracle::with_index`]). Indexed and brute-force fixes
    /// are identical by the oracle's ordering guarantee.
    fn localize_via(&self, oracle: &ConnectivityOracle<'_>, at: Point) -> Fix;

    /// Produces a fix for a client located at `at`: [`Localizer::localize_via`]
    /// through an unindexed oracle over `field` and `model`.
    fn localize(&self, field: &BeaconField, model: &dyn Propagation, at: Point) -> Fix {
        self.localize_via(&ConnectivityOracle::new(field, model), at)
    }

    /// The [`UnheardPolicy`] this localizer applies when no beacon is
    /// heard. Surveys record this policy on the maps they build so that
    /// per-point validity matches what [`Localizer::localize`] actually
    /// returned.
    fn unheard_policy(&self) -> UnheardPolicy {
        UnheardPolicy::Exclude
    }

    /// The minimum number of heard beacons the estimator's *full* method
    /// requires. Below this, [`Localizer::try_localize`] reports
    /// [`Localization::Degraded`]. Proximity estimators work from a
    /// single beacon; geometric solvers override this (multilateration
    /// needs three ranges in the plane).
    fn min_beacons(&self) -> usize {
        1
    }

    /// Localizes with typed degradation instead of a silent fallback:
    /// [`Localizer::try_localize_via`] through an unindexed oracle over
    /// `field` and `model`.
    fn try_localize(
        &self,
        field: &BeaconField,
        model: &dyn Propagation,
        at: Point,
    ) -> Localization {
        self.try_localize_via(&ConnectivityOracle::new(field, model), at)
    }

    /// Localizes through a caller-provided oracle with typed degradation
    /// instead of a silent fallback, so the neighbor gathering of the
    /// degradation check shares the oracle's spatial index.
    ///
    /// Never panics on poor connectivity: when fewer than
    /// [`Localizer::min_beacons`] beacons are heard the result is
    /// [`Localization::Degraded`] carrying whatever graceful estimate
    /// [`Localizer::localize_via`] produced for the same inputs.
    fn try_localize_via(&self, oracle: &ConnectivityOracle<'_>, at: Point) -> Localization {
        let fix = self.localize_via(oracle, at);
        if fix.heard < self.min_beacons() {
            Localization::Degraded {
                heard: fix.heard,
                fallback: fix,
            }
        } else {
            Localization::Full(fix)
        }
    }
}

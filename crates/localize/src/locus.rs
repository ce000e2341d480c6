//! Locus-based localization (paper §2.2 footnote 3, §6).
//!
//! Under the idealized radio model, "the client lies within the locus of
//! points described by the intersection of a set of circles with centers
//! corresponding to the positions of connected beacons and radii `R`. The
//! centroid summarizes the locus. An alternative representation of the
//! localization estimate is the full locus information." This module
//! provides that alternative: the locus as a polygon, its area, and its
//! area centroid as the estimate — the representation the paper's
//! future-work locus-breaking placement strategy needs.

use crate::oracle::ConnectivityOracle;
use crate::{CentroidLocalizer, Fix, Localizer, UnheardPolicy};
use abp_field::{Beacon, BeaconField};
use abp_geom::{Point, Polygon};
use abp_radio::Propagation;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default number of chords used to approximate each coverage circle.
pub const DEFAULT_ARC_SEGMENTS: usize = 64;

/// Localizer that intersects the coverage disks of all heard beacons and
/// estimates the client position as the **area centroid of the locus**.
///
/// The locus is computed by polygon clipping: a fine regular polygon of
/// the first heard beacon's disk, clipped against each further disk
/// (`arc_segments` chords per circle — inscribed, so the locus is slightly
/// under-approximated and never over-claims feasibility).
///
/// Caveat (stated by the paper): "the locus information is not reliable
/// under non-ideal radio propagation conditions". With a noisy model a
/// heard beacon may actually be farther than `R`, making the true region
/// empty; when the clipped locus degenerates this localizer falls back to
/// the plain beacon centroid.
///
/// # Example
///
/// ```
/// use abp_field::BeaconField;
/// use abp_geom::{Point, Terrain};
/// use abp_localize::{Localizer, LocusLocalizer, UnheardPolicy};
/// use abp_radio::IdealDisk;
///
/// let field = BeaconField::from_positions(
///     Terrain::square(100.0),
///     [Point::new(40.0, 50.0), Point::new(60.0, 50.0)],
/// );
/// let loc = LocusLocalizer::new(UnheardPolicy::TerrainCenter);
/// let fix = loc.localize(&field, &IdealDisk::new(15.0), Point::new(50.0, 50.0));
/// // The lens between the two disks is symmetric about (50, 50).
/// let est = fix.estimate.unwrap();
/// assert!(est.distance(Point::new(50.0, 50.0)) < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocusLocalizer {
    policy: UnheardPolicy,
    arc_segments: usize,
}

impl LocusLocalizer {
    /// Creates the localizer with [`DEFAULT_ARC_SEGMENTS`] chords per
    /// circle.
    pub fn new(policy: UnheardPolicy) -> Self {
        LocusLocalizer {
            policy,
            arc_segments: DEFAULT_ARC_SEGMENTS,
        }
    }

    /// Overrides the arc resolution (minimum 8 for a sane approximation).
    ///
    /// # Panics
    ///
    /// Panics if `segments < 8`.
    pub fn with_arc_segments(mut self, segments: usize) -> Self {
        assert!(
            segments >= 8,
            "need at least 8 arc segments, got {segments}"
        );
        self.arc_segments = segments;
        self
    }

    /// The unheard policy.
    #[inline]
    pub fn policy(&self) -> UnheardPolicy {
        self.policy
    }

    /// Computes the locus polygon at `at`: the intersection of the nominal
    /// coverage disks of all heard beacons. Empty polygon when nothing is
    /// heard or the clipped region degenerates.
    pub fn locus(&self, field: &BeaconField, model: &dyn Propagation, at: Point) -> Polygon {
        let oracle = ConnectivityOracle::new(field, model);
        self.locus_of_heard(&oracle.heard(at), model.nominal_range())
    }

    /// The locus polygon of an already-gathered heard set.
    fn locus_of_heard(&self, heard: &[Beacon], r: f64) -> Polygon {
        let Some(first) = heard.first() else {
            return Polygon::new(Vec::new());
        };
        let mut poly = Polygon::regular(first.pos(), r, self.arc_segments, 0.0);
        for b in &heard[1..] {
            if poly.is_empty() {
                break;
            }
            poly = poly.clip_disk(b.pos(), r, self.arc_segments);
        }
        poly
    }
}

impl Localizer for LocusLocalizer {
    fn localize_via(&self, oracle: &ConnectivityOracle<'_>, at: Point) -> Fix {
        crate::LOCALIZER_EVALS.add(1);
        let heard = oracle.heard(at);
        if heard.is_empty() {
            return Fix {
                estimate: self.policy.estimate(oracle.field().terrain()),
                heard: 0,
            };
        }
        let poly = self.locus_of_heard(&heard, oracle.model().nominal_range());
        let estimate = poly
            .centroid()
            .or_else(|| poly.vertex_mean())
            // Degenerate locus (can happen under noisy models): fall back
            // to the plain centroid localizer.
            .or_else(|| {
                CentroidLocalizer::new(self.policy)
                    .localize_via(oracle, at)
                    .estimate
            });
        Fix {
            estimate,
            heard: heard.len(),
        }
    }

    fn unheard_policy(&self) -> UnheardPolicy {
        self.policy
    }
}

impl fmt::Display for LocusLocalizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "locus localizer ({} arcs, unheard: {})",
            self.arc_segments, self.policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_geom::Terrain;
    use abp_radio::IdealDisk;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    #[test]
    fn single_beacon_locus_is_full_disk() {
        let field = BeaconField::from_positions(terrain(), [Point::new(50.0, 50.0)]);
        let loc = LocusLocalizer::new(UnheardPolicy::TerrainCenter);
        let model = IdealDisk::new(15.0);
        let poly = loc.locus(&field, &model, Point::new(55.0, 50.0));
        let disk_area = std::f64::consts::PI * 225.0;
        assert!((poly.area() - disk_area).abs() / disk_area < 0.01);
        // Estimate equals the beacon position (disk centroid).
        let fix = loc.localize(&field, &model, Point::new(55.0, 50.0));
        assert!(fix.estimate.unwrap().distance(Point::new(50.0, 50.0)) < 1e-6);
    }

    #[test]
    fn two_beacon_locus_is_lens() {
        let field = BeaconField::from_positions(
            terrain(),
            [Point::new(40.0, 50.0), Point::new(60.0, 50.0)],
        );
        let loc = LocusLocalizer::new(UnheardPolicy::TerrainCenter).with_arc_segments(256);
        let model = IdealDisk::new(15.0);
        let poly = loc.locus(&field, &model, Point::new(50.0, 50.0));
        let expected = abp_geom::lens_area(
            &abp_geom::Disk::new(Point::new(40.0, 50.0), 15.0),
            &abp_geom::Disk::new(Point::new(60.0, 50.0), 15.0),
        );
        assert!(
            (poly.area() - expected).abs() / expected < 0.02,
            "lens area {} vs {expected}",
            poly.area()
        );
    }

    #[test]
    fn locus_contains_true_position_under_ideal_model() {
        let field = BeaconField::from_positions(
            terrain(),
            [
                Point::new(45.0, 45.0),
                Point::new(55.0, 45.0),
                Point::new(50.0, 58.0),
            ],
        );
        let loc = LocusLocalizer::new(UnheardPolicy::TerrainCenter).with_arc_segments(256);
        let model = IdealDisk::new(15.0);
        let at = Point::new(50.0, 50.0);
        let poly = loc.locus(&field, &model, at);
        assert!(poly.area() > 0.0);
        assert!(poly.contains(at), "true position must lie in the locus");
    }

    #[test]
    fn locus_estimate_at_least_as_good_as_centroid_here() {
        // For asymmetric beacon geometry the locus centroid is typically
        // closer to the client than the beacon centroid.
        let field = BeaconField::from_positions(
            terrain(),
            [Point::new(40.0, 50.0), Point::new(60.0, 50.0)],
        );
        let model = IdealDisk::new(15.0);
        let at = Point::new(50.0, 57.0); // north part of the lens
        let locus_fix =
            LocusLocalizer::new(UnheardPolicy::TerrainCenter).localize(&field, &model, at);
        let centroid_fix =
            CentroidLocalizer::new(UnheardPolicy::TerrainCenter).localize(&field, &model, at);
        // Both heard the same beacons.
        assert_eq!(locus_fix.heard, centroid_fix.heard);
        // The lens is symmetric about y = 50, so the two estimates tie on
        // this geometry; the locus estimate must not be *worse*.
        assert!(locus_fix.error(at).unwrap() <= centroid_fix.error(at).unwrap() + 1e-6);
    }

    #[test]
    fn unheard_policy_applies() {
        let field = BeaconField::from_positions(terrain(), [Point::new(0.0, 0.0)]);
        let loc = LocusLocalizer::new(UnheardPolicy::Exclude);
        let fix = loc.localize(&field, &IdealDisk::new(5.0), Point::new(90.0, 90.0));
        assert_eq!(fix.estimate, None);
        assert_eq!(fix.heard, 0);
    }

    #[test]
    #[should_panic(expected = "at least 8 arc segments")]
    fn rejects_coarse_arcs() {
        let _ = LocusLocalizer::new(UnheardPolicy::TerrainCenter).with_arc_segments(4);
    }
}

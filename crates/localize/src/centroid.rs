//! The paper's centroid localizer (§2.2).

use crate::oracle::ConnectivityOracle;
use crate::{Fix, Localizer};
use abp_geom::Point;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a localizer reports when the client hears **zero** beacons.
///
/// The paper evaluates densities low enough (1.41 beacons per coverage
/// area) that uncovered points exist, but never states the estimate used
/// there. We therefore make the convention explicit and configurable; the
/// experiment reports in EXPERIMENTS.md state which policy each figure
/// used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum UnheardPolicy {
    /// Estimate the terrain center — the argmin of worst-case error with
    /// zero information, and our default.
    #[default]
    TerrainCenter,
    /// Estimate the origin `(0, 0)` — a "null estimate" convention that
    /// penalizes uncovered points heavily.
    Origin,
    /// Produce no estimate; the survey excludes the point from error
    /// statistics.
    Exclude,
}

impl UnheardPolicy {
    /// The estimate this policy yields on a terrain, or `None` for
    /// [`UnheardPolicy::Exclude`].
    pub fn estimate(self, terrain: abp_geom::Terrain) -> Option<Point> {
        match self {
            UnheardPolicy::TerrainCenter => Some(terrain.center()),
            UnheardPolicy::Origin => Some(Point::ORIGIN),
            UnheardPolicy::Exclude => None,
        }
    }
}

impl fmt::Display for UnheardPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnheardPolicy::TerrainCenter => "terrain-center",
            UnheardPolicy::Origin => "origin",
            UnheardPolicy::Exclude => "exclude",
        };
        f.write_str(s)
    }
}

/// The paper's localization algorithm: a client estimates its position as
/// the **centroid of the positions of all connected beacons**,
///
/// ```text
/// (Xest, Yest) = ( (X1 + … + Xk) / k , (Y1 + … + Yk) / k )
/// ```
///
/// Under the idealized radio model the error is bounded by the nominal
/// range and the beacon separation; the paper cites a maximum error of
/// `0.5 d` at range-overlap ratio `R/d = 1`, falling to `0.25 d` at
/// `R/d = 4` (reproduced by the `overlap_bound` experiment in `abp-sim`).
///
/// # Example
///
/// ```
/// use abp_field::BeaconField;
/// use abp_geom::{Point, Terrain};
/// use abp_localize::{CentroidLocalizer, Localizer, UnheardPolicy};
/// use abp_radio::IdealDisk;
///
/// let field = BeaconField::from_positions(
///     Terrain::square(100.0),
///     [Point::new(45.0, 45.0), Point::new(55.0, 45.0), Point::new(50.0, 55.0)],
/// );
/// let loc = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);
/// let fix = loc.localize(&field, &IdealDisk::new(15.0), Point::new(50.0, 48.0));
/// assert_eq!(fix.heard, 3);
/// assert_eq!(fix.estimate, Some(Point::new(50.0, 145.0 / 3.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CentroidLocalizer {
    policy: UnheardPolicy,
}

impl CentroidLocalizer {
    /// Creates the localizer with the given unheard policy.
    pub fn new(policy: UnheardPolicy) -> Self {
        CentroidLocalizer { policy }
    }

    /// The unheard policy.
    #[inline]
    pub fn policy(&self) -> UnheardPolicy {
        self.policy
    }
}

impl Localizer for CentroidLocalizer {
    fn localize_via(&self, oracle: &ConnectivityOracle<'_>, at: Point) -> Fix {
        crate::LOCALIZER_EVALS.add(1);
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        let mut heard = 0usize;
        oracle.for_each_heard(at, |b| {
            sum_x += b.pos().x;
            sum_y += b.pos().y;
            heard += 1;
        });
        let estimate = if heard == 0 {
            self.policy.estimate(oracle.field().terrain())
        } else {
            Some(Point::new(sum_x / heard as f64, sum_y / heard as f64))
        };
        Fix { estimate, heard }
    }

    fn unheard_policy(&self) -> UnheardPolicy {
        self.policy
    }
}

impl fmt::Display for CentroidLocalizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "centroid localizer (unheard: {})", self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_field::BeaconField;
    use abp_geom::Terrain;
    use abp_radio::IdealDisk;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    #[test]
    fn single_beacon_estimate_is_beacon_position() {
        let field = BeaconField::from_positions(terrain(), [Point::new(20.0, 30.0)]);
        let loc = CentroidLocalizer::default();
        let fix = loc.localize(&field, &IdealDisk::new(15.0), Point::new(25.0, 30.0));
        assert_eq!(fix.heard, 1);
        assert_eq!(fix.estimate, Some(Point::new(20.0, 30.0)));
        // Error = distance to the beacon (5 m), bounded by R.
        assert_eq!(fix.error(Point::new(25.0, 30.0)), Some(5.0));
    }

    #[test]
    fn estimate_is_centroid_of_heard_only() {
        let field = BeaconField::from_positions(
            terrain(),
            [
                Point::new(40.0, 50.0),
                Point::new(60.0, 50.0),
                Point::new(99.0, 99.0), // out of range
            ],
        );
        let loc = CentroidLocalizer::default();
        let fix = loc.localize(&field, &IdealDisk::new(15.0), Point::new(50.0, 50.0));
        assert_eq!(fix.heard, 2);
        assert_eq!(fix.estimate, Some(Point::new(50.0, 50.0)));
    }

    #[test]
    fn unheard_policies() {
        let field = BeaconField::from_positions(terrain(), [Point::new(0.0, 0.0)]);
        let at = Point::new(90.0, 90.0);
        let model = IdealDisk::new(15.0);

        let center =
            CentroidLocalizer::new(UnheardPolicy::TerrainCenter).localize(&field, &model, at);
        assert_eq!(center.estimate, Some(Point::new(50.0, 50.0)));
        assert_eq!(center.heard, 0);

        let origin = CentroidLocalizer::new(UnheardPolicy::Origin).localize(&field, &model, at);
        assert_eq!(origin.estimate, Some(Point::ORIGIN));

        let excl = CentroidLocalizer::new(UnheardPolicy::Exclude).localize(&field, &model, at);
        assert_eq!(excl.estimate, None);
        assert_eq!(excl.error(at), None);
    }

    #[test]
    fn error_bounded_by_range_with_one_beacon() {
        // When >= 1 beacon is heard under the ideal model, the centroid of
        // heard beacons lies within R of the client... only guaranteed for
        // a single beacon; verify that case tightly.
        let field = BeaconField::from_positions(terrain(), [Point::new(50.0, 50.0)]);
        let loc = CentroidLocalizer::default();
        let model = IdealDisk::new(15.0);
        for k in 0..100 {
            let theta = std::f64::consts::TAU * k as f64 / 100.0;
            let at = Point::new(50.0 + 14.9 * theta.cos(), 50.0 + 14.9 * theta.sin());
            let fix = loc.localize(&field, &model, at);
            assert!(fix.error(at).unwrap() <= 15.0);
        }
    }

    #[test]
    fn denser_grid_reduces_error_figure1() {
        // Figure 1's claim: a 3x3 beacon grid localizes better than 2x2.
        let model = IdealDisk::new(60.0); // large R: everything overlaps
        let loc = CentroidLocalizer::default();
        let coarse = abp_field::generate::uniform_grid(terrain(), 2);
        let fine = abp_field::generate::uniform_grid(terrain(), 3);
        let mut err2 = 0.0;
        let mut err3 = 0.0;
        let mut n = 0;
        for j in 0..10 {
            for i in 0..10 {
                let at = Point::new(5.0 + i as f64 * 10.0, 5.0 + j as f64 * 10.0);
                err2 += loc.localize(&coarse, &model, at).error(at).unwrap();
                err3 += loc.localize(&fine, &model, at).error(at).unwrap();
                n += 1;
            }
        }
        assert!(
            err3 / n as f64 <= err2 / n as f64,
            "3x3 grid must not be worse than 2x2 ({err3} vs {err2})"
        );
    }

    #[test]
    fn policy_display() {
        assert_eq!(UnheardPolicy::TerrainCenter.to_string(), "terrain-center");
        assert_eq!(UnheardPolicy::Exclude.to_string(), "exclude");
    }
}

//! Multilateration-based localization (paper §6).
//!
//! The paper contrasts its proximity approach with multilateration, where
//! "position is estimated from distances to three or more known points"
//! and localization error "is influenced by the geometry of the beacon
//! nodes". [`MultilaterationLocalizer`] implements that comparison point:
//! it measures a (noisy) range to every heard beacon and solves the
//! nonlinear least-squares problem with Gauss–Newton iterations.
//!
//! Range noise is realized deterministically per (beacon, point), matching
//! the workspace's static-world convention.

use crate::oracle::ConnectivityOracle;
use crate::{CentroidLocalizer, Fix, Localizer, UnheardPolicy};
use abp_field::Beacon;
use abp_geom::{DeterministicField, Point, Vec2};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Iterations of Gauss–Newton refinement.
const MAX_ITERS: usize = 25;
/// Convergence threshold on the update step (meters).
const STEP_EPS: f64 = 1e-9;

/// Least-squares multilateration from noisy ranges.
///
/// For each heard beacon `B_i` the localizer obtains a range measurement
/// `r_i = d_i (1 + u_i · sigma)` where `d_i` is the true distance, `sigma`
/// the relative range-error amplitude, and `u_i ~ U[-1, 1]` deterministic
/// per (beacon, client-point). The estimate minimizes
/// `Σ (‖x − B_i‖ − r_i)²` via Gauss–Newton, started from the beacon
/// centroid.
///
/// Needs at least three heard beacons in non-degenerate (non-collinear)
/// geometry; otherwise it falls back to the centroid estimate, mirroring
/// how a real system would degrade.
///
/// The solution is clamped to the terrain: with noisy ranges and
/// near-collinear geometry the unconstrained least-squares solution can
/// run far outside the deployment region, and a fielded client knows it
/// is inside. (Without the clamp a handful of divergent fixes dominate
/// every mean-error statistic.)
///
/// # Example
///
/// ```
/// use abp_field::BeaconField;
/// use abp_geom::{Point, Terrain};
/// use abp_localize::{Localizer, MultilaterationLocalizer, UnheardPolicy};
/// use abp_radio::IdealDisk;
///
/// let field = BeaconField::from_positions(
///     Terrain::square(100.0),
///     [Point::new(40.0, 40.0), Point::new(60.0, 40.0), Point::new(50.0, 62.0)],
/// );
/// // Noise-free ranges: the estimate recovers the client exactly.
/// let loc = MultilaterationLocalizer::new(0.0, 7, UnheardPolicy::TerrainCenter);
/// let at = Point::new(51.0, 47.0);
/// let fix = loc.localize(&field, &IdealDisk::new(30.0), at);
/// assert!(fix.estimate.unwrap().distance(at) < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultilaterationLocalizer {
    range_sigma: f64,
    noise: DeterministicField,
    policy: UnheardPolicy,
}

impl MultilaterationLocalizer {
    /// Creates the localizer.
    ///
    /// * `range_sigma` — relative range-error amplitude in `[0, 1)`
    ///   (0 = perfect ranging),
    /// * `seed` — realizes the per-(beacon, point) range errors,
    /// * `policy` — estimate when no beacon is heard.
    ///
    /// # Panics
    ///
    /// Panics if `range_sigma` is not in `[0, 1)`.
    pub fn new(range_sigma: f64, seed: u64, policy: UnheardPolicy) -> Self {
        assert!(
            (0.0..1.0).contains(&range_sigma),
            "range sigma must be in [0, 1), got {range_sigma}"
        );
        MultilaterationLocalizer {
            range_sigma,
            noise: DeterministicField::new(seed),
            policy,
        }
    }

    /// The relative range-error amplitude.
    #[inline]
    pub fn range_sigma(&self) -> f64 {
        self.range_sigma
    }

    /// The simulated range measurement from `at` to beacon `b`.
    pub fn measured_range(&self, b: &Beacon, at: Point) -> f64 {
        let d = b.pos().distance(at);
        d * (1.0 + self.noise.symmetric(b.id().0, at) * self.range_sigma)
    }

    /// One Gauss–Newton solve; `None` if the geometry is degenerate.
    fn solve(&self, heard: &[Beacon], ranges: &[f64], start: Point) -> Option<Point> {
        let mut x = start;
        for _ in 0..MAX_ITERS {
            // Normal equations J^T J s = -J^T f with 2x2 J^T J.
            let (mut a11, mut a12, mut a22) = (0.0, 0.0, 0.0);
            let (mut g1, mut g2) = (0.0, 0.0);
            for (b, &r) in heard.iter().zip(ranges) {
                let diff = x - b.pos();
                let d = diff.length();
                if d < 1e-9 {
                    continue; // residual gradient undefined at the beacon
                }
                let j = diff / d; // unit vector = Jacobian row
                let f = d - r;
                a11 += j.x * j.x;
                a12 += j.x * j.y;
                a22 += j.y * j.y;
                g1 += j.x * f;
                g2 += j.y * f;
            }
            let det = a11 * a22 - a12 * a12;
            if det.abs() < 1e-9 {
                return None; // collinear or insufficient geometry
            }
            let step = Vec2::new(-(a22 * g1 - a12 * g2) / det, -(-a12 * g1 + a11 * g2) / det);
            x += step;
            if step.length() < STEP_EPS {
                break;
            }
        }
        x.is_finite().then_some(x)
    }
}

impl Localizer for MultilaterationLocalizer {
    fn localize_via(&self, oracle: &ConnectivityOracle<'_>, at: Point) -> Fix {
        crate::LOCALIZER_EVALS.add(1);
        let heard = oracle.heard(at);
        if heard.is_empty() {
            return Fix {
                estimate: self.policy.estimate(oracle.field().terrain()),
                heard: 0,
            };
        }
        let centroid_fix = CentroidLocalizer::new(self.policy).localize_via(oracle, at);
        if heard.len() < 3 {
            // Under-determined: degrade to proximity estimate.
            return centroid_fix;
        }
        let ranges: Vec<f64> = heard.iter().map(|b| self.measured_range(b, at)).collect();
        let start = centroid_fix.estimate.expect("heard >= 3 implies estimate");
        let bounds = oracle.field().terrain().bounds();
        let estimate = self
            .solve(&heard, &ranges, start)
            .map(|p| bounds.clamp_point(p))
            .or(centroid_fix.estimate);
        Fix {
            estimate,
            heard: heard.len(),
        }
    }

    fn unheard_policy(&self) -> UnheardPolicy {
        self.policy
    }

    /// Multilateration solves for two unknowns from range residuals: it
    /// needs three non-collinear beacons. Below that the centroid
    /// fallback above is what `localize` returns, and
    /// [`Localizer::try_localize`] reports it as
    /// [`Degraded`](crate::Localization::Degraded).
    fn min_beacons(&self) -> usize {
        3
    }
}

impl fmt::Display for MultilaterationLocalizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "multilateration (range sigma {}, unheard: {})",
            self.range_sigma, self.policy
        )
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

    fn triangle_field() -> BeaconField {
        BeaconField::from_positions(
            terrain(),
            [
                Point::new(40.0, 40.0),
                Point::new(60.0, 40.0),
                Point::new(50.0, 62.0),
            ],
        )
    }

    #[test]
    fn exact_recovery_with_perfect_ranges() {
        let loc = MultilaterationLocalizer::new(0.0, 1, UnheardPolicy::TerrainCenter);
        let model = IdealDisk::new(40.0);
        let field = triangle_field();
        for &(x, y) in &[(50.0, 48.0), (45.0, 45.0), (55.0, 50.0), (50.0, 40.0)] {
            let at = Point::new(x, y);
            let fix = loc.localize(&field, &model, at);
            assert_eq!(fix.heard, 3);
            assert!(
                fix.estimate.unwrap().distance(at) < 1e-6,
                "failed to recover {at}"
            );
        }
    }

    #[test]
    fn beats_centroid_with_good_geometry() {
        let loc = MultilaterationLocalizer::new(0.02, 3, UnheardPolicy::TerrainCenter);
        let cen = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);
        let model = IdealDisk::new(40.0);
        let field = triangle_field();
        // Average over a grid of client positions inside the triangle.
        let mut ml_err = 0.0;
        let mut c_err = 0.0;
        let mut n = 0;
        for j in 0..8 {
            for i in 0..8 {
                let at = Point::new(43.0 + i as f64 * 2.0, 42.0 + j as f64 * 2.0);
                ml_err += loc.localize(&field, &model, at).error(at).unwrap();
                c_err += cen.localize(&field, &model, at).error(at).unwrap();
                n += 1;
            }
        }
        assert!(
            ml_err / n as f64 <= c_err / n as f64,
            "multilateration ({ml_err}) should beat centroid ({c_err})"
        );
    }

    #[test]
    fn collinear_geometry_falls_back() {
        let field = BeaconField::from_positions(
            terrain(),
            [
                Point::new(30.0, 50.0),
                Point::new(50.0, 50.0),
                Point::new(70.0, 50.0),
            ],
        );
        let loc = MultilaterationLocalizer::new(0.0, 1, UnheardPolicy::TerrainCenter);
        let model = IdealDisk::new(60.0);
        let at = Point::new(50.0, 58.0);
        let fix = loc.localize(&field, &model, at);
        // Must produce *some* estimate (fallback) and not diverge.
        let est = fix.estimate.unwrap();
        assert!(est.is_finite());
        assert!(terrain().contains(Point::new(est.x.clamp(0.0, 100.0), est.y.clamp(0.0, 100.0))));
    }

    #[test]
    fn fewer_than_three_beacons_degrades_to_centroid() {
        let field = BeaconField::from_positions(
            terrain(),
            [Point::new(45.0, 50.0), Point::new(55.0, 50.0)],
        );
        let model = IdealDisk::new(15.0);
        let at = Point::new(50.0, 50.0);
        let ml = MultilaterationLocalizer::new(0.0, 1, UnheardPolicy::TerrainCenter)
            .localize(&field, &model, at);
        let cen = CentroidLocalizer::new(UnheardPolicy::TerrainCenter).localize(&field, &model, at);
        assert_eq!(ml.estimate, cen.estimate);
        assert_eq!(ml.heard, 2);
    }

    #[test]
    fn try_localize_types_the_degradation() {
        use crate::Localization;
        let loc = MultilaterationLocalizer::new(0.0, 1, UnheardPolicy::TerrainCenter);
        let model = IdealDisk::new(15.0);
        // Two heard beacons: below the three-range minimum → Degraded,
        // carrying the centroid fallback rather than panicking.
        let two = BeaconField::from_positions(
            terrain(),
            [Point::new(45.0, 50.0), Point::new(55.0, 50.0)],
        );
        let at = Point::new(50.0, 50.0);
        match loc.try_localize(&two, &model, at) {
            Localization::Degraded { heard, fallback } => {
                assert_eq!(heard, 2);
                assert_eq!(fallback.estimate, Some(Point::new(50.0, 50.0)));
            }
            Localization::Full(_) => panic!("two beacons must degrade a multilateration fix"),
        }
        // Zero heard beacons: degraded with the unheard-policy estimate.
        let none = loc.try_localize(&two, &model, Point::new(5.0, 5.0));
        assert!(none.is_degraded());
        assert_eq!(none.heard(), 0);
        assert_eq!(none.fix().estimate, Some(Point::new(50.0, 50.0)));
        // A full triangle is a full-method fix.
        let model_wide = IdealDisk::new(40.0);
        let full = loc.try_localize(&triangle_field(), &model_wide, at);
        assert!(!full.is_degraded());
        assert_eq!(full.heard(), 3);
    }

    #[test]
    fn range_noise_is_deterministic_and_bounded() {
        let loc = MultilaterationLocalizer::new(0.1, 5, UnheardPolicy::TerrainCenter);
        let field = triangle_field();
        let b = field.beacons()[0];
        let at = Point::new(50.0, 50.0);
        let d = b.pos().distance(at);
        let r1 = loc.measured_range(&b, at);
        assert_eq!(r1, loc.measured_range(&b, at));
        assert!((r1 - d).abs() <= d * 0.1 + 1e-12);
    }

    #[test]
    fn unheard_policy_applies() {
        let field = BeaconField::from_positions(terrain(), [Point::new(0.0, 0.0)]);
        let loc = MultilaterationLocalizer::new(0.0, 1, UnheardPolicy::Exclude);
        let fix = loc.localize(&field, &IdealDisk::new(5.0), Point::new(90.0, 90.0));
        assert_eq!(fix.estimate, None);
    }

    #[test]
    #[should_panic(expected = "range sigma")]
    fn rejects_sigma_of_one() {
        let _ = MultilaterationLocalizer::new(1.0, 0, UnheardPolicy::TerrainCenter);
    }
}

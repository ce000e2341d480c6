//! Distance-weighted centroid localization.
//!
//! The natural refinement of the paper's estimator (explored by the
//! centroid-localization literature that followed it): instead of the
//! plain average of heard beacon positions, weight each beacon by a
//! proxy for proximity. A beacon heard from *just* inside its range says
//! less about the client's position than one heard loud and clear; under
//! a connectivity-only radio the best available proxy is the count-free
//! geometry itself, so this localizer weights by `(1 - d̂/R)^gamma` where
//! `d̂` is the *measured-range proxy* — here the true distance perturbed
//! by the same deterministic noise machinery the multilateration
//! localizer uses.

use crate::oracle::ConnectivityOracle;
use crate::{Fix, Localizer, UnheardPolicy};
use abp_geom::{DeterministicField, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Centroid weighted by proximity.
///
/// Each heard beacon `B_i` contributes weight
/// `w_i = max(eps, 1 − d̂_i / R)^gamma`, where `d̂_i` is a range proxy
/// (true distance times a deterministic `1 + u·sigma` perturbation),
/// `R` the nominal range and `gamma` the sharpening exponent:
///
/// * `gamma = 0` recovers the paper's unweighted centroid exactly,
/// * `gamma = 1` linear weighting,
/// * larger `gamma` trusts only the closest beacons.
///
/// # Example
///
/// ```
/// use abp_field::BeaconField;
/// use abp_geom::{Point, Terrain};
/// use abp_localize::{Localizer, UnheardPolicy, WeightedCentroidLocalizer};
/// use abp_radio::IdealDisk;
///
/// let field = BeaconField::from_positions(
///     Terrain::square(100.0),
///     [Point::new(45.0, 50.0), Point::new(60.0, 50.0)],
/// );
/// // Client right next to the first beacon: the weighted estimate leans
/// // toward it, beating the midpoint.
/// let at = Point::new(46.0, 50.0);
/// let loc = WeightedCentroidLocalizer::new(2.0, 0.0, 7, UnheardPolicy::TerrainCenter);
/// let fix = loc.localize(&field, &IdealDisk::new(20.0), at);
/// assert!(fix.estimate.unwrap().x < 52.5); // plain centroid would say 52.5
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedCentroidLocalizer {
    gamma: f64,
    range_sigma: f64,
    noise: DeterministicField,
    policy: UnheardPolicy,
}

/// Weights below this floor are clamped (keeps every heard beacon in the
/// estimate and the weight sum positive).
const WEIGHT_FLOOR: f64 = 1e-3;

impl WeightedCentroidLocalizer {
    /// Creates the localizer.
    ///
    /// * `gamma` — sharpening exponent (`0` = plain centroid),
    /// * `range_sigma` — relative error of the range proxy in `[0, 1)`,
    /// * `seed` — realizes the proxy errors,
    /// * `policy` — estimate when nothing is heard.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is negative/not finite or `range_sigma` is not in
    /// `[0, 1)`.
    pub fn new(gamma: f64, range_sigma: f64, seed: u64, policy: UnheardPolicy) -> Self {
        assert!(
            gamma.is_finite() && gamma >= 0.0,
            "gamma must be finite and non-negative, got {gamma}"
        );
        assert!(
            (0.0..1.0).contains(&range_sigma),
            "range sigma must be in [0, 1), got {range_sigma}"
        );
        WeightedCentroidLocalizer {
            gamma,
            range_sigma,
            noise: DeterministicField::new(seed),
            policy,
        }
    }

    /// The sharpening exponent.
    #[inline]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The range proxy for a beacon at `pos` heard from `at`.
    fn range_proxy(&self, key: u64, pos: Point, at: Point) -> f64 {
        let d = pos.distance(at);
        d * (1.0 + self.noise.symmetric(key, at) * self.range_sigma)
    }
}

impl Localizer for WeightedCentroidLocalizer {
    fn localize_via(&self, oracle: &ConnectivityOracle<'_>, at: Point) -> Fix {
        crate::LOCALIZER_EVALS.add(1);
        let nominal = oracle.model().nominal_range();
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        let mut sum_w = 0.0;
        let mut heard = 0usize;
        oracle.for_each_heard(at, |b| {
            let proxy = self.range_proxy(b.id().0, b.pos(), at);
            let w = (1.0 - proxy / nominal).max(WEIGHT_FLOOR).powf(self.gamma);
            sum_x += b.pos().x * w;
            sum_y += b.pos().y * w;
            sum_w += w;
            heard += 1;
        });
        let estimate = if heard == 0 {
            self.policy.estimate(oracle.field().terrain())
        } else {
            Some(Point::new(sum_x / sum_w, sum_y / sum_w))
        };
        Fix { estimate, heard }
    }

    fn unheard_policy(&self) -> UnheardPolicy {
        self.policy
    }
}

impl fmt::Display for WeightedCentroidLocalizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "weighted centroid (gamma {}, range sigma {}, unheard: {})",
            self.gamma, self.range_sigma, self.policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CentroidLocalizer;
    use abp_field::BeaconField;
    use abp_geom::Terrain;
    use abp_radio::IdealDisk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    #[test]
    fn gamma_zero_equals_plain_centroid() {
        let mut rng = StdRng::seed_from_u64(3);
        let field = BeaconField::random_uniform(40, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let weighted = WeightedCentroidLocalizer::new(0.0, 0.0, 1, UnheardPolicy::TerrainCenter);
        let plain = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);
        for k in 0..100 {
            let at = Point::new((k % 10) as f64 * 10.0, (k / 10) as f64 * 10.0);
            let a = weighted.localize(&field, &model, at);
            let b = plain.localize(&field, &model, at);
            assert_eq!(a.heard, b.heard);
            let (ea, eb) = (a.estimate.unwrap(), b.estimate.unwrap());
            assert!(ea.distance(eb) < 1e-9, "at {at}: {ea} vs {eb}");
        }
    }

    #[test]
    fn weighting_pulls_toward_near_beacons() {
        let field = BeaconField::from_positions(
            terrain(),
            [Point::new(40.0, 50.0), Point::new(60.0, 50.0)],
        );
        let model = IdealDisk::new(25.0);
        let at = Point::new(42.0, 50.0); // very close to the west beacon
        let loc = WeightedCentroidLocalizer::new(2.0, 0.0, 1, UnheardPolicy::TerrainCenter);
        let est = loc.localize(&field, &model, at).estimate.unwrap();
        assert!(est.x < 50.0, "estimate {est} did not lean west");
        // And it beats the plain centroid here.
        let plain = CentroidLocalizer::new(UnheardPolicy::TerrainCenter)
            .localize(&field, &model, at)
            .estimate
            .unwrap();
        assert!(est.distance(at) < plain.distance(at));
    }

    #[test]
    fn weighted_beats_plain_on_average_with_good_ranges() {
        let model = IdealDisk::new(15.0);
        let plain = CentroidLocalizer::new(UnheardPolicy::Exclude);
        let weighted = WeightedCentroidLocalizer::new(1.0, 0.05, 9, UnheardPolicy::Exclude);
        let mut plain_sum = 0.0;
        let mut weighted_sum = 0.0;
        let mut n = 0;
        for seed in 0..10 {
            let field =
                BeaconField::random_uniform(120, terrain(), &mut StdRng::seed_from_u64(seed));
            for k in 0..100 {
                let at = Point::new(5.0 + (k % 10) as f64 * 10.0, 5.0 + (k / 10) as f64 * 10.0);
                let p = plain.localize(&field, &model, at);
                let w = weighted.localize(&field, &model, at);
                if let (Some(pe), Some(we)) = (p.error(at), w.error(at)) {
                    plain_sum += pe;
                    weighted_sum += we;
                    n += 1;
                }
            }
        }
        assert!(n > 500);
        assert!(
            weighted_sum < plain_sum,
            "weighted ({weighted_sum:.1}) should beat plain ({plain_sum:.1}) over {n} fixes"
        );
    }

    #[test]
    fn unheard_policy_applies() {
        let field = BeaconField::from_positions(terrain(), [Point::new(0.0, 0.0)]);
        let loc = WeightedCentroidLocalizer::new(1.0, 0.0, 1, UnheardPolicy::Exclude);
        let fix = loc.localize(&field, &IdealDisk::new(5.0), Point::new(90.0, 90.0));
        assert_eq!(fix.estimate, None);
        assert_eq!(fix.heard, 0);
    }

    #[test]
    fn deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let field = BeaconField::random_uniform(30, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let loc = WeightedCentroidLocalizer::new(1.5, 0.1, 11, UnheardPolicy::TerrainCenter);
        let at = Point::new(33.0, 44.0);
        assert_eq!(
            loc.localize(&field, &model, at),
            loc.localize(&field, &model, at)
        );
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_negative_gamma() {
        let _ = WeightedCentroidLocalizer::new(-1.0, 0.0, 0, UnheardPolicy::TerrainCenter);
    }
}

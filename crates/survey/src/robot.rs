//! The exploring agent (paper §3).
//!
//! "We assume that the robot (or human) can determine its geographic
//! position using a high precision differential GPS receiver ... It also
//! has a capability to carry a certain number of beacons that it can
//! deploy as additional beacons wherever it deems necessary."
//!
//! [`Robot`] models exactly that: it walks a [`SurveyPlan`], measures the
//! localization error at every waypoint (optionally through an imperfect
//! GPS), tracks distance travelled, and carries a finite beacon payload it
//! can deploy. The paper's simplifying assumption — complete terrain
//! exploration with no measurement noise — is the `gps_sigma = 0` case.

use crate::errormap::ErrorMap;
use crate::plan::SurveyPlan;
use abp_fault::{GpsFault, GpsOutage};
use abp_field::{BeaconField, BeaconId};
use abp_geom::{DeterministicField, Point, Vec2};
use abp_localize::UnheardPolicy;
use abp_radio::Propagation;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when deploying from an empty payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutOfBeacons;

impl fmt::Display for OutOfBeacons {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("robot has no beacons left to deploy")
    }
}

impl std::error::Error for OutOfBeacons {}

/// Summary of one survey pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobotReport {
    /// Waypoints measured.
    pub waypoints: usize,
    /// Ground distance covered by this pass, in meters.
    pub travelled: f64,
    /// Waypoints at which no beacon was heard.
    pub unheard: usize,
    /// Waypoints whose sample was discarded by a GPS outage window
    /// (always zero for fault-free surveys).
    pub dropped: usize,
}

/// A GPS-equipped mobile agent that surveys terrains and deploys beacons.
///
/// # Example
///
/// ```
/// use abp_field::BeaconField;
/// use abp_geom::{Point, Terrain};
/// use abp_localize::UnheardPolicy;
/// use abp_radio::IdealDisk;
/// use abp_survey::{Robot, SurveyPlan};
///
/// let terrain = Terrain::square(100.0);
/// let field = BeaconField::from_positions(terrain, [Point::new(50.0, 50.0)]);
/// let mut robot = Robot::new(0.0, 2, 7); // perfect GPS, carrying 2 beacons
/// let plan = SurveyPlan::new(terrain, 10.0);
/// let (map, report) = robot.survey(&plan, &field, &IdealDisk::new(15.0),
///                                  UnheardPolicy::TerrainCenter);
/// assert_eq!(report.waypoints, map.len());
/// assert!(report.travelled > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Robot {
    gps_sigma: f64,
    payload: usize,
    gps_noise: DeterministicField,
    odometer: f64,
}

impl Robot {
    /// Creates a robot.
    ///
    /// * `gps_sigma` — standard deviation of the GPS position error in
    ///   meters (`0` reproduces the paper's noise-free assumption),
    /// * `payload` — number of beacons carried,
    /// * `seed` — realizes the GPS error field.
    ///
    /// # Panics
    ///
    /// Panics if `gps_sigma` is negative or not finite.
    pub fn new(gps_sigma: f64, payload: usize, seed: u64) -> Self {
        assert!(
            gps_sigma.is_finite() && gps_sigma >= 0.0,
            "GPS sigma must be finite and non-negative, got {gps_sigma}"
        );
        Robot {
            gps_sigma,
            payload,
            gps_noise: DeterministicField::new(seed),
            odometer: 0.0,
        }
    }

    /// Beacons still carried.
    #[inline]
    pub fn payload(&self) -> usize {
        self.payload
    }

    /// Total distance travelled over the robot's lifetime, in meters.
    #[inline]
    pub fn odometer(&self) -> f64 {
        self.odometer
    }

    /// The GPS standard deviation.
    #[inline]
    pub fn gps_sigma(&self) -> f64 {
        self.gps_sigma
    }

    /// The position the robot's GPS reports when it is truly at `p`
    /// (deterministic per position; zero-mean, `gps_sigma`-scaled
    /// Gaussian via Box–Muller).
    pub fn gps_reading(&self, p: Point) -> Point {
        if self.gps_sigma == 0.0 {
            return p;
        }
        let u1 = self.gps_noise.unit(0x675, p).max(1e-12);
        let u2 = self.gps_noise.unit(0x676, p);
        let mag = (-2.0 * u1.ln()).sqrt() * self.gps_sigma;
        let angle = std::f64::consts::TAU * u2;
        p + Vec2::new(mag * angle.cos(), mag * angle.sin())
    }

    /// Walks `plan` measuring the localization error at every waypoint:
    /// the robot compares the centroid estimate against its *GPS-believed*
    /// position, so GPS error perturbs the measurements exactly as it
    /// would in the field.
    ///
    /// With `gps_sigma = 0` the result is identical to the fast
    /// [`ErrorMap::survey`] sweep (asserted in tests).
    ///
    /// Note: maps measured through a noisy GPS should be refreshed by
    /// another robot pass rather than by [`ErrorMap::add_beacon`], whose
    /// incremental re-derivation assumes noise-free reference positions.
    pub fn survey(
        &mut self,
        plan: &SurveyPlan,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
    ) -> (ErrorMap, RobotReport) {
        self.survey_faulty(plan, field, model, policy, None)
    }

    /// [`Robot::survey`] through an (optional) GPS outage schedule.
    ///
    /// Waypoints are numbered in plan order; for each, the outage
    /// schedule may [`GpsFault::Drop`] the sample — the robot was there
    /// (distance still accrues) but the measurement is lost, leaving a
    /// hole the map's accounting reports as *dropped* — or
    /// [`GpsFault::Bias`] it, offsetting the believed position by the
    /// window's constant bias vector on top of any Gaussian GPS noise.
    ///
    /// `outage = None` is byte-for-byte [`Robot::survey`]; the radio
    /// faults (beacon mortality, burst loss) arrive through `model`
    /// instead, pre-wrapped by `FaultSchedule::wrap`.
    ///
    /// This is [`ErrorMap::survey`] followed by [`Robot::walk`]; callers
    /// that already hold the truth survey should walk it directly.
    pub fn survey_faulty(
        &mut self,
        plan: &SurveyPlan,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
        outage: Option<&GpsOutage>,
    ) -> (ErrorMap, RobotReport) {
        let truth = ErrorMap::survey(plan.lattice(), field, model, policy);
        self.walk(plan, truth, outage)
    }

    /// Walks `plan` over an already-surveyed `truth` map, re-deriving
    /// every waypoint's error against the robot's *believed* position.
    ///
    /// Links are tested at the true lattice positions, and GPS noise and
    /// outages move only the believed position, so `truth`'s
    /// accumulators are exactly what the robot hears. The walk reuses
    /// `truth`'s buffers and overwrites only the errors. The result is
    /// bit for bit [`Robot::survey_faulty`] of the field and model
    /// `truth` was surveyed from, under `truth`'s unheard policy.
    ///
    /// # Panics
    ///
    /// Panics if `plan` walks a different lattice than `truth` covers.
    pub fn walk(
        &mut self,
        plan: &SurveyPlan,
        truth: ErrorMap,
        outage: Option<&GpsOutage>,
    ) -> (ErrorMap, RobotReport) {
        let lattice = *plan.lattice();
        assert!(
            *truth.lattice() == lattice,
            "robot walk: the plan's {lattice} differs from the truth map's {}",
            truth.lattice()
        );
        let policy = truth.policy();
        let (sum_x, sum_y, count, mut errors) = truth.into_parts();
        let _span = abp_trace::span!("survey.robot_walk");
        errors.fill(f64::NAN);
        let mut unheard = 0usize;
        let mut dropped = 0usize;
        let mut travelled = 0.0;
        let mut prev: Option<Point> = None;
        // Every waypoint of an outage window shares its fault, so it is
        // looked up once, at the window's first waypoint; `left` counts
        // the window's waypoints still to walk.
        let window = outage.map_or(usize::MAX, GpsOutage::window);
        let (mut fault, mut left) = (None, 0);
        for (waypoint, ix) in plan.waypoints().enumerate() {
            let at = lattice.point(ix);
            if let Some(prev) = prev {
                travelled += prev.distance(at);
            }
            prev = Some(at);
            let flat = lattice.flat(ix);
            if left == 0 {
                fault = outage.and_then(|o| o.fault_at(waypoint));
                left = window;
            }
            left -= 1;
            let believed = match fault {
                Some(GpsFault::Drop) => {
                    // The robot passed through blind: the sample is lost.
                    dropped += 1;
                    if count[flat] == 0 {
                        unheard += 1;
                    }
                    continue;
                }
                Some(GpsFault::Bias(offset)) => self.gps_reading(at) + offset,
                None => self.gps_reading(at),
            };
            let estimate = if count[flat] > 0 {
                let inv = 1.0 / count[flat] as f64;
                Some(Point::new(sum_x[flat] * inv, sum_y[flat] * inv))
            } else {
                unheard += 1;
                policy.estimate(lattice.terrain())
            };
            if let Some(est) = estimate {
                errors[flat] = est.distance(believed);
            }
        }
        self.odometer += travelled;
        let map = ErrorMap::from_parts(lattice, policy, sum_x, sum_y, count, errors);
        let report = RobotReport {
            waypoints: lattice.len(),
            travelled,
            unheard,
            dropped,
        };
        (map, report)
    }

    /// Deploys one carried beacon at `pos`, adding it to `field`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBeacons`] if the payload is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is outside the field's terrain (propagated from
    /// [`BeaconField::add_beacon`]).
    pub fn deploy(
        &mut self,
        field: &mut BeaconField,
        pos: Point,
    ) -> Result<BeaconId, OutOfBeacons> {
        if self.payload == 0 {
            return Err(OutOfBeacons);
        }
        let id = field.add_beacon(pos);
        self.payload -= 1;
        Ok(id)
    }
}

impl fmt::Display for Robot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "robot (GPS sigma {} m, {} beacons aboard, {:.0} m travelled)",
            self.gps_sigma, self.payload, self.odometer
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_geom::Terrain;
    use abp_radio::IdealDisk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    #[test]
    fn perfect_gps_matches_fast_survey() {
        let mut rng = StdRng::seed_from_u64(3);
        let field = BeaconField::random_uniform(30, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let plan = SurveyPlan::new(terrain(), 5.0);
        let mut robot = Robot::new(0.0, 0, 1);
        let (robot_map, report) = robot.survey(&plan, &field, &model, UnheardPolicy::TerrainCenter);
        let fast = ErrorMap::survey(plan.lattice(), &field, &model, UnheardPolicy::TerrainCenter);
        assert_eq!(report.waypoints, fast.len());
        for ix in plan.lattice().indices() {
            let (a, b) = (robot_map.error_at(ix).unwrap(), fast.error_at(ix).unwrap());
            assert!((a - b).abs() < 1e-12, "{ix}");
        }
    }

    #[test]
    fn gps_noise_perturbs_measurements() {
        let mut rng = StdRng::seed_from_u64(5);
        let field = BeaconField::random_uniform(30, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let plan = SurveyPlan::new(terrain(), 10.0);
        let (clean, _) =
            Robot::new(0.0, 0, 1).survey(&plan, &field, &model, UnheardPolicy::TerrainCenter);
        let (noisy, _) =
            Robot::new(2.0, 0, 1).survey(&plan, &field, &model, UnheardPolicy::TerrainCenter);
        let differing = plan
            .lattice()
            .indices()
            .filter(|ix| (clean.error_at(*ix).unwrap() - noisy.error_at(*ix).unwrap()).abs() > 1e-9)
            .count();
        assert!(differing > plan.len() / 2, "only {differing} points moved");
        // And the perturbation is bounded in aggregate: means stay close.
        assert!((clean.mean_error() - noisy.mean_error()).abs() < 2.0);
    }

    #[test]
    fn gps_reading_deterministic() {
        let robot = Robot::new(3.0, 0, 9);
        let p = Point::new(12.0, 34.0);
        assert_eq!(robot.gps_reading(p), robot.gps_reading(p));
        assert_ne!(robot.gps_reading(p), p);
    }

    #[test]
    fn odometer_accumulates_over_passes() {
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let plan = SurveyPlan::new(terrain(), 20.0);
        let mut robot = Robot::new(0.0, 0, 1);
        robot.survey(&plan, &field, &model, UnheardPolicy::TerrainCenter);
        let once = robot.odometer();
        assert!((once - plan.travel_distance()).abs() < 1e-9);
        robot.survey(&plan, &field, &model, UnheardPolicy::TerrainCenter);
        assert!((robot.odometer() - 2.0 * once).abs() < 1e-9);
    }

    #[test]
    fn payload_depletes_and_errors_when_empty() {
        let mut field = BeaconField::new(terrain());
        let mut robot = Robot::new(0.0, 2, 1);
        robot.deploy(&mut field, Point::new(10.0, 10.0)).unwrap();
        robot.deploy(&mut field, Point::new(20.0, 20.0)).unwrap();
        assert_eq!(robot.payload(), 0);
        assert_eq!(
            robot.deploy(&mut field, Point::new(30.0, 30.0)),
            Err(OutOfBeacons)
        );
        assert_eq!(field.len(), 2);
    }

    #[test]
    fn faultless_survey_faulty_matches_survey() {
        let mut rng = StdRng::seed_from_u64(11);
        let field = BeaconField::random_uniform(25, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let plan = SurveyPlan::new(terrain(), 5.0);
        let (plain, pr) =
            Robot::new(1.5, 0, 4).survey(&plan, &field, &model, UnheardPolicy::TerrainCenter);
        let (faulty, fr) = Robot::new(1.5, 0, 4).survey_faulty(
            &plan,
            &field,
            &model,
            UnheardPolicy::TerrainCenter,
            None,
        );
        assert_eq!(plain, faulty);
        assert_eq!(pr, fr);
        assert_eq!(fr.dropped, 0);
    }

    #[test]
    fn gps_outage_drops_samples_into_the_accounting_channel() {
        use abp_fault::GpsOutagePlan;
        let mut rng = StdRng::seed_from_u64(11);
        let field = BeaconField::random_uniform(40, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let plan = SurveyPlan::new(terrain(), 5.0);
        let outage = GpsOutage::new(
            77,
            GpsOutagePlan {
                outage_fraction: 0.3,
                window: 7,
                bias_meters: 0.0,
            },
        );
        let (map, report) = Robot::new(0.0, 0, 4).survey_faulty(
            &plan,
            &field,
            &model,
            UnheardPolicy::TerrainCenter,
            Some(&outage),
        );
        assert!(report.dropped > 0, "30% outage must drop something");
        let acc = map.accounting();
        assert!(acc.dropped > 0);
        assert_eq!(
            acc.measured + acc.degraded + acc.unheard + acc.dropped,
            map.len()
        );
        // Replays agree bit for bit.
        let (map2, report2) = Robot::new(0.0, 0, 4).survey_faulty(
            &plan,
            &field,
            &model,
            UnheardPolicy::TerrainCenter,
            Some(&outage),
        );
        // (Not `assert_eq!(map, map2)`: dropped samples encode as NaN,
        // which never compares equal — compare bit patterns per point.)
        for ix in plan.lattice().indices() {
            assert_eq!(
                map.error_at(ix).map(f64::to_bits),
                map2.error_at(ix).map(f64::to_bits)
            );
            assert_eq!(map.heard_at(ix), map2.heard_at(ix));
        }
        assert_eq!(report, report2);
    }

    #[test]
    fn gps_bias_perturbs_but_keeps_samples() {
        use abp_fault::GpsOutagePlan;
        let mut rng = StdRng::seed_from_u64(13);
        let field = BeaconField::random_uniform(40, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let plan = SurveyPlan::new(terrain(), 5.0);
        let outage = GpsOutage::new(
            9,
            GpsOutagePlan {
                outage_fraction: 0.4,
                window: 5,
                bias_meters: 4.0,
            },
        );
        let mk = |o: Option<&GpsOutage>| {
            Robot::new(0.0, 0, 4).survey_faulty(
                &plan,
                &field,
                &model,
                UnheardPolicy::TerrainCenter,
                o,
            )
        };
        let (clean, _) = mk(None);
        let (biased, report) = mk(Some(&outage));
        assert_eq!(report.dropped, 0, "bias mode must not drop samples");
        assert_eq!(biased.accounting().dropped, 0);
        let moved = plan
            .lattice()
            .indices()
            .filter(|ix| clean.error_at(*ix) != biased.error_at(*ix))
            .count();
        assert!(moved > 0, "bias must perturb some measurements");
        // Bias degrades: the map read through a lying GPS looks worse.
        assert!(biased.mean_error() > clean.mean_error());
    }

    /// Drop and bias outage schedules for the walk tests.
    fn outages() -> [GpsOutage; 2] {
        use abp_fault::GpsOutagePlan;
        let plan = |bias_meters| GpsOutagePlan {
            outage_fraction: 0.3,
            window: 7,
            bias_meters,
        };
        [GpsOutage::new(77, plan(0.0)), GpsOutage::new(9, plan(4.0))]
    }

    fn assert_walks_identical(a: &ErrorMap, b: &ErrorMap, what: &str) {
        assert_eq!(a.lattice(), b.lattice(), "{what}");
        assert_eq!(a.policy(), b.policy(), "{what}");
        for ix in a.lattice().indices() {
            // Dropped samples encode as NaN: compare bit patterns.
            assert_eq!(
                a.error_at(ix).map(f64::to_bits),
                b.error_at(ix).map(f64::to_bits),
                "{what}: error at {ix}"
            );
            assert_eq!(a.heard_at(ix), b.heard_at(ix), "{what}: heard at {ix}");
            assert_eq!(
                a.estimate_at(ix),
                b.estimate_at(ix),
                "{what}: estimate at {ix}"
            );
        }
    }

    #[test]
    fn walk_over_a_survey_matches_survey_faulty() {
        use abp_radio::PerBeaconNoise;
        // Sparse enough that some waypoints hear nothing.
        let mut rng = StdRng::seed_from_u64(21);
        let field = BeaconField::random_uniform(15, terrain(), &mut rng);
        let model = PerBeaconNoise::new(15.0, 0.3, 5);
        let plan = SurveyPlan::new(terrain(), 5.0);
        let [drop, bias] = outages();
        for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
            for sigma in [0.0, 1.5] {
                for outage in [None, Some(&drop), Some(&bias)] {
                    let what = format!("{policy:?}, sigma {sigma}, outage {outage:?}");
                    let mut surveyed = Robot::new(sigma, 0, 4);
                    let (a, ra) = surveyed.survey_faulty(&plan, &field, &model, policy, outage);
                    let truth = ErrorMap::survey(plan.lattice(), &field, &model, policy);
                    let mut walked = Robot::new(sigma, 0, 4);
                    let (b, rb) = walked.walk(&plan, truth, outage);
                    assert_walks_identical(&a, &b, &what);
                    assert_eq!(ra, rb, "{what}");
                    assert_eq!(
                        surveyed.odometer().to_bits(),
                        walked.odometer().to_bits(),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn walk_measures_each_waypoint_against_the_believed_position() {
        // Reference: the brute point-major survey's centroid at each
        // waypoint, measured against the GPS fix the outage leaves.
        let mut rng = StdRng::seed_from_u64(23);
        let field = BeaconField::random_uniform(15, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let plan = SurveyPlan::new(terrain(), 5.0);
        let policy = UnheardPolicy::Exclude;
        let reference = ErrorMap::survey_point_major(plan.lattice(), &field, &model, policy);
        for outage in outages() {
            let mut robot = Robot::new(1.5, 0, 4);
            let truth = ErrorMap::survey(plan.lattice(), &field, &model, policy);
            let (map, report) = robot.walk(&plan, truth, Some(&outage));
            let mut dropped = 0;
            for (waypoint, ix) in plan.waypoints().enumerate() {
                let at = plan.lattice().point(ix);
                let believed = match outage.fault_at(waypoint) {
                    Some(GpsFault::Drop) => {
                        dropped += 1;
                        None
                    }
                    Some(GpsFault::Bias(offset)) => Some(robot.gps_reading(at) + offset),
                    None => Some(robot.gps_reading(at)),
                };
                let expected = believed
                    .and_then(|b| reference.estimate_at(ix).map(|e| e.distance(b)))
                    .map(f64::to_bits);
                assert_eq!(map.error_at(ix).map(f64::to_bits), expected, "{ix}");
            }
            assert_eq!(report.dropped, dropped);
            assert_eq!(report.waypoints, plan.len());
        }
    }

    #[test]
    #[should_panic(expected = "robot walk: the plan's")]
    fn walk_rejects_a_truth_map_of_another_lattice() {
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let truth = ErrorMap::survey(
            SurveyPlan::new(terrain(), 10.0).lattice(),
            &field,
            &model,
            UnheardPolicy::TerrainCenter,
        );
        Robot::new(0.0, 0, 1).walk(&SurveyPlan::new(terrain(), 5.0), truth, None);
    }

    #[test]
    fn report_counts_unheard_waypoints() {
        let field = BeaconField::from_positions(terrain(), [Point::new(0.0, 0.0)]);
        let model = IdealDisk::new(15.0);
        let plan = SurveyPlan::new(terrain(), 50.0); // 3x3 waypoints
        let (_, report) =
            Robot::new(0.0, 0, 1).survey(&plan, &field, &model, UnheardPolicy::TerrainCenter);
        // Only (0, 0) hears the beacon.
        assert_eq!(report.unheard, 8);
    }
}

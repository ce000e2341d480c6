//! Property-based tests for the survey substrate.

use abp_field::BeaconField;
use abp_geom::{Lattice, Point, Terrain};
use abp_localize::{CentroidLocalizer, Localizer, UnheardPolicy};
use abp_radio::{IdealDisk, PerBeaconNoise, Propagation, TxId};
use abp_survey::snapshot::{decode, encode};
use abp_survey::{ErrorMap, Robot, SurveyPlan, SurveyScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: f64 = 60.0;

fn terrain() -> Terrain {
    Terrain::square(SIDE)
}

fn setup(n: usize, seed: u64, noise: f64, step: f64) -> (Lattice, BeaconField, PerBeaconNoise) {
    let lattice = Lattice::new(terrain(), step);
    let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
    let model = PerBeaconNoise::new(12.0, noise, seed ^ 0xABCD);
    (lattice, field, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn survey_agrees_with_point_localizer(
        n in 0usize..40, seed in any::<u64>(), noise in 0.0..0.6f64
    ) {
        let (lattice, field, model) = setup(n, seed, noise, 6.0);
        let fast = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let loc = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);
        for ix in lattice.indices() {
            let p = lattice.point(ix);
            let fix = loc.localize(&field, &model, p);
            let expected = fix.error(p).unwrap();
            let got = fast.error_at(ix).unwrap();
            prop_assert!((got - expected).abs() < 1e-9, "{ix}: {got} vs {expected}");
            prop_assert_eq!(fast.heard_at(ix) as usize, fix.heard);
        }
    }

    #[test]
    fn incremental_add_equals_full_survey(
        n in 0usize..40, seed in any::<u64>(), noise in 0.0..0.6f64,
        bx in 0.0..SIDE, by in 0.0..SIDE
    ) {
        let (lattice, mut field, model) = setup(n, seed, noise, 4.0);
        let mut incremental =
            ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(bx, by));
        incremental.add_beacon(field.get(id).unwrap(), &model);
        let full = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        for ix in lattice.indices() {
            prop_assert_eq!(incremental.heard_at(ix), full.heard_at(ix));
            let (a, b) = (incremental.error_at(ix).unwrap(), full.error_at(ix).unwrap());
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn error_bounds_under_ideal_model(n in 1usize..50, seed in any::<u64>()) {
        let (lattice, field, _) = setup(n, seed, 0.0, 3.0);
        let model = IdealDisk::new(12.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::Exclude);
        for ix in lattice.indices() {
            if map.heard_at(ix) == 1 {
                // Exactly one heard beacon: the error is that beacon's
                // distance, bounded by R.
                prop_assert!(map.error_at(ix).unwrap() <= 12.0 + 1e-9);
            }
        }
    }

    #[test]
    fn statistics_are_consistent(n in 1usize..60, seed in any::<u64>(), noise in 0.0..0.6f64) {
        let (lattice, field, model) = setup(n.max(1), seed, noise, 4.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let s = map.summary();
        prop_assert!((map.mean_error() - s.mean()).abs() < 1e-9);
        prop_assert!((map.median_error() - s.median()).abs() < 1e-9);
        prop_assert!(s.min() >= 0.0);
        let (_, max_e) = map.max_error_point().unwrap();
        prop_assert!((max_e - s.max()).abs() < 1e-12);
    }

    #[test]
    fn snapshot_roundtrip(n in 0usize..40, seed in any::<u64>(), noise in 0.0..0.6f64) {
        let (lattice, field, model) = setup(n, seed, noise, 5.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let restored = decode(&encode(&map)).unwrap();
        prop_assert_eq!(&restored, &map);
    }

    #[test]
    fn robot_with_perfect_gps_matches_survey(n in 0usize..30, seed in any::<u64>()) {
        let (lattice, field, model) = setup(n, seed, 0.2, 6.0);
        let plan = SurveyPlan::from_lattice(lattice);
        let (robot_map, report) = Robot::new(0.0, 0, seed)
            .survey(&plan, &field, &model, UnheardPolicy::TerrainCenter);
        let fast = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        prop_assert_eq!(report.waypoints, lattice.len());
        for ix in lattice.indices() {
            let (a, b) = (robot_map.error_at(ix).unwrap(), fast.error_at(ix).unwrap());
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn adding_beacons_weakly_improves_coverage(
        n in 0usize..30, seed in any::<u64>(), bx in 0.0..SIDE, by in 0.0..SIDE
    ) {
        let (lattice, mut field, _) = setup(n, seed, 0.0, 4.0);
        let model = IdealDisk::new(12.0);
        let before = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(bx, by));
        let mut after = before.clone();
        after.add_beacon(field.get(id).unwrap(), &model);
        prop_assert!(after.unheard_count() <= before.unheard_count());
    }
}

/// A sharp-disk model whose reach varies per beacon — even tx ids are
/// mute (reach 0), odd ids hear out to `range` — with its core equal to
/// its reach, so the sweep decides every point by the core test alone.
#[derive(Debug, Clone, Copy)]
struct VariableDisk {
    range: f64,
}

impl Propagation for VariableDisk {
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool {
        let r = self.max_range(tx, tx_pos);
        // The core_range contract's squared form, verbatim.
        tx_pos.distance_squared(rx) <= r * r
    }
    fn max_range(&self, tx: TxId, _tx_pos: Point) -> f64 {
        if tx.0 % 2 == 0 {
            0.0
        } else {
            self.range
        }
    }
    fn nominal_range(&self) -> f64 {
        self.range
    }
    fn core_range(&self, tx: TxId, tx_pos: Point) -> Option<f64> {
        Some(self.max_range(tx, tx_pos))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The production sweep, whose core test replaces `connected` for
    /// sharp disks, hears exactly the beacon sets of the point-major
    /// oracle, bit for bit — on random fields, with mute (reach = 0 =
    /// core) beacons, and with beacons snapped onto lattice points and
    /// exactly `range` away from one so distance² == core² lands on the
    /// `<=` boundary.
    #[test]
    fn core_sweep_matches_oracle_on_disk_boundaries(
        n in 0usize..40, seed in any::<u64>(),
        range in 0.5..20.0f64, step_ix in 0usize..3,
        bx in 0.0..SIDE, by in 0.0..SIDE
    ) {
        let step = [1.5, 3.0, 6.0][step_ix];
        let lattice = Lattice::new(terrain(), step);
        let mut field =
            BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let snapped = Point::new((bx / step).floor() * step, (by / step).floor() * step);
        field.add_beacon(snapped);
        if snapped.x + range <= SIDE {
            field.add_beacon(Point::new(snapped.x + range, snapped.y));
        }
        let ideal = IdealDisk::new(range);
        let variable = VariableDisk { range };
        for model in [&ideal as &dyn Propagation, &variable] {
            for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
                let oracle = ErrorMap::survey_point_major(&lattice, &field, &model, policy);
                let mut scratch = SurveyScratch::new();
                let swept =
                    ErrorMap::survey_indexed_with(&lattice, &field, &model, policy, &mut scratch);
                for ix in lattice.indices() {
                    prop_assert_eq!(swept.heard_at(ix), oracle.heard_at(ix));
                    prop_assert_eq!(
                        swept.error_at(ix).map(f64::to_bits),
                        oracle.error_at(ix).map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn partial_survey_subset_of_full(
        n in 0usize..30, seed in any::<u64>(), fraction in 0.05..1.0f64
    ) {
        use abp_survey::sampling::{survey_partial, SubsampleStrategy};
        let (lattice, field, model) = setup(n, seed, 0.2, 6.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let partial = survey_partial(
            &lattice, &field, &model, UnheardPolicy::TerrainCenter,
            SubsampleStrategy::Random { fraction }, &mut rng,
        );
        let full = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let expected = ((lattice.len() as f64 * fraction).round() as usize).clamp(1, lattice.len());
        prop_assert_eq!(partial.valid_count(), expected);
        for ix in lattice.indices() {
            if let Some(e) = partial.error_at(ix) {
                prop_assert_eq!(e, full.error_at(ix).unwrap());
            }
        }
    }

    #[test]
    fn adaptive_survey_accounting_consistent(
        n in 0usize..30, seed in any::<u64>(), stride in 2u32..6, refine in 0.0..=1.0f64
    ) {
        use abp_survey::sampling::survey_adaptive;
        let (lattice, field, model) = setup(n, seed, 0.0, 4.0);
        let (map, report) = survey_adaptive(
            &lattice, &field, &model, UnheardPolicy::TerrainCenter, stride, refine,
        );
        prop_assert_eq!(
            map.valid_count(),
            report.coarse_measured + report.refined_measured
        );
        prop_assert!(report.measured_fraction > 0.0 && report.measured_fraction <= 1.0);
        // More refinement never measures less.
        let (_, fuller) = survey_adaptive(
            &lattice, &field, &model, UnheardPolicy::TerrainCenter, stride,
            (refine + 0.3).min(1.0),
        );
        prop_assert!(fuller.refined_measured >= report.refined_measured);
    }

    #[test]
    fn heatmap_renders_for_any_map(
        n in 0usize..30, seed in any::<u64>(), width in 2usize..100
    ) {
        use abp_survey::render::{render_heatmap, HeatmapOptions};
        let (lattice, field, model) = setup(n, seed, 0.3, 6.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let art = render_heatmap(&map, Some(&field), HeatmapOptions {
            width,
            scale_max: None,
            show_beacons: true,
        });
        let lines: Vec<&str> = art.lines().collect();
        prop_assert_eq!(lines.len(), (width / 2).max(1) + 1);
        for l in &lines[..lines.len() - 1] {
            prop_assert_eq!(l.len(), width);
            prop_assert!(l.is_ascii());
        }
    }
}

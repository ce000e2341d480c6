//! Property-based tests for the localizers.

use abp_field::BeaconField;
use abp_geom::{Point, Terrain};
use abp_localize::{
    localization_error, CentroidLocalizer, ConnectivityOracle, Localizer, LocusLocalizer,
    MultilaterationLocalizer, UnheardPolicy,
};
use abp_radio::{IdealDisk, NoiseStyle, PerBeaconNoise, Propagation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: f64 = 100.0;

fn terrain() -> Terrain {
    Terrain::square(SIDE)
}

fn client() -> impl Strategy<Value = Point> {
    (0.0..SIDE, 0.0..SIDE).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn centroid_estimate_inside_terrain(
        n in 0usize..80, seed in any::<u64>(), at in client()
    ) {
        let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let model = IdealDisk::new(15.0);
        let fix = CentroidLocalizer::new(UnheardPolicy::TerrainCenter)
            .localize(&field, &model, at);
        // Beacons are inside the terrain, so their centroid is too.
        let est = fix.estimate.unwrap();
        prop_assert!(terrain().contains(est));
    }

    #[test]
    fn centroid_heard_matches_oracle(
        n in 0usize..80, seed in any::<u64>(), at in client(), noise in 0.0..0.6f64
    ) {
        let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let model = PerBeaconNoise::new(15.0, noise, seed ^ 0xDEAD);
        let oracle = ConnectivityOracle::new(&field, &model);
        let fix = CentroidLocalizer::new(UnheardPolicy::Exclude).localize(&field, &model, at);
        prop_assert_eq!(fix.heard, oracle.heard_count(at));
        prop_assert_eq!(fix.estimate.is_none(), fix.heard == 0);
    }

    #[test]
    fn single_heard_beacon_error_bounded_by_effective_range(
        n in 1usize..40, seed in any::<u64>(), at in client(), noise in 0.0..0.6f64
    ) {
        let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let model = PerBeaconNoise::new(15.0, noise, seed ^ 0xBEEF);
        let fix = CentroidLocalizer::new(UnheardPolicy::Exclude).localize(&field, &model, at);
        if fix.heard == 1 {
            // The estimate is the beacon itself; it heard us within its
            // effective radius <= R(1 + noise).
            let err = fix.error(at).unwrap();
            prop_assert!(err <= 15.0 * (1.0 + noise) + 1e-9);
        }
    }

    #[test]
    fn centroid_error_never_exceeds_unheard_policy_worst_case(
        n in 0usize..60, seed in any::<u64>(), at in client()
    ) {
        // With TerrainCenter policy the error is at most the distance from
        // `at` to the farthest point reachable as a centroid: diag/2 when
        // unheard; diag otherwise (estimates stay in terrain).
        let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let model = IdealDisk::new(15.0);
        let fix = CentroidLocalizer::new(UnheardPolicy::TerrainCenter)
            .localize(&field, &model, at);
        let err = fix.error(at).unwrap();
        prop_assert!(err <= SIDE * std::f64::consts::SQRT_2 + 1e-9);
    }

    #[test]
    fn locus_and_centroid_hear_the_same(
        n in 0usize..40, seed in any::<u64>(), at in client()
    ) {
        let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let model = IdealDisk::new(15.0);
        let a = LocusLocalizer::new(UnheardPolicy::Exclude).localize(&field, &model, at);
        let b = CentroidLocalizer::new(UnheardPolicy::Exclude).localize(&field, &model, at);
        prop_assert_eq!(a.heard, b.heard);
    }

    #[test]
    fn locus_contains_client_under_ideal_model(
        n in 1usize..30, seed in any::<u64>(), at in client()
    ) {
        let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let model = IdealDisk::new(15.0);
        let loc = LocusLocalizer::new(UnheardPolicy::Exclude).with_arc_segments(128);
        let oracle = ConnectivityOracle::new(&field, &model);
        if oracle.heard_count(at) > 0 {
            let poly = loc.locus(&field, &model, at);
            // The inscribed-polygon approximation can shave the boundary;
            // only check clients that are not razor-thin cases.
            if poly.area() > 1.0 {
                let c = poly.centroid().or_else(|| poly.vertex_mean()).unwrap();
                // Sanity: centroid finite and near the terrain.
                prop_assert!(c.is_finite());
                prop_assert!(c.x > -20.0 && c.x < SIDE + 20.0);
            }
        }
    }

    #[test]
    fn multilateration_exact_without_noise(
        seed in any::<u64>(), at in client()
    ) {
        // A well-spread triangle that always hears the client.
        let field = BeaconField::from_positions(
            terrain(),
            [Point::new(5.0, 5.0), Point::new(95.0, 10.0), Point::new(50.0, 95.0)],
        );
        let model = IdealDisk::new(200.0);
        let loc = MultilaterationLocalizer::new(0.0, seed, UnheardPolicy::TerrainCenter);
        let fix = loc.localize(&field, &model, at);
        prop_assert_eq!(fix.heard, 3);
        let err = fix.error(at).unwrap();
        prop_assert!(err < 1e-5, "residual error {err}");
    }

    #[test]
    fn localization_error_is_a_metric(a in client(), b in client()) {
        prop_assert_eq!(localization_error(a, b), localization_error(b, a));
        prop_assert!(localization_error(a, b) >= 0.0);
        prop_assert_eq!(localization_error(a, a), 0.0);
    }

    #[test]
    fn localizers_deterministic(
        n in 0usize..50, seed in any::<u64>(), at in client(), noise in 0.0..0.6f64
    ) {
        let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let model = PerBeaconNoise::new(15.0, noise, seed);
        let loc = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);
        let f1 = loc.localize(&field, &model, at);
        let f2 = loc.localize(&field, &model, at);
        prop_assert_eq!(f1, f2);
    }
}

/// `IdealDisk` and `PerBeaconNoise` at noise 0 and 0.4 in every style.
fn oracle_models(seed: u64) -> Vec<Box<dyn Propagation>> {
    let mut models: Vec<Box<dyn Propagation>> = vec![Box::new(IdealDisk::new(15.0))];
    for noise in [0.0, 0.4] {
        for style in [
            NoiseStyle::Speckled,
            NoiseStyle::CoherentRadius,
            NoiseStyle::Lossy,
        ] {
            models.push(Box::new(PerBeaconNoise::with_style(
                15.0, noise, seed, style,
            )));
        }
    }
    models
}

/// One beacon per draw: kind 0 repeats an earlier beacon (coincident
/// beacons), kind 1 snaps to the `reach`-spaced lattice anchored at the
/// terrain origin (the candidate table's cell corners once a lattice
/// beacon sits on each axis), any other kind lands uniformly in the
/// terrain.
fn layout(draws: &[(u8, f64, f64)], reach: f64) -> Vec<Point> {
    let corners = (SIDE / reach).floor() + 1.0;
    let mut positions: Vec<Point> = Vec::with_capacity(draws.len());
    for &(kind, u, v) in draws {
        let p = match kind {
            0 if !positions.is_empty() => positions[(u * positions.len() as f64) as usize],
            1 => Point::new((u * corners).floor() * reach, (v * corners).floor() * reach),
            _ => Point::new(u * SIDE, v * SIDE),
        };
        positions.push(p);
    }
    positions
}

proptest! {
    /// The indexed oracle hears exactly the brute oracle's beacons, in
    /// the same order, at points inside and outside the beacons'
    /// bounding box and the terrain: query kind 0 sits on a beacon,
    /// kind 1 on a lattice corner (possibly off the terrain), any other
    /// kind anywhere in a margin around the terrain.
    #[test]
    fn indexed_heard_lists_equal_brute_in_order(
        draws in prop::collection::vec((0u8..3, 0.0..1.0f64, 0.0..1.0f64), 0..151),
        queries in prop::collection::vec((0u8..3, -0.4..1.4f64, -0.4..1.4f64), 1..24),
        seed in any::<u64>(),
    ) {
        for model in oracle_models(seed) {
            // The reach depends on the beacon ids only, so a stand-in
            // field of the same size tells where the cell corners fall.
            let stand_in =
                BeaconField::from_positions(terrain(), vec![Point::ORIGIN; draws.len()]);
            let reach = ConnectivityOracle::query_reach(&stand_in, &*model);
            let positions = layout(&draws, reach);
            let field = BeaconField::from_positions(terrain(), positions.iter().copied());
            let brute = ConnectivityOracle::new(&field, &*model);
            let index = ConnectivityOracle::build_index(&field, &*model);
            let indexed = ConnectivityOracle::with_index(&field, &*model, &index);
            let corners = (SIDE / reach).floor() + 1.0;
            for &(kind, u, v) in &queries {
                let at = match kind {
                    0 if !positions.is_empty() => {
                        positions[(u.clamp(0.0, 0.999) * positions.len() as f64) as usize]
                    }
                    1 => Point::new((u * corners).floor() * reach, (v * corners).floor() * reach),
                    _ => Point::new(u * SIDE, v * SIDE),
                };
                prop_assert_eq!(indexed.heard(at), brute.heard(at), "at {}", at);
            }
        }
    }
}

#[test]
fn object_safe_localizer_collection() {
    // Experiments iterate heterogeneous localizers via trait objects.
    let localizers: Vec<Box<dyn Localizer>> = vec![
        Box::new(CentroidLocalizer::new(UnheardPolicy::TerrainCenter)),
        Box::new(LocusLocalizer::new(UnheardPolicy::TerrainCenter)),
        Box::new(MultilaterationLocalizer::new(
            0.05,
            1,
            UnheardPolicy::TerrainCenter,
        )),
    ];
    let field = BeaconField::from_positions(
        terrain(),
        [
            Point::new(40.0, 40.0),
            Point::new(60.0, 40.0),
            Point::new(50.0, 60.0),
        ],
    );
    let model: &dyn Propagation = &IdealDisk::new(30.0);
    for loc in &localizers {
        let fix = loc.localize(&field, model, Point::new(50.0, 47.0));
        assert_eq!(fix.heard, 3);
        assert!(fix.estimate.is_some());
    }
}

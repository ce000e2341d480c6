//! Cross-crate bit-identity guarantees at a scale where pruning matters:
//! the production survey sweep (which skips `connected` inside each
//! beacon's guaranteed core) against the point-major oracle, the
//! connectivity oracle behind the localizers against brute force, and
//! the incremental candidate scorers against full re-scoring.

use abp_fault::FaultPlan;
use abp_field::BeaconField;
use abp_geom::{Lattice, Point, Terrain};
use abp_localize::{CentroidLocalizer, ConnectivityOracle, Localizer, UnheardPolicy};
use abp_placement::{
    greedy_batch, greedy_batch_incremental, GridPlacement, IncrementalGrid, IncrementalMax,
    MaxPlacement,
};
use abp_radio::{IdealDisk, NoiseStyle, PerBeaconNoise, Propagation};
use abp_survey::{ErrorMap, SurveyScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: f64 = 100.0;
const RANGE: f64 = 15.0;

fn dense_field(beacons: usize, seed: u64) -> BeaconField {
    BeaconField::random_uniform(
        beacons,
        Terrain::square(SIDE),
        &mut StdRng::seed_from_u64(seed),
    )
}

/// The survey models every identity check runs: the all-core ideal
/// disk, each noise style at 0.4 (core plus annulus; the coherent style
/// is all core), and a fault wrapper that injects nothing but claims no
/// core, so every point in reach asks `connected`.
fn survey_models() -> Vec<(String, Box<dyn Propagation>)> {
    let mut models: Vec<(String, Box<dyn Propagation>)> =
        vec![("ideal disk".into(), Box::new(IdealDisk::new(RANGE)))];
    for style in [
        NoiseStyle::Speckled,
        NoiseStyle::CoherentRadius,
        NoiseStyle::Lossy,
    ] {
        models.push((
            format!("{style} noise"),
            Box::new(PerBeaconNoise::with_style(RANGE, 0.4, 11, style)),
        ));
    }
    let no_core = FaultPlan::none()
        .compile(3)
        .wrap(PerBeaconNoise::new(RANGE, 0.4, 11), 0);
    models.push(("no core".into(), Box::new(no_core)));
    models
}

fn assert_maps_bit_identical(a: &ErrorMap, b: &ErrorMap, what: &str) {
    for ix in a.lattice().indices() {
        assert_eq!(
            a.error_at(ix).map(f64::to_bits),
            b.error_at(ix).map(f64::to_bits),
            "{what}: error differs at {ix:?}"
        );
        assert_eq!(
            a.heard_at(ix),
            b.heard_at(ix),
            "{what}: heard differs at {ix:?}"
        );
    }
}

/// The production survey sweep returns the exact bits of the
/// point-major oracle, under every survey model and on an empty field.
#[test]
fn indexed_survey_is_bit_identical_to_brute_at_scale() {
    let lattice = Lattice::new(Terrain::square(SIDE), 2.0);
    let policy = UnheardPolicy::TerrainCenter;
    for field in [dense_field(100, 7), dense_field(0, 7)] {
        for (what, model) in &survey_models() {
            let what = format!("{what}, {} beacons", field.len());
            let oracle = ErrorMap::survey_point_major(&lattice, &field, model, policy);
            let swept = ErrorMap::survey(&lattice, &field, model, policy);
            assert_maps_bit_identical(&oracle, &swept, &what);
        }
    }
}

/// The scratch-reused survey path — one `SurveyScratch` threaded
/// through trial after trial, recycling each finished map's buffers,
/// exactly as the Monte-Carlo engine's thread-local scratch does —
/// returns the exact bits of the oracle on every trial, at scale, under
/// every survey model, across shrinking and growing fields and lattices.
#[test]
fn scratch_reused_survey_is_bit_identical_to_fresh_at_scale() {
    let policy = UnheardPolicy::TerrainCenter;
    for (what, model) in &survey_models() {
        let mut scratch = SurveyScratch::new();
        // Vary field size, seed, and lattice step so reuse has to cope
        // with buffers growing and shrinking between trials.
        for (beacons, seed, step) in [(100, 7, 2.0), (30, 8, 4.0), (120, 9, 2.0), (60, 10, 1.0)] {
            let field = dense_field(beacons, seed);
            let lattice = Lattice::new(Terrain::square(SIDE), step);
            let oracle = ErrorMap::survey_point_major(&lattice, &field, model, policy);
            let reused =
                ErrorMap::survey_indexed_with(&lattice, &field, model, policy, &mut scratch);
            assert_maps_bit_identical(&oracle, &reused, &format!("{what} n={beacons}"));
            assert_eq!(
                oracle.median_error().to_bits(),
                scratch.median_error(&reused).to_bits(),
                "{what} n={beacons}: median workspace diverged"
            );
            scratch.recycle(reused);
        }
    }
}

/// The banded sweep returns the exact bits of the oracle at paper
/// scale, at every worker count, under every survey model. (The
/// container may expose a single core; oversubscribed worker counts
/// change only the scheduling, never a band's arithmetic, so the gate
/// is equally strong there.)
#[test]
fn tiled_survey_is_bit_identical_to_single_thread_at_scale() {
    let field = dense_field(100, 7);
    let lattice = Lattice::new(Terrain::square(SIDE), 1.0);
    let policy = UnheardPolicy::TerrainCenter;
    for (what, model) in &survey_models() {
        let oracle = ErrorMap::survey_point_major(&lattice, &field, model, policy);
        let mut scratch = SurveyScratch::new();
        for threads in [1usize, 2, 3, 4, 8] {
            let banded = ErrorMap::survey_indexed_with_threads(
                &lattice,
                &field,
                model,
                policy,
                &mut scratch,
                threads,
            );
            assert_maps_bit_identical(&oracle, &banded, &format!("{what} threads={threads}"));
            scratch.recycle(banded);
        }
    }
}

/// Threaded incremental re-surveys (the serve path's banded update)
/// apply the exact bits of the sequential `add_beacon`/`remove_beacon`
/// at paper scale, and an added beacon lands exactly where the oracle
/// survey of the grown field puts it, under every survey model.
#[test]
fn threaded_incremental_updates_are_bit_identical_at_scale() {
    let field = dense_field(100, 21);
    let lattice = Lattice::new(Terrain::square(SIDE), 1.0);
    let policy = UnheardPolicy::TerrainCenter;
    let mut grown = field.clone();
    let id = grown.add_beacon(Point::new(SIDE / 3.0, SIDE / 2.0));
    let beacon = *grown.get(id).expect("beacon just added");
    for (what, model) in &survey_models() {
        let mut seq = ErrorMap::survey(&lattice, &field, model, policy);
        let mut par = seq.clone();

        let d_seq = seq.add_beacon(&beacon, model);
        let d_par = par.add_beacon_threaded(&beacon, model, 4);
        assert_eq!(d_seq, d_par, "{what}: add deltas differ");
        assert_maps_bit_identical(&seq, &par, &format!("{what}: after threaded add"));
        let oracle = ErrorMap::survey_point_major(&lattice, &grown, model, policy);
        assert_maps_bit_identical(&oracle, &seq, &format!("{what}: add vs oracle"));

        let d_seq = seq.remove_beacon(&beacon, model);
        let d_par = par.remove_beacon_threaded(&beacon, model, 4);
        assert_eq!(d_seq, d_par, "{what}: remove deltas differ");
        assert_maps_bit_identical(&seq, &par, &format!("{what}: after threaded remove"));
    }
}

/// Localization through an indexed oracle is the same function as
/// through the brute oracle — same fixes, same degradation decisions —
/// at every lattice point.
#[test]
fn indexed_oracle_localizes_identically() {
    let field = dense_field(60, 3);
    let model = PerBeaconNoise::new(RANGE, 0.3, 5);
    let localizer = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);

    let brute = ConnectivityOracle::new(&field, &model);
    let index = ConnectivityOracle::build_index(&field, &model);
    let indexed = ConnectivityOracle::with_index(&field, &model, &index);

    let lattice = Lattice::new(Terrain::square(SIDE), 2.5);
    for ix in lattice.indices() {
        let at = lattice.point(ix);
        assert_eq!(
            localizer.try_localize_via(&brute, at),
            localizer.try_localize_via(&indexed, at),
            "at {at}"
        );
    }
}

/// The incremental scorers drive greedy deployment to exactly the
/// positions (and the exact error-map bits) of the brute re-scoring
/// loop, for both paper algorithms, over a non-trivial batch.
#[test]
fn incremental_greedy_matches_brute_at_scale() {
    let field = dense_field(100, 42);
    let lattice = Lattice::new(Terrain::square(SIDE), 2.0);
    let model = IdealDisk::new(RANGE);
    let policy = UnheardPolicy::TerrainCenter;
    let base_map = ErrorMap::survey(&lattice, &field, &model, policy);
    let k = 8;

    let grid_algo = GridPlacement::paper(Terrain::square(SIDE), RANGE);
    // (name, brute outcome+map, incremental outcome+map)
    let mut cases = Vec::new();
    {
        let (mut f, mut m) = (field.clone(), base_map.clone());
        let brute = greedy_batch(&grid_algo, &mut m, &mut f, &model, k, &mut seeded());
        let (mut inf, mut inm) = (field.clone(), base_map.clone());
        let mut scorer = IncrementalGrid::new(grid_algo, &inm);
        let inc = greedy_batch_incremental(&mut scorer, &mut inm, &mut inf, &model, k);
        cases.push(("grid", brute, m, inc, inm));
    }
    {
        let (mut f, mut m) = (field.clone(), base_map.clone());
        let brute = greedy_batch(
            &MaxPlacement::new(),
            &mut m,
            &mut f,
            &model,
            k,
            &mut seeded(),
        );
        let (mut inf, mut inm) = (field.clone(), base_map.clone());
        let mut scorer = IncrementalMax::new(&inm);
        let inc = greedy_batch_incremental(&mut scorer, &mut inm, &mut inf, &model, k);
        cases.push(("max", brute, m, inc, inm));
    }

    for (name, brute, brute_map, inc, inc_map) in &cases {
        assert_eq!(brute.positions, inc.positions, "{name}: positions differ");
        assert_eq!(
            brute.forced_duplicates, inc.forced_duplicates,
            "{name}: duplicate fallback differs"
        );
        let brute_bits: Vec<u64> = brute.mean_after_each.iter().map(|m| m.to_bits()).collect();
        let inc_bits: Vec<u64> = inc.mean_after_each.iter().map(|m| m.to_bits()).collect();
        assert_eq!(
            brute_bits, inc_bits,
            "{name}: mean-error trajectory differs"
        );
        assert_maps_bit_identical(brute_map, inc_map, name);
        // The run is long enough that beacons actually spread out.
        let distinct: std::collections::HashSet<_> = brute
            .positions
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        assert!(distinct.len() > 1, "{name}: degenerate run");
    }
}

fn seeded() -> StdRng {
    StdRng::seed_from_u64(0)
}

/// The index prunes without changing who is heard: a dense query at the
/// terrain center must touch fewer beacons than brute force while the
/// heard list (and its order) stays equal.
#[test]
fn index_prunes_but_preserves_heard_order() {
    let field = dense_field(100, 9);
    let model = IdealDisk::new(RANGE);
    let brute = ConnectivityOracle::new(&field, &model);
    let index = ConnectivityOracle::build_index(&field, &model);
    let indexed = ConnectivityOracle::with_index(&field, &model, &index);
    for at in [
        Point::new(SIDE / 2.0, SIDE / 2.0),
        Point::new(0.0, 0.0),
        Point::new(SIDE, SIDE / 3.0),
    ] {
        assert_eq!(brute.heard(at), indexed.heard(at), "at {at}");
    }
    // Pruning is observable through the cell telemetry: a reach-sized
    // query on a 100 m terrain covers at most 3x3 of the ~7x7 cells.
    let pruned = index.for_each_within(Point::new(SIDE / 2.0, SIDE / 2.0), RANGE, |_| {});
    assert!(pruned > 0, "center query should prune cells");
}

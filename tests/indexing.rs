//! Cross-crate bit-identity guarantees at a scale where pruning matters:
//! the production survey sweep (which skips `connected` inside each
//! beacon's guaranteed core) against the point-major oracle, the
//! connectivity oracle behind the localizers against brute force, the
//! Grid scorer's row-subtotal table against the per-rectangle sum, and
//! greedy placement against the paper's direct sums.

use abp_fault::{BurstPlan, FaultPlan, MortalityPlan};
use abp_field::BeaconField;
use abp_geom::{Lattice, Point, Terrain};
use abp_localize::{CentroidLocalizer, ConnectivityOracle, Localizer, UnheardPolicy};
use abp_placement::{
    greedy_batch, pick_unoccupied, GreedyBatchOutcome, GridPlacement, MaxPlacement,
    PlacementAlgorithm,
};
use abp_radio::{IdealDisk, NoiseStyle, PerBeaconNoise, Propagation, TxId};
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

/// Forwards every query to the wrapped model except `core_range`, which
/// keeps the trait's default `None`: every point in reach asks
/// `connected`.
struct NoCore<M>(M);

impl<M: Propagation> Propagation for NoCore<M> {
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool {
        self.0.connected(tx, tx_pos, rx)
    }
    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64 {
        self.0.max_range(tx, tx_pos)
    }
    fn nominal_range(&self) -> f64 {
        self.0.nominal_range()
    }
}

/// The survey models every identity check runs: the all-core ideal
/// disk, each noise style at 0.4 (core plus annulus; the coherent style
/// is all core), a wrapper that claims no core, so every point in reach
/// asks `connected`, and five fault worlds over speckled noise: flapping
/// mortality (the base core for live beacons, none for dead or sleeping
/// ones), a transparent burst (the base core), and three cutting bursts
/// (no core at all): the paper's chain at intensity 0.4, at 0.2, where
/// about half the links survive and each survivor walks 18 or more
/// messages, and at 0.8, where almost every link settles down within a
/// few messages.
fn survey_models() -> Vec<(String, Box<dyn Propagation>)> {
    let noise = || PerBeaconNoise::new(RANGE, 0.4, 11);
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
    models.push(("no core".into(), Box::new(NoCore(noise()))));
    let mortality = FaultPlan {
        mortality: Some(MortalityPlan {
            death_rate: 0.3,
            flap_rate: 0.5,
            duty_cycle: 0.5,
        }),
        ..FaultPlan::none()
    };
    let burst = |x| FaultPlan {
        burst: Some(BurstPlan::paper(x)),
        ..FaultPlan::none()
    };
    for (what, plan, epoch) in [
        ("flapping mortality", mortality, 1),
        ("transparent burst", burst(0.0), 0),
        ("cutting burst", burst(0.4), 0),
        ("light burst", burst(0.2), 1),
        ("heavy burst", burst(0.8), 1),
    ] {
        let world = plan.compile(3).wrap(noise(), epoch);
        models.push((what.into(), Box::new(world)));
    }
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
/// Once the scratch has seen a field and lattice, surveying them again
/// makes no allocator call; growing it on the first pass makes some,
/// so the zero is counted, not assumed.
#[test]
fn scratch_reused_survey_is_bit_identical_to_fresh_at_scale() {
    let policy = UnheardPolicy::TerrainCenter;
    // Vary field size, seed, and lattice step so reuse has to cope with
    // buffers growing and shrinking between trials.
    let worlds: Vec<(BeaconField, Lattice)> =
        [(100, 7, 2.0), (30, 8, 4.0), (120, 9, 2.0), (60, 10, 1.0)]
            .into_iter()
            .map(|(beacons, seed, step)| {
                let lattice = Lattice::new(Terrain::square(SIDE), step);
                (dense_field(beacons, seed), lattice)
            })
            .collect();
    for (what, model) in &survey_models() {
        let mut scratch = SurveyScratch::new();
        let mut growth = 0;
        for (field, lattice) in &worlds {
            let what = format!("{what} n={}", field.len());
            let oracle = ErrorMap::survey_point_major(lattice, field, model, policy);
            let before = abp_trace::thread_snapshot();
            let reused = ErrorMap::survey_indexed_with(lattice, field, model, policy, &mut scratch);
            growth += abp_trace::thread_snapshot().delta_since(before).allocs;
            assert_maps_bit_identical(&oracle, &reused, &what);
            assert_eq!(
                oracle.median_error().to_bits(),
                scratch.median_error(&reused).to_bits(),
                "{what}: median workspace diverged"
            );
            scratch.recycle(reused);
        }
        assert!(
            growth > 0,
            "{what}: a fresh scratch grew without an allocator call"
        );
        let before = abp_trace::thread_snapshot();
        for (field, lattice) in &worlds {
            let reused = ErrorMap::survey_indexed_with(lattice, field, model, policy, &mut scratch);
            std::hint::black_box(scratch.median_error(&reused));
            scratch.recycle(reused);
        }
        let delta = abp_trace::thread_snapshot().delta_since(before);
        assert_eq!(delta.allocs, 0, "{what}: a warmed scratch survey allocated");
    }
}

/// Incremental re-surveys at paper scale, under every survey model: an
/// added beacon lands exactly where the oracle survey of the grown field
/// puts it.
#[test]
fn incremental_updates_are_bit_identical_at_scale() {
    let field = dense_field(100, 21);
    let lattice = Lattice::new(Terrain::square(SIDE), 1.0);
    let policy = UnheardPolicy::TerrainCenter;
    let mut grown = field.clone();
    let id = grown.add_beacon(Point::new(SIDE / 3.0, SIDE / 2.0));
    let beacon = *grown.get(id).expect("beacon just added");
    for (what, model) in &survey_models() {
        let mut map = ErrorMap::survey(&lattice, &field, model, policy);
        map.add_beacon(&beacon, model);
        let oracle = ErrorMap::survey_point_major(&lattice, &grown, model, policy);
        assert_maps_bit_identical(&oracle, &map, &format!("{what}: add vs oracle"));
    }
}

/// Production Grid scores at paper geometry (NG 400 on the 1 m lattice)
/// equal the per-rectangle oracle `GridPlacement::cumulative_errors_direct`
/// bit for bit — on the surveyed map and after each of two beacons
/// `ErrorMap::add_beacon` grows it by — under both unheard policies and
/// with noise.
#[test]
fn grid_scores_match_per_rectangle_oracle_at_paper_scale() {
    let terrain = Terrain::square(SIDE);
    let lattice = Lattice::new(terrain, 1.0);
    let algo = GridPlacement::paper(terrain, RANGE);
    let model = PerBeaconNoise::new(RANGE, 0.3, 5);
    let bits = |scores: &[f64]| -> Vec<u64> { scores.iter().map(|s| s.to_bits()).collect() };
    let oracle = |map: &ErrorMap| bits(&algo.cumulative_errors_direct(map));
    for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
        let mut field = dense_field(40, 13);
        let mut map = ErrorMap::survey(&lattice, &field, &model, policy);
        assert_eq!(
            bits(&algo.cumulative_errors(&map)),
            oracle(&map),
            "{policy:?}"
        );
        for at in [Point::new(62.5, 18.0), Point::new(20.0, 71.5)] {
            let id = field.add_beacon(at);
            map.add_beacon(field.get(id).expect("beacon just added"), &model);
            assert_eq!(
                bits(&algo.cumulative_errors(&map)),
                oracle(&map),
                "{policy:?}: after adding {at}"
            );
        }
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

/// Production greedy placement (`greedy_batch`, which ranks from the
/// Grid row-subtotal table or Max's scan over a map grown by
/// `ErrorMap::add_beacon`) places exactly as a loop built from the
/// paper's direct sums: every round it surveys the grown field point-major
/// and ranks Grid's candidates by `GridPlacement::cumulative_errors_direct`
/// under a full sort on (−score, index), or takes Max's
/// `max_error_point`, then deploys through `pick_unoccupied`. Positions,
/// duplicate fallbacks and mean-error trajectories agree bit for bit, and
/// the production map ends equal to the point-major survey of the grown
/// field.
#[test]
fn incremental_greedy_matches_brute_at_scale() {
    let field = dense_field(100, 42);
    let lattice = Lattice::new(Terrain::square(SIDE), 2.0);
    let model = IdealDisk::new(RANGE);
    let policy = UnheardPolicy::TerrainCenter;
    let k = 8;
    let grid = GridPlacement::paper(Terrain::square(SIDE), RANGE);
    let n = grid.grids_per_side() as usize;
    let grid_direct = |map: &ErrorMap, want: usize| -> Vec<Point> {
        let scores = grid.cumulative_errors_direct(map);
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        order[..want.min(order.len())]
            .iter()
            .map(|&flat| grid.center((flat % n) as u32, (flat / n) as u32))
            .collect()
    };
    let max_direct = |map: &ErrorMap, _: usize| -> Vec<Point> {
        let (ix, _) = map.max_error_point().expect("every point is measured");
        vec![map.lattice().point(ix)]
    };
    // The reference loop: rank from the point-major survey of the field
    // grown so far, deploy, survey again.
    let direct = |rank: &dyn Fn(&ErrorMap, usize) -> Vec<Point>| {
        let mut f = field.clone();
        let mut map = ErrorMap::survey_point_major(&lattice, &f, &model, policy);
        let mut out = GreedyBatchOutcome {
            placed: Vec::new(),
            positions: Vec::new(),
            mean_after_each: Vec::new(),
            forced_duplicates: Vec::new(),
        };
        for round in 0..k {
            let (pos, forced) = pick_unoccupied(&rank(&map, f.len() + 1), &f);
            if forced {
                out.forced_duplicates.push(round);
            }
            out.placed.push(f.add_beacon(pos));
            map = ErrorMap::survey_point_major(&lattice, &f, &model, policy);
            out.positions.push(pos);
            out.mean_after_each.push(map.mean_error());
        }
        out
    };
    let base_map = ErrorMap::survey(&lattice, &field, &model, policy);
    let production = |algo: &dyn PlacementAlgorithm| {
        let (mut f, mut m) = (field.clone(), base_map.clone());
        let out = greedy_batch(algo, &mut m, &mut f, &model, k, &mut seeded());
        let grown = ErrorMap::survey_point_major(&lattice, &f, &model, policy);
        assert_maps_bit_identical(&grown, &m, &format!("{}: final map", algo.name()));
        out
    };
    for (name, got, want) in [
        ("grid", production(&grid), direct(&grid_direct)),
        ("max", production(&MaxPlacement::new()), direct(&max_direct)),
    ] {
        assert_eq!(got.positions, want.positions, "{name}: positions differ");
        assert_eq!(got.placed, want.placed, "{name}: ids differ");
        assert_eq!(
            got.forced_duplicates, want.forced_duplicates,
            "{name}: duplicate fallback differs"
        );
        let bits = |o: &GreedyBatchOutcome| -> Vec<u64> {
            o.mean_after_each.iter().map(|m| m.to_bits()).collect()
        };
        assert_eq!(
            bits(&got),
            bits(&want),
            "{name}: mean-error trajectory differs"
        );
        // The run is long enough that beacons actually spread out.
        let distinct: std::collections::HashSet<_> = got
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
    // Pruning is observable through the candidate list: a query's cell
    // lists the beacons of at most 3x3 of the ~7x7 cells.
    let candidates = index.candidates(Point::new(SIDE / 2.0, SIDE / 2.0));
    assert!(
        candidates.len() < field.len(),
        "center query should skip beacons"
    );
}

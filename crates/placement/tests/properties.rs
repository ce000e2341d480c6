//! Property-based tests for the placement algorithms.

use abp_field::BeaconField;
use abp_geom::{Lattice, Point, Terrain};
use abp_localize::UnheardPolicy;
use abp_placement::{
    greedy_batch, GridPlacement, LocusBreakPlacement, MaxPlacement, PlacementAlgorithm,
    RandomPlacement, SurveyView, WeightedGridPlacement,
};
use abp_radio::{IdealDisk, PerBeaconNoise};
use abp_survey::ErrorMap;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: f64 = 100.0;

fn terrain() -> Terrain {
    Terrain::square(SIDE)
}

fn survey(n: usize, seed: u64, noise: f64) -> (BeaconField, PerBeaconNoise, ErrorMap) {
    let lattice = Lattice::new(terrain(), 5.0);
    let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
    let model = PerBeaconNoise::new(15.0, noise, seed ^ 0xF00D);
    let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
    (field, model, map)
}

/// Lattice steps and grid counts the Grid contract tests draw from: an
/// exact 1 m lattice, steps that do not divide the band widths evenly,
/// and every perfect-square `NG` from one grid to the paper's 400.
const STEPS: [f64; 5] = [1.0, 2.0, 3.0, 5.0, 7.0];
const GRID_COUNTS: [usize; 5] = [1, 4, 16, 100, 400];

/// A Grid scenario: a field of `n` beacons surveyed on the `step`-th
/// lattice under either unheard policy, noise 0 or 0.3, with the
/// `grids`-th grid count.
fn grid_case(
    step: usize,
    grids: usize,
    exclude: bool,
    noisy: bool,
    n: usize,
    seed: u64,
) -> (BeaconField, PerBeaconNoise, ErrorMap, GridPlacement) {
    let lattice = Lattice::new(terrain(), STEPS[step]);
    let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
    let noise = if noisy { 0.3 } else { 0.0 };
    let model = PerBeaconNoise::new(15.0, noise, seed ^ 0xBEEF);
    let policy = if exclude {
        UnheardPolicy::Exclude
    } else {
        UnheardPolicy::TerrainCenter
    };
    let map = ErrorMap::survey(&lattice, &field, &model, policy);
    let grid = GridPlacement::new(terrain(), 15.0, GRID_COUNTS[grids]);
    (field, model, map, grid)
}

/// The per-rectangle oracle's scores, as bits.
fn oracle_bits(g: &GridPlacement, map: &ErrorMap) -> Vec<u64> {
    bits(&g.cumulative_errors_direct(map))
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// The reference ranking: every grid fully sorted by (−score, index),
/// the first `k` mapped to their centers.
fn full_sort_centers(g: &GridPlacement, scores: &[f64], k: usize) -> Vec<Point> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
    let n = g.grids_per_side() as usize;
    order[..k]
        .iter()
        .map(|&flat| g.center((flat % n) as u32, (flat / n) as u32))
        .collect()
}

fn all_algorithms() -> Vec<Box<dyn PlacementAlgorithm>> {
    vec![
        Box::new(RandomPlacement::new(terrain())),
        Box::new(MaxPlacement::new()),
        Box::new(GridPlacement::paper(terrain(), 15.0)),
        Box::new(WeightedGridPlacement::paper(terrain(), 15.0)),
        Box::new(LocusBreakPlacement::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn proposals_always_inside_terrain(
        n in 0usize..120, seed in any::<u64>(), noise in 0.0..0.6f64
    ) {
        let (field, model, map) = survey(n, seed, noise);
        let view = SurveyView { map: &map, field: &field, model: &model };
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        for algo in all_algorithms() {
            let p = algo.propose(&view, &mut rng);
            prop_assert!(terrain().contains(p), "{} proposed {p}", algo.name());
            prop_assert!(p.is_finite());
        }
    }

    #[test]
    fn deterministic_algorithms_ignore_rng(
        n in 0usize..80, seed in any::<u64>(), noise in 0.0..0.6f64,
        s1 in any::<u64>(), s2 in any::<u64>()
    ) {
        let (field, model, map) = survey(n, seed, noise);
        let view = SurveyView { map: &map, field: &field, model: &model };
        for algo in [
            Box::new(MaxPlacement::new()) as Box<dyn PlacementAlgorithm>,
            Box::new(GridPlacement::paper(terrain(), 15.0)),
            Box::new(WeightedGridPlacement::paper(terrain(), 15.0)),
            Box::new(LocusBreakPlacement::new()),
        ] {
            let a = algo.propose(&view, &mut StdRng::seed_from_u64(s1));
            let b = algo.propose(&view, &mut StdRng::seed_from_u64(s2));
            prop_assert_eq!(a, b, "{} is not rng-independent", algo.name());
        }
    }

    #[test]
    fn max_proposal_has_the_worst_error(n in 1usize..80, seed in any::<u64>()) {
        let (field, model, map) = survey(n, seed, 0.0);
        let view = SurveyView { map: &map, field: &field, model: &model };
        let p = MaxPlacement::new().propose(&view, &mut StdRng::seed_from_u64(0));
        let lattice = map.lattice();
        let picked = map.error_at(lattice.nearest(p)).unwrap();
        for ix in lattice.indices() {
            prop_assert!(map.error_at(ix).unwrap() <= picked + 1e-9);
        }
    }

    #[test]
    fn grid_proposal_has_the_highest_cumulative_score(
        n in 0usize..80, seed in any::<u64>(), noise in 0.0..0.6f64
    ) {
        let (field, model, map) = survey(n, seed, noise);
        let view = SurveyView { map: &map, field: &field, model: &model };
        let g = GridPlacement::paper(terrain(), 15.0);
        let p = g.propose(&view, &mut StdRng::seed_from_u64(0));
        let scores = g.cumulative_errors(&map);
        let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let picked = map.cumulative_error_in(
            &abp_geom::Rect::square_centered(p, g.grid_side()),
        );
        prop_assert_eq!(picked.to_bits(), best.to_bits());
    }

    /// The row-subtotal table behind `cumulative_errors` gives every grid
    /// the exact bits of the per-rectangle oracle, on the surveyed map and
    /// after each beacon `ErrorMap::add_beacon` grows it by.
    #[test]
    fn grid_table_scores_equal_the_per_rectangle_oracle(
        step in 0usize..5, grids in 0usize..5, exclude in any::<bool>(),
        noisy in any::<bool>(), n in 0usize..81, seed in any::<u64>(),
        updates in prop::collection::vec((0.0..SIDE, 0.0..SIDE), 1..5)
    ) {
        let (mut field, model, mut map, g) = grid_case(step, grids, exclude, noisy, n, seed);
        prop_assert_eq!(bits(&g.cumulative_errors(&map)), oracle_bits(&g, &map));
        for (x, y) in updates {
            let id = field.add_beacon(Point::new(x, y));
            map.add_beacon(field.get(id).unwrap(), &model);
            prop_assert_eq!(bits(&g.cumulative_errors(&map)), oracle_bits(&g, &map));
        }
    }

    /// `propose_top_k` returns the first `k` of a full sort by
    /// (−score, index), for the argmax, small `k`, and every grid.
    #[test]
    fn grid_picks_equal_a_full_sort(
        step in 0usize..5, grids in 0usize..5, exclude in any::<bool>(),
        noisy in any::<bool>(), n in 0usize..81, seed in any::<u64>()
    ) {
        let (_, _, map, g) = grid_case(step, grids, exclude, noisy, n, seed);
        let scores = g.cumulative_errors(&map);
        for k in [1, 2, 7, g.num_grids()] {
            if k > g.num_grids() {
                continue;
            }
            let want = full_sort_centers(&g, &scores, k);
            prop_assert_eq!(&g.propose_top_k(&map, k), &want, "propose_top_k({})", k);
        }
    }

    #[test]
    fn grid_never_proposes_into_saturated_regions_over_holes(
        seed in any::<u64>()
    ) {
        // One half of the terrain fully covered, the other empty: Grid
        // must propose in the empty half.
        let mut positions = Vec::new();
        for j in 0..10 {
            for i in 0..5 {
                positions.push(Point::new(5.0 + i as f64 * 10.0, 5.0 + j as f64 * 10.0));
            }
        }
        let field = BeaconField::from_positions(terrain(), positions);
        let model = IdealDisk::new(15.0);
        let lattice = Lattice::new(terrain(), 5.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let view = SurveyView { map: &map, field: &field, model: &model };
        let p = GridPlacement::paper(terrain(), 15.0)
            .propose(&view, &mut StdRng::seed_from_u64(seed));
        prop_assert!(p.x > 50.0, "grid proposed into the covered half: {p}");
    }

    #[test]
    fn greedy_batch_monotone_and_consistent(
        n in 1usize..40, seed in any::<u64>(), k in 0usize..5
    ) {
        let lattice = Lattice::new(terrain(), 5.0);
        let mut field =
            BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let model = IdealDisk::new(15.0);
        let mut map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let before = map.mean_error();
        let outcome = greedy_batch(
            &GridPlacement::paper(terrain(), 15.0),
            &mut map,
            &mut field,
            &model,
            k,
            &mut StdRng::seed_from_u64(seed ^ 2),
        );
        prop_assert_eq!(outcome.placed.len(), k);
        prop_assert_eq!(field.len(), n + k);
        // Near-monotone: a new beacon can slightly worsen individual
        // points (it pulls nearby centroids toward itself), so allow a
        // small per-step regression.
        let mut prev = before;
        for &m in &outcome.mean_after_each {
            prop_assert!(m <= prev + 0.25, "mean rose {prev} -> {m}");
            prev = m;
        }
        // In-place map equals fresh survey.
        let fresh = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        prop_assert!((map.mean_error() - fresh.mean_error()).abs() < 1e-9);
    }

    #[test]
    fn adding_any_algorithms_pick_never_hurts_mean_error_ideal(
        n in 1usize..60, seed in any::<u64>()
    ) {
        // Under the ideal model with TerrainCenter policy, a new beacon
        // can locally perturb individual points, but the Grid pick must
        // not *increase* the mean error (it targets the worst region).
        let (mut field, _, _) = survey(n, seed, 0.0);
        let model = IdealDisk::new(15.0);
        let lattice = Lattice::new(terrain(), 5.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let view = SurveyView { map: &map, field: &field, model: &model };
        let p = GridPlacement::paper(terrain(), 15.0)
            .propose(&view, &mut StdRng::seed_from_u64(0));
        let before = map.mean_error();
        let id = field.add_beacon(p);
        let mut after = map.clone();
        after.add_beacon(field.get(id).unwrap(), &model);
        prop_assert!(after.mean_error() <= before + 0.25,
            "grid pick raised mean error {} -> {}", before, after.mean_error());
    }
}

/// An all-tied map — nothing heard and every point excluded, so every
/// grid scores 0.0 — ranks the grids in row-major order, whatever `k`.
#[test]
fn all_tied_grids_rank_in_row_major_order() {
    let lattice = Lattice::new(terrain(), 5.0);
    let field = BeaconField::new(terrain());
    let model = IdealDisk::new(15.0);
    let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::Exclude);
    for grids in GRID_COUNTS {
        let g = GridPlacement::new(terrain(), 15.0, grids);
        assert!(g.cumulative_errors(&map).iter().all(|s| s.to_bits() == 0));
        let row_major: Vec<Point> = g.centers().collect();
        for k in [1, 2, 7, grids] {
            let k = k.min(grids);
            assert_eq!(
                g.propose_top_k(&map, k),
                row_major[..k],
                "NG {grids}, k {k}"
            );
        }
    }
}

//! Multi-beacon placement (paper §6).
//!
//! "We also plan to evaluate the algorithms with respect to the gains
//! obtained when several beacons are added at once (instead of just one
//! beacon)." Two strategies are provided:
//!
//! * **one-shot top-k** — rank candidates from a single survey
//!   ([`GridPlacement::propose_top_k`](crate::GridPlacement::propose_top_k));
//!   cheap (one survey) but the k-th beacon cannot account for the first
//!   k−1;
//! * **greedy with re-measurement** ([`greedy_batch`]) — after each
//!   placement, incrementally re-survey and re-run the algorithm; costs k
//!   incremental updates but each beacon reacts to the previous ones.
//!
//! `abp batch` (the `multi-beacon` figure) compares the two.

use crate::{PlacementAlgorithm, SurveyView};
use abp_field::{BeaconField, BeaconId};
use abp_geom::Point;
use abp_radio::Propagation;
use abp_survey::ErrorMap;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Result of a greedy multi-beacon placement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GreedyBatchOutcome {
    /// Ids of the beacons that were added, in placement order.
    pub placed: Vec<BeaconId>,
    /// The proposed positions, in placement order.
    pub positions: Vec<Point>,
    /// Mean error after each placement (length k), starting from the first
    /// added beacon.
    pub mean_after_each: Vec<f64>,
    /// Rounds (0-based) in which **every** ranked candidate coincided with
    /// an already-deployed beacon and the top candidate was re-used
    /// anyway. Empty in healthy runs; a non-empty list means the
    /// algorithm ran out of distinct proposals and the corresponding
    /// beacons stack on occupied spots.
    pub forced_duplicates: Vec<usize>,
}

/// Candidates closer than this to a deployed beacon count as occupied.
pub(crate) const DUPLICATE_EPS: f64 = 1e-9;

/// Picks the first candidate not occupied by a deployed beacon, or —
/// explicitly, as a last resort — the top candidate when every proposal
/// is occupied. Returns `(position, forced_duplicate)`.
///
/// This is [`greedy_batch`]'s deployment step. It is public so a harness
/// can mirror the greedy loop exactly: the candidate-scan bench does, to
/// time only the scan phase, and so does the test that checks greedy
/// placement against the paper's direct sums.
///
/// # Panics
///
/// Panics if `candidates` is empty: every [`PlacementAlgorithm`] is
/// required to propose at least one position.
pub fn pick_unoccupied(candidates: &[Point], field: &BeaconField) -> (Point, bool) {
    let occupied = |c: &Point| {
        field
            .nearest_distance(*c)
            .is_some_and(|d| d <= DUPLICATE_EPS)
    };
    match candidates.iter().find(|c| !occupied(c)) {
        Some(&p) => (p, false),
        None => {
            let &top = candidates
                .first()
                .expect("placement algorithm proposed no candidates");
            (top, true)
        }
    }
}

/// Greedily places `k` beacons: propose → deploy → incremental re-survey →
/// repeat. The map and field are updated in place; the model must be the
/// one the map was surveyed under.
///
/// Candidates that coincide with an already-deployed beacon are skipped
/// (via [`PlacementAlgorithm::propose_ranked`]): with score-based
/// algorithms like Grid, a region whose residual error is dominated by
/// *unreachable* points (e.g. terrain corners beyond any grid center's
/// range) can stay the argmax forever, and naive repetition would stack
/// useless duplicates on the same spot. When every ranked candidate is
/// occupied the top candidate is re-used and the round is recorded in
/// [`GreedyBatchOutcome::forced_duplicates`] — the fallback is explicit
/// in the outcome, never silent.
///
/// Returns the placement trace. With `k = 0` nothing changes.
///
/// # Example
///
/// ```
/// use abp_field::BeaconField;
/// use abp_geom::{Lattice, Point, Terrain};
/// use abp_localize::UnheardPolicy;
/// use abp_placement::{greedy_batch, GridPlacement};
/// use abp_radio::IdealDisk;
/// use abp_survey::ErrorMap;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let terrain = Terrain::square(100.0);
/// let lattice = Lattice::new(terrain, 5.0);
/// let mut field = BeaconField::from_positions(terrain, [Point::new(10.0, 10.0)]);
/// let model = IdealDisk::new(15.0);
/// let mut map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
/// let before = map.mean_error();
///
/// let algo = GridPlacement::paper(terrain, 15.0);
/// let mut rng = StdRng::seed_from_u64(3);
/// let outcome = greedy_batch(&algo, &mut map, &mut field, &model, 3, &mut rng);
/// assert_eq!(outcome.placed.len(), 3);
/// assert!(map.mean_error() < before);
/// ```
pub fn greedy_batch<A: PlacementAlgorithm + ?Sized>(
    algorithm: &A,
    map: &mut ErrorMap,
    field: &mut BeaconField,
    model: &dyn Propagation,
    k: usize,
    rng: &mut dyn RngCore,
) -> GreedyBatchOutcome {
    let mut placed = Vec::with_capacity(k);
    let mut positions = Vec::with_capacity(k);
    let mut mean_after_each = Vec::with_capacity(k);
    let mut forced_duplicates = Vec::new();
    for round in 0..k {
        let (pos, forced) = {
            let view = SurveyView { map, field, model };
            // Ask for enough alternatives to step past every occupied
            // candidate in the worst case.
            let candidates = algorithm.propose_ranked(&view, field.len() + 1, rng);
            pick_unoccupied(&candidates, field)
        };
        if forced {
            forced_duplicates.push(round);
        }
        let id = field.add_beacon(pos);
        let beacon = *field.get(id).expect("beacon just added");
        map.add_beacon(&beacon, model);
        placed.push(id);
        positions.push(pos);
        mean_after_each.push(map.mean_error());
    }
    GreedyBatchOutcome {
        placed,
        positions,
        mean_after_each,
        forced_duplicates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridPlacement, MaxPlacement, RandomPlacement};
    use abp_geom::{Lattice, Terrain};
    use abp_localize::UnheardPolicy;
    use abp_radio::IdealDisk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    fn setup(seed: u64, n: usize) -> (Lattice, BeaconField, IdealDisk, ErrorMap) {
        let lattice = Lattice::new(terrain(), 4.0);
        let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        (lattice, field, model, map)
    }

    #[test]
    fn zero_k_is_a_noop() {
        let (_, mut field, model, mut map) = setup(1, 20);
        let before = map.clone();
        let n = field.len();
        let outcome = greedy_batch(
            &MaxPlacement::new(),
            &mut map,
            &mut field,
            &model,
            0,
            &mut StdRng::seed_from_u64(0),
        );
        assert!(outcome.placed.is_empty());
        assert_eq!(field.len(), n);
        assert_eq!(map, before);
    }

    #[test]
    fn places_k_beacons_and_updates_map() {
        let (lattice, mut field, model, mut map) = setup(2, 15);
        let outcome = greedy_batch(
            &GridPlacement::paper(terrain(), 15.0),
            &mut map,
            &mut field,
            &model,
            4,
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(outcome.placed.len(), 4);
        assert_eq!(field.len(), 19);
        // The in-place map equals a fresh survey of the extended field.
        let fresh = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        for ix in lattice.indices() {
            assert!((map.error_at(ix).unwrap() - fresh.error_at(ix).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn mean_error_is_monotone_under_greedy_grid() {
        let (_, mut field, model, mut map) = setup(3, 10);
        let before = map.mean_error();
        let outcome = greedy_batch(
            &GridPlacement::paper(terrain(), 15.0),
            &mut map,
            &mut field,
            &model,
            5,
            &mut StdRng::seed_from_u64(0),
        );
        // Near-monotone: each placement targets the worst region, but a
        // new beacon may slightly perturb nearby estimates.
        let mut prev = before;
        for &m in &outcome.mean_after_each {
            assert!(m <= prev + 0.25, "mean error rose: {prev} -> {m}");
            prev = m;
        }
        assert!(*outcome.mean_after_each.last().unwrap() < before);
    }

    #[test]
    fn greedy_grid_spreads_beacons_apart() {
        // With re-measurement, consecutive Grid picks avoid piling onto
        // the same spot.
        let (_, mut field, model, mut map) = setup(4, 5);
        let outcome = greedy_batch(
            &GridPlacement::paper(terrain(), 15.0),
            &mut map,
            &mut field,
            &model,
            3,
            &mut StdRng::seed_from_u64(0),
        );
        for (a, pa) in outcome.positions.iter().enumerate() {
            for pb in &outcome.positions[a + 1..] {
                assert!(
                    pa.distance(*pb) > 5.0,
                    "greedy picks {pa} and {pb} collapsed"
                );
            }
        }
    }

    #[test]
    fn greedy_beats_oneshot_topk_for_grid() {
        // The experiment the paper proposes: greedy re-measurement should
        // match or beat one-shot top-k (averaged over seeds).
        let model = IdealDisk::new(15.0);
        let lattice = Lattice::new(terrain(), 4.0);
        let algo = GridPlacement::paper(terrain(), 15.0);
        let k = 4;
        let mut greedy_total = 0.0;
        let mut oneshot_total = 0.0;
        for seed in 0..8 {
            let base = BeaconField::random_uniform(20, terrain(), &mut StdRng::seed_from_u64(seed));
            let base_map = ErrorMap::survey(&lattice, &base, &model, UnheardPolicy::TerrainCenter);
            let before = base_map.mean_error();

            let mut gf = base.clone();
            let mut gm = base_map.clone();
            greedy_batch(
                &algo,
                &mut gm,
                &mut gf,
                &model,
                k,
                &mut StdRng::seed_from_u64(0),
            );
            greedy_total += before - gm.mean_error();

            let mut of = base.clone();
            let mut om = base_map.clone();
            for p in algo.propose_top_k(&base_map, k) {
                let id = of.add_beacon(p);
                om.add_beacon(of.get(id).unwrap(), &model);
            }
            oneshot_total += before - om.mean_error();
        }
        assert!(
            greedy_total >= oneshot_total * 0.95,
            "greedy ({greedy_total}) should not lose to one-shot ({oneshot_total})"
        );
    }

    #[test]
    fn healthy_runs_record_no_forced_duplicates() {
        let (_, mut field, model, mut map) = setup(6, 15);
        let outcome = greedy_batch(
            &GridPlacement::paper(terrain(), 15.0),
            &mut map,
            &mut field,
            &model,
            4,
            &mut StdRng::seed_from_u64(0),
        );
        assert!(outcome.forced_duplicates.is_empty());
    }

    /// An adversarial algorithm that always proposes the same point, no
    /// matter how many alternatives are requested.
    struct StuckAlgorithm(Point);

    impl PlacementAlgorithm for StuckAlgorithm {
        fn name(&self) -> &'static str {
            "stuck"
        }

        fn propose(&self, _view: &SurveyView<'_>, _rng: &mut dyn RngCore) -> Point {
            self.0
        }

        fn propose_ranked(
            &self,
            _view: &SurveyView<'_>,
            _k: usize,
            _rng: &mut dyn RngCore,
        ) -> Vec<Point> {
            vec![self.0]
        }
    }

    #[test]
    fn exhausted_candidates_fall_back_explicitly() {
        // The spot is already occupied, so every round is forced onto it
        // — and each forced round is recorded, not silently swallowed.
        let spot = Point::new(50.0, 50.0);
        let lattice = Lattice::new(terrain(), 4.0);
        let mut field = BeaconField::from_positions(terrain(), [spot]);
        let model = IdealDisk::new(15.0);
        let mut map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let outcome = greedy_batch(
            &StuckAlgorithm(spot),
            &mut map,
            &mut field,
            &model,
            3,
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(outcome.positions, vec![spot; 3]);
        assert_eq!(outcome.forced_duplicates, vec![0, 1, 2]);
    }

    #[test]
    fn unoccupied_candidate_is_never_a_forced_duplicate() {
        let spot = Point::new(50.0, 50.0);
        let free = Point::new(20.0, 20.0);
        let field = BeaconField::from_positions(terrain(), [spot]);
        // First candidate occupied, second free: the pick steps past the
        // occupied one and nothing is forced.
        let (pos, forced) = pick_unoccupied(&[spot, free], &field);
        assert_eq!(pos, free);
        assert!(!forced);
        // Only occupied candidates: explicit forced fallback to the top.
        let (pos, forced) = pick_unoccupied(&[spot], &field);
        assert_eq!(pos, spot);
        assert!(forced);
    }

    #[test]
    #[should_panic(expected = "proposed no candidates")]
    fn empty_candidate_list_panics_loudly() {
        let field = BeaconField::new(terrain());
        let _ = pick_unoccupied(&[], &field);
    }

    #[test]
    fn works_with_random_algorithm_too() {
        let (_, mut field, model, mut map) = setup(5, 10);
        let outcome = greedy_batch(
            &RandomPlacement::new(terrain()),
            &mut map,
            &mut field,
            &model,
            3,
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(outcome.placed.len(), 3);
        for p in &outcome.positions {
            assert!(terrain().contains(*p));
        }
    }
}

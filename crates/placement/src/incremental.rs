//! Incremental candidate scoring for greedy multi-beacon placement.
//!
//! [`greedy_batch`](crate::greedy_batch) re-runs its placement algorithm
//! after every beacon it deploys. For the score-based algorithms that is
//! wasteful: a new beacon only changes the error map inside its own
//! reach (the [`SurveyDelta`] returned by
//! [`ErrorMap::add_beacon`]), yet the Grid algorithm rebuilds its whole
//! row-subtotal table and re-scores all `NG` grids, and the Max algorithm
//! rescans every lattice point, each round.
//!
//! The scorers in this module cache the previous round's audibility-
//! derived scores and, on [`IncrementalScorer::apply_delta`], re-derive
//! only the candidates whose supporting region intersects the delta.
//! Everything else is reused verbatim, and the split is reported through
//! two counters: [`CANDIDATES_SCANNED`](crate::CANDIDATES_SCANNED)
//! (candidates re-scored this update) and
//! [`CELLS_PRUNED`](crate::CELLS_PRUNED) (candidates served from cache).
//!
//! # Determinism
//!
//! The cached scores are **bit-identical** to their brute-force
//! counterparts, not merely close:
//!
//! * [`IncrementalGrid`] keeps the table of per-lattice-row subtotals
//!   that [`GridPlacement::cumulative_errors`] builds (the association
//!   [`ErrorMap::cumulative_error_in`] documents: left-to-right within a
//!   row via [`ErrorMap::row_error_sum`], rows added bottom-to-top) and
//!   refills it with the same code, so a refreshed grid score
//!   reproduces [`GridPlacement::cumulative_errors`] bit for bit, and it
//!   ranks through the same pick as [`GridPlacement::propose_top_k`];
//! * [`IncrementalMax`] keeps one `(column, error)` maximum per lattice
//!   row under the same strict-`>` comparison
//!   [`ErrorMap::max_error_point`] uses, so the argmax (and its
//!   first-in-row-major tie-break) is reproduced exactly.
//!
//! Consequently [`greedy_batch_incremental`] places beacons at the
//! **same positions** as [`greedy_batch`](crate::greedy_batch) with the
//! corresponding brute-force algorithm — a property the test suite and
//! the `bench` CLI's identical-output check both assert.
//!
//! # Examples
//!
//! ```
//! use abp_field::BeaconField;
//! use abp_geom::{Lattice, Terrain};
//! use abp_localize::UnheardPolicy;
//! use abp_placement::{greedy_batch_incremental, GridPlacement, IncrementalGrid};
//! use abp_radio::IdealDisk;
//! use abp_survey::ErrorMap;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let terrain = Terrain::square(100.0);
//! let lattice = Lattice::new(terrain, 5.0);
//! let mut field =
//!     BeaconField::random_uniform(10, terrain, &mut StdRng::seed_from_u64(7));
//! let model = IdealDisk::new(15.0);
//! let mut map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
//! let before = map.mean_error();
//!
//! let algo = GridPlacement::paper(terrain, 15.0);
//! let mut scorer = IncrementalGrid::new(algo, &map);
//! let outcome = greedy_batch_incremental(&mut scorer, &mut map, &mut field, &model, 3);
//! assert_eq!(outcome.placed.len(), 3);
//! assert!(map.mean_error() < before);
//! ```

use crate::grid::RowTable;
use crate::{GreedyBatchOutcome, GridPlacement};
use abp_field::BeaconField;
use abp_geom::{LatticeIndex, Point};
use abp_radio::Propagation;
use abp_survey::{ErrorMap, SurveyDelta};

/// A placement scorer that keeps per-candidate scores cached across
/// survey updates and refreshes only the region a [`SurveyDelta`]
/// touched.
///
/// Implementations must be *bit-identical* to the brute-force algorithm
/// they accelerate: after any sequence of [`apply_delta`] calls,
/// [`ranked`] must return exactly the positions the brute algorithm
/// would propose on the same map.
///
/// [`apply_delta`]: IncrementalScorer::apply_delta
/// [`ranked`]: IncrementalScorer::ranked
pub trait IncrementalScorer {
    /// Short identifier, e.g. `"grid-incremental"`.
    fn name(&self) -> &'static str;

    /// Refreshes the cached scores after `map` absorbed an incremental
    /// survey update that reported `delta`. The map must be the same
    /// one the scorer was built over, already updated.
    fn apply_delta(&mut self, map: &ErrorMap, delta: SurveyDelta);

    /// The top `k` candidate positions, best first, replicating the
    /// brute-force algorithm's ordering and tie-breaks exactly.
    fn ranked(&self, map: &ErrorMap, k: usize) -> Vec<Point>;
}

/// Incremental version of the paper's Grid algorithm
/// ([`GridPlacement`]).
///
/// Keeps the row-subtotal table [`GridPlacement::cumulative_errors`]
/// builds — for every (grid-column band `i`, lattice row `j`) pair,
/// [`ErrorMap::row_error_sum`]`(j, i_lo, i_hi)` over the band's
/// lattice-column span — plus the resulting per-grid scores. A
/// [`SurveyDelta`] refills, with the same code that filled the table,
/// only the changed rows of the bands whose column span meets the
/// changed columns, and re-scores only the grids of those bands whose
/// row span meets the changed rows; every other grid keeps its cached
/// score.
/// [`ranked`](IncrementalScorer::ranked) picks from the cached scores
/// exactly as [`GridPlacement::propose_top_k`] picks from fresh ones.
///
/// Per update this costs `O(bands_hit · rows_hit · span)` instead of
/// rebuilding the whole table; the saving is reported via
/// [`CELLS_PRUNED`](crate::CELLS_PRUNED).
///
/// # Examples
///
/// ```
/// use abp_field::BeaconField;
/// use abp_geom::{Lattice, Point, Terrain};
/// use abp_localize::UnheardPolicy;
/// use abp_placement::{GridPlacement, IncrementalGrid, IncrementalScorer};
/// use abp_radio::IdealDisk;
/// use abp_survey::ErrorMap;
///
/// let terrain = Terrain::square(100.0);
/// let lattice = Lattice::new(terrain, 5.0);
/// let mut field = BeaconField::from_positions(terrain, [Point::new(20.0, 20.0)]);
/// let model = IdealDisk::new(15.0);
/// let mut map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
///
/// let algo = GridPlacement::paper(terrain, 15.0);
/// let mut scorer = IncrementalGrid::new(algo, &map);
/// // The cached ranking equals the brute-force one...
/// assert_eq!(scorer.ranked(&map, 1), algo.propose_top_k(&map, 1));
/// // ...and stays equal across an incremental update.
/// let id = field.add_beacon(Point::new(70.0, 70.0));
/// let beacon = *field.get(id).unwrap();
/// let delta = map.add_beacon(&beacon, &model);
/// scorer.apply_delta(&map, delta);
/// assert_eq!(scorer.ranked(&map, 1), algo.propose_top_k(&map, 1));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalGrid {
    algo: GridPlacement,
    table: RowTable,
    /// Cached grid scores, row-major (`flat = j * per_side + i`) — the
    /// same layout as [`GridPlacement::cumulative_errors`].
    scores: Vec<f64>,
}

impl IncrementalGrid {
    /// Builds the cache with a full scan of `map` (counted once against
    /// [`CANDIDATES_SCANNED`](crate::CANDIDATES_SCANNED)).
    pub fn new(algo: GridPlacement, map: &ErrorMap) -> Self {
        let table = RowTable::new(&algo, map);
        let scores = table.scores();
        crate::CANDIDATES_SCANNED.add(algo.num_grids() as u64);
        IncrementalGrid {
            algo,
            table,
            scores,
        }
    }

    /// The algorithm this scorer accelerates.
    #[inline]
    pub fn algorithm(&self) -> &GridPlacement {
        &self.algo
    }

    /// The cached per-grid scores, row-major — bit-identical to
    /// [`GridPlacement::cumulative_errors`] on the current map.
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }
}

impl IncrementalScorer for IncrementalGrid {
    fn name(&self) -> &'static str {
        "grid-incremental"
    }

    fn apply_delta(&mut self, map: &ErrorMap, delta: SurveyDelta) {
        let _span = abp_trace::span!("placement.grid_incremental");
        let num_grids = self.algo.num_grids() as u64;
        let Some((lo, hi)) = delta.changed else {
            crate::CELLS_PRUNED.add(num_grids);
            return;
        };
        let (cols, rows) = ((lo.i, hi.i), (lo.j, hi.j));
        self.table.refill(map, cols, rows);
        let n = self.algo.grids_per_side() as usize;
        let mut rescored = 0u64;
        for j in (0..n).filter(|&j| self.table.row_meets(j, rows)) {
            for i in (0..n).filter(|&i| self.table.band_meets(i, cols)) {
                self.scores[j * n + i] = self.table.score(i, j);
                rescored += 1;
            }
        }
        crate::CANDIDATES_SCANNED.add(rescored);
        crate::CELLS_PRUNED.add(num_grids - rescored);
    }

    fn ranked(&self, _map: &ErrorMap, k: usize) -> Vec<Point> {
        self.algo
            .best_centers(&self.scores, k.clamp(1, self.algo.num_grids()))
    }
}

/// Incremental version of the paper's Max algorithm
/// ([`MaxPlacement`](crate::MaxPlacement)).
///
/// Caches one `(column, error)` maximum per lattice row, maintained
/// under the same strict-`>` comparison as
/// [`ErrorMap::max_error_point`]; a [`SurveyDelta`] re-scans only the
/// changed rows. The global argmax is then the strict-`>` maximum over
/// the per-row maxima in ascending row order, which reproduces the
/// brute scan's first-in-row-major tie-break exactly.
#[derive(Debug, Clone)]
pub struct IncrementalMax {
    /// Per lattice row `j`: the best valid point `(i, error)`, or
    /// `None` when the whole row is excluded.
    row_best: Vec<Option<(u32, f64)>>,
}

impl IncrementalMax {
    /// Builds the cache with a full scan of `map` (counted once against
    /// [`CANDIDATES_SCANNED`](crate::CANDIDATES_SCANNED)).
    pub fn new(map: &ErrorMap) -> Self {
        let rows = map.lattice().per_side();
        let mut scorer = IncrementalMax {
            row_best: vec![None; rows as usize],
        };
        for j in 0..rows {
            scorer.rescan_row(map, j);
        }
        crate::CANDIDATES_SCANNED.add(map.len() as u64);
        scorer
    }

    fn rescan_row(&mut self, map: &ErrorMap, j: u32) {
        let mut best: Option<(u32, f64)> = None;
        for i in 0..map.lattice().per_side() {
            if let Some(e) = map.error_at(LatticeIndex { i, j }) {
                if best.map_or(true, |(_, be)| e > be) {
                    best = Some((i, e));
                }
            }
        }
        self.row_best[j as usize] = best;
    }

    /// The current argmax, or `None` when every point is excluded —
    /// equals [`ErrorMap::max_error_point`] on the current map.
    pub fn max_error_point(&self) -> Option<(LatticeIndex, f64)> {
        let mut best: Option<(LatticeIndex, f64)> = None;
        for (j, row) in self.row_best.iter().enumerate() {
            if let Some((i, e)) = *row {
                if best.map_or(true, |(_, be)| e > be) {
                    best = Some((LatticeIndex { i, j: j as u32 }, e));
                }
            }
        }
        best
    }
}

impl IncrementalScorer for IncrementalMax {
    fn name(&self) -> &'static str {
        "max-incremental"
    }

    fn apply_delta(&mut self, map: &ErrorMap, delta: SurveyDelta) {
        let _span = abp_trace::span!("placement.max_incremental");
        let total = map.len() as u64;
        let Some((lo, hi)) = delta.changed else {
            crate::CELLS_PRUNED.add(total);
            return;
        };
        let per_side = map.lattice().per_side() as u64;
        let mut rescanned = 0u64;
        for j in lo.j..=hi.j {
            self.rescan_row(map, j);
            rescanned += per_side;
        }
        crate::CANDIDATES_SCANNED.add(rescanned);
        crate::CELLS_PRUNED.add(total - rescanned);
    }

    fn ranked(&self, map: &ErrorMap, _k: usize) -> Vec<Point> {
        // Like `MaxPlacement::propose_ranked`: a single proposal (the
        // argmax), terrain center when every point is excluded.
        vec![match self.max_error_point() {
            Some((ix, _)) => map.lattice().point(ix),
            None => map.lattice().terrain().center(),
        }]
    }
}

/// [`greedy_batch`](crate::greedy_batch) driven by an
/// [`IncrementalScorer`] instead of a brute-force
/// [`PlacementAlgorithm`](crate::PlacementAlgorithm): propose from the
/// cached scores → deploy → incremental re-survey → refresh only the
/// delta region → repeat.
///
/// Places beacons at exactly the same positions as
/// [`greedy_batch`](crate::greedy_batch) with the corresponding brute
/// algorithm (scorers are bit-identical by contract), including the
/// occupied-candidate skip and its explicit duplicate fallback.
pub fn greedy_batch_incremental<S: IncrementalScorer + ?Sized>(
    scorer: &mut S,
    map: &mut ErrorMap,
    field: &mut BeaconField,
    model: &dyn Propagation,
    k: usize,
) -> GreedyBatchOutcome {
    let mut placed = Vec::with_capacity(k);
    let mut positions = Vec::with_capacity(k);
    let mut mean_after_each = Vec::with_capacity(k);
    let mut forced_duplicates = Vec::new();
    for round in 0..k {
        let candidates = scorer.ranked(map, field.len() + 1);
        let (pos, forced) = crate::batch::pick_unoccupied(&candidates, field);
        if forced {
            forced_duplicates.push(round);
        }
        let id = field.add_beacon(pos);
        let beacon = *field.get(id).expect("beacon just added");
        let delta = map.add_beacon(&beacon, model);
        scorer.apply_delta(map, delta);
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
    use crate::{greedy_batch, MaxPlacement};
    use abp_geom::{Lattice, Terrain};
    use abp_localize::UnheardPolicy;
    use abp_radio::{IdealDisk, PerBeaconNoise};
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

    fn assert_maps_bit_identical(a: &ErrorMap, b: &ErrorMap) {
        for ix in a.lattice().indices() {
            let ea = a.error_at(ix).map(f64::to_bits);
            let eb = b.error_at(ix).map(f64::to_bits);
            assert_eq!(ea, eb, "maps diverge at {ix:?}");
        }
    }

    #[test]
    fn grid_cache_matches_cumulative_errors_bitwise() {
        let (_, _, _, map) = setup(11, 25);
        let algo = GridPlacement::paper(terrain(), 15.0);
        let scorer = IncrementalGrid::new(algo, &map);
        let brute = algo.cumulative_errors(&map);
        for (flat, (inc, b)) in scorer.scores().iter().zip(&brute).enumerate() {
            assert_eq!(inc.to_bits(), b.to_bits(), "grid {flat} score diverges");
        }
    }

    #[test]
    fn grid_cache_stays_bitwise_after_add_and_kill() {
        let (_, mut field, model, mut map) = setup(12, 20);
        let algo = GridPlacement::paper(terrain(), 15.0);
        let mut scorer = IncrementalGrid::new(algo, &map);

        let id = field.add_beacon(Point::new(73.0, 31.0));
        let beacon = *field.get(id).unwrap();
        let delta = map.add_beacon(&beacon, &model);
        assert!(!delta.is_empty());
        scorer.apply_delta(&map, delta);
        let brute = algo.cumulative_errors(&map);
        for (inc, b) in scorer.scores().iter().zip(&brute) {
            assert_eq!(inc.to_bits(), b.to_bits());
        }

        let delta = map.kill_beacon(&beacon, &model);
        scorer.apply_delta(&map, delta);
        let brute = algo.cumulative_errors(&map);
        for (inc, b) in scorer.scores().iter().zip(&brute) {
            assert_eq!(inc.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn incremental_grid_greedy_equals_brute_greedy() {
        let algo = GridPlacement::paper(terrain(), 15.0);
        for seed in [2u64, 9, 33] {
            let (_, field, model, map) = setup(seed, 15);

            let mut bf = field.clone();
            let mut bm = map.clone();
            let brute = greedy_batch(
                &algo,
                &mut bm,
                &mut bf,
                &model,
                4,
                &mut StdRng::seed_from_u64(0),
            );

            let mut inf = field.clone();
            let mut inm = map.clone();
            let mut scorer = IncrementalGrid::new(algo, &inm);
            let inc = greedy_batch_incremental(&mut scorer, &mut inm, &mut inf, &model, 4);

            assert_eq!(brute.positions, inc.positions, "seed {seed}");
            assert_eq!(brute.placed, inc.placed);
            assert_eq!(brute.forced_duplicates, inc.forced_duplicates);
            for (a, b) in brute.mean_after_each.iter().zip(&inc.mean_after_each) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_maps_bit_identical(&bm, &inm);
        }
    }

    #[test]
    fn incremental_max_greedy_equals_brute_greedy() {
        for seed in [4u64, 17] {
            let (_, field, model, map) = setup(seed, 12);

            let mut bf = field.clone();
            let mut bm = map.clone();
            let brute = greedy_batch(
                &MaxPlacement::new(),
                &mut bm,
                &mut bf,
                &model,
                5,
                &mut StdRng::seed_from_u64(0),
            );

            let mut inf = field.clone();
            let mut inm = map.clone();
            let mut scorer = IncrementalMax::new(&inm);
            let inc = greedy_batch_incremental(&mut scorer, &mut inm, &mut inf, &model, 5);

            assert_eq!(brute.positions, inc.positions, "seed {seed}");
            assert_maps_bit_identical(&bm, &inm);
        }
    }

    #[test]
    fn incremental_max_tracks_argmax_under_noise_and_exclusion() {
        let lattice = Lattice::new(terrain(), 4.0);
        let field = BeaconField::random_uniform(10, terrain(), &mut StdRng::seed_from_u64(5));
        let model = PerBeaconNoise::new(15.0, 0.4, 99);
        let mut map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::Exclude);
        let mut scorer = IncrementalMax::new(&map);
        assert_eq!(scorer.max_error_point(), map.max_error_point());

        let mut field = field;
        let id = field.add_beacon(Point::new(50.0, 50.0));
        let beacon = *field.get(id).unwrap();
        let delta = map.add_beacon(&beacon, &model);
        scorer.apply_delta(&map, delta);
        assert_eq!(scorer.max_error_point(), map.max_error_point());
    }

    #[test]
    fn zero_k_is_a_noop() {
        let (_, mut field, model, mut map) = setup(8, 10);
        let mut scorer = IncrementalMax::new(&map);
        let before = map.clone();
        let outcome = greedy_batch_incremental(&mut scorer, &mut map, &mut field, &model, 0);
        assert!(outcome.placed.is_empty());
        assert!(outcome.forced_duplicates.is_empty());
        assert_eq!(map, before);
    }
}

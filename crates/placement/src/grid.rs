//! The Grid placement algorithm (paper §3.2.3).

use crate::{PlacementAlgorithm, SurveyView};
use abp_geom::{Point, Rect, Terrain};
use abp_survey::ErrorMap;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's Grid algorithm — "compute the cumulative localization error
/// over each grid, for several overlapping grids in the terrain... based
/// on the observation that adding a new beacon affects its nearby area,
/// not just the point where it is placed."
///
/// Steps (following §3.2.3 exactly):
///
/// 1–2. Survey the lattice (as Max) — done by `abp-survey`.
/// 3. Divide the terrain into `NG` partially overlapping grids: each grid
///    is a square of side `gridSide = 2R` (it "encloses the radio
///    reachability region of its center"); for `1 ≤ i, j ≤ √NG` the grid
///    centers are
///    `Xc(i,j) = gridSide/2 + (i−1)·(Side − gridSide)/(√NG − 1)` and
///    symmetrically for `Yc`.
/// 4. For each grid compute the cumulative localization error `S(i,j)`
///    over all measured points inside it.
/// 5. **Add the new beacon at the center of the grid with the maximum
///    cumulative error.**
///
/// "While the Grid algorithm has the advantage that it can improve many
/// points at once, it is computationally far more expensive than the Max
/// and Random algorithms." Summed directly, step 4 costs `O(NG · PG)`,
/// where `PG` is the number of measured points per grid. This
/// implementation computes the same `S(i,j)`, bit for bit, from one
/// table of row subtotals: each lattice row's valid errors summed over
/// each of the `√NG` grid-column bands, then each grid's rows added
/// bottom to top. That is `O(√NG · PT^½ · w + NG · w)`, where `w` is the
/// number of lattice points per grid side (`w ≈ 31` at paper scale:
/// about 75k additions instead of 384k point visits).
/// [`ErrorMap::cumulative_error_in`] documents the association;
/// [`GridPlacement::cumulative_errors_direct`] applies it per rectangle
/// and is the oracle that tests and the bench compare against.
///
/// Ties break toward the first grid in row-major center order, making the
/// algorithm deterministic.
///
/// # Example
///
/// ```
/// use abp_geom::Terrain;
/// use abp_placement::GridPlacement;
///
/// // The paper's configuration: NG = 400 grids of side 2R = 30 m.
/// let grid = GridPlacement::paper(Terrain::square(100.0), 15.0);
/// assert_eq!(grid.grids_per_side(), 20);
/// assert_eq!(grid.grid_side(), 30.0);
/// let centers: Vec<_> = grid.centers().collect();
/// assert_eq!(centers.len(), 400);
/// // First and last centers per the paper's formula.
/// assert_eq!(centers[0], abp_geom::Point::new(15.0, 15.0));
/// assert_eq!(centers[399], abp_geom::Point::new(85.0, 85.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridPlacement {
    terrain: Terrain,
    grid_side: f64,
    per_side: u32,
}

/// The paper's number of overlapping grids (Table 1).
pub const PAPER_NUM_GRIDS: usize = 400;

impl GridPlacement {
    /// Creates the algorithm with `num_grids` overlapping grids of side
    /// `2 · nominal_range`.
    ///
    /// # Panics
    ///
    /// Panics if `num_grids` is not a positive perfect square, or
    /// `2 · nominal_range` exceeds the terrain side (the paper assumes
    /// `R < Side/2`), or `nominal_range` is not finite/positive.
    pub fn new(terrain: Terrain, nominal_range: f64, num_grids: usize) -> Self {
        assert!(
            nominal_range.is_finite() && nominal_range > 0.0,
            "nominal range must be finite and positive, got {nominal_range}"
        );
        let grid_side = 2.0 * nominal_range;
        assert!(
            grid_side <= terrain.side(),
            "grid side 2R = {grid_side} exceeds terrain side {}",
            terrain.side()
        );
        let per_side = (num_grids as f64).sqrt().round() as u32;
        assert!(
            per_side > 0 && (per_side as usize) * (per_side as usize) == num_grids,
            "number of grids must be a positive perfect square, got {num_grids}"
        );
        GridPlacement {
            terrain,
            grid_side,
            per_side,
        }
    }

    /// The paper's configuration: `NG = 400` grids (Table 1).
    pub fn paper(terrain: Terrain, nominal_range: f64) -> Self {
        GridPlacement::new(terrain, nominal_range, PAPER_NUM_GRIDS)
    }

    /// Grid side length, `2R`.
    #[inline]
    pub fn grid_side(&self) -> f64 {
        self.grid_side
    }

    /// Number of grids per axis, `√NG`.
    #[inline]
    pub fn grids_per_side(&self) -> u32 {
        self.per_side
    }

    /// Total number of grids, `NG`.
    #[inline]
    pub fn num_grids(&self) -> usize {
        (self.per_side as usize) * (self.per_side as usize)
    }

    /// The center of grid `(i, j)` (0-based; the paper's formula uses
    /// 1-based indices).
    pub fn center(&self, i: u32, j: u32) -> Point {
        debug_assert!(i < self.per_side && j < self.per_side);
        let half = self.grid_side * 0.5;
        if self.per_side == 1 {
            return self.terrain.center();
        }
        let stride = (self.terrain.side() - self.grid_side) / (self.per_side - 1) as f64;
        Point::new(half + i as f64 * stride, half + j as f64 * stride)
    }

    /// Iterates all grid centers in row-major order.
    pub fn centers(&self) -> impl Iterator<Item = Point> + '_ {
        let n = self.per_side;
        (0..n).flat_map(move |j| (0..n).map(move |i| self.center(i, j)))
    }

    /// The rectangle of grid `(i, j)`.
    pub fn grid_rect(&self, i: u32, j: u32) -> Rect {
        Rect::square_centered(self.center(i, j), self.grid_side)
    }

    /// Step 4: the cumulative error `S(i, j)` of every grid, row-major,
    /// read from one table of row subtotals — bit-identical to
    /// [`ErrorMap::cumulative_error_in`] over each [`grid_rect`].
    ///
    /// [`grid_rect`]: GridPlacement::grid_rect
    pub fn cumulative_errors(&self, map: &ErrorMap) -> Vec<f64> {
        RowTable::new(self, map).scores()
    }

    /// The oracle for [`cumulative_errors`]: every grid's `S(i, j)`
    /// summed directly over its rectangle by
    /// [`ErrorMap::cumulative_error_in`], row-major. This is the paper's
    /// `O(NG · PG)` sum; production scoring never calls it, and tests and
    /// the bench compare the table against it bit for bit.
    ///
    /// [`cumulative_errors`]: GridPlacement::cumulative_errors
    pub fn cumulative_errors_direct(&self, map: &ErrorMap) -> Vec<f64> {
        let n = self.per_side;
        (0..n * n)
            .map(|flat| map.cumulative_error_in(&self.grid_rect(flat % n, flat / n)))
            .collect()
    }

    /// Steps 3–5 for the top `k` distinct grids: centers of the `k` grids
    /// with the highest cumulative error, best first. Used by the one-shot
    /// multi-beacon extension.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > NG`.
    pub fn propose_top_k(&self, map: &ErrorMap, k: usize) -> Vec<Point> {
        assert!(
            k >= 1 && k <= self.num_grids(),
            "k must be in 1..={}, got {k}",
            self.num_grids()
        );
        let _span = abp_trace::span!("placement.grid");
        crate::CANDIDATES_SCANNED.add(self.num_grids() as u64);
        self.best_centers(&self.cumulative_errors(map), k)
    }

    /// The centers of the `k` best grids, best first, under the order
    /// (−score, row-major index): the top `k` selected (a linear scan
    /// for `k = 1`) and then sorted. That equals the first `k` of a full
    /// sort, because the order is total. `scores` is row-major, one per
    /// grid; `1 <= k <= NG`.
    pub(crate) fn best_centers(&self, scores: &[f64], k: usize) -> Vec<Point> {
        let before = |a: &usize, b: &usize| {
            scores[*b]
                .partial_cmp(&scores[*a])
                .expect("grid scores are finite")
                .then(a.cmp(b))
        };
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.select_nth_unstable_by(k - 1, before);
        order.truncate(k);
        order.sort_unstable_by(before);
        let n = self.per_side as usize;
        order
            .into_iter()
            .map(|flat| self.center((flat % n) as u32, (flat / n) as u32))
            .collect()
    }
}

/// The table every Grid score is read from. Entry `(i, j)` is lattice
/// row `j`'s valid errors over grid-column band `i`'s lattice columns,
/// summed left to right ([`ErrorMap::row_error_sum`]); grid `(i, j)`'s
/// score adds its rows' entries bottom to top onto `0.0`
/// ([`RowTable::score`]). That is the association
/// [`ErrorMap::cumulative_error_in`] documents, so every score keeps its
/// bits. [`GridPlacement::cumulative_errors`] builds one per call, and
/// [`IncrementalGrid`](crate::IncrementalGrid) keeps one and refills
/// only the rows a survey delta changed.
#[derive(Debug, Clone)]
pub(crate) struct RowTable {
    /// Lattice rows.
    rows: usize,
    /// Per grid-column band `i`: the inclusive lattice-column span its
    /// rectangles cover, or `None` when the band misses the lattice
    /// (its grids all score 0).
    col_spans: Vec<Option<(u32, u32)>>,
    /// Per grid row `j`: the inclusive lattice-row span.
    row_spans: Vec<Option<(u32, u32)>>,
    /// `sums[i * rows + j]`: the subtotal of lattice row `j` over band
    /// `i` (0 where the band misses the lattice).
    sums: Vec<f64>,
}

impl RowTable {
    /// Builds the whole table for `algo`'s grids over `map`.
    pub(crate) fn new(algo: &GridPlacement, map: &ErrorMap) -> Self {
        let n = algo.per_side;
        let lattice = map.lattice();
        let rows = lattice.per_side() as usize;
        let col_spans = (0..n)
            .map(|i| {
                let r = algo.grid_rect(i, 0);
                lattice.index_span(r.min().x, r.max().x)
            })
            .collect();
        let row_spans = (0..n)
            .map(|j| {
                let r = algo.grid_rect(0, j);
                lattice.index_span(r.min().y, r.max().y)
            })
            .collect();
        let mut table = RowTable {
            rows,
            col_spans,
            row_spans,
            sums: vec![0.0; n as usize * rows],
        };
        table.refill(map, (0, u32::MAX), (0, rows as u32 - 1));
        table
    }

    /// Recomputes the entries of lattice rows `rows.0..=rows.1` in every
    /// band whose column span meets lattice columns `cols.0..=cols.1`.
    pub(crate) fn refill(&mut self, map: &ErrorMap, cols: (u32, u32), rows: (u32, u32)) {
        for (i, span) in self.col_spans.iter().enumerate() {
            let Some((i_lo, i_hi)) = span.filter(|&span| overlaps(span, cols)) else {
                continue;
            };
            let band = &mut self.sums[i * self.rows..(i + 1) * self.rows];
            for j in rows.0..=rows.1 {
                band[j as usize] = map.row_error_sum(j, i_lo, i_hi);
            }
        }
    }

    /// Whether band `i` covers any of lattice columns `cols.0..=cols.1`.
    pub(crate) fn band_meets(&self, i: usize, cols: (u32, u32)) -> bool {
        self.col_spans[i].is_some_and(|span| overlaps(span, cols))
    }

    /// Whether grid row `j` covers any of lattice rows `rows.0..=rows.1`.
    pub(crate) fn row_meets(&self, j: usize, rows: (u32, u32)) -> bool {
        self.row_spans[j].is_some_and(|span| overlaps(span, rows))
    }

    /// Grid `(i, j)`'s score: its rows' entries added bottom to top onto
    /// `0.0`.
    pub(crate) fn score(&self, i: usize, j: usize) -> f64 {
        let Some((j_lo, j_hi)) = self.row_spans[j] else {
            return 0.0;
        };
        let band = &self.sums[i * self.rows..(i + 1) * self.rows];
        band[j_lo as usize..=j_hi as usize]
            .iter()
            .fold(0.0, |total, &row| total + row)
    }

    /// Every grid's score, row-major (`flat = j * √NG + i`).
    pub(crate) fn scores(&self) -> Vec<f64> {
        let n = self.col_spans.len();
        (0..n * n)
            .map(|flat| self.score(flat % n, flat / n))
            .collect()
    }
}

/// Whether the inclusive ranges `a` and `b` share an index.
fn overlaps(a: (u32, u32), b: (u32, u32)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

impl PlacementAlgorithm for GridPlacement {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn propose(&self, view: &SurveyView<'_>, _rng: &mut dyn RngCore) -> Point {
        self.propose_top_k(view.map, 1)[0]
    }

    fn propose_ranked(
        &self,
        view: &SurveyView<'_>,
        k: usize,
        _rng: &mut dyn RngCore,
    ) -> Vec<Point> {
        self.propose_top_k(view.map, k.clamp(1, self.num_grids()))
    }
}

impl fmt::Display for GridPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Grid placement ({} grids of side {} m)",
            self.num_grids(),
            self.grid_side
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_field::BeaconField;
    use abp_geom::Lattice;
    use abp_localize::UnheardPolicy;
    use abp_radio::IdealDisk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    #[test]
    fn paper_centers_match_formula() {
        let g = GridPlacement::paper(terrain(), 15.0);
        // Xc(i) = 15 + (i-1) * 70/19 for 1-based i.
        let stride = 70.0 / 19.0;
        for i in 0..20u32 {
            let c = g.center(i, 0);
            assert!((c.x - (15.0 + i as f64 * stride)).abs() < 1e-12);
            assert!((c.y - 15.0).abs() < 1e-12);
        }
        // Grids hug the terrain: first rect starts at 0, last ends at 100.
        assert_eq!(g.grid_rect(0, 0).min(), Point::new(0.0, 0.0));
        assert_eq!(g.grid_rect(19, 19).max(), Point::new(100.0, 100.0));
    }

    #[test]
    fn single_grid_sits_at_center() {
        let g = GridPlacement::new(terrain(), 15.0, 1);
        assert_eq!(g.center(0, 0), Point::new(50.0, 50.0));
    }

    #[test]
    fn picks_grid_covering_the_coverage_hole() {
        // Beacons everywhere except the north-east quadrant: Grid must
        // propose a center in that quadrant.
        let lattice = Lattice::new(terrain(), 2.0);
        let mut positions = Vec::new();
        for j in 0..10 {
            for i in 0..10 {
                let p = Point::new(5.0 + i as f64 * 10.0, 5.0 + j as f64 * 10.0);
                if !(p.x > 50.0 && p.y > 50.0) {
                    positions.push(p);
                }
            }
        }
        let field = BeaconField::from_positions(terrain(), positions);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let view = SurveyView {
            map: &map,
            field: &field,
            model: &model,
        };
        let g = GridPlacement::paper(terrain(), 15.0);
        let p = g.propose(&view, &mut StdRng::seed_from_u64(0));
        assert!(
            p.x > 50.0 && p.y > 50.0,
            "expected a NE-quadrant proposal, got {p}"
        );
    }

    #[test]
    fn cumulative_errors_agree_with_map() {
        let lattice = Lattice::new(terrain(), 5.0);
        let mut rng = StdRng::seed_from_u64(8);
        let field = BeaconField::random_uniform(40, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let g = GridPlacement::new(terrain(), 15.0, 16);
        let scores = g.cumulative_errors(&map);
        assert_eq!(scores.len(), 16);
        // Spot-check one grid against a manual sum.
        let manual = map.cumulative_error_in(&g.grid_rect(2, 1));
        assert_eq!(scores[6], manual);
    }

    #[test]
    fn top_k_is_sorted_and_distinct() {
        let lattice = Lattice::new(terrain(), 5.0);
        let mut rng = StdRng::seed_from_u64(21);
        let field = BeaconField::random_uniform(20, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let g = GridPlacement::paper(terrain(), 15.0);
        let top = g.propose_top_k(&map, 5);
        assert_eq!(top.len(), 5);
        // Distinct centers.
        for (a, b) in top.iter().zip(top.iter().skip(1)) {
            assert!(a.distance(*b) > 1e-9);
        }
        // Scores non-increasing.
        let score_of = |p: &Point| map.cumulative_error_in(&Rect::square_centered(*p, 30.0));
        for w in top.windows(2) {
            assert!(score_of(&w[0]) >= score_of(&w[1]) - 1e-9);
        }
        // k = 1 equals propose().
        let view = SurveyView {
            map: &map,
            field: &field,
            model: &model,
        };
        assert_eq!(
            g.propose(&view, &mut StdRng::seed_from_u64(0)),
            g.propose_top_k(&map, 1)[0]
        );
    }

    #[test]
    fn grid_improves_many_points_at_once() {
        // The documented contrast with Max: on a field with one large
        // uncovered region, placing at the Grid pick improves the mean
        // error more than placing at the Max pick.
        let lattice = Lattice::new(terrain(), 2.0);
        let field = BeaconField::from_positions(
            terrain(),
            [
                Point::new(20.0, 20.0),
                Point::new(20.0, 50.0),
                Point::new(20.0, 80.0),
                Point::new(50.0, 20.0),
                Point::new(80.0, 20.0),
            ],
        );
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let view = SurveyView {
            map: &map,
            field: &field,
            model: &model,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let grid_pick = GridPlacement::paper(terrain(), 15.0).propose(&view, &mut rng);
        let max_pick = crate::MaxPlacement::new().propose(&view, &mut rng);

        let try_pick = |p: Point| {
            let mut f = field.clone();
            let id = f.add_beacon(p);
            let mut m = map.clone();
            m.add_beacon(f.get(id).unwrap(), &model);
            map.mean_error() - m.mean_error()
        };
        let grid_gain = try_pick(grid_pick);
        let max_gain = try_pick(max_pick);
        assert!(
            grid_gain >= max_gain,
            "grid gain {grid_gain} < max gain {max_gain}"
        );
        assert!(grid_gain > 0.0);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn rejects_non_square_grid_count() {
        let _ = GridPlacement::new(terrain(), 15.0, 10);
    }

    #[test]
    #[should_panic(expected = "exceeds terrain side")]
    fn rejects_oversized_grids() {
        let _ = GridPlacement::new(terrain(), 60.0, 4);
    }
}

//! Distance-weighted Grid placement (ablation / extension).

use crate::grid::GridPlacement;
use crate::{PlacementAlgorithm, SurveyView};
use abp_geom::Point;
use abp_survey::ErrorMap;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Grid placement with a triangular distance kernel: instead of the
/// paper's unweighted cumulative error `S(i,j) = Σ e(p)`, each grid scores
///
/// ```text
/// Sw(i,j) = Σ e(p) · max(0, 1 − |p − c(i,j)| / R)
/// ```
///
/// The rationale is the paper's own observation that "adding a new beacon
/// affects its nearby area, not just the point where it is placed" — but a
/// beacon placed at the grid *center* improves points near the center more
/// than points in the grid's corners (which lie farther than `R` away and
/// gain nothing). The kernel scores exactly the improvable area.
///
/// This is an ablation of the paper's design choice (DESIGN.md): the
/// `weighted_grid` bench compares it against the plain Grid algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedGridPlacement {
    inner: GridPlacement,
    nominal_range: f64,
}

impl WeightedGridPlacement {
    /// Creates the algorithm with the same grid geometry as
    /// [`GridPlacement::new`].
    ///
    /// # Panics
    ///
    /// As [`GridPlacement::new`].
    pub fn new(terrain: abp_geom::Terrain, nominal_range: f64, num_grids: usize) -> Self {
        WeightedGridPlacement {
            inner: GridPlacement::new(terrain, nominal_range, num_grids),
            nominal_range,
        }
    }

    /// The paper's grid geometry (`NG = 400`), weighted scoring.
    pub fn paper(terrain: abp_geom::Terrain, nominal_range: f64) -> Self {
        WeightedGridPlacement {
            inner: GridPlacement::paper(terrain, nominal_range),
            nominal_range,
        }
    }

    /// The underlying (unweighted) grid geometry.
    #[inline]
    pub fn geometry(&self) -> &GridPlacement {
        &self.inner
    }

    /// The weighted cumulative error of every grid, row-major.
    pub fn weighted_errors(&self, map: &ErrorMap) -> Vec<f64> {
        let n = self.inner.grids_per_side();
        let lattice = *map.lattice();
        let r = self.nominal_range;
        let mut out = Vec::with_capacity(self.inner.num_grids());
        for j in 0..n {
            for i in 0..n {
                let center = self.inner.center(i, j);
                let rect = self.inner.grid_rect(i, j);
                let mut sum = 0.0;
                lattice.for_each_in_rect(&rect, |ix, p| {
                    if let Some(e) = map.error_at(ix) {
                        let w = 1.0 - p.distance(center) / r;
                        if w > 0.0 {
                            sum += e * w;
                        }
                    }
                });
                out.push(sum);
            }
        }
        out
    }
}

impl PlacementAlgorithm for WeightedGridPlacement {
    fn name(&self) -> &'static str {
        "weighted-grid"
    }

    fn propose(&self, view: &SurveyView<'_>, _rng: &mut dyn RngCore) -> Point {
        let _span = abp_trace::span!("placement.weighted_grid");
        crate::CANDIDATES_SCANNED.add(self.inner.num_grids() as u64);
        self.inner.best_centers(&self.weighted_errors(view.map), 1)[0]
    }
}

impl fmt::Display for WeightedGridPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "weighted {}", self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_field::BeaconField;
    use abp_geom::{Lattice, Terrain};
    use abp_localize::UnheardPolicy;
    use abp_radio::IdealDisk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    #[test]
    fn weighted_scores_never_exceed_unweighted() {
        let lattice = Lattice::new(terrain(), 5.0);
        let mut rng = StdRng::seed_from_u64(17);
        let field = BeaconField::random_uniform(30, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let w = WeightedGridPlacement::new(terrain(), 15.0, 25);
        let weighted = w.weighted_errors(&map);
        let unweighted = w.geometry().cumulative_errors(&map);
        for (a, b) in weighted.iter().zip(&unweighted) {
            assert!(a <= b, "weight kernel must only shrink scores");
            assert!(*a >= 0.0);
        }
    }

    #[test]
    fn proposal_is_a_grid_center() {
        let lattice = Lattice::new(terrain(), 5.0);
        let mut rng = StdRng::seed_from_u64(1);
        let field = BeaconField::random_uniform(25, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let view = SurveyView {
            map: &map,
            field: &field,
            model: &model,
        };
        let w = WeightedGridPlacement::paper(terrain(), 15.0);
        let p = w.propose(&view, &mut rng);
        let is_center = w.geometry().centers().any(|c| c.distance(p) < 1e-9);
        assert!(is_center, "{p} is not a grid center");
    }

    #[test]
    fn finds_the_coverage_hole_like_grid() {
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
        let p = WeightedGridPlacement::paper(terrain(), 15.0)
            .propose(&view, &mut StdRng::seed_from_u64(0));
        assert!(p.x > 50.0 && p.y > 50.0, "expected NE quadrant, got {p}");
    }
}

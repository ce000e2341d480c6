//! Adaptive beacon placement — the paper's contribution (§3).
//!
//! *"Given an existing field of beacons, how should additional beacons be
//! placed for best advantage?"* The paper answers with three off-line
//! algorithms that differ in the amount of global knowledge and processing
//! they use:
//!
//! | Algorithm | Knowledge used | Paper's complexity | Computed here in |
//! |-----------|----------------|--------------------|------------------|
//! | [`RandomPlacement`] | none | `O(1)` | `O(1)` |
//! | [`MaxPlacement`] | per-point error measurements | `O(PT)` | `O(PT)` |
//! | [`GridPlacement`] | cumulative error over `NG` overlapping grids | `O(NG · PG)` | `O(√NG · PT^½ · w + NG · w)` |
//!
//! The paper's `O(NG · PG)` is the direct sum over every grid's `PG`
//! points. [`GridPlacement`] computes the same `S(i, j)`, bit for bit,
//! from one table of row subtotals (each lattice row summed over each of
//! the `√NG` grid-column bands, then each grid's `w` rows added), where
//! `w ≈ 31` is the number of lattice points per grid side at paper
//! scale.
//!
//! plus the extensions the paper sketches as future work (§6):
//!
//! * [`WeightedGridPlacement`] — Grid with distance-weighted cumulative
//!   error (an ablation of the paper's unweighted sum),
//! * [`batch`] — placing several beacons at once: one-shot top-*k* versus
//!   greedy re-measurement,
//! * [`LocusBreakPlacement`] — break the largest localization region
//!   (locus) with a new beacon,
//! * [`selfsched`] — the beacon-based alternative: densely deployed
//!   beacons decide themselves whether to be active or passive.
//!
//! Every algorithm consumes a [`SurveyView`] — the measurements a
//! GPS-equipped exploring agent can actually gather (see `abp-survey`) —
//! and proposes a point for the next beacon.
//!
//! # Example
//!
//! ```
//! use abp_field::BeaconField;
//! use abp_geom::{Lattice, Point, Terrain};
//! use abp_localize::UnheardPolicy;
//! use abp_placement::{GridPlacement, PlacementAlgorithm, SurveyView};
//! use abp_radio::IdealDisk;
//! use abp_survey::ErrorMap;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let terrain = Terrain::square(100.0);
//! let lattice = Lattice::new(terrain, 2.0);
//! let field = BeaconField::from_positions(terrain, [Point::new(20.0, 20.0)]);
//! let model = IdealDisk::new(15.0);
//! let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
//!
//! let view = SurveyView { map: &map, field: &field, model: &model };
//! let grid = GridPlacement::paper(terrain, 15.0);
//! let mut rng = StdRng::seed_from_u64(1);
//! let spot = grid.propose(&view, &mut rng);
//! assert!(terrain.contains(spot));
//! ```
//!
//! # Batch placement and the occupied-candidate rule
//!
//! [`greedy_batch`] places `k` beacons one round at a time: propose →
//! deploy → incremental re-survey → repeat. Each round picks the first
//! ranked candidate not already occupied by a deployed beacon via
//! [`pick_unoccupied`]; when *every* ranked candidate is occupied, the
//! top candidate is re-used anyway and the round index is recorded in
//! [`GreedyBatchOutcome::forced_duplicates`](batch::GreedyBatchOutcome::forced_duplicates).
//! A non-empty `forced_duplicates` means the algorithm ran out of
//! distinct proposals (typical for score-based algorithms whose argmax
//! region is dominated by unreachable points) — the fallback is always
//! explicit in the outcome, never silent.
//!
//! [`greedy_batch_incremental`] is the same loop with the per-round full
//! re-scan replaced by an [`IncrementalScorer`] that refreshes cached
//! scores from the survey delta; both variants share [`pick_unoccupied`],
//! so their placements are bit-identical. The mirror below spells the
//! incremental loop out round for round (this is also exactly how the
//! candidate-scan bench times the scan phase in isolation):
//!
//! ```
//! use abp_field::BeaconField;
//! use abp_geom::{Lattice, Point, Terrain};
//! use abp_localize::UnheardPolicy;
//! use abp_placement::{
//!     greedy_batch, pick_unoccupied, IncrementalMax, IncrementalScorer, MaxPlacement,
//! };
//! use abp_radio::IdealDisk;
//! use abp_survey::ErrorMap;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let terrain = Terrain::square(100.0);
//! let lattice = Lattice::new(terrain, 5.0);
//! let model = IdealDisk::new(15.0);
//! let base_field = BeaconField::from_positions(terrain, [Point::new(10.0, 10.0)]);
//! let base_map = ErrorMap::survey(&lattice, &base_field, &model, UnheardPolicy::TerrainCenter);
//!
//! // Reference: the brute-force greedy loop.
//! let (mut field, mut map) = (base_field.clone(), base_map.clone());
//! let reference = greedy_batch(
//!     &MaxPlacement::new(), &mut map, &mut field, &model, 3,
//!     &mut StdRng::seed_from_u64(0),
//! );
//!
//! // The incremental mirror: same rounds, same occupied-candidate rule,
//! // scores refreshed from survey deltas instead of re-scanned.
//! let (mut field, mut map) = (base_field, base_map);
//! let mut scorer = IncrementalMax::new(&map);
//! let mut positions = Vec::new();
//! for _ in 0..3 {
//!     let candidates = scorer.ranked(&map, field.len() + 1);
//!     let (pos, forced) = pick_unoccupied(&candidates, &field);
//!     assert!(!forced, "healthy run: no forced duplicates");
//!     let id = field.add_beacon(pos);
//!     let beacon = *field.get(id).expect("beacon just added");
//!     let delta = map.add_beacon(&beacon, &model);
//!     scorer.apply_delta(&map, delta);
//!     positions.push(pos);
//! }
//! assert_eq!(positions, reference.positions);
//! assert!(reference.forced_duplicates.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod grid;
pub mod incremental;
pub mod locusbreak;
pub mod max;
pub mod random;
pub mod selfsched;
pub mod weighted;

/// Telemetry: candidate positions a placement algorithm scored while
/// choosing where the next beacon goes (lattice points for Max, grid
/// cells for Grid/Weighted).
pub static CANDIDATES_SCANNED: abp_trace::Counter = abp_trace::Counter::new("candidates_scanned");

/// Telemetry: candidate positions an [`incremental`] scorer served from
/// its cache instead of re-scoring, because the survey delta did not
/// touch their supporting region. Together with [`CANDIDATES_SCANNED`]
/// this proves (and quantifies) the incremental pruning: per update,
/// `scanned + pruned` equals the full brute-force candidate count.
pub static CELLS_PRUNED: abp_trace::Counter = abp_trace::Counter::new("cells_pruned");

pub use batch::{greedy_batch, pick_unoccupied, GreedyBatchOutcome};
pub use grid::GridPlacement;
pub use incremental::{
    greedy_batch_incremental, IncrementalGrid, IncrementalMax, IncrementalScorer,
};
pub use locusbreak::LocusBreakPlacement;
pub use max::MaxPlacement;
pub use random::RandomPlacement;
pub use weighted::WeightedGridPlacement;

use abp_field::BeaconField;
use abp_geom::Point;
use abp_radio::Propagation;
use abp_survey::ErrorMap;
use rand::RngCore;

/// Everything an exploring agent has observed about the current
/// deployment: the measured error map, the beacon field it was measured
/// against, and the propagation model in effect.
///
/// Max and Grid consume only `map` (per-point localization errors, exactly
/// what the paper's robot measures). The extension algorithms additionally
/// use connectivity structure (`field` + `model`), which the same robot
/// observes for free while measuring.
#[derive(Clone, Copy)]
pub struct SurveyView<'a> {
    /// The measured localization-error map.
    pub map: &'a ErrorMap,
    /// The beacon field the map was surveyed against.
    pub field: &'a BeaconField,
    /// The propagation model in effect.
    pub model: &'a dyn Propagation,
}

impl std::fmt::Debug for SurveyView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SurveyView")
            .field("beacons", &self.field.len())
            .field("lattice_points", &self.map.len())
            .finish()
    }
}

/// A beacon placement algorithm: proposes where the next beacon should go.
///
/// Implementations must return a point inside the survey terrain.
/// Deterministic algorithms (Max, Grid) ignore `rng`; Random draws from
/// it. The trait is object-safe so experiments can sweep algorithm sets.
pub trait PlacementAlgorithm: Send + Sync {
    /// A short stable name for reports ("random", "max", "grid", …).
    fn name(&self) -> &'static str;

    /// Proposes the candidate point for one additional beacon.
    fn propose(&self, view: &SurveyView<'_>, rng: &mut dyn RngCore) -> Point;

    /// Proposes up to `k` candidate points, best first. The first entry
    /// must equal what [`PlacementAlgorithm::propose`] would return.
    ///
    /// The default returns the single best candidate; algorithms with a
    /// natural ranking (Grid's scored grids) override this so multi-beacon
    /// deployment ([`greedy_batch`]) can skip candidates that would
    /// duplicate an existing beacon.
    fn propose_ranked(&self, view: &SurveyView<'_>, k: usize, rng: &mut dyn RngCore) -> Vec<Point> {
        let _ = k;
        vec![self.propose(view, rng)]
    }
}

impl<A: PlacementAlgorithm + ?Sized> PlacementAlgorithm for &A {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn propose(&self, view: &SurveyView<'_>, rng: &mut dyn RngCore) -> Point {
        (**self).propose(view, rng)
    }
    fn propose_ranked(&self, view: &SurveyView<'_>, k: usize, rng: &mut dyn RngCore) -> Vec<Point> {
        (**self).propose_ranked(view, k, rng)
    }
}

impl<A: PlacementAlgorithm + ?Sized> PlacementAlgorithm for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn propose(&self, view: &SurveyView<'_>, rng: &mut dyn RngCore) -> Point {
        (**self).propose(view, rng)
    }
    fn propose_ranked(&self, view: &SurveyView<'_>, k: usize, rng: &mut dyn RngCore) -> Vec<Point> {
        (**self).propose_ranked(view, k, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_geom::{Lattice, Terrain};
    use abp_localize::UnheardPolicy;
    use abp_radio::IdealDisk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn algorithms_are_object_safe_and_stay_in_terrain() {
        let terrain = Terrain::square(100.0);
        let lattice = Lattice::new(terrain, 5.0);
        let field = BeaconField::from_positions(terrain, [Point::new(10.0, 10.0)]);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let view = SurveyView {
            map: &map,
            field: &field,
            model: &model,
        };
        let algorithms: Vec<Box<dyn PlacementAlgorithm>> = vec![
            Box::new(RandomPlacement::new(terrain)),
            Box::new(MaxPlacement::new()),
            Box::new(GridPlacement::paper(terrain, 15.0)),
            Box::new(WeightedGridPlacement::paper(terrain, 15.0)),
            Box::new(LocusBreakPlacement::new()),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        for algo in &algorithms {
            let p = algo.propose(&view, &mut rng);
            assert!(terrain.contains(p), "{} left the terrain: {p}", algo.name());
            assert!(!algo.name().is_empty());
        }
    }
}

//! The incremental scorers' pruning counters, checked in a test binary
//! of their own: `CANDIDATES_SCANNED` and `CELLS_PRUNED` are process-wide,
//! so any other test scoring candidates while these read them would add
//! to the totals. The two tests here serialize on one lock and are the
//! only code in this binary that scores candidates.

use abp_field::BeaconField;
use abp_geom::{Lattice, Point, Terrain};
use abp_localize::UnheardPolicy;
use abp_placement::{
    GridPlacement, IncrementalGrid, IncrementalScorer, CANDIDATES_SCANNED, CELLS_PRUNED,
};
use abp_radio::IdealDisk;
use abp_survey::{ErrorMap, SurveyDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

static COUNTERS: Mutex<()> = Mutex::new(());

fn counters() -> MutexGuard<'static, ()> {
    abp_trace::set_enabled(true);
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn terrain() -> Terrain {
    Terrain::square(100.0)
}

fn setup(seed: u64, n: usize) -> (BeaconField, IdealDisk, ErrorMap) {
    let lattice = Lattice::new(terrain(), 4.0);
    let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
    let model = IdealDisk::new(15.0);
    let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
    (field, model, map)
}

#[test]
fn counters_prove_pruning() {
    let _guard = counters();
    let (mut field, model, mut map) = setup(6, 20);
    let algo = GridPlacement::paper(terrain(), 15.0);
    let mut scorer = IncrementalGrid::new(algo, &map);

    let scanned_before = CANDIDATES_SCANNED.total();
    let pruned_before = CELLS_PRUNED.total();

    let id = field.add_beacon(Point::new(25.0, 25.0));
    let beacon = *field.get(id).unwrap();
    let delta = map.add_beacon(&beacon, &model);
    scorer.apply_delta(&map, delta);

    let scanned = CANDIDATES_SCANNED.total() - scanned_before;
    let pruned = CELLS_PRUNED.total() - pruned_before;
    assert_eq!(
        scanned + pruned,
        algo.num_grids() as u64,
        "every grid is either rescored or pruned"
    );
    assert!(pruned > 0, "a local delta must prune some grids");
    assert!(scanned > 0, "a real delta must rescore some grids");
}

#[test]
fn empty_delta_prunes_everything() {
    let _guard = counters();
    let (_, _, map) = setup(7, 8);
    let algo = GridPlacement::paper(terrain(), 15.0);
    let mut scorer = IncrementalGrid::new(algo, &map);
    let scanned_before = CANDIDATES_SCANNED.total();
    let pruned_before = CELLS_PRUNED.total();
    scorer.apply_delta(&map, SurveyDelta::EMPTY);
    assert_eq!(CANDIDATES_SCANNED.total(), scanned_before);
    assert_eq!(
        CELLS_PRUNED.total() - pruned_before,
        algo.num_grids() as u64
    );
}

/// `propose_top_k` and `IncrementalGrid::new` each count `NG` candidates
/// once per call: the shared score table counts nothing itself.
#[test]
fn full_scans_count_each_grid_once() {
    let _guard = counters();
    let (_, _, map) = setup(9, 15);
    let algo = GridPlacement::paper(terrain(), 15.0);
    for k in [1, 5] {
        let before = CANDIDATES_SCANNED.total();
        let _ = algo.propose_top_k(&map, k);
        assert_eq!(CANDIDATES_SCANNED.total() - before, algo.num_grids() as u64);
    }
    let before = CANDIDATES_SCANNED.total();
    let _ = IncrementalGrid::new(algo, &map);
    assert_eq!(CANDIDATES_SCANNED.total() - before, algo.num_grids() as u64);
}

//! The Grid scan's candidate counter, checked in a test binary of its
//! own: `CANDIDATES_SCANNED` is process-wide, so any other test scoring
//! candidates while this one reads it would add to the total.

use abp_field::BeaconField;
use abp_geom::{Lattice, Terrain};
use abp_localize::UnheardPolicy;
use abp_placement::{GridPlacement, CANDIDATES_SCANNED};
use abp_radio::IdealDisk;
use abp_survey::ErrorMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `propose_top_k` counts `NG` candidates once per call, whatever `k`:
/// the score table counts nothing itself.
#[test]
fn full_scans_count_each_grid_once() {
    abp_trace::set_enabled(true);
    let terrain = Terrain::square(100.0);
    let lattice = Lattice::new(terrain, 4.0);
    let field = BeaconField::random_uniform(15, terrain, &mut StdRng::seed_from_u64(9));
    let model = IdealDisk::new(15.0);
    let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
    let algo = GridPlacement::paper(terrain, 15.0);
    for k in [1, 5] {
        let before = CANDIDATES_SCANNED.total();
        let _ = algo.propose_top_k(&map, k);
        assert_eq!(CANDIDATES_SCANNED.total() - before, algo.num_grids() as u64);
    }
}

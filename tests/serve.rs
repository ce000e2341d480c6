//! The served world at paper scale. Each epoch the serving daemon
//! publishes grows its predecessor's map by one `ErrorMap::add_beacon`;
//! that must equal a full `WorldSnapshot::build` of the same field bit
//! for bit, and the final epoch must serve exactly what the batch
//! localizer computes.

use abp_field::BeaconField;
use abp_geom::{Point, Terrain};
use abp_radio::{IdealDisk, PerBeaconNoise, Propagation};
use abp_serve::engine;
use abp_serve::snapshot::WorldSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SIDE: f64 = 100.0;
const STEP: f64 = 1.0;

/// The applied placements, in order: interior points, lattice corners
/// and edges, a repeated point, and points outside the terrain, which
/// the rebuilder clamps onto its boundary.
const APPLIED: [Point; 10] = [
    Point::new(33.3, 66.6),
    Point::new(50.0, 50.0),
    Point::new(0.0, 0.0),
    Point::new(-10.0, 40.0),
    Point::new(71.25, 12.5),
    Point::new(100.0, 63.0),
    Point::new(110.0, 104.0),
    Point::new(50.0, 50.0),
    Point::new(8.5, 97.5),
    Point::new(45.0, -3.0),
];

fn point_bits(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

fn assert_same_world(grown: &WorldSnapshot, fresh: &WorldSnapshot, what: &str) {
    assert_eq!(
        grown.fingerprint(),
        fresh.fingerprint(),
        "{what}: fingerprint"
    );
    let (a, b) = (grown.map(), fresh.map());
    for ix in a.lattice().indices() {
        assert_eq!(a.heard_at(ix), b.heard_at(ix), "{what}: heard at {ix:?}");
        assert_eq!(
            a.error_at(ix).map(f64::to_bits),
            b.error_at(ix).map(f64::to_bits),
            "{what}: error at {ix:?}"
        );
        assert_eq!(
            a.estimate_at(ix).map(point_bits),
            b.estimate_at(ix).map(point_bits),
            "{what}: estimate at {ix:?}"
        );
    }
    assert_eq!(
        point_bits(grown.max_point()),
        point_bits(fresh.max_point()),
        "{what}: Max answer"
    );
    assert_eq!(
        point_bits(grown.grid_point()),
        point_bits(fresh.grid_point()),
        "{what}: Grid answer"
    );
}

/// Chained incremental epochs equal fresh builds of the grown field,
/// under the ideal disk and under per-beacon noise 0.4.
#[test]
fn incremental_epochs_equal_fresh_builds_at_paper_scale() {
    let terrain = Terrain::square(SIDE);
    let field = BeaconField::random_uniform(100, terrain, &mut StdRng::seed_from_u64(42));
    let models: [(&str, Arc<dyn Propagation>); 2] = [
        ("ideal disk", Arc::new(IdealDisk::new(15.0))),
        ("noise 0.4", Arc::new(PerBeaconNoise::new(15.0, 0.4, 7))),
    ];
    for (what, model) in models {
        let mut snap = WorldSnapshot::build(0, field.clone(), Arc::clone(&model), STEP);
        for point in APPLIED {
            snap = snap.with_beacon_added(point);
            let fresh =
                WorldSnapshot::build(snap.epoch(), snap.field().clone(), Arc::clone(&model), STEP);
            assert_same_world(&snap, &fresh, &format!("{what}, epoch {}", snap.epoch()));
        }
        assert_eq!(snap.field().len(), field.len() + APPLIED.len());
        assert!(
            engine::served_matches_batch(&snap, 1),
            "{what}: served diverged from batch"
        );
    }
}

//! The served world at paper scale. Each epoch the serving daemon
//! publishes grows its predecessor's map by one `ErrorMap::add_beacon`;
//! that must equal a full `WorldSnapshot::build` of the same field bit
//! for bit, and the final epoch must serve exactly what the batch
//! localizer computes. A live daemon answers requests past a
//! connection's warm-up without an allocator call, and serves every
//! connection it admits while idle keep-alive peers hold theirs.

use abp_field::BeaconField;
use abp_geom::{Point, Terrain};
use abp_radio::{IdealDisk, PerBeaconNoise, Propagation};
use abp_serve::daemon::{Daemon, ServeConfig};
use abp_serve::engine;
use abp_serve::protocol::{self as wire, PlaceAlgo, Status};
use abp_serve::snapshot::WorldSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

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

/// Requests past each connection's 32-request warm-up make no allocator
/// call, and a handler panic does not book its unwind against them: one
/// connection localizes 40 times and closes, a second localizes 40 times
/// and then sends a Place that panics inside the handler.
#[test]
fn served_requests_past_warm_up_allocate_nothing_even_after_a_panic() {
    const PANIC_SEED: u64 = 0x0BAD_5EED;
    let cfg = ServeConfig {
        panic_seed: Some(PANIC_SEED),
        ..ServeConfig::tiny()
    };
    let daemon = Daemon::start(&cfg).unwrap();
    let (mut localize, mut poisoned, mut frame) = (Vec::new(), Vec::new(), Vec::new());
    wire::encode_localize_request(&mut localize, &[0, 1, 2]);
    wire::encode_place_request(&mut poisoned, PlaceAlgo::Max, PANIC_SEED, false);
    for panics in [false, true] {
        let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
        for _ in 0..40 {
            conn.write_all(&localize).unwrap();
            assert!(wire::read_frame(&mut conn, &mut frame).unwrap());
            assert_eq!(frame[0], Status::Ok as u8);
        }
        if panics {
            conn.write_all(&poisoned).unwrap();
            // The daemon drops the connection without an answer.
            assert!(!matches!(wire::read_frame(&mut conn, &mut frame), Ok(true)));
        }
    }
    let stats = daemon.shutdown();
    assert_eq!(stats.reply.panics, 1);
    assert!(
        stats.measured_requests > 0,
        "no request outlived the warm-up"
    );
    assert_eq!(stats.allocs_per_request(), 0.0, "{stats:?}");
}

/// Every admitted client is served: four connections each send one Info
/// and then sit idle, holding their connections open, and a fifth still
/// gets its 40 Localize answers and a Stats that counts all five live.
#[test]
fn a_client_behind_idle_keep_alive_peers_is_served() {
    let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
    let timeout = Some(Duration::from_secs(5));
    let connect = || {
        let conn = TcpStream::connect(daemon.local_addr()).unwrap();
        conn.set_read_timeout(timeout).unwrap();
        conn
    };
    let (mut request, mut frame) = (Vec::new(), Vec::new());
    wire::encode_info_request(&mut request);
    let mut idle: Vec<TcpStream> = (0..4).map(|_| connect()).collect();
    for conn in &mut idle {
        conn.write_all(&request).unwrap();
    }

    let mut active = connect();
    wire::encode_localize_request(&mut request, &[0, 1, 2]);
    for _ in 0..40 {
        active.write_all(&request).unwrap();
        wire::read_frame(&mut active, &mut frame)
            .expect("the fifth connection is answered beside four idle peers");
        assert_eq!(frame[0], Status::Ok as u8);
    }
    wire::encode_stats_request(&mut request);
    active.write_all(&request).unwrap();
    assert!(wire::read_frame(&mut active, &mut frame).unwrap());
    let stats = wire::decode_stats_response(&frame).unwrap();
    assert_eq!(stats.connections_live, 5);

    for conn in &mut idle {
        assert!(wire::read_frame(conn, &mut frame).unwrap());
        assert!(wire::decode_info_response(&frame).is_ok());
    }
    drop((idle, active));
    daemon.shutdown();
}

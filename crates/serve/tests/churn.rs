//! Concurrency and bit-identity guarantees of the serving layer.
//!
//! * `readers_always_see_consistent_snapshots_under_churn` — the
//!   epoch-swap contract: while a writer publishes generation after
//!   generation, every reader observation is an internally consistent
//!   `ErrorMap`/field bundle (fingerprint-verified), epochs
//!   are monotonic per reader, and a pinned old generation stays intact.
//! * `served_tcp_localization_is_bit_identical_to_batch` — end to end
//!   over real sockets: for every lattice point, the daemon's answer to
//!   the heard-id set equals the batch `try_localize_via` fix bit for
//!   bit, including after an epoch bump.

use abp_field::BeaconField;
use abp_geom::Terrain;
use abp_localize::Localizer;
use abp_radio::IdealDisk;
use abp_serve::daemon::{Daemon, ServeConfig};
use abp_serve::protocol::{self as wire, PlaceAlgo};
use abp_serve::snapshot::{SnapshotCell, WorldSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn snapshot(epoch: u64, beacons: usize, seed: u64) -> WorldSnapshot {
    let terrain = Terrain::square(60.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let field = BeaconField::random_uniform(beacons, terrain, &mut rng);
    WorldSnapshot::build(epoch, field, Arc::new(IdealDisk::new(15.0)), 4.0)
}

#[test]
fn readers_always_see_consistent_snapshots_under_churn() {
    let cell = Arc::new(SnapshotCell::new(snapshot(0, 6, 0)));
    let stop = Arc::new(AtomicBool::new(false));
    const EPOCHS: u64 = 30;

    // A pinned handle to generation 0: must survive every publish.
    let pinned = cell.load();

    let readers: Vec<_> = (0..4)
        .map(|r| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reader = cell.reader();
                let mut last_epoch = 0u64;
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = reader.current();
                    let epoch = snap.epoch();
                    // Monotonic: a reader never travels back in time.
                    assert!(
                        epoch >= last_epoch,
                        "reader {r}: epoch regressed {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    // Internally consistent: the map, field, and
                    // placement answers all belong to this generation.
                    assert!(snap.is_consistent(), "reader {r}: torn snapshot");
                    // The epoch encodes the churn seed: field size grows
                    // with the epoch (writer adds one beacon per epoch),
                    // so a mismatched pair would also trip this.
                    assert_eq!(snap.field().len(), 6 + epoch as usize);
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    // Writer: publish EPOCHS generations, each growing the field by one
    // deterministic beacon, with a little jitter from real survey work.
    for epoch in 1..=EPOCHS {
        let current = cell.load();
        let t = epoch as f64 / (EPOCHS + 1) as f64;
        let next = current.with_beacon_added(abp_geom::Point::new(60.0 * t, 60.0 * (1.0 - t)));
        assert_eq!(next.epoch(), epoch);
        cell.publish(next);
    }
    // Let readers chew on the final generation briefly, then stop.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        let observations = h.join().expect("reader panicked");
        assert!(observations > 0, "every reader must have observed state");
    }

    assert_eq!(cell.epoch_hint(), EPOCHS);
    // The pinned generation 0 is still alive, intact, and unchanged.
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(pinned.field().len(), 6);
    assert!(pinned.is_consistent());
}

/// Asks the daemon to localize `ids` and returns the decoded reply.
fn served_localize(
    conn: &mut TcpStream,
    out: &mut Vec<u8>,
    frame: &mut Vec<u8>,
    ids: &[u64],
) -> wire::LocalizeReply {
    wire::encode_localize_request(out, ids);
    conn.write_all(out).expect("write");
    assert!(wire::read_frame(conn, frame).expect("read"));
    wire::decode_localize_response(frame).expect("localize reply")
}

fn assert_bit_identical(daemon: &Daemon, conn: &mut TcpStream, expected_epoch: u64) {
    let snap = daemon.snapshot();
    assert_eq!(snap.epoch(), expected_epoch);
    let oracle = snap.oracle();
    let localizer = snap.batch_localizer();
    let mut out = Vec::new();
    let mut frame = Vec::new();
    let mut ids = Vec::new();
    for at in snap.map().lattice().points() {
        ids.clear();
        oracle.for_each_heard(at, |b| ids.push(b.id().0));
        let served = served_localize(conn, &mut out, &mut frame, &ids);
        let batch = localizer.try_localize_via(&oracle, at);
        let fix = batch.fix();
        assert_eq!(served.epoch, expected_epoch, "at {at}");
        assert_eq!(served.heard as usize, fix.heard, "at {at}");
        assert_eq!(served.degraded, batch.is_degraded(), "at {at}");
        match (served.estimate, fix.estimate) {
            (Some(s), Some(b)) => {
                assert_eq!(s.x.to_bits(), b.x.to_bits(), "x at {at}");
                assert_eq!(s.y.to_bits(), b.y.to_bits(), "y at {at}");
            }
            (None, None) => {}
            (s, b) => panic!("estimate presence diverged at {at}: {s:?} vs {b:?}"),
        }
    }
}

#[test]
fn served_tcp_localization_is_bit_identical_to_batch() {
    let daemon = Daemon::start(&ServeConfig::tiny()).expect("daemon");
    let mut conn = TcpStream::connect(daemon.local_addr()).expect("connect");
    let mut out = Vec::new();
    let mut frame = Vec::new();

    // Epoch 0: every lattice point agrees bit for bit.
    assert_bit_identical(&daemon, &mut conn, 0);

    // Apply a Max placement, wait for the rebuilt epoch, re-verify the
    // whole lattice against the *new* batch state.
    wire::encode_place_request(&mut out, PlaceAlgo::Max, 0, true);
    conn.write_all(&out).expect("write");
    assert!(wire::read_frame(&mut conn, &mut frame).expect("read"));
    wire::decode_place_response(&frame).expect("place reply");
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.epoch() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(daemon.epoch(), 1, "apply must publish epoch 1");
    assert_bit_identical(&daemon, &mut conn, 1);

    drop(conn);
    daemon.shutdown();
}

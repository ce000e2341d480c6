//! Tier-1 reach for two contracts whose heavy tests live in their
//! crates: a checkpointed density sweep resumes bit for bit (with the
//! serve daemon's state file round trip), and no hostile payload makes a
//! serve codec panic.

use abp_geom::{Point, Terrain};
use abp_serve::protocol::{self as wire, MAX_FRAME};
use abp_serve::state::{config_fingerprint, load_state, save_state, StateOpen};
use abp_sim::experiments::density_error;
use abp_sim::{CheckpointOpen, Ctx, SimConfig, SweepCheckpoint};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::Cursor;

/// A density sweep interrupted after its first density resumes to the
/// uninterrupted result bit for bit, and a finished checkpoint replays
/// the whole sweep without running a trial. The state file returns the
/// roster it saved bit for bit; a file saved under other serve
/// parameters, like a checkpoint of another configuration, opens as
/// `IgnoredFingerprint`.
#[test]
fn checkpoint_resume_and_state_file_round_trip() {
    let cfg = SimConfig {
        trials: 4,
        beacon_counts: vec![20, 60],
        ..SimConfig::tiny()
    };
    let noise = 0.3;
    let full = density_error::run_sweep(&cfg, noise, Ctx::noop());
    let dir = std::env::temp_dir().join(format!("abp-contracts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The interrupted run persisted the first density only, exactly as a
    // sweep over that density alone writes it.
    let path = dir.join("sweep.ckpt");
    let interrupted = SweepCheckpoint::open(&path, cfg.fingerprint()).unwrap();
    assert_eq!(interrupted.opened(), CheckpointOpen::Created);
    let first = SimConfig {
        beacon_counts: vec![20],
        ..cfg.clone()
    };
    density_error::run_sweep(&first, noise, Ctx::noop().with_checkpoint(&interrupted));

    let resumed = SweepCheckpoint::open(&path, cfg.fingerprint()).unwrap();
    assert_eq!(
        resumed.opened(),
        CheckpointOpen::Resumed {
            entries: 1,
            quarantined: 0
        }
    );
    let outcome = density_error::run_sweep(&cfg, noise, Ctx::noop().with_checkpoint(&resumed));
    assert_eq!(outcome.points, full.points, "resume must be bit-identical");

    let finished = SweepCheckpoint::open(&path, cfg.fingerprint()).unwrap();
    let replay = density_error::run_sweep_with(
        &cfg,
        noise,
        Ctx::noop().with_checkpoint(&finished),
        |_, _, _, _| panic!("a replayed sweep runs no trial"),
    );
    assert!(replay.failures.is_empty(), "{:?}", replay.failures);
    assert_eq!(replay.points, full.points);

    let stale = SweepCheckpoint::open(&path, cfg.fingerprint() ^ 1).unwrap();
    assert_eq!(
        stale.opened(),
        CheckpointOpen::IgnoredFingerprint {
            found: cfg.fingerprint()
        }
    );

    let state = dir.join("world.state");
    let terrain = Terrain::square(100.0);
    let fingerprint = config_fingerprint(100.0, 1.0, 15.0);
    let roster = [
        Point::new(1.5, 2.5),
        Point::new(100.0, 0.1 + 0.2),
        Point::new(100.0 / 3.0, 50.0),
    ];
    save_state(&state, fingerprint, 7, &roster).unwrap();
    let StateOpen::Loaded { epoch, positions } = load_state(&state, fingerprint, terrain) else {
        panic!("a state file saved under this config must load");
    };
    assert_eq!(epoch, 7);
    let bits = |ps: &[Point]| -> Vec<(u64, u64)> {
        ps.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
    };
    assert_eq!(bits(&positions), bits(&roster));

    let other = config_fingerprint(100.0, 2.0, 15.0);
    save_state(&state, other, 7, &roster).unwrap();
    assert_eq!(
        load_state(&state, fingerprint, terrain),
        StateOpen::IgnoredFingerprint {
            found: other,
            expected: fingerprint
        }
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every request and response decoder, and the frame reader, takes a
/// seeded corpus of random payloads and of payloads led by a known or
/// near-miss opcode/status byte. Each returns a value or a typed error;
/// none panics, and no buffer grows past the frame cap.
#[test]
fn serve_decoders_survive_a_seeded_hostile_corpus() {
    let mut rng = StdRng::seed_from_u64(0xc0de_c0de);
    let mut payload = Vec::new();
    let mut ids = Vec::new();
    let mut frame = Vec::new();
    for case in 0..10_000 {
        payload.clear();
        if case % 2 == 1 {
            payload.push((rng.next_u64() % 10) as u8);
        }
        let start = payload.len();
        payload.resize(start + (rng.next_u64() % 300) as usize, 0);
        rng.fill_bytes(&mut payload[start..]);

        let _ = wire::decode_request(&payload, &mut ids);
        let _ = wire::decode_localize_response(&payload);
        let _ = wire::decode_place_response(&payload);
        let _ = wire::decode_info_response(&payload);
        let _ = wire::decode_stats_response(&payload);
        let _ = wire::read_frame(&mut Cursor::new(&payload), &mut frame);
        assert!(ids.capacity() <= MAX_FRAME as usize);
        assert!(frame.capacity() <= MAX_FRAME as usize);
    }
}

//! Tier-1 reach for five contracts whose heavy tests live in their
//! crates: a checkpointed density sweep resumes bit for bit (with the
//! serve daemon's state file round trip), the checkpoint files of the
//! density, improvement and fault sweeps keep their bytes across
//! versions, a batch run's report counts what the run did and what it
//! resumed, no hostile payload makes a serve codec panic, and the serve
//! daemon's one ledger counts every answered frame once.

use abp_geom::{Point, Terrain};
use abp_serve::daemon::{Daemon, ServeConfig};
use abp_serve::metrics::{OpClass, ALL_CLASSES};
use abp_serve::protocol::{self as wire, PlaceAlgo, Status, MAX_FRAME};
use abp_serve::state::{config_fingerprint, load_state, save_state, StateOpen};
use abp_sim::experiments::density_error;
use abp_sim::{
    figures, AlgorithmKind, CheckpointOpen, Ctx, Figure, MetricsRecorder, Probe, SimConfig,
    SweepCheckpoint,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the tests in this binary that flip the process-global
/// `abp-trace` gate, so none turns it off under another.
static TRACE_GATE: Mutex<()> = Mutex::new(());

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

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Counts the sweep and trial events a run reports.
#[derive(Default)]
struct EventCount {
    sweeps_started: AtomicUsize,
    sweeps_computed: AtomicUsize,
    sweeps_restored: AtomicUsize,
    trials_done: AtomicUsize,
}

impl Probe for EventCount {
    fn sweep_start(&self, _experiment: &str, _beacons: usize, _trials: usize) {
        self.sweeps_started.fetch_add(1, Ordering::Relaxed);
    }

    fn sweep_done(&self, _experiment: &str, _beacons: usize, _wall: Duration, restored: bool) {
        let count = if restored {
            &self.sweeps_restored
        } else {
            &self.sweeps_computed
        };
        count.fetch_add(1, Ordering::Relaxed);
    }

    fn trial_done(&self, _busy: Duration) {
        self.trials_done.fetch_add(1, Ordering::Relaxed);
    }
}

/// One checkpointed figure of [`checkpoint_files_keep_their_bytes`].
struct Locked {
    name: &'static str,
    run: fn(&SimConfig, Ctx<'_>) -> Vec<Figure>,
    /// FNV-1a digest, byte length and entry count of the fresh file.
    file: (u64, usize, usize),
    /// The figure-lock (or fault-lock) digest of each CSV.
    csvs: &'static [u64],
}

const LOCKED: [Locked; 4] = [
    Locked {
        name: "fig4",
        run: |cfg, ctx| vec![figures::fig4_with(cfg, ctx)],
        file: (0xd0a1_11fe_10c3_d7f3, 414, 3),
        csvs: &[0x038b_8e9d_dca0_1596],
    },
    Locked {
        name: "fig5",
        run: |cfg, ctx| {
            let (mean, median) = figures::fig5_with(cfg, ctx);
            vec![mean, median]
        },
        file: (0x0e48_d728_856f_b344, 633, 3),
        csvs: &[0x8ffa_c2db_4bd2_dc34, 0x050d_e0d0_a78f_fef1],
    },
    Locked {
        name: "fig9",
        run: |cfg, ctx| {
            let (mean, median) = figures::fig_noise_with(cfg, AlgorithmKind::Grid, ctx);
            vec![mean, median]
        },
        file: (0xba6e_a449_7cda_911e, 1392, 12),
        csvs: &[0x620a_0d02_0912_dcc5, 0x5862_efe2_4e06_0d6e],
    },
    Locked {
        name: "faults",
        run: |cfg, ctx| {
            let (failure, burst) = figures::faults_with(cfg, 40, ctx);
            vec![failure, burst]
        },
        file: (0xccf0_9b36_45e2_619c, 1828, 10),
        csvs: &[0x6f52_6269_4fa3_1bf6, 0xdcfe_a404_805f_8720],
    },
];

fn csv_digests(figs: &[Figure]) -> Vec<u64> {
    figs.iter().map(|f| fnv1a(f.to_csv().as_bytes())).collect()
}

/// The checkpoint file each checkpointed sweep family writes at the tiny
/// preset hashes to a committed digest, at any thread count, so every
/// key and entry byte holds across versions and a file an older build
/// wrote keeps resuming. Reopened, the file replays its figure without
/// starting a sweep or running a trial, and the CSVs match the figure
/// and fault locks.
#[test]
fn checkpoint_files_keep_their_bytes() {
    let dir = std::env::temp_dir().join(format!("abp-ckpt-lock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for threads in [1, 2] {
        let cfg = SimConfig {
            trials: 3,
            threads,
            ..SimConfig::tiny()
        };
        for lock in &LOCKED {
            let path = dir.join(format!("{}-{threads}.ckpt", lock.name));
            let _ = std::fs::remove_file(&path);
            let fresh = SweepCheckpoint::open(&path, cfg.fingerprint()).unwrap();
            let figs = (lock.run)(&cfg, Ctx::noop().with_checkpoint(&fresh));
            assert_eq!(csv_digests(&figs), lock.csvs, "{} CSVs", lock.name);
            let raw = std::fs::read(&path).unwrap();
            let (digest, len, entries) = lock.file;
            assert_eq!(
                (fnv1a(&raw), raw.len(), fresh.len()),
                (digest, len, entries),
                "{} checkpoint at {threads} thread(s): {:#018x}, {} B",
                lock.name,
                fnv1a(&raw),
                raw.len()
            );

            replay(&cfg, lock, &path, entries);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reopens a finished checkpoint and re-runs its figure: every sweep
/// comes back restored, no trial runs, and the CSVs are unchanged.
fn replay(cfg: &SimConfig, lock: &Locked, path: &Path, entries: usize) {
    let reopened = SweepCheckpoint::open(path, cfg.fingerprint()).unwrap();
    assert_eq!(
        reopened.opened(),
        CheckpointOpen::Resumed {
            entries,
            quarantined: 0
        }
    );
    let count = EventCount::default();
    let figs = (lock.run)(cfg, Ctx::new(&count).with_checkpoint(&reopened));
    assert_eq!(csv_digests(&figs), lock.csvs, "{} replayed CSVs", lock.name);
    let seen = |c: &AtomicUsize| c.load(Ordering::Relaxed);
    assert_eq!(
        (
            seen(&count.sweeps_started),
            seen(&count.sweeps_computed),
            seen(&count.trials_done),
            seen(&count.sweeps_restored)
        ),
        (0, 0, 0, entries),
        "{} replay must restore every sweep and run no trial",
        lock.name
    );
}

/// Every `"key": value` in a hand-written JSON document, in order, each
/// value as written (a string keeps its quotes).
fn json_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": ");
    json.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &json[at + needle.len()..];
            let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
            rest[..end].trim()
        })
        .collect()
}

/// The run report of a checkpointed batch run counts every trial each
/// figure ran, the hot-path counters, the trial-time quantiles in
/// order, and the configuration's checkpoint key. Rerun from the
/// finished checkpoint, the same report runs no trial, keeps the key,
/// and says the file resumed.
#[test]
fn run_report_counts_a_checkpointed_run_and_its_resume() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SimConfig {
        trials: 2,
        ..SimConfig::tiny()
    };
    let dir = std::env::temp_dir().join(format!("abp-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figs.ckpt");
    let _ = std::fs::remove_file(&path);
    let run = || {
        let checkpoint = SweepCheckpoint::open(&path, cfg.fingerprint()).unwrap();
        let recorder = MetricsRecorder::new(cfg.threads);
        recorder.checkpoint_opened(&path, &checkpoint.opened());
        abp_trace::reset_metrics();
        abp_trace::set_enabled(true);
        let ctx = Ctx::new(&recorder).with_checkpoint(&checkpoint);
        figures::fig4_with(&cfg, ctx);
        figures::fig5_with(&cfg, ctx);
        abp_trace::set_enabled(false);
        recorder.report("fig4+fig5", &cfg)
    };
    let fingerprint = format!("\"{:#018x}\"", cfg.fingerprint());

    let first = run();
    assert_eq!(json_values(&first, "figure"), ["\"fig4\"", "\"fig5\""]);
    let per_figure = (cfg.beacon_counts.len() * cfg.trials).to_string();
    assert_eq!(
        json_values(&first, "trials"),
        [&per_figure, &per_figure],
        "{first}"
    );
    assert_eq!(json_values(&first, "config_fingerprint"), [&fingerprint]);
    assert_eq!(json_values(&first, "opened"), ["\"created\""], "{first}");
    for counter in ["links_tested", "candidates_scanned"] {
        let total: Vec<u64> = json_values(&first, counter)
            .iter()
            .map(|v| v.parse().unwrap())
            .collect();
        assert!(matches!(total[..], [n] if n > 0), "{counter}: {first}");
    }
    let seconds = |key| -> Vec<f64> {
        json_values(&first, key)
            .iter()
            .map(|v| v.parse().unwrap())
            .collect()
    };
    let (p50, p90, p99) = (
        seconds("trial_p50_s"),
        seconds("trial_p90_s"),
        seconds("trial_p99_s"),
    );
    for f in 0..2 {
        assert!(
            0.0 < p50[f] && p50[f] <= p90[f] && p90[f] <= p99[f],
            "figure {f}: {first}"
        );
    }

    let resumed = run();
    assert_eq!(json_values(&resumed, "trials"), ["0", "0"], "{resumed}");
    assert_eq!(json_values(&resumed, "config_fingerprint"), [&fingerprint]);
    assert_eq!(
        json_values(&resumed, "opened"),
        ["\"resumed\""],
        "{resumed}"
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

/// Sends one request frame and reads the answer into `frame`.
fn roundtrip(conn: &mut TcpStream, out: &[u8], frame: &mut Vec<u8>) {
    conn.write_all(out).unwrap();
    assert!(wire::read_frame(conn, frame).unwrap());
}

/// One `/metrics` scrape: every unlabelled sample, by name.
fn scrape(addr: SocketAddr) -> HashMap<String, u64> {
    let mut http = TcpStream::connect(addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The daemon keeps one ledger, and every frame it answers lands there
/// once, in one class: a Localize naming an unknown beacon, a malformed
/// frame and an oversize length prefix are each one `error` request and
/// one refused frame, never a `localize`. A `/metrics` scrape and the
/// exit report read the same counts, and the request total is the sum
/// of the five classes.
#[test]
fn serve_ledger_counts_every_answered_frame_once() {
    let cfg = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::tiny()
    };
    let daemon = Daemon::start(&cfg).unwrap();
    let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
    let mut out = Vec::new();
    let mut frame = Vec::new();

    // 1. A good Localize (one roster id; the tiny field numbers its
    //    beacons from 0).
    wire::encode_localize_request(&mut out, &[0]);
    roundtrip(&mut conn, &out, &mut frame);
    assert_eq!(wire::decode_localize_response(&frame).unwrap().heard, 1);
    // 2. A Localize naming an unknown beacon.
    wire::encode_localize_request(&mut out, &[u64::MAX]);
    roundtrip(&mut conn, &out, &mut frame);
    assert_eq!(
        wire::decode_localize_response(&frame),
        Err(Status::UnknownBeacon)
    );
    // 3. A malformed frame: a Localize announcing 5 ids, carrying none.
    let payload = [1u8, 5, 0, 0, 0];
    let mut malformed = (payload.len() as u32).to_le_bytes().to_vec();
    malformed.extend_from_slice(&payload);
    roundtrip(&mut conn, &malformed, &mut frame);
    assert_eq!(frame, vec![Status::BadFrame as u8]);
    // 4. Info.
    wire::encode_info_request(&mut out);
    roundtrip(&mut conn, &out, &mut frame);
    assert!(wire::decode_info_response(&frame).is_ok());
    // 5. A dry-run Place.
    wire::encode_place_request(&mut out, PlaceAlgo::Max, 0, false);
    roundtrip(&mut conn, &out, &mut frame);
    assert!(!wire::decode_place_response(&frame).unwrap().applied);
    // 6. Stats.
    wire::encode_stats_request(&mut out);
    roundtrip(&mut conn, &out, &mut frame);
    assert!(wire::decode_stats_response(&frame).is_ok());
    // 7. An oversize length prefix on a second connection: answered
    //    Oversize, then hung up on.
    let mut oversize = TcpStream::connect(daemon.local_addr()).unwrap();
    roundtrip(&mut oversize, &(MAX_FRAME + 1).to_le_bytes(), &mut frame);
    assert_eq!(frame, vec![Status::Oversize as u8]);
    assert!(!wire::read_frame(&mut oversize, &mut frame).unwrap());
    drop(conn);

    let scraped = scrape(daemon.metrics_addr().unwrap());
    let report = daemon.shutdown();
    let reply = &report.reply;
    let scraped = |name: &str| *scraped.get(name).unwrap_or_else(|| panic!("no {name}"));

    assert_eq!(
        reply.count(OpClass::Error),
        3,
        "unknown beacon, malformed, oversize"
    );
    assert_eq!(reply.count(OpClass::Localize), 1);
    for (class, want) in [(OpClass::Place, 1), (OpClass::Info, 1), (OpClass::Stats, 1)] {
        assert_eq!(reply.count(class), want, "{}", class.name());
    }
    assert_eq!(report.refused, 3);
    assert_eq!(reply.connections_total, 2);
    assert_eq!(reply.requests_total(), 7);

    let mut class_sum = 0;
    for &class in &ALL_CLASSES {
        let name = format!("{}_total", class.counter_name());
        assert_eq!(scraped(&name), reply.count(class), "{name}");
        class_sum += scraped(&name);
    }
    assert_eq!(scraped("serve_requests_total"), class_sum);
    assert_eq!(scraped("serve_requests_total"), reply.requests_total());
    assert_eq!(scraped("serve_protocol_errors_total"), report.refused);
    assert_eq!(scraped("serve_connections_total"), reply.connections_total);
}

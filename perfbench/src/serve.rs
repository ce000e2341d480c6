//! The serve-churn workload: an in-process `abp-serve` daemon at paper
//! scale under closed-loop load, with placements applied while it reads.
//!
//! A run is a series of identical rounds. Each round starts a fresh
//! daemon (timed as set-up until its port accepts), drives it with one
//! connection per client thread, each waiting for every reply, through a
//! request stream fixed by seed and index: localize requests of 1–8
//! roster ids, a dry-run Place every `place_every`-th request, and a
//! Random Place with apply=1 every `apply_every`-th. Random placements
//! depend only on their seed, so every round must end in the same world:
//! the initial roster plus exactly the applied points, served
//! bit-identically to the batch pipeline.

use crate::{median, metric, quantile, Args, Metric, Outcome};
use abp_geom::{splitmix64, Point};
use abp_radio::IdealDisk;
use abp_serve::daemon::{Daemon, ServeConfig};
use abp_serve::engine;
use abp_serve::metrics::OpClass;
use abp_serve::protocol::{self as wire, LocalizeReply, PlaceAlgo, Request, StatsReply};
use abp_serve::snapshot::{SnapshotCell, WorldSnapshot};
use std::hint::black_box;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The serve layer metrics, with units, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 10] = [
    ("serve.handler_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.decode_ns", "ns"),
    ("serve.snapshot_read_ns", "ns"),
    ("serve.localize_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.place_ns", "ns"),
    ("serve.rebuild_ms", "ms"),
    ("serve.rebuilds", "count"),
    ("serve.apply_visible_ms", "ms"),
];

/// Load shape of one round.
struct Spec {
    cfg: ServeConfig,
    clients: usize,
    requests: usize,
    warmup: usize,
    apply_every: usize,
    place_every: usize,
    seed: u64,
}

impl Spec {
    fn new(args: &Args) -> Self {
        let seed = splitmix64(args.seed ^ 0x5E_4E_C4);
        if args.tiny {
            Spec {
                cfg: ServeConfig {
                    seed,
                    ..ServeConfig::tiny()
                },
                clients: 2,
                requests: 1_000,
                warmup: 16,
                apply_every: 250,
                place_every: 16,
                seed,
            }
        } else {
            Spec {
                // nproc workers and rebuild tiles, 100 beacons, 1 m lattice.
                cfg: ServeConfig {
                    seed,
                    ..ServeConfig::paper_scale()
                },
                clients: 2,
                requests: 20_000,
                warmup: 64,
                apply_every: 2_500,
                place_every: 16,
                seed,
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Kind {
    Localize {
        ids: Vec<u64>,
        distinct: u32,
    },
    Place {
        algo: PlaceAlgo,
        seed: u64,
        apply: bool,
    },
}

/// One request of a client's stream, pre-encoded.
struct Req {
    frame: Vec<u8>,
    kind: Kind,
}

/// Client `c`'s request stream: fixed by seed and request index.
fn stream(spec: &Spec, c: usize, roster: &[u64]) -> Vec<Req> {
    let mut state = splitmix64(spec.seed ^ (c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut next = || {
        state = splitmix64(state);
        state
    };
    (0..spec.requests)
        .map(|i| {
            let mut frame = Vec::new();
            let kind = if i % spec.apply_every == spec.apply_every - 1 {
                Kind::Place {
                    algo: PlaceAlgo::Random,
                    seed: next(),
                    apply: true,
                }
            } else if i % spec.place_every == spec.place_every - 1 {
                let algo = [PlaceAlgo::Random, PlaceAlgo::Max, PlaceAlgo::Grid]
                    [(i / spec.place_every) % 3];
                Kind::Place {
                    algo,
                    seed: next(),
                    apply: false,
                }
            } else {
                let k = 1 + (next() % 8) as usize;
                let ids: Vec<u64> = (0..k)
                    .map(|_| roster[(next() % roster.len() as u64) as usize])
                    .collect();
                let mut distinct = ids.clone();
                distinct.sort_unstable();
                distinct.dedup();
                Kind::Localize {
                    distinct: distinct.len() as u32,
                    ids,
                }
            };
            match &kind {
                Kind::Localize { ids, .. } => wire::encode_localize_request(&mut frame, ids),
                Kind::Place { algo, seed, apply } => {
                    wire::encode_place_request(&mut frame, *algo, *seed, *apply)
                }
            }
            Req { frame, kind }
        })
        .collect()
}

/// What one client observed in one round.
#[derive(Default)]
struct ClientLog {
    localize_us: Vec<f64>,
    visible_ms: Vec<f64>,
    failed: u64,
}

/// One closed-loop client: send, wait for the reply, check it, repeat.
fn client(
    mut conn: TcpStream,
    reqs: &[Req],
    warmup: usize,
    start: &Barrier,
) -> io::Result<ClientLog> {
    let mut log = ClientLog::default();
    let mut frame = Vec::with_capacity(256);
    // (acknowledged at, epoch the acknowledging snapshot had)
    let mut pending: Option<(Instant, u64)> = None;
    start.wait();
    for (i, req) in reqs.iter().enumerate() {
        let sent = Instant::now();
        conn.write_all(&req.frame)?;
        if !wire::read_frame(&mut conn, &mut frame)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon hung up",
            ));
        }
        let rtt = sent.elapsed();
        let epoch = match &req.kind {
            Kind::Localize { distinct, .. } => match wire::decode_localize_response(&frame) {
                Ok(r) if r.heard == *distinct && r.estimate.is_some() => {
                    if i >= warmup {
                        log.localize_us.push(rtt.as_nanos() as f64 / 1e3);
                    }
                    Some(r.epoch)
                }
                _ => None,
            },
            Kind::Place { algo, apply, .. } => match wire::decode_place_response(&frame) {
                Ok(r) if r.algo == *algo && r.applied == *apply => {
                    if *apply {
                        pending = Some((Instant::now(), r.epoch));
                        continue;
                    }
                    Some(r.epoch)
                }
                _ => None,
            },
        };
        match (epoch, pending) {
            (None, _) => log.failed += 1,
            (Some(e), Some((acked, before))) if e > before => {
                log.visible_ms.push(acked.elapsed().as_nanos() as f64 / 1e6);
                pending = None;
            }
            _ => {}
        }
    }
    Ok(log)
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    p90_us: f64,
    mean_us: f64,
    localize_samples: usize,
    requests: u64,
    failed: u64,
    visible_ms: Vec<f64>,
    world_ok: bool,
    served_ok: bool,
    stats: Option<StatsReply>,
}

fn stats_request(addr: std::net::SocketAddr) -> io::Result<StatsReply> {
    let mut conn = TcpStream::connect(addr)?;
    let mut out = Vec::new();
    wire::encode_stats_request(&mut out);
    conn.write_all(&out)?;
    let mut frame = Vec::new();
    wire::read_frame(&mut conn, &mut frame)?;
    wire::decode_stats_response(&frame)
        .map_err(|s| io::Error::new(io::ErrorKind::InvalidData, format!("stats: {s:?}")))
}

/// The sorted bit patterns of a world's beacon positions.
fn world_bits(snap: &WorldSnapshot) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = snap
        .field()
        .positions()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

fn round(
    spec: &Spec,
    streams: &[Vec<Req>],
    expected: &[(u64, u64)],
    applies: u64,
    query_stats: bool,
) -> io::Result<Round> {
    let started = Instant::now();
    let daemon = Daemon::start(&spec.cfg)?;
    let addr = daemon.local_addr();
    let mut conns = Vec::with_capacity(spec.clients);
    let mut setup_s = 0.0;
    for _ in 0..spec.clients {
        let conn = TcpStream::connect(addr)?;
        if conns.is_empty() {
            setup_s = started.elapsed().as_secs_f64();
        }
        conn.set_nodelay(true)?;
        // A reply that never comes fails the run instead of hanging it.
        conn.set_read_timeout(Some(Duration::from_secs(10)))?;
        conns.push(conn);
    }
    let barrier = Barrier::new(spec.clients + 1);
    let (logs, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(streams)
            .map(|(conn, reqs)| {
                let barrier = &barrier;
                s.spawn(move || client(conn, reqs, spec.warmup, barrier))
            })
            .collect();
        barrier.wait();
        let begun = Instant::now();
        let logs: Vec<io::Result<ClientLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, begun.elapsed())
    });
    let logs: Vec<ClientLog> = logs.into_iter().collect::<io::Result<_>>()?;

    // Let every apply land, then check the world the daemon ended in.
    let waiting = Instant::now();
    while daemon.epoch() < applies && waiting.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = if query_stats {
        Some(stats_request(addr)?)
    } else {
        None
    };
    let snap = daemon.snapshot();
    let world_ok = snap.epoch() == applies && world_bits(&snap) == expected;
    let served_ok = engine::served_matches_batch(&snap, 1);
    daemon.shutdown();

    let localize: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.localize_us.iter().copied())
        .collect();
    let requests = (spec.clients * spec.requests) as u64;
    Ok(Round {
        setup_s,
        qps: requests as f64 / wall.as_secs_f64(),
        p50_us: quantile(&localize, 0.5),
        p99_us: quantile(&localize, 0.99),
        p90_us: quantile(&localize, 0.9),
        mean_us: localize.iter().sum::<f64>() / localize.len().max(1) as f64,
        localize_samples: localize.len(),
        requests,
        failed: logs.iter().map(|l| l.failed).sum(),
        visible_ms: logs
            .iter()
            .flat_map(|l| l.visible_ms.iter().copied())
            .collect(),
        world_ok,
        served_ok,
        stats,
    })
}

/// In-process replay of one client's stream against the initial world,
/// timed in batches: per-request nanoseconds for each serving layer.
struct Replay {
    decode_ns: f64,
    snapshot_read_ns: f64,
    localize_ns: f64,
    encode_ns: f64,
    place_ns: f64,
    rebuild_ms: f64,
}

fn replay(spec: &Spec, initial: &WorldSnapshot, reqs: &[Req], applied: &[Point]) -> Replay {
    const BATCH: usize = 512;
    let model = Arc::new(IdealDisk::new(spec.cfg.nominal_range));
    let cell = SnapshotCell::new(WorldSnapshot::build_with_threads(
        0,
        initial.field().clone(),
        model,
        spec.cfg.step,
        spec.cfg.survey_threads,
    ));
    let mut reader = cell.reader();
    let snap = cell.load();
    let mut ids = Vec::with_capacity(256);
    let mut slots = Vec::with_capacity(256);
    let mut out = Vec::with_capacity(4096);
    let mut replies: Vec<LocalizeReply> = Vec::with_capacity(BATCH);
    let per = |t: Instant, n: usize| t.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let (mut decode, mut read, mut localize, mut encode, mut place) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for chunk in reqs.chunks(BATCH) {
        let t = Instant::now();
        for r in chunk {
            let req: Result<Request, _> = wire::decode_request(&r.frame[4..], &mut ids);
            black_box(req.expect("the stream decodes"));
        }
        decode.push(per(t, chunk.len()));

        let t = Instant::now();
        for _ in chunk {
            black_box(reader.current().epoch());
        }
        read.push(per(t, chunk.len()));

        replies.clear();
        let t = Instant::now();
        for r in chunk {
            if let Kind::Localize { ids, .. } = &r.kind {
                replies.push(engine::localize(&snap, ids, &mut slots).expect("roster ids resolve"));
            }
        }
        localize.push(per(t, replies.len()));

        let t = Instant::now();
        for reply in &replies {
            wire::encode_localize_response(&mut out, reply);
            black_box(&out);
        }
        encode.push(per(t, replies.len()));

        let t = Instant::now();
        let mut n = 0;
        for r in chunk {
            if let Kind::Place { algo, seed, .. } = r.kind {
                black_box(engine::place(&snap, algo, seed));
                n += 1;
            }
        }
        if n > 0 {
            place.push(per(t, n));
        }
    }
    let mut rebuild = Vec::with_capacity(applied.len());
    let mut current: Option<WorldSnapshot> = None;
    for &p in applied {
        let t = Instant::now();
        let next = current.as_ref().unwrap_or(&snap).with_beacon_added(p);
        rebuild.push(t.elapsed().as_nanos() as f64 / 1e6);
        current = Some(next);
    }
    Replay {
        decode_ns: median(&decode),
        snapshot_read_ns: median(&read),
        localize_ns: median(&localize),
        encode_ns: median(&encode),
        place_ns: median(&place),
        rebuild_ms: median(&rebuild),
    }
}

/// Runs the serve-churn workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = Spec::new(args);
    let err = |e: io::Error| format!("{e}");

    // The initial world fixes the roster, the streams, and the world
    // every round must end in.
    let boot = Daemon::start(&spec.cfg).map_err(err)?;
    let initial = boot.snapshot();
    boot.shutdown();
    let roster: Vec<u64> = initial.field().iter().map(|b| b.id().0).collect();
    let streams: Vec<Vec<Req>> = (0..spec.clients)
        .map(|c| stream(&spec, c, &roster))
        .collect();
    let applied: Vec<Point> = streams
        .iter()
        .flatten()
        .filter_map(|r| match r.kind {
            Kind::Place {
                algo,
                seed,
                apply: true,
                ..
            } => Some(
                initial
                    .terrain()
                    .bounds()
                    .clamp_point(engine::place(&initial, algo, seed)),
            ),
            _ => None,
        })
        .collect();
    let mut expected = world_bits(&initial);
    expected.extend(applied.iter().map(|p| (p.x.to_bits(), p.y.to_bits())));
    expected.sort_unstable();
    let world_hash = expected.iter().fold(crate::FNV_SEED, |h, (x, y)| {
        crate::fnv1a(crate::fnv1a(h, &x.to_le_bytes()), &y.to_le_bytes())
    });

    let applies = applied.len() as u64;
    let mut out = Outcome::default();
    // Warm-up round, untimed.
    let warm = round(&spec, &streams, &expected, applies, false).map_err(err)?;
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let started = Instant::now();
    let mut traced = false;
    loop {
        rounds.push((
            traced,
            round(&spec, &streams, &expected, applies, traced).map_err(err)?,
        ));
        traced = args.trace && !traced;
        if started.elapsed() >= args.seconds && (!args.trace || rounds.len() >= 2) {
            break;
        }
    }
    let rss = crate::peak_rss_mb();
    let per_round: Vec<String> = rounds
        .iter()
        .map(|(_, r)| format!("{:.0}", r.qps))
        .collect();
    out.notes
        .push(format!("round qps: {}", per_round.join(" ")));

    let all = || std::iter::once(&warm).chain(rounds.iter().map(|(_, r)| r));
    out.attempted = all().map(|r| r.requests).sum();
    out.failed = all().map(|r| r.failed).sum();
    let n_rounds = rounds.len() + 1;
    out.check(
        "final_world",
        all().all(|r| r.world_ok),
        format!(
            "{n_rounds} rounds end with the roster plus exactly the {} applied points",
            applied.len()
        ),
    );
    out.check(
        "served_matches_batch",
        all().all(|r| r.served_ok),
        "final post-churn snapshot, every lattice point",
    );
    crate::check_reference(&mut out, args, world_hash);

    let pick = |f: &dyn Fn(&Round) -> f64, traced_only: Option<bool>| -> Vec<f64> {
        rounds
            .iter()
            .filter(|(t, _)| traced_only.is_none_or(|want| *t == want))
            .map(|(_, r)| f(r))
            .collect()
    };
    let qps = median(&pick(&|r| r.qps, None));
    let p50 = median(&pick(&|r| r.p50_us, None));
    let p99 = median(&pick(&|r| r.p99_us, None));
    let visible: Vec<f64> = rounds
        .iter()
        .flat_map(|(_, r)| r.visible_ms.iter().copied())
        .collect();
    let requests: u64 = rounds.iter().map(|(_, r)| r.requests).sum();
    let localize_samples: usize = rounds.iter().map(|(_, r)| r.localize_samples).sum();
    out.end_to_end = vec![
        metric("ops_per_s", qps, "1/s"),
        metric("op_p50_us", p50, "us"),
        metric("op_p90_us", median(&pick(&|r| r.p90_us, None)), "us"),
        metric("setup_s", median(&pick(&|r| r.setup_s, None)), "s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    out.extra = vec![
        metric("qps", qps, "1/s"),
        metric("localize_p50_us", p50, "us"),
        metric("localize_p99_us", p99, "us"),
        metric("apply_visible_ms", median(&visible), "ms"),
        metric("apply_visible_samples", visible.len() as f64, "count"),
        metric("localize_samples", localize_samples as f64, "count"),
        metric("requests", requests as f64, "count"),
        metric("rounds", rounds.len() as f64, "count"),
        metric("clients", spec.clients as f64, "count"),
        metric("workers", crate::workers() as f64, "count"),
    ];

    if args.trace {
        let handler: Vec<(f64, f64)> = rounds
            .iter()
            .filter_map(|(_, r)| {
                let c = &r.stats.as_ref()?.classes[OpClass::Localize as usize];
                let handler_us = c.sum_ns as f64 / c.count.max(1) as f64 / 1e3;
                Some((handler_us, r.mean_us - handler_us))
            })
            .collect();
        let rebuilds: Vec<f64> = rounds
            .iter()
            .filter_map(|(_, r)| Some(r.stats.as_ref()?.rebuilds_total as f64))
            .collect();
        let rp = replay(&spec, &initial, &streams[0], &applied);
        let overhead = 100.0
            * (median(&pick(&|r| r.qps, Some(false))) / median(&pick(&|r| r.qps, Some(true)))
                - 1.0);
        let per_layer: Vec<Metric> = vec![
            metric(
                "serve.handler_us",
                median(&handler.iter().map(|h| h.0).collect::<Vec<_>>()),
                "us",
            ),
            metric(
                "serve.wire_us",
                median(&handler.iter().map(|h| h.1).collect::<Vec<_>>()),
                "us",
            ),
            metric("serve.decode_ns", rp.decode_ns, "ns"),
            metric("serve.snapshot_read_ns", rp.snapshot_read_ns, "ns"),
            metric("serve.localize_ns", rp.localize_ns, "ns"),
            metric("serve.encode_ns", rp.encode_ns, "ns"),
            metric("serve.place_ns", rp.place_ns, "ns"),
            metric("serve.rebuild_ms", rp.rebuild_ms, "ms"),
            metric("serve.rebuilds", median(&rebuilds), "count"),
            metric("serve.apply_visible_ms", median(&visible), "ms"),
            metric("trace_overhead_pct", overhead, "%"),
        ];
        out.per_layer = crate::complete_per_layer(per_layer);
    }
    Ok(out)
}

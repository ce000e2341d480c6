//! The `abp serve-bench` load harness.
//!
//! Starts an in-process daemon, drives it with N client threads over
//! real TCP sockets (so the measured path includes framing and the
//! loopback stack), and reports:
//!
//! * **client-observed latency** — each client stamps every
//!   request/response round trip; quantiles are exact order statistics
//!   over the merged post-warmup samples (rank `ceil(q·n)`, the same
//!   rule `HistogramSnapshot::quantile_ns` documents),
//! * **throughput** — total requests over the driving wall time,
//! * **allocs/request** — the daemon's post-warmup thread-local
//!   allocator deltas (exact under `--features count-allocs`, vacuous
//!   zeros otherwise),
//! * **bit-identity** — [`engine::served_matches_batch`] over the full
//!   served lattice, so the report can only claim a healthy daemon if
//!   served localizations equal the batch pipeline's bit for bit.
//!
//! Client threads allocate freely (latency logs live on their side);
//! allocator accounting is per *worker* thread, so in-process clients
//! do not pollute the server-side measurement.

use crate::daemon::{Daemon, ServeConfig};
use crate::engine;
use crate::protocol::{self as wire, PlaceAlgo};
use abp_geom::splitmix64;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load shape for [`run_load`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Measured requests per client (after warm-up).
    pub requests_per_client: usize,
    /// Unmeasured warm-up requests per client; at least the daemon's
    /// own per-connection allocation warm-up.
    pub warmup_per_client: usize,
    /// Every n-th request is a place request (the rest localize).
    pub place_every: usize,
    /// Seed for the clients' request mix.
    pub seed: u64,
}

impl LoadConfig {
    /// The committed-benchmark shape: 4 clients × 2000 requests.
    pub fn paper_scale() -> Self {
        LoadConfig {
            clients: 4,
            requests_per_client: 2000,
            warmup_per_client: 64,
            place_every: 16,
            seed: 7,
        }
    }

    /// A sub-second shape for tests and CI smoke runs.
    pub fn tiny() -> Self {
        LoadConfig {
            clients: 2,
            requests_per_client: 150,
            warmup_per_client: 40,
            place_every: 16,
            seed: 7,
        }
    }
}

/// The harness result — everything the `serve_qps` bench block records.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Client threads driven.
    pub clients: usize,
    /// Measured requests (post-warmup, summed over clients).
    pub requests: u64,
    /// Wall time of the driving phase, seconds.
    pub wall_s: f64,
    /// Requests per second over the driving phase.
    pub qps: f64,
    /// Median round-trip latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile round-trip latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile round-trip latency, seconds.
    pub p99_s: f64,
    /// Fastest observed round trip, seconds.
    pub min_s: f64,
    /// Slowest observed round trip, seconds.
    pub max_s: f64,
    /// Requests inside the server-side allocation windows.
    pub measured_requests: u64,
    /// Server-side allocator calls per measured request.
    pub allocs_per_request: f64,
    /// Server-side allocated bytes per measured request.
    pub bytes_per_request: f64,
    /// Whether the counting allocator was compiled in.
    pub alloc_counting: bool,
    /// Whether served localization matched the batch path bit-for-bit
    /// over the full lattice.
    pub identical: bool,
    /// Epoch at shutdown (0: the load phase applied nothing).
    pub final_epoch: u64,
    /// `/metrics` scrapes completed while the load was driving (0 when
    /// the daemon ran without a metrics listener).
    pub scrapes: u64,
    /// Median scrape latency (connect through full body), seconds.
    pub scrape_p50_s: f64,
    /// Slowest scrape, seconds.
    pub scrape_max_s: f64,
}

/// The overload gate's absolute bound on accepted-request p99: with
/// admission control shedding the excess, the requests the daemon
/// *accepts* at 2× capacity must still answer within this budget.
pub const OVERLOAD_P99_BOUND_S: f64 = 0.25;

/// Requests an overload client sends per admitted connection before
/// politely reconnecting — the churn that lets shed clients back in.
/// Must exceed the daemon's per-connection allocation warm-up so the
/// overload path lands inside the alloc measurement windows.
const OVERLOAD_BURST: usize = 64;

/// The `serve-bench` overload block: what happened when twice the
/// admitted capacity hammered the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Client threads offered (2× the admission cap).
    pub offered_clients: usize,
    /// The daemon's `max_conns` admission cap during the flood.
    pub max_conns: usize,
    /// Accepted, measured requests (post-warmup, summed over clients).
    pub requests: u64,
    /// Connections the accept gate shed with [`wire::Status::Overloaded`]
    /// (server-side counter).
    pub shed_connections: u64,
    /// Shed connections over all connection attempts the daemon saw.
    pub shed_rate: f64,
    /// Median accepted-request round trip, seconds (includes admission
    /// queue wait — that is the point).
    pub p50_s: f64,
    /// 99th-percentile accepted-request round trip, seconds.
    pub p99_s: f64,
    /// Whether `p99_s` stayed within [`OVERLOAD_P99_BOUND_S`] — the
    /// claim that shedding keeps accepted work bounded under flood.
    pub bounded: bool,
    /// Requests inside the server-side allocation windows.
    pub measured_requests: u64,
    /// Server-side allocator calls per measured request (the zero-alloc
    /// invariant must hold under overload too).
    pub allocs_per_request: f64,
    /// Whether the counting allocator was compiled in.
    pub alloc_counting: bool,
}

/// One overload client: bursts of localize requests on short-lived
/// connections, reconnecting with a 1 ms pause whenever the accept
/// gate sheds it. Returns the accepted-request latencies.
fn overload_client(addr: std::net::SocketAddr, load: &LoadConfig) -> io::Result<Vec<u64>> {
    let total = load.warmup_per_client + load.requests_per_client;
    let mut latencies = Vec::with_capacity(load.requests_per_client);
    let mut done = 0usize;
    let mut out = Vec::new();
    let mut frame = Vec::new();
    wire::encode_localize_request(&mut out, &[0, 1, 2]);
    // Far beyond any sane shed streak; a daemon that never admits this
    // client again is a bug, not load.
    let mut attempts_left = 10_000usize;
    while done < total {
        attempts_left = attempts_left
            .checked_sub(1)
            .ok_or_else(|| io::Error::other("overload client starved: never re-admitted"))?;
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut admitted = true;
        for _ in 0..OVERLOAD_BURST.min(total - done) {
            let started = Instant::now();
            if conn.write_all(&out).is_err() {
                // The gate closed us mid-write; its Overloaded frame may
                // already be on the wire. Treat as shed.
                admitted = false;
                break;
            }
            match wire::read_frame(&mut conn, &mut frame) {
                Ok(true) if frame.first() == Some(&0) => {
                    if done >= load.warmup_per_client {
                        latencies.push(started.elapsed().as_nanos() as u64);
                    }
                    done += 1;
                }
                Ok(true) if frame.first() == Some(&(wire::Status::Overloaded as u8)) => {
                    admitted = false;
                    break;
                }
                Ok(true) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("overload client got status {:?}", frame.first()),
                    ));
                }
                Ok(false) => {
                    admitted = false;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {
                    admitted = false;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if !admitted {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(latencies)
}

/// Floods the daemon with **twice** its admission cap and measures what
/// the accepted requests cost. The daemon runs with
/// `max_conns = load.clients` and `2 × load.clients` client threads
/// burst against it; shed clients back off 1 ms and retry. The report
/// carries the gate's shed counter, the accepted-side quantiles, and
/// the [`OVERLOAD_P99_BOUND_S`] verdict.
///
/// # Errors
///
/// Propagates daemon start-up and socket errors; a client observing a
/// non-`Ok`, non-`Overloaded` status fails the run, as does a client
/// the gate starves outright.
pub fn run_overload(cfg: &ServeConfig, load: &LoadConfig) -> io::Result<OverloadReport> {
    let capacity = load.clients.max(1);
    let offered = capacity * 2;
    let cfg = ServeConfig {
        max_conns: capacity,
        ..cfg.clone()
    };
    let daemon = Daemon::start(&cfg)?;
    let addr = daemon.local_addr();

    let mut handles = Vec::with_capacity(offered);
    for _ in 0..offered {
        let load = load.clone();
        handles.push(std::thread::spawn(move || overload_client(addr, &load)));
    }
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        let lat = h
            .join()
            .map_err(|_| io::Error::other("overload client thread panicked"))??;
        latencies.extend(lat);
    }
    let stats = daemon.shutdown();
    latencies.sort_unstable();
    assert!(
        !latencies.is_empty(),
        "overload must measure at least one accepted request"
    );
    let ns = 1e-9;
    let p99_s = quantile_ns(&latencies, 0.99) as f64 * ns;
    let shed = stats.reply.shed;
    let attempts = stats.reply.connections_total + shed;
    Ok(OverloadReport {
        offered_clients: offered,
        max_conns: capacity,
        requests: latencies.len() as u64,
        shed_connections: shed,
        shed_rate: if attempts == 0 {
            0.0
        } else {
            shed as f64 / attempts as f64
        },
        p50_s: quantile_ns(&latencies, 0.50) as f64 * ns,
        p99_s,
        bounded: p99_s <= OVERLOAD_P99_BOUND_S,
        measured_requests: stats.measured_requests,
        allocs_per_request: stats.allocs_per_request(),
        alloc_counting: stats.alloc_counting,
    })
}

/// The clients' cheap deterministic request mixer: the SplitMix64
/// generator, [`splitmix64`] of the state, which then advances by the
/// golden-ratio increment.
fn splitmix(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// Exact quantile over sorted samples: rank `ceil(q·n)` clamped to
/// `[1, n]`, matching the histogram convention in `abp-trace`.
fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn client_run(
    addr: std::net::SocketAddr,
    info_seed: u64,
    load: &LoadConfig,
) -> io::Result<Vec<u64>> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let mut out = Vec::new();
    let mut frame = Vec::new();

    wire::encode_info_request(&mut out);
    conn.write_all(&out)?;
    wire::read_frame(&mut conn, &mut frame)?;
    let info = wire::decode_info_response(&frame)
        .map_err(|s| io::Error::new(io::ErrorKind::InvalidData, format!("info: {s:?}")))?;
    let roster: Vec<u64> = info.beacons.iter().map(|&(id, _)| id).collect();

    let mut state = info_seed;
    let mut ids = Vec::new();
    let mut latencies = Vec::with_capacity(load.requests_per_client);
    let total = load.warmup_per_client + load.requests_per_client;
    for i in 0..total {
        if load.place_every > 0 && i % load.place_every == load.place_every - 1 {
            let algo = match splitmix(&mut state) % 3 {
                0 => PlaceAlgo::Random,
                1 => PlaceAlgo::Max,
                _ => PlaceAlgo::Grid,
            };
            wire::encode_place_request(&mut out, algo, splitmix(&mut state), false);
        } else {
            // A random subset of 1..=8 roster ids (duplicates possible;
            // the server dedups).
            let k = 1 + (splitmix(&mut state) as usize % 8);
            ids.clear();
            for _ in 0..k {
                ids.push(roster[splitmix(&mut state) as usize % roster.len()]);
            }
            wire::encode_localize_request(&mut out, &ids);
        }
        let started = Instant::now();
        conn.write_all(&out)?;
        if !wire::read_frame(&mut conn, &mut frame)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up mid-load",
            ));
        }
        let elapsed = started.elapsed().as_nanos() as u64;
        // Responses must decode as a success of the matching kind.
        let ok = matches!(frame.first().copied(), Some(0));
        if !ok {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("error status {:?} under load", frame.first()),
            ));
        }
        if i >= load.warmup_per_client {
            latencies.push(elapsed);
        }
    }
    Ok(latencies)
}

/// One blocking `/metrics` scrape: connect, request, read the full
/// response, check the status line. Returns the latency.
fn scrape_once(addr: std::net::SocketAddr) -> io::Result<Duration> {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    if !response.starts_with("HTTP/1.0 200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("scrape status: {:.60}", response),
        ));
    }
    Ok(started.elapsed())
}

/// Runs the full harness: daemon up, identity gate, N clients, exact
/// quantiles, daemon down. When the daemon carries a metrics listener
/// ([`ServeConfig::metrics_addr`]), a side thread scrapes `/metrics`
/// continuously while the load drives and the report carries the scrape
/// latencies — the cost of observing the daemon *under* load.
///
/// # Errors
///
/// Propagates daemon start-up and client socket errors; a client
/// observing an error status or early hang-up fails the run.
pub fn run_load(cfg: &ServeConfig, load: &LoadConfig) -> io::Result<LoadReport> {
    let daemon = Daemon::start(cfg)?;
    // Identity gate before load: the snapshot the daemon serves must
    // answer exactly like the batch pipeline, over the whole lattice.
    let identical = engine::served_matches_batch(&daemon.snapshot(), 1);
    let addr = daemon.local_addr();

    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = daemon.metrics_addr().map(|maddr| {
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || -> io::Result<Vec<u64>> {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                samples.push(scrape_once(maddr)?.as_nanos() as u64);
                // Prometheus-ish cadence, scaled down to bench length:
                // frequent enough to land many scrapes mid-load, sparse
                // enough that rendering the exposition doesn't contend
                // with the serving threads it is measuring.
                std::thread::sleep(Duration::from_millis(25));
            }
            Ok(samples)
        })
    });

    let driving = Instant::now();
    let mut handles = Vec::with_capacity(load.clients);
    for c in 0..load.clients {
        let load = load.clone();
        let seed = load.seed ^ ((c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        handles.push(std::thread::spawn(move || client_run(addr, seed, &load)));
    }
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        let client = h
            .join()
            .map_err(|_| io::Error::other("client thread panicked"))??;
        latencies.extend(client);
    }
    let wall_s = driving.elapsed().as_secs_f64();

    scrape_stop.store(true, Ordering::Relaxed);
    let mut scrape_ns: Vec<u64> = match scraper {
        Some(h) => h
            .join()
            .map_err(|_| io::Error::other("scraper thread panicked"))??,
        None => Vec::new(),
    };
    scrape_ns.sort_unstable();

    let stats = daemon.shutdown();
    latencies.sort_unstable();
    assert!(
        !latencies.is_empty(),
        "load must measure at least one request"
    );
    let ns = 1e-9;
    Ok(LoadReport {
        clients: load.clients,
        requests: latencies.len() as u64,
        wall_s,
        qps: latencies.len() as f64 / wall_s,
        p50_s: quantile_ns(&latencies, 0.50) as f64 * ns,
        p95_s: quantile_ns(&latencies, 0.95) as f64 * ns,
        p99_s: quantile_ns(&latencies, 0.99) as f64 * ns,
        min_s: latencies[0] as f64 * ns,
        max_s: latencies[latencies.len() - 1] as f64 * ns,
        measured_requests: stats.measured_requests,
        allocs_per_request: stats.allocs_per_request(),
        bytes_per_request: if stats.measured_requests == 0 {
            0.0
        } else {
            stats.measured_bytes as f64 / stats.measured_requests as f64
        },
        alloc_counting: stats.alloc_counting,
        identical,
        final_epoch: stats.reply.epoch,
        scrapes: scrape_ns.len() as u64,
        scrape_p50_s: if scrape_ns.is_empty() {
            0.0
        } else {
            quantile_ns(&scrape_ns, 0.50) as f64 * ns
        },
        scrape_max_s: scrape_ns.last().map_or(0.0, |&v| v as f64 * ns),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_rank_rule() {
        let s = [10u64, 20, 30, 40];
        assert_eq!(quantile_ns(&s, 0.0), 10);
        assert_eq!(quantile_ns(&s, 0.5), 20);
        assert_eq!(quantile_ns(&s, 0.51), 30);
        assert_eq!(quantile_ns(&s, 1.0), 40);
    }

    #[test]
    fn tiny_load_reports_sane_numbers() {
        let report = run_load(&ServeConfig::tiny(), &LoadConfig::tiny()).unwrap();
        assert_eq!(report.clients, 2);
        assert_eq!(report.requests, 300);
        assert!(report.qps > 0.0);
        assert!(report.p50_s > 0.0);
        assert!(report.p50_s <= report.p95_s && report.p95_s <= report.p99_s);
        assert!(report.min_s <= report.p50_s && report.p99_s <= report.max_s);
        assert!(report.identical, "served must match batch bit-for-bit");
        assert_eq!(report.final_epoch, 0, "no applies under plain load");
        assert!(report.measured_requests > 0);
        if report.alloc_counting {
            assert_eq!(
                report.allocs_per_request, 0.0,
                "zero-alloc serving invariant"
            );
        }
        assert_eq!(report.scrapes, 0, "no metrics listener, no scrapes");
    }

    #[test]
    fn overload_flood_sheds_and_stays_bounded() {
        let load = LoadConfig {
            clients: 2,
            requests_per_client: 160,
            warmup_per_client: 16,
            place_every: 0,
            seed: 7,
        };
        let report = run_overload(&ServeConfig::tiny(), &load).unwrap();
        assert_eq!(report.offered_clients, 4);
        assert_eq!(report.max_conns, 2);
        assert_eq!(report.requests, 4 * 160);
        assert!(
            report.shed_connections > 0,
            "2x-capacity flood must trip the accept gate"
        );
        assert!(report.shed_rate > 0.0 && report.shed_rate < 1.0);
        assert!(report.p50_s > 0.0 && report.p50_s <= report.p99_s);
        assert!(
            report.bounded,
            "accepted p99 {}s blew the {}s overload bound",
            report.p99_s, OVERLOAD_P99_BOUND_S
        );
        if report.alloc_counting {
            assert!(
                report.measured_requests > 0,
                "bursts must outlive alloc warm-up"
            );
            assert_eq!(
                report.allocs_per_request, 0.0,
                "zero-alloc invariant must hold under overload"
            );
        }
    }

    #[test]
    fn load_with_metrics_listener_scrapes_under_load() {
        let cfg = ServeConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServeConfig::tiny()
        };
        let report = run_load(&cfg, &LoadConfig::tiny()).unwrap();
        assert!(report.scrapes > 0, "the scraper must land during load");
        assert!(report.scrape_p50_s > 0.0);
        assert!(report.scrape_p50_s <= report.scrape_max_s);
        if report.alloc_counting {
            assert_eq!(
                report.allocs_per_request, 0.0,
                "scraping must not break the zero-alloc request path"
            );
        }
    }
}

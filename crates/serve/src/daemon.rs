//! The daemon: accept loop, one thread per admitted connection,
//! rebuilder thread.
//!
//! Thread layout:
//!
//! * **accept** — one thread on a non-blocking listener. It checks the
//!   admission cap ([`ServeConfig::max_conns`]), counts the connection
//!   as live, and starts its connection thread inside a
//!   [`std::thread::scope`], so the accept thread returns only after
//!   every connection thread has ended,
//! * **connections** — one thread per admitted connection; each owns a
//!   [`ServeScratch`] and a [`SnapshotReader`](crate::snapshot::SnapshotReader)
//!   until its connection closes, so the request path touches no shared
//!   mutable state beyond the epoch hint, and an idle keep-alive client
//!   holds only its own thread,
//! * **rebuilder** — the control plane: receives applied placement
//!   points, grows the published [`WorldSnapshot`] by one incrementally
//!   surveyed beacon, publishes the next epoch. All allocation-heavy work
//!   lives here.
//!
//! Connections are persistent: a connection thread serves frames until
//! clean EOF, a socket error, or shutdown. Reads run under a short
//! timeout so every blocked thread notices shutdown within tens of
//! milliseconds; [`Daemon::shutdown`] (or dropping the [`Daemon`])
//! therefore completes promptly even with idle keep-alive clients
//! attached.
//!
//! Each connection thread brackets the post-warmup portion of its
//! connection with thread-local allocator snapshots (a request whose
//! handler panics closes the window where it began);
//! [`StatsSnapshot::allocs_per_request`] is the aggregate — the value
//! the bench gate pins at exactly zero.

use crate::engine::{self, ServeScratch};
use crate::metrics::{
    FlightEntry, OpClass, ServeMetrics, Tally, ALL_CLASSES, ALL_TALLIES, FLIGHT_SLOTS,
};
use crate::protocol::{self, Request, StatsReply, StatsView, Status, MAX_FRAME};
use crate::snapshot::{SnapshotCell, WorldSnapshot};
use crate::state::{self, StateOpen};
use abp_field::BeaconField;
use abp_geom::{Point, Terrain};
use abp_radio::IdealDisk;
use abp_trace::AllocSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

/// Requests a connection serves before its thread starts counting
/// allocations: lets the reused buffers reach steady-state size.
const ALLOC_WARMUP_REQUESTS: u64 = 32;

/// The presets' [`ServeConfig::max_conns`]. Each admitted connection
/// holds one thread, blocked in 25 ms reads while its client idles. On
/// a shared 2-vCPU Intel Xeon host such threads cost 0.2% of one core
/// at 8 threads, 1.6% at 64 and 5.8% at 256, and 256 of them add
/// 2.6 MiB of RSS (about 10 KiB each).
const DEFAULT_MAX_CONNS: usize = 256;

/// Applied placements that may wait for the rebuilder. The queue's
/// slots are allocated once at boot, so enqueueing an apply allocates
/// nothing; a Place that finds the backlog full answers `applied = 0`
/// and is counted as shed.
const APPLY_BACKLOG: usize = 64;

/// How long blocked reads sleep between shutdown polls.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long after accept a `/metrics` scrape's whole request head may
/// take to arrive, derived from [`POLL_INTERVAL`] (20 polls) so all
/// daemon timing hangs off a single knob instead of scattered magic
/// numbers.
const SCRAPE_TIMEOUT: Duration = POLL_INTERVAL.saturating_mul(20);

/// The complete [`Status::Overloaded`] error frame (length prefix `1`,
/// one status byte), precomputed so the accept-gate shed path writes a
/// stack constant and never touches the heap.
const OVERLOADED_FRAME: [u8; 5] = [1, 0, 0, 0, Status::Overloaded as u8];

/// Daemon construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Beacons in the initial uniform-random field.
    pub beacons: usize,
    /// Square terrain side (meters).
    pub side: f64,
    /// Survey lattice spacing (meters).
    pub step: f64,
    /// Nominal radio range `R` (meters).
    pub nominal_range: f64,
    /// Seed for the initial field.
    pub seed: u64,
    /// Bind address for the side HTTP/1.0 `GET /metrics` listener
    /// (Prometheus text exposition); `None` disables it.
    pub metrics_addr: Option<String>,
    /// Admission cap, and so the connection-thread cap: at most this
    /// many connections are served at once, each on its own thread. A
    /// connection arriving while this many are live is answered one
    /// [`Status::Overloaded`] frame and closed. At least 1
    /// ([`Daemon::start`] rejects 0); both presets use 256.
    pub max_conns: usize,
    /// Per-request handling deadline: a request whose handler runs
    /// longer has its result discarded and is answered
    /// [`Status::DeadlineExceeded`]. `None` disables the deadline.
    pub deadline: Option<Duration>,
    /// Dribble window: once the first byte of a frame arrives, the whole
    /// frame (header + payload) must land within this window or the
    /// connection is quarantined — dropped without a response, counted
    /// (slow-loris defense). Also bounds response writes.
    pub frame_window: Duration,
    /// How long a connection may sit idle *between* frames before the
    /// daemon silently closes it (no counter: idle keep-alive clients
    /// are well-behaved, just absent).
    pub idle_timeout: Duration,
    /// Warm-restart state file: the published world is persisted here on
    /// every epoch publish, and a daemon booting with the same
    /// parameters restores it bit-identically. `None` disables
    /// persistence.
    pub state_path: Option<PathBuf>,
    /// Chaos-test seam: a Place request carrying exactly this seed
    /// panics inside the handler, exercising panic isolation
    /// end-to-end. `None` (the default everywhere) disables the seam.
    pub panic_seed: Option<u64>,
    /// Kept for the whole-run benchmark (`perfbench`), which still reads
    /// it; the thread count is ignored.
    pub survey_threads: usize,
}

impl ServeConfig {
    /// The paper's evaluation scale: 100 m × 100 m terrain, 1 m lattice,
    /// `R` = 15 m, 100 beacons.
    pub fn paper_scale() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            beacons: 100,
            side: 100.0,
            step: 1.0,
            nominal_range: 15.0,
            seed: 42,
            metrics_addr: None,
            max_conns: DEFAULT_MAX_CONNS,
            deadline: None,
            frame_window: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            state_path: None,
            panic_seed: None,
            survey_threads: 0,
        }
    }

    /// A seconds-scale configuration for tests and CI smoke runs.
    pub fn tiny() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            beacons: 25,
            side: 100.0,
            step: 4.0,
            nominal_range: 15.0,
            seed: 42,
            metrics_addr: None,
            max_conns: DEFAULT_MAX_CONNS,
            deadline: None,
            frame_window: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            state_path: None,
            panic_seed: None,
            survey_threads: 1,
        }
    }
}

/// The exit report of [`Daemon::shutdown`]: the daemon's ledger as one
/// final Stats frame carries it, decoded the way a client decodes it,
/// plus the tallies that never travel on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// The final Stats reply: per-class counts and latency histograms,
    /// connections, rebuilds, the resilience counters, and the epoch
    /// current at shutdown.
    pub reply: StatsReply,
    /// Frames refused for their content ([`Tally::Refused`]); each is
    /// also one `error`-class request in `reply`.
    pub refused: u64,
    /// Requests inside the post-warmup allocation measurement windows.
    pub measured_requests: u64,
    /// Allocator calls observed inside those windows.
    pub measured_allocs: u64,
    /// Bytes requested inside those windows.
    pub measured_bytes: u64,
}

impl StatsSnapshot {
    /// Allocator calls per measured request (0.0 when nothing was
    /// measured). The serving invariant pins this at exactly 0.
    pub fn allocs_per_request(&self) -> f64 {
        if self.measured_requests == 0 {
            0.0
        } else {
            self.measured_allocs as f64 / self.measured_requests as f64
        }
    }

    /// One-line summary, printed by the CLI on shutdown.
    pub fn summary_line(&self) -> String {
        let r = &self.reply;
        format!(
            "served {} requests ({} localize, {} place, {} info, {} stats, {} errors) \
             over {} connections; {} applies, final epoch {}; \
             allocs/request {:.3}",
            r.requests_total(),
            r.count(OpClass::Localize),
            r.count(OpClass::Place),
            r.count(OpClass::Info),
            r.count(OpClass::Stats),
            r.count(OpClass::Error),
            r.connections_total,
            r.rebuilds_total,
            r.epoch,
            self.allocs_per_request(),
        )
    }

    /// Multi-line per-opcode breakdown: count and p50/p95/p99 handler
    /// latency per class, plus drop accounting. Printed by the CLI under
    /// [`StatsSnapshot::summary_line`]; empty when no request was
    /// served.
    pub fn summary_table(&self) -> String {
        let r = &self.reply;
        if r.requests_total() == 0 {
            return String::new();
        }
        let mut out = String::new();
        out.push_str("  opcode     count       p50       p95       p99\n");
        for (class, op) in ALL_CLASSES.iter().zip(r.classes.iter()) {
            if op.count == 0 {
                continue;
            }
            let hist = op.histogram(class.metric_name());
            let q = |p: f64| fmt_ns(hist.quantile_ns(p).unwrap_or(0));
            out.push_str(&format!(
                "  {:<8} {:>7}  {:>8}  {:>8}  {:>8}\n",
                class.name(),
                op.count,
                q(0.50),
                q(0.95),
                q(0.99),
            ));
        }
        out.push_str(&format!(
            "  rebuilds {} done, {} pending; flight drops {}",
            r.rebuilds_total, r.rebuilds_pending, r.flight_dropped
        ));
        let defenses =
            r.shed + r.deadline_exceeded + r.panics + r.quarantines + r.state_saves + r.state_loads;
        if defenses > 0 {
            out.push_str(&format!(
                "\n  shed {}, deadline-exceeded {}, panics {}, quarantines {}; \
                 state saves {} / loads {}",
                r.shed, r.deadline_exceeded, r.panics, r.quarantines, r.state_saves, r.state_loads,
            ));
        }
        out
    }
}

/// Renders a nanosecond latency with a readable unit (`950ns`,
/// `12.3us`, `4.56ms`, `1.20s`).
fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

struct Shared {
    cell: SnapshotCell,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
    apply_tx: SyncSender<Point>,
    max_conns: usize,
    deadline: Option<Duration>,
    frame_window: Duration,
    idle_timeout: Duration,
    state_path: Option<PathBuf>,
    state_fingerprint: u64,
    panic_seed: Option<u64>,
}

/// A running daemon. [`Daemon::shutdown`] stops it and returns the final
/// stats; dropping it stops it the same way and discards them.
pub struct Daemon {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    rebuilder: Option<JoinHandle<()>>,
    metrics_listener: Option<JoinHandle<()>>,
    state_open: StateOpen,
}

impl Daemon {
    /// Builds the initial world snapshot (epoch 0), binds the listener,
    /// and spawns the accept and rebuilder threads.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when [`ServeConfig::max_conns`]
    /// is 0; otherwise propagates socket errors (bind, local address).
    pub fn start(cfg: &ServeConfig) -> io::Result<Daemon> {
        if cfg.max_conns == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_conns must be at least 1",
            ));
        }
        let terrain = Terrain::square(cfg.side);
        let model = Arc::new(IdealDisk::new(cfg.nominal_range));
        let state_fingerprint = state::config_fingerprint(cfg.side, cfg.step, cfg.nominal_range);

        // Warm restart: a valid state file supplies the epoch + roster;
        // the snapshot is *rebuilt* from them, which is bit-identical to
        // the one the killed daemon published (the build is pure).
        let state_open = match &cfg.state_path {
            Some(path) => state::load_state(path, state_fingerprint, terrain),
            None => StateOpen::Fresh,
        };
        let initial = match &state_open {
            StateOpen::Loaded { epoch, positions } => {
                let field = BeaconField::from_positions(terrain, positions.iter().copied());
                WorldSnapshot::build(*epoch, field, model, cfg.step)
            }
            _ => {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let field = BeaconField::random_uniform(cfg.beacons, terrain, &mut rng);
                WorldSnapshot::build(0, field, model, cfg.step)
            }
        };

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let (apply_tx, apply_rx) = mpsc::sync_channel::<Point>(APPLY_BACKLOG);
        let shared = Arc::new(Shared {
            cell: SnapshotCell::new(initial),
            shutdown: AtomicBool::new(false),
            metrics: ServeMetrics::new(),
            apply_tx,
            max_conns: cfg.max_conns,
            deadline: cfg.deadline,
            frame_window: cfg.frame_window,
            idle_timeout: cfg.idle_timeout,
            state_path: cfg.state_path.clone(),
            state_fingerprint,
            panic_seed: cfg.panic_seed,
        });
        if matches!(state_open, StateOpen::Loaded { .. }) {
            shared.metrics.note(Tally::StateLoads);
        }
        // Boot save: the file exists (and a damaged one is replaced)
        // from the first instant, so a crash before the first apply
        // still restarts warm.
        persist_state(&shared);

        let rebuilder = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("abp-serve-rebuild".into())
                .spawn(move || rebuild_loop(&shared, apply_rx))
                .expect("spawn rebuilder")
        };

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("abp-serve-accept".into())
                .spawn(move || accept_loop(&shared, listener))
                .expect("spawn accept")
        };

        let mut daemon = Daemon {
            addr,
            metrics_addr: None,
            shared,
            accept: Some(accept),
            rebuilder: Some(rebuilder),
            metrics_listener: None,
            state_open,
        };
        // A failed `/metrics` bind returns early and drops `daemon`,
        // which stops the threads already started.
        if let Some(bind) = &cfg.metrics_addr {
            let listener = TcpListener::bind(bind)?;
            daemon.metrics_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let shared = Arc::clone(&daemon.shared);
            daemon.metrics_listener = Some(
                std::thread::Builder::new()
                    .name("abp-serve-metrics".into())
                    .spawn(move || metrics_loop(&shared, listener))
                    .expect("spawn metrics listener"),
            );
        }
        Ok(daemon)
    }

    /// How the warm-restart state file was resolved at boot
    /// ([`StateOpen::Fresh`] when no `--state` was configured). The CLI
    /// prints [`StateOpen::describe`] on stderr.
    pub fn state_open(&self) -> &StateOpen {
        &self.state_open
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the `/metrics` HTTP listener, when
    /// configured ([`ServeConfig::metrics_addr`]).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch_hint()
    }

    /// A handle to the currently published snapshot (for tests and the
    /// bench identity gate; takes the cell's read lock once).
    pub fn snapshot(&self) -> Arc<WorldSnapshot> {
        self.shared.cell.load()
    }

    /// Orderly shutdown: stop accepting, let every connection thread
    /// finish its current frame and notice the flag, join every thread,
    /// and read the ledger the way a client does — one final Stats
    /// frame, encoded and decoded — plus the tallies the wire does not
    /// carry.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop();
        let shared = &self.shared;
        let mut frame = Vec::new();
        encode_stats(shared, shared.cell.epoch_hint(), &mut frame);
        // Past the 4-byte length prefix.
        let reply = protocol::decode_stats_response(&frame[4..])
            .expect("the daemon's own Stats frame decodes");
        let m = &shared.metrics;
        StatsSnapshot {
            reply,
            refused: m.tally(Tally::Refused),
            measured_requests: m.tally(Tally::MeasuredRequests),
            measured_allocs: m.tally(Tally::MeasuredAllocs),
            measured_bytes: m.tally(Tally::MeasuredBytes),
        }
    }

    /// Raises the shutdown flag and joins the accept thread — whose
    /// scope joins every connection thread once each finishes its
    /// current frame and notices the flag — then the rebuilder, which
    /// drains the applies those connections enqueued, and the `/metrics`
    /// listener. A second call finds nothing left to join.
    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for handle in [
            self.accept.take(),
            self.rebuilder.take(),
            self.metrics_listener.take(),
        ]
        .into_iter()
        .flatten()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Persists the currently published world to the configured state file
/// (no-op without one). Control-plane only: runs at boot and on the
/// rebuilder thread after each publish; allocates freely.
fn persist_state(shared: &Shared) {
    let Some(path) = &shared.state_path else {
        return;
    };
    let snap = shared.cell.load();
    let positions: Vec<Point> = snap.field().iter().map(|b| b.pos()).collect();
    match state::save_state(path, shared.state_fingerprint, snap.epoch(), &positions) {
        Ok(()) => shared.metrics.note(Tally::StateSaves),
        Err(e) => eprintln!("abp-serve: state save to {} failed: {e}", path.display()),
    }
}

/// Accepts until shutdown, starting one scoped thread per admitted
/// connection; returns once every connection thread has ended.
fn accept_loop(shared: &Shared, listener: TcpListener) {
    std::thread::scope(|scope| {
        while !shared.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => admit(shared, scope, stream),
                // WouldBlock (nothing to accept) or a transient error.
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    });
}

/// The admission gate: live connections against the cap. An admitted
/// connection is counted live here, on the accept thread, so the next
/// gate check sees it, and gets its own thread. A shed one is not
/// counted as accepted.
fn admit<'scope>(shared: &'scope Shared, scope: &'scope Scope<'scope, '_>, mut stream: TcpStream) {
    if shared.metrics.connections_live() >= shared.max_conns as u64 {
        shed(shared, &mut stream);
        return;
    }
    shared.metrics.connection_opened();
    let mut admitted = Admitted {
        shared,
        stream: Some(stream),
    };
    // A failed spawn drops the closure, and with it `admitted` with the
    // socket still inside: the client is answered Overloaded.
    let _ = std::thread::Builder::new()
        .name("abp-serve-conn".into())
        .spawn_scoped(scope, move || {
            let stream = admitted.stream.take().expect("admitted with its socket");
            // The per-request catch in `serve_connection` contains
            // handler panics; one from anywhere else ends only this
            // connection and is counted once, here.
            if catch_unwind(AssertUnwindSafe(|| serve_connection(shared, stream))).is_err() {
                shared.metrics.note(Tally::Panics);
            }
        });
}

/// Answers a connection the daemon will not serve with one typed
/// Overloaded frame (a stack constant — no allocation), counts it as
/// shed, and closes it.
fn shed(shared: &Shared, stream: &mut TcpStream) {
    shared.metrics.note(Tally::Shed);
    let _ = stream.set_nonblocking(false);
    let _ = stream.write_all(&OVERLOADED_FRAME);
}

/// One admitted connection's hold on its admission slot (the
/// `serve_connections_live` gauge), released when its thread drops it
/// on any exit path. If the thread never started, the failed spawn drops
/// it with the socket still inside, which is then shed.
struct Admitted<'a> {
    shared: &'a Shared,
    stream: Option<TcpStream>,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        if let Some(mut stream) = self.stream.take() {
            shed(self.shared, &mut stream);
        }
        self.shared.metrics.connection_closed();
    }
}

fn rebuild_loop(shared: &Shared, apply_rx: mpsc::Receiver<Point>) {
    loop {
        match apply_rx.recv_timeout(POLL_INTERVAL) {
            Ok(point) => {
                let _span = abp_trace::span!("serve_rebuild");
                let started = Instant::now();
                let current = shared.cell.load();
                let next = current.with_beacon_added(point);
                shared.cell.publish(next);
                shared.metrics.rebuild_finished(started.elapsed());
                // Persist the world the readers now serve; a SIGKILL
                // after this line restarts warm at exactly this epoch.
                persist_state(shared);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The side `/metrics` listener: a deliberately tiny HTTP/1.0 responder
/// (read one request head, answer, close) — enough for Prometheus, curl,
/// and the CI smoke job without an HTTP dependency. It runs entirely on
/// the control plane: scrapes allocate freely and never touch a
/// connection thread.
fn metrics_loop(shared: &Shared, listener: TcpListener) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _peer)) => serve_metrics_scrape(shared, &mut stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn serve_metrics_scrape(shared: &Shared, stream: &mut TcpStream) {
    // Read the request head (scrapers send a short GET) up to the blank
    // line, EOF or a full buffer, all before one deadline: each read
    // waits only for the time left, so a client dribbling bytes cannot
    // hold this one listener thread past it. A head still unfinished at
    // the deadline is closed without a response, the frame window's rule.
    let deadline = Instant::now() + SCRAPE_TIMEOUT;
    let mut buf = [0u8; 1024];
    let mut got = 0;
    while got < buf.len() && !buf[..got].windows(4).any(|w| w == b"\r\n\r\n") {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    let head = &buf[..got];
    let (status, body) = if head.starts_with(b"GET /metrics") {
        ("200 OK", render_exposition(shared))
    } else {
        ("404 Not Found", String::from("scrape GET /metrics\n"))
    };
    let response = format!(
        "HTTP/1.0 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Builds the Prometheus text-exposition document for one daemon from
/// its ledger (never the global `abp_trace` registry, so co-resident
/// daemons stay separate).
fn render_exposition(shared: &Shared) -> String {
    use abp_trace::{CounterSnapshot, GaugeSnapshot};
    let m = &shared.metrics;
    // One read per class, so the request total is exactly their sum.
    let classes = ALL_CLASSES.map(|c| CounterSnapshot {
        name: c.counter_name(),
        total: m.class_count(c),
    });
    let mut counters = vec![
        CounterSnapshot {
            name: "serve_requests",
            total: classes.iter().map(|c| c.total).sum(),
        },
        CounterSnapshot {
            name: "serve_flight_dropped",
            total: m.flight.dropped(),
        },
    ];
    counters.extend(ALL_TALLIES.iter().filter_map(|&t| {
        Some(CounterSnapshot {
            name: t.counter_name()?,
            total: m.tally(t),
        })
    }));
    counters.extend(classes);
    let gauges = vec![
        GaugeSnapshot {
            name: "serve_epoch",
            value: shared.cell.epoch_hint() as f64,
        },
        GaugeSnapshot {
            name: "serve_connections_live",
            value: m.connections_live() as f64,
        },
        GaugeSnapshot {
            name: "serve_rebuilds_pending",
            value: m.rebuilds_pending() as f64,
        },
        GaugeSnapshot {
            name: "serve_uptime_seconds",
            value: m.uptime().as_secs_f64(),
        },
        GaugeSnapshot {
            name: "serve_last_rebuild_seconds",
            value: m.last_rebuild_ns() as f64 * 1e-9,
        },
    ];
    let hists: Vec<_> = ALL_CLASSES.iter().map(|&c| m.class_snapshot(c)).collect();
    abp_trace::render_prometheus(&counters, &gauges, &hists)
}

enum ReadOutcome {
    Frame,
    CleanEof,
    Stop,
    /// The connection sat at a frame boundary past the idle timeout.
    /// Closed silently: idle keep-alive clients are absent, not hostile.
    IdleExpired,
    /// The peer started a frame but failed to deliver it within the
    /// frame window — the slow-loris signature. Quarantined by the
    /// caller: counted and dropped without a response.
    FrameExpired,
}

/// Fills `buf` completely, polling the shutdown flag on read timeouts.
/// `allow_eof` marks a frame boundary where a peer may hang up cleanly.
///
/// Deadlines are checked only on the (POLL_INTERVAL-timed) blocked-read
/// branch, so a peer that streams bytes promptly never pays for an
/// `Instant::now()`:
///
/// * `idle_deadline` applies while `buf` is still empty — time a peer
///   may sit between frames (header reads only),
/// * `frame_deadline` applies once any byte has arrived. The header read
///   passes `None` and arms it at its first byte from
///   `shared.frame_window`; the payload read carries the header's value
///   forward (second return), so one window covers the whole frame.
fn read_full(
    shared: &Shared,
    stream: &mut TcpStream,
    buf: &mut [u8],
    allow_eof: bool,
    idle_deadline: Option<Instant>,
    mut frame_deadline: Option<Instant>,
) -> (ReadOutcome, Option<Instant>) {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                let outcome = if allow_eof && got == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Stop
                };
                return (outcome, frame_deadline);
            }
            Ok(n) => {
                if got == 0 && frame_deadline.is_none() {
                    frame_deadline = Some(Instant::now() + shared.frame_window);
                }
                got += n;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return (ReadOutcome::Stop, frame_deadline);
                }
                let now = Instant::now();
                if got == 0 && frame_deadline.is_none() {
                    if let Some(idle) = idle_deadline {
                        if now > idle {
                            return (ReadOutcome::IdleExpired, frame_deadline);
                        }
                    }
                } else if let Some(frame) = frame_deadline {
                    if now > frame {
                        return (ReadOutcome::FrameExpired, frame_deadline);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return (ReadOutcome::Stop, frame_deadline),
        }
    }
    (ReadOutcome::Frame, frame_deadline)
}

/// Serves one connection on its own thread, with its own scratch and
/// snapshot reader, until clean EOF, a socket error, a contained panic
/// or shutdown.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(shared.frame_window));
    shared.metrics.note(Tally::Connections);
    let mut scratch = ServeScratch::new();
    let mut reader = shared.cell.reader();
    let mut served = 0u64;
    let mut alloc_base: Option<AllocSnapshot> = None;
    // Set when the window must close before the connection does.
    let mut alloc_end: Option<AllocSnapshot> = None;
    let mut header = [0u8; 4];
    loop {
        // Header read: the idle clock runs until the first byte, then
        // the frame window takes over.
        let idle_deadline = Instant::now() + shared.idle_timeout;
        let (outcome, frame_deadline) = read_full(
            shared,
            &mut stream,
            &mut header,
            true,
            Some(idle_deadline),
            None,
        );
        match outcome {
            ReadOutcome::Frame => {}
            ReadOutcome::CleanEof | ReadOutcome::Stop | ReadOutcome::IdleExpired => break,
            ReadOutcome::FrameExpired => {
                shared.metrics.note(Tally::Quarantines);
                break;
            }
        }
        let len = u32::from_le_bytes(header);
        if len > MAX_FRAME {
            let started = Instant::now();
            shared.metrics.note(Tally::Refused);
            protocol::encode_error_response(&mut scratch.out_buf, Status::Oversize);
            record_request(shared, OpClass::Error, 0, started.elapsed());
            let _ = stream.write_all(&scratch.out_buf);
            // The unread payload cannot be resynchronized past; drop
            // the connection.
            break;
        }
        scratch.in_buf.clear();
        scratch.in_buf.resize(len as usize, 0);
        // Payload read: same frame deadline the header armed — one
        // window covers the complete frame.
        let (outcome, _) = read_full(
            shared,
            &mut stream,
            &mut scratch.in_buf,
            false,
            None,
            frame_deadline,
        );
        match outcome {
            ReadOutcome::Frame => {}
            ReadOutcome::FrameExpired => {
                shared.metrics.note(Tally::Quarantines);
                break;
            }
            ReadOutcome::CleanEof | ReadOutcome::Stop | ReadOutcome::IdleExpired => break,
        }

        if served == ALLOC_WARMUP_REQUESTS {
            alloc_base = Some(abp_trace::thread_snapshot());
        }
        let request_alloc = abp_trace::thread_snapshot();
        let started = Instant::now();
        let _span = abp_trace::span!("serve_request");
        // Panic isolation: a poisoned request unwinds to here and kills
        // only this connection (counted, flight-recorded below); its
        // torn scratch goes with the thread.
        let handled = catch_unwind(AssertUnwindSafe(|| {
            handle_request(shared, &mut reader, &mut scratch)
        }));
        let Ok((mut class, mut heard)) = handled else {
            // The unwind allocates: close the window where this request
            // began, so it is not booked against the measured requests.
            alloc_end = Some(request_alloc);
            shared.metrics.note(Tally::Panics);
            record_request(shared, OpClass::Error, 0, started.elapsed());
            break;
        };
        let elapsed = started.elapsed();
        // Deadline: the work is done but took too long to be useful —
        // discard the response and tell the client so.
        if let Some(deadline) = shared.deadline {
            if elapsed > deadline {
                shared.metrics.note(Tally::DeadlineExceeded);
                protocol::encode_error_response(&mut scratch.out_buf, Status::DeadlineExceeded);
                class = OpClass::Error;
                heard = 0;
            }
        }
        record_request(shared, class, heard, elapsed);
        served += 1;

        if stream.write_all(&scratch.out_buf).is_err() {
            break;
        }
    }
    if let Some(base) = alloc_base {
        let end = alloc_end.unwrap_or_else(abp_trace::thread_snapshot);
        let delta = end.delta_since(base);
        let m = &shared.metrics;
        m.add(Tally::MeasuredRequests, served - ALLOC_WARMUP_REQUESTS);
        m.add(Tally::MeasuredAllocs, delta.allocs);
        m.add(Tally::MeasuredBytes, delta.bytes);
    }
}

/// Records one answered request in the ledger, once, in `class`, and
/// offers it to the flight recorder.
fn record_request(shared: &Shared, class: OpClass, heard: u32, elapsed: Duration) {
    let latency_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    shared.metrics.record(class, latency_ns);
    shared.metrics.flight.offer(FlightEntry {
        class: class as u8,
        heard,
        latency_ns,
        epoch: shared.cell.epoch_hint(),
    });
}

/// Decodes `scratch.in_buf`, dispatches, and leaves the complete
/// response frame in `scratch.out_buf`. Never allocates beyond scratch
/// growth. Returns the request's telemetry class and (for localize) the
/// heard-beacon count, for the caller's per-request recording.
fn handle_request(
    shared: &Shared,
    reader: &mut crate::snapshot::SnapshotReader<'_>,
    scratch: &mut ServeScratch,
) -> (OpClass, u32) {
    let request = match protocol::decode_request(&scratch.in_buf, &mut scratch.ids) {
        Ok(req) => req,
        Err(status) => {
            shared.metrics.note(Tally::Refused);
            protocol::encode_error_response(&mut scratch.out_buf, status);
            return (OpClass::Error, 0);
        }
    };
    let snap = reader.current();
    match request {
        Request::Localize => match engine::localize(snap, &scratch.ids, &mut scratch.slots) {
            Ok(reply) => {
                protocol::encode_localize_response(&mut scratch.out_buf, &reply);
                (OpClass::Localize, reply.heard)
            }
            Err(_unknown_id) => {
                shared.metrics.note(Tally::Refused);
                protocol::encode_error_response(&mut scratch.out_buf, Status::UnknownBeacon);
                (OpClass::Error, 0)
            }
        },
        Request::Place { algo, seed, apply } => {
            let position = engine::place(snap, algo, seed);
            if shared.panic_seed == Some(seed) {
                // Test-only seam: a designated seed simulates a bug deep
                // in request handling so the chaos harness can prove the
                // daemon survives it.
                panic!("injected panic for chaos seed {seed}");
            }
            // Applying is control-plane: enqueue for the rebuilder and
            // answer immediately from the current epoch. The backlog's
            // slots were allocated at boot, so the send allocates
            // nothing; a full backlog sheds the apply (`applied = 0`).
            // The apply counts as pending before the rebuilder can see
            // it, so the rebuilder's decrement never runs first.
            let applied = apply && {
                shared.metrics.rebuild_enqueued();
                let sent = shared.apply_tx.try_send(position);
                if let Err(e) = &sent {
                    shared.metrics.rebuild_withdrawn();
                    if matches!(e, TrySendError::Full(_)) {
                        shared.metrics.note(Tally::Shed);
                    }
                }
                sent.is_ok()
            };
            protocol::encode_place_response(
                &mut scratch.out_buf,
                &protocol::PlaceReply {
                    epoch: snap.epoch(),
                    algo,
                    applied,
                    position,
                },
            );
            (OpClass::Place, 0)
        }
        Request::Info => {
            protocol::encode_info_response(
                &mut scratch.out_buf,
                snap.epoch(),
                snap.terrain().side(),
                snap.model().nominal_range(),
                snap.field().len() as u32,
                snap.field().iter().map(|b| (b.id().0, b.pos())),
            );
            (OpClass::Info, 0)
        }
        Request::Stats => {
            encode_stats(shared, snap.epoch(), &mut scratch.out_buf);
            (OpClass::Stats, 0)
        }
    }
}

/// Encodes the ledger as a Stats response frame at `epoch` into `out`.
/// Alloc-free beyond `out`'s growth: the flight entries are copied into
/// a stack array.
fn encode_stats(shared: &Shared, epoch: u64, out: &mut Vec<u8>) {
    let mut flight = [FlightEntry::default(); FLIGHT_SLOTS];
    let n = shared.metrics.flight.copy_into(&mut flight);
    protocol::encode_stats_response(
        out,
        &StatsView {
            epoch,
            metrics: &shared.metrics,
            flight: &flight[..n],
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{self as wire, PlaceAlgo};

    fn roundtrip(stream: &mut TcpStream, out: &[u8], frame: &mut Vec<u8>) {
        stream.write_all(out).unwrap();
        assert!(wire::read_frame(stream, frame).unwrap());
    }

    #[test]
    fn daemon_serves_all_opcodes_and_shuts_down_cleanly() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
        let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut out = Vec::new();
        let mut frame = Vec::new();

        wire::encode_info_request(&mut out);
        roundtrip(&mut conn, &out, &mut frame);
        let info = wire::decode_info_response(&frame).unwrap();
        assert_eq!(info.epoch, 0);
        assert_eq!(info.terrain_side, 100.0);
        assert_eq!(info.beacons.len(), 25);

        // Localize from the first three roster ids and check the served
        // estimate against the client-side centroid, bit for bit.
        let ids: Vec<u64> = info.beacons.iter().take(3).map(|&(id, _)| id).collect();
        wire::encode_localize_request(&mut out, &ids);
        roundtrip(&mut conn, &out, &mut frame);
        let reply = wire::decode_localize_response(&frame).unwrap();
        assert_eq!(reply.heard, 3);
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        for &(_, p) in info.beacons.iter().take(3) {
            sum_x += p.x;
            sum_y += p.y;
        }
        let est = reply.estimate.unwrap();
        assert_eq!(est.x.to_bits(), (sum_x / 3.0).to_bits());
        assert_eq!(est.y.to_bits(), (sum_y / 3.0).to_bits());

        // Empty heard set: degraded terrain-center estimate.
        wire::encode_localize_request(&mut out, &[]);
        roundtrip(&mut conn, &out, &mut frame);
        let reply = wire::decode_localize_response(&frame).unwrap();
        assert!(reply.degraded);
        assert_eq!(reply.estimate, Some(Point::new(50.0, 50.0)));

        // Placement without apply: deterministic, in-terrain, epoch 0.
        wire::encode_place_request(&mut out, PlaceAlgo::Max, 0, false);
        roundtrip(&mut conn, &out, &mut frame);
        let place = wire::decode_place_response(&frame).unwrap();
        assert!(!place.applied);
        assert_eq!(place.epoch, 0);
        assert!(place.position.x >= 0.0 && place.position.x <= 100.0);

        // Unknown beacon id answers UnknownBeacon, connection survives.
        wire::encode_localize_request(&mut out, &[u64::MAX]);
        roundtrip(&mut conn, &out, &mut frame);
        assert_eq!(
            wire::decode_localize_response(&frame),
            Err(Status::UnknownBeacon)
        );
        wire::encode_info_request(&mut out);
        roundtrip(&mut conn, &out, &mut frame);
        assert!(wire::decode_info_response(&frame).is_ok());

        drop(conn);
        let stats = daemon.shutdown();
        let r = &stats.reply;
        assert_eq!(r.requests_total(), 6);
        assert_eq!(
            r.count(OpClass::Localize),
            2,
            "the unknown-beacon Localize is an error"
        );
        assert_eq!(r.count(OpClass::Place), 1);
        assert_eq!(r.count(OpClass::Info), 2);
        assert_eq!(r.count(OpClass::Error), 1);
        assert_eq!(stats.refused, 1);
        assert_eq!(r.connections_total, 1);
        assert_eq!(r.epoch, 0);
    }

    #[test]
    fn apply_triggers_resurvey_and_epoch_bump() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
        let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut out = Vec::new();
        let mut frame = Vec::new();

        wire::encode_place_request(&mut out, PlaceAlgo::Max, 0, true);
        roundtrip(&mut conn, &out, &mut frame);
        let place = wire::decode_place_response(&frame).unwrap();
        assert!(place.applied);

        // The rebuilder publishes asynchronously; poll INFO until the
        // epoch moves (bounded).
        let deadline = Instant::now() + Duration::from_secs(10);
        let info = loop {
            wire::encode_info_request(&mut out);
            roundtrip(&mut conn, &out, &mut frame);
            let info = wire::decode_info_response(&frame).unwrap();
            if info.epoch >= 1 || Instant::now() > deadline {
                break info;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(info.epoch, 1, "apply must publish the next epoch");
        assert_eq!(info.beacons.len(), 26, "the applied beacon is deployed");
        // The new beacon sits exactly where the proposal pointed.
        assert!(info.beacons.iter().any(|&(_, p)| p == place.position));

        drop(conn);
        let stats = daemon.shutdown();
        assert_eq!(stats.reply.rebuilds_total, 1);
        assert_eq!(stats.reply.epoch, 1);
    }

    /// A pipelined burst of applies, four times the backlog, on one
    /// connection: every frame is answered Ok, each `applied` reply is
    /// one rebuild and one epoch, and each apply that found the backlog
    /// full is answered `applied = 0` and counted as shed.
    #[test]
    fn apply_burst_past_the_backlog_is_shed_not_queued() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
        let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
        let burst = 4 * APPLY_BACKLOG;
        let mut out = Vec::new();
        let mut all = Vec::new();
        for seed in 0..burst as u64 {
            wire::encode_place_request(&mut out, PlaceAlgo::Random, seed, true);
            all.extend_from_slice(&out);
        }
        conn.write_all(&all).unwrap();
        let mut frame = Vec::new();
        let mut applied = 0u64;
        for _ in 0..burst {
            assert!(wire::read_frame(&mut conn, &mut frame).unwrap());
            let place = wire::decode_place_response(&frame).expect("every apply answers Ok");
            applied += u64::from(place.applied);
        }
        drop(conn);
        // Shutdown drains the backlog before the rebuilder exits.
        let stats = daemon.shutdown();
        let r = &stats.reply;
        assert!(applied >= 1, "the first apply always finds room");
        assert_eq!(r.rebuilds_total, applied);
        assert_eq!(r.epoch, applied);
        assert_eq!(applied + r.shed, burst as u64);
        assert_eq!(r.rebuilds_pending, 0, "every counted apply was rebuilt");
        assert_eq!(r.count(OpClass::Place), burst as u64);
    }

    #[test]
    fn malformed_frames_get_error_statuses() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
        let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut frame = Vec::new();

        // Unknown opcode.
        conn.write_all(&1u32.to_le_bytes()).unwrap();
        conn.write_all(&[200u8]).unwrap();
        assert!(wire::read_frame(&mut conn, &mut frame).unwrap());
        assert_eq!(frame, vec![Status::BadOpcode as u8]);

        // Truncated localize.
        let payload = [1u8, 5, 0, 0, 0]; // announces 5 ids, carries none
        conn.write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        conn.write_all(&payload).unwrap();
        assert!(wire::read_frame(&mut conn, &mut frame).unwrap());
        assert_eq!(frame, vec![Status::BadFrame as u8]);

        drop(conn);
        let stats = daemon.shutdown();
        assert_eq!(stats.reply.count(OpClass::Error), 2);
        assert_eq!(stats.refused, 2);
    }

    #[test]
    fn stats_opcode_reports_live_telemetry() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
        let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut out = Vec::new();
        let mut frame = Vec::new();

        wire::encode_info_request(&mut out);
        roundtrip(&mut conn, &out, &mut frame);
        let info = wire::decode_info_response(&frame).unwrap();
        let ids: Vec<u64> = info.beacons.iter().take(4).map(|&(id, _)| id).collect();
        for _ in 0..3 {
            wire::encode_localize_request(&mut out, &ids);
            roundtrip(&mut conn, &out, &mut frame);
            wire::decode_localize_response(&frame).unwrap();
        }

        wire::encode_stats_request(&mut out);
        roundtrip(&mut conn, &out, &mut frame);
        let stats = wire::decode_stats_response(&frame).unwrap();
        assert_eq!(stats.epoch, 0);
        assert_eq!(stats.connections_total, 1);
        assert_eq!(stats.connections_live, 1);
        assert_eq!(stats.classes.len(), crate::metrics::OP_CLASSES);
        let loc = &stats.classes[OpClass::Localize as usize];
        assert_eq!(loc.count, 3);
        assert!(loc.min_ns > 0 && loc.max_ns >= loc.min_ns);
        assert_eq!(loc.buckets.iter().sum::<u64>(), 3);
        assert_eq!(stats.classes[OpClass::Info as usize].count, 1);
        // The stats request itself is recorded *after* it is answered,
        // so the first reply reports zero of its own class.
        assert_eq!(stats.classes[OpClass::Stats as usize].count, 0);
        assert_eq!(stats.requests_total(), 4);
        // The flight recorder saw every request so far (ring not full).
        assert_eq!(stats.flight.len(), 4);
        assert!(stats
            .flight
            .windows(2)
            .all(|w| w[0].latency_ns >= w[1].latency_ns));
        assert!(stats
            .flight
            .iter()
            .any(|e| e.class == OpClass::Localize as u8 && e.heard == 4));
        assert_eq!(stats.flight_dropped, 0);

        // A second stats request sees the first one counted.
        wire::encode_stats_request(&mut out);
        roundtrip(&mut conn, &out, &mut frame);
        let stats2 = wire::decode_stats_response(&frame).unwrap();
        assert_eq!(stats2.classes[OpClass::Stats as usize].count, 1);
        assert!(stats2.uptime_ns >= stats.uptime_ns);

        drop(conn);
        let snap = daemon.shutdown();
        assert_eq!(snap.reply.count(OpClass::Stats), 2);
        assert_eq!(snap.reply.count(OpClass::Localize), 3);
        let loc = snap.reply.classes[OpClass::Localize as usize].histogram("serve_localize_ns");
        assert!(loc.quantile_ns(0.50).unwrap() > 0);
        assert!(loc.quantile_ns(0.99) >= loc.quantile_ns(0.50));
        assert!(snap.summary_table().contains("localize"));
    }

    /// Satellite regression: an unknown opcode's payload is consumed in
    /// full (frames are length-delimited), so a *pipelined* write of
    /// unknown-then-localize yields BadOpcode then a normal answer on a
    /// stream that never desynchronizes.
    #[test]
    fn unknown_opcode_consumes_its_payload_and_keeps_the_stream_synced() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
        let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut frame = Vec::new();

        // One write, two frames: opcode 200 with a 12-byte body whose
        // bytes would decode as a plausible frame start if the server
        // lost sync, then a valid empty localize.
        let mut pipelined = Vec::new();
        let body = [200u8, 9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];
        pipelined.extend_from_slice(&(body.len() as u32).to_le_bytes());
        pipelined.extend_from_slice(&body);
        let mut localize = Vec::new();
        wire::encode_localize_request(&mut localize, &[]);
        pipelined.extend_from_slice(&localize);
        conn.write_all(&pipelined).unwrap();

        assert!(wire::read_frame(&mut conn, &mut frame).unwrap());
        assert_eq!(frame, vec![Status::BadOpcode as u8]);
        assert!(wire::read_frame(&mut conn, &mut frame).unwrap());
        let reply = wire::decode_localize_response(&frame).unwrap();
        assert!(
            reply.degraded,
            "the pipelined localize is answered normally"
        );

        drop(conn);
        let stats = daemon.shutdown();
        assert_eq!(stats.reply.requests_total(), 2);
        assert_eq!(stats.reply.count(OpClass::Error), 1);
        assert_eq!(stats.reply.count(OpClass::Localize), 1);
    }

    #[test]
    fn metrics_http_listener_serves_prometheus_text() {
        let cfg = ServeConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServeConfig::tiny()
        };
        let daemon = Daemon::start(&cfg).unwrap();
        let metrics_addr = daemon.metrics_addr().expect("metrics listener bound");

        // Drive some traffic first.
        let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut out = Vec::new();
        let mut frame = Vec::new();
        wire::encode_info_request(&mut out);
        roundtrip(&mut conn, &out, &mut frame);
        wire::encode_place_request(&mut out, PlaceAlgo::Max, 0, false);
        roundtrip(&mut conn, &out, &mut frame);

        let scrape = |path: &str| -> String {
            let mut http = TcpStream::connect(metrics_addr).unwrap();
            http.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = String::new();
            http.read_to_string(&mut response).unwrap();
            response
        };

        let response = scrape("/metrics");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"));
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("# TYPE serve_requests_total counter"));
        assert!(body.contains("serve_requests_total 2"));
        assert!(body.contains("serve_epoch 0"));
        assert!(body.contains("serve_connections_live 1"));
        assert!(body.contains("# TYPE serve_localize_seconds histogram"));
        assert!(body.contains("serve_place_seconds_count 1"));
        // The resilience counters are exported even when every defense
        // is disarmed — a dashboard alerting on them must see zeros, not
        // missing series.
        assert!(body.contains("serve_shed_total 0"));
        assert!(body.contains("serve_deadline_exceeded_total 0"));
        assert!(body.contains("serve_panics_total 0"));
        assert!(body.contains("serve_quarantines_total 0"));
        assert!(body.contains("serve_state_loads_total 0"));
        assert!(body.contains("serve_protocol_errors_total 0"));
        // Applies are rebuilds: one counter, `serve_rebuilds_total`.
        assert!(body.contains("serve_rebuilds_total 0"));
        assert!(!body.contains("serve_applies"));

        let missing = scrape("/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        drop(conn);
        daemon.shutdown();
    }

    /// A client dribbling its request head one byte every 0.4 s holds
    /// the one `/metrics` listener thread only until the scrape
    /// deadline, so a scrape that arrives behind it is answered within
    /// a second.
    #[test]
    fn a_dribbling_client_cannot_starve_metrics_scrapes() {
        let cfg = ServeConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServeConfig::tiny()
        };
        let daemon = Daemon::start(&cfg).unwrap();
        let metrics_addr = daemon.metrics_addr().expect("metrics listener bound");
        let mut dribbler = TcpStream::connect(metrics_addr).unwrap();
        let dribble = std::thread::spawn(move || {
            // A head that never ends, until the daemon hangs up.
            for _ in 0..10 {
                if dribbler.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(400));
            }
        });
        // The listener polls accept every 5 ms: let it take the dribbler
        // first.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let mut http = TcpStream::connect(metrics_addr).unwrap();
        http.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        http.read_to_string(&mut response).unwrap();
        let waited = started.elapsed();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(
            waited < Duration::from_secs(1),
            "scrape answered after {waited:?}"
        );
        dribble.join().unwrap();
        daemon.shutdown();
    }

    /// Dropping a daemon stops it as `shutdown` does, idle client and
    /// all: its listener is closed, so a new connection is refused.
    #[test]
    fn dropping_the_daemon_stops_it() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
        let addr = daemon.local_addr();
        let idle = TcpStream::connect(addr).unwrap();
        drop(daemon);
        let refused = TcpStream::connect(addr).expect_err("a dropped daemon accepts nothing");
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
        drop(idle);
    }

    /// A start that fails after the serving threads are up — here the
    /// `/metrics` port is taken — stops them: the serving port refuses.
    #[test]
    fn a_failed_start_leaves_nothing_running() {
        let taken = TcpListener::bind("127.0.0.1:0").unwrap();
        let free = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let cfg = ServeConfig {
            addr: free.to_string(),
            metrics_addr: Some(taken.local_addr().unwrap().to_string()),
            ..ServeConfig::tiny()
        };
        let err = Daemon::start(&cfg)
            .err()
            .expect("the metrics port is taken");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        let refused = TcpStream::connect(free).expect_err("a failed start accepts nothing");
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn start_rejects_a_zero_connection_cap() {
        let cfg = ServeConfig {
            max_conns: 0,
            ..ServeConfig::tiny()
        };
        let err = Daemon::start(&cfg).err().expect("max_conns 0 is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn oversize_frame_is_rejected_and_disconnected() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
        let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut frame = Vec::new();
        conn.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        assert!(wire::read_frame(&mut conn, &mut frame).unwrap());
        assert_eq!(frame, vec![Status::Oversize as u8]);
        // The server hangs up; the next read sees EOF.
        assert!(!wire::read_frame(&mut conn, &mut frame).unwrap());
        let stats = daemon.shutdown();
        // The Oversize answer is one refused frame and one error request.
        assert_eq!(stats.reply.requests_total(), 1);
        assert_eq!(stats.reply.count(OpClass::Error), 1);
        assert_eq!(stats.refused, 1);
    }
}

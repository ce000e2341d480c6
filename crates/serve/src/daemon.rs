//! The daemon: accept loop, worker pool, rebuilder thread.
//!
//! Thread layout:
//!
//! * **accept** — one thread on a non-blocking listener; hands accepted
//!   connections to the worker queue and polls the shutdown flag,
//! * **workers** — thread-per-core by default; each owns a
//!   [`ServeScratch`] and a [`SnapshotReader`](crate::snapshot::SnapshotReader),
//!   so the request path touches no shared mutable state beyond the
//!   epoch hint,
//! * **rebuilder** — the control plane: receives applied placement
//!   points, grows the published [`WorldSnapshot`] by one incrementally
//!   surveyed beacon, publishes the next epoch. All allocation-heavy work
//!   lives here.
//!
//! Connections are persistent: a worker serves frames until clean EOF,
//! a socket error, or shutdown. Reads run under a short timeout so every
//! blocked worker notices shutdown within tens of milliseconds; a
//! [`Daemon::shutdown`] therefore completes promptly even with idle
//! keep-alive clients attached.
//!
//! Under `--features count-allocs`, each worker brackets the post-warmup
//! portion of every connection with thread-local allocator snapshots;
//! [`StatsSnapshot::allocs_per_request`] is the aggregate — the value
//! the bench gate pins at exactly zero.

use crate::engine::{self, ServeScratch};
use crate::metrics::{FlightEntry, OpClass, ServeMetrics, ALL_CLASSES, FLIGHT_SLOTS, OP_CLASSES};
use crate::protocol::{self, Opcode, Request, StatsView, Status, MAX_FRAME};
use crate::snapshot::{SnapshotCell, WorldSnapshot};
use crate::state::{self, StateOpen};
use abp_field::BeaconField;
use abp_geom::{Point, Terrain};
use abp_radio::IdealDisk;
use abp_trace::AllocSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests a worker serves on a connection before it starts counting
/// allocations: lets the reused buffers reach steady-state size.
const ALLOC_WARMUP_REQUESTS: u64 = 32;

/// How long blocked reads and queue waits sleep between shutdown polls.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Read timeout for one `/metrics` scrape head, derived from
/// [`POLL_INTERVAL`] (20 polls) so all daemon timing hangs off a single
/// knob instead of scattered magic numbers.
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
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
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
    /// Admission cap: when `connections live + queued` reaches this, new
    /// connections are answered with one [`Status::Overloaded`] frame
    /// and closed instead of queueing unboundedly. `0` = unlimited.
    pub max_conns: usize,
    /// Per-worker work-budget watermark: when the accept queue holds at
    /// least this many connections, Place/Info/Stats requests are
    /// answered [`Status::Overloaded`] (Localize holds out until 2×).
    /// `0` disables request shedding.
    pub shed_watermark: usize,
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
            workers: 0,
            beacons: 100,
            side: 100.0,
            step: 1.0,
            nominal_range: 15.0,
            seed: 42,
            metrics_addr: None,
            max_conns: 0,
            shed_watermark: 0,
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
            workers: 2,
            beacons: 25,
            side: 100.0,
            step: 4.0,
            nominal_range: 15.0,
            seed: 42,
            metrics_addr: None,
            max_conns: 0,
            shed_watermark: 0,
            deadline: None,
            frame_window: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            state_path: None,
            panic_seed: None,
            survey_threads: 1,
        }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
    }
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    localize: AtomicU64,
    place: AtomicU64,
    info: AtomicU64,
    stats: AtomicU64,
    errors: AtomicU64,
    applies: AtomicU64,
    connections: AtomicU64,
    measured_requests: AtomicU64,
    measured_allocs: AtomicU64,
    measured_bytes: AtomicU64,
    worker_respawns: AtomicU64,
}

/// One opcode class's shutdown summary: request count and latency
/// quantiles from the per-daemon histograms (zeros when the class saw
/// no traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpcodeSummary {
    /// Requests served in this class.
    pub count: u64,
    /// Median handler latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile handler latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile handler latency, nanoseconds.
    pub p99_ns: u64,
}

/// Final counters reported by [`Daemon::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total requests served (all opcodes, including error answers).
    pub requests: u64,
    /// Localize requests.
    pub localize: u64,
    /// Place requests.
    pub place: u64,
    /// Info requests.
    pub info: u64,
    /// Stats requests.
    pub stats: u64,
    /// Malformed frames answered with an error status.
    pub errors: u64,
    /// Placement proposals applied (deployed + re-surveyed).
    pub applies: u64,
    /// Connections accepted.
    pub connections: u64,
    /// The epoch current at shutdown.
    pub final_epoch: u64,
    /// Requests inside the post-warmup allocation measurement windows.
    pub measured_requests: u64,
    /// Allocator calls observed inside those windows.
    pub measured_allocs: u64,
    /// Bytes requested inside those windows.
    pub measured_bytes: u64,
    /// Whether the counting allocator was compiled in
    /// (`--features count-allocs`); without it the measured fields read
    /// zero vacuously.
    pub alloc_counting: bool,
    /// Per-opcode-class counts and latency quantiles, indexed like
    /// [`ALL_CLASSES`].
    pub opcodes: [OpcodeSummary; OP_CLASSES],
    /// Flight-recorder offers dropped to lock contention.
    pub flight_dropped: u64,
    /// Rebuilds completed over the daemon's lifetime.
    pub rebuilds_total: u64,
    /// Applies still queued for the rebuilder at shutdown.
    pub rebuilds_pending: u64,
    /// Connections/requests shed by admission control.
    pub shed: u64,
    /// Requests answered `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Request-handler panics contained (connection killed, worker kept).
    pub panics: u64,
    /// Connections quarantined by the dribble detector.
    pub quarantines: u64,
    /// World snapshots persisted to the state file.
    pub state_saves: u64,
    /// World snapshots restored from the state file at boot.
    pub state_loads: u64,
    /// Worker threads respawned after an escaped panic (backstop; the
    /// per-request `catch_unwind` should keep this at zero).
    pub worker_respawns: u64,
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
        format!(
            "served {} requests ({} localize, {} place, {} info, {} errors) \
             over {} connections; {} applies, final epoch {}; \
             allocs/request {:.3}{}",
            self.requests,
            self.localize,
            self.place,
            self.info,
            self.errors,
            self.connections,
            self.applies,
            self.final_epoch,
            self.allocs_per_request(),
            if self.alloc_counting {
                ""
            } else {
                " (counting off)"
            },
        )
    }

    /// Multi-line per-opcode breakdown: count and p50/p95/p99 handler
    /// latency per class, plus drop accounting. Printed by the CLI under
    /// [`StatsSnapshot::summary_line`]; empty when no request was
    /// served.
    pub fn summary_table(&self) -> String {
        if self.opcodes.iter().all(|o| o.count == 0) {
            return String::new();
        }
        let mut out = String::new();
        out.push_str("  opcode     count       p50       p95       p99\n");
        for (class, op) in ALL_CLASSES.iter().zip(self.opcodes.iter()) {
            if op.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<8} {:>7}  {:>8}  {:>8}  {:>8}\n",
                class.name(),
                op.count,
                fmt_ns(op.p50_ns),
                fmt_ns(op.p95_ns),
                fmt_ns(op.p99_ns),
            ));
        }
        out.push_str(&format!(
            "  rebuilds {} done, {} pending; flight drops {}",
            self.rebuilds_total, self.rebuilds_pending, self.flight_dropped
        ));
        let defenses = self.shed
            + self.deadline_exceeded
            + self.panics
            + self.quarantines
            + self.state_saves
            + self.state_loads
            + self.worker_respawns;
        if defenses > 0 {
            out.push_str(&format!(
                "\n  shed {}, deadline-exceeded {}, panics {}, quarantines {}; \
                 state saves {} / loads {}; worker respawns {}",
                self.shed,
                self.deadline_exceeded,
                self.panics,
                self.quarantines,
                self.state_saves,
                self.state_loads,
                self.worker_respawns,
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
    stats: Stats,
    metrics: ServeMetrics,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    apply_tx: Mutex<Sender<Point>>,
    /// Connections accepted but not yet picked up by a worker. Kept as
    /// its own relaxed atomic so the accept gate and the request-shed
    /// check never take the queue lock.
    queued: AtomicU64,
    max_conns: usize,
    shed_watermark: usize,
    deadline: Option<Duration>,
    frame_window: Duration,
    idle_timeout: Duration,
    state_path: Option<PathBuf>,
    state_fingerprint: u64,
    panic_seed: Option<u64>,
}

/// Locks a mutex, recovering the guard if a panicking worker poisoned
/// it — the data under every daemon lock (queue, apply sender) stays
/// valid across an unwound request handler, so poisoning must never
/// cascade a single contained panic into a daemon-wide outage.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running daemon. Dropping without [`Daemon::shutdown`] aborts the
/// threads detached; call `shutdown` for an orderly stop and the final
/// stats.
pub struct Daemon {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    rebuilder: Option<JoinHandle<()>>,
    metrics_listener: Option<JoinHandle<()>>,
    state_open: StateOpen,
}

impl Daemon {
    /// Builds the initial world snapshot (epoch 0), binds the listener,
    /// and spawns the accept/worker/rebuilder threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind, local address).
    pub fn start(cfg: &ServeConfig) -> io::Result<Daemon> {
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

        let (apply_tx, apply_rx) = mpsc::channel::<Point>();
        let shared = Arc::new(Shared {
            cell: SnapshotCell::new(initial),
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            metrics: ServeMetrics::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            apply_tx: Mutex::new(apply_tx),
            queued: AtomicU64::new(0),
            max_conns: cfg.max_conns,
            shed_watermark: cfg.shed_watermark,
            deadline: cfg.deadline,
            frame_window: cfg.frame_window,
            idle_timeout: cfg.idle_timeout,
            state_path: cfg.state_path.clone(),
            state_fingerprint,
            panic_seed: cfg.panic_seed,
        });
        if matches!(state_open, StateOpen::Loaded { .. }) {
            shared.metrics.note_state_load();
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

        let workers = (0..cfg.resolved_workers())
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("abp-serve-worker-{w}"))
                    // Respawn backstop: the per-request catch_unwind in
                    // serve_connection should contain every panic, but
                    // if one ever escapes the loop body, restart the
                    // loop (counted) instead of silently shrinking the
                    // worker pool.
                    .spawn(move || loop {
                        match catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))) {
                            Ok(()) => return,
                            Err(_) => {
                                shared.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("abp-serve-accept".into())
                .spawn(move || accept_loop(&shared, listener))
                .expect("spawn accept")
        };

        let (metrics_addr, metrics_listener) = match &cfg.metrics_addr {
            Some(bind) => {
                let listener = TcpListener::bind(bind)?;
                let metrics_addr = listener.local_addr()?;
                listener.set_nonblocking(true)?;
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("abp-serve-metrics".into())
                    .spawn(move || metrics_loop(&shared, listener))
                    .expect("spawn metrics listener");
                (Some(metrics_addr), Some(handle))
            }
            None => (None, None),
        };

        Ok(Daemon {
            addr,
            metrics_addr,
            shared,
            accept: Some(accept),
            workers,
            rebuilder: Some(rebuilder),
            metrics_listener,
            state_open,
        })
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

    /// Orderly shutdown: stop accepting, let every worker finish its
    /// current frame and notice the flag, join the rebuilder, return the
    /// final stats.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.rebuilder.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_listener.take() {
            let _ = h.join();
        }
        let s = &self.shared.stats;
        let m = &self.shared.metrics;
        let mut opcodes = [OpcodeSummary::default(); OP_CLASSES];
        for (&class, op) in ALL_CLASSES.iter().zip(opcodes.iter_mut()) {
            let snap = m.class_snapshot(class);
            *op = OpcodeSummary {
                count: m.class_count(class),
                p50_ns: snap.quantile_ns(0.50).unwrap_or(0),
                p95_ns: snap.quantile_ns(0.95).unwrap_or(0),
                p99_ns: snap.quantile_ns(0.99).unwrap_or(0),
            };
        }
        StatsSnapshot {
            requests: s.requests.load(Ordering::Relaxed),
            localize: s.localize.load(Ordering::Relaxed),
            place: s.place.load(Ordering::Relaxed),
            info: s.info.load(Ordering::Relaxed),
            stats: s.stats.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            applies: s.applies.load(Ordering::Relaxed),
            connections: s.connections.load(Ordering::Relaxed),
            final_epoch: self.shared.cell.epoch_hint(),
            measured_requests: s.measured_requests.load(Ordering::Relaxed),
            measured_allocs: s.measured_allocs.load(Ordering::Relaxed),
            measured_bytes: s.measured_bytes.load(Ordering::Relaxed),
            alloc_counting: abp_trace::counting(),
            opcodes,
            flight_dropped: m.flight.dropped(),
            rebuilds_total: m.rebuilds_total(),
            rebuilds_pending: m.rebuilds_pending(),
            shed: m.shed(),
            deadline_exceeded: m.deadline_exceeded(),
            panics: m.panics(),
            quarantines: m.quarantines(),
            state_saves: m.state_saves(),
            state_loads: m.state_loads(),
            worker_respawns: s.worker_respawns.load(Ordering::Relaxed),
        }
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
        Ok(()) => shared.metrics.note_state_save(),
        Err(e) => eprintln!("abp-serve: state save to {} failed: {e}", path.display()),
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // Admission gate: live + queued against the cap. A shed
                // connection gets one typed Overloaded frame (a stack
                // constant — no allocation) and is closed; it is not
                // counted as accepted.
                if shared.max_conns > 0 {
                    let load =
                        shared.metrics.connections_live() + shared.queued.load(Ordering::Relaxed);
                    if load >= shared.max_conns as u64 {
                        shared.metrics.note_shed();
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.write_all(&OVERLOADED_FRAME);
                        continue;
                    }
                }
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                shared.queued.fetch_add(1, Ordering::Relaxed);
                let mut q = lock_unpoisoned(&shared.queue);
                q.push_back(stream);
                drop(q);
                shared.queue_cv.notify_one();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
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
                shared.stats.applies.fetch_add(1, Ordering::Relaxed);
                shared.metrics.rebuild_finished(started.elapsed());
                crate::APPLIES.add(1);
                crate::EPOCHS_PUBLISHED.add(1);
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
/// the control plane: scrapes allocate freely and never touch a worker.
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
    let _ = stream.set_read_timeout(Some(SCRAPE_TIMEOUT));
    // Read the request head (scrapers send a short GET; stop at the
    // blank line or a full buffer).
    let mut buf = [0u8; 1024];
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => {
                got += n;
                if buf[..got].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
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
/// its per-daemon instruments (never the global `abp_trace` registry, so
/// co-resident daemons stay separate).
fn render_exposition(shared: &Shared) -> String {
    use abp_trace::{CounterSnapshot, GaugeSnapshot};
    let s = &shared.stats;
    let m = &shared.metrics;
    let mut counters = vec![
        CounterSnapshot {
            name: "serve_requests",
            total: s.requests.load(Ordering::Relaxed),
        },
        CounterSnapshot {
            name: "serve_protocol_errors",
            total: s.errors.load(Ordering::Relaxed),
        },
        CounterSnapshot {
            name: "serve_applies",
            total: s.applies.load(Ordering::Relaxed),
        },
        CounterSnapshot {
            name: "serve_connections",
            total: s.connections.load(Ordering::Relaxed),
        },
        CounterSnapshot {
            name: "serve_rebuilds",
            total: m.rebuilds_total(),
        },
        CounterSnapshot {
            name: "serve_flight_dropped",
            total: m.flight.dropped(),
        },
        CounterSnapshot {
            name: "serve_shed",
            total: m.shed(),
        },
        CounterSnapshot {
            name: "serve_deadline_exceeded",
            total: m.deadline_exceeded(),
        },
        CounterSnapshot {
            name: "serve_panics",
            total: m.panics(),
        },
        CounterSnapshot {
            name: "serve_quarantines",
            total: m.quarantines(),
        },
        CounterSnapshot {
            name: "serve_state_saves",
            total: m.state_saves(),
        },
        CounterSnapshot {
            name: "serve_state_loads",
            total: m.state_loads(),
        },
        CounterSnapshot {
            name: "serve_worker_respawns",
            total: s.worker_respawns.load(Ordering::Relaxed),
        },
    ];
    for &class in &ALL_CLASSES {
        counters.push(CounterSnapshot {
            name: class.counter_name(),
            total: m.class_count(class),
        });
    }
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

fn worker_loop(shared: &Shared) {
    let mut scratch = ServeScratch::new();
    let mut reader = shared.cell.reader();
    loop {
        let stream = {
            let mut q = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(s) = q.pop_front() {
                    break s;
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                let (guard, _timeout) = shared
                    .queue_cv
                    .wait_timeout(q, POLL_INTERVAL)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        let _ = shared
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        serve_connection(shared, &mut reader, stream, &mut scratch);
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
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

fn serve_connection(
    shared: &Shared,
    reader: &mut crate::snapshot::SnapshotReader<'_>,
    mut stream: TcpStream,
    scratch: &mut ServeScratch,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(shared.frame_window));
    shared.metrics.connection_opened();
    let mut served = 0u64;
    let mut alloc_base: Option<AllocSnapshot> = None;
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
                shared.metrics.note_quarantine();
                break;
            }
        }
        let len = u32::from_le_bytes(header);
        if len > MAX_FRAME {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            crate::PROTOCOL_ERRORS.add(1);
            protocol::encode_error_response(&mut scratch.out_buf, Status::Oversize);
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
                shared.metrics.note_quarantine();
                break;
            }
            ReadOutcome::CleanEof | ReadOutcome::Stop | ReadOutcome::IdleExpired => break,
        }

        if served == ALLOC_WARMUP_REQUESTS {
            alloc_base = Some(abp_trace::thread_snapshot());
        }
        let started = Instant::now();
        let _span = abp_trace::span!("serve_request");
        // Work-budget shed: under queue pressure, answer cheap classes
        // Overloaded instead of doing the work. Place/Info/Stats go
        // first; Localize — the service's reason to exist — holds out
        // to twice the watermark.
        let (class, heard) = if should_shed_request(shared, &scratch.in_buf) {
            shared.metrics.note_shed();
            protocol::encode_error_response(&mut scratch.out_buf, Status::Overloaded);
            (OpClass::Error, 0)
        } else {
            // Panic isolation: a poisoned request unwinds to here, kills
            // only this connection (counted, flight-recorded below), and
            // the worker carries on with fresh scratch.
            match catch_unwind(AssertUnwindSafe(|| handle_request(shared, reader, scratch))) {
                Ok(pair) => pair,
                Err(_) => {
                    shared.metrics.note_panic();
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    record_request(shared, OpClass::Error, 0, started.elapsed());
                    // The handler may have unwound mid-encode; discard
                    // the torn scratch (allocates — panics are far off
                    // the steady-state path).
                    *scratch = ServeScratch::new();
                    break;
                }
            }
        };
        let mut class = class;
        let mut heard = heard;
        let elapsed = started.elapsed();
        // Deadline: the work is done but took too long to be useful —
        // discard the response and tell the client so.
        if let Some(deadline) = shared.deadline {
            if elapsed > deadline {
                shared.metrics.note_deadline_exceeded();
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
    shared.metrics.connection_closed();
    if let Some(base) = alloc_base {
        let delta = abp_trace::thread_snapshot().delta_since(base);
        let s = &shared.stats;
        s.measured_requests
            .fetch_add(served - ALLOC_WARMUP_REQUESTS, Ordering::Relaxed);
        s.measured_allocs.fetch_add(delta.allocs, Ordering::Relaxed);
        s.measured_bytes.fetch_add(delta.bytes, Ordering::Relaxed);
    }
}

/// Counts one answered request in the process-wide counters and both
/// daemon ledgers (`Stats` and the per-class metrics), and offers it to
/// the flight recorder.
fn record_request(shared: &Shared, class: OpClass, heard: u32, elapsed: Duration) {
    crate::REQUEST_NS.record(elapsed);
    crate::REQUESTS.add(1);
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let latency_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    shared.metrics.record(class, latency_ns);
    shared.metrics.flight.offer(FlightEntry {
        class: class as u8,
        heard,
        latency_ns,
        epoch: shared.cell.epoch_hint(),
    });
}

/// Work-budget admission: decide from the opcode byte alone — before
/// any decode work — whether this request should be answered
/// [`Status::Overloaded`] instead of served. Cheap/ancillary classes
/// (place, info, stats) shed at the watermark; localize, the service's
/// core duty, holds out to twice the watermark. A watermark of zero
/// disables shedding. Unknown opcodes are never shed: they must reach
/// the decoder to be counted as protocol errors.
fn should_shed_request(shared: &Shared, in_buf: &[u8]) -> bool {
    if shared.shed_watermark == 0 {
        return false;
    }
    let queued = shared.queued.load(Ordering::Relaxed);
    match in_buf.first().copied().and_then(Opcode::from_wire) {
        Some(Opcode::Localize) => queued >= 2 * shared.shed_watermark as u64,
        Some(Opcode::Place) | Some(Opcode::Info) | Some(Opcode::Stats) => {
            queued >= shared.shed_watermark as u64
        }
        None => false,
    }
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
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            crate::PROTOCOL_ERRORS.add(1);
            protocol::encode_error_response(&mut scratch.out_buf, status);
            return (OpClass::Error, 0);
        }
    };
    let snap = reader.current();
    match request {
        Request::Localize => {
            shared.stats.localize.fetch_add(1, Ordering::Relaxed);
            crate::LOCALIZE_REQUESTS.add(1);
            match engine::localize(snap, &scratch.ids, &mut scratch.slots) {
                Ok(reply) => {
                    protocol::encode_localize_response(&mut scratch.out_buf, &reply);
                    (OpClass::Localize, reply.heard)
                }
                Err(_unknown_id) => {
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    crate::PROTOCOL_ERRORS.add(1);
                    protocol::encode_error_response(&mut scratch.out_buf, Status::UnknownBeacon);
                    (OpClass::Error, 0)
                }
            }
        }
        Request::Place { algo, seed, apply } => {
            shared.stats.place.fetch_add(1, Ordering::Relaxed);
            crate::PLACE_REQUESTS.add(1);
            let position = engine::place(snap, algo, seed);
            // Applying is control-plane: enqueue for the rebuilder and
            // answer immediately from the current epoch. (The send
            // allocates a channel node; applies are intentionally
            // outside the zero-alloc steady-state invariant.)
            if shared.panic_seed == Some(seed) {
                // Test-only seam: a designated seed simulates a bug deep
                // in request handling so the chaos harness can prove the
                // worker survives it.
                panic!("injected panic for chaos seed {seed}");
            }
            let applied = apply && lock_unpoisoned(&shared.apply_tx).send(position).is_ok();
            if applied {
                shared.metrics.rebuild_enqueued();
            }
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
            shared.stats.info.fetch_add(1, Ordering::Relaxed);
            crate::INFO_REQUESTS.add(1);
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
            shared.stats.stats.fetch_add(1, Ordering::Relaxed);
            let mut flight = [FlightEntry::default(); FLIGHT_SLOTS];
            let n = shared.metrics.flight.copy_into(&mut flight);
            protocol::encode_stats_response(
                &mut scratch.out_buf,
                &StatsView {
                    epoch: snap.epoch(),
                    connections_total: shared.stats.connections.load(Ordering::Relaxed),
                    metrics: &shared.metrics,
                    flight: &flight[..n],
                },
            );
            (OpClass::Stats, 0)
        }
    }
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
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.localize, 3);
        assert_eq!(stats.place, 1);
        assert_eq!(stats.info, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.final_epoch, 0);
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
        assert_eq!(stats.applies, 1);
        assert_eq!(stats.final_epoch, 1);
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
        assert_eq!(stats.errors, 2);
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
        assert_eq!(snap.stats, 2);
        assert_eq!(snap.opcodes[OpClass::Localize as usize].count, 3);
        assert!(snap.opcodes[OpClass::Localize as usize].p50_ns > 0);
        assert!(
            snap.opcodes[OpClass::Localize as usize].p99_ns
                >= snap.opcodes[OpClass::Localize as usize].p50_ns
        );
        assert!(!snap.summary_table().is_empty());
        assert!(snap.summary_table().contains("localize"));
    }

    /// The daemon keeps two request ledgers: `Stats` (the shutdown
    /// counters) and `ServeMetrics` (the per-class counts behind the Stats
    /// opcode and `/metrics`). Both count every request once; they differ
    /// in where a request that fails after decoding lands: `Stats` counts
    /// an unknown-beacon Localize as a localize *and* an error, the
    /// per-class ledger only as an error.
    #[test]
    fn request_ledgers_agree_on_totals_and_split_errors_differently() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
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

        drop(conn);
        let snap = daemon.shutdown();
        let count = |class: OpClass| snap.opcodes[class as usize].count;
        assert_eq!(snap.requests, 6);
        assert_eq!(
            snap.opcodes.iter().map(|o| o.count).sum::<u64>(),
            snap.requests,
            "both ledgers count every request once"
        );
        assert_eq!(count(OpClass::Error), 2);
        assert_eq!(snap.errors, count(OpClass::Error));
        assert_eq!(snap.localize, 2, "Stats counts the unknown-beacon Localize");
        assert_eq!(count(OpClass::Localize), 1, "the per-class ledger does not");
        assert_eq!(
            (
                count(OpClass::Info),
                count(OpClass::Place),
                count(OpClass::Stats)
            ),
            (1, 1, 1)
        );
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
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.localize, 1);
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
        assert!(body.contains("serve_worker_respawns_total 0"));

        let missing = scrape("/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        drop(conn);
        daemon.shutdown();
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
        daemon.shutdown();
    }
}

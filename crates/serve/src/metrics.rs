//! The daemon's one ledger: opcode-class counters and latency
//! histograms, the daemon tallies, operational gauges, and a
//! slow-request flight recorder.
//!
//! These instruments are owned by one [`Daemon`](crate::daemon::Daemon):
//! every in-process daemon — tests and bench harnesses routinely run
//! several — gets its own numbers, nothing touches the global
//! [`abp_trace`] registry or its gate, and the record path is a handful
//! of relaxed atomic stores with **zero heap allocations**, so it rides
//! inside the serving invariant `serve-bench` measures.
//!
//! Every frame the daemon answers is recorded once, in one [`OpClass`]:
//! a frame answered with an error status — malformed, oversize, naming
//! an unknown beacon, shed, or past its deadline — is an `error`, never
//! a `localize` or `place`. The request total is the sum of the five
//! classes.
//!
//! The three consumers are:
//!
//! * the **Stats wire opcode** ([`crate::protocol::encode_stats_response`])
//!   — a compact binary snapshot `abp top` polls,
//! * the **`/metrics` HTTP listener** — Prometheus text exposition built
//!   from the same instruments via [`abp_trace::render_prometheus`],
//! * the **exit report** — [`Daemon::shutdown`](crate::daemon::Daemon::shutdown)
//!   decodes one final Stats frame into
//!   [`StatsSnapshot`](crate::daemon::StatsSnapshot) and adds the
//!   tallies the wire does not carry.

use abp_trace::{HistogramSnapshot, RawHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Slots in the flight recorder: the N slowest requests retained.
pub const FLIGHT_SLOTS: usize = 16;

/// Number of opcode classes tracked (one per [`OpClass`] variant).
pub const OP_CLASSES: usize = 5;

/// The request classes telemetry is broken down by: one per wire opcode,
/// plus one class for frames answered with an error status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpClass {
    /// Localize requests (opcode 1).
    Localize = 0,
    /// Place requests (opcode 2).
    Place = 1,
    /// Info requests (opcode 3).
    Info = 2,
    /// Stats requests (opcode 4).
    Stats = 3,
    /// Frames answered with a non-Ok status (any opcode).
    Error = 4,
}

/// All classes, in index order (`OpClass::ALL[i] as usize == i`).
pub const ALL_CLASSES: [OpClass; OP_CLASSES] = [
    OpClass::Localize,
    OpClass::Place,
    OpClass::Info,
    OpClass::Stats,
    OpClass::Error,
];

impl OpClass {
    /// The class with index `i`, if any (inverse of `self as usize`).
    pub fn from_index(i: usize) -> Option<OpClass> {
        ALL_CLASSES.get(i).copied()
    }

    /// Lower-case display name (`"localize"`, ..., `"error"`).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Localize => "localize",
            OpClass::Place => "place",
            OpClass::Info => "info",
            OpClass::Stats => "stats",
            OpClass::Error => "error",
        }
    }

    /// The per-class request-counter instrument name for exposition.
    pub fn counter_name(self) -> &'static str {
        match self {
            OpClass::Localize => "serve_localize_requests",
            OpClass::Place => "serve_place_requests",
            OpClass::Info => "serve_info_requests",
            OpClass::Stats => "serve_stats_requests",
            OpClass::Error => "serve_error_requests",
        }
    }

    /// The latency-histogram instrument name, `_ns`-suffixed so the
    /// Prometheus renderer exports it as `*_seconds`.
    pub fn metric_name(self) -> &'static str {
        match self {
            OpClass::Localize => "serve_localize_ns",
            OpClass::Place => "serve_place_ns",
            OpClass::Info => "serve_info_ns",
            OpClass::Stats => "serve_stats_ns",
            OpClass::Error => "serve_error_ns",
        }
    }
}

/// One slow request captured by the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightEntry {
    /// The request's [`OpClass`] index.
    pub class: u8,
    /// Beacons heard (localize requests; 0 otherwise).
    pub heard: u32,
    /// Handler latency, decode through encode, in nanoseconds.
    pub latency_ns: u64,
    /// The epoch current when the request was served.
    pub epoch: u64,
}

struct FlightSlots {
    entries: [FlightEntry; FLIGHT_SLOTS],
    len: usize,
}

/// A bounded ring of the slowest requests seen so far.
///
/// The steady-state cost per request is one relaxed load: once the ring
/// is full, only a request slower than the current floor (the fastest
/// retained entry) takes the lock at all. The lock itself is `try_lock`
/// — a contended offer is *dropped* (and counted) rather than ever
/// blocking a connection thread, and nothing on this path allocates.
pub struct FlightRecorder {
    /// Admission floor: 0 until the ring fills, then the smallest
    /// retained latency. Requests at or below it skip the lock.
    floor_ns: AtomicU64,
    dropped: AtomicU64,
    slots: Mutex<FlightSlots>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            floor_ns: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: Mutex::new(FlightSlots {
                entries: [FlightEntry::default(); FLIGHT_SLOTS],
                len: 0,
            }),
        }
    }

    /// Offers a request for retention. Keeps the entry iff it is slower
    /// than the current floor; never blocks, never allocates.
    #[inline]
    pub fn offer(&self, entry: FlightEntry) {
        if entry.latency_ns <= self.floor_ns.load(Ordering::Relaxed) {
            return;
        }
        let Ok(mut slots) = self.slots.try_lock() else {
            // Contended: losing one slow-request sample beats stalling
            // the request path. Account for it instead.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if slots.len < FLIGHT_SLOTS {
            let at = slots.len;
            slots.entries[at] = entry;
            slots.len += 1;
            if slots.len < FLIGHT_SLOTS {
                return; // floor stays 0 until the ring fills
            }
        } else {
            // Replace the fastest retained entry if we beat it. (The
            // floor check above is advisory — relaxed, possibly stale —
            // so re-check under the lock.)
            let (min_at, min_entry) = slots
                .entries
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|(_, e)| e.latency_ns)
                .expect("ring is non-empty");
            if entry.latency_ns <= min_entry.latency_ns {
                return;
            }
            slots.entries[min_at] = entry;
        }
        let new_floor = slots
            .entries
            .iter()
            .map(|e| e.latency_ns)
            .min()
            .expect("ring is full");
        self.floor_ns.store(new_floor, Ordering::Relaxed);
    }

    /// Offers dropped to `try_lock` contention.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the retained entries into `out` (slowest first) and
    /// returns how many were written. Alloc-free: `out` is
    /// caller-provided, and sorting is in-place.
    pub fn copy_into(&self, out: &mut [FlightEntry; FLIGHT_SLOTS]) -> usize {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let n = slots.len;
        out[..n].copy_from_slice(&slots.entries[..n]);
        drop(slots);
        out[..n].sort_unstable_by_key(|e| std::cmp::Reverse(e.latency_ns));
        n
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

struct ClassMetrics {
    count: AtomicU64,
    latency: RawHistogram,
}

impl ClassMetrics {
    const fn new() -> ClassMetrics {
        ClassMetrics {
            count: AtomicU64::new(0),
            latency: RawHistogram::new(),
        }
    }
}

/// Number of daemon tallies (one per [`Tally`] variant).
pub const TALLIES: usize = 12;

/// The daemon's monotone counters beside the per-class request counts.
/// Each bump is one relaxed atomic add — safe on the request path, no
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tally {
    /// Connections admitted and given a thread (one shed at the accept
    /// gate is not).
    Connections = 0,
    /// Frames refused for their content: malformed (`BadFrame`,
    /// `BadOpcode`, `BadAlgo`), announcing more than
    /// [`MAX_FRAME`](crate::protocol::MAX_FRAME) bytes (`Oversize`), or
    /// naming an unknown beacon (`UnknownBeacon`). Each is also one
    /// [`OpClass::Error`] request.
    Refused = 1,
    /// Rebuilds completed: one per applied placement.
    Rebuilds = 2,
    /// Connections shed with
    /// [`Status::Overloaded`](crate::protocol::Status::Overloaded) — at
    /// the accept gate, or because their thread could not be started —
    /// and applies answered `applied = 0` because the rebuild backlog was
    /// full.
    Shed = 3,
    /// Requests answered
    /// [`Status::DeadlineExceeded`](crate::protocol::Status::DeadlineExceeded).
    DeadlineExceeded = 4,
    /// Panics contained on a connection thread, in a request handler
    /// or anywhere else (the connection died, the daemon survived).
    Panics = 5,
    /// Connections quarantined for dribbling one frame slower than the
    /// daemon's frame window (slow-loris defense).
    Quarantines = 6,
    /// World snapshots persisted to the `--state` file.
    StateSaves = 7,
    /// World snapshots restored from the `--state` file at boot.
    StateLoads = 8,
    /// Requests inside the post-warmup allocation windows.
    MeasuredRequests = 9,
    /// Allocator calls observed inside those windows.
    MeasuredAllocs = 10,
    /// Bytes requested inside those windows.
    MeasuredBytes = 11,
}

/// All tallies, in index order (`ALL_TALLIES[i] as usize == i`).
pub const ALL_TALLIES: [Tally; TALLIES] = [
    Tally::Connections,
    Tally::Refused,
    Tally::Rebuilds,
    Tally::Shed,
    Tally::DeadlineExceeded,
    Tally::Panics,
    Tally::Quarantines,
    Tally::StateSaves,
    Tally::StateLoads,
    Tally::MeasuredRequests,
    Tally::MeasuredAllocs,
    Tally::MeasuredBytes,
];

impl Tally {
    /// The `/metrics` counter name (exported `_total`-suffixed). `None`
    /// for the allocation window, which only the exit report carries.
    pub fn counter_name(self) -> Option<&'static str> {
        Some(match self {
            Tally::Connections => "serve_connections",
            Tally::Refused => "serve_protocol_errors",
            Tally::Rebuilds => "serve_rebuilds",
            Tally::Shed => "serve_shed",
            Tally::DeadlineExceeded => "serve_deadline_exceeded",
            Tally::Panics => "serve_panics",
            Tally::Quarantines => "serve_quarantines",
            Tally::StateSaves => "serve_state_saves",
            Tally::StateLoads => "serve_state_loads",
            Tally::MeasuredRequests | Tally::MeasuredAllocs | Tally::MeasuredBytes => return None,
        })
    }
}

/// The daemon's one ledger: per-class request counts and latency
/// histograms, the [`Tally`] counters, operational gauges, and the
/// flight recorder.
pub struct ServeMetrics {
    started: Instant,
    classes: [ClassMetrics; OP_CLASSES],
    tallies: [AtomicU64; TALLIES],
    connections_live: AtomicU64,
    rebuilds_pending: AtomicU64,
    last_rebuild_ns: AtomicU64,
    /// The slowest-request ring.
    pub flight: FlightRecorder,
}

impl ServeMetrics {
    /// A fresh telemetry block; `uptime` counts from here.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            started: Instant::now(),
            classes: std::array::from_fn(|_| ClassMetrics::new()),
            tallies: std::array::from_fn(|_| AtomicU64::new(0)),
            connections_live: AtomicU64::new(0),
            rebuilds_pending: AtomicU64::new(0),
            last_rebuild_ns: AtomicU64::new(0),
            flight: FlightRecorder::new(),
        }
    }

    /// Records one answered request: bumps the class count and its
    /// latency histogram. Six relaxed atomic ops, no allocation.
    #[inline]
    pub fn record(&self, class: OpClass, latency_ns: u64) {
        let c = &self.classes[class as usize];
        c.count.fetch_add(1, Ordering::Relaxed);
        c.latency.record_ns(latency_ns);
    }

    /// Requests answered in `class`.
    pub fn class_count(&self, class: OpClass) -> u64 {
        self.classes[class as usize].count.load(Ordering::Relaxed)
    }

    /// The latency histogram for `class` (for alloc-free bucket walks;
    /// see [`ServeMetrics::class_snapshot`] for the owned form).
    pub fn class_histogram(&self, class: OpClass) -> &RawHistogram {
        &self.classes[class as usize].latency
    }

    /// An owned snapshot of `class`'s latency histogram, named for the
    /// Prometheus renderer. Allocates — control-plane only.
    pub fn class_snapshot(&self, class: OpClass) -> HistogramSnapshot {
        self.classes[class as usize]
            .latency
            .snapshot(class.metric_name())
    }

    /// Requests answered across all classes.
    pub fn requests_total(&self) -> u64 {
        ALL_CLASSES.iter().map(|&c| self.class_count(c)).sum()
    }

    /// Adds one to `tally`.
    #[inline]
    pub fn note(&self, tally: Tally) {
        self.add(tally, 1);
    }

    /// Adds `n` to `tally`.
    #[inline]
    pub fn add(&self, tally: Tally, n: u64) {
        self.tallies[tally as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `tally`.
    pub fn tally(&self, tally: Tally) -> u64 {
        self.tallies[tally as usize].load(Ordering::Relaxed)
    }

    /// Wall-clock time since the daemon started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// A connection was admitted: it counts as live until
    /// [`Self::connection_closed`].
    #[inline]
    pub fn connection_opened(&self) {
        self.connections_live.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection finished (clean or not).
    #[inline]
    pub fn connection_closed(&self) {
        let _ = self
            .connections_live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Connections admitted and not yet closed: the number of
    /// connection threads, which the admission cap bounds.
    pub fn connections_live(&self) -> u64 {
        self.connections_live.load(Ordering::Relaxed)
    }

    /// A placement apply was enqueued for the rebuilder.
    #[inline]
    pub fn rebuild_enqueued(&self) {
        self.rebuilds_pending.fetch_add(1, Ordering::Relaxed);
    }

    /// An apply counted by [`Self::rebuild_enqueued`] never reached the
    /// rebuilder: the backlog was full (or the rebuilder gone).
    #[inline]
    pub fn rebuild_withdrawn(&self) {
        self.rebuilds_pending.fetch_sub(1, Ordering::Relaxed);
    }

    /// The rebuilder finished (and published) one rebuild.
    pub fn rebuild_finished(&self, took: Duration) {
        let _ = self
            .rebuilds_pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        self.note(Tally::Rebuilds);
        let ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        self.last_rebuild_ns.store(ns, Ordering::Relaxed);
    }

    /// Applies enqueued but not yet rebuilt.
    pub fn rebuilds_pending(&self) -> u64 {
        self.rebuilds_pending.load(Ordering::Relaxed)
    }

    /// Duration of the most recent rebuild, in nanoseconds (0 before the
    /// first).
    pub fn last_rebuild_ns(&self) -> u64 {
        self.last_rebuild_ns.load(Ordering::Relaxed)
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_class_indexing_roundtrips() {
        for (i, &class) in ALL_CLASSES.iter().enumerate() {
            assert_eq!(class as usize, i);
            assert_eq!(OpClass::from_index(i), Some(class));
        }
        assert_eq!(OpClass::from_index(OP_CLASSES), None);
        assert_eq!(OpClass::Localize.name(), "localize");
        assert!(OpClass::Error.metric_name().ends_with("_ns"));
    }

    #[test]
    fn record_counts_per_class_and_sums_total() {
        let m = ServeMetrics::new();
        m.record(OpClass::Localize, 1_000);
        m.record(OpClass::Localize, 2_000);
        m.record(OpClass::Error, 50);
        assert_eq!(m.class_count(OpClass::Localize), 2);
        assert_eq!(m.class_count(OpClass::Error), 1);
        assert_eq!(m.class_count(OpClass::Place), 0);
        assert_eq!(m.requests_total(), 3);
        let snap = m.class_snapshot(OpClass::Localize);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_ns, 3_000);
        assert_eq!(snap.name, "serve_localize_ns");
    }

    #[test]
    fn gauges_move_and_saturate() {
        let m = ServeMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        assert_eq!(m.connections_live(), 1);
        m.connection_closed();
        m.connection_closed(); // saturates at 0, never wraps
        assert_eq!(m.connections_live(), 0);

        m.rebuild_enqueued();
        m.rebuild_enqueued();
        assert_eq!(m.rebuilds_pending(), 2);
        m.rebuild_finished(Duration::from_micros(125));
        assert_eq!(m.rebuilds_pending(), 1);
        assert_eq!(m.tally(Tally::Rebuilds), 1);
        assert_eq!(m.last_rebuild_ns(), 125_000);
    }

    #[test]
    fn tallies_bump_independently() {
        for (i, &t) in ALL_TALLIES.iter().enumerate() {
            assert_eq!(t as usize, i);
        }
        let m = ServeMetrics::new();
        m.note(Tally::Shed);
        m.note(Tally::Shed);
        m.note(Tally::DeadlineExceeded);
        m.add(Tally::MeasuredAllocs, 7);
        assert_eq!(m.tally(Tally::Shed), 2);
        assert_eq!(m.tally(Tally::DeadlineExceeded), 1);
        assert_eq!(m.tally(Tally::MeasuredAllocs), 7);
        assert_eq!(m.tally(Tally::Panics), 0);
        // Tallies are not requests: the class ledger stays untouched.
        assert_eq!(m.requests_total(), 0);
        assert_eq!(m.connections_live(), 0);
        // Every exported name is distinct and the allocation window is
        // not exported.
        let names: Vec<_> = ALL_TALLIES
            .iter()
            .filter_map(|t| t.counter_name())
            .collect();
        assert_eq!(names.len(), TALLIES - 3);
        for (i, a) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(a), "{a} exported twice");
        }
    }

    #[test]
    fn flight_recorder_keeps_the_slowest_n() {
        let rec = FlightRecorder::new();
        // Fill with latencies 1..=FLIGHT_SLOTS, then offer slower ones.
        for i in 1..=FLIGHT_SLOTS as u64 {
            rec.offer(FlightEntry {
                class: 0,
                heard: 0,
                latency_ns: i,
                epoch: 0,
            });
        }
        // Ring full: floor is 1, so an equal-or-faster offer is skipped.
        rec.offer(FlightEntry {
            latency_ns: 1,
            ..FlightEntry::default()
        });
        // A slower one evicts the fastest.
        rec.offer(FlightEntry {
            class: 1,
            heard: 7,
            latency_ns: 1_000,
            epoch: 3,
        });
        let mut out = [FlightEntry::default(); FLIGHT_SLOTS];
        let n = rec.copy_into(&mut out);
        assert_eq!(n, FLIGHT_SLOTS);
        assert_eq!(out[0].latency_ns, 1_000, "sorted slowest-first");
        assert_eq!(out[0].heard, 7);
        assert_eq!(out[0].epoch, 3);
        assert!(
            out[..n].iter().all(|e| e.latency_ns >= 2),
            "latency-1 entry was evicted: {:?}",
            &out[..n]
        );
        assert!(out.windows(2).all(|w| w[0].latency_ns >= w[1].latency_ns));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn flight_recorder_partial_ring_keeps_everything() {
        let rec = FlightRecorder::new();
        rec.offer(FlightEntry {
            latency_ns: 5,
            ..FlightEntry::default()
        });
        rec.offer(FlightEntry {
            latency_ns: 3,
            ..FlightEntry::default()
        });
        let mut out = [FlightEntry::default(); FLIGHT_SLOTS];
        let n = rec.copy_into(&mut out);
        assert_eq!(n, 2);
        assert_eq!(out[0].latency_ns, 5);
        assert_eq!(out[1].latency_ns, 3);
    }
}

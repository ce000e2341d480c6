//! The wire protocol: length-prefixed little-endian frames over TCP.
//!
//! Every message — request or response — is one *frame*: a `u32`
//! little-endian payload length followed by that many payload bytes.
//! Frames are capped at [`MAX_FRAME`] bytes; a peer announcing more is
//! answered with [`Status::Oversize`] and disconnected (the stream cannot
//! be resynchronized past an unread oversized payload).
//!
//! # Requests
//!
//! The first payload byte is the opcode:
//!
//! | opcode | request | body |
//! |--------|----------|------|
//! | `1` | localize | `u32` count, then count × `u64` heard beacon ids |
//! | `2` | place | `u8` algorithm ([`PlaceAlgo`]), `u64` seed, `u8` apply flag |
//! | `3` | info | empty |
//! | `4` | stats | empty |
//!
//! **Forward compatibility:** a frame whose opcode the server does not
//! recognize is answered with [`Status::BadOpcode`] — after the server
//! has consumed the *entire* declared payload. The length prefix, not
//! the opcode, delimits frames, so a pipelined stream stays in sync
//! across unknown opcodes and the connection survives (the daemon test
//! `unknown_opcode_consumes_its_payload_and_keeps_the_stream_synced`
//! pins this).
//!
//! # Responses
//!
//! The first payload byte is a [`Status`]; error responses are that
//! single byte. Success bodies are fixed-layout (localize/place) or
//! length-driven (info):
//!
//! * localize: `u64` epoch, `u8` flags ([`FLAG_ESTIMATE`] /
//!   [`FLAG_DEGRADED`] / [`FLAG_CONFIDENCE`]), `u32` heard count,
//!   `f64` x, `f64` y, `f64` confidence (fields not covered by a set
//!   flag are encoded as zero),
//! * place: `u64` epoch, `u8` algorithm, `u8` applied flag, `f64` x,
//!   `f64` y,
//! * info: `u64` epoch, `f64` terrain side, `f64` nominal range,
//!   `u32` beacon count, then count × (`u64` id, `f64` x, `f64` y) in
//!   insertion (slot) order — the order every localizer accumulates in,
//!   so a client can reproduce served centroids bit-for-bit,
//! * stats: fourteen `u64` header fields (epoch, uptime ns, connections
//!   total/live, rebuilds pending/total, last rebuild ns, flight
//!   drops, shed, deadline-exceeded, panics, quarantines, state
//!   saves/loads), then a `u8` class count of per-opcode-class blocks (`u64`
//!   count/sum/min/max ns, `u8` bucket count, then that many `u64`
//!   log₂-bucket counts — the [`abp_trace::HistogramSnapshot`] layout),
//!   then a `u8` flight-entry count of slow-request records (`u8`
//!   class, `u32` heard, `u64` latency ns, `u64` epoch), slowest first.
//!   Classes arrive in [`crate::metrics::ALL_CLASSES`] index order.
//!
//! All integers and floats are little-endian; floats travel as their
//! IEEE-754 bit patterns, so estimates survive the wire bit-identically.
//!
//! # Hostile-input hardening
//!
//! Every decode path treats its input as adversarial: announced element
//! counts (localize ids, info roster entries, stats buckets/flight
//! entries) are validated against the bytes actually present **before**
//! any allocation or element loop, so a 12-byte frame announcing
//! `u32::MAX` ids costs O(1) to reject. Combined with the [`MAX_FRAME`]
//! cap enforced by [`read_frame`] and the server's header check, no
//! frame — however malformed — can drive unbounded allocation, and the
//! proptest suite pins that no codec ever panics on arbitrary bytes.
//!
//! The encode helpers write a complete frame (prefix included) into a
//! caller-owned buffer and the decode helpers read from caller-owned
//! slices, so a connection loop that reuses its buffers allocates
//! nothing per request.

use abp_geom::Point;
use std::io::{self, Read};

/// Maximum frame payload size (1 MiB) — comfortably above the largest
/// legitimate message (an info response for tens of thousands of
/// beacons) while bounding per-connection buffer growth.
pub const MAX_FRAME: u32 = 1 << 20;

/// Localize response flag: an estimate is present (`x`/`y` meaningful).
pub const FLAG_ESTIMATE: u8 = 1;
/// Localize response flag: fewer beacons were heard than the estimator's
/// full method needs; the estimate is the degraded fallback.
pub const FLAG_DEGRADED: u8 = 2;
/// Localize response flag: a confidence value is present — the surveyed
/// localization error (meters) at the lattice point nearest the estimate.
pub const FLAG_CONFIDENCE: u8 = 4;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Heard-beacon ids → position estimate.
    Localize = 1,
    /// Error map → next-beacon suggestion.
    Place = 2,
    /// Epoch, terrain, beacon roster.
    Info = 3,
    /// Live telemetry snapshot: per-opcode counters/histograms, gauges,
    /// and the slow-request flight recorder.
    Stats = 4,
}

/// Placement algorithm selector for place requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PlaceAlgo {
    /// The paper's Random baseline (uses the request's seed).
    Random = 0,
    /// The paper's Max algorithm (deterministic; seed ignored).
    Max = 1,
    /// The paper's Grid algorithm (deterministic; seed ignored).
    Grid = 2,
}

impl PlaceAlgo {
    /// Decodes the wire tag.
    pub fn from_wire(tag: u8) -> Option<PlaceAlgo> {
        match tag {
            0 => Some(PlaceAlgo::Random),
            1 => Some(PlaceAlgo::Max),
            2 => Some(PlaceAlgo::Grid),
            _ => None,
        }
    }

    /// The algorithm's report name, matching
    /// `abp_placement::PlacementAlgorithm::name`.
    pub fn name(self) -> &'static str {
        match self {
            PlaceAlgo::Random => "random",
            PlaceAlgo::Max => "max",
            PlaceAlgo::Grid => "grid",
        }
    }
}

/// Response status codes; `Ok` is followed by an opcode-specific body,
/// everything else is a single-byte error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success.
    Ok = 0,
    /// The payload was truncated or malformed for its opcode.
    BadFrame = 1,
    /// Unknown opcode byte.
    BadOpcode = 2,
    /// A localize request named a beacon id not in the current epoch.
    UnknownBeacon = 3,
    /// A place request named an unknown algorithm tag.
    BadAlgo = 4,
    /// The announced frame length exceeds [`MAX_FRAME`].
    Oversize = 5,
    /// The daemon is at its connection cap, or could not start a thread
    /// for this connection, and shed it without reading a request.
    /// Retry later.
    Overloaded = 6,
    /// The request's handling exceeded the daemon's per-request deadline;
    /// any result was discarded.
    DeadlineExceeded = 7,
}

impl Status {
    /// Decodes the wire tag.
    pub fn from_wire(tag: u8) -> Option<Status> {
        match tag {
            0 => Some(Status::Ok),
            1 => Some(Status::BadFrame),
            2 => Some(Status::BadOpcode),
            3 => Some(Status::UnknownBeacon),
            4 => Some(Status::BadAlgo),
            5 => Some(Status::Oversize),
            6 => Some(Status::Overloaded),
            7 => Some(Status::DeadlineExceeded),
            _ => None,
        }
    }
}

/// A decoded request. Localize ids are returned through the caller's
/// scratch vector (see [`decode_request`]) so decoding allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Localize from the heard ids now in the scratch vector.
    Localize,
    /// Propose (and optionally apply) the next beacon position.
    Place {
        /// Which placement algorithm to run.
        algo: PlaceAlgo,
        /// Seed for randomized algorithms.
        seed: u64,
        /// Whether to enqueue the proposal for deployment + re-survey.
        apply: bool,
    },
    /// Describe the current world snapshot.
    Info,
    /// Report live telemetry.
    Stats,
}

// ---------------------------------------------------------------------
// Little-endian cursor helpers over caller-owned storage.
// ---------------------------------------------------------------------

struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    fn done(&self) -> bool {
        self.0.is_empty()
    }
    fn remaining(&self) -> usize {
        self.0.len()
    }
}

/// Validates an announced element count against the bytes actually left
/// in the payload **before** any allocation or element loop runs. A
/// hostile peer announcing `u32::MAX` ids backed by a 12-byte payload is
/// rejected in O(1) instead of driving a huge reserve/push loop.
fn count_fits(count: u32, elem_bytes: usize, cur: &Cursor<'_>) -> bool {
    (count as u64) * (elem_bytes as u64) <= cur.remaining() as u64
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Begins a frame: clears `out`, reserves the length prefix.
fn begin_frame(out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
}

/// Finishes a frame: patches the length prefix over the payload written
/// since [`begin_frame`].
fn end_frame(out: &mut [u8]) {
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
}

// ---------------------------------------------------------------------
// Server-side decode.
// ---------------------------------------------------------------------

/// Decodes a request payload. Localize ids are appended to `ids` (which
/// is cleared first), so a reused vector makes decoding allocation-free.
///
/// # Errors
///
/// Returns the [`Status`] the server should answer with: `BadOpcode` for
/// an unknown opcode byte, `BadAlgo` for an unknown placement tag, and
/// `BadFrame` for anything truncated, trailing, or empty.
pub fn decode_request(payload: &[u8], ids: &mut Vec<u64>) -> Result<Request, Status> {
    let mut cur = Cursor(payload);
    let opcode = cur.u8().ok_or(Status::BadFrame)?;
    match opcode {
        1 => {
            let count = cur.u32().ok_or(Status::BadFrame)?;
            if !count_fits(count, 8, &cur) {
                return Err(Status::BadFrame);
            }
            ids.clear();
            for _ in 0..count {
                ids.push(cur.u64().ok_or(Status::BadFrame)?);
            }
            if !cur.done() {
                return Err(Status::BadFrame);
            }
            Ok(Request::Localize)
        }
        2 => {
            let algo_tag = cur.u8().ok_or(Status::BadFrame)?;
            let seed = cur.u64().ok_or(Status::BadFrame)?;
            let apply = cur.u8().ok_or(Status::BadFrame)?;
            if !cur.done() {
                return Err(Status::BadFrame);
            }
            let algo = PlaceAlgo::from_wire(algo_tag).ok_or(Status::BadAlgo)?;
            Ok(Request::Place {
                algo,
                seed,
                apply: apply != 0,
            })
        }
        3 => {
            if !cur.done() {
                return Err(Status::BadFrame);
            }
            Ok(Request::Info)
        }
        4 => {
            if !cur.done() {
                return Err(Status::BadFrame);
            }
            Ok(Request::Stats)
        }
        // Unknown opcode: the caller has already consumed the declared
        // payload (frames are length-delimited), so answering BadOpcode
        // leaves the stream in sync — any trailing body bytes here are
        // the unknown request's, not garbage.
        _ => Err(Status::BadOpcode),
    }
}

// ---------------------------------------------------------------------
// Client-side encode (requests).
// ---------------------------------------------------------------------

/// Encodes a localize request frame into `out` (cleared first).
pub fn encode_localize_request(out: &mut Vec<u8>, ids: &[u64]) {
    begin_frame(out);
    out.push(Opcode::Localize as u8);
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u64(out, id);
    }
    end_frame(out);
}

/// Encodes a place request frame into `out` (cleared first).
pub fn encode_place_request(out: &mut Vec<u8>, algo: PlaceAlgo, seed: u64, apply: bool) {
    begin_frame(out);
    out.push(Opcode::Place as u8);
    out.push(algo as u8);
    put_u64(out, seed);
    out.push(apply as u8);
    end_frame(out);
}

/// Encodes an info request frame into `out` (cleared first).
pub fn encode_info_request(out: &mut Vec<u8>) {
    begin_frame(out);
    out.push(Opcode::Info as u8);
    end_frame(out);
}

/// Encodes a stats request frame into `out` (cleared first).
pub fn encode_stats_request(out: &mut Vec<u8>) {
    begin_frame(out);
    out.push(Opcode::Stats as u8);
    end_frame(out);
}

// ---------------------------------------------------------------------
// Server-side encode (responses).
// ---------------------------------------------------------------------

/// A localize result as it travels the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizeReply {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Position estimate, absent under the `Exclude` unheard policy.
    pub estimate: Option<Point>,
    /// How many distinct heard beacons the estimate used.
    pub heard: u32,
    /// Whether the estimator fell below its full-method beacon minimum.
    pub degraded: bool,
    /// Surveyed localization error near the estimate, if measured.
    pub confidence: Option<f64>,
}

/// Encodes a successful localize response frame into `out`.
pub fn encode_localize_response(out: &mut Vec<u8>, reply: &LocalizeReply) {
    begin_frame(out);
    out.push(Status::Ok as u8);
    put_u64(out, reply.epoch);
    let mut flags = 0u8;
    if reply.estimate.is_some() {
        flags |= FLAG_ESTIMATE;
    }
    if reply.degraded {
        flags |= FLAG_DEGRADED;
    }
    if reply.confidence.is_some() {
        flags |= FLAG_CONFIDENCE;
    }
    out.push(flags);
    put_u32(out, reply.heard);
    let p = reply.estimate.unwrap_or(Point::ORIGIN);
    put_f64(out, p.x);
    put_f64(out, p.y);
    put_f64(out, reply.confidence.unwrap_or(0.0));
    end_frame(out);
}

/// A place result as it travels the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaceReply {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// The algorithm that produced the proposal.
    pub algo: PlaceAlgo,
    /// Whether the proposal was enqueued for deployment: false for a
    /// dry run, and for an apply that found the rebuild backlog full.
    pub applied: bool,
    /// The proposed beacon position.
    pub position: Point,
}

/// Encodes a successful place response frame into `out`.
pub fn encode_place_response(out: &mut Vec<u8>, reply: &PlaceReply) {
    begin_frame(out);
    out.push(Status::Ok as u8);
    put_u64(out, reply.epoch);
    out.push(reply.algo as u8);
    out.push(reply.applied as u8);
    put_f64(out, reply.position.x);
    put_f64(out, reply.position.y);
    end_frame(out);
}

/// Encodes a successful info response frame into `out`. `beacons` must
/// yield `(id, position)` in insertion (slot) order.
pub fn encode_info_response<I>(
    out: &mut Vec<u8>,
    epoch: u64,
    terrain_side: f64,
    nominal_range: f64,
    count: u32,
    beacons: I,
) where
    I: IntoIterator<Item = (u64, Point)>,
{
    begin_frame(out);
    out.push(Status::Ok as u8);
    put_u64(out, epoch);
    put_f64(out, terrain_side);
    put_f64(out, nominal_range);
    put_u32(out, count);
    for (id, pos) in beacons {
        put_u64(out, id);
        put_f64(out, pos.x);
        put_f64(out, pos.y);
    }
    end_frame(out);
}

/// Everything a stats response is encoded from, borrowed from the
/// daemon: its ledger (the live
/// [`ServeMetrics`](crate::metrics::ServeMetrics) block), the epoch,
/// and the flight entries copied out of the ledger.
///
/// Encoding walks the instruments' atomics directly
/// ([`abp_trace::RawHistogram::bucket`]), so building a response
/// allocates nothing beyond (warmed) output-buffer growth — the Stats
/// opcode rides the same zero-alloc request path as every other opcode.
pub struct StatsView<'a> {
    /// The currently published epoch.
    pub epoch: u64,
    /// The daemon's telemetry block.
    pub metrics: &'a crate::metrics::ServeMetrics,
    /// Flight-recorder entries to ship, slowest first (from
    /// [`FlightRecorder::copy_into`](crate::metrics::FlightRecorder::copy_into)).
    pub flight: &'a [crate::metrics::FlightEntry],
}

/// Encodes a successful stats response frame into `out`.
pub fn encode_stats_response(out: &mut Vec<u8>, view: &StatsView<'_>) {
    use crate::metrics::Tally;
    let m = view.metrics;
    begin_frame(out);
    out.push(Status::Ok as u8);
    put_u64(out, view.epoch);
    let uptime = u64::try_from(m.uptime().as_nanos()).unwrap_or(u64::MAX);
    put_u64(out, uptime);
    put_u64(out, m.tally(Tally::Connections));
    put_u64(out, m.connections_live());
    put_u64(out, m.rebuilds_pending());
    put_u64(out, m.tally(Tally::Rebuilds));
    put_u64(out, m.last_rebuild_ns());
    put_u64(out, m.flight.dropped());
    put_u64(out, m.tally(Tally::Shed));
    put_u64(out, m.tally(Tally::DeadlineExceeded));
    put_u64(out, m.tally(Tally::Panics));
    put_u64(out, m.tally(Tally::Quarantines));
    put_u64(out, m.tally(Tally::StateSaves));
    put_u64(out, m.tally(Tally::StateLoads));
    out.push(crate::metrics::OP_CLASSES as u8);
    for &class in &crate::metrics::ALL_CLASSES {
        let hist = m.class_histogram(class);
        put_u64(out, m.class_count(class));
        put_u64(out, hist.sum_ns());
        put_u64(out, hist.min_ns());
        put_u64(out, hist.max_ns());
        out.push(abp_trace::HIST_BUCKETS as u8);
        for b in 0..abp_trace::HIST_BUCKETS {
            put_u64(out, hist.bucket(b));
        }
    }
    out.push(view.flight.len().min(u8::MAX as usize) as u8);
    for e in view.flight.iter().take(u8::MAX as usize) {
        out.push(e.class);
        put_u32(out, e.heard);
        put_u64(out, e.latency_ns);
        put_u64(out, e.epoch);
    }
    end_frame(out);
}

/// Encodes a single-byte error response frame into `out`.
pub fn encode_error_response(out: &mut Vec<u8>, status: Status) {
    begin_frame(out);
    out.push(status as u8);
    end_frame(out);
}

// ---------------------------------------------------------------------
// Client-side decode (responses).
// ---------------------------------------------------------------------

/// A decoded info response.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoReply {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Terrain side length (square terrain).
    pub terrain_side: f64,
    /// The propagation model's nominal range `R`.
    pub nominal_range: f64,
    /// `(id, position)` per beacon, in insertion (slot) order.
    pub beacons: Vec<(u64, Point)>,
}

fn expect_ok(cur: &mut Cursor<'_>) -> Result<(), Status> {
    match cur.u8().and_then(Status::from_wire) {
        Some(Status::Ok) => Ok(()),
        Some(err) => Err(err),
        None => Err(Status::BadFrame),
    }
}

/// Decodes a localize response payload.
///
/// # Errors
///
/// Returns the server's error [`Status`], or [`Status::BadFrame`] if the
/// payload itself is malformed.
pub fn decode_localize_response(payload: &[u8]) -> Result<LocalizeReply, Status> {
    let mut cur = Cursor(payload);
    expect_ok(&mut cur)?;
    let epoch = cur.u64().ok_or(Status::BadFrame)?;
    let flags = cur.u8().ok_or(Status::BadFrame)?;
    let heard = cur.u32().ok_or(Status::BadFrame)?;
    let x = cur.f64().ok_or(Status::BadFrame)?;
    let y = cur.f64().ok_or(Status::BadFrame)?;
    let confidence = cur.f64().ok_or(Status::BadFrame)?;
    if !cur.done() {
        return Err(Status::BadFrame);
    }
    Ok(LocalizeReply {
        epoch,
        estimate: (flags & FLAG_ESTIMATE != 0).then_some(Point::new(x, y)),
        heard,
        degraded: flags & FLAG_DEGRADED != 0,
        confidence: (flags & FLAG_CONFIDENCE != 0).then_some(confidence),
    })
}

/// Decodes a place response payload (errors as in
/// [`decode_localize_response`]).
pub fn decode_place_response(payload: &[u8]) -> Result<PlaceReply, Status> {
    let mut cur = Cursor(payload);
    expect_ok(&mut cur)?;
    let epoch = cur.u64().ok_or(Status::BadFrame)?;
    let algo = cur
        .u8()
        .and_then(PlaceAlgo::from_wire)
        .ok_or(Status::BadFrame)?;
    let applied = cur.u8().ok_or(Status::BadFrame)? != 0;
    let x = cur.f64().ok_or(Status::BadFrame)?;
    let y = cur.f64().ok_or(Status::BadFrame)?;
    if !cur.done() {
        return Err(Status::BadFrame);
    }
    Ok(PlaceReply {
        epoch,
        algo,
        applied,
        position: Point::new(x, y),
    })
}

/// Decodes an info response payload (errors as in
/// [`decode_localize_response`]).
pub fn decode_info_response(payload: &[u8]) -> Result<InfoReply, Status> {
    let mut cur = Cursor(payload);
    expect_ok(&mut cur)?;
    let epoch = cur.u64().ok_or(Status::BadFrame)?;
    let terrain_side = cur.f64().ok_or(Status::BadFrame)?;
    let nominal_range = cur.f64().ok_or(Status::BadFrame)?;
    let count = cur.u32().ok_or(Status::BadFrame)?;
    if !count_fits(count, 24, &cur) {
        return Err(Status::BadFrame);
    }
    let mut beacons = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = cur.u64().ok_or(Status::BadFrame)?;
        let x = cur.f64().ok_or(Status::BadFrame)?;
        let y = cur.f64().ok_or(Status::BadFrame)?;
        beacons.push((id, Point::new(x, y)));
    }
    if !cur.done() {
        return Err(Status::BadFrame);
    }
    Ok(InfoReply {
        epoch,
        terrain_side,
        nominal_range,
        beacons,
    })
}

/// One opcode class's telemetry as decoded from a stats response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpClassStats {
    /// Requests served in this class.
    pub count: u64,
    /// Sum of handler latencies, nanoseconds.
    pub sum_ns: u64,
    /// Exact fastest request, nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Exact slowest request, nanoseconds (0 when empty).
    pub max_ns: u64,
    /// Log₂ latency buckets (bucket `b` covers `(2^(b-1), 2^b]` ns).
    pub buckets: Vec<u64>,
}

impl OpClassStats {
    /// Rehydrates the class as an [`abp_trace::HistogramSnapshot`] so
    /// the snapshot-diff and quantile machinery applies to wire data.
    pub fn histogram(&self, name: &'static str) -> abp_trace::HistogramSnapshot {
        abp_trace::HistogramSnapshot {
            name,
            count: self.count,
            sum_ns: self.sum_ns,
            min_ns: self.min_ns,
            max_ns: self.max_ns,
            buckets: self.buckets.clone(),
        }
    }
}

/// A decoded stats response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// The currently published epoch.
    pub epoch: u64,
    /// Daemon uptime, nanoseconds.
    pub uptime_ns: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Connections currently being served.
    pub connections_live: u64,
    /// Applies enqueued but not yet rebuilt.
    pub rebuilds_pending: u64,
    /// Rebuilds completed since start.
    pub rebuilds_total: u64,
    /// Duration of the most recent rebuild, nanoseconds (0 before the
    /// first).
    pub last_rebuild_ns: u64,
    /// Flight-recorder offers dropped to lock contention.
    pub flight_dropped: u64,
    /// Connections/requests shed by admission control
    /// ([`Status::Overloaded`]), plus applies shed by a full rebuild
    /// backlog (answered Ok with `applied = 0`).
    pub shed: u64,
    /// Requests whose handling blew the per-request deadline
    /// ([`Status::DeadlineExceeded`]).
    pub deadline_exceeded: u64,
    /// Panics contained on a connection thread (connection killed,
    /// daemon kept).
    pub panics: u64,
    /// Connections quarantined for dribbling a frame slower than the
    /// daemon's frame window.
    pub quarantines: u64,
    /// World-state snapshots persisted to the `--state` file.
    pub state_saves: u64,
    /// World-state snapshots restored from the `--state` file at boot.
    pub state_loads: u64,
    /// Per-class telemetry, indexed like
    /// [`crate::metrics::ALL_CLASSES`].
    pub classes: Vec<OpClassStats>,
    /// Slowest retained requests, slowest first.
    pub flight: Vec<crate::metrics::FlightEntry>,
}

impl StatsReply {
    /// Requests answered across all classes.
    pub fn requests_total(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Requests answered in `class` (0 when the reply lacks it).
    pub fn count(&self, class: crate::metrics::OpClass) -> u64 {
        self.classes.get(class as usize).map_or(0, |c| c.count)
    }
}

/// Decodes a stats response payload (errors as in
/// [`decode_localize_response`]).
pub fn decode_stats_response(payload: &[u8]) -> Result<StatsReply, Status> {
    let mut cur = Cursor(payload);
    expect_ok(&mut cur)?;
    let epoch = cur.u64().ok_or(Status::BadFrame)?;
    let uptime_ns = cur.u64().ok_or(Status::BadFrame)?;
    let connections_total = cur.u64().ok_or(Status::BadFrame)?;
    let connections_live = cur.u64().ok_or(Status::BadFrame)?;
    let rebuilds_pending = cur.u64().ok_or(Status::BadFrame)?;
    let rebuilds_total = cur.u64().ok_or(Status::BadFrame)?;
    let last_rebuild_ns = cur.u64().ok_or(Status::BadFrame)?;
    let flight_dropped = cur.u64().ok_or(Status::BadFrame)?;
    let shed = cur.u64().ok_or(Status::BadFrame)?;
    let deadline_exceeded = cur.u64().ok_or(Status::BadFrame)?;
    let panics = cur.u64().ok_or(Status::BadFrame)?;
    let quarantines = cur.u64().ok_or(Status::BadFrame)?;
    let state_saves = cur.u64().ok_or(Status::BadFrame)?;
    let state_loads = cur.u64().ok_or(Status::BadFrame)?;
    let class_count = cur.u8().ok_or(Status::BadFrame)?;
    let mut classes = Vec::with_capacity(class_count as usize);
    for _ in 0..class_count {
        let count = cur.u64().ok_or(Status::BadFrame)?;
        let sum_ns = cur.u64().ok_or(Status::BadFrame)?;
        let min_ns = cur.u64().ok_or(Status::BadFrame)?;
        let max_ns = cur.u64().ok_or(Status::BadFrame)?;
        let bucket_count = cur.u8().ok_or(Status::BadFrame)?;
        if !count_fits(bucket_count as u32, 8, &cur) {
            return Err(Status::BadFrame);
        }
        let mut buckets = Vec::with_capacity(bucket_count as usize);
        for _ in 0..bucket_count {
            buckets.push(cur.u64().ok_or(Status::BadFrame)?);
        }
        classes.push(OpClassStats {
            count,
            sum_ns,
            min_ns,
            max_ns,
            buckets,
        });
    }
    let flight_len = cur.u8().ok_or(Status::BadFrame)?;
    if !count_fits(flight_len as u32, 21, &cur) {
        return Err(Status::BadFrame);
    }
    let mut flight = Vec::with_capacity(flight_len as usize);
    for _ in 0..flight_len {
        let class = cur.u8().ok_or(Status::BadFrame)?;
        let heard = cur.u32().ok_or(Status::BadFrame)?;
        let latency_ns = cur.u64().ok_or(Status::BadFrame)?;
        let entry_epoch = cur.u64().ok_or(Status::BadFrame)?;
        flight.push(crate::metrics::FlightEntry {
            class,
            heard,
            latency_ns,
            epoch: entry_epoch,
        });
    }
    if !cur.done() {
        return Err(Status::BadFrame);
    }
    Ok(StatsReply {
        epoch,
        uptime_ns,
        connections_total,
        connections_live,
        rebuilds_pending,
        rebuilds_total,
        last_rebuild_ns,
        flight_dropped,
        shed,
        deadline_exceeded,
        panics,
        quarantines,
        state_saves,
        state_loads,
        classes,
        flight,
    })
}

// ---------------------------------------------------------------------
// Blocking frame reader (client side).
// ---------------------------------------------------------------------

/// Reads one complete frame payload into `buf` (cleared and resized),
/// blocking until it arrives. Returns `false` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// Propagates socket errors; EOF mid-frame and oversize announcements
/// surface as [`io::ErrorKind::UnexpectedEof`] /
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame<R: Read>(stream: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = stream.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(false);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    stream.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(frame: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(frame.len(), 4 + len, "prefix must cover the payload");
        &frame[4..]
    }

    #[test]
    fn localize_request_roundtrip() {
        let mut out = Vec::new();
        let mut ids = Vec::new();
        encode_localize_request(&mut out, &[7, 3, 3, 99]);
        let req = decode_request(payload(&out), &mut ids).unwrap();
        assert_eq!(req, Request::Localize);
        assert_eq!(ids, vec![7, 3, 3, 99]);

        encode_localize_request(&mut out, &[]);
        assert_eq!(
            decode_request(payload(&out), &mut ids).unwrap(),
            Request::Localize
        );
        assert!(ids.is_empty());
    }

    #[test]
    fn place_and_info_request_roundtrip() {
        let mut out = Vec::new();
        let mut ids = Vec::new();
        for (algo, apply) in [
            (PlaceAlgo::Random, false),
            (PlaceAlgo::Max, true),
            (PlaceAlgo::Grid, false),
        ] {
            encode_place_request(&mut out, algo, 0xDEAD_BEEF, apply);
            assert_eq!(
                decode_request(payload(&out), &mut ids).unwrap(),
                Request::Place {
                    algo,
                    seed: 0xDEAD_BEEF,
                    apply
                }
            );
        }
        encode_info_request(&mut out);
        assert_eq!(
            decode_request(payload(&out), &mut ids).unwrap(),
            Request::Info
        );
        encode_stats_request(&mut out);
        assert_eq!(
            decode_request(payload(&out), &mut ids).unwrap(),
            Request::Stats
        );
    }

    #[test]
    fn unknown_opcode_wins_over_body_shape() {
        // Forward compatibility: a future opcode with a body the current
        // server cannot parse must still be classified BadOpcode — the
        // body belongs to the unknown request and is not frame garbage.
        let mut ids = Vec::new();
        assert_eq!(
            decode_request(&[200, 1, 2, 3, 4, 5], &mut ids),
            Err(Status::BadOpcode)
        );
        assert_eq!(decode_request(&[42], &mut ids), Err(Status::BadOpcode));
    }

    #[test]
    fn stats_response_roundtrip() {
        use crate::metrics::{FlightEntry, OpClass, ServeMetrics, Tally, ALL_CLASSES};
        let metrics = ServeMetrics::new();
        metrics.record(OpClass::Localize, 1_000);
        metrics.record(OpClass::Localize, 3_000);
        metrics.record(OpClass::Place, 10_000);
        metrics.record(OpClass::Error, 100);
        metrics.connection_opened();
        metrics.add(Tally::Connections, 9);
        metrics.rebuild_enqueued();
        metrics.note(Tally::Shed);
        metrics.note(Tally::Shed);
        metrics.note(Tally::DeadlineExceeded);
        metrics.note(Tally::Panics);
        metrics.note(Tally::Quarantines);
        metrics.note(Tally::StateSaves);
        metrics.note(Tally::StateLoads);
        let flight = [
            FlightEntry {
                class: OpClass::Place as u8,
                heard: 0,
                latency_ns: 10_000,
                epoch: 2,
            },
            FlightEntry {
                class: OpClass::Localize as u8,
                heard: 5,
                latency_ns: 3_000,
                epoch: 2,
            },
        ];
        let mut out = Vec::new();
        encode_stats_response(
            &mut out,
            &StatsView {
                epoch: 2,
                metrics: &metrics,
                flight: &flight,
            },
        );
        let reply = decode_stats_response(payload(&out)).unwrap();
        assert_eq!(reply.epoch, 2);
        assert_eq!(reply.connections_total, 9);
        assert_eq!(reply.connections_live, 1);
        assert_eq!(reply.rebuilds_pending, 1);
        assert_eq!(reply.rebuilds_total, 0);
        assert_eq!(reply.flight_dropped, 0);
        assert_eq!(reply.shed, 2);
        assert_eq!(reply.deadline_exceeded, 1);
        assert_eq!(reply.panics, 1);
        assert_eq!(reply.quarantines, 1);
        assert_eq!(reply.state_saves, 1);
        assert_eq!(reply.state_loads, 1);
        assert_eq!(reply.classes.len(), ALL_CLASSES.len());
        let loc = &reply.classes[OpClass::Localize as usize];
        assert_eq!(loc.count, 2);
        assert_eq!(loc.sum_ns, 4_000);
        assert_eq!(loc.min_ns, 1_000);
        assert_eq!(loc.max_ns, 3_000);
        assert_eq!(loc.buckets.len(), abp_trace::HIST_BUCKETS);
        assert_eq!(loc.buckets.iter().sum::<u64>(), 2);
        assert_eq!(reply.classes[OpClass::Info as usize].count, 0);
        assert_eq!(reply.requests_total(), 4);
        assert_eq!(reply.flight, flight.to_vec());
        // The rehydrated histogram carries the wire data verbatim.
        let hist = loc.histogram("serve_localize_ns");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.max_ns, 3_000);
    }

    #[test]
    fn malformed_requests_map_to_statuses() {
        let mut ids = Vec::new();
        assert_eq!(decode_request(&[], &mut ids), Err(Status::BadFrame));
        assert_eq!(decode_request(&[42], &mut ids), Err(Status::BadOpcode));
        // Localize announcing 2 ids but carrying 1.
        let mut out = Vec::new();
        encode_localize_request(&mut out, &[1, 2]);
        let p = payload(&out);
        assert_eq!(
            decode_request(&p[..p.len() - 8], &mut ids),
            Err(Status::BadFrame)
        );
        // Trailing garbage.
        let mut with_trailer = p.to_vec();
        with_trailer.push(0);
        assert_eq!(
            decode_request(&with_trailer, &mut ids),
            Err(Status::BadFrame)
        );
        // Unknown placement algorithm tag.
        encode_place_request(&mut out, PlaceAlgo::Grid, 1, false);
        let mut bad_algo = payload(&out).to_vec();
        bad_algo[1] = 9;
        assert_eq!(decode_request(&bad_algo, &mut ids), Err(Status::BadAlgo));
    }

    #[test]
    fn absurd_count_prefixes_are_rejected_before_allocation() {
        let mut ids = Vec::new();
        // Localize announcing u32::MAX ids backed by 8 payload bytes:
        // rejected up front, no reserve/push loop runs.
        let mut bad = vec![Opcode::Localize as u8];
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(&[0u8; 8]);
        assert_eq!(decode_request(&bad, &mut ids), Err(Status::BadFrame));
        assert!(
            ids.capacity() < 1024,
            "decode must not reserve for an absurd announced count"
        );
        // Info response announcing a giant roster with no bytes behind it.
        let mut info = vec![Status::Ok as u8];
        info.extend_from_slice(&0u64.to_le_bytes());
        info.extend_from_slice(&100.0f64.to_bits().to_le_bytes());
        info.extend_from_slice(&15.0f64.to_bits().to_le_bytes());
        info.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_info_response(&info), Err(Status::BadFrame));
        // Stats response whose flight count byte lies about what follows.
        let metrics = crate::metrics::ServeMetrics::new();
        let mut out = Vec::new();
        encode_stats_response(
            &mut out,
            &StatsView {
                epoch: 0,
                metrics: &metrics,
                flight: &[],
            },
        );
        let mut lying = payload(&out).to_vec();
        *lying.last_mut().unwrap() = 255; // flight count with zero bytes behind it
        assert_eq!(decode_stats_response(&lying), Err(Status::BadFrame));
    }

    #[test]
    fn resilience_statuses_roundtrip_the_wire() {
        for status in [Status::Overloaded, Status::DeadlineExceeded] {
            assert_eq!(Status::from_wire(status as u8), Some(status));
            let mut out = Vec::new();
            encode_error_response(&mut out, status);
            assert_eq!(payload(&out), &[status as u8]);
            assert_eq!(decode_localize_response(payload(&out)), Err(status));
        }
        assert_eq!(Status::from_wire(8), None);
    }

    #[test]
    fn localize_response_roundtrip_bitwise() {
        let mut out = Vec::new();
        let reply = LocalizeReply {
            epoch: 41,
            estimate: Some(Point::new(145.0 / 3.0, 0.1 + 0.2)),
            heard: 3,
            degraded: false,
            confidence: Some(2.75),
        };
        encode_localize_response(&mut out, &reply);
        let back = decode_localize_response(payload(&out)).unwrap();
        assert_eq!(back.epoch, 41);
        assert_eq!(back.heard, 3);
        // Estimates must survive the wire bit-for-bit.
        assert_eq!(
            back.estimate.unwrap().x.to_bits(),
            reply.estimate.unwrap().x.to_bits()
        );
        assert_eq!(
            back.estimate.unwrap().y.to_bits(),
            reply.estimate.unwrap().y.to_bits()
        );
        assert_eq!(back.confidence, Some(2.75));

        // No-estimate (Exclude policy) and degraded shapes.
        let none = LocalizeReply {
            epoch: 0,
            estimate: None,
            heard: 0,
            degraded: true,
            confidence: None,
        };
        encode_localize_response(&mut out, &none);
        let back = decode_localize_response(payload(&out)).unwrap();
        assert_eq!(back.estimate, None);
        assert!(back.degraded);
        assert_eq!(back.confidence, None);
    }

    #[test]
    fn place_and_info_response_roundtrip() {
        let mut out = Vec::new();
        let reply = PlaceReply {
            epoch: 7,
            algo: PlaceAlgo::Grid,
            applied: true,
            position: Point::new(12.5, 99.0),
        };
        encode_place_response(&mut out, &reply);
        assert_eq!(decode_place_response(payload(&out)).unwrap(), reply);

        let roster = [(0u64, Point::new(1.0, 2.0)), (5, Point::new(3.0, 4.0))];
        encode_info_response(&mut out, 2, 100.0, 15.0, 2, roster.iter().copied());
        let info = decode_info_response(payload(&out)).unwrap();
        assert_eq!(info.epoch, 2);
        assert_eq!(info.terrain_side, 100.0);
        assert_eq!(info.nominal_range, 15.0);
        assert_eq!(info.beacons, roster.to_vec());
    }

    #[test]
    fn error_response_roundtrip() {
        let mut out = Vec::new();
        encode_error_response(&mut out, Status::UnknownBeacon);
        assert_eq!(payload(&out), &[Status::UnknownBeacon as u8]);
        assert_eq!(
            decode_localize_response(payload(&out)),
            Err(Status::UnknownBeacon)
        );
        assert_eq!(
            decode_place_response(payload(&out)),
            Err(Status::UnknownBeacon)
        );
    }

    #[test]
    fn read_frame_handles_eof_and_oversize() {
        let mut out = Vec::new();
        encode_info_request(&mut out);
        let mut stream = io::Cursor::new(out.clone());
        let mut buf = Vec::new();
        assert!(read_frame(&mut stream, &mut buf).unwrap());
        assert_eq!(buf, payload(&out));
        // Clean EOF at the boundary.
        assert!(!read_frame(&mut stream, &mut buf).unwrap());
        // EOF inside the header.
        let mut stream = io::Cursor::new(vec![1u8, 0]);
        assert_eq!(
            read_frame(&mut stream, &mut buf).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Oversize announcement.
        let mut oversize = (MAX_FRAME + 1).to_le_bytes().to_vec();
        oversize.extend_from_slice(&[0; 8]);
        let mut stream = io::Cursor::new(oversize);
        assert_eq!(
            read_frame(&mut stream, &mut buf).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}

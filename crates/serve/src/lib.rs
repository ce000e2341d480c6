//! Online localization serving — the deployment story of the paper's
//! pipeline.
//!
//! Everything up to this crate is *batch*: generate a field, survey it,
//! place a beacon, repeat. `abp-serve` turns that pipeline into a
//! long-lived daemon a fielded client can actually talk to:
//!
//! * [`protocol`] — a dependency-free length-prefixed TCP wire format
//!   with four requests: **localize** (heard-beacon ids → position
//!   estimate + confidence), **place** (current error map → next-beacon
//!   suggestion via Random/Max/Grid), **info** (epoch + terrain +
//!   beacon roster), and **stats** (a live telemetry snapshot),
//! * [`snapshot`] — the [`WorldSnapshot`](snapshot::WorldSnapshot):
//!   an immutable bundle of `BeaconField` + `ErrorMap` + precomputed
//!   placement answers, published through an epoch-stamped
//!   [`SnapshotCell`](snapshot::SnapshotCell), so background re-surveys
//!   rebuild off to the side while connection threads never block,
//! * [`engine`] — the per-request compute, bit-identical to the batch
//!   localizers (see [`engine::localize`]) and allocation-free on reused
//!   [`engine::ServeScratch`] workspaces,
//! * [`daemon`] — an accept loop that gives every admitted connection
//!   its own thread, up to the `max_conns` cap, with graceful shutdown
//!   and per-connection allocation accounting,
//! * [`metrics`] — the daemon's one ledger, counting every answered
//!   frame once, in one opcode class: per-class counters and latency
//!   histograms on ungated atomics, the daemon tallies, the gauges, and
//!   the never-blocks-a-request slowest-requests flight recorder (read
//!   by the **stats** opcode, the optional `/metrics` listener and the
//!   exit report — see `docs/OBSERVABILITY.md`). No instrument is
//!   process-global; only the `serve_request` and `serve_rebuild` trace
//!   spans reach `abp-trace`,
//! * [`mod@bench`] — the `abp serve-bench` load harness: N client threads,
//!   client-observed p50/p95/p99, server-side allocs/request, and
//!   `/metrics` scrape latency under load,
//! * [`signal`] — a minimal SIGTERM/SIGINT hook for the CLI daemon,
//! * [`state`] — warm-restart persistence: the published world's
//!   *inputs* (epoch + beacon roster) in a CRC-framed state file the
//!   daemon rewrites on every epoch publish and reloads at boot for a
//!   bit-identical error map after a crash,
//! * [`chaos`] — the `abp serve-chaos` battery: hostile clients (torn
//!   frames, garbage opcodes, absurd prefixes, slowloris, floods), idle
//!   keep-alive peers beside an active client, and an injected
//!   in-handler panic thrown at a live daemon, asserting it sheds,
//!   quarantines, serves every client it admits, and survives without
//!   leaking connections.
//!
//! # The zero-alloc serving invariant
//!
//! The request path — decode, snapshot lookup, localize/place, encode —
//! performs **zero heap allocations** in steady state (after a short
//! per-connection warm-up that sizes the reused buffers). The daemon
//! measures this per connection with thread-local allocator deltas and
//! reports allocs/request in [`daemon::StatsSnapshot`], the exit report;
//! the bench gate holds it at exactly 0.
//! Control-plane work (applying a placement, re-surveying, publishing a
//! new epoch) happens on the rebuilder thread and may allocate freely.
//!
//! # Example
//!
//! ```
//! use abp_serve::daemon::{Daemon, ServeConfig};
//! use abp_serve::metrics::OpClass;
//! use abp_serve::protocol as wire;
//! use std::io::Write;
//!
//! let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
//! let mut conn = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
//! let mut buf = Vec::new();
//! wire::encode_info_request(&mut buf);
//! conn.write_all(&buf).unwrap();
//! let mut frame = Vec::new();
//! wire::read_frame(&mut conn, &mut frame).unwrap();
//! let info = wire::decode_info_response(&frame).unwrap();
//! assert_eq!(info.epoch, 0);
//! assert!(!info.beacons.is_empty());
//! drop(conn);
//! let stats = daemon.shutdown();
//! assert_eq!(stats.reply.count(OpClass::Info), 1);
//! assert_eq!(stats.reply.requests_total(), 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod chaos;
pub mod daemon;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod signal;
pub mod snapshot;
pub mod state;

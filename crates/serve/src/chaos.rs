//! The `abp serve-chaos` resilience battery.
//!
//! Every defense the daemon carries — admission control, the dribble
//! detector, per-request panic isolation, deadlines, warm restart — and
//! its promise to serve every client it admits are exercised here
//! against a *live* daemon
//! over real TCP sockets, the same way a hostile or broken client
//! would hit it in the field:
//!
//! * **torn frames** — a header cut off mid-write, a payload abandoned
//!   mid-frame,
//! * **garbage opcodes and absurd prefixes** — unknown opcode bytes,
//!   a `u32::MAX` length prefix, a `u32::MAX` element-count prefix
//!   (rejected by the codec before any allocation),
//! * **floods** — more concurrent connections than `max_conns`, shed
//!   at accept with one [`Status::Overloaded`] frame,
//! * **idle keep-alive peers** — connections that idle between frames
//!   hold only their own threads, so an active client beside them is
//!   served within its deadline,
//! * **slowloris** — a client dribbling one frame slower than the
//!   frame window is quarantined without a response,
//! * **an injected handler panic** — via [`ServeConfig::panic_seed`]:
//!   the connection dies, the daemon and its other connections survive,
//! * **deadlines** — a handler outliving [`ServeConfig::deadline`] is
//!   answered [`Status::DeadlineExceeded`],
//! * **warm restart** — a second daemon booted from the first one's
//!   state file republishes a bit-identical world (equal snapshot
//!   fingerprints) at the same epoch.
//!
//! Each scenario asserts both the client-observed behavior *and* the
//! daemon's own counters at shutdown, and the hostile-input group ends
//! with a well-behaved connection proving the zero-alloc serving
//! invariant still holds after the abuse. [`run_chaos`] returns an
//! error naming the first scenario whose expectation failed; the CLI
//! (`abp serve-chaos`) and the CI `chaos-smoke` job fail with it.
//!
//! The injected-panic scenario intentionally lets the default panic
//! hook print one backtrace to stderr — that noise is the proof that a
//! real unwind crossed the isolation boundary and was contained.

use crate::daemon::{Daemon, ServeConfig};
use crate::metrics::OpClass;
use crate::protocol::{self as wire, PlaceAlgo, Status};
use crate::state::StateOpen;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side socket timeout: generous against CI jitter, tight
/// enough that a hung daemon fails the battery instead of wedging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The seed the panic-isolation scenario arms
/// [`ServeConfig::panic_seed`] with.
const CHAOS_PANIC_SEED: u64 = 0xDEAD_BEEF_0BAD_CAFE;

/// One scenario's verdict, for the CLI's line-per-scenario output.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Stable scenario name (used by the CI grep).
    pub name: &'static str,
    /// What was observed, one human-readable line.
    pub detail: String,
}

/// The whole battery's result: one outcome per scenario, in run order.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario verdicts; the battery errors out instead of recording
    /// a failing one, so every entry here passed.
    pub outcomes: Vec<ScenarioOutcome>,
}

fn fail(scenario: &str, what: impl std::fmt::Display) -> io::Error {
    io::Error::other(format!("chaos [{scenario}]: {what}"))
}

/// Connects with the battery's client timeouts applied.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    conn.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(conn)
}

/// Sends one request and returns the response's status byte, or `None`
/// if the daemon hung up without answering.
fn round_trip(conn: &mut TcpStream, request: &[u8]) -> io::Result<Option<u8>> {
    conn.write_all(request)?;
    let mut frame = Vec::new();
    match wire::read_frame(conn, &mut frame) {
        Ok(true) => Ok(frame.first().copied()),
        Ok(false) => Ok(None),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => Ok(None),
        Err(e) => Err(e),
    }
}

/// Reads until EOF (or reset), asserting the daemon sent nothing.
fn expect_silent_close(scenario: &str, conn: &mut TcpStream) -> io::Result<()> {
    let mut byte = [0u8; 1];
    match conn.read(&mut byte) {
        Ok(0) => Ok(()),
        Ok(_) => Err(fail(scenario, "daemon answered where it should hang up")),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => Ok(()),
        Err(e) => Err(e),
    }
}

/// A localize request over fixed ids — valid without knowing the
/// roster (unknown ids answer `UnknownBeacon`, which is still a served
/// response, not a hang-up).
fn any_localize() -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode_localize_request(&mut out, &[0, 1, 2]);
    out
}

fn info_request() -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode_info_request(&mut out);
    out
}

/// Hostile-input group: torn header, garbage opcode, absurd length
/// prefix, absurd count prefix, mid-frame disconnect — all against ONE
/// daemon — then a well-behaved connection that must still see
/// zero-alloc service.
fn hostile_inputs(outcomes: &mut Vec<ScenarioOutcome>) -> io::Result<()> {
    let daemon = Daemon::start(&ServeConfig::tiny())?;
    let addr = daemon.local_addr();

    // Torn header: two of four length bytes, then hang up.
    {
        let mut conn = connect(addr)?;
        conn.write_all(&[7, 0])?;
        drop(conn);
        outcomes.push(ScenarioOutcome {
            name: "torn_header",
            detail: "daemon survived a header cut off mid-write".into(),
        });
    }

    // Garbage opcode: a well-framed request the decoder must refuse,
    // answered on a connection that stays open.
    {
        let mut conn = connect(addr)?;
        let status = round_trip(&mut conn, &[1, 0, 0, 0, 0x2A])?
            .ok_or_else(|| fail("garbage_opcode", "daemon hung up instead of answering"))?;
        if status != Status::BadOpcode as u8 {
            return Err(fail(
                "garbage_opcode",
                format!("status {status}, want BadOpcode"),
            ));
        }
        // The connection must survive a refused frame.
        match round_trip(&mut conn, &info_request())? {
            Some(0) => {}
            other => {
                return Err(fail(
                    "garbage_opcode",
                    format!("follow-up info got {other:?}"),
                ))
            }
        }
        outcomes.push(ScenarioOutcome {
            name: "garbage_opcode",
            detail: "refused with BadOpcode; connection kept serving".into(),
        });
    }

    // Absurd length prefix: u32::MAX. The daemon must answer Oversize
    // and drop the connection without ever allocating the claimed 4 GiB.
    {
        let mut conn = connect(addr)?;
        let status = round_trip(&mut conn, &u32::MAX.to_le_bytes())?
            .ok_or_else(|| fail("absurd_length", "no Oversize answer before hang-up"))?;
        if status != Status::Oversize as u8 {
            return Err(fail(
                "absurd_length",
                format!("status {status}, want Oversize"),
            ));
        }
        expect_silent_close("absurd_length", &mut conn)?;
        outcomes.push(ScenarioOutcome {
            name: "absurd_length",
            detail: "u32::MAX length prefix answered Oversize, connection dropped".into(),
        });
    }

    // Absurd count prefix: a 9-byte localize frame claiming u32::MAX
    // ids. The codec must refuse before reserving anything.
    {
        let mut conn = connect(addr)?;
        let mut frame = vec![5, 0, 0, 0, wire::Opcode::Localize as u8];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let status = round_trip(&mut conn, &frame)?
            .ok_or_else(|| fail("absurd_count", "daemon hung up instead of answering"))?;
        if status != Status::BadFrame as u8 {
            return Err(fail(
                "absurd_count",
                format!("status {status}, want BadFrame"),
            ));
        }
        outcomes.push(ScenarioOutcome {
            name: "absurd_count",
            detail: "u32::MAX id-count refused with BadFrame before allocation".into(),
        });
    }

    // Mid-frame disconnect: promise 100 payload bytes, deliver 10, die.
    {
        let mut conn = connect(addr)?;
        conn.write_all(&100u32.to_le_bytes())?;
        conn.write_all(&[wire::Opcode::Localize as u8; 10])?;
        drop(conn);
        outcomes.push(ScenarioOutcome {
            name: "mid_frame_disconnect",
            detail: "daemon survived a payload abandoned mid-frame".into(),
        });
    }

    // After all that: a polite client must still get allocation-free
    // service (info for the roster, then localizes past the daemon's
    // per-connection warm-up).
    {
        let mut conn = connect(addr)?;
        let mut out = Vec::new();
        let mut frame = Vec::new();
        wire::encode_info_request(&mut out);
        conn.write_all(&out)?;
        wire::read_frame(&mut conn, &mut frame)?;
        let info = wire::decode_info_response(&frame)
            .map_err(|s| fail("clean_after_chaos", format!("info decode: {s:?}")))?;
        let ids: Vec<u64> = info.beacons.iter().take(4).map(|&(id, _)| id).collect();
        wire::encode_localize_request(&mut out, &ids);
        for _ in 0..150 {
            match round_trip(&mut conn, &out)? {
                Some(0) => {}
                other => return Err(fail("clean_after_chaos", format!("localize got {other:?}"))),
            }
        }
    }

    let stats = daemon.shutdown();
    if stats.reply.panics != 0 {
        return Err(fail(
            "clean_after_chaos",
            format!(
                "hostile inputs must not panic the daemon ({} panics)",
                stats.reply.panics
            ),
        ));
    }
    // Exactly three frames were answered with an error status: the
    // garbage opcode, the u32::MAX length and the u32::MAX count. Each
    // is one refused frame and one error-class request.
    let errors = stats.reply.count(OpClass::Error);
    if stats.refused != 3 || errors != 3 {
        return Err(fail(
            "clean_after_chaos",
            format!(
                "want 3 refused frames and 3 error requests, got {} and {errors}",
                stats.refused
            ),
        ));
    }
    if stats.allocs_per_request() != 0.0 {
        return Err(fail(
            "clean_after_chaos",
            format!(
                "zero-alloc invariant broken under chaos: {} allocs/request",
                stats.allocs_per_request()
            ),
        ));
    }
    outcomes.push(ScenarioOutcome {
        name: "clean_after_chaos",
        detail: format!(
            "polite client still served; {} refused frames counted, allocs/request {}",
            stats.refused,
            stats.allocs_per_request()
        ),
    });
    Ok(())
}

/// Accept-gate flood: with `max_conns: 2`, the third concurrent
/// connection is answered one `Overloaded` frame and closed, while the
/// earlier ones keep serving.
fn accept_flood(outcomes: &mut Vec<ScenarioOutcome>) -> io::Result<()> {
    let cfg = ServeConfig {
        max_conns: 2,
        ..ServeConfig::tiny()
    };
    let daemon = Daemon::start(&cfg)?;
    let addr = daemon.local_addr();

    let mut first = connect(addr)?;
    match round_trip(&mut first, &info_request())? {
        Some(0) => {}
        other => {
            return Err(fail(
                "accept_flood",
                format!("first conn info got {other:?}"),
            ))
        }
    }
    // The accept thread counts the second connection live before it
    // accepts the third, so the gate sees both.
    let second = connect(addr)?;
    let mut third = connect(addr)?;
    let mut frame = Vec::new();
    match wire::read_frame(&mut third, &mut frame) {
        Ok(true) if frame.first() == Some(&(Status::Overloaded as u8)) => {}
        Ok(true) => {
            return Err(fail(
                "accept_flood",
                format!("third conn got frame {frame:?}"),
            ))
        }
        Ok(false) => return Err(fail("accept_flood", "third conn closed without a frame")),
        Err(e) => return Err(fail("accept_flood", format!("third conn read: {e}"))),
    }
    expect_silent_close("accept_flood", &mut third)?;
    // The shed must not have cost the admitted connections anything.
    match round_trip(&mut first, &info_request())? {
        Some(0) => {}
        other => {
            return Err(fail(
                "accept_flood",
                format!("post-shed info got {other:?}"),
            ))
        }
    }
    drop(second);
    drop(first);

    let stats = daemon.shutdown().reply;
    if stats.shed == 0 {
        return Err(fail("accept_flood", "gate shed nothing"));
    }
    if stats.connections_total != 2 {
        return Err(fail(
            "accept_flood",
            format!(
                "want exactly 2 accepted connections, got {}",
                stats.connections_total
            ),
        ));
    }
    outcomes.push(ScenarioOutcome {
        name: "accept_flood",
        detail: format!(
            "3rd concurrent connection shed with Overloaded ({} shed, 2 accepted)",
            stats.shed
        ),
    });
    Ok(())
}

/// Idle keep-alive peers: eight connections each send one Info and then
/// sit idle, holding their connections open, while a ninth client sends
/// 200 Localize requests under a deadline. Every one is answered Ok,
/// the client-observed p99 stays under the deadline, no request is
/// answered `DeadlineExceeded`, and the active connection allocates
/// nothing past its warm-up.
fn idle_keepalive(outcomes: &mut Vec<ScenarioOutcome>) -> io::Result<()> {
    const IDLE: usize = 8;
    const REQUESTS: usize = 200;
    let deadline = Duration::from_millis(250);
    let cfg = ServeConfig {
        deadline: Some(deadline),
        ..ServeConfig::tiny()
    };
    let daemon = Daemon::start(&cfg)?;
    let addr = daemon.local_addr();

    let mut idle = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let mut conn = connect(addr)?;
        match round_trip(&mut conn, &info_request())? {
            Some(0) => idle.push(conn),
            other => {
                return Err(fail(
                    "idle_keepalive",
                    format!("idle peer {i} info got {other:?}"),
                ))
            }
        }
    }

    let mut active = connect(addr)?;
    let localize = any_localize();
    let mut latencies = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let started = Instant::now();
        match round_trip(&mut active, &localize)? {
            Some(0) => latencies.push(started.elapsed()),
            other => {
                return Err(fail(
                    "idle_keepalive",
                    format!("localize beside {IDLE} idle peers got {other:?}"),
                ))
            }
        }
    }
    latencies.sort_unstable();
    let p99 = latencies[REQUESTS * 99 / 100 - 1];
    drop(active);
    drop(idle);

    let stats = daemon.shutdown();
    if p99 >= deadline {
        return Err(fail(
            "idle_keepalive",
            format!("client-observed p99 {p99:?} is not under the {deadline:?} deadline"),
        ));
    }
    if stats.reply.deadline_exceeded != 0 {
        return Err(fail(
            "idle_keepalive",
            format!(
                "{} requests answered DeadlineExceeded",
                stats.reply.deadline_exceeded
            ),
        ));
    }
    if stats.measured_requests == 0 || stats.allocs_per_request() != 0.0 {
        return Err(fail(
            "idle_keepalive",
            format!(
                "want 0 allocs/request over measured requests, got {} over {}",
                stats.allocs_per_request(),
                stats.measured_requests
            ),
        ));
    }
    outcomes.push(ScenarioOutcome {
        name: "idle_keepalive",
        detail: format!(
            "{REQUESTS} localizes beside {IDLE} idle keep-alive peers all Ok, \
             p99 {:.1} us under the {deadline:?} deadline, allocs/request 0",
            p99.as_secs_f64() * 1e6
        ),
    });
    Ok(())
}

/// Slowloris: a client that delivers one frame byte and stalls is
/// quarantined — closed without a response — once the frame window
/// lapses.
fn slowloris(outcomes: &mut Vec<ScenarioOutcome>) -> io::Result<()> {
    let cfg = ServeConfig {
        frame_window: Duration::from_millis(150),
        ..ServeConfig::tiny()
    };
    let daemon = Daemon::start(&cfg)?;
    let mut conn = connect(daemon.local_addr())?;
    conn.write_all(&[9])?;
    expect_silent_close("slowloris", &mut conn)?;
    let stats = daemon.shutdown().reply;
    if stats.quarantines != 1 {
        return Err(fail(
            "slowloris",
            format!("want 1 quarantine, got {}", stats.quarantines),
        ));
    }
    outcomes.push(ScenarioOutcome {
        name: "slowloris",
        detail: "dribbling connection quarantined after the frame window".into(),
    });
    Ok(())
}

/// Panic isolation: a Place request carrying the armed seed panics
/// inside the handler. The connection dies; the daemon and every other
/// client live.
fn handler_panic(outcomes: &mut Vec<ScenarioOutcome>) -> io::Result<()> {
    let cfg = ServeConfig {
        panic_seed: Some(CHAOS_PANIC_SEED),
        ..ServeConfig::tiny()
    };
    let daemon = Daemon::start(&cfg)?;
    let addr = daemon.local_addr();

    let mut poisoned = connect(addr)?;
    let mut place = Vec::new();
    wire::encode_place_request(&mut place, PlaceAlgo::Max, CHAOS_PANIC_SEED, false);
    match round_trip(&mut poisoned, &place)? {
        None => {}
        Some(s) => {
            return Err(fail(
                "handler_panic",
                format!("poisoned request answered {s}"),
            ))
        }
    }
    // The daemon must still be there for the next client.
    let mut fresh = connect(addr)?;
    match round_trip(&mut fresh, &info_request())? {
        Some(0) => {}
        other => {
            return Err(fail(
                "handler_panic",
                format!("post-panic info got {other:?}"),
            ))
        }
    }
    drop(fresh);

    let stats = daemon.shutdown();
    if stats.reply.panics != 1 {
        return Err(fail(
            "handler_panic",
            format!("want 1 contained panic, got {}", stats.reply.panics),
        ));
    }
    outcomes.push(ScenarioOutcome {
        name: "handler_panic",
        detail: "injected handler panic killed only its connection (1 contained)".into(),
    });
    Ok(())
}

/// Deadlines: with a 1 ns budget every handler overruns, so every
/// request is answered `DeadlineExceeded` — and the connection keeps
/// going, because a slow answer is not a protocol violation.
fn deadline_expiry(outcomes: &mut Vec<ScenarioOutcome>) -> io::Result<()> {
    let cfg = ServeConfig {
        deadline: Some(Duration::from_nanos(1)),
        ..ServeConfig::tiny()
    };
    let daemon = Daemon::start(&cfg)?;
    let mut conn = connect(daemon.local_addr())?;
    for _ in 0..3 {
        match round_trip(&mut conn, &any_localize())? {
            Some(s) if s == Status::DeadlineExceeded as u8 => {}
            other => return Err(fail("deadline_expiry", format!("got {other:?}"))),
        }
    }
    drop(conn);
    let stats = daemon.shutdown().reply;
    if stats.deadline_exceeded < 3 {
        return Err(fail(
            "deadline_expiry",
            format!(
                "want >= 3 deadline answers counted, got {}",
                stats.deadline_exceeded
            ),
        ));
    }
    outcomes.push(ScenarioOutcome {
        name: "deadline_expiry",
        detail: format!(
            "over-budget handlers answered DeadlineExceeded ({} counted), connection survived",
            stats.deadline_exceeded
        ),
    });
    Ok(())
}

/// Warm restart: daemon A persists its world, applies one placement
/// (epoch 1), and dies; daemon B boots from the state file and must
/// publish the *bit-identical* world — equal snapshot fingerprints —
/// at the same epoch.
fn warm_restart(outcomes: &mut Vec<ScenarioOutcome>) -> io::Result<()> {
    let state_path =
        std::env::temp_dir().join(format!("abp-chaos-state-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&state_path);
    let cfg = ServeConfig {
        state_path: Some(state_path.clone()),
        ..ServeConfig::tiny()
    };

    let daemon = Daemon::start(&cfg)?;
    let mut conn = connect(daemon.local_addr())?;
    let mut place = Vec::new();
    wire::encode_place_request(&mut place, PlaceAlgo::Max, 3, true);
    match round_trip(&mut conn, &place)? {
        Some(0) => {}
        other => return Err(fail("warm_restart", format!("place+apply got {other:?}"))),
    }
    // Wait for the rebuilder to publish (and persist) epoch 1.
    let mut published = false;
    for _ in 0..200 {
        if daemon.snapshot().epoch() >= 1 {
            published = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    if !published {
        let _ = std::fs::remove_file(&state_path);
        return Err(fail("warm_restart", "rebuilder never published epoch 1"));
    }
    drop(conn);
    let first_world = daemon.snapshot();
    let stats = daemon.shutdown().reply;
    if stats.state_saves == 0 {
        let _ = std::fs::remove_file(&state_path);
        return Err(fail("warm_restart", "no state save recorded"));
    }

    let revived = Daemon::start(&cfg)?;
    let loaded = matches!(revived.state_open(), StateOpen::Loaded { .. });
    let second_world = revived.snapshot();
    let fingerprints_match = second_world.fingerprint() == first_world.fingerprint();
    let epochs_match = second_world.epoch() == first_world.epoch();
    let stats2 = revived.shutdown().reply;
    let _ = std::fs::remove_file(&state_path);

    if !loaded {
        return Err(fail(
            "warm_restart",
            "second boot did not load the state file",
        ));
    }
    if !epochs_match {
        return Err(fail(
            "warm_restart",
            format!(
                "epoch {} after restart, want {}",
                second_world.epoch(),
                first_world.epoch()
            ),
        ));
    }
    if !fingerprints_match {
        return Err(fail(
            "warm_restart",
            "restored world fingerprint differs — restart is not bit-identical",
        ));
    }
    if stats2.state_loads != 1 {
        return Err(fail(
            "warm_restart",
            format!("want 1 state load, got {}", stats2.state_loads),
        ));
    }
    outcomes.push(ScenarioOutcome {
        name: "warm_restart",
        detail: format!(
            "rebooted daemon republished the identical world at epoch {} (fingerprint {:#018x})",
            second_world.epoch(),
            second_world.fingerprint()
        ),
    });
    Ok(())
}

/// Runs the whole battery in a fixed order. Every scenario starts its
/// own daemon on an ephemeral port, so failures are isolated and the
/// battery can run in parallel with anything.
///
/// # Errors
///
/// The first scenario whose expectation fails aborts the battery with
/// an error naming it; socket errors propagate likewise.
pub fn run_chaos() -> io::Result<ChaosReport> {
    let mut outcomes = Vec::new();
    hostile_inputs(&mut outcomes)?;
    accept_flood(&mut outcomes)?;
    idle_keepalive(&mut outcomes)?;
    slowloris(&mut outcomes)?;
    handler_panic(&mut outcomes)?;
    deadline_expiry(&mut outcomes)?;
    warm_restart(&mut outcomes)?;
    Ok(ChaosReport { outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_passes_end_to_end() {
        let report = run_chaos().expect("chaos battery");
        let names: Vec<&str> = report.outcomes.iter().map(|o| o.name).collect();
        assert_eq!(
            names,
            [
                "torn_header",
                "garbage_opcode",
                "absurd_length",
                "absurd_count",
                "mid_frame_disconnect",
                "clean_after_chaos",
                "accept_flood",
                "idle_keepalive",
                "slowloris",
                "handler_panic",
                "deadline_expiry",
                "warm_restart",
            ]
        );
        for o in &report.outcomes {
            assert!(!o.detail.is_empty(), "{} carries a detail line", o.name);
        }
    }
}

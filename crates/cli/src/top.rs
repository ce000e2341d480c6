//! `abp top` — a live terminal dashboard over the daemon's Stats wire
//! opcode.
//!
//! Polls opcode 4 (stats) on one persistent connection at a fixed
//! interval and renders the *differences* between consecutive snapshots:
//! per-opcode request rates and interval latency quantiles (via
//! [`abp_trace::histogram_interval`]), live gauges (epoch, connections,
//! pending rebuilds), and the daemon's slow-request flight recorder.
//!
//! On a TTY the dashboard redraws in place (ANSI clear-home); when
//! stdout is a pipe it degrades to one summary line per poll, so
//! `abp top | tee` and CI logs stay readable.
//!
//! The dashboard outlives the daemon: when a poll's socket dies (the
//! daemon restarted, was SIGKILLed, or is not up yet), `top` retries
//! the connection with capped exponential backoff — 250 ms doubling to
//! a 4 s ceiling, the same discipline the sweep runner uses between
//! trial retries — and resets its rate baseline so the first interval
//! after a reconnect never shows garbage deltas. Only
//! [`RECONNECT_ATTEMPTS`] *consecutive* failures end the run.

use abp_serve::metrics::{OpClass, ALL_CLASSES};
use abp_serve::protocol::{self as wire, StatsReply};
use abp_trace::{histogram_interval, HistogramSnapshot};
use std::fmt::Write as _;
use std::io::{IsTerminal, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What to poll and for how long.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// The daemon's request port (`abp serve --port`).
    pub port: u16,
    /// Delay between polls.
    pub interval: Duration,
    /// Render this many updates then exit; `None` runs until
    /// SIGINT/SIGTERM.
    pub polls: Option<u64>,
}

/// First pause after a lost connection; doubles per consecutive
/// failure (matching the sweep runner's retry discipline).
const RECONNECT_BASE: Duration = Duration::from_millis(250);
/// Backoff ceiling between reconnect attempts.
const RECONNECT_CAP: Duration = Duration::from_secs(4);
/// Consecutive failed connection attempts before `top` gives the
/// daemon up for dead.
pub const RECONNECT_ATTEMPTS: u32 = 6;

/// The pause before reconnect attempt `attempt` (1-based):
/// 250 ms · 2^(attempt−1), capped at [`RECONNECT_CAP`].
fn backoff_before(attempt: u32) -> Duration {
    RECONNECT_BASE
        .saturating_mul(1u32 << (attempt - 1).min(8))
        .min(RECONNECT_CAP)
}

/// Connects with capped exponential backoff. `Ok(None)` means a
/// termination signal arrived mid-backoff; `Err` means the budget of
/// consecutive attempts ran out.
fn connect_with_backoff(addr: &str, until_signal: bool) -> Result<Option<TcpStream>, String> {
    let mut last_err = String::new();
    for attempt in 1..=RECONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(conn) => {
                let _ = conn.set_nodelay(true);
                return Ok(Some(conn));
            }
            Err(e) => last_err = e.to_string(),
        }
        if until_signal && abp_serve::signal::triggered() {
            return Ok(None);
        }
        if attempt < RECONNECT_ATTEMPTS {
            std::thread::sleep(backoff_before(attempt));
        }
    }
    Err(format!(
        "top: connect {addr}: {last_err} ({RECONNECT_ATTEMPTS} attempts)"
    ))
}

/// One stats poll on the live connection.
enum Poll {
    /// A decoded snapshot.
    Stats(Box<StatsReply>),
    /// The socket died (daemon restart or shutdown) — reconnect.
    Lost(String),
}

fn poll_once(conn: &mut TcpStream, out: &mut Vec<u8>, frame: &mut Vec<u8>) -> Result<Poll, String> {
    wire::encode_stats_request(out);
    if let Err(e) = conn.write_all(out) {
        return Ok(Poll::Lost(format!("send: {e}")));
    }
    match wire::read_frame(conn, frame) {
        Ok(true) => {}
        Ok(false) => return Ok(Poll::Lost("the daemon hung up".into())),
        Err(e) => return Ok(Poll::Lost(format!("read: {e}"))),
    }
    // A frame that arrives but does not decode is a protocol breach,
    // not a restart — that stays fatal.
    let stats = wire::decode_stats_response(frame)
        .map_err(|s| format!("top: bad stats response: {s:?}"))?;
    Ok(Poll::Stats(Box::new(stats)))
}

/// Runs the dashboard loop. Returns when the poll budget is exhausted,
/// a termination signal arrives, or the daemon stays unreachable
/// through a full backoff ladder.
pub fn run_top(cfg: &TopConfig) -> Result<(), String> {
    let addr = format!("127.0.0.1:{}", cfg.port);
    let tty = std::io::stdout().is_terminal();
    // Bounded runs (`--polls N`) exit on their own; only unbounded runs
    // trade the default Ctrl-C kill for an orderly loop exit. (The flag
    // is process-global and sticky, so bounded runs never consult it.)
    let until_signal = cfg.polls.is_none();
    if until_signal {
        abp_serve::signal::install();
    }

    let Some(mut conn) = connect_with_backoff(&addr, until_signal)? else {
        return Ok(());
    };
    let mut out = Vec::new();
    let mut frame = Vec::new();
    let mut prev: Option<(Instant, StatsReply)> = None;
    let mut rendered = 0u64;
    loop {
        let now = Instant::now();
        let stats = match poll_once(&mut conn, &mut out, &mut frame)? {
            Poll::Stats(stats) => *stats,
            Poll::Lost(reason) => {
                eprintln!("top: lost the daemon ({reason}); reconnecting");
                // The old baseline belongs to the dead process; deltas
                // across a restart would render as negative-rate noise.
                prev = None;
                match connect_with_backoff(&addr, until_signal)? {
                    Some(fresh) => conn = fresh,
                    None => return Ok(()),
                }
                continue;
            }
        };

        if let Some((t0, before)) = &prev {
            let elapsed = now.duration_since(*t0).as_secs_f64().max(1e-9);
            if tty {
                // Clear screen, cursor home, redraw.
                print!(
                    "\x1b[2J\x1b[H{}",
                    render_dashboard(&addr, before, &stats, elapsed)
                );
            } else {
                println!("{}", render_line(before, &stats, elapsed));
            }
            let _ = std::io::stdout().flush();
            rendered += 1;
            if cfg.polls.is_some_and(|n| rendered >= n) {
                return Ok(());
            }
        }
        prev = Some((now, stats));
        if until_signal && abp_serve::signal::triggered() {
            return Ok(());
        }
        std::thread::sleep(cfg.interval);
        if until_signal && abp_serve::signal::triggered() {
            return Ok(());
        }
    }
}

/// The count delta and interval histogram for class `i` between two
/// snapshots (class lists shorter than `i` count as empty).
fn class_interval(
    before: &StatsReply,
    after: &StatsReply,
    i: usize,
) -> (u64, Option<HistogramSnapshot>) {
    let name = ALL_CLASSES[i].metric_name();
    let (Some(b), Some(a)) = (before.classes.get(i), after.classes.get(i)) else {
        return (0, None);
    };
    let delta = a.count.saturating_sub(b.count);
    (
        delta,
        Some(histogram_interval(&b.histogram(name), &a.histogram(name))),
    )
}

/// Element-wise merge of interval histograms into one all-opcodes view.
fn merge_intervals(parts: &[HistogramSnapshot]) -> HistogramSnapshot {
    let mut total = HistogramSnapshot {
        name: "all",
        count: 0,
        sum_ns: 0,
        min_ns: u64::MAX,
        max_ns: 0,
        buckets: vec![0; abp_trace::HIST_BUCKETS],
    };
    for h in parts {
        if h.count == 0 {
            continue;
        }
        total.count += h.count;
        total.sum_ns += h.sum_ns;
        total.min_ns = total.min_ns.min(h.min_ns);
        total.max_ns = total.max_ns.max(h.max_ns);
        for (t, &b) in total.buckets.iter_mut().zip(h.buckets.iter()) {
            *t += b;
        }
    }
    if total.count == 0 {
        total.min_ns = 0;
    }
    total
}

/// Renders a nanosecond latency with a readable unit.
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

fn quantile_cell(hist: &Option<HistogramSnapshot>, q: f64) -> String {
    hist.as_ref()
        .and_then(|h| h.quantile_ns(q))
        .map_or_else(|| "-".into(), fmt_ns)
}

/// The full-screen dashboard body.
fn render_dashboard(addr: &str, before: &StatsReply, after: &StatsReply, elapsed: f64) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "abp top — {addr}    epoch {}    up {:.1}s    conns {} live / {} total",
        after.epoch,
        after.uptime_ns as f64 * 1e-9,
        after.connections_live,
        after.connections_total,
    );
    let _ = writeln!(
        s,
        "rebuilds {} done, {} pending, last {}    flight drops {}",
        after.rebuilds_total,
        after.rebuilds_pending,
        if after.last_rebuild_ns == 0 {
            "-".into()
        } else {
            fmt_ns(after.last_rebuild_ns)
        },
        after.flight_dropped,
    );
    s.push('\n');
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "opcode", "total", "qps", "p50", "p95", "p99"
    );
    let mut intervals = Vec::new();
    for (i, &class) in ALL_CLASSES.iter().enumerate() {
        let total = after.classes.get(i).map_or(0, |c| c.count);
        let (delta, hist) = class_interval(before, after, i);
        if let Some(h) = &hist {
            intervals.push(h.clone());
        }
        if total == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "{:<10} {:>10} {:>9.1} {:>9} {:>9} {:>9}",
            class.name(),
            total,
            delta as f64 / elapsed,
            quantile_cell(&hist, 0.50),
            quantile_cell(&hist, 0.95),
            quantile_cell(&hist, 0.99),
        );
    }
    let all = merge_intervals(&intervals);
    let all_hist = Some(all.clone());
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>9.1} {:>9} {:>9} {:>9}",
        "all",
        after.requests_total(),
        all.count as f64 / elapsed,
        quantile_cell(&all_hist, 0.50),
        quantile_cell(&all_hist, 0.95),
        quantile_cell(&all_hist, 0.99),
    );
    if !after.flight.is_empty() {
        s.push('\n');
        let _ = writeln!(s, "slowest requests (flight recorder):");
        for e in after.flight.iter().take(8) {
            let name = OpClass::from_index(e.class as usize).map_or("?", |c| c.name());
            let _ = writeln!(
                s,
                "  {:>9}  {:<10} heard={:<4} epoch={}",
                fmt_ns(e.latency_ns),
                name,
                e.heard,
                e.epoch,
            );
        }
    }
    s
}

/// The one-line-per-poll degradation for non-TTY stdout.
fn render_line(before: &StatsReply, after: &StatsReply, elapsed: f64) -> String {
    let intervals: Vec<HistogramSnapshot> = (0..ALL_CLASSES.len())
        .filter_map(|i| class_interval(before, after, i).1)
        .collect();
    let all = merge_intervals(&intervals);
    let hist = Some(all.clone());
    format!(
        "epoch {} conns {} qps {:.1} p50 {} p95 {} p99 {} pending {} drops {}",
        after.epoch,
        after.connections_live,
        all.count as f64 / elapsed,
        quantile_cell(&hist, 0.50),
        quantile_cell(&hist, 0.95),
        quantile_cell(&hist, 0.99),
        after.rebuilds_pending,
        after.flight_dropped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_serve::daemon::{Daemon, ServeConfig};

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(12_300), "12.3us");
        assert_eq!(fmt_ns(4_560_000), "4.56ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }

    #[test]
    fn merge_intervals_sums_counts_and_buckets() {
        let mk = |count: u64, bucket: usize| {
            let mut buckets = vec![0u64; abp_trace::HIST_BUCKETS];
            buckets[bucket] = count;
            HistogramSnapshot {
                name: "x",
                count,
                sum_ns: count * 100,
                min_ns: 50,
                max_ns: 200,
                buckets,
            }
        };
        let merged = merge_intervals(&[mk(3, 5), mk(2, 7)]);
        assert_eq!(merged.count, 5);
        assert_eq!(merged.sum_ns, 500);
        assert_eq!(merged.buckets[5], 3);
        assert_eq!(merged.buckets[7], 2);
        assert!(merged.quantile_ns(0.5).is_some());
        let empty = merge_intervals(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.min_ns, 0);
    }

    #[test]
    fn backoff_ladder_doubles_and_caps() {
        assert_eq!(backoff_before(1), Duration::from_millis(250));
        assert_eq!(backoff_before(2), Duration::from_millis(500));
        assert_eq!(backoff_before(3), Duration::from_millis(1000));
        assert_eq!(backoff_before(5), Duration::from_secs(4), "capped");
        assert_eq!(
            backoff_before(30),
            Duration::from_secs(4),
            "cap holds far out"
        );
    }

    /// `top` must survive both a daemon that is not up yet (initial
    /// backoff) and one that dies mid-poll (reconnect + baseline
    /// reset). A scripted stand-in daemon makes the restart
    /// deterministic: it binds late, answers the first connection one
    /// poll then drops it, and serves the second connection to EOF —
    /// all on one listening socket, so no port is ever rebound.
    #[test]
    fn top_reconnects_through_a_daemon_restart() {
        use std::net::TcpListener;

        // Discover a free port, then release it for the late binder.
        // (The discovery socket never accepts, so no TIME_WAIT lingers.)
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();

        let fake = std::thread::spawn(move || {
            let answer = |conn: &mut TcpStream, budget: Option<usize>| {
                let metrics = abp_serve::metrics::ServeMetrics::new();
                let mut frame = Vec::new();
                let mut reply = Vec::new();
                let mut answered = 0usize;
                while budget.is_none_or(|n| answered < n) {
                    match wire::read_frame(conn, &mut frame) {
                        Ok(true) => {}
                        _ => return answered,
                    }
                    wire::encode_stats_response(
                        &mut reply,
                        &wire::StatsView {
                            epoch: 1,
                            metrics: &metrics,
                            flight: &[],
                        },
                    );
                    if conn.write_all(&reply).is_err() {
                        return answered;
                    }
                    answered += 1;
                }
                answered
            };
            // Bind late: top's first connect attempts must ride the
            // backoff ladder to reach us.
            std::thread::sleep(Duration::from_millis(400));
            let listener = TcpListener::bind(("127.0.0.1", port)).unwrap();
            // First life: one poll, then die mid-session.
            let (mut conn, _) = listener.accept().unwrap();
            assert_eq!(answer(&mut conn, Some(1)), 1);
            drop(conn);
            // Second life: serve until top is done and hangs up.
            let (mut conn, _) = listener.accept().unwrap();
            assert!(
                answer(&mut conn, None) >= 2,
                "reconnected top must poll again"
            );
        });

        run_top(&TopConfig {
            port,
            interval: Duration::from_millis(20),
            polls: Some(2),
        })
        .unwrap();
        fake.join().unwrap();
    }

    /// End-to-end: a tiny daemon under a little traffic, two dashboard
    /// polls in line mode (tests run without a TTY), clean exit.
    #[test]
    fn top_polls_a_live_daemon_and_exits() {
        let daemon = Daemon::start(&ServeConfig::tiny()).unwrap();
        let port = daemon.local_addr().port();
        // Background traffic so the rates are non-trivial.
        let addr = daemon.local_addr();
        let driver = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            let mut out = Vec::new();
            let mut frame = Vec::new();
            for _ in 0..50 {
                wire::encode_info_request(&mut out);
                conn.write_all(&out).unwrap();
                wire::read_frame(&mut conn, &mut frame).unwrap();
            }
        });
        run_top(&TopConfig {
            port,
            interval: Duration::from_millis(20),
            polls: Some(2),
        })
        .unwrap();
        driver.join().unwrap();
        let stats = daemon.shutdown();
        assert!(
            stats.reply.count(OpClass::Stats) >= 3,
            "top polled at least thrice"
        );
    }
}

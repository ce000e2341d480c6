//! A bounded, never-blocking event sink with explicit drop accounting.
//!
//! Workers emit through [`emit`], which uses a bounded channel's
//! `try_send`: when the buffer is full the event is *dropped* and a
//! counter incremented, so instrumentation can never stall the Monte-Carlo
//! workers. [`drain`] collects everything buffered so far plus the drop
//! count, for the exporters in [`crate::export`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Mutex, OnceLock};

/// Default sink capacity: enough for every span of a full figure run at
/// tiny/default presets without shedding, small enough to bound memory.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// One telemetry event. Timestamps are nanoseconds since the trace epoch
/// (first instrumented event of the process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A completed wall-clock span.
    Span {
        /// Static span name, e.g. `"placement.grid"`.
        name: &'static str,
        /// Emitting thread's track id.
        tid: u32,
        /// Nesting depth at entry (0 = top level on that thread).
        depth: u16,
        /// Start, ns since the trace epoch.
        start_ns: u64,
        /// Duration in ns.
        dur_ns: u64,
        /// Allocator calls on this thread while the span was open.
        allocs: u64,
        /// Bytes requested by those calls.
        alloc_bytes: u64,
    },
    /// A zero-duration mark (probe lifecycle events: figure/sweep/trial).
    Instant {
        /// Event name, e.g. `"figure_start fig5"`.
        name: String,
        /// Coarse grouping, e.g. `"probe"`.
        category: &'static str,
        /// Emitting thread's track id.
        tid: u32,
        /// Timestamp, ns since the trace epoch.
        ts_ns: u64,
    },
}

struct Sink {
    tx: SyncSender<Event>,
    rx: Mutex<Receiver<Event>>,
    dropped: AtomicU64,
}

static SINK: OnceLock<Sink> = OnceLock::new();
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Is a sink installed? Checked (relaxed) on every span entry so that a
/// run with the gate on but no trace file (`abp --report`) pays no span
/// cost beyond the gate.
#[inline]
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Installs the global event sink with room for `capacity` buffered
/// events (clamped to at least 1). Idempotent: the first call wins and
/// later calls only re-arm the installed flag; the process keeps one sink
/// for its lifetime.
pub fn install(capacity: usize) {
    SINK.get_or_init(|| {
        let (tx, rx) = sync_channel(capacity.max(1));
        Sink {
            tx,
            rx: Mutex::new(rx),
            dropped: AtomicU64::new(0),
        }
    });
    INSTALLED.store(true, Ordering::Relaxed);
}

/// Stops span emission (counters are unaffected; they have their own gate).
/// Buffered events stay drainable.
pub fn uninstall() {
    INSTALLED.store(false, Ordering::Relaxed);
}

/// Offers an event to the sink. Never blocks: with the buffer full the
/// event is shed and counted in [`TraceReport::dropped`]. A no-op before
/// [`install`].
pub fn emit(event: Event) {
    let Some(sink) = SINK.get() else { return };
    match sink.tx.try_send(event) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
            sink.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Everything the sink captured: buffered events, how many were shed, and
/// the `(track id, thread name)` table for per-worker trace tracks.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Buffered events, in arrival order.
    pub events: Vec<Event>,
    /// Events shed because the buffer was full.
    pub dropped: u64,
    /// `(track id, thread name)` for every thread that emitted.
    pub threads: Vec<(u32, String)>,
}

/// Drains all currently-buffered events and the drop count. The sink
/// stays usable afterwards; the drop counter is reset by the drain.
pub fn drain() -> TraceReport {
    let mut report = TraceReport {
        threads: crate::span::track_names(),
        ..TraceReport::default()
    };
    let Some(sink) = SINK.get() else {
        return report;
    };
    if let Ok(rx) = sink.rx.lock() {
        while let Ok(ev) = rx.try_recv() {
            report.events.push(ev);
        }
    }
    report.dropped = sink.dropped.swap(0, Ordering::Relaxed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    #[test]
    fn emit_before_install_is_a_noop() {
        let _g = test_support::lock();
        // SINK may already be installed by another test binary order; this
        // only checks emit() does not panic either way.
        emit(Event::Instant {
            name: "pre".into(),
            category: "test",
            tid: 0,
            ts_ns: 0,
        });
    }

    #[test]
    fn full_sink_sheds_and_accounts_drops() {
        let _g = test_support::lock();
        install(DEFAULT_CAPACITY);
        drain(); // start from an empty buffer
        crate::set_enabled(true);
        {
            let _a = crate::span!("outer");
            let _b = crate::span!("inner");
        }
        crate::span::instant("mark", "test");
        crate::set_enabled(false);
        let report = drain();
        assert_eq!(report.dropped, 0);
        let names: Vec<&str> = report
            .events
            .iter()
            .map(|e| match e {
                Event::Span { name, .. } => *name,
                Event::Instant { name, .. } => name.as_str(),
            })
            .collect();
        // Spans close inner-first; the instant arrives last.
        assert_eq!(names, vec!["inner", "outer", "mark"]);
        match &report.events[0] {
            Event::Span { depth, .. } => assert_eq!(*depth, 1, "inner span is nested"),
            other => panic!("expected span, got {other:?}"),
        }
        assert!(
            !report.threads.is_empty(),
            "emitting thread must be in the track table"
        );
    }

    #[test]
    fn drop_counter_counts_shed_events() {
        let _g = test_support::lock();
        install(DEFAULT_CAPACITY);
        drain();
        let sink = SINK.get().expect("installed above");
        // Simulate shedding directly: the process-wide sink's capacity is
        // fixed at first install, so fill-to-capacity would be slow here.
        sink.dropped.fetch_add(3, Ordering::Relaxed);
        let report = drain();
        assert_eq!(report.dropped, 3);
        assert_eq!(drain().dropped, 0, "drain resets the drop counter");
    }
}

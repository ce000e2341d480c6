//! Structured telemetry for the `beaconplace` pipeline.
//!
//! The Monte-Carlo evaluation spends its time in inner loops the
//! figure/sweep/trial lifecycle events of `abp-sim`'s probe layer cannot
//! see: per-trial radio link decisions, localizer evaluations, and
//! placement candidate scans. This crate provides the phase-level timing
//! and counting needed to know *where* trial time goes, with a disabled
//! path cheap enough to stay in release builds:
//!
//! * [`span!`] — RAII wall-clock spans with per-thread tracks and nesting
//!   depth, emitted to the global event sink,
//! * [`Counter`] — sharded monotonic counters (e.g. `links_tested`)
//!   registered in a global registry and aggregated lock-free at drain
//!   time,
//! * [`RawHistogram`] — an ungated, embeddable log₂-bucketed duration
//!   histogram (per-opcode serve latency, per-figure trial time), with
//!   [`histogram_interval`] for the interval quantiles live dashboards
//!   show,
//! * [`expo`] — a Prometheus text-exposition renderer
//!   ([`render_prometheus`]),
//! * [`sink`] — a bounded, never-blocking event sink with explicit drop
//!   accounting,
//! * [`export`] — renders a completed run as JSONL or as Chrome Trace
//!   Event JSON loadable in `chrome://tracing` / [Perfetto], one track per
//!   worker thread, and holds the JSON string and number formatting
//!   ([`export::json_string`], [`export::json_f64`]) every hand-written
//!   JSON report shares,
//! * [`alloc`] — allocation accounting: the counting global allocator
//!   every binary linking this crate runs on, with per-thread
//!   snapshots; `abp bench` turns the deltas into allocs/trial, and
//!   live spans record their own alloc/bytes deltas.
//!
//! [Perfetto]: https://ui.perfetto.dev
//!
//! # The gate
//!
//! Everything hangs off one global flag ([`set_enabled`]). While the flag
//! is off, a [`span!`] or [`Counter::add`] costs a single relaxed atomic
//! load and a predictable branch — a few hundred picoseconds — so
//! instrumentation can ship in release binaries (a test asserts the
//! budget). Flip the flag on and counters start counting; install a sink
//! ([`sink::install`]) and spans start recording.
//!
//! # Example
//!
//! ```
//! use abp_trace::{Counter, RawHistogram};
//!
//! static CANDIDATES: Counter = Counter::new("candidates_scanned");
//! let scan_wall = RawHistogram::new();
//!
//! abp_trace::set_enabled(true);
//! {
//!     let _span = abp_trace::span!("placement.scan"); // no sink: metadata only
//!     CANDIDATES.add(400);
//!     scan_wall.record(std::time::Duration::from_micros(250));
//! }
//! assert!(CANDIDATES.total() >= 400);
//! assert_eq!(scan_wall.count(), 1);
//! abp_trace::set_enabled(false);
//! ```

// The counting global allocator (see [`alloc`]) is the one place this
// crate needs `unsafe`: a `GlobalAlloc` impl cannot be written without
// it. The crate denies unsafe code and the allocator module opts out.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc;
pub mod expo;
pub mod export;
pub mod metrics;
pub mod sink;
pub mod span;

pub use crate::alloc::{thread_snapshot, AllocSnapshot};
pub use expo::render_prometheus;
pub use metrics::{
    bucket_lower_ns, bucket_of, bucket_upper_ns, counters_snapshot, histogram_interval,
    reset_metrics, Counter, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, RawHistogram,
    HIST_BUCKETS,
};
pub use sink::{drain, Event, TraceReport};
pub use span::SpanGuard;

use std::sync::atomic::{AtomicBool, Ordering};

/// The global instrumentation gate.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is instrumentation currently enabled?
///
/// A single relaxed atomic load — this is the *entire* disabled-path cost
/// of every span and counter in the workspace.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns instrumentation on or off globally.
///
/// Off (the default): spans and counters are no-ops. On: counters
/// accumulate; spans additionally emit events when a sink is installed
/// ([`sink::install`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Opens a named wall-clock span that lasts until the returned guard is
/// dropped.
///
/// The name must be a `&'static str`. Bind the guard — `let _span =
/// span!("phase");` — because `let _ =` drops it immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Tests that flip the global gate or drain the sink serialize on
    /// this lock so they cannot observe each other's state.
    static GLOBAL: Mutex<()> = Mutex::new(());

    pub fn lock() -> MutexGuard<'static, ()> {
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn gate_defaults_off_and_toggles() {
        let _g = test_support::lock();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    /// The acceptance guard: the gated no-op span + counter path must stay
    /// under a fixed per-operation budget so instrumentation can remain in
    /// release builds (a disabled-tracing release run of the smallest
    /// figure preset stays within noise of baseline).
    #[test]
    fn disabled_path_stays_under_ns_budget() {
        let _g = test_support::lock();
        static C: Counter = Counter::new("budget_probe");
        set_enabled(false);
        let iters: u32 = 2_000_000;
        let start = Instant::now();
        for _ in 0..iters {
            let _span = span!("noop");
            C.add(1);
        }
        let per_op = start.elapsed().as_nanos() as f64 / f64::from(iters);
        // One span + one counter op per iteration. The budget is
        // deliberately generous (CI machines, debug builds); the
        // real-world release cost is ~1 ns for both.
        let budget = if cfg!(debug_assertions) {
            1500.0
        } else {
            100.0
        };
        assert!(
            per_op < budget,
            "disabled span+counter path costs {per_op:.1} ns/iter, budget {budget} ns"
        );
        assert_eq!(C.total(), 0, "disabled counter must not count");
    }
}

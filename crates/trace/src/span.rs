//! RAII wall-clock spans and per-thread track identity.

use crate::sink::{self, Event};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The trace epoch: all timestamps are nanoseconds since the first
/// instrumented event of the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);
static TRACK_NAMES: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());

thread_local! {
    static TRACK: Cell<u32> = const { Cell::new(u32::MAX) };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// The calling thread's stable track id (assigned on first use). Tracks
/// become per-thread rows in the Chrome trace export.
pub fn track_id() -> u32 {
    TRACK.with(|cell| {
        let mut t = cell.get();
        if t == u32::MAX {
            t = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            cell.set(t);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("worker-{t}"));
            if let Ok(mut names) = TRACK_NAMES.lock() {
                names.push((t, name));
            }
        }
        t
    })
}

/// Every `(track, thread name)` pair assigned so far.
pub(crate) fn track_names() -> Vec<(u32, String)> {
    TRACK_NAMES.lock().map(|v| v.clone()).unwrap_or_default()
}

/// An open span; created by [`span!`](crate::span!), closed (and emitted)
/// on drop.
///
/// While instrumentation is disabled, or while no sink is installed,
/// entering is a relaxed load plus a branch and dropping is a branch.
#[must_use = "a span measures until it is dropped; bind it with `let _span = ...`"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    tid: u32,
    depth: u16,
    active: bool,
    start_alloc: crate::AllocSnapshot,
}

impl SpanGuard {
    /// Opens a span named `name` on the calling thread's track.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() || !sink::installed() {
            return SpanGuard {
                name,
                start_ns: 0,
                tid: 0,
                depth: 0,
                active: false,
                start_alloc: crate::AllocSnapshot::default(),
            };
        }
        let tid = track_id();
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        SpanGuard {
            name,
            start_ns: now_ns(),
            tid,
            depth,
            active: true,
            // One TLS read per live span.
            start_alloc: crate::thread_snapshot(),
        }
    }

    /// Whether this guard is live (instrumentation was on at entry).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end = now_ns();
        let alloc = crate::thread_snapshot().delta_since(self.start_alloc);
        sink::emit(Event::Span {
            name: self.name,
            tid: self.tid,
            depth: self.depth,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            allocs: alloc.allocs,
            alloc_bytes: alloc.bytes,
        });
    }
}

/// Emits a zero-duration instant event (used by the probe bridge for
/// figure/sweep/trial lifecycle marks). A no-op while disabled or
/// sink-less.
pub fn instant(name: impl Into<String>, category: &'static str) {
    if !crate::enabled() || !sink::installed() {
        return;
    }
    sink::emit(Event::Instant {
        name: name.into(),
        category,
        tid: track_id(),
        ts_ns: now_ns(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    #[test]
    fn inactive_without_gate() {
        let _g = test_support::lock();
        crate::set_enabled(false);
        let s = SpanGuard::enter("closed");
        assert!(!s.is_active());
    }

    #[test]
    fn track_ids_are_stable_per_thread_and_distinct() {
        let a = track_id();
        assert_eq!(a, track_id(), "same thread, same track");
        let b = std::thread::spawn(track_id).join().unwrap();
        assert_ne!(a, b, "different threads get different tracks");
        let names = track_names();
        assert!(names.iter().any(|(t, _)| *t == a));
        assert!(names.iter().any(|(t, _)| *t == b));
    }
}

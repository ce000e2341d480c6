//! Allocation accounting: the counting global allocator every binary
//! that links this crate runs on, and the per-thread snapshot API.
//!
//! The crate installs a [`std::alloc::GlobalAlloc`] wrapper around the
//! system allocator that counts every allocation (and the bytes
//! requested) into the calling thread's totals. `abp bench` uses the
//! per-thread deltas to report allocs/trial and bytes/trial, the serve
//! daemon to report allocs/request, and the span layer attaches
//! per-span deltas to every emitted [`Event::Span`](crate::Event::Span).
//!
//! Deallocations are deliberately *not* subtracted: the counters measure
//! allocator traffic (how often the trial loop hits the allocator), not
//! live heap size, so a steady-state reading of zero means "the hot loop
//! never called `malloc`" — the property the zero-allocation gate
//! asserts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A point-in-time reading of allocation counters (monotonic totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Number of allocator calls (`alloc` + `alloc_zeroed` + `realloc`).
    pub allocs: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The counter movement since `earlier` (wrapping, so a snapshot
    /// pair taken in order is always correct).
    pub fn delta_since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's allocation totals since it started. Two
/// snapshots bracket a region: `after.delta_since(before)` is that
/// region's allocator traffic.
#[inline]
pub fn thread_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0),
        bytes: THREAD_BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

/// Counts one allocator call of `size` bytes. The counters go through
/// `try_with`: during thread teardown the TLS slots may already be
/// destroyed, and an allocation then must not panic.
#[inline]
fn count(size: usize) {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get().wrapping_add(size as u64)));
}

/// [`System`] plus per-thread counting. `dealloc` is pass-through: the
/// counters measure allocator traffic, not live bytes.
struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counting side effects touch only
// const-initialized TLS cells and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_reflect_the_build_mode() {
        let before = thread_snapshot();
        // A guaranteed allocation between the snapshots.
        let v: Vec<u64> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let delta = thread_snapshot().delta_since(before);
        assert!(delta.allocs >= 1, "the counting allocator must see the Vec");
        assert!(delta.bytes >= 4096 * 8);
    }

    #[test]
    fn delta_since_is_wrapping() {
        let a = AllocSnapshot {
            allocs: 1,
            bytes: 8,
        };
        let b = AllocSnapshot {
            allocs: 5,
            bytes: 64,
        };
        assert_eq!(
            b.delta_since(a),
            AllocSnapshot {
                allocs: 4,
                bytes: 56
            }
        );
        assert_eq!(
            a.delta_since(b),
            AllocSnapshot {
                allocs: u64::MAX - 3,
                bytes: u64::MAX - 55
            }
        );
    }
}

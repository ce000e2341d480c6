//! Gated counters with a global registry, and ungated duration
//! histograms.
//!
//! A [`Counter`] is designed to live in a `static` ([`Counter::new`] is
//! `const`). Updates are relaxed atomic adds on a shard picked by the
//! calling thread's track id, so simultaneous workers do not contend on
//! one cache line; reads ([`Counter::total`], [`counters_snapshot`]) sum
//! the shards lock-free. Counters register themselves in the global
//! registry on first use, so the drain side discovers every counter the
//! run actually touched.
//!
//! A [`RawHistogram`] lives inside whatever owns it (a serve ledger, a
//! batch run's recorder): it records whether or not the gate is on and
//! never touches the registry.

use crate::span::track_id;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of independent accumulation shards per instrument. Threads map
/// onto shards by track id, so up to this many workers update disjoint
/// cache lines.
const SHARDS: usize = 16;

/// Number of log₂ duration buckets: bucket `b` holds durations in
/// `[2^(b-1), 2^b)` nanoseconds, so 40 buckets span 1 ns to ~18 minutes.
/// Public because wire formats (the serve `Stats` opcode) and the
/// Prometheus exposition renderer need the bucket count and bounds.
pub const HIST_BUCKETS: usize = 40;

/// The bucket a duration of `ns` nanoseconds lands in: 0 and 1 ns land
/// in bucket 0, otherwise `floor(log2(ns)) + 1`, clamped to the last
/// bucket.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns <= 1 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// The upper bound (ns, inclusive under the quantile convention) of
/// bucket `b` — what quantile estimates report: `2^b`.
#[inline]
pub fn bucket_upper_ns(b: usize) -> u64 {
    1u64 << b.min(63)
}

/// The lower bound (ns) of bucket `b`: `2^(b-1)`, except bucket 0 which
/// starts at 0.
#[inline]
pub fn bucket_lower_ns(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        bucket_upper_ns(b - 1)
    }
}

/// One cache line per shard so concurrent workers do not false-share.
#[repr(align(64))]
struct Shard(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)] // used only as an array initializer
const ZERO_SHARD: Shard = Shard(AtomicU64::new(0));

/// A monotonic event counter, aggregated across threads at read time.
///
/// ```
/// static LINKS: abp_trace::Counter = abp_trace::Counter::new("links_tested");
/// abp_trace::set_enabled(true);
/// LINKS.add(128);
/// assert!(LINKS.total() >= 128);
/// abp_trace::set_enabled(false);
/// ```
pub struct Counter {
    name: &'static str,
    registered: AtomicBool,
    shards: [Shard; SHARDS],
}

impl Counter {
    /// Creates a counter. Intended for `static` items.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            registered: AtomicBool::new(false),
            shards: [ZERO_SHARD; SHARDS],
        }
    }

    /// The counter's registry name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter. A no-op (one relaxed load) while
    /// instrumentation is disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.register();
        let shard = track_id() as usize % SHARDS;
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all shards (lock-free).
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn register(&'static self) {
        if self.registered.load(Ordering::Relaxed) {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            REGISTRY.lock().expect("registry").push(self);
        }
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// The bare accumulation core of a duration histogram: log₂ buckets plus
/// exact count/sum/min/max, updated with relaxed atomics only.
///
/// Unlike [`Counter`] it is **ungated** (records regardless of the global
/// instrumentation flag), **unnamed**, and **unregistered** — it can
/// live inside any struct, not just a `static`. The serving daemon
/// embeds one per opcode class so live telemetry works without flipping
/// the process-wide trace gate and without touching the global
/// registry's mutex on the request path; a batch run's recorder keeps
/// one per figure for its trial-time quantiles.
///
/// Bucket `b` covers `[2^(b-1), 2^b)` nanoseconds; quantile estimates
/// report a bucket's upper bound, so they are accurate to a factor of
/// two.
pub struct RawHistogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    /// Exact smallest recorded duration (`u64::MAX` until first record).
    min_ns: AtomicU64,
    /// Exact largest recorded duration (0 until first record).
    max_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)] // used only as an array initializer
const ZERO_BUCKET: AtomicU64 = AtomicU64::new(0);

impl RawHistogram {
    /// Creates an empty histogram core (usable in `const` contexts).
    pub const fn new() -> Self {
        RawHistogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: [ZERO_BUCKET; HIST_BUCKETS],
        }
    }

    /// Records one duration: five relaxed atomic ops, no allocation, no
    /// gate, no lock.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one duration given directly in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Exact smallest recorded duration in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min_ns.load(Ordering::Relaxed)
        }
    }

    /// Exact largest recorded duration in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// The count in bucket `b` (0 for an out-of-range index). Lets wire
    /// encoders walk the buckets without the [`Self::snapshot`]
    /// allocation.
    pub fn bucket(&self, b: usize) -> u64 {
        self.buckets.get(b).map_or(0, |x| x.load(Ordering::Relaxed))
    }

    /// Takes a consistent-enough snapshot under `name` (relaxed reads;
    /// exact once writers have quiesced).
    pub fn snapshot(&self, name: &'static str) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            name,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for RawHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A counter's name and drained total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registry name (e.g. `links_tested`).
    pub name: &'static str,
    /// Total across all threads.
    pub total: u64,
}

/// A histogram's drained state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Instrument name (e.g. `serve_localize_ns`).
    pub name: &'static str,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of all recorded durations in nanoseconds.
    pub sum_ns: u64,
    /// Exact smallest recorded duration in nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Exact largest recorded duration in nanoseconds (0 when empty).
    pub max_ns: u64,
    /// Log₂ bucket counts; bucket `b` covers `[2^(b-1), 2^b)` ns.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Quantile estimate, `None` when empty.
    ///
    /// The rank rule, pinned down because the serve latency report is
    /// built on it:
    ///
    /// * `q <= 0` returns the **exact recorded minimum** ([`min_ns`](HistogramSnapshot::min_ns)),
    ///   and `q >= 1` the **exact recorded maximum** — not a bucket bound
    ///   (histograms track min/max alongside the buckets).
    /// * For `0 < q < 1` the rank is `ceil(q · count)` (1-based, so a
    ///   single-sample histogram answers that sample's bucket at every
    ///   `q`), and the estimate is the **upper bound** of the bucket
    ///   holding that rank — log₂ buckets make mid quantiles accurate to
    ///   a factor of two. The answer is clamped into `[min_ns, max_ns]`
    ///   so a bucket bound never exceeds an actually-recorded extreme.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min_ns);
        }
        if q >= 1.0 {
            return Some(self.max_ns);
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let upper = bucket_upper_ns(b);
                return Some(upper.clamp(self.min_ns, self.max_ns));
            }
        }
        Some(self.max_ns)
    }
}

/// A last-value reading for the exposition renderer: connection counts,
/// the current epoch, a rebuild duration in seconds. Callers build these
/// directly from their own state (the serving daemon reads its ledger);
/// the value is `f64` so non-integer readings render unscaled.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name (e.g. `serve_connections_live`).
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: f64,
}

/// The histogram of everything recorded *between* two snapshots of the
/// same instrument: per-bucket deltas, delta count and sum.
///
/// Exact extremes are not recoverable from cumulative state, so the
/// interval's `min_ns`/`max_ns` are the tightest bucket bounds that
/// cover the nonzero delta buckets ([`bucket_lower_ns`] of the first,
/// [`bucket_upper_ns`] of the last) — which keeps
/// [`HistogramSnapshot::quantile_ns`]'s clamp honest for interval
/// quantiles. Empty intervals report all-zero.
pub fn histogram_interval(
    before: &HistogramSnapshot,
    after: &HistogramSnapshot,
) -> HistogramSnapshot {
    let n = after.buckets.len().max(before.buckets.len());
    let mut buckets = Vec::with_capacity(n);
    for b in 0..n {
        let a = after.buckets.get(b).copied().unwrap_or(0);
        let p = before.buckets.get(b).copied().unwrap_or(0);
        buckets.push(a.saturating_sub(p));
    }
    let first = buckets.iter().position(|&c| c > 0);
    let last = buckets.iter().rposition(|&c| c > 0);
    HistogramSnapshot {
        name: after.name,
        count: after.count.saturating_sub(before.count),
        sum_ns: after.sum_ns.saturating_sub(before.sum_ns),
        min_ns: first.map_or(0, bucket_lower_ns),
        max_ns: last.map_or(0, bucket_upper_ns),
        buckets,
    }
}

/// Every counter touched so far. The lock guards only the *list*; the
/// totals are read lock-free from the shards.
static REGISTRY: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

/// Snapshots every registered counter, sorted by name.
pub fn counters_snapshot() -> Vec<CounterSnapshot> {
    let mut counters: Vec<CounterSnapshot> = REGISTRY
        .lock()
        .expect("registry")
        .iter()
        .map(|c| CounterSnapshot {
            name: c.name,
            total: c.total(),
        })
        .collect();
    counters.sort_by_key(|c| c.name);
    counters
}

/// Zeroes every registered counter (the counters stay registered).
/// Intended for tests and repeated in-process runs.
pub fn reset_metrics() {
    for c in REGISTRY.lock().expect("registry").iter() {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    #[test]
    fn counter_counts_only_when_enabled() {
        let _g = test_support::lock();
        static C: Counter = Counter::new("test_counter_gate");
        crate::set_enabled(false);
        C.add(5);
        assert_eq!(C.total(), 0);
        crate::set_enabled(true);
        C.add(5);
        C.add(2);
        assert_eq!(C.total(), 7);
        crate::set_enabled(false);
        C.reset();
    }

    #[test]
    fn counter_aggregates_across_threads() {
        let _g = test_support::lock();
        static C: Counter = Counter::new("test_counter_threads");
        crate::set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        C.add(1);
                    }
                });
            }
        });
        assert_eq!(C.total(), 8000);
        crate::set_enabled(false);
        C.reset();
    }

    #[test]
    fn registered_counters_appear_in_snapshot() {
        let _g = test_support::lock();
        static C: Counter = Counter::new("test_snapshot_counter");
        crate::set_enabled(true);
        C.add(3);
        let c = counters_snapshot()
            .into_iter()
            .find(|c| c.name == "test_snapshot_counter")
            .expect("counter registered");
        assert!(c.total >= 3);
        crate::set_enabled(false);
        C.reset();
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = RawHistogram::new();
        // 90 fast ops (~1 us) and 10 slow ones (~1 ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(1));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1));
        }
        let s = h.snapshot("test_hist_buckets");
        assert_eq!(s.count, 100);
        let p50 = s.quantile_ns(0.5).unwrap();
        let p99 = s.quantile_ns(0.99).unwrap();
        // p50 sits in the microsecond bucket, p99 in the millisecond one;
        // log2 buckets are accurate to a factor of two.
        assert!((1_000..4_000).contains(&p50), "p50 = {p50}");
        assert!((1_000_000..4_000_000).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn quantile_extremes_and_edge_counts() {
        let h = RawHistogram::new();

        // Empty histogram: every quantile is None.
        let empty = h.snapshot("test_hist_extremes");
        assert_eq!(empty.count, 0);
        assert_eq!(empty.quantile_ns(0.0), None);
        assert_eq!(empty.quantile_ns(0.5), None);
        assert_eq!(empty.quantile_ns(1.0), None);

        // Single sample: every quantile answers that sample (q = 0 and
        // q = 1 exactly; mid quantiles its bucket, clamped to it).
        h.record(Duration::from_nanos(777));
        let one = h.snapshot("test_hist_extremes");
        assert_eq!(one.count, 1);
        assert_eq!(one.quantile_ns(0.0), Some(777));
        assert_eq!(one.quantile_ns(0.5), Some(777));
        assert_eq!(one.quantile_ns(1.0), Some(777));

        // Two distinct samples: q = 0 is the exact recorded minimum, not
        // the minimum's bucket upper bound (regression: the old rank rule
        // mapped q = 0 to rank 1's bucket).
        h.record(Duration::from_micros(500));
        let two = h.snapshot("test_hist_extremes");
        assert_eq!(two.quantile_ns(0.0), Some(777), "p0 must be the min");
        assert_eq!(two.quantile_ns(1.0), Some(500_000), "p100 must be the max");
        assert_eq!(two.min_ns, 777);
        assert_eq!(two.max_ns, 500_000);
        // Out-of-range q clamps to the extremes.
        assert_eq!(two.quantile_ns(-3.0), Some(777));
        assert_eq!(two.quantile_ns(7.0), Some(500_000));
        // Mid quantiles stay within the recorded range.
        let p50 = two.quantile_ns(0.5).unwrap();
        assert!((777..=500_000).contains(&p50), "p50 = {p50}");

        h.reset();
        // Reset restores the empty-histogram extremes.
        let after = h.snapshot("test_hist_extremes");
        assert_eq!(after.min_ns, 0);
        assert_eq!(after.max_ns, 0);
    }

    #[test]
    fn bucket_of_is_monotonic_and_bounded() {
        let mut last = 0;
        for exp in 0..64u32 {
            let b = bucket_of(1u64 << exp);
            assert!(b >= last);
            assert!(b < HIST_BUCKETS);
            last = b;
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
    }

    #[test]
    fn bucket_bounds_tile_the_axis() {
        assert_eq!(bucket_lower_ns(0), 0);
        for b in 1..HIST_BUCKETS {
            assert_eq!(bucket_lower_ns(b), bucket_upper_ns(b - 1));
            assert!(bucket_lower_ns(b) < bucket_upper_ns(b));
            // Every duration inside the bounds maps back to bucket b.
            assert_eq!(bucket_of(bucket_lower_ns(b).max(2)), b.max(2));
        }
    }

    #[test]
    fn raw_histogram_records_without_the_gate() {
        let _g = test_support::lock();
        crate::set_enabled(false);
        let raw = RawHistogram::new();
        raw.record(Duration::from_micros(3));
        raw.record_ns(700);
        let s = raw.snapshot("raw_probe");
        assert_eq!(s.name, "raw_probe");
        assert_eq!(s.count, 2, "RawHistogram must ignore the global gate");
        assert_eq!(s.min_ns, 700);
        assert_eq!(s.max_ns, 3_000);
        assert_eq!(s.sum_ns, 3_700);
        raw.reset();
        assert_eq!(raw.snapshot("raw_probe").count, 0);
    }

    #[test]
    fn histogram_interval_diffs_buckets_and_bounds_extremes() {
        let raw = RawHistogram::new();
        raw.record_ns(1_000);
        let before = raw.snapshot("h");
        raw.record_ns(1_000);
        raw.record_ns(1_000_000);
        let after = raw.snapshot("h");
        let delta = histogram_interval(&before, &after);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum_ns, 1_001_000);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 2);
        // Interval extremes are the covering bucket bounds.
        assert_eq!(delta.min_ns, bucket_lower_ns(bucket_of(1_000)));
        assert_eq!(delta.max_ns, bucket_upper_ns(bucket_of(1_000_000)));
        // Interval quantiles answer from the delta distribution: both
        // recorded samples fall inside [min, max].
        let p50 = delta.quantile_ns(0.5).unwrap();
        assert!((delta.min_ns..=delta.max_ns).contains(&p50));
        // Identical snapshots produce an all-zero interval.
        let none = histogram_interval(&after, &after);
        assert_eq!(none.count, 0);
        assert_eq!(none.min_ns, 0);
        assert_eq!(none.max_ns, 0);
        assert!(none.quantile_ns(0.5).is_none());
    }
}

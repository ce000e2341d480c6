//! Integration tests for the Prometheus text-exposition renderer and
//! the registry snapshot contracts it builds on.

use abp_trace::{
    counters_snapshot, render_prometheus, Counter, CounterSnapshot, GaugeSnapshot,
    HistogramSnapshot, HIST_BUCKETS,
};
use proptest::prelude::*;

/// A fixed, fully-specified snapshot set covering every family kind the
/// renderer handles: counters, integer and fractional gauges, and a
/// histogram with empty, single, and multi-count buckets.
fn golden_fixture() -> (
    Vec<CounterSnapshot>,
    Vec<GaugeSnapshot>,
    Vec<HistogramSnapshot>,
) {
    let counters = vec![
        CounterSnapshot {
            name: "links_tested",
            total: 123_456,
        },
        CounterSnapshot {
            name: "serve_requests",
            total: 789,
        },
    ];
    let gauges = vec![
        GaugeSnapshot {
            name: "serve_connections_live",
            value: 3.0,
        },
        GaugeSnapshot {
            name: "serve_epoch",
            value: 7.0,
        },
        GaugeSnapshot {
            name: "serve_last_rebuild_seconds",
            value: 0.0125,
        },
    ];
    // 12 buckets keep the golden file readable; the renderer iterates
    // whatever bucket count the snapshot carries (live instruments carry
    // HIST_BUCKETS).
    let mut buckets = vec![0u64; 12];
    buckets[5] = 1;
    buckets[6] = 2;
    buckets[8] = 4;
    buckets[11] = 1;
    let hists = vec![HistogramSnapshot {
        name: "serve_request_ns",
        count: 8,
        sum_ns: 23_456,
        min_ns: 40,
        max_ns: 3_000,
        buckets,
    }];
    (counters, gauges, hists)
}

/// Golden-file test: the exposition format is a wire contract (CI's
/// metrics-smoke job and any real Prometheus scraper parse it), so its
/// exact shape is pinned byte-for-byte. Regenerate deliberately with
/// `BLESS=1 cargo test -p abp-trace --test exposition` after a reviewed
/// format change.
#[test]
fn golden_file_pins_the_exposition_format() {
    let (counters, gauges, hists) = golden_fixture();
    let rendered = render_prometheus(&counters, &gauges, &hists);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_exposition.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &rendered).expect("bless golden file");
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "exposition format drifted from the golden file; if intended, \
         regenerate with BLESS=1"
    );
}

/// Pulls `(le, cumulative_count)` pairs out of a rendered document, in
/// document order, with `+Inf` mapped to `f64::INFINITY`.
fn bucket_series(text: &str, family: &str) -> Vec<(f64, u64)> {
    let prefix = format!("{family}_bucket{{le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le_str, tail) = rest.split_once("\"}")?;
            let le = if le_str == "+Inf" {
                f64::INFINITY
            } else {
                le_str.parse().ok()?
            };
            Some((le, tail.trim().parse().ok()?))
        })
        .collect()
}

proptest! {
    /// Property: for any bucket contents, the rendered histogram series
    /// is cumulative — counts never decrease as `le` increases, the
    /// bounds strictly increase, the `+Inf` bucket comes last and equals
    /// the rendered `_count`.
    #[test]
    fn histogram_buckets_are_cumulative_and_monotone_in_le(
        counts in prop::collection::vec(0u64..1_000, 1..HIST_BUCKETS),
        extra in 0u64..5,
    ) {
        let total: u64 = counts.iter().sum();
        let hist = HistogramSnapshot {
            name: "prop_hist_ns",
            // A relaxed snapshot can see `count` ahead of the buckets;
            // the renderer must keep the series monotone regardless.
            count: total + extra,
            sum_ns: total.saturating_mul(100),
            min_ns: 1,
            max_ns: 1 << counts.len(),
            buckets: counts.clone(),
        };
        let text = render_prometheus(&[], &[], std::slice::from_ref(&hist));
        let series = bucket_series(&text, "prop_hist_seconds");
        prop_assert_eq!(series.len(), counts.len() + 1, "every bucket plus +Inf");
        let mut last_le = f64::NEG_INFINITY;
        let mut last_count = 0u64;
        for &(le, cum) in &series {
            prop_assert!(le > last_le, "le bounds must strictly increase");
            prop_assert!(cum >= last_count, "cumulative counts must not decrease");
            last_le = le;
            last_count = cum;
        }
        let (inf_le, inf_count) = *series.last().unwrap();
        prop_assert!(inf_le.is_infinite());
        let count_line = format!("prop_hist_seconds_count {}", inf_count);
        prop_assert!(text.contains(&count_line), "+Inf must equal _count");
        prop_assert_eq!(inf_count, total.max(total + extra));
    }
}

/// Determinism: `counters_snapshot()` orders instruments by name, not by
/// registration or touch order, so two back-to-back snapshots (and any
/// exposition rendered from them) list identical series in identical
/// order.
#[test]
fn counters_snapshot_ordering_is_stable_across_calls() {
    static ZETA: Counter = Counter::new("expo_test_zeta");
    static ALPHA: Counter = Counter::new("expo_test_alpha");
    abp_trace::set_enabled(true);
    // Touch in anti-alphabetical order: registration order must not leak.
    ZETA.add(1);
    ALPHA.add(2);
    let c1 = counters_snapshot();
    ZETA.add(1); // movement between snapshots must not reorder
    let c2 = counters_snapshot();
    abp_trace::set_enabled(false);

    let names1: Vec<&str> = c1.iter().map(|c| c.name).collect();
    let names2: Vec<&str> = c2.iter().map(|c| c.name).collect();
    assert_eq!(names1, names2, "ordering must be stable across calls");
    let mut sorted = names1.clone();
    sorted.sort_unstable();
    assert_eq!(names1, sorted, "ordering must be name-sorted");
    assert!(names1.contains(&"expo_test_alpha") && names1.contains(&"expo_test_zeta"));
}

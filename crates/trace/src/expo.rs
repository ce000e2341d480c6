//! Prometheus text-exposition rendering for the metrics registry.
//!
//! [`render_prometheus`] turns counter/gauge/histogram snapshots into
//! the Prometheus text exposition format (version 0.0.4): `# HELP` and
//! `# TYPE` comments followed by sample lines, one metric family per
//! instrument. It is data-driven — any snapshots work, whether they came
//! from the global registry ([`crate::counters_snapshot`]) or were built
//! directly, as the serving daemon does from its per-daemon ledger.
//!
//! # Unit and naming conventions
//!
//! * Counters render as `<name>_total` with their raw totals.
//! * Gauges render under their snapshot name, unscaled — a caller
//!   exporting a duration gauge should pre-convert to seconds and name
//!   it `*_seconds`.
//! * Duration histograms record nanoseconds internally (the
//!   [`crate::RawHistogram`] contract), but Prometheus convention
//!   is base-unit seconds: a histogram named `*_ns` renders as
//!   `*_seconds`, with every `le` bound and the `_sum` scaled by 1e-9.
//!   The log₂ bucket layout maps directly: bucket `b`'s upper bound
//!   `2^b` ns becomes `le="2^b × 1e-9"`, counts accumulate cumulatively
//!   in `le` order, and the terminal `le="+Inf"` bucket equals `_count`.

use crate::metrics::{bucket_upper_ns, CounterSnapshot, GaugeSnapshot, HistogramSnapshot};
use std::fmt::Write as _;

/// Maps an instrument name onto the Prometheus metric-name alphabet
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, and a
/// leading digit gets a `_` prefix.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.push('_');
    }
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// The exposition base name of a duration histogram: `_ns` is replaced
/// by `_seconds` (appended when the name carries no unit suffix).
fn seconds_name(name: &str) -> String {
    let base = name.strip_suffix("_ns").unwrap_or(name);
    format!("{}_seconds", sanitize(base))
}

/// Renders counter, gauge, and histogram snapshots as one Prometheus
/// text-exposition document (format version 0.0.4).
///
/// Families render in input order: counters, then gauges, then
/// histograms. Feed pre-sorted snapshots (what the registry snapshot
/// functions return) for a deterministic document.
pub fn render_prometheus(
    counters: &[CounterSnapshot],
    gauges: &[GaugeSnapshot],
    hists: &[HistogramSnapshot],
) -> String {
    let mut out = String::new();
    for c in counters {
        let name = format!("{}_total", sanitize(c.name));
        let _ = writeln!(out, "# HELP {name} Monotonic event counter `{}`.", c.name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.total);
    }
    for g in gauges {
        let name = sanitize(g.name);
        let _ = writeln!(out, "# HELP {name} Gauge `{}`.", g.name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_f64(g.value));
    }
    for h in hists {
        let name = seconds_name(h.name);
        let _ = writeln!(
            out,
            "# HELP {name} Duration histogram `{}` (log2 buckets, seconds).",
            h.name
        );
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (b, &n) in h.buckets.iter().enumerate() {
            cum += n;
            let le = bucket_upper_ns(b) as f64 * 1e-9;
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", fmt_f64(le));
        }
        // Relaxed snapshots can momentarily undercount the buckets
        // relative to `count`; +Inf takes the max so the cumulative
        // series stays monotone and terminates at the family count.
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", cum.max(h.count));
        let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum_ns as f64 * 1e-9));
        let _ = writeln!(out, "{name}_count {}", cum.max(h.count));
    }
    out
}

/// Formats an exposition float: plain decimal, no exponent for the
/// magnitudes metrics take, and finite by construction (Rust's shortest
/// round-trip `Display` for `f64` is valid Prometheus float syntax).
fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite exposition value: {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HIST_BUCKETS;

    #[test]
    fn sanitize_maps_to_metric_alphabet() {
        assert_eq!(sanitize("serve_requests"), "serve_requests");
        assert_eq!(sanitize("bad-name.with/chars"), "bad_name_with_chars");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn seconds_name_strips_ns_suffix() {
        assert_eq!(seconds_name("serve_request_ns"), "serve_request_seconds");
        assert_eq!(seconds_name("rebuild_wall"), "rebuild_wall_seconds");
    }

    #[test]
    fn counters_and_gauges_render_with_help_and_type() {
        let counters = vec![CounterSnapshot {
            name: "links_tested",
            total: 42,
        }];
        let gauges = vec![GaugeSnapshot {
            name: "serve_epoch",
            value: 3.0,
        }];
        let text = render_prometheus(&counters, &gauges, &[]);
        assert!(text.contains("# TYPE links_tested_total counter"));
        assert!(text.contains("links_tested_total 42"));
        assert!(text.contains("# TYPE serve_epoch gauge"));
        assert!(text.contains("serve_epoch 3"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn histogram_renders_cumulative_le_buckets_in_seconds() {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        buckets[10] = 3; // (512, 1024] ns
        buckets[20] = 1; // ~1 ms
        let hists = vec![HistogramSnapshot {
            name: "serve_request_ns",
            count: 4,
            sum_ns: 1_051_572,
            min_ns: 700,
            max_ns: 1_048_000,
            buckets,
        }];
        let text = render_prometheus(&[], &[], &hists);
        assert!(text.contains("# TYPE serve_request_seconds histogram"));
        // Bucket 10's upper bound is 1024 ns = 1.024e-6 s.
        assert!(
            text.contains("serve_request_seconds_bucket{le=\"0.000001024\"} 3"),
            "missing the 1024ns cumulative bucket:\n{text}"
        );
        assert!(text.contains("serve_request_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("serve_request_seconds_count 4"));
        assert!(text.contains("serve_request_seconds_sum 0.001051572"));
        // Cumulative counts never decrease in le order.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone cumulative bucket: {line}");
            last = v;
        }
    }
}

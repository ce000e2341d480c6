//! Renders a drained run as JSONL or Chrome Trace Event JSON, and owns
//! the JSON string and number formatting every hand-written JSON writer
//! in the workspace uses.
//!
//! The exporters hand-serialize (the crate is dependency-free):
//! [`json_string`] escapes per RFC 8259 and [`json_f64`] writes only
//! finite numbers, so the output always parses.
//!
//! * [`to_jsonl`] — one self-describing JSON object per line: a `meta`
//!   header (drop count, thread table), every span/instant event, then
//!   every counter snapshot. Good for `grep`/`jq` pipelines.
//! * [`to_chrome_json`] — the [Trace Event Format] consumed by
//!   `chrome://tracing` and Perfetto: `"M"` thread-name metadata rows,
//!   `"X"` complete events (µs timestamps) for spans, `"i"` instants.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::metrics::CounterSnapshot;
use crate::sink::{Event, TraceReport};
use std::fmt::Write as _;

/// `s` as a JSON string literal, quotes included, escaped per RFC 8259.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number: the shortest decimal that reads back to the
/// same `f64` (Rust's `Display`, which never writes an exponent).
///
/// # Panics
///
/// On NaN or an infinity, which JSON cannot carry. Every number the
/// workspace's reports write is finite by construction, so a panic here
/// is a bug in the caller, not bad input.
pub fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "non-finite value in a JSON report: {v}");
    format!("{v}")
}

/// Renders the run as JSONL: one JSON object per line, every line
/// self-describing via a `"kind"` field (`meta`, `span`, `instant`,
/// `counter`).
pub fn to_jsonl(report: &TraceReport, counters: &[CounterSnapshot]) -> String {
    let mut out = String::new();
    let mut threads = String::new();
    for (i, (tid, name)) in report.threads.iter().enumerate() {
        if i > 0 {
            threads.push(',');
        }
        let _ = write!(threads, "{{\"tid\":{tid},\"name\":{}}}", json_string(name));
    }
    let _ = writeln!(
        out,
        "{{\"kind\":\"meta\",\"events\":{},\"dropped\":{},\"threads\":[{threads}]}}",
        report.events.len(),
        report.dropped,
    );
    for ev in &report.events {
        match ev {
            Event::Span {
                name,
                tid,
                depth,
                start_ns,
                dur_ns,
                allocs,
                alloc_bytes,
            } => {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"span\",\"name\":{},\"tid\":{tid},\"depth\":{depth},\"start_ns\":{start_ns},\"dur_ns\":{dur_ns},\"allocs\":{allocs},\"alloc_bytes\":{alloc_bytes}}}",
                    json_string(name),
                );
            }
            Event::Instant {
                name,
                category,
                tid,
                ts_ns,
            } => {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"instant\",\"name\":{},\"cat\":{},\"tid\":{tid},\"ts_ns\":{ts_ns}}}",
                    json_string(name),
                    json_string(category),
                );
            }
        }
    }
    for c in counters {
        let _ = writeln!(
            out,
            "{{\"kind\":\"counter\",\"name\":{},\"total\":{}}}",
            json_string(c.name),
            c.total,
        );
    }
    out
}

/// Nanoseconds → the format's microsecond timestamps, with fractional
/// precision preserved.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000.0)
}

/// Renders the run in Chrome Trace Event format (JSON Object variant):
/// loadable in `chrome://tracing` and Perfetto, one named track per
/// worker thread, spans as `"X"` complete events, probe marks as `"i"`
/// instants, counter totals in `otherData`.
pub fn to_chrome_json(report: &TraceReport, counters: &[CounterSnapshot]) -> String {
    let mut events = String::new();
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            events.push_str(",\n");
        }
        *first = false;
        events.push_str("  ");
        events.push_str(&line);
    };
    push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"beaconplace\"}}"
            .to_string(),
        &mut first,
    );
    for (tid, name) in &report.threads {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                json_string(name),
            ),
            &mut first,
        );
    }
    for ev in &report.events {
        match ev {
            Event::Span {
                name,
                tid,
                depth,
                start_ns,
                dur_ns,
                allocs,
                alloc_bytes,
            } => {
                push(
                    format!(
                        "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"depth\":{depth},\"allocs\":{allocs},\"alloc_bytes\":{alloc_bytes}}}}}",
                        json_string(name),
                        us(*start_ns),
                        us(*dur_ns),
                    ),
                    &mut first,
                );
            }
            Event::Instant {
                name,
                category,
                tid,
                ts_ns,
            } => {
                push(
                    format!(
                        "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                        json_string(name),
                        json_string(category),
                        us(*ts_ns),
                    ),
                    &mut first,
                );
            }
        }
    }
    let mut other = String::new();
    let _ = write!(other, "\"dropped_events\":{}", report.dropped);
    for c in counters {
        let _ = write!(other, ",{}:{}", json_string(c.name), c.total);
    }
    format!(
        "{{\n\"traceEvents\": [\n{events}\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {{{other}}}\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceReport;

    fn sample_report() -> TraceReport {
        TraceReport {
            events: vec![
                Event::Span {
                    name: "radio.connectivity_sweep",
                    tid: 0,
                    depth: 0,
                    start_ns: 1_500,
                    dur_ns: 2_250_000,
                    allocs: 7,
                    alloc_bytes: 1_024,
                },
                Event::Instant {
                    name: "figure_start \"fig5\"".to_string(),
                    category: "probe",
                    tid: 1,
                    ts_ns: 3_000,
                },
            ],
            dropped: 2,
            threads: vec![(0, "main".to_string()), (1, "worker-1".to_string())],
        }
    }

    fn sample_counters() -> Vec<CounterSnapshot> {
        vec![CounterSnapshot {
            name: "links_tested",
            total: 42,
        }]
    }

    #[test]
    fn jsonl_lines_are_well_formed_and_complete() {
        let jsonl = to_jsonl(&sample_report(), &sample_counters());
        let lines: Vec<&str> = jsonl.lines().collect();
        // meta + 2 events + 1 counter
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        }
        assert!(lines[0].contains("\"kind\":\"meta\""));
        assert!(lines[0].contains("\"dropped\":2"));
        assert!(lines[1].contains("\"kind\":\"span\""));
        assert!(lines[1].contains("radio.connectivity_sweep"));
        assert!(lines[1].contains("\"allocs\":7"));
        assert!(lines[1].contains("\"alloc_bytes\":1024"));
        assert!(
            lines[2].contains("figure_start \\\"fig5\\\""),
            "quotes escaped: {}",
            lines[2]
        );
        assert!(lines[3].contains("\"total\":42"));
    }

    #[test]
    fn chrome_export_has_thread_tracks_and_complete_events() {
        let chrome = to_chrome_json(&sample_report(), &sample_counters());
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"M\""), "thread metadata present");
        assert!(chrome.contains("\"args\":{\"name\":\"worker-1\"}"));
        // 1500 ns span start → 1.5 µs; 2.25 ms duration → 2250 µs.
        assert!(chrome.contains("\"ts\":1.500"), "µs timestamps: {chrome}");
        assert!(chrome.contains("\"dur\":2250.000"));
        assert!(chrome.contains("\"ph\":\"i\""), "instant present");
        assert!(
            chrome.contains("\"allocs\":7,\"alloc_bytes\":1024"),
            "span args carry alloc deltas"
        );
        assert!(chrome.contains("\"dropped_events\":2"));
        assert!(chrome.contains("\"links_tested\":42"));
    }

    #[test]
    fn json_string_quotes_and_escapes_controls() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_numbers_are_plain_and_round_trip() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(-0.25), "-0.25");
        assert_eq!(json_f64(1e-7), "0.0000001");
        assert_eq!(json_f64(0.1 + 0.2).parse::<f64>().unwrap(), 0.1 + 0.2);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn json_f64_refuses_nan() {
        json_f64(f64::NAN);
    }
}

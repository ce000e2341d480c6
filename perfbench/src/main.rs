//! Whole-run benchmark of the beaconplace workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one named workload for `--seconds`, checks that its outputs are
//! correct, and prints one JSON result as the last line of stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the run's host and provenance
//! block; the full report (both vocabularies, every check, the §3.2
//! slope table) goes to `.bench_out/`. `perfbench/README.md` describes
//! the workloads and metrics.

mod batch;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "ideal-improve",
    "noisy-density",
    "fault-sweep",
    "serve-churn",
];

/// Figure and roster hashes recorded for the default seed (1) and the
/// held-out seed (2).
const REFERENCES: &str = include_str!("../references.txt");

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Minimal-size inputs, for the self-test.
    pub tiny: bool,
    /// Internal: run as a set-up probe child (exit when the first trial
    /// is about to begin).
    pub setup_child: bool,
}

/// Where reports and span files go, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: Duration::from_secs(10),
            trace: false,
            tiny: false,
            setup_child: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds {s} out of range"));
                    }
                    args.seconds = Duration::from_secs_f64(s);
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--tiny" => args.tiny = true,
                "--setup-child" => args.setup_child = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, not {:?}",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        Ok(args)
    }

    /// The argument list that re-runs this workload in a child process.
    pub fn child_args(&self) -> Vec<String> {
        let mut v = vec![
            "--workload".into(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
            "--setup-child".into(),
        ];
        if self.tiny {
            v.push("--tiny".into());
        }
        v
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted (trials or requests).
    pub attempted: u64,
    /// Units that failed (panicked trials, non-Ok or wrong replies).
    pub failed: u64,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metrics (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Report-only metrics in the workload's own vocabulary.
    pub extra: Vec<Metric>,
    /// Free-form report lines (tables).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// FNV-1a 64 over `bytes`, continuing from `h` (start with [`FNV_SEED`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The FNV-1a 64 offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The recorded reference hash for `workload` at `seed`, if any.
pub fn reference(workload: &str, seed: u64) -> Option<u64> {
    REFERENCES
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, h) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(h, 16).ok())
                .flatten()
        })
}

/// Checks `hash` against the recorded reference for this run's seed.
pub fn check_reference(out: &mut Outcome, args: &Args, hash: u64) {
    if args.tiny {
        out.check(
            "reference_hash",
            true,
            format!("{hash:016x} (tiny inputs: no reference)"),
        );
        return;
    }
    match reference(&args.workload, args.seed) {
        Some(want) => out.check(
            "reference_hash",
            want == hash,
            format!("got {hash:016x}, recorded {want:016x}"),
        ),
        None => out.check(
            "reference_hash",
            true,
            format!("{hash:016x} (no reference recorded for seed {})", args.seed),
        ),
    }
}

/// Median of `values` through `abp_stats::quantile` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `q`-quantile of `values` through `abp_stats::quantile` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    abp_stats::quantile(values, q).unwrap_or(0.0)
}

/// The process's peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker count: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn provenance_json(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \
         \"workers\": {}, \"seed\": {}, \"workload\": {}, \"trace\": {}, \"seconds\": {}, \
         \"tiny\": {}, \"scaling_claims\": {}}}",
        workers(),
        json_str(&cpu_model()),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&env("PERFBENCH_SOURCE_DIGEST")),
        workers(),
        args.seed,
        json_str(&args.workload),
        args.trace as u8,
        args.seconds.as_secs_f64(),
        args.tiny,
        // One host, one worker count: no rung ladder, so no scaling claim.
        json_str("none: a single worker count is measured"),
    )
}

fn write_report(args: &Args, out: &Outcome, provenance: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = std::path::Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}{}.json",
        args.workload,
        args.seed,
        args.trace as u8,
        if args.tiny { "-tiny" } else { "" }
    ));
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(n, ok, d)| {
            format!(
                "{{\"name\": {}, \"passed\": {ok}, \"detail\": {}}}",
                json_str(n),
                json_str(d)
            )
        })
        .collect();
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    let body = format!(
        "{{\n  \"provenance\": {provenance},\n  \"correct\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"fail_rate\": {},\n  \"checks\": [{}],\n  \"end_to_end\": {},\n  \
         \"per_layer\": {},\n  \"workload_metrics\": {},\n  \"notes\": [{}]\n}}\n",
        out.correct(),
        out.attempted,
        out.failed,
        json_num(out.failed as f64 / out.attempted.max(1) as f64),
        checks.join(", "),
        metrics_json(&out.end_to_end),
        metrics_json(&out.per_layer),
        metrics_json(&out.extra),
        notes.join(", ")
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_child {
        batch::setup_child(&args);
        return;
    }
    let result = if args.workload == "serve-churn" {
        serve::run(&args)
    } else {
        batch::run(&args)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let provenance = provenance_json(&args);
    for (name, ok, detail) in &out.checks {
        eprintln!(
            "check {:<22} {:<4} {detail}",
            name,
            if *ok { "ok" } else { "FAIL" }
        );
    }
    for note in &out.notes {
        eprintln!("{note}");
    }
    for m in out
        .end_to_end
        .iter()
        .chain(&out.extra)
        .chain(&out.per_layer)
    {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    match write_report(&args, &out, &provenance) {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("perfbench: report not written: {e}"),
    }
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!("{{\"provenance\": {provenance}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics_json(metrics)
    );
    if !out.correct() {
        std::process::exit(1);
    }
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    use trace::Layer;
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for layer in Layer::LAYERS.iter().filter(|&&l| l != Layer::BenchCount) {
        v.push((format!("{}.ms", layer.name()), "ms"));
        v.push((format!("{}.calls", layer.name()), "count"));
    }
    v.push(("sim.runner_idle.ms".into(), "ms"));
    for name in [
        "placement.candidates_scanned",
        "placement.cells_pruned",
        "radio.links_tested",
        "radio.links_heard",
    ] {
        v.push((name.into(), "count"));
    }
    v.push(("radio.link_hit_ratio".into(), "ratio"));
    for layer in [
        Layer::PlacementRandom,
        Layer::PlacementMax,
        Layer::PlacementGrid,
        Layer::SurveyIndexedSweep,
    ] {
        v.push((format!("{}.slope", layer.name()), "1"));
    }
    v.push(("unattributed_pct".into(), "%"));
    v.push(("trace_overhead_pct".into(), "%"));
    for (name, unit) in serve::LAYER_METRICS {
        v.push((name.into(), unit));
    }
    v
}

/// `measured` in [`per_layer_names`] order, with 0 for every layer the
/// workload does not exercise.
pub fn complete_per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    let names = per_layer_names();
    for m in &measured {
        assert!(
            names.iter().any(|(n, _)| *n == m.name),
            "per-layer metric {} is not in the catalogue",
            m.name
        );
    }
    names
        .into_iter()
        .map(|(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, unit))
        })
        .collect()
}

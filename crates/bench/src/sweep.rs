//! The tracked bench baseline behind `abp bench`.
//!
//! Times the hot kernels — the survey connectivity sweep, the
//! incremental re-survey and the greedy Grid candidate scan — in both
//! their brute-force and production ("indexed" in the report) forms, on the
//! same field, and verifies on every sample that the production outputs
//! are **bit-identical** to the brute ones before reporting any timing.
//! A bench that reports a speedup for a kernel that changed the answer
//! would be worthless; here `identical: false` in the emitted JSON is a
//! red flag CI fails on. Every run times every kernel against its
//! oracle: there is no mode that skips the brute side or the check.
//!
//! The survey kernel times the full sweep: the point-major oracle
//! [`ErrorMap::survey_point_major`] against the beacon-major production
//! sweep, under the ideal disk, where each beacon's whole reach is its
//! guaranteed core. The production side is the path every Monte-Carlo
//! trial runs: [`ErrorMap::survey_indexed_with`] threading one
//! [`SurveyScratch`] across samples. The `survey_sweep_noisy` kernel
//! times the same pair under speckled noise at 0.5, where most of each
//! reach is the annulus the model decides. The `resurvey_incremental`
//! kernel grows the field by one beacon at the terrain centre and times
//! a full [`ErrorMap::survey`] of the grown field against
//! [`ErrorMap::add_beacon`] on a copy of the base map (the copy is made
//! outside the timed region); both are checked against the point-major
//! oracle of the grown field. The `candidate_scan_grid` kernel mirrors
//! the greedy deployment loop round for round but times **only the scan
//! phase** (`propose_ranked`): the per-round deployment work — adding
//! the beacon and incrementally re-surveying — is executed identically
//! on both sides and excluded, so the reported ratio is the speedup of
//! the scan itself, not of the shared plumbing around it. Its production
//! side is [`GridPlacement`], which rebuilds its row-subtotal table every
//! round, exactly as `greedy_batch` runs it for `abp batch`; its brute
//! side is a per-rectangle oracle private to this module,
//! `RectGridOracle`: the paper's direct `O(NG · PG)` sum and a full sort.
//! The kernel first runs the *real* [`greedy_batch`] over
//! [`GridPlacement`] and verifies both mirrored loops place
//! bit-identically to it.
//!
//! The report also carries the reused scratch's steady-state allocator
//! traffic — the `alloc` block's `allocs_per_trial` / `bytes_per_trial`,
//! measured with [`abp_trace::thread_snapshot`] deltas around the
//! post-warmup production samples of both survey kernels only — and the
//! CLI fails the run if it is nonzero.
//!
//! Timings are reported as the median over `repeats` interleaved
//! samples with a distribution-free 95% confidence interval on the
//! median (binomial order-statistic ranks, clamped to the observed
//! range — exact for small sample counts, no normality assumption).
//! See `docs/PERFORMANCE.md` for how to read the emitted
//! `BENCH_sweep.json`.

use abp_field::BeaconField;
use abp_geom::{Lattice, Point, Terrain};
use abp_localize::UnheardPolicy;
use abp_placement::{greedy_batch, pick_unoccupied, GridPlacement, PlacementAlgorithm, SurveyView};
use abp_radio::{IdealDisk, PerBeaconNoise, Propagation};
use abp_stats::Summary;
use abp_survey::{ErrorMap, SurveyScratch};
use abp_trace::export::json_f64;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Instant;

/// Schema identifier written into the JSON report; CI validates it.
/// `/2` added the `survey_sweep_scratch` kernel and the `alloc` block
/// (alloc-counting flag + steady-state allocs/bytes per trial).
/// `/3` added the `serve_qps` block: the `abp-serve` daemon driven by
/// the in-process load harness — client-observed p50/p95/p99 latency,
/// throughput, the served-vs-batch bit-identity gate, and the serving
/// path's allocs/request (pinned at 0).
/// `/4` extends `serve_qps` with the telemetry-overhead figures: the
/// main run now serves with per-opcode telemetry on and a live
/// `/metrics` HTTP listener scraped concurrently (`scrapes`,
/// `scrape_p50_s`, `scrape_max_s`), and a second telemetry-off run of
/// the same load contributes `qps_metrics_off` and
/// `telemetry_overhead_pct`.
/// `/5` adds the `overload` block: the daemon flooded at twice its
/// `max_conns` admission cap — shed-connection counts, the accepted
/// requests' p50/p99, the `bounded` verdict against the absolute p99
/// budget, and the zero-alloc gate held under flood.
/// `/6` adds the `scaling` block (the tiled survey sweep timed at a
/// ladder of thread counts, with parallel efficiency and a per-count
/// bit-identity gate), a `speedup_ci95` interval on every kernel (the
/// CLI warns when it straddles 1.0), and replaces the single-sample
/// telemetry-overhead point estimate with `telemetry_overhead`: median
/// and 95% CI over interleaved on/off load pairs, alternating run
/// order to cancel drift.
/// `/7` removes the `scaling` block with the intra-survey tile
/// scheduler it timed; one sequential survey sweep remains.
/// `/8` adds the `survey_sweep_noisy` kernel: the sweep under speckled
/// noise at 0.5, where most of each beacon's reach is the annulus the
/// model decides, timed as the point-major oracle against the
/// production sweep through a reused scratch. Its steady-state
/// allocations join the `alloc` block.
/// `/9` removes the telemetry on/off load pairs (`serve_ab_pairs`,
/// `qps_metrics_off`, `telemetry_overhead`) and the `skip_brute` flag,
/// and adds the `resurvey_incremental` kernel: one added beacon as a
/// full survey of the grown field against `ErrorMap::add_beacon` on the
/// base map.
/// `/10` removes the `survey_sweep_scratch` kernel, which timed one sweep
/// with and without scratch reuse: `survey_sweep`'s production side now
/// threads the reused scratch, and the `alloc` block sums the
/// `survey_sweep` and `survey_sweep_noisy` samples.
/// `/11` removes the Max candidate-scan kernel, and
/// `candidate_scan_grid`'s production side becomes `GridPlacement`, the
/// scan `greedy_batch` runs.
/// `/12` drops the three `alloc` blocks' `counting` flags: every build
/// counts allocations, so the rates are always measured.
pub const SCHEMA: &str = "abp-bench-sweep/12";

/// Scenario and sampling configuration for one bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Label recorded in the report (`paper`, `tiny`, or custom).
    pub preset: String,
    /// Field size the kernels run against.
    pub beacons: usize,
    /// Survey lattice step in meters.
    pub step: f64,
    /// Terrain side in meters.
    pub side: f64,
    /// Nominal radio range `R` in meters.
    pub nominal_range: f64,
    /// Timed samples per kernel variant.
    pub repeats: usize,
    /// Beacons placed per `candidate_scan_grid` sample: the sample times
    /// one Grid scan per placed beacon, as `greedy_batch` runs one per
    /// round.
    pub greedy_k: usize,
    /// Seed for the random beacon field.
    pub seed: u64,
    /// Client threads the serve load harness drives.
    pub serve_clients: usize,
    /// Measured requests per serve client (after warm-up).
    pub serve_requests: usize,
}

impl BenchConfig {
    /// Paper scale: the dense 100-beacon field on the paper's 100 m
    /// terrain, surveyed at 1 m — the configuration the ≥2× speedup
    /// acceptance bar is measured at.
    pub fn paper_scale() -> Self {
        BenchConfig {
            preset: "paper".into(),
            beacons: 100,
            step: 1.0,
            side: 100.0,
            nominal_range: 15.0,
            repeats: 17,
            greedy_k: 16,
            seed: 42,
            serve_clients: 4,
            serve_requests: 2000,
        }
    }

    /// A seconds-scale smoke configuration for CI. It takes as many
    /// samples as the paper preset and the committed `BENCH_tiny.json`.
    /// Below 6 samples the order-statistic interval on the median is
    /// `[min, max]` and covers it less than 95% of the time (75% at 3);
    /// at 17 it drops three samples at each end, so a shared host's
    /// outliers do not make a healthy kernel's speedup interval
    /// straddle 1.0.
    pub fn tiny() -> Self {
        BenchConfig {
            preset: "tiny".into(),
            beacons: 30,
            step: 4.0,
            side: 100.0,
            nominal_range: 15.0,
            repeats: 17,
            greedy_k: 3,
            seed: 42,
            serve_clients: 2,
            serve_requests: 150,
        }
    }
}

/// Median wall-clock of one kernel variant over the timed samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Median seconds per sample.
    pub median_s: f64,
    /// Lower bound of the 95% CI on the median.
    pub ci95_lo_s: f64,
    /// Upper bound of the 95% CI on the median.
    pub ci95_hi_s: f64,
    /// Number of timed samples.
    pub samples: usize,
}

impl Timing {
    /// Summarizes raw per-sample seconds: median plus a
    /// distribution-free 95% CI on the median from binomial
    /// order-statistic ranks (clamped to the observed min/max, so with
    /// very few samples the interval degenerates to the full range).
    fn from_samples(seconds: &[f64]) -> Timing {
        assert!(!seconds.is_empty(), "need at least one timed sample");
        let summary = Summary::from_slice(seconds);
        let sorted = summary.sorted_values();
        let n = sorted.len();
        let half = 0.98 * (n as f64).sqrt();
        let mid = (n as f64 - 1.0) / 2.0;
        let lo = ((mid - half).floor().max(0.0)) as usize;
        let hi = ((mid + half).ceil() as usize).min(n - 1);
        Timing {
            median_s: summary.median(),
            ci95_lo_s: sorted[lo],
            ci95_hi_s: sorted[hi],
            samples: n,
        }
    }
}

/// One kernel's brute-vs-indexed comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel identifier (`survey_sweep`, `candidate_scan_grid`, ...).
    pub name: &'static str,
    /// Whether the indexed variant produced bit-identical output on
    /// every sample. Timings are meaningless when this is `false`.
    pub identical: bool,
    /// `brute.median_s / indexed.median_s`.
    pub speedup: f64,
    /// Conservative 95% interval on the speedup: the ratio of the two
    /// medians' CI endpoints, `(brute.lo / indexed.hi, brute.hi /
    /// indexed.lo)`. When this interval straddles 1.0 the measured
    /// speedup is not distinguishable from noise and the CLI warns.
    pub speedup_ci95: (f64, f64),
    /// Brute-force timing.
    pub brute: Timing,
    /// Indexed timing.
    pub indexed: Timing,
}

impl KernelResult {
    /// Whether the speedup interval contains 1.0 — i.e. the bench
    /// cannot distinguish the indexed kernel from the brute one at
    /// this sample count.
    pub fn speedup_ci_straddles_unity(&self) -> bool {
        let (lo, hi) = self.speedup_ci95;
        lo < 1.0 && 1.0 < hi
    }
}

/// Steady-state allocator traffic of the scratch-reused survey path,
/// measured over the post-warmup production samples of the
/// `survey_sweep` and `survey_sweep_noisy` kernels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AllocStats {
    /// Mean allocator calls per reused-scratch survey (the zero-alloc
    /// gate asserts this is exactly 0).
    pub allocs_per_trial: f64,
    /// Mean bytes requested per reused-scratch survey.
    pub bytes_per_trial: f64,
}

/// The machine a report was measured on, so a ratio can be read against
/// its hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Parallelism detected by `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The first `model name` in `/proc/cpuinfo`, or `"unknown"`.
    pub cpu: String,
    /// The `rustc --version` of the compiler that built this binary,
    /// recorded at build time, or `"unknown"`.
    pub rustc: String,
}

impl Host {
    /// Reads the host description; each field that cannot be read is
    /// `"unknown"` (`nproc` falls back to 1).
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .filter(|model| !model.is_empty());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu.unwrap_or_else(|| "unknown".into()),
            rustc: env!("ABP_BENCH_RUSTC").into(),
        }
    }
}

/// The full report `abp bench` serializes to `BENCH_sweep.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The configuration the kernels ran under.
    pub config: BenchConfig,
    /// The machine the report was measured on.
    pub host: Host,
    /// Per-kernel results.
    pub kernels: Vec<KernelResult>,
    /// Allocation accounting for the reused-scratch survey path.
    pub alloc: AllocStats,
    /// The `abp-serve` daemon under the in-process load harness with
    /// the `/metrics` HTTP listener scraped concurrently:
    /// client-observed latency quantiles, throughput, the
    /// served-vs-batch bit-identity gate, and the serving path's
    /// allocation rate.
    pub serve: abp_serve::bench::LoadReport,
    /// The daemon flooded at twice its admission cap: proof that load
    /// shedding keeps the accepted requests' tail latency bounded (and
    /// the request path allocation-free) while the excess is answered
    /// `Overloaded`.
    pub overload: abp_serve::bench::OverloadReport,
}

impl BenchReport {
    /// Whether every kernel's indexed variant matched its brute output
    /// bit for bit — and the served localization path matched the batch
    /// pipeline over the full lattice.
    pub fn all_identical(&self) -> bool {
        self.kernels.iter().all(|k| k.identical) && self.serve.identical
    }

    /// Serializes the report as a single JSON object (schema
    /// [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"preset\": \"{}\",\n",
            self.config.preset.replace(['"', '\\'], "_")
        ));
        out.push_str(&format!("  \"beacons\": {},\n", self.config.beacons));
        out.push_str(&format!("  \"step\": {},\n", json_f64(self.config.step)));
        out.push_str(&format!(
            "  \"terrain_side\": {},\n",
            json_f64(self.config.side)
        ));
        out.push_str(&format!(
            "  \"nominal_range\": {},\n",
            json_f64(self.config.nominal_range)
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"repeats\": {},\n", self.config.repeats));
        out.push_str(&format!("  \"greedy_k\": {},\n", self.config.greedy_k));
        let text = |value: &str| value.replace(['"', '\\'], "_");
        out.push_str(&format!(
            "  \"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\"}},\n",
            self.host.nproc,
            text(&self.host.cpu),
            text(&self.host.rustc)
        ));
        out.push_str(&format!(
            "  \"alloc\": {{\"allocs_per_trial\": {}, \"bytes_per_trial\": {}}},\n",
            json_f64(self.alloc.allocs_per_trial),
            json_f64(self.alloc.bytes_per_trial)
        ));
        let s = &self.serve;
        out.push_str("  \"serve_qps\": {\n");
        out.push_str(&format!("    \"clients\": {},\n", s.clients));
        out.push_str(&format!("    \"requests\": {},\n", s.requests));
        out.push_str(&format!("    \"qps\": {},\n", json_f64(s.qps)));
        out.push_str(&format!("    \"p50_s\": {},\n", json_f64(s.p50_s)));
        out.push_str(&format!("    \"p95_s\": {},\n", json_f64(s.p95_s)));
        out.push_str(&format!("    \"p99_s\": {},\n", json_f64(s.p99_s)));
        out.push_str(&format!("    \"min_s\": {},\n", json_f64(s.min_s)));
        out.push_str(&format!("    \"max_s\": {},\n", json_f64(s.max_s)));
        out.push_str(&format!(
            "    \"alloc\": {{\"allocs_per_request\": {}, \"bytes_per_request\": {}}},\n",
            json_f64(s.allocs_per_request),
            json_f64(s.bytes_per_request)
        ));
        out.push_str(&format!("    \"scrapes\": {},\n", s.scrapes));
        out.push_str(&format!(
            "    \"scrape_p50_s\": {},\n",
            json_f64(s.scrape_p50_s)
        ));
        out.push_str(&format!(
            "    \"scrape_max_s\": {},\n",
            json_f64(s.scrape_max_s)
        ));
        out.push_str(&format!("    \"identical\": {},\n", s.identical));
        out.push_str(&format!("    \"final_epoch\": {}\n", s.final_epoch));
        out.push_str("  },\n");
        let o = &self.overload;
        out.push_str("  \"overload\": {\n");
        out.push_str(&format!(
            "    \"offered_clients\": {},\n",
            o.offered_clients
        ));
        out.push_str(&format!("    \"max_conns\": {},\n", o.max_conns));
        out.push_str(&format!("    \"requests\": {},\n", o.requests));
        out.push_str(&format!(
            "    \"shed_connections\": {},\n",
            o.shed_connections
        ));
        out.push_str(&format!("    \"shed_rate\": {},\n", json_f64(o.shed_rate)));
        out.push_str(&format!("    \"p50_s\": {},\n", json_f64(o.p50_s)));
        out.push_str(&format!("    \"p99_s\": {},\n", json_f64(o.p99_s)));
        out.push_str(&format!(
            "    \"p99_bound_s\": {},\n",
            json_f64(abp_serve::bench::OVERLOAD_P99_BOUND_S)
        ));
        out.push_str(&format!("    \"bounded\": {},\n", o.bounded));
        out.push_str(&format!(
            "    \"alloc\": {{\"allocs_per_request\": {}}}\n",
            json_f64(o.allocs_per_request)
        ));
        out.push_str("  },\n");
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", k.name));
            out.push_str(&format!("      \"identical\": {},\n", k.identical));
            out.push_str(&format!("      \"speedup\": {},\n", json_f64(k.speedup)));
            out.push_str(&format!(
                "      \"speedup_ci95\": [{}, {}],\n",
                json_f64(k.speedup_ci95.0),
                json_f64(k.speedup_ci95.1)
            ));
            out.push_str(&format!("      \"brute\": {},\n", timing_json(&k.brute)));
            out.push_str(&format!("      \"indexed\": {}\n", timing_json(&k.indexed)));
            out.push_str(if i + 1 == self.kernels.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn timing_json(t: &Timing) -> String {
    format!(
        "{{\"median_s\": {}, \"ci95_lo_s\": {}, \"ci95_hi_s\": {}, \"samples\": {}}}",
        json_f64(t.median_s),
        json_f64(t.ci95_lo_s),
        json_f64(t.ci95_hi_s),
        t.samples
    )
}

/// Bit-compares two error maps over every lattice point (NaN-excluded
/// points compare equal only to NaN-excluded points).
fn maps_bit_identical(a: &ErrorMap, b: &ErrorMap) -> bool {
    a.lattice().indices().all(|ix| {
        a.error_at(ix).map(f64::to_bits) == b.error_at(ix).map(f64::to_bits)
            && a.heard_at(ix) == b.heard_at(ix)
    })
}

/// Runs both variants of every kernel and assembles the report.
///
/// Samples are interleaved (brute, indexed, brute, ...) so slow drift
/// in machine load biases both variants equally, and every pair is
/// checked for bit-identical output as it is produced.
pub fn run_bench(cfg: &BenchConfig) -> BenchReport {
    let terrain = Terrain::square(cfg.side);
    let lattice = Lattice::new(terrain, cfg.step);
    let field =
        BeaconField::random_uniform(cfg.beacons, terrain, &mut StdRng::seed_from_u64(cfg.seed));
    let model = IdealDisk::new(cfg.nominal_range);
    let policy = UnheardPolicy::TerrainCenter;
    let base_map = ErrorMap::survey(&lattice, &field, &model, policy);

    let mut kernels = Vec::new();

    // The alloc stats come from the production side's post-warmup
    // samples of kernels 1 and 2, which both thread one reused
    // `SurveyScratch`: the path every Monte-Carlo trial runs.
    let mut scratch = SurveyScratch::new();
    let mut allocs = AllocCount::default();

    // Kernel 1: the survey connectivity sweep, the point-major oracle
    // vs the beacon-major production sweep through the reused scratch.
    {
        let mut brute_s = Vec::with_capacity(cfg.repeats);
        let mut indexed_s = Vec::with_capacity(cfg.repeats);
        let mut identical = true;
        // Warmup (untimed) to fault in code and caches.
        let _ = ErrorMap::survey_point_major(&lattice, &field, &model, policy);
        warm_scratch(&lattice, &field, &model, policy, &mut scratch);
        for _ in 0..cfg.repeats {
            let t = Instant::now();
            let brute = ErrorMap::survey_point_major(&lattice, &field, &model, policy);
            brute_s.push(t.elapsed().as_secs_f64());
            identical &= maps_bit_identical(&brute, &base_map);
            let (indexed, seconds) = allocs.survey(&lattice, &field, &model, policy, &mut scratch);
            indexed_s.push(seconds);
            identical &= maps_bit_identical(&indexed, &base_map);
            scratch.recycle(indexed);
        }
        kernels.push(kernel_result(
            "survey_sweep",
            identical,
            &brute_s,
            &indexed_s,
        ));
    }

    // Kernel 2: the survey sweep under the paper's noise at its highest
    // level (speckled, Noise = 0.5), where most of each beacon's reach is
    // annulus the model decides in batches: the point-major oracle vs the
    // production sweep through the reused scratch.
    {
        let noisy = PerBeaconNoise::new(cfg.nominal_range, 0.5, cfg.seed);
        let mut brute_s = Vec::with_capacity(cfg.repeats);
        let mut indexed_s = Vec::with_capacity(cfg.repeats);
        let mut identical = true;
        let oracle = ErrorMap::survey_point_major(&lattice, &field, &noisy, policy);
        warm_scratch(&lattice, &field, &noisy, policy, &mut scratch);
        for _ in 0..cfg.repeats {
            let t = Instant::now();
            let brute = ErrorMap::survey_point_major(&lattice, &field, &noisy, policy);
            brute_s.push(t.elapsed().as_secs_f64());
            identical &= maps_bit_identical(&brute, &oracle);
            let (swept, seconds) = allocs.survey(&lattice, &field, &noisy, policy, &mut scratch);
            indexed_s.push(seconds);
            identical &= maps_bit_identical(&swept, &oracle);
            scratch.recycle(swept);
        }
        kernels.push(kernel_result(
            "survey_sweep_noisy",
            identical,
            &brute_s,
            &indexed_s,
        ));
    }
    let alloc = allocs.stats();

    // Kernel 3: one beacon added at the terrain centre, as a full survey
    // of the grown field vs `add_beacon` on a copy of the base map. The
    // copy is refreshed outside the timed region, so only the update is
    // timed; both sides are checked against the grown field's
    // point-major oracle.
    {
        let mut grown_field = field.clone();
        let id = grown_field.add_beacon(Point::new(cfg.side / 2.0, cfg.side / 2.0));
        let beacon = *grown_field.get(id).expect("beacon just added");
        let oracle = ErrorMap::survey_point_major(&lattice, &grown_field, &model, policy);
        // Warmup (untimed) of both sides.
        let mut grown = base_map.clone();
        grown.add_beacon(&beacon, &model);
        let _ = ErrorMap::survey(&lattice, &grown_field, &model, policy);
        let mut brute_s = Vec::with_capacity(cfg.repeats);
        let mut indexed_s = Vec::with_capacity(cfg.repeats);
        let mut identical = true;
        for _ in 0..cfg.repeats {
            let t = Instant::now();
            let full = ErrorMap::survey(&lattice, &grown_field, &model, policy);
            brute_s.push(t.elapsed().as_secs_f64());
            identical &= maps_bit_identical(&full, &oracle);
            grown.clone_from(&base_map);
            let t = Instant::now();
            grown.add_beacon(&beacon, &model);
            indexed_s.push(t.elapsed().as_secs_f64());
            identical &= maps_bit_identical(&grown, &oracle);
        }
        kernels.push(kernel_result(
            "resurvey_incremental",
            identical,
            &brute_s,
            &indexed_s,
        ));
    }

    // Kernel 4: the greedy Grid candidate scan, the per-rectangle oracle
    // vs the production row-subtotal table, each timed over its scan
    // phase only. The real `greedy_batch` over production Grid runs
    // first, untimed: it is the reference both mirrors must reproduce
    // and the warmup for the timed samples.
    {
        let grid = GridPlacement::paper(terrain, cfg.nominal_range);
        let (mut ref_field, mut ref_map) = (field.clone(), base_map.clone());
        let reference = greedy_batch(
            &grid,
            &mut ref_map,
            &mut ref_field,
            &model,
            cfg.greedy_k,
            &mut StdRng::seed_from_u64(0),
        );
        let oracle = RectGridOracle(grid);
        let mut brute_s = Vec::with_capacity(cfg.repeats);
        let mut indexed_s = Vec::with_capacity(cfg.repeats);
        let mut identical = true;
        for _ in 0..cfg.repeats {
            let brute = greedy_scan_run(&oracle, &field, &base_map, &model, cfg.greedy_k);
            let indexed = greedy_scan_run(&grid, &field, &base_map, &model, cfg.greedy_k);
            for run in [&brute, &indexed] {
                identical &=
                    run.positions == reference.positions && maps_bit_identical(&run.map, &ref_map);
            }
            brute_s.push(brute.scan_s);
            indexed_s.push(indexed.scan_s);
        }
        kernels.push(kernel_result(
            "candidate_scan_grid",
            identical,
            &brute_s,
            &indexed_s,
        ));
    }

    // The online daemon under concurrent TCP load (reported as
    // `serve_qps`, not a brute/indexed pair): the serving layer's
    // throughput, tail latency, allocation rate and bit-identity gate,
    // with the `/metrics` listener scraped concurrently.
    let load = abp_serve::bench::LoadConfig {
        clients: cfg.serve_clients,
        requests_per_client: cfg.serve_requests,
        warmup_per_client: 64,
        place_every: 16,
        seed: cfg.seed,
    };
    // The resilience knobs stay at their neutral defaults; the overload
    // run arms `max_conns` itself.
    let mut serve_cfg = abp_serve::daemon::ServeConfig {
        beacons: cfg.beacons,
        side: cfg.side,
        step: cfg.step,
        nominal_range: cfg.nominal_range,
        seed: cfg.seed,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..abp_serve::daemon::ServeConfig::paper_scale()
    };
    let serve = abp_serve::bench::run_load(&serve_cfg, &load)
        .expect("serve load harness failed (loopback bind or client error)");

    // Overload run: the same daemon shape flooded at twice its
    // admission cap (`run_overload` pins `max_conns` to the load's
    // client count and offers 2× that). No listener: the block
    // isolates what admission control itself does to the accepted
    // tail.
    serve_cfg.metrics_addr = None;
    let overload = abp_serve::bench::run_overload(&serve_cfg, &load)
        .expect("serve overload harness failed (loopback bind or client error)");

    BenchReport {
        config: cfg.clone(),
        host: Host::detect(),
        kernels,
        alloc,
        serve,
        overload,
    }
}

/// Runs the production sweep through `scratch` twice, untimed: the first
/// pass grows the scratch buffers, the second proves them warm, so later
/// samples measure the steady state only.
fn warm_scratch(
    lattice: &Lattice,
    field: &BeaconField,
    model: &dyn Propagation,
    policy: UnheardPolicy,
    scratch: &mut SurveyScratch,
) {
    for _ in 0..2 {
        let warm = ErrorMap::survey_indexed_with(lattice, field, model, policy, scratch);
        scratch.recycle(warm);
    }
}

/// Allocator traffic summed over timed steady-state scratch surveys.
#[derive(Default)]
struct AllocCount {
    allocs: u64,
    bytes: u64,
    trials: u64,
}

impl AllocCount {
    /// One production sweep through `scratch`, timed and counted; returns
    /// the map and its seconds.
    fn survey(
        &mut self,
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
        scratch: &mut SurveyScratch,
    ) -> (ErrorMap, f64) {
        let before = abp_trace::thread_snapshot();
        let t = Instant::now();
        let map = ErrorMap::survey_indexed_with(lattice, field, model, policy, scratch);
        let seconds = t.elapsed().as_secs_f64();
        let delta = abp_trace::thread_snapshot().delta_since(before);
        self.allocs += delta.allocs;
        self.bytes += delta.bytes;
        self.trials += 1;
        (map, seconds)
    }

    /// The per-trial rates.
    fn stats(&self) -> AllocStats {
        let n = self.trials.max(1) as f64;
        AllocStats {
            allocs_per_trial: self.allocs as f64 / n,
            bytes_per_trial: self.bytes as f64 / n,
        }
    }
}

/// One mirrored greedy run: the deployed positions, the resulting map,
/// and the seconds spent in the candidate-scan phase only.
struct ScanRun {
    positions: Vec<Point>,
    map: ErrorMap,
    scan_s: f64,
}

/// Mirrors [`greedy_batch`] round for round (same proposals, same
/// occupied-candidate rule via [`pick_unoccupied`]), accumulating
/// wall-clock only around `propose_ranked` — the candidate scan. The
/// deployment work (`field.add_beacon`, the incremental re-survey) is
/// the same whichever algorithm scans, so it is excluded from the
/// timing; including it would only dilute the kernel being measured.
fn greedy_scan_run(
    algorithm: &dyn PlacementAlgorithm,
    base_field: &BeaconField,
    base_map: &ErrorMap,
    model: &dyn Propagation,
    k: usize,
) -> ScanRun {
    let mut field = base_field.clone();
    let mut map = base_map.clone();
    let mut rng = StdRng::seed_from_u64(0);
    let mut positions = Vec::with_capacity(k);
    let mut scan_s = 0.0;
    for _ in 0..k {
        let view = SurveyView {
            map: &map,
            field: &field,
            model,
        };
        let t = Instant::now();
        let candidates = algorithm.propose_ranked(&view, field.len() + 1, &mut rng);
        scan_s += t.elapsed().as_secs_f64();
        let (pos, _forced) = pick_unoccupied(&candidates, &field);
        let id = field.add_beacon(pos);
        let beacon = *field.get(id).expect("beacon just added");
        map.add_beacon(&beacon, model);
        positions.push(pos);
    }
    ScanRun {
        positions,
        map,
        scan_s,
    }
}

/// The per-rectangle Grid oracle the `candidate_scan_grid` kernel times
/// as its brute side: every grid's `S(i, j)` summed directly over its
/// rectangle by [`GridPlacement::cumulative_errors_direct`] (the paper's
/// `O(NG · PG)`), then every grid sorted by (−score, index).
/// [`GridPlacement`] computes the same scores from a row-subtotal table
/// and must place identically.
struct RectGridOracle(GridPlacement);

impl PlacementAlgorithm for RectGridOracle {
    fn name(&self) -> &'static str {
        "grid-rect-oracle"
    }

    fn propose(&self, view: &SurveyView<'_>, rng: &mut dyn RngCore) -> Point {
        self.propose_ranked(view, 1, rng)[0]
    }

    fn propose_ranked(&self, view: &SurveyView<'_>, k: usize, _: &mut dyn RngCore) -> Vec<Point> {
        let grid = &self.0;
        let n = grid.grids_per_side();
        let scores = grid.cumulative_errors_direct(view.map);
        let mut order: Vec<u32> = (0..n * n).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .expect("cumulative errors are finite")
                .then(a.cmp(&b))
        });
        order[..k.clamp(1, order.len())]
            .iter()
            .map(|&flat| grid.center(flat % n, flat / n))
            .collect()
    }
}

fn kernel_result(
    name: &'static str,
    identical: bool,
    brute_s: &[f64],
    indexed_s: &[f64],
) -> KernelResult {
    let brute = Timing::from_samples(brute_s);
    let indexed = Timing::from_samples(indexed_s);
    let speedup = brute.median_s / indexed.median_s.max(f64::MIN_POSITIVE);
    let speedup_ci95 = (
        brute.ci95_lo_s / indexed.ci95_hi_s.max(f64::MIN_POSITIVE),
        brute.ci95_hi_s / indexed.ci95_lo_s.max(f64::MIN_POSITIVE),
    );
    KernelResult {
        name,
        identical,
        speedup,
        speedup_ci95,
        brute,
        indexed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bench_runs_and_outputs_are_identical() {
        let mut cfg = BenchConfig::tiny();
        cfg.repeats = 2;
        let report = run_bench(&cfg);
        assert_eq!(report.kernels.len(), 4);
        assert!(report.all_identical(), "indexed kernels changed outputs");
        for k in &report.kernels {
            assert!(k.brute.median_s > 0.0, "{}: zero brute median", k.name);
            assert!(k.indexed.median_s > 0.0, "{}: zero indexed median", k.name);
            assert!(k.ci95_contains_median(), "{}: CI excludes median", k.name);
            assert!(k.speedup.is_finite() && k.speedup > 0.0);
        }
        assert_eq!(report.kernels[0].name, "survey_sweep");
        assert_eq!(report.kernels[1].name, "survey_sweep_noisy");
        assert_eq!(report.kernels[2].name, "resurvey_incremental");
        assert_eq!(report.kernels[3].name, "candidate_scan_grid");
        assert!(report.host.nproc >= 1);
        assert!(!report.host.cpu.is_empty() && !report.host.rustc.is_empty());
        assert_eq!(report.serve.clients, cfg.serve_clients);
        assert_eq!(
            report.serve.requests,
            (cfg.serve_clients * cfg.serve_requests) as u64
        );
        assert!(report.serve.qps > 0.0);
        assert!(report.serve.identical, "served must match batch");
        assert!(
            report.serve.scrapes > 0,
            "the /metrics listener must be scraped during the instrumented run"
        );
        assert_eq!(
            report.alloc.allocs_per_trial, 0.0,
            "reused-scratch surveys must not allocate in steady state"
        );
        assert_eq!(report.alloc.bytes_per_trial, 0.0);
    }

    /// The bench's per-rectangle Grid oracle ranks exactly like the
    /// production row-subtotal table, for the argmax through every grid.
    #[test]
    fn rect_grid_oracle_ranks_like_production() {
        let terrain = Terrain::square(100.0);
        let lattice = Lattice::new(terrain, 3.0);
        let field = BeaconField::random_uniform(25, terrain, &mut StdRng::seed_from_u64(5));
        let model = IdealDisk::new(15.0);
        for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
            let map = ErrorMap::survey(&lattice, &field, &model, policy);
            let view = SurveyView {
                map: &map,
                field: &field,
                model: &model,
            };
            let grid = GridPlacement::paper(terrain, 15.0);
            let oracle = RectGridOracle(grid);
            for k in [1, 2, 7, 400] {
                let mut rng = StdRng::seed_from_u64(0);
                assert_eq!(
                    oracle.propose_ranked(&view, k, &mut rng),
                    grid.propose_top_k(&map, k),
                    "{policy:?}, k {k}"
                );
            }
        }
    }

    impl KernelResult {
        fn ci95_contains_median(&self) -> bool {
            let within = |t: &Timing| t.ci95_lo_s <= t.median_s && t.median_s <= t.ci95_hi_s;
            within(&self.brute) && within(&self.indexed)
        }
    }

    #[test]
    fn json_report_has_the_documented_shape() {
        let report = BenchReport {
            config: BenchConfig::tiny(),
            host: Host {
                nproc: 2,
                cpu: "Test \"CPU\" @ 2.0GHz".into(),
                rustc: "rustc 1.80.0".into(),
            },
            kernels: vec![KernelResult {
                name: "survey_sweep",
                identical: true,
                speedup: 2.5,
                speedup_ci95: (1.25, 3.75),
                brute: Timing::from_samples(&[0.4, 0.5, 0.6]),
                indexed: Timing::from_samples(&[0.2]),
            }],
            alloc: AllocStats {
                allocs_per_trial: 0.0,
                bytes_per_trial: 0.0,
            },
            serve: abp_serve::bench::LoadReport {
                clients: 2,
                requests: 300,
                wall_s: 0.5,
                qps: 600.0,
                p50_s: 0.001,
                p95_s: 0.002,
                p99_s: 0.003,
                min_s: 0.0005,
                max_s: 0.004,
                measured_requests: 220,
                allocs_per_request: 0.0,
                bytes_per_request: 0.0,
                identical: true,
                final_epoch: 0,
                scrapes: 40,
                scrape_p50_s: 0.0002,
                scrape_max_s: 0.001,
            },
            overload: abp_serve::bench::OverloadReport {
                offered_clients: 4,
                max_conns: 2,
                requests: 640,
                shed_connections: 17,
                shed_rate: 0.3,
                p50_s: 0.001,
                p99_s: 0.005,
                bounded: true,
                measured_requests: 500,
                allocs_per_request: 0.0,
            },
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"abp-bench-sweep/12\""));
        assert!(json.contains("\"preset\": \"tiny\""));
        assert!(json.contains(
            "\"host\": {\"nproc\": 2, \"cpu\": \"Test _CPU_ @ 2.0GHz\", \"rustc\": \"rustc 1.80.0\"}"
        ));
        assert!(json.contains("\"alloc\": {\"allocs_per_trial\": 0, \"bytes_per_trial\": 0}"));
        assert!(json.contains("\"serve_qps\": {"));
        assert!(json.contains("\"qps\": 600"));
        assert!(json.contains("\"p99_s\": 0.003"));
        assert!(json.contains("\"alloc\": {\"allocs_per_request\": 0, \"bytes_per_request\": 0}"));
        assert!(json.contains("\"final_epoch\": 0"));
        assert!(json.contains("\"scrapes\": 40"));
        assert!(json.contains("\"scrape_p50_s\": 0.0002"));
        assert!(json.contains("\"scrape_max_s\": 0.001"));
        for gone in [
            "scaling",
            "serve_ab_pairs",
            "skip_brute",
            "qps_metrics_off",
            "telemetry_overhead",
            "counting",
        ] {
            assert!(!json.contains(&format!("\"{gone}\"")), "{gone}");
        }
        assert!(json.contains("\"speedup_ci95\": [1.25, 3.75]"));
        assert!(json.contains("\"overload\": {"));
        assert!(json.contains("\"offered_clients\": 4"));
        assert!(json.contains("\"shed_connections\": 17"));
        assert!(json.contains("\"p99_bound_s\": 0.25"));
        assert!(json.contains("\"bounded\": true"));
        assert!(json.contains("\"alloc\": {\"allocs_per_request\": 0}"));
        assert!(json.contains("\"name\": \"survey_sweep\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"median_s\": 0.5"));
        assert!(json.contains("\"samples\": 3"));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces: {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn median_ci_degenerates_to_range_for_tiny_samples() {
        let t = Timing::from_samples(&[0.3, 0.1, 0.2]);
        assert_eq!(t.median_s, 0.2);
        assert_eq!(t.ci95_lo_s, 0.1);
        assert_eq!(t.ci95_hi_s, 0.3);
        assert_eq!(t.samples, 3);
    }

    /// The tiny preset's interval on the median covers it at least 95%
    /// of the time: the interval `[x(lo), x(hi)]` holds the median when
    /// the count `K` of samples below it satisfies `lo < K <= hi`, and
    /// `K` is Binomial(n, 1/2) for any continuous timing distribution.
    #[test]
    fn tiny_preset_interval_is_a_real_95_percent_interval() {
        let n = BenchConfig::tiny().repeats;
        assert!(
            n >= 6,
            "an order-statistic 95% interval needs 6 samples, got {n}"
        );
        let ranks: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = Timing::from_samples(&ranks);
        let (lo, hi) = (t.ci95_lo_s as usize, t.ci95_hi_s as usize);
        let choose = |k: usize| (0..k).fold(1.0, |c, i| c * (n - i) as f64 / (i + 1) as f64);
        let coverage: f64 = (lo + 1..=hi).map(choose).sum::<f64>() / 2f64.powi(n as i32);
        assert!(
            coverage >= 0.95,
            "{n} samples, ranks [{lo}, {hi}]: coverage {coverage:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one timed sample")]
    fn empty_samples_panic() {
        let _ = Timing::from_samples(&[]);
    }

    #[test]
    fn speedup_ci_straddle_detection() {
        let k = kernel_result("x", true, &[0.9, 1.0, 1.1], &[0.95, 1.0, 1.05]);
        assert!(
            k.speedup_ci_straddles_unity(),
            "overlapping timings must straddle: {:?}",
            k.speedup_ci95
        );
        let k = kernel_result("x", true, &[2.0, 2.1, 2.2], &[0.9, 1.0, 1.1]);
        assert!(!k.speedup_ci_straddles_unity(), "{:?}", k.speedup_ci95);
    }
}

//! In-memory spans for the traced run.
//!
//! The benchmark times its own calls into each crate's public functions:
//! every call is one [`Span`] tagged with the layer it belongs to and the
//! beacon count of the trial that made it. Spans stay in memory while the
//! run measures and are written out once it ends.

use std::io::{self, Write};
use std::time::Instant;

/// A layer of the program, named `<crate>.<part>`, or the trial that
/// encloses the layer calls of one Monte-Carlo trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole trial; the parent of every in-trial layer span.
    Trial,
    /// `SimConfig::trial_field`.
    FieldGenerate,
    /// `ErrorMap::survey_indexed_with`: index build, sweep and error
    /// derivation in one public call.
    SurveyIndexedSweep,
    /// `ErrorMap::survey`, the beacon-major sweep.
    SurveyBeaconMajor,
    /// `Robot::survey_faulty`.
    SurveyRobotWalk,
    /// `ErrorMap::add_beacon`.
    SurveyIncremental,
    /// `ErrorMap::clone` of the before-map.
    SurveyMapClone,
    /// Mean, median and accounting over a map.
    SurveyStats,
    /// `FaultPlan::compile`.
    FaultCompile,
    /// `RandomPlacement::propose`.
    PlacementRandom,
    /// `MaxPlacement::propose`.
    PlacementMax,
    /// `GridPlacement::propose`.
    PlacementGrid,
    /// Model and algorithm construction, RNG seeding, field copies,
    /// scratch hand-back and aggregation.
    SimGlue,
    /// `Figure::to_csv` and `Figure::render`.
    SimReport,
    /// The benchmark's own counting of heard links.
    BenchCount,
}

impl Layer {
    /// Every layer that counts as busy time (all but [`Layer::Trial`]).
    pub const LAYERS: [Layer; 14] = [
        Layer::FieldGenerate,
        Layer::SurveyIndexedSweep,
        Layer::SurveyBeaconMajor,
        Layer::SurveyRobotWalk,
        Layer::SurveyIncremental,
        Layer::SurveyMapClone,
        Layer::SurveyStats,
        Layer::FaultCompile,
        Layer::PlacementRandom,
        Layer::PlacementMax,
        Layer::PlacementGrid,
        Layer::SimGlue,
        Layer::SimReport,
        Layer::BenchCount,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trial => "trial",
            Layer::FieldGenerate => "field.generate",
            Layer::SurveyIndexedSweep => "survey.indexed_sweep",
            Layer::SurveyBeaconMajor => "survey.beacon_major",
            Layer::SurveyRobotWalk => "survey.robot_walk",
            Layer::SurveyIncremental => "survey.incremental",
            Layer::SurveyMapClone => "survey.map_clone",
            Layer::SurveyStats => "survey.stats",
            Layer::FaultCompile => "fault.compile",
            Layer::PlacementRandom => "placement.random",
            Layer::PlacementMax => "placement.max",
            Layer::PlacementGrid => "placement.grid",
            Layer::SimGlue => "sim.glue",
            Layer::SimReport => "sim.report",
            Layer::BenchCount => "bench.count",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub layer: Layer,
    /// Worker slot that made the call (`u16::MAX` for the main thread).
    pub worker: u16,
    /// Beacon count of the enclosing trial (0 outside trials).
    pub beacons: u32,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The main thread's worker id in [`Span::worker`].
pub const MAIN: u16 = u16::MAX;

/// Records spans for one thread. A disabled tracer runs the calls and
/// records nothing.
pub struct Tracer {
    origin: Instant,
    worker: u16,
    enabled: bool,
    /// The recorded spans, in start order.
    pub spans: Vec<Span>,
    /// Σ heard links over every survey map the thread produced.
    pub links_heard: u64,
}

impl Tracer {
    /// A recording tracer for `worker`, timing against `origin`.
    pub fn new(origin: Instant, worker: u16) -> Self {
        Tracer {
            origin,
            worker,
            enabled: true,
            spans: Vec::new(),
            links_heard: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now(), MAIN)
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one span of `layer`.
    pub fn time<R>(&mut self, layer: Layer, beacons: usize, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.record(layer, beacons, start_ns, end_ns);
        out
    }

    /// Records a span measured by the caller.
    pub fn record(&mut self, layer: Layer, beacons: usize, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                layer,
                worker: self.worker,
                beacons: beacons as u32,
                start_ns,
                end_ns,
            });
        }
    }

    /// Adds the heard links of `map` to [`Tracer::links_heard`], timed as
    /// the benchmark's own [`Layer::BenchCount`] work.
    pub fn count_heard(&mut self, beacons: usize, map: &abp_survey::ErrorMap) {
        if !self.enabled {
            return;
        }
        let heard = self.time(Layer::BenchCount, beacons, || {
            let lattice = map.lattice();
            lattice
                .indices()
                .map(|ix| map.heard_at(ix) as u64)
                .sum::<u64>()
        });
        self.links_heard += heard;
    }
}

/// Where the workers' time went in one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Busy nanoseconds per entry of [`Layer::LAYERS`].
    pub layer_ns: [u64; Layer::LAYERS.len()],
    /// Calls per entry of [`Layer::LAYERS`].
    pub layer_calls: [u64; Layer::LAYERS.len()],
    /// workers × wall.
    pub capacity_ns: u64,
    /// Σ trial busy + main-thread spans outside trials.
    pub busy_ns: u64,
    /// In-trial time no layer span covers.
    pub unattributed_ns: u64,
}

impl Accounting {
    /// Accounts the spans of one pass that ran `workers` worker slots for
    /// `wall_ns`. Main-thread spans occupy one slot while the workers
    /// wait, so Σ layers + idle + unattributed = workers × wall exactly.
    pub fn of(spans: &[Span], workers: usize, wall_ns: u64) -> Self {
        let mut acc = Accounting {
            capacity_ns: workers as u64 * wall_ns,
            ..Accounting::default()
        };
        let mut trial_ns = 0u64;
        let mut in_trial_ns = 0u64;
        for s in spans {
            if s.layer == Layer::Trial {
                trial_ns += s.ns();
                continue;
            }
            let k = Layer::LAYERS
                .iter()
                .position(|&l| l == s.layer)
                .expect("every non-trial span is a layer");
            acc.layer_ns[k] += s.ns();
            acc.layer_calls[k] += 1;
            if s.worker == MAIN {
                acc.busy_ns += s.ns();
            } else {
                in_trial_ns += s.ns();
            }
        }
        acc.busy_ns += trial_ns;
        acc.unattributed_ns = trial_ns.saturating_sub(in_trial_ns);
        acc
    }

    /// workers × wall − busy: time the worker slots sat idle.
    pub fn idle_ns(&self) -> u64 {
        self.capacity_ns.saturating_sub(self.busy_ns)
    }
}

/// Least-squares slope of `ln(median ns per call)` against
/// `ln(beacons)` for the spans of `layer`, one point per beacon count.
/// `None` with fewer than two beacon counts.
pub fn loglog_slope(spans: &[Span], layer: Layer) -> Option<(f64, Vec<(u32, f64)>)> {
    let mut by_beacons: Vec<(u32, Vec<f64>)> = Vec::new();
    for s in spans.iter().filter(|s| s.layer == layer) {
        match by_beacons.iter_mut().find(|(b, _)| *b == s.beacons) {
            Some((_, v)) => v.push(s.ns() as f64),
            None => by_beacons.push((s.beacons, vec![s.ns() as f64])),
        }
    }
    by_beacons.sort_by_key(|(b, _)| *b);
    let points: Vec<(u32, f64)> = by_beacons
        .iter()
        .map(|(b, v)| (*b, abp_stats::median(v).expect("non-empty group")))
        .collect();
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|(b, _)| (*b as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|(_, t)| t.max(1.0).ln()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    Some((sxy / sxx, points))
}

/// Writes spans as CSV: `pass,worker,layer,beacons,start_ns,end_ns`.
pub fn write_spans(path: &std::path::Path, passes: &[Vec<Span>]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "pass,worker,layer,beacons,start_ns,end_ns")?;
    for (p, spans) in passes.iter().enumerate() {
        for s in spans {
            let worker = if s.worker == MAIN {
                "main".to_string()
            } else {
                s.worker.to_string()
            };
            writeln!(
                out,
                "{p},{worker},{},{},{},{}",
                s.layer.name(),
                s.beacons,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

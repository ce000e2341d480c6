//! The batch workloads: `abp-sim` figure pipelines at Table-1 geometry.
//!
//! The end-to-end run drives the library's own sweeps (`fig5_with`,
//! `density_error::run_sweep`, `faults_with`) pass after pass and times
//! each pass. The traced run alternates those passes with a replay: the
//! same trials recomposed here from the public calls they make, each call
//! timed as a span, on a worker pool shaped like the library's (one
//! parallel map per density, `nproc` workers). Every replayed trial must
//! equal the library's `run_trial` bit for bit, and every replayed pass
//! must hash to the library's figure.

use crate::trace::{self, Accounting, Layer, Span, Tracer, MAIN};
use crate::{fnv1a, median, metric, quantile, Args, Outcome, FNV_SEED};
use abp_geom::splitmix64;
use abp_placement::SurveyView;
use abp_sim::experiments::density_error::{self, TrialSample};
use abp_sim::experiments::fault_robustness::{self, FaultSweepSpec, FaultTrialSample};
use abp_sim::experiments::improvement::{self, TrialImprovement};
use abp_sim::{
    figures, with_trial_scratch, AlgorithmKind, Ctx, Figure, Probe, Series, SeriesPoint, SimConfig,
    TrialFailureReport,
};
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::{ErrorMap, Robot, SurveyPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ideal,
    Noisy,
    Fault,
}

/// One batch workload: which pipeline, at which configuration.
struct Workload {
    kind: Kind,
    cfg: SimConfig,
    noises: Vec<f64>,
    specs: Vec<FaultSweepSpec>,
}

/// Beacon count of every fault-sweep field.
const FAULT_BEACONS: usize = 40;

impl Workload {
    fn new(args: &Args) -> Self {
        let kind = match args.workload.as_str() {
            "ideal-improve" => Kind::Ideal,
            "noisy-density" => Kind::Noisy,
            _ => Kind::Fault,
        };
        // Trials per density (per axis point for faults): enough that a
        // pass keeps both workers busy, few enough for many passes a run.
        let (base, trials) = if args.tiny {
            (SimConfig::tiny(), 2)
        } else {
            let trials = match kind {
                Kind::Ideal => 8,
                Kind::Noisy => 4,
                Kind::Fault => 12,
            };
            (SimConfig::paper(), trials)
        };
        let cfg = SimConfig {
            trials,
            threads: crate::workers(),
            seed: splitmix64(args.seed ^ 0x0BE4_C400),
            ..base
        };
        Workload {
            kind,
            cfg,
            noises: match kind {
                Kind::Noisy => vec![0.1, 0.3, 0.5],
                _ => vec![0.0],
            },
            specs: match kind {
                Kind::Fault => vec![
                    FaultSweepSpec::failure_axis(FAULT_BEACONS),
                    FaultSweepSpec::burst_axis(FAULT_BEACONS),
                ],
                _ => Vec::new(),
            },
        }
    }

    /// Every (group, density) the pipeline visits, in library order.
    fn points(&self) -> Vec<Point> {
        match self.kind {
            Kind::Fault => self
                .specs
                .iter()
                .enumerate()
                .flat_map(|(group, spec)| {
                    spec.xs.iter().enumerate().map(move |(di, &x)| Point {
                        group,
                        di,
                        beacons: spec.beacons,
                        x,
                    })
                })
                .collect(),
            _ => (0..self.noises.len())
                .flat_map(|group| {
                    self.cfg
                        .beacon_counts
                        .iter()
                        .enumerate()
                        .map(move |(di, &beacons)| Point {
                            group,
                            di,
                            beacons,
                            x: self.cfg.density_of(beacons),
                        })
                })
                .collect(),
        }
    }

    fn trials_per_pass(&self) -> u64 {
        (self.points().len() * self.cfg.trials) as u64
    }
}

/// One density (or fault-axis point) of a sweep.
#[derive(Debug, Clone, Copy)]
struct Point {
    /// Noise level (ideal, noisy) or fault axis (fault) index.
    group: usize,
    /// Density index within the group: the `trial_seed` density index.
    di: usize,
    beacons: usize,
    /// The figure's x value.
    x: f64,
}

/// One trial's output, whichever pipeline produced it.
#[derive(Debug, Clone)]
enum TrialOut {
    Improvement(Vec<TrialImprovement>),
    Density(TrialSample),
    Fault(FaultTrialSample),
}

fn same_bits(a: &TrialOut, b: &TrialOut) -> bool {
    let eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
    match (a, b) {
        (TrialOut::Improvement(x), TrialOut::Improvement(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| eq(p.mean, q.mean) && eq(p.median, q.median))
        }
        (TrialOut::Density(p), TrialOut::Density(q)) => {
            eq(p.mean, q.mean)
                && eq(p.median, q.median)
                && eq(p.unheard_fraction, q.unheard_fraction)
        }
        (TrialOut::Fault(p), TrialOut::Fault(q)) => {
            eq(p.error_mean, q.error_mean)
                && eq(p.measured_fraction, q.measured_fraction)
                && p.improvements.len() == q.improvements.len()
                && p.improvements
                    .iter()
                    .zip(&q.improvements)
                    .all(|(x, y)| eq(*x, *y))
        }
        _ => false,
    }
}

/// Collects what the library reports through its probe: per-trial busy
/// time, tagged with the sweep (density) it ran in, and failures. As a
/// set-up probe it ends the process when the first sweep is about to
/// start its trials.
#[derive(Default)]
struct BenchProbe {
    /// (sweeps started so far, busy ns) per finished trial.
    busy_ns: Mutex<Vec<(usize, u64)>>,
    sweeps: AtomicUsize,
    failed: AtomicU64,
    exit_at_first_sweep: bool,
}

impl BenchProbe {
    /// The `q`-quantile of trial latency (us) within each density,
    /// averaged over the `densities` of a pass. Pooling all densities
    /// instead lets the quantile jump between the per-density clusters
    /// of the 20–240 beacon mix.
    fn per_density_quantile_us(&self, densities: usize, q: f64) -> f64 {
        let busy = self.busy_ns.lock().expect("probe lock");
        let mut groups = vec![Vec::new(); densities];
        for &(sweep, ns) in busy.iter() {
            groups[(sweep - 1) % densities].push(ns as f64 / 1e3);
        }
        groups.iter().map(|g| quantile(g, q)).sum::<f64>() / densities.max(1) as f64
    }
}

impl Probe for BenchProbe {
    fn sweep_start(&self, _experiment: &str, _beacons: usize, _trials: usize) {
        if self.exit_at_first_sweep {
            let mut stdout = std::io::stdout();
            let _ = writeln!(stdout, "ready");
            let _ = stdout.flush();
            std::process::exit(0);
        }
        self.sweeps.fetch_add(1, Ordering::SeqCst);
    }

    fn trial_done(&self, busy: Duration) {
        let sweep = self.sweeps.load(Ordering::SeqCst);
        self.busy_ns
            .lock()
            .expect("probe lock poisoned by a panicking trial")
            .push((sweep, busy.as_nanos() as u64));
    }

    fn trial_failed(&self, _failure: &TrialFailureReport) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }
}

fn noise_series_name(noise: f64) -> String {
    format!("Noise={noise}")
}

fn noisy_figure() -> Figure {
    Figure::new(
        "noisy-density",
        "Mean localization error vs beacon density (Noise)",
        "density (/m^2)",
        "mean localization error (m)",
    )
}

/// One pass through the library's own pipeline.
fn library_pass(w: &Workload, cfg: &SimConfig, probe: &BenchProbe) -> Vec<Figure> {
    let ctx = Ctx::new(probe);
    match w.kind {
        Kind::Ideal => {
            let (mean, med) = figures::fig5_with(cfg, ctx);
            vec![mean, med]
        }
        Kind::Noisy => {
            let mut fig = noisy_figure();
            for &noise in &w.noises {
                let outcome = density_error::run_sweep(cfg, noise, ctx);
                fig.series.push(Series::new(
                    noise_series_name(noise),
                    outcome
                        .points
                        .iter()
                        .map(|p| SeriesPoint {
                            x: p.density,
                            y: p.mean_error,
                        })
                        .collect(),
                ));
            }
            vec![fig]
        }
        Kind::Fault => {
            let (failure, burst) = figures::faults_with(cfg, FAULT_BEACONS, ctx);
            vec![failure, burst]
        }
    }
}

/// Writes the figures the way `abp --out` does (CSV plus the text table)
/// and returns the FNV-1a hash of the CSV.
fn report(figs: &[Figure]) -> u64 {
    let mut h = FNV_SEED;
    for f in figs {
        h = fnv1a(h, f.to_csv().as_bytes());
        std::hint::black_box(f.render());
    }
    h
}

/// Set-up probe child: runs the workload until its first trial is about
/// to begin, then exits (see [`BenchProbe::sweep_start`]).
pub fn setup_child(args: &Args) {
    let w = Workload::new(args);
    let probe = BenchProbe {
        exit_at_first_sweep: true,
        ..BenchProbe::default()
    };
    library_pass(&w, &w.cfg, &probe);
    eprintln!("perfbench: set-up child ran no trial");
    std::process::exit(3);
}

/// Times `runs` fresh processes from spawn until their first trial is
/// about to begin.
fn measure_setup(args: &Args, runs: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let started = Instant::now();
        let mut child = Command::new(&exe)
            .args(args.child_args())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up child: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let elapsed = started.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait set-up child: {e}"))?;
        read.map_err(|e| format!("read set-up child: {e}"))?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!("set-up child: {status}, said {line:?}"));
        }
        samples.push(elapsed);
    }
    Ok(samples)
}

/// Which sweep a recomposed trial surveys with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// The production sweeps the library's trials call.
    Production,
    /// The brute-force point-major sweep, as an independent oracle.
    BruteForce,
}

fn placement_layer(kind: AlgorithmKind) -> Layer {
    match kind {
        AlgorithmKind::Random => Layer::PlacementRandom,
        AlgorithmKind::Max => Layer::PlacementMax,
        _ => Layer::PlacementGrid,
    }
}

/// The per-algorithm RNG stream of the improvement and fault trials.
fn algorithm_rng(trial_seed: u64, ai: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(trial_seed ^ (ai as u64) << 17 ^ 0xA160))
}

/// `improvement::run_trial`, recomposed from its public calls.
fn improvement_trial(
    tr: &mut Tracer,
    cfg: &SimConfig,
    beacons: usize,
    seed: u64,
    sweep: Sweep,
) -> Vec<TrialImprovement> {
    let b = beacons;
    let field = tr.time(Layer::FieldGenerate, b, || cfg.trial_field(beacons, seed));
    let (model, lattice) = tr.time(Layer::SimGlue, b, || {
        (cfg.model(0.0, splitmix64(seed ^ 0x4E_01_5E)), cfg.lattice())
    });
    with_trial_scratch(|scratch| {
        let before = match sweep {
            Sweep::Production => tr.time(Layer::SurveyIndexedSweep, b, || {
                ErrorMap::survey_indexed_with(
                    &lattice,
                    &field,
                    &*model,
                    cfg.policy,
                    &mut scratch.survey,
                )
            }),
            Sweep::BruteForce => {
                ErrorMap::survey_point_major(&lattice, &field, &*model, cfg.policy)
            }
        };
        tr.count_heard(b, &before);
        let (before_mean, before_median) = tr.time(Layer::SurveyStats, b, || {
            (before.mean_error(), scratch.survey.median_error(&before))
        });
        let samples = AlgorithmKind::PAPER
            .iter()
            .enumerate()
            .map(|(ai, &kind)| {
                let (algo, mut rng) = tr.time(Layer::SimGlue, b, || {
                    (kind.build(cfg), algorithm_rng(seed, ai))
                });
                let pos = tr.time(placement_layer(kind), b, || {
                    let view = SurveyView {
                        map: &before,
                        field: &field,
                        model: &*model,
                    };
                    algo.propose(&view, &mut rng)
                });
                let added = tr.time(Layer::SimGlue, b, || {
                    let mut extended = field.clone();
                    let id = extended.add_beacon(pos);
                    *extended.get(id).expect("just added")
                });
                let mut after = tr.time(Layer::SurveyMapClone, b, || before.clone());
                tr.time(Layer::SurveyIncremental, b, || {
                    after.add_beacon(&added, &*model)
                });
                let (after_mean, after_median) = tr.time(Layer::SurveyStats, b, || {
                    (after.mean_error(), scratch.survey.median_error(&after))
                });
                TrialImprovement {
                    mean: before_mean - after_mean,
                    median: before_median - after_median,
                }
            })
            .collect();
        tr.time(Layer::SimGlue, b, || scratch.survey.recycle(before));
        samples
    })
}

/// `density_error::run_trial`, recomposed from its public calls.
fn density_trial(
    tr: &mut Tracer,
    cfg: &SimConfig,
    noise: f64,
    beacons: usize,
    seed: u64,
    sweep: Sweep,
) -> TrialSample {
    let b = beacons;
    let field = tr.time(Layer::FieldGenerate, b, || cfg.trial_field(beacons, seed));
    let (model, lattice) = tr.time(Layer::SimGlue, b, || {
        (
            cfg.model(noise, splitmix64(seed ^ 0x4E_01_5E)),
            cfg.lattice(),
        )
    });
    with_trial_scratch(|scratch| {
        let map = match sweep {
            Sweep::Production => tr.time(Layer::SurveyIndexedSweep, b, || {
                ErrorMap::survey_indexed_with(
                    &lattice,
                    &field,
                    &*model,
                    cfg.policy,
                    &mut scratch.survey,
                )
            }),
            Sweep::BruteForce => {
                ErrorMap::survey_point_major(&lattice, &field, &*model, cfg.policy)
            }
        };
        tr.count_heard(b, &map);
        let sample = tr.time(Layer::SurveyStats, b, || TrialSample {
            mean: map.mean_error(),
            median: scratch.survey.median_error(&map),
            unheard_fraction: map.unheard_count() as f64 / map.len() as f64,
        });
        tr.time(Layer::SimGlue, b, || scratch.survey.recycle(map));
        sample
    })
}

/// `fault_robustness::run_trial`, recomposed from its public calls.
fn fault_trial(
    tr: &mut Tracer,
    cfg: &SimConfig,
    spec: &FaultSweepSpec,
    x: f64,
    seed: u64,
    sweep: Sweep,
) -> FaultTrialSample {
    let b = spec.beacons;
    let noise = 0.0;
    let schedule = tr.time(Layer::FaultCompile, b, || spec.plan_at(x).compile(seed));
    let field = tr.time(Layer::FieldGenerate, b, || {
        cfg.trial_field(spec.beacons, seed)
    });
    let model_seed = splitmix64(seed ^ 0x4E_01_5E);
    let lattice = cfg.lattice();
    let survey = |tr: &mut Tracer,
                  field: &abp_field::BeaconField,
                  model: &dyn abp_radio::Propagation| {
        let map = match sweep {
            Sweep::Production => tr.time(Layer::SurveyBeaconMajor, b, || {
                ErrorMap::survey(&lattice, field, model, cfg.policy)
            }),
            Sweep::BruteForce => ErrorMap::survey_point_major(&lattice, field, model, cfg.policy),
        };
        tr.count_heard(b, &map);
        map
    };

    let model0 = tr.time(Layer::SimGlue, b, || {
        cfg.model(noise * schedule.noise_multiplier(0), model_seed)
    });
    let faulty0 = schedule.wrap(&*model0, 0);
    let truth0 = survey(tr, &field, &faulty0);

    let walk = SurveyPlan::from_lattice(lattice);
    let mut robot = Robot::new(0.0, 0, splitmix64(seed ^ 0x0B07));
    let (view, _report) = tr.time(Layer::SurveyRobotWalk, b, || {
        robot.survey_faulty(&walk, &field, &faulty0, cfg.policy, schedule.gps())
    });
    tr.count_heard(b, &view);
    let accounting = tr.time(Layer::SurveyStats, b, || view.accounting());

    let model1 = tr.time(Layer::SimGlue, b, || {
        cfg.model(noise * schedule.noise_multiplier(1), model_seed)
    });
    let faulty1 = schedule.wrap(&*model1, 1);
    let before1_map = survey(tr, &field, &faulty1);
    let before1 = tr.time(Layer::SurveyStats, b, || before1_map.mean_error());
    let improvements = spec
        .algorithms
        .iter()
        .enumerate()
        .map(|(ai, &kind)| {
            let (algo, mut rng) = tr.time(Layer::SimGlue, b, || {
                (kind.build(cfg), algorithm_rng(seed, ai))
            });
            let pos = tr.time(placement_layer(kind), b, || {
                let sv = SurveyView {
                    map: &view,
                    field: &field,
                    model: &faulty0,
                };
                algo.propose(&sv, &mut rng)
            });
            let extended = tr.time(Layer::SimGlue, b, || {
                let mut extended = field.clone();
                extended.add_beacon(pos);
                extended
            });
            let after = survey(tr, &extended, &faulty1);
            before1 - tr.time(Layer::SurveyStats, b, || after.mean_error())
        })
        .collect();
    let error_mean = tr.time(Layer::SurveyStats, b, || truth0.mean_error());
    FaultTrialSample {
        error_mean,
        measured_fraction: accounting.measured_fraction(view.len()),
        improvements,
    }
}

impl Workload {
    fn trial_seed(&self, p: &Point, t: usize) -> u64 {
        self.cfg.trial_seed(p.di, t)
    }

    /// One trial recomposed from public calls.
    fn recomposed(&self, tr: &mut Tracer, p: &Point, t: usize, sweep: Sweep) -> TrialOut {
        let seed = self.trial_seed(p, t);
        match self.kind {
            Kind::Ideal => {
                TrialOut::Improvement(improvement_trial(tr, &self.cfg, p.beacons, seed, sweep))
            }
            Kind::Noisy => TrialOut::Density(density_trial(
                tr,
                &self.cfg,
                self.noises[p.group],
                p.beacons,
                seed,
                sweep,
            )),
            Kind::Fault => TrialOut::Fault(fault_trial(
                tr,
                &self.cfg,
                &self.specs[p.group],
                p.x,
                seed,
                sweep,
            )),
        }
    }

    /// The library's own `run_trial` for the same trial.
    fn library_trial(&self, p: &Point, t: usize) -> TrialOut {
        let seed = self.trial_seed(p, t);
        match self.kind {
            Kind::Ideal => TrialOut::Improvement(improvement::run_trial(
                &self.cfg,
                0.0,
                p.beacons,
                seed,
                &AlgorithmKind::PAPER,
            )),
            Kind::Noisy => TrialOut::Density(density_error::run_trial(
                &self.cfg,
                self.noises[p.group],
                p.beacons,
                seed,
            )),
            Kind::Fault => TrialOut::Fault(fault_robustness::run_trial(
                &self.cfg,
                0.0,
                &self.specs[p.group],
                p.x,
                seed,
            )),
        }
    }

    /// Empty figures with the library's ids and series names.
    fn figure_skeleton(&self) -> Vec<Figure> {
        let algos = |capital: bool| -> Vec<Series> {
            AlgorithmKind::PAPER
                .iter()
                .map(|k| {
                    let name = k.name();
                    let name = if capital {
                        name[..1].to_uppercase() + &name[1..]
                    } else {
                        name.to_string()
                    };
                    Series::new(name, Vec::new())
                })
                .collect()
        };
        match self.kind {
            Kind::Ideal => ["fig5-mean", "fig5-median"]
                .iter()
                .map(|id| Figure {
                    series: algos(true),
                    ..Figure::new(
                        *id,
                        "Improvement vs beacon density (Ideal)",
                        "density (/m^2)",
                        "m",
                    )
                })
                .collect(),
            Kind::Noisy => {
                let mut fig = noisy_figure();
                for &noise in &self.noises {
                    fig.series
                        .push(Series::new(noise_series_name(noise), Vec::new()));
                }
                vec![fig]
            }
            Kind::Fault => ["robustness-failure", "robustness-burst"]
                .iter()
                .map(|id| {
                    let mut series = vec![Series::new("Error", Vec::new())];
                    series.extend(algos(false));
                    Figure {
                        series,
                        ..Figure::new(*id, "Error and placement gains under faults", "x", "meters")
                    }
                })
                .collect(),
        }
    }

    /// Aggregates one density's trials into the figures, as the library's
    /// sweeps do (Welford moments, Student-t 95 % intervals).
    fn aggregate(&self, p: &Point, outs: &[TrialOut], figs: &mut [Figure]) {
        let ci =
            |w: &Welford| ConfidenceInterval::from_moments(w.mean(), w.sample_std(), w.count());
        let push = |fig: &mut Figure, s: usize, x: f64, w: &Welford| {
            fig.series[s].points.push(SeriesPoint { x, y: ci(w) })
        };
        match self.kind {
            Kind::Ideal => {
                for ai in 0..AlgorithmKind::PAPER.len() {
                    let (mut mean, mut med) = (Welford::new(), Welford::new());
                    for o in outs {
                        if let TrialOut::Improvement(s) = o {
                            mean.push(s[ai].mean);
                            med.push(s[ai].median);
                        }
                    }
                    push(&mut figs[0], ai, p.x, &mean);
                    push(&mut figs[1], ai, p.x, &med);
                }
            }
            Kind::Noisy => {
                let mut mean = Welford::new();
                for o in outs {
                    if let TrialOut::Density(s) = o {
                        mean.push(s.mean);
                    }
                }
                push(&mut figs[0], p.group, p.x, &mean);
            }
            Kind::Fault => {
                let n_algos = self.specs[p.group].algorithms.len();
                let mut error = Welford::new();
                let mut gains = vec![Welford::new(); n_algos];
                for o in outs {
                    if let TrialOut::Fault(s) = o {
                        error.push(s.error_mean);
                        for (w, &g) in gains.iter_mut().zip(&s.improvements) {
                            w.push(g);
                        }
                    }
                }
                let fig = &mut figs[p.group];
                push(fig, 0, p.x, &error);
                for (ai, w) in gains.iter().enumerate() {
                    push(fig, 1 + ai, p.x, w);
                }
            }
        }
    }
}

/// One replayed pass: outputs, figure hash, spans and accounting.
struct TracedPass {
    outputs: Vec<Vec<TrialOut>>,
    hash: u64,
    wall_ns: u64,
    spans: Vec<Span>,
    links_heard: u64,
    failed: u64,
}

/// Runs `n` trials over `workers` threads claiming indices in order, the
/// library runner's discipline. Returns outputs by index (panicked trials
/// are absent and counted), spans, and heard links.
fn traced_map(
    n: usize,
    workers: usize,
    origin: Instant,
    beacons: usize,
    f: impl Fn(&mut Tracer, usize) -> TrialOut + Sync,
) -> (Vec<TrialOut>, Vec<Span>, u64, u64) {
    let next = AtomicUsize::new(0);
    let per_worker: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|wk| {
                let (next, f) = (&next, &f);
                s.spawn(move || {
                    let mut tr = Tracer::new(origin, wk as u16);
                    let mut outs = Vec::new();
                    let mut failed = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let start = tr.now();
                        match catch_unwind(AssertUnwindSafe(|| f(&mut tr, i))) {
                            Ok(out) => outs.push((i, out)),
                            Err(_) => failed += 1,
                        }
                        let end = tr.now();
                        tr.record(Layer::Trial, beacons, start, end);
                    }
                    (outs, tr.spans, tr.links_heard, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked outside a trial"))
            .collect()
    });
    let mut outs = Vec::with_capacity(n);
    let mut spans = Vec::new();
    let (mut heard, mut failed) = (0, 0);
    for (o, s, h, f) in per_worker {
        outs.extend(o);
        spans.extend(s);
        heard += h;
        failed += f;
    }
    outs.sort_by_key(|(i, _)| *i);
    (
        outs.into_iter().map(|(_, o)| o).collect(),
        spans,
        heard,
        failed,
    )
}

fn traced_pass(w: &Workload, workers: usize) -> TracedPass {
    let origin = Instant::now();
    let mut main = Tracer::new(origin, MAIN);
    let mut figs = main.time(Layer::SimGlue, 0, || w.figure_skeleton());
    let mut spans = Vec::new();
    let mut outputs = Vec::new();
    let (mut links_heard, mut failed) = (0, 0);
    for p in w.points() {
        let (outs, s, heard, f) = traced_map(w.cfg.trials, workers, origin, p.beacons, |tr, t| {
            w.recomposed(tr, &p, t, Sweep::Production)
        });
        spans.extend(s);
        links_heard += heard;
        failed += f;
        main.time(Layer::SimGlue, 0, || w.aggregate(&p, &outs, &mut figs));
        outputs.push(outs);
    }
    let hash = main.time(Layer::SimReport, 0, || report(&figs));
    let wall_ns = main.now();
    spans.extend(main.spans);
    TracedPass {
        outputs,
        hash,
        wall_ns,
        spans,
        links_heard,
        failed,
    }
}

/// Library counters read around traced passes.
fn counters() -> [u64; 3] {
    [
        abp_placement::CANDIDATES_SCANNED.total(),
        abp_placement::CELLS_PRUNED.total(),
        abp_radio::metrics::LINKS_TESTED.total(),
    ]
}

/// The paper's §3.2 order for a layer's per-call cost against beacon
/// count, for the slope table.
fn predicted_order(layer: Layer) -> &'static str {
    match layer {
        Layer::PlacementRandom => "O(1): flat in beacons",
        Layer::PlacementMax => "O(PT): flat in beacons",
        Layer::PlacementGrid => "O(NG*PG): flat in beacons",
        _ => "O(PT*k), k beacons in reach: grows with beacons",
    }
}

/// Runs a batch workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = Workload::new(args);
    let workers = crate::workers();
    let per_pass = w.trials_per_pass();
    let mut out = Outcome::default();

    let setups = measure_setup(args, if args.tiny { 3 } else { 15 })?;

    // Warm-up pass, untimed: caches fill and per-worker scratch grows.
    let warm = BenchProbe::default();
    let expected = report(&library_pass(&w, &w.cfg, &warm));
    out.attempted += per_pass;
    out.failed += warm.failed.load(Ordering::Relaxed);

    let probe = BenchProbe::default();
    let mut walls = Vec::new();
    let mut repeat_ok = true;
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut counts = [0u64; 3];
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let hash = report(&library_pass(&w, &w.cfg, &probe));
        walls.push(t0.elapsed().as_secs_f64());
        repeat_ok &= hash == expected;
        out.attempted += per_pass;
        if args.trace {
            let before = counters();
            abp_trace::set_enabled(true);
            let pass = traced_pass(&w, workers);
            abp_trace::set_enabled(false);
            for (c, (a, b)) in counts.iter_mut().zip(counters().iter().zip(before)) {
                *c += a - b;
            }
            out.attempted += per_pass;
            out.failed += pass.failed;
            traced.push(pass);
        }
        if started.elapsed() >= args.seconds {
            break;
        }
    }
    out.failed += probe.failed.load(Ordering::Relaxed);
    let rss = crate::peak_rss_mb();

    // Correctness: every pass, the thread-count contract, the recorded
    // reference, and an independent brute-force oracle.
    out.check(
        "repeat_hash",
        repeat_ok,
        format!("{} timed passes hash to {expected:016x}", walls.len()),
    );
    let sequential = SimConfig {
        threads: 1,
        ..w.cfg.clone()
    };
    let seq_hash = report(&library_pass(&w, &sequential, &BenchProbe::default()));
    out.check(
        "sequential_hash",
        seq_hash == expected,
        format!("1 worker {seq_hash:016x} vs {workers} workers {expected:016x}"),
    );
    crate::check_reference(&mut out, args, expected);
    let points = w.points();
    let mut oracle_ok = true;
    let mut oracle_n = 0;
    let stride = if w.kind == Kind::Noisy { 3 } else { 1 };
    for p in points.iter().filter(|p| p.di % stride == 0) {
        let brute = w.recomposed(&mut Tracer::off(), p, 0, Sweep::BruteForce);
        oracle_ok &= same_bits(&brute, &w.library_trial(p, 0));
        oracle_n += 1;
    }
    out.check(
        "brute_force_oracle",
        oracle_ok,
        format!("{oracle_n} trials through the point-major sweep equal run_trial"),
    );

    let densities = points.len();
    let samples = probe.busy_ns.lock().expect("probe lock").len();
    let pass_ms: Vec<String> = walls.iter().map(|w| format!("{:.0}", w * 1e3)).collect();
    out.notes
        .push(format!("pass wall ms: {}", pass_ms.join(" ")));
    let wall = median(&walls);
    let trials_per_s = per_pass as f64 / wall;
    out.end_to_end = vec![
        metric("ops_per_s", trials_per_s, "1/s"),
        metric(
            "op_p50_us",
            probe.per_density_quantile_us(densities, 0.5),
            "us",
        ),
        metric(
            "op_p90_us",
            probe.per_density_quantile_us(densities, 0.9),
            "us",
        ),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    out.extra = vec![
        metric("trials_per_s", trials_per_s, "1/s"),
        metric(
            "trial_p99_us",
            probe.per_density_quantile_us(densities, 0.99),
            "us",
        ),
        metric("trials_per_pass", per_pass as f64, "count"),
        metric("passes", walls.len() as f64, "count"),
        metric("pass_wall_s", wall, "s"),
        metric("trial_samples", samples as f64, "count"),
        metric("workers", workers as f64, "count"),
    ];

    if args.trace {
        trace_metrics(args, &w, &mut out, &traced, &walls, counts, expected)?;
    }
    Ok(out)
}

/// Per-layer metrics, the identity and attribution gates, and the §3.2
/// slope table of a traced run.
fn trace_metrics(
    args: &Args,
    w: &Workload,
    out: &mut Outcome,
    traced: &[TracedPass],
    lib_walls: &[f64],
    counts: [u64; 3],
    expected: u64,
) -> Result<(), String> {
    let workers = crate::workers();
    let points = w.points();
    let first = &traced[0];
    let mut identical = first.outputs.len() == points.len();
    let mut compared = 0;
    for (p, outs) in points.iter().zip(&first.outputs) {
        identical &= outs.len() == w.cfg.trials;
        for (t, o) in outs.iter().enumerate() {
            identical &= same_bits(o, &w.library_trial(p, t));
            compared += 1;
        }
    }
    out.check(
        "traced_identity",
        identical,
        format!("{compared} replayed trials equal run_trial bit for bit"),
    );
    let hashes_ok = traced.iter().all(|t| t.hash == expected);
    out.check(
        "traced_figure_hash",
        hashes_ok,
        format!(
            "{} replayed passes hash to the library figure",
            traced.len()
        ),
    );

    let accs: Vec<Accounting> = traced
        .iter()
        .map(|t| Accounting::of(&t.spans, workers, t.wall_ns))
        .collect();
    let n_layers = Layer::LAYERS.len();
    let per_pass =
        |f: &dyn Fn(&Accounting) -> f64| -> f64 { median(&accs.iter().map(f).collect::<Vec<_>>()) };
    let mut per_layer = Vec::new();
    for k in 0..n_layers {
        let layer = Layer::LAYERS[k];
        let ms = per_pass(&|a| a.layer_ns[k] as f64 / 1e6);
        let calls = per_pass(&|a| a.layer_calls[k] as f64);
        let target = if layer == Layer::BenchCount {
            &mut out.extra
        } else {
            &mut per_layer
        };
        target.push(metric(format!("{}.ms", layer.name()), ms, "ms"));
        target.push(metric(format!("{}.calls", layer.name()), calls, "count"));
    }
    per_layer.push(metric(
        "sim.runner_idle.ms",
        per_pass(&|a| a.idle_ns() as f64 / 1e6),
        "ms",
    ));
    let capacity: u64 = accs.iter().map(|a| a.capacity_ns).sum();
    let unattributed: u64 = accs.iter().map(|a| a.unattributed_ns).sum();
    let unattributed_pct = 100.0 * unattributed as f64 / capacity.max(1) as f64;
    out.check(
        "unattributed_le_5pct",
        unattributed_pct <= 5.0,
        format!("{unattributed_pct:.3}% of workers x wall"),
    );
    let traced_wall = median(
        &traced
            .iter()
            .map(|t| t.wall_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    per_layer.push(metric("unattributed_pct", unattributed_pct, "%"));
    per_layer.push(metric(
        "trace_overhead_pct",
        100.0 * (traced_wall / median(lib_walls) - 1.0),
        "%",
    ));
    let passes = traced.len() as f64;
    let heard = median(
        &traced
            .iter()
            .map(|t| t.links_heard as f64)
            .collect::<Vec<_>>(),
    );
    let tested = counts[2] as f64 / passes;
    per_layer.push(metric(
        "placement.candidates_scanned",
        counts[0] as f64 / passes,
        "count",
    ));
    per_layer.push(metric(
        "placement.cells_pruned",
        counts[1] as f64 / passes,
        "count",
    ));
    per_layer.push(metric("radio.links_tested", tested, "count"));
    per_layer.push(metric("radio.links_heard", heard, "count"));
    per_layer.push(metric(
        "radio.link_hit_ratio",
        if tested > 0.0 { heard / tested } else { 0.0 },
        "ratio",
    ));

    // §3.2: per-call cost against beacon count.
    let all_spans: Vec<Span> = traced
        .iter()
        .flat_map(|t| t.spans.iter().copied())
        .collect();
    out.notes.push(format!(
        "{:<22} {:>7}  {:<48} per-call median us by beacons",
        "slope (log-log)", "fit", "paper"
    ));
    for layer in [
        Layer::PlacementRandom,
        Layer::PlacementMax,
        Layer::PlacementGrid,
        Layer::SurveyIndexedSweep,
    ] {
        let fit = trace::loglog_slope(&all_spans, layer);
        let slope = fit.as_ref().map_or(0.0, |(s, _)| *s);
        if let Some((s, pts)) = &fit {
            let by: Vec<String> = pts
                .iter()
                .map(|(b, ns)| format!("{b}:{:.1}", ns / 1e3))
                .collect();
            out.notes.push(format!(
                "{:<22} {:>7.3}  {:<48} {}",
                layer.name(),
                s,
                predicted_order(layer),
                by.join(" ")
            ));
        }
        per_layer.push(metric(format!("{}.slope", layer.name()), slope, "1"));
    }
    out.per_layer = crate::complete_per_layer(per_layer);

    let path = std::path::Path::new(crate::OUT_DIR).join(format!(
        "{}-seed{}{}-spans.csv",
        args.workload,
        args.seed,
        if args.tiny { "-tiny" } else { "" }
    ));
    std::fs::create_dir_all(crate::OUT_DIR).map_err(|e| format!("{e}"))?;
    let passes: Vec<Vec<Span>> = traced.iter().map(|t| t.spans.clone()).collect();
    trace::write_spans(&path, &passes).map_err(|e| format!("spans: {e}"))?;
    out.notes.push(format!("spans: {}", path.display()));
    Ok(())
}

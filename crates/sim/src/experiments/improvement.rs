//! Improvement from one added beacon (Figures 5, 7, 8, 9).
//!
//! The paper's central experiment: for each random field, survey the
//! terrain, let a placement algorithm choose where to add **one** beacon,
//! re-survey, and record
//!
//! * *Improvement in Mean Error* — mean LE before − mean LE after, and
//! * *Improvement in Median Error* — median LE before − median LE after,
//!
//! averaged over 1000 fields per density with 95 % confidence intervals.
//! All algorithms see the *same* fields and the same before-survey
//! (paired comparison), which is also how the experiment is parallelized:
//! one survey per trial, one incremental re-survey per algorithm.

use crate::config::{AlgorithmKind, SimConfig};
use crate::progress::{Ctx, TrialFailureReport};
use crate::runner::{parallel_map, parallel_try_map};
use abp_geom::splitmix64;
use abp_placement::SurveyView;
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::ErrorMap;
use bytes::{Buf, BufMut, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One density point of an algorithm's improvement curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImprovementPoint {
    /// Number of beacons in the initial field.
    pub beacons: usize,
    /// Deployment density, beacons per m².
    pub density: f64,
    /// Improvement in mean localization error (m), with 95 % CI.
    pub mean_improvement: ConfidenceInterval,
    /// Improvement in median localization error (m), with 95 % CI.
    pub median_improvement: ConfidenceInterval,
}

/// An algorithm's full improvement curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmImprovement {
    /// Which algorithm.
    pub algorithm: AlgorithmKind,
    /// One point per configured beacon count.
    pub points: Vec<ImprovementPoint>,
}

/// Raw per-trial, per-algorithm sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialImprovement {
    /// Mean-error improvement in this trial.
    pub mean: f64,
    /// Median-error improvement in this trial.
    pub median: f64,
}

/// Runs one trial: one shared survey, then each algorithm places its own
/// beacon on a private copy. Returns one sample per algorithm, in input
/// order.
///
/// The shared survey is the beacon-major production sweep, called as
/// `ErrorMap::survey_indexed_with` like `density_error::run_trial`, and
/// each private copy takes its beacon through `ErrorMap::add_beacon`,
/// which walks the same per-beacon rows.
pub fn run_trial(
    cfg: &SimConfig,
    noise: f64,
    beacons: usize,
    trial_seed: u64,
    algorithms: &[AlgorithmKind],
) -> Vec<TrialImprovement> {
    let field = cfg.trial_field(beacons, trial_seed);
    let model = cfg.model(noise, splitmix64(trial_seed ^ 0x4E_01_5E));
    let lattice = cfg.lattice();
    // The shared before-survey and all quantile selections run through
    // this worker's scratch. The per-algorithm `after` map stays a clone:
    // each algorithm mutates its own private copy.
    crate::scratch::with_trial_scratch(|scratch| {
        let before = ErrorMap::survey_indexed_with(
            &lattice,
            &field,
            &*model,
            cfg.policy,
            &mut scratch.survey,
        );
        let before_mean = before.mean_error();
        let before_median = scratch.survey.median_error(&before);
        let samples = algorithms
            .iter()
            .enumerate()
            .map(|(ai, kind)| {
                let algo = kind.build(cfg);
                let pos = {
                    let view = SurveyView {
                        map: &before,
                        field: &field,
                        model: &*model,
                    };
                    // Each algorithm gets an independent RNG stream so adding
                    // or reordering algorithms never shifts another's draw.
                    let mut rng =
                        StdRng::seed_from_u64(splitmix64(trial_seed ^ (ai as u64) << 17 ^ 0xA160));
                    algo.propose(&view, &mut rng)
                };
                let mut extended = field.clone();
                let id = extended.add_beacon(pos);
                let mut after = before.clone();
                after.add_beacon(extended.get(id).expect("just added"), &*model);
                TrialImprovement {
                    mean: before_mean - after.mean_error(),
                    median: before_median - scratch.survey.median_error(&after),
                }
            })
            .collect();
        scratch.survey.recycle(before);
        samples
    })
}

/// The name sweeps of this experiment report to probes and checkpoints.
pub const EXPERIMENT: &str = "improvement";

/// The outcome of a fault-tolerant improvement sweep: one curve per
/// algorithm plus a report for every trial that panicked. A failed trial
/// is dropped for *all* algorithms (the comparison stays paired).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One improvement curve per requested algorithm, in input order.
    pub curves: Vec<AlgorithmImprovement>,
    /// Every trial that panicked, in (density, trial) order.
    pub failures: Vec<TrialFailureReport>,
}

/// Runs the full density sweep at one noise level for a set of
/// algorithms. Deterministic in `cfg.seed`; parallel over trials. A
/// panicking trial aborts the whole run (the legacy contract); use
/// [`run_sweep`] to survive trial faults instead.
pub fn run(cfg: &SimConfig, noise: f64, algorithms: &[AlgorithmKind]) -> Vec<AlgorithmImprovement> {
    let outcome = run_sweep(cfg, noise, algorithms, Ctx::noop());
    if let Some(first) = outcome.failures.first() {
        panic!("{first}");
    }
    outcome.curves
}

/// Runs the full density sweep at one noise level, reporting progress to
/// `ctx.probe`, persisting each completed density to `ctx.checkpoint`
/// (when present), and surviving panicking trials.
pub fn run_sweep(
    cfg: &SimConfig,
    noise: f64,
    algorithms: &[AlgorithmKind],
    ctx: Ctx<'_>,
) -> SweepOutcome {
    run_sweep_with(cfg, noise, algorithms, ctx, run_trial)
}

/// [`run_sweep`] with a custom trial function — the fault-injection seam
/// for tests.
pub fn run_sweep_with<F>(
    cfg: &SimConfig,
    noise: f64,
    algorithms: &[AlgorithmKind],
    ctx: Ctx<'_>,
    trial: F,
) -> SweepOutcome
where
    F: Fn(&SimConfig, f64, usize, u64, &[AlgorithmKind]) -> Vec<TrialImprovement> + Sync,
{
    let mut curves: Vec<AlgorithmImprovement> = algorithms
        .iter()
        .map(|&algorithm| AlgorithmImprovement {
            algorithm,
            points: Vec::with_capacity(cfg.beacon_counts.len()),
        })
        .collect();
    let mut failures = Vec::new();
    let algo_tag: String = algorithms
        .iter()
        .map(|a| a.name())
        .collect::<Vec<_>>()
        .join("+");
    for (di, &beacons) in cfg.beacon_counts.iter().enumerate() {
        let key = format!("{EXPERIMENT}/noise={noise}/algos={algo_tag}/di={di}/beacons={beacons}");
        if let Some(entry) = ctx.checkpoint.and_then(|c| c.get(&key)) {
            if let Some((points, mut restored)) = decode_density_entry(&entry, algorithms.len()) {
                for f in &mut restored {
                    f.density_index = di;
                }
                ctx.probe
                    .sweep_done(EXPERIMENT, beacons, std::time::Duration::ZERO, true);
                for (curve, point) in curves.iter_mut().zip(points) {
                    curve.points.push(point);
                }
                failures.extend(restored);
                continue;
            }
        }
        ctx.probe.sweep_start(EXPERIMENT, beacons, cfg.trials);
        let started = Instant::now();
        let outcome = parallel_try_map(cfg.trials, cfg.threads, |t| {
            let _span = abp_trace::span!("trial.improvement");
            let begun = Instant::now();
            let sample = trial(cfg, noise, beacons, cfg.trial_seed(di, t), algorithms);
            ctx.probe.trial_done(begun.elapsed());
            sample
        });
        let sweep_failures: Vec<TrialFailureReport> = outcome
            .failures
            .into_iter()
            .map(|f| TrialFailureReport {
                experiment: EXPERIMENT,
                density_index: di,
                beacons,
                trial: f.index,
                seed: cfg.trial_seed(di, f.index),
                message: f.message,
            })
            .collect();
        for f in &sweep_failures {
            ctx.probe.trial_failed(f);
        }
        let samples: Vec<Vec<TrialImprovement>> =
            outcome.successes.into_iter().map(|(_, s)| s).collect();
        let mut density_points = Vec::with_capacity(algorithms.len());
        for ai in 0..algorithms.len() {
            let mut mean_w = Welford::new();
            let mut median_w = Welford::new();
            for trial in &samples {
                mean_w.push(trial[ai].mean);
                median_w.push(trial[ai].median);
            }
            density_points.push(ImprovementPoint {
                beacons,
                density: cfg.density_of(beacons),
                mean_improvement: ConfidenceInterval::from_moments(
                    mean_w.mean(),
                    mean_w.sample_std(),
                    mean_w.count(),
                ),
                median_improvement: ConfidenceInterval::from_moments(
                    median_w.mean(),
                    median_w.sample_std(),
                    median_w.count(),
                ),
            });
        }
        if let Some(ckpt) = ctx.checkpoint {
            if let Err(e) = ckpt.put(&key, encode_density_entry(&density_points, &sweep_failures)) {
                eprintln!(
                    "warning: checkpoint save to {} failed: {e}",
                    ckpt.path().display()
                );
            }
        }
        ctx.probe
            .sweep_done(EXPERIMENT, beacons, started.elapsed(), false);
        for (curve, point) in curves.iter_mut().zip(density_points) {
            curve.points.push(point);
        }
        failures.extend(sweep_failures);
    }
    SweepOutcome { curves, failures }
}

/// Encodes one completed density (one point per algorithm + failures);
/// floats as raw IEEE bits for bit-identical resume.
fn encode_density_entry(points: &[ImprovementPoint], failures: &[TrialFailureReport]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(16 + points.len() * 48);
    buf.put_u64(points.first().map_or(0, |p| p.beacons) as u64);
    buf.put_u32(points.len() as u32);
    for p in points {
        buf.put_f64(p.density);
        buf.put_f64(p.mean_improvement.estimate);
        buf.put_f64(p.mean_improvement.half_width);
        buf.put_f64(p.median_improvement.estimate);
        buf.put_f64(p.median_improvement.half_width);
    }
    buf.put_u32(failures.len() as u32);
    for f in failures {
        buf.put_u64(f.trial as u64);
        buf.put_u64(f.seed);
        buf.put_u32(f.message.len() as u32);
        buf.put_slice(f.message.as_bytes());
    }
    buf.freeze().to_vec()
}

fn decode_density_entry(
    raw: &[u8],
    n_algorithms: usize,
) -> Option<(Vec<ImprovementPoint>, Vec<TrialFailureReport>)> {
    let mut buf = raw;
    if buf.remaining() < 8 + 4 {
        return None;
    }
    let beacons = buf.get_u64() as usize;
    let n_points = buf.get_u32() as usize;
    if n_points != n_algorithms {
        return None;
    }
    let mut points = Vec::with_capacity(n_points);
    for _ in 0..n_points {
        if buf.remaining() < 5 * 8 {
            return None;
        }
        points.push(ImprovementPoint {
            beacons,
            density: buf.get_f64(),
            mean_improvement: ConfidenceInterval {
                estimate: buf.get_f64(),
                half_width: buf.get_f64(),
            },
            median_improvement: ConfidenceInterval {
                estimate: buf.get_f64(),
                half_width: buf.get_f64(),
            },
        });
    }
    if buf.remaining() < 4 {
        return None;
    }
    let n_failures = buf.get_u32();
    let mut failures = Vec::with_capacity(n_failures as usize);
    for _ in 0..n_failures {
        if buf.remaining() < 8 + 8 + 4 {
            return None;
        }
        let trial = buf.get_u64() as usize;
        let seed = buf.get_u64();
        let mlen = buf.get_u32() as usize;
        if buf.remaining() < mlen {
            return None;
        }
        let message = String::from_utf8(buf[..mlen].to_vec()).ok()?;
        buf = &buf[mlen..];
        failures.push(TrialFailureReport {
            experiment: EXPERIMENT,
            // Patched in by the caller from the checkpoint key.
            density_index: usize::MAX,
            beacons,
            trial,
            seed,
            message,
        });
    }
    if buf.remaining() != 0 {
        return None;
    }
    Some((points, failures))
}

/// One density point of a paired algorithm comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedPoint {
    /// Number of beacons in the initial field.
    pub beacons: usize,
    /// Deployment density, beacons per m².
    pub density: f64,
    /// 95 % CI of the per-field difference in mean-error improvement
    /// (first algorithm minus second). Excluding zero = significant.
    pub diff: ConfidenceInterval,
}

/// Paired comparison of two algorithms: both run on the *same* fields and
/// the per-field difference of their mean-error improvements is
/// aggregated ([`abp_stats::paired_diff_ci`]). Because the shared
/// field-to-field variance cancels, this resolves differences an order of
/// magnitude smaller than comparing the two marginal CIs — the rigorous
/// form of Figure 5's "Grid beats Max at low density" reading.
pub fn paired_comparison(
    cfg: &SimConfig,
    noise: f64,
    first: AlgorithmKind,
    second: AlgorithmKind,
) -> Vec<PairedPoint> {
    let algorithms = [first, second];
    cfg.beacon_counts
        .iter()
        .enumerate()
        .map(|(di, &beacons)| {
            let samples: Vec<Vec<TrialImprovement>> = parallel_map(cfg.trials, cfg.threads, |t| {
                run_trial(cfg, noise, beacons, cfg.trial_seed(di, t), &algorithms)
            });
            let a: Vec<f64> = samples.iter().map(|s| s[0].mean).collect();
            let b: Vec<f64> = samples.iter().map(|s| s[1].mean).collect();
            PairedPoint {
                beacons,
                density: cfg.density_of(beacons),
                diff: abp_stats::paired_diff_ci(&a, &b),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            trials: 16,
            beacon_counts: vec![30, 100, 240],
            ..SimConfig::tiny()
        }
    }

    #[test]
    fn grid_beats_random_at_low_density() {
        let curves = run(&cfg(), 0.0, &AlgorithmKind::PAPER);
        let random = &curves[0].points[0];
        let grid = &curves[2].points[0];
        assert!(
            grid.mean_improvement.estimate > random.mean_improvement.estimate,
            "grid {} must beat random {}",
            grid.mean_improvement.estimate,
            random.mean_improvement.estimate
        );
    }

    #[test]
    fn improvements_vanish_at_saturation() {
        let curves = run(&cfg(), 0.0, &[AlgorithmKind::Grid]);
        let low = curves[0].points[0].mean_improvement.estimate;
        let high = curves[0].points[2].mean_improvement.estimate;
        assert!(
            high < low * 0.5,
            "gains must shrink toward saturation (low {low}, high {high})"
        );
    }

    #[test]
    fn paired_trials_share_fields() {
        // Running algorithms together or separately yields identical
        // curves (same trial seeds, independent RNG streams).
        let c = cfg();
        let together = run(&c, 0.0, &AlgorithmKind::PAPER);
        let grid_alone = run(&c, 0.0, &[AlgorithmKind::Grid]);
        // Grid's stream index differs (ai=2 vs ai=0); deterministic
        // algorithms ignore the rng, so the curves must match exactly.
        assert_eq!(together[2].points, grid_alone[0].points);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut c = cfg();
        c.beacon_counts = vec![60];
        c.trials = 8;
        let a = run(&c, 0.3, &AlgorithmKind::PAPER);
        let mut c1 = c.clone();
        c1.threads = 1;
        let b = run(&c1, 0.3, &AlgorithmKind::PAPER);
        assert_eq!(a, b);
    }

    #[test]
    fn median_gains_are_smaller_than_mean_gains() {
        // Paper: "the improvements in median localization error are
        // relatively more modest... the algorithms are effective in fixing
        // a few hot spots".
        let curves = run(&cfg(), 0.0, &[AlgorithmKind::Grid]);
        let p = &curves[0].points[0];
        assert!(
            p.median_improvement.estimate <= p.mean_improvement.estimate,
            "median gain {} should not exceed mean gain {}",
            p.median_improvement.estimate,
            p.mean_improvement.estimate
        );
    }

    #[test]
    fn paired_comparison_resolves_the_crossover() {
        let c = SimConfig {
            trials: 40,
            beacon_counts: vec![30, 240],
            ..SimConfig::tiny()
        };
        let points = paired_comparison(&c, 0.0, AlgorithmKind::Grid, AlgorithmKind::Max);
        // Low density: Grid significantly ahead (CI excludes zero).
        assert!(
            points[0].diff.lo() > 0.0,
            "grid-max diff at low density: {}",
            points[0].diff
        );
        // Saturation: the difference collapses toward zero.
        assert!(points[1].diff.estimate.abs() < points[0].diff.estimate);
    }

    #[test]
    fn paired_comparison_antisymmetric() {
        let c = SimConfig {
            trials: 10,
            beacon_counts: vec![40],
            ..SimConfig::tiny()
        };
        // Deterministic algorithms ignore their RNG streams, so swapping
        // the order exactly negates the difference.
        let ab = paired_comparison(&c, 0.0, AlgorithmKind::Grid, AlgorithmKind::Max);
        let ba = paired_comparison(&c, 0.0, AlgorithmKind::Max, AlgorithmKind::Grid);
        assert!((ab[0].diff.estimate + ba[0].diff.estimate).abs() < 1e-12);
    }

    #[test]
    fn all_algorithm_kinds_run() {
        let mut c = cfg();
        c.beacon_counts = vec![40];
        c.trials = 4;
        let all = [
            AlgorithmKind::Random,
            AlgorithmKind::Max,
            AlgorithmKind::Grid,
            AlgorithmKind::WeightedGrid,
            AlgorithmKind::LocusBreak,
        ];
        let curves = run(&c, 0.3, &all);
        assert_eq!(curves.len(), 5);
        for curve in &curves {
            assert_eq!(curve.points.len(), 1);
            assert!(curve.points[0].mean_improvement.estimate.is_finite());
        }
    }

    #[test]
    fn injected_panic_keeps_comparison_paired() {
        let mut c = cfg();
        c.beacon_counts = vec![40];
        c.trials = 12;
        let algos = [AlgorithmKind::Grid, AlgorithmKind::Max];
        let bad = c.trial_seed(0, 3);
        let outcome = run_sweep_with(
            &c,
            0.0,
            &algos,
            Ctx::noop(),
            move |cfg, noise, beacons, seed, algorithms| {
                if seed == bad {
                    panic!("flaky trial");
                }
                run_trial(cfg, noise, beacons, seed, algorithms)
            },
        );
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].trial, 3);
        assert_eq!(outcome.failures[0].seed, bad);
        assert_eq!(outcome.curves.len(), 2);
        // The failed trial is dropped for *both* algorithms: each curve
        // aggregates the same 11 survivors.
        for curve in &outcome.curves {
            assert_eq!(curve.points.len(), 1);
            assert!(curve.points[0].mean_improvement.estimate.is_finite());
        }
    }

    #[test]
    fn checkpoint_restores_all_curves() {
        let mut c = cfg();
        c.beacon_counts = vec![40, 100];
        c.trials = 6;
        let algos = [AlgorithmKind::Grid, AlgorithmKind::Random];
        let full = run_sweep(&c, 0.0, &algos, Ctx::noop());

        let mut path = std::env::temp_dir();
        path.push(format!("abp-improvement-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ckpt = crate::checkpoint::SweepCheckpoint::open(&path, c.fingerprint()).unwrap();

        let probe = crate::progress::NoopProbe;
        let first = run_sweep(&c, 0.0, &algos, Ctx::new(&probe).with_checkpoint(&ckpt));
        assert_eq!(first.curves, full.curves);
        assert_eq!(ckpt.len(), 2);
        // Replay restores every density from the checkpoint, bit for bit.
        let replay = run_sweep(&c, 0.0, &algos, Ctx::new(&probe).with_checkpoint(&ckpt));
        assert_eq!(replay.curves, full.curves);
        // A different algorithm set must not see these entries.
        let other = run_sweep(
            &c,
            0.0,
            &[AlgorithmKind::Max],
            Ctx::new(&probe).with_checkpoint(&ckpt),
        );
        assert_eq!(other.curves.len(), 1);
        assert_eq!(ckpt.len(), 4, "the Max-only sweep adds its own entries");
        std::fs::remove_file(&path).unwrap();
    }
}

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
use crate::sweep::{self, Codec, Sweep};
use abp_geom::splitmix64;
use abp_placement::SurveyView;
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::ErrorMap;
use bytes::{Buf, BufMut, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

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
    // this worker's scratch. Each algorithm mutates a private after-map:
    // one clone of the baseline, reset from it in place per algorithm.
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
        let mut after = before.clone();
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
                if ai > 0 {
                    after.clone_from(&before);
                }
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
/// algorithms, reporting progress to `ctx.probe`, persisting each
/// completed density to `ctx.checkpoint` (when present), and surviving
/// panicking trials.
///
/// Deterministic in `cfg.seed`; parallel over trials. A failed trial
/// reaches `ctx.probe` and is listed in [`SweepOutcome::failures`].
pub fn run_sweep(
    cfg: &SimConfig,
    noise: f64,
    algorithms: &[AlgorithmKind],
    ctx: Ctx<'_>,
) -> SweepOutcome {
    run_sweep_with(cfg, noise, algorithms, ctx, run_trial)
}

/// [`run_sweep`] with a custom trial function — the fault-injection seam
/// for tests. `ctx.policy` retries and times out trials exactly as in
/// [`density_error::run_sweep_with`](crate::experiments::density_error::run_sweep_with).
pub fn run_sweep_with<F>(
    cfg: &SimConfig,
    noise: f64,
    algorithms: &[AlgorithmKind],
    ctx: Ctx<'_>,
    trial: F,
) -> SweepOutcome
where
    F: Fn(&SimConfig, f64, usize, u64, &[AlgorithmKind]) -> Vec<TrialImprovement>
        + Send
        + Sync
        + 'static,
{
    let algo_tag: String = algorithms
        .iter()
        .map(|a| a.name())
        .collect::<Vec<_>>()
        .join("+");
    let key = |di: usize| {
        format!(
            "{EXPERIMENT}/noise={noise}/algos={algo_tag}/di={di}/beacons={}",
            cfg.beacon_counts[di]
        )
    };
    let shared = algorithms.to_vec();
    let (densities, failures) = sweep::run(
        cfg,
        ctx,
        Sweep {
            codec: Some(Codec {
                key: &key,
                encode: &|points: &Vec<_>, buf| encode_points(points, buf),
                decode: &|buf| decode_points(buf, algorithms.len()),
            }),
            ..Sweep::new(EXPERIMENT, "trial.improvement", sweep::densities(cfg))
        },
        move |cfg, &beacons, seed| trial(cfg, noise, beacons, seed, &shared),
        |&beacons, samples| aggregate(cfg, beacons, algorithms.len(), samples),
    );
    SweepOutcome {
        curves: curves(algorithms, densities),
        failures,
    }
}

/// Reduces one density's trials to one point per algorithm.
pub(crate) fn aggregate(
    cfg: &SimConfig,
    beacons: usize,
    n_algorithms: usize,
    samples: &[Vec<TrialImprovement>],
) -> Vec<ImprovementPoint> {
    (0..n_algorithms)
        .map(|ai| {
            let mut mean_w = Welford::new();
            let mut median_w = Welford::new();
            for trial in samples {
                mean_w.push(trial[ai].mean);
                median_w.push(trial[ai].median);
            }
            ImprovementPoint {
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
            }
        })
        .collect()
}

/// Turns per-density points (one per algorithm) into one curve per
/// algorithm.
pub(crate) fn curves(
    algorithms: &[AlgorithmKind],
    densities: Vec<Vec<ImprovementPoint>>,
) -> Vec<AlgorithmImprovement> {
    let mut curves: Vec<AlgorithmImprovement> = algorithms
        .iter()
        .map(|&algorithm| AlgorithmImprovement {
            algorithm,
            points: Vec::with_capacity(densities.len()),
        })
        .collect();
    for points in densities {
        for (curve, point) in curves.iter_mut().zip(points) {
            curve.points.push(point);
        }
    }
    curves
}

/// One density's checkpoint bytes (one point per algorithm); floats as
/// raw IEEE bits for bit-identical resume.
fn encode_points(points: &[ImprovementPoint], buf: &mut BytesMut) {
    buf.put_u64(points.first().map_or(0, |p| p.beacons) as u64);
    buf.put_u32(points.len() as u32);
    for p in points {
        buf.put_f64(p.density);
        buf.put_f64(p.mean_improvement.estimate);
        buf.put_f64(p.mean_improvement.half_width);
        buf.put_f64(p.median_improvement.estimate);
        buf.put_f64(p.median_improvement.half_width);
    }
}

fn decode_points(buf: &mut &[u8], n_algorithms: usize) -> Option<Vec<ImprovementPoint>> {
    if buf.remaining() < 8 + 4 {
        return None;
    }
    let beacons = buf.get_u64() as usize;
    let n_points = buf.get_u32() as usize;
    if n_points != n_algorithms || buf.remaining() < n_points * 5 * 8 {
        return None;
    }
    let points = (0..n_points)
        .map(|_| ImprovementPoint {
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
        })
        .collect();
    Some(points)
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

/// The name paired comparisons report to probes.
const PAIRED_EXPERIMENT: &str = "paired-comparison";

/// Paired comparison of two algorithms: both run on the *same* fields and
/// the per-field difference of their mean-error improvements is
/// aggregated ([`abp_stats::paired_diff_ci`]). Because the shared
/// field-to-field variance cancels, this resolves differences an order of
/// magnitude smaller than comparing the two marginal CIs — the rigorous
/// form of Figure 5's "Grid beats Max at low density" reading.
///
/// Sweep and trial events go to `ctx.probe`; a failed trial drops out of
/// both algorithms' samples.
pub fn paired_comparison(
    cfg: &SimConfig,
    noise: f64,
    first: AlgorithmKind,
    second: AlgorithmKind,
    ctx: Ctx<'_>,
) -> Vec<PairedPoint> {
    let algorithms = [first, second];
    let sweep = Sweep::new(
        PAIRED_EXPERIMENT,
        "trial.paired_comparison",
        sweep::densities(cfg),
    );
    let trial = move |cfg: &SimConfig, &beacons: &usize, seed| {
        run_trial(cfg, noise, beacons, seed, &algorithms)
    };
    sweep::run(cfg, ctx, sweep, trial, |&beacons, samples| {
        let a: Vec<f64> = samples.iter().map(|s| s[0].mean).collect();
        let b: Vec<f64> = samples.iter().map(|s| s[1].mean).collect();
        PairedPoint {
            beacons,
            density: cfg.density_of(beacons),
            diff: abp_stats::paired_diff_ci(&a, &b),
        }
    })
    .0
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

    /// The sweep's curves; any failed trial fails the test.
    fn improvement_curves(
        cfg: &SimConfig,
        noise: f64,
        algorithms: &[AlgorithmKind],
    ) -> Vec<AlgorithmImprovement> {
        let outcome = run_sweep(cfg, noise, algorithms, Ctx::noop());
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        outcome.curves
    }

    #[test]
    fn grid_beats_random_at_low_density() {
        let curves = improvement_curves(&cfg(), 0.0, &AlgorithmKind::PAPER);
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
        let curves = improvement_curves(&cfg(), 0.0, &[AlgorithmKind::Grid]);
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
        let together = improvement_curves(&c, 0.0, &AlgorithmKind::PAPER);
        let grid_alone = improvement_curves(&c, 0.0, &[AlgorithmKind::Grid]);
        // Grid's stream index differs (ai=2 vs ai=0); deterministic
        // algorithms ignore the rng, so the curves must match exactly.
        assert_eq!(together[2].points, grid_alone[0].points);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut c = cfg();
        c.beacon_counts = vec![60];
        c.trials = 8;
        let a = improvement_curves(&c, 0.3, &AlgorithmKind::PAPER);
        let mut c1 = c.clone();
        c1.threads = 1;
        let b = improvement_curves(&c1, 0.3, &AlgorithmKind::PAPER);
        assert_eq!(a, b);
    }

    #[test]
    fn median_gains_are_smaller_than_mean_gains() {
        // Paper: "the improvements in median localization error are
        // relatively more modest... the algorithms are effective in fixing
        // a few hot spots".
        let curves = improvement_curves(&cfg(), 0.0, &[AlgorithmKind::Grid]);
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
        let points = paired_comparison(
            &c,
            0.0,
            AlgorithmKind::Grid,
            AlgorithmKind::Max,
            Ctx::noop(),
        );
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
        let ab = paired_comparison(
            &c,
            0.0,
            AlgorithmKind::Grid,
            AlgorithmKind::Max,
            Ctx::noop(),
        );
        let ba = paired_comparison(
            &c,
            0.0,
            AlgorithmKind::Max,
            AlgorithmKind::Grid,
            Ctx::noop(),
        );
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
        let curves = improvement_curves(&c, 0.3, &all);
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
    fn sweep_retries_flaky_trial_and_counts_it_exactly_once() {
        use crate::runner::RunPolicy;
        use std::time::Duration;
        let mut c = cfg();
        c.beacon_counts = vec![40];
        c.trials = 8;
        let algos = [AlgorithmKind::Grid, AlgorithmKind::Random];
        // Trial 5 panics on its first two attempts (identified by their
        // derived seeds) and succeeds on the third.
        let bad0 = c.retry_seed(0, 5, 0);
        let bad1 = c.retry_seed(0, 5, 1);
        let policy = RunPolicy {
            retries: 2,
            trial_timeout: None,
            backoff: Duration::from_millis(1),
        };
        let outcome = run_sweep_with(
            &c,
            0.0,
            &algos,
            Ctx::noop().with_policy(policy),
            move |cfg, noise, beacons, seed, algorithms| {
                if seed == bad0 || seed == bad1 {
                    panic!("flaky trial");
                }
                run_trial(cfg, noise, beacons, seed, algorithms)
            },
        );
        assert!(outcome.failures.is_empty(), "retries must absorb the fault");
        // Expected statistics: all trials at their attempt-0 seeds except
        // trial 5, which contributes its attempt-2 sample — exactly once.
        let samples: Vec<Vec<TrialImprovement>> = (0..8)
            .map(|t| {
                let seed = if t == 5 {
                    c.retry_seed(0, 5, 2)
                } else {
                    c.trial_seed(0, t)
                };
                run_trial(&c, 0.0, 40, seed, &algos)
            })
            .collect();
        assert_eq!(
            outcome.curves,
            curves(&algos, vec![aggregate(&c, 40, algos.len(), &samples)])
        );
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

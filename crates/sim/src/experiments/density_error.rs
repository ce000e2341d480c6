//! Mean localization error vs beacon density (Figures 4 and 6).
//!
//! For each beacon count the experiment generates `trials` independent
//! random fields, surveys each under the configured propagation model, and
//! aggregates the per-field mean (and median) localization error with
//! 95 % confidence intervals — exactly the procedure behind Figure 4
//! (ideal) and Figure 6 (noise 0.1/0.3/0.5).

use crate::config::SimConfig;
use crate::progress::{Ctx, TrialFailureReport};
use crate::report::Series;
use crate::sweep::{self, Codec, Sweep};
use abp_geom::splitmix64;
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::ErrorMap;
use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};

/// One density point of the error-vs-density curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DensityErrorPoint {
    /// Number of beacons deployed.
    pub beacons: usize,
    /// Deployment density, beacons per m².
    pub density: f64,
    /// Beacons per nominal radio coverage area (`density · πR²`).
    pub per_coverage: f64,
    /// Mean localization error over the terrain, averaged over trials.
    pub mean_error: ConfidenceInterval,
    /// Median localization error over the terrain, averaged over trials.
    pub median_error: ConfidenceInterval,
    /// Average fraction of lattice points hearing no beacon.
    pub unheard_fraction: f64,
}

/// Per-trial raw sample (exposed for tests and custom aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialSample {
    /// Mean localization error of this field.
    pub mean: f64,
    /// Median localization error of this field.
    pub median: f64,
    /// Fraction of lattice points hearing no beacon.
    pub unheard_fraction: f64,
}

/// Runs one trial: generate a field, survey it, summarize.
///
/// The survey is the beacon-major production sweep, run through this
/// worker thread's [`crate::TrialScratch`] so the steady-state trial loop
/// reuses the error-map grids and quantile workspace instead of
/// reallocating them. It is called as `ErrorMap::survey_indexed_with`,
/// the name the whole-run benchmark's replay (`perfbench`) also calls.
/// Results are **bit-identical** to the point-major oracle
/// `ErrorMap::survey_point_major` (every point accumulates its heard
/// beacons in ascending insertion order; asserted by
/// `four_sweeps_bit_identical` in `abp-survey`, at scale in
/// `tests/indexing.rs`, and by the figure digests in
/// `tests/figure_lock.rs`).
pub fn run_trial(cfg: &SimConfig, noise: f64, beacons: usize, trial_seed: u64) -> TrialSample {
    let field = cfg.trial_field(beacons, trial_seed);
    let model = cfg.model(noise, splitmix64(trial_seed ^ 0x4E_01_5E));
    let lattice = cfg.lattice();
    crate::scratch::with_trial_scratch(|scratch| {
        let map = ErrorMap::survey_indexed_with(
            &lattice,
            &field,
            &*model,
            cfg.policy,
            &mut scratch.survey,
        );
        let sample = TrialSample {
            mean: map.mean_error(),
            median: scratch.survey.median_error(&map),
            unheard_fraction: map.unheard_count() as f64 / map.len() as f64,
        };
        scratch.survey.recycle(map);
        sample
    })
}

/// The name sweeps of this experiment report to probes and checkpoints.
pub const EXPERIMENT: &str = "density-error";

/// The outcome of a fault-tolerant density sweep: one point per density
/// plus a report for every trial that panicked. Failed trials are simply
/// absent from the statistics (their density's CI reflects the surviving
/// sample count).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One aggregated point per configured beacon count.
    pub points: Vec<DensityErrorPoint>,
    /// Every trial that panicked, in (density, trial) order.
    pub failures: Vec<TrialFailureReport>,
}

/// Runs the full density sweep at one noise level, reporting progress to
/// `ctx.probe`, persisting each completed density to `ctx.checkpoint`
/// (when present), and surviving panicking trials.
///
/// Deterministic in `cfg.seed`, parallel over trials and thread-count
/// invariant. A failed trial reaches `ctx.probe` and is listed in
/// [`SweepOutcome::failures`]; callers that cannot tolerate one check
/// that list. With a checkpoint, densities completed by an earlier
/// interrupted run are restored bit for bit instead of recomputed.
pub fn run_sweep(cfg: &SimConfig, noise: f64, ctx: Ctx<'_>) -> SweepOutcome {
    run_sweep_with(cfg, noise, ctx, run_trial)
}

/// [`run_sweep`] with a custom trial function — the fault-injection seam:
/// tests substitute a trial that panics at a chosen index and assert the
/// sweep completes with the failure reported.
///
/// Under `ctx.policy`, failed attempts are retried with
/// [`SimConfig::retry_seed`]-derived seeds after exponential backoff, and
/// a watchdog abandons attempts exceeding the per-trial timeout (recorded
/// as structured timeouts). Healthy trials always run attempt 0 with the
/// plain trial seed, so a fault-free sweep is bit-identical under any
/// policy.
pub fn run_sweep_with<F>(cfg: &SimConfig, noise: f64, ctx: Ctx<'_>, trial: F) -> SweepOutcome
where
    F: Fn(&SimConfig, f64, usize, u64) -> TrialSample + Send + Sync + 'static,
{
    // The key carries the noise *style* as well as the level: callers
    // (e.g. the noise-style ablation) sweep styles within one run, and
    // the shared checkpoint must keep their entries apart.
    let key = |di: usize| {
        format!(
            "{EXPERIMENT}/style={}/noise={noise}/di={di}/beacons={}",
            cfg.noise_style, cfg.beacon_counts[di]
        )
    };
    let (points, failures) = sweep::run(
        cfg,
        ctx,
        Sweep {
            codec: Some(Codec {
                key: &key,
                encode: &encode_point,
                decode: &decode_point,
            }),
            ..Sweep::new(EXPERIMENT, "trial.density_error", sweep::densities(cfg))
        },
        move |cfg, &beacons, seed| trial(cfg, noise, beacons, seed),
        |&beacons, samples| aggregate(cfg, beacons, samples),
    );
    SweepOutcome { points, failures }
}

/// A density point's checkpoint bytes; floats travel as raw IEEE bits.
fn encode_point(point: &DensityErrorPoint, buf: &mut BytesMut) {
    buf.put_u64(point.beacons as u64);
    buf.put_f64(point.density);
    buf.put_f64(point.per_coverage);
    buf.put_f64(point.mean_error.estimate);
    buf.put_f64(point.mean_error.half_width);
    buf.put_f64(point.median_error.estimate);
    buf.put_f64(point.median_error.half_width);
    buf.put_f64(point.unheard_fraction);
}

fn decode_point(buf: &mut &[u8]) -> Option<DensityErrorPoint> {
    if buf.remaining() < 8 * 8 {
        return None;
    }
    Some(DensityErrorPoint {
        beacons: buf.get_u64() as usize,
        density: buf.get_f64(),
        per_coverage: buf.get_f64(),
        mean_error: ConfidenceInterval {
            estimate: buf.get_f64(),
            half_width: buf.get_f64(),
        },
        median_error: ConfidenceInterval {
            estimate: buf.get_f64(),
            half_width: buf.get_f64(),
        },
        unheard_fraction: buf.get_f64(),
    })
}

fn aggregate(cfg: &SimConfig, beacons: usize, samples: &[TrialSample]) -> DensityErrorPoint {
    let mut mean_w = Welford::new();
    let mut median_w = Welford::new();
    let mut unheard = 0.0;
    for s in samples {
        mean_w.push(s.mean);
        median_w.push(s.median);
        unheard += s.unheard_fraction;
    }
    DensityErrorPoint {
        beacons,
        density: cfg.density_of(beacons),
        per_coverage: cfg.per_coverage(beacons),
        mean_error: ConfidenceInterval::from_moments(
            mean_w.mean(),
            mean_w.sample_std(),
            mean_w.count(),
        ),
        median_error: ConfidenceInterval::from_moments(
            median_w.mean(),
            median_w.sample_std(),
            median_w.count(),
        ),
        unheard_fraction: unheard / samples.len().max(1) as f64,
    }
}

/// The *saturation beacon density*: the lowest density whose mean error is
/// within `tolerance` (relative) of the plateau (the sweep's minimum mean
/// error). The paper reads ≈ 0.01 /m² off Figure 4 and reports it growing
/// ≈ 50 % as noise rises to 0.5.
///
/// Returns `None` for an empty sweep.
pub fn saturation_density(points: &[DensityErrorPoint], tolerance: f64) -> Option<f64> {
    knee(
        points.iter().map(|p| (p.density, p.mean_error.estimate)),
        tolerance,
    )
}

/// [`saturation_density`] read off a density figure's series, whose
/// points carry each density and its mean-error CI (`fig4`, `fig6`).
pub fn series_saturation_density(series: &Series, tolerance: f64) -> Option<f64> {
    knee(series.points.iter().map(|p| (p.x, p.y.estimate)), tolerance)
}

/// The first `(density, mean error)` within `tolerance` of the minimum
/// mean error.
fn knee(points: impl Iterator<Item = (f64, f64)> + Clone, tolerance: f64) -> Option<f64> {
    let plateau = points.clone().map(|(_, e)| e).fold(f64::INFINITY, f64::min);
    points
        .into_iter()
        .find(|&(_, e)| e <= plateau * (1.0 + tolerance))
        .map(|(d, _)| d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            trials: 12,
            ..SimConfig::tiny()
        }
    }

    /// The sweep's points; any failed trial fails the test.
    fn density_points(cfg: &SimConfig, noise: f64) -> Vec<DensityErrorPoint> {
        let outcome = run_sweep(cfg, noise, Ctx::noop());
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        outcome.points
    }

    #[test]
    fn error_decreases_with_density() {
        let points = density_points(&cfg(), 0.0);
        assert_eq!(points.len(), 3);
        assert!(
            points[0].mean_error.estimate > points[1].mean_error.estimate,
            "20 beacons must be worse than 100"
        );
        assert!(
            points[1].mean_error.estimate > points[2].mean_error.estimate - 0.5,
            "100 -> 240 should plateau, not rise"
        );
        // Coverage improves too.
        assert!(points[0].unheard_fraction > points[2].unheard_fraction);
    }

    #[test]
    fn saturates_near_paper_value() {
        // With the paper's geometry, error at 240 beacons is a small
        // fraction of R even on a coarse lattice.
        let points = density_points(&cfg(), 0.0);
        let last = points.last().unwrap();
        assert!(
            last.mean_error.estimate < 0.5 * 15.0,
            "saturated error {} too high",
            last.mean_error.estimate
        );
    }

    #[test]
    fn noise_raises_error() {
        let mut c = cfg();
        c.beacon_counts = vec![100];
        let ideal = density_points(&c, 0.0)[0].mean_error.estimate;
        let noisy = density_points(&c, 0.5)[0].mean_error.estimate;
        assert!(
            noisy > ideal,
            "noise 0.5 must raise mean error ({ideal} -> {noisy})"
        );
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let mut c = cfg();
        c.beacon_counts = vec![60];
        c.trials = 10;
        let a = density_points(&c, 0.3);
        let b = density_points(&c, 0.3);
        assert_eq!(a, b);
        let mut c1 = c.clone();
        c1.threads = 1;
        let seq = density_points(&c1, 0.3);
        assert_eq!(a, seq, "results must not depend on thread count");
    }

    #[test]
    fn confidence_interval_shrinks_with_trials() {
        let mut few = cfg();
        few.beacon_counts = vec![60];
        few.trials = 6;
        let mut many = few.clone();
        many.trials = 48;
        let a = density_points(&few, 0.0)[0].mean_error.half_width;
        let b = density_points(&many, 0.0)[0].mean_error.half_width;
        assert!(b < a, "CI must shrink: {a} -> {b}");
    }

    #[test]
    fn saturation_density_detects_knee() {
        let points = vec![
            fake_point(20, 0.002, 20.0),
            fake_point(60, 0.006, 8.0),
            fake_point(100, 0.010, 4.2),
            fake_point(140, 0.014, 4.05),
            fake_point(240, 0.024, 4.0),
        ];
        let sat = saturation_density(&points, 0.1).unwrap();
        assert_eq!(sat, 0.010);
        assert!(saturation_density(&[], 0.1).is_none());
    }

    fn fake_point(beacons: usize, density: f64, mean: f64) -> DensityErrorPoint {
        DensityErrorPoint {
            beacons,
            density,
            per_coverage: 0.0,
            mean_error: ConfidenceInterval {
                estimate: mean,
                half_width: 0.1,
            },
            median_error: ConfidenceInterval::default(),
            unheard_fraction: 0.0,
        }
    }

    #[test]
    fn injected_panic_is_isolated_and_reported() {
        let mut c = cfg();
        c.beacon_counts = vec![60];
        c.trials = 16;
        let bad = c.trial_seed(0, 5);
        let outcome = run_sweep_with(&c, 0.0, Ctx::noop(), move |cfg, noise, beacons, seed| {
            if seed == bad {
                panic!("injected fault");
            }
            run_trial(cfg, noise, beacons, seed)
        });
        assert_eq!(outcome.points.len(), 1, "sweep must complete");
        assert_eq!(outcome.failures.len(), 1);
        let f = &outcome.failures[0];
        assert_eq!(f.experiment, EXPERIMENT);
        assert_eq!(f.density_index, 0);
        assert_eq!(f.beacons, 60);
        assert_eq!(f.trial, 5, "report must name the failing trial");
        assert_eq!(f.seed, bad, "report must name the derived seed");
        assert!(f.message.contains("injected fault"));
        // Survivor statistics must equal aggregating the 15 good trials.
        let survivors: Vec<TrialSample> = (0..16)
            .filter(|&t| t != 5)
            .map(|t| run_trial(&c, 0.0, 60, c.trial_seed(0, t)))
            .collect();
        assert_eq!(outcome.points[0], aggregate(&c, 60, &survivors));
    }

    #[test]
    fn supervised_healthy_sweep_is_bit_identical_to_plain() {
        use crate::runner::RunPolicy;
        use std::time::Duration;
        let mut c = cfg();
        c.beacon_counts = vec![60];
        c.trials = 8;
        let plain = run_sweep(&c, 0.2, Ctx::noop());
        let policy = RunPolicy {
            retries: 3,
            trial_timeout: Some(Duration::from_secs(120)),
            backoff: Duration::from_millis(1),
        };
        let supervised = run_sweep(&c, 0.2, Ctx::noop().with_policy(policy));
        assert_eq!(
            plain.points, supervised.points,
            "a fault-free sweep must not change under an active policy"
        );
        assert!(supervised.failures.is_empty());
    }

    #[test]
    fn sweep_retries_flaky_trial_and_counts_it_exactly_once() {
        use crate::runner::RunPolicy;
        use std::time::Duration;
        let mut c = cfg();
        c.beacon_counts = vec![60];
        c.trials = 12;
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
            Ctx::noop().with_policy(policy),
            move |cfg, noise, beacons, seed| {
                if seed == bad0 || seed == bad1 {
                    panic!("flaky trial");
                }
                run_trial(cfg, noise, beacons, seed)
            },
        );
        assert!(outcome.failures.is_empty(), "retries must absorb the fault");
        // Expected statistics: all trials at their attempt-0 seeds except
        // trial 5, which contributes its attempt-2 sample — exactly once.
        let samples: Vec<TrialSample> = (0..12)
            .map(|t| {
                let seed = if t == 5 {
                    c.retry_seed(0, 5, 2)
                } else {
                    c.trial_seed(0, t)
                };
                run_trial(&c, 0.0, 60, seed)
            })
            .collect();
        assert_eq!(outcome.points[0], aggregate(&c, 60, &samples));
    }

    #[test]
    fn sweep_reports_trial_that_exhausts_retries() {
        use crate::runner::RunPolicy;
        use std::time::Duration;
        let mut c = cfg();
        c.beacon_counts = vec![60];
        c.trials = 6;
        let victim: Vec<u64> = (0..2).map(|a| c.retry_seed(0, 2, a)).collect();
        let policy = RunPolicy {
            retries: 1,
            trial_timeout: None,
            backoff: Duration::from_millis(1),
        };
        let outcome = run_sweep_with(
            &c,
            0.0,
            Ctx::noop().with_policy(policy),
            move |cfg, noise, beacons, seed| {
                if victim.contains(&seed) {
                    panic!("always fails");
                }
                run_trial(cfg, noise, beacons, seed)
            },
        );
        assert_eq!(outcome.failures.len(), 1);
        let f = &outcome.failures[0];
        assert_eq!(f.trial, 2);
        assert_eq!(
            f.seed,
            c.retry_seed(0, 2, 1),
            "report must carry the final attempt's seed"
        );
        assert!(f.message.contains("always fails"));
        assert_eq!(outcome.points.len(), 1, "sweep still completes");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let mut c = cfg();
        c.beacon_counts = vec![20, 60];
        c.trials = 8;
        let noise = 0.1;
        let full = run_sweep(&c, noise, Ctx::noop());

        let mut path = std::env::temp_dir();
        path.push(format!("abp-density-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Simulate a run interrupted after the first density: seed the
        // checkpoint with only that entry, then resume the whole sweep.
        let ckpt = crate::checkpoint::SweepCheckpoint::open(&path, c.fingerprint()).unwrap();
        let key = format!(
            "{EXPERIMENT}/style={}/noise={noise}/di=0/beacons=20",
            c.noise_style
        );
        ckpt.put(
            &key,
            sweep::encode_entry(
                &mut BytesMut::with_capacity(80),
                &encode_point,
                &full.points[0],
                &[],
            ),
        )
        .unwrap();

        let probe = crate::progress::NoopProbe;
        let resumed = run_sweep(&c, noise, Ctx::new(&probe).with_checkpoint(&ckpt));
        assert_eq!(
            resumed.points, full.points,
            "resumed sweep must be bit-identical to the uninterrupted one"
        );
        assert_eq!(ckpt.len(), 2, "second density must have been persisted");

        // A third run restores everything from the checkpoint.
        let replay = run_sweep(&c, noise, Ctx::new(&probe).with_checkpoint(&ckpt));
        assert_eq!(replay.points, full.points);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exclude_policy_also_works() {
        let mut c = cfg();
        c.policy = abp_localize::UnheardPolicy::Exclude;
        c.beacon_counts = vec![100];
        let points = density_points(&c, 0.0);
        // Excluding unheard points yields bounded errors (≈ within R
        // plus multi-beacon centroid effects).
        assert!(points[0].mean_error.estimate < 15.0);
    }
}

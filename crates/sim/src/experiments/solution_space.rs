//! Solution-space density (paper §1, contribution 3).
//!
//! "The efficacy of algorithms ... designed to work in noisy environments
//! is predicated on the assumption that the solution space for the problem
//! must be dense in number of satisfying solutions. For instance, if the
//! only way to improve the quality of localization in a region by adding
//! an additional beacon is to place it at a single point in the region,
//! then it is difficult to design algorithms that can identify that point
//! in the presence of so much noise."
//!
//! The paper introduces the notion but never measures it. This experiment
//! does: for each random field it evaluates the improvement achieved by a
//! large sample of candidate placements and reports
//!
//! * the best sampled improvement (an empirical optimum),
//! * the *satisfying fraction* — how many candidates reduce the field's
//!   mean error by at least `threshold` (a fraction of the current mean
//!   error, so "satisfying" means a materially better localization
//!   field), and
//! * the fraction of candidates that improve at all.
//!
//! A high satisfying fraction at low beacon density is exactly why the
//! Grid algorithm works from noisy measurements; its collapse at high
//! density explains why no algorithm helps past saturation.

use crate::config::SimConfig;
use crate::progress::Ctx;
use crate::sweep::{self, Sweep};
use abp_geom::splitmix64;
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::ErrorMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One density point of the solution-space sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolutionSpacePoint {
    /// Number of beacons in the initial field.
    pub beacons: usize,
    /// Deployment density, beacons per m².
    pub density: f64,
    /// Best improvement among the sampled candidates (m).
    pub best_improvement: ConfidenceInterval,
    /// Fraction of candidates cutting the mean error by at least
    /// `threshold · (mean error before)`.
    pub satisfying_fraction: ConfidenceInterval,
    /// Fraction of candidates with strictly positive improvement.
    pub positive_fraction: ConfidenceInterval,
}

/// The name sweeps of this experiment report to probes.
const EXPERIMENT: &str = "solution-space";

/// Runs the sweep: `candidates` uniform-random placements per trial,
/// satisfaction threshold `threshold` (relative reduction of the field's
/// mean error; `0.02` = "cuts the error by 2 %"), reporting sweep and
/// trial events to `ctx.probe` and honouring `ctx.policy`.
///
/// # Panics
///
/// Panics, before any trial runs, if `candidates == 0` or `threshold` is
/// outside `(0, 1]`.
pub fn run(
    cfg: &SimConfig,
    noise: f64,
    candidates: usize,
    threshold: f64,
    ctx: Ctx<'_>,
) -> Vec<SolutionSpacePoint> {
    assert!(candidates > 0, "need at least one candidate");
    assert!(
        threshold > 0.0 && threshold <= 1.0,
        "threshold must be in (0, 1], got {threshold}"
    );
    let sweep = Sweep::new(EXPERIMENT, "trial.solution_space", sweep::densities(cfg));
    let trial = move |cfg: &SimConfig, &beacons: &usize, seed| {
        trial(cfg, noise, beacons, seed, candidates, threshold)
    };
    sweep::run(cfg, ctx, sweep, trial, |&beacons, samples| {
        let mut best_w = Welford::new();
        let mut sat_w = Welford::new();
        let mut pos_w = Welford::new();
        for &(best, sat, pos) in samples {
            best_w.push(best);
            sat_w.push(sat);
            pos_w.push(pos);
        }
        let ci =
            |w: &Welford| ConfidenceInterval::from_moments(w.mean(), w.sample_std(), w.count());
        SolutionSpacePoint {
            beacons,
            density: cfg.density_of(beacons),
            best_improvement: ci(&best_w),
            satisfying_fraction: ci(&sat_w),
            positive_fraction: ci(&pos_w),
        }
    })
    .0
}

fn trial(
    cfg: &SimConfig,
    noise: f64,
    beacons: usize,
    trial_seed: u64,
    candidates: usize,
    threshold: f64,
) -> (f64, f64, f64) {
    let field = cfg.trial_field(beacons, trial_seed);
    let model = cfg.model(noise, splitmix64(trial_seed ^ 0x4E_01_5E));
    let lattice = cfg.lattice();
    let before = ErrorMap::survey(&lattice, &field, &*model, cfg.policy);
    let before_mean = before.mean_error();
    let mut rng = StdRng::seed_from_u64(splitmix64(trial_seed ^ 0x50_15_AC));
    let terrain = cfg.terrain();

    let mut improvements = Vec::with_capacity(candidates);
    for _ in 0..candidates {
        let pos = terrain.point_at(rng.random::<f64>(), rng.random::<f64>());
        // Every candidate is evaluated as the *same* next beacon id (the
        // field is re-cloned), isolating the effect of position from the
        // new beacon's noise personality.
        let mut extended = field.clone();
        let id = extended.add_beacon(pos);
        let mut after = before.clone();
        after.add_beacon(extended.get(id).expect("just added"), &*model);
        improvements.push(before_mean - after.mean_error());
    }
    let best = improvements
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let positive = improvements.iter().filter(|&&v| v > 0.0).count() as f64 / candidates as f64;
    let bar = threshold * before_mean;
    let satisfying = improvements.iter().filter(|&&v| v >= bar).count() as f64 / candidates as f64;
    (best, satisfying, positive)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            trials: 10,
            beacon_counts: vec![30, 240],
            ..SimConfig::tiny()
        }
    }

    #[test]
    fn solution_space_is_denser_at_low_density() {
        let points = run(&cfg(), 0.0, 60, 0.02, Ctx::noop());
        let low = &points[0];
        let high = &points[1];
        assert!(
            low.satisfying_fraction.estimate > high.satisfying_fraction.estimate,
            "satisfying fraction should shrink with density: {} vs {}",
            low.satisfying_fraction.estimate,
            high.satisfying_fraction.estimate
        );
        assert!(low.best_improvement.estimate > high.best_improvement.estimate);
        assert!(low.positive_fraction.estimate > 0.5);
    }

    #[test]
    fn fractions_are_valid_probabilities() {
        let points = run(&cfg(), 0.3, 30, 0.02, Ctx::noop());
        for p in &points {
            assert!((0.0..=1.0).contains(&p.satisfying_fraction.estimate));
            assert!((0.0..=1.0).contains(&p.positive_fraction.estimate));
        }
    }

    #[test]
    fn deterministic() {
        let c = cfg();
        assert_eq!(
            run(&c, 0.0, 20, 0.02, Ctx::noop()),
            run(&c, 0.0, 20, 0.02, Ctx::noop())
        );
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_bad_threshold() {
        let _ = run(&cfg(), 0.0, 10, 0.0, Ctx::noop());
    }

    #[test]
    fn bad_arguments_panic_before_any_sweep_starts() {
        use crate::progress::Probe;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Starts(AtomicUsize);
        impl Probe for Starts {
            fn sweep_start(&self, _: &str, _: usize, _: usize) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let c = cfg();
        for (candidates, threshold) in [(0, 0.02), (10, 0.0), (10, 1.5), (10, f64::NAN)] {
            let starts = Starts::default();
            let run = catch_unwind(AssertUnwindSafe(|| {
                run(&c, 0.0, candidates, threshold, Ctx::new(&starts))
            }));
            assert!(run.is_err(), "{candidates} candidates at {threshold}");
            assert_eq!(starts.0.load(Ordering::Relaxed), 0);
        }
    }
}

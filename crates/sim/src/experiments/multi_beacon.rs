//! Several beacons at once (paper §6).
//!
//! "We also plan to evaluate the algorithms with respect to the gains
//! obtained when several beacons are added at once (instead of just one
//! beacon)." Two deployment strategies are compared as `k` grows:
//!
//! * **greedy** — propose, deploy, incrementally re-survey, repeat
//!   (`abp_placement::greedy_batch`): each beacon reacts to the previous
//!   ones but the robot must re-measure between drops;
//! * **one-shot** — rank the top `k` grids from a *single* survey
//!   (`GridPlacement::propose_top_k`): one pass, but the k-th beacon is
//!   blind to the first k−1.
//!
//! The gap between the curves prices the re-measurement passes.

use crate::config::SimConfig;
use crate::progress::Ctx;
use crate::sweep::{self, Point, Sweep};
use abp_geom::splitmix64;
use abp_placement::{greedy_batch, GridPlacement};
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::ErrorMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One `k` point of the strategy comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiBeaconPoint {
    /// Number of beacons added at once.
    pub k: usize,
    /// Total improvement in mean error from greedy placement.
    pub greedy: ConfidenceInterval,
    /// Total improvement in mean error from one-shot top-k placement.
    pub oneshot: ConfidenceInterval,
}

/// The name sweeps of this experiment report to probes.
const EXPERIMENT: &str = "multi-beacon";

/// Runs the comparison at one beacon count and noise level for each `k`,
/// reporting sweep and trial events to `ctx.probe` and honouring
/// `ctx.policy`.
///
/// # Panics
///
/// Panics, before any trial runs, if any `k` is zero or exceeds the Grid
/// algorithm's grid count.
pub fn run(
    cfg: &SimConfig,
    noise: f64,
    beacons: usize,
    ks: &[usize],
    ctx: Ctx<'_>,
) -> Vec<MultiBeaconPoint> {
    let grid = GridPlacement::new(cfg.terrain(), cfg.nominal_range, cfg.num_grids);
    let grids = grid.num_grids();
    if let Some(k) = ks.iter().find(|k| !(1..=grids).contains(*k)) {
        panic!("k must be in 1..={grids}, got {k}");
    }
    let points = ks.iter().map(|&k| Point { beacons, at: k }).collect();
    let sweep = Sweep::new(EXPERIMENT, "trial.multi_beacon", points);
    let trial = move |cfg: &SimConfig, &k: &usize, trial_seed| {
        let field = cfg.trial_field(beacons, trial_seed);
        let model = cfg.model(noise, splitmix64(trial_seed ^ 0x4E_01_5E));
        let lattice = cfg.lattice();
        let before = ErrorMap::survey(&lattice, &field, &*model, cfg.policy);
        let before_mean = before.mean_error();

        // Greedy with incremental re-surveys.
        let mut greedy_field = field.clone();
        let mut greedy_map = before.clone();
        let mut rng = StdRng::seed_from_u64(splitmix64(trial_seed ^ 0x6EED));
        greedy_batch(
            &grid,
            &mut greedy_map,
            &mut greedy_field,
            &*model,
            k,
            &mut rng,
        );
        let greedy_gain = before_mean - greedy_map.mean_error();

        // One-shot top-k from the single 'before' survey.
        let mut oneshot_field = field.clone();
        let mut oneshot_map = before.clone();
        for pos in grid.propose_top_k(&before, k) {
            let id = oneshot_field.add_beacon(pos);
            oneshot_map.add_beacon(oneshot_field.get(id).expect("just added"), &*model);
        }
        let oneshot_gain = before_mean - oneshot_map.mean_error();
        (greedy_gain, oneshot_gain)
    };
    sweep::run(cfg, ctx, sweep, trial, |&k, samples| {
        let mut g = Welford::new();
        let mut o = Welford::new();
        for &(gg, oo) in samples {
            g.push(gg);
            o.push(oo);
        }
        MultiBeaconPoint {
            k,
            greedy: ConfidenceInterval::from_moments(g.mean(), g.sample_std(), g.count()),
            oneshot: ConfidenceInterval::from_moments(o.mean(), o.sample_std(), o.count()),
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
            ..SimConfig::tiny()
        }
    }

    #[test]
    fn gains_grow_with_k() {
        let points = run(&cfg(), 0.0, 30, &[1, 4, 8], Ctx::noop());
        assert_eq!(points.len(), 3);
        assert!(points[2].greedy.estimate > points[0].greedy.estimate);
        assert!(points[2].oneshot.estimate > points[0].oneshot.estimate);
    }

    #[test]
    fn greedy_at_least_matches_oneshot() {
        let points = run(&cfg(), 0.0, 30, &[4, 8], Ctx::noop());
        for p in &points {
            assert!(
                p.greedy.estimate >= p.oneshot.estimate - p.oneshot.half_width,
                "k={}: greedy {} clearly lost to one-shot {}",
                p.k,
                p.greedy.estimate,
                p.oneshot.estimate
            );
        }
    }

    #[test]
    fn k_one_strategies_coincide() {
        // With a single beacon both strategies place at the same grid
        // center, so their gains are identical.
        let points = run(&cfg(), 0.0, 40, &[1], Ctx::noop());
        assert!(
            (points[0].greedy.estimate - points[0].oneshot.estimate).abs() < 1e-9,
            "{} vs {}",
            points[0].greedy.estimate,
            points[0].oneshot.estimate
        );
    }

    #[test]
    fn deterministic() {
        let c = cfg();
        assert_eq!(
            run(&c, 0.3, 30, &[2], Ctx::noop()),
            run(&c, 0.3, 30, &[2], Ctx::noop())
        );
    }

    #[test]
    fn out_of_range_k_panics_before_any_sweep_starts() {
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
        let mut c = cfg();
        c.trials = 2;
        let grids = GridPlacement::new(c.terrain(), c.nominal_range, c.num_grids).num_grids();
        for ks in [vec![1, 0], vec![2, grids + 1]] {
            let starts = Starts::default();
            let run = catch_unwind(AssertUnwindSafe(|| {
                run(&c, 0.0, 30, &ks, Ctx::new(&starts))
            }));
            assert!(run.is_err(), "ks {ks:?} must be rejected");
            assert_eq!(starts.0.load(Ordering::Relaxed), 0, "ks {ks:?}");
        }
    }
}

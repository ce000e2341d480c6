//! Beacon placement for multilateration-based localization (paper §6).
//!
//! "An interesting point of comparison are beacon placement algorithms
//! for multilateration based localization approaches, as the error
//! characteristics of the two are significantly different. In the former
//! approach, localization error is governed by beacon placement and
//! density, whereas in the latter approach, it is influenced by the
//! geometry of the beacon nodes. We plan to recast our existing beacon
//! placement algorithms for multilateration based localization
//! approaches."
//!
//! This experiment does the recast: the survey measures multilateration
//! error (least-squares from noisy ranges, falling back to the centroid
//! below three beacons), the same Random/Max/Grid algorithms consume the
//! resulting map, and the improvement metrics are recomputed under
//! multilateration. Because the localizer is not a centroid, the after-map
//! is a full re-survey rather than an incremental update.

use crate::config::{AlgorithmKind, SimConfig};
use crate::experiments::improvement::{self, AlgorithmImprovement, TrialImprovement};
use crate::progress::Ctx;
use crate::sweep::{self, Sweep};
use abp_geom::splitmix64;
use abp_localize::MultilaterationLocalizer;
use abp_placement::SurveyView;
use abp_survey::ErrorMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The name sweeps of this experiment report to probes.
const EXPERIMENT: &str = "multilateration";

/// Runs the multilateration placement sweep, reporting sweep and trial
/// events to `ctx.probe` and honouring `ctx.policy`.
///
/// `range_sigma` is the relative range-measurement error of the
/// multilateration localizer (see
/// [`MultilaterationLocalizer::new`]).
///
/// Warning: this is the workspace's most expensive experiment per trial —
/// the localizer runs Gauss–Newton at every lattice point, twice per
/// algorithm. Use coarse steps.
pub fn run(
    cfg: &SimConfig,
    range_sigma: f64,
    algorithms: &[AlgorithmKind],
    ctx: Ctx<'_>,
) -> Vec<AlgorithmImprovement> {
    let sweep = Sweep::new(
        EXPERIMENT,
        "trial.multilat_placement",
        sweep::densities(cfg),
    );
    let shared = algorithms.to_vec();
    let trial = move |cfg: &SimConfig, &beacons: &usize, seed| {
        run_trial(cfg, range_sigma, beacons, seed, &shared)
    };
    let densities = sweep::run(cfg, ctx, sweep, trial, |&beacons, samples| {
        improvement::aggregate(cfg, beacons, algorithms.len(), samples)
    });
    improvement::curves(algorithms, densities.0)
}

fn run_trial(
    cfg: &SimConfig,
    range_sigma: f64,
    beacons: usize,
    trial_seed: u64,
    algorithms: &[AlgorithmKind],
) -> Vec<TrialImprovement> {
    let field = cfg.trial_field(beacons, trial_seed);
    let model = cfg.model(0.0, splitmix64(trial_seed ^ 0x4E_01_5E));
    let lattice = cfg.lattice();
    let localizer =
        MultilaterationLocalizer::new(range_sigma, splitmix64(trial_seed ^ 0x31A7), cfg.policy);
    let before = ErrorMap::survey_with_localizer(&lattice, &field, &*model, &localizer);
    let before_mean = before.mean_error();
    let before_median = before.median_error();
    algorithms
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
                let mut rng =
                    StdRng::seed_from_u64(splitmix64(trial_seed ^ (ai as u64) << 17 ^ 0xA160));
                algo.propose(&view, &mut rng)
            };
            let mut extended = field.clone();
            extended.add_beacon(pos);
            let after = ErrorMap::survey_with_localizer(&lattice, &extended, &*model, &localizer);
            TrialImprovement {
                mean: before_mean - after.mean_error(),
                median: before_median - after.median_error(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            step: 10.0, // Gauss-Newton at every point: keep it coarse
            trials: 8,
            beacon_counts: vec![30, 160],
            ..SimConfig::tiny()
        }
    }

    #[test]
    fn placement_still_helps_multilateration_at_low_density() {
        let curves = run(&cfg(), 0.05, &[AlgorithmKind::Grid], Ctx::noop());
        let low = &curves[0].points[0];
        assert!(
            low.mean_improvement.estimate > 0.0,
            "grid placement should help multilateration too, got {}",
            low.mean_improvement.estimate
        );
    }

    #[test]
    fn gains_shrink_with_density_like_proximity() {
        let curves = run(&cfg(), 0.05, &[AlgorithmKind::Grid], Ctx::noop());
        let low = curves[0].points[0].mean_improvement.estimate;
        let high = curves[0].points[1].mean_improvement.estimate;
        assert!(
            high < low,
            "gains must shrink with density: {low} -> {high}"
        );
    }

    #[test]
    fn runs_all_paper_algorithms() {
        let mut c = cfg();
        c.beacon_counts = vec![40];
        c.trials = 4;
        let curves = run(&c, 0.05, &AlgorithmKind::PAPER, Ctx::noop());
        assert_eq!(curves.len(), 3);
        for curve in &curves {
            assert!(curve.points[0].mean_improvement.estimate.is_finite());
        }
    }

    #[test]
    fn deterministic() {
        let mut c = cfg();
        c.beacon_counts = vec![40];
        c.trials = 4;
        let a = run(&c, 0.05, &[AlgorithmKind::Max], Ctx::noop());
        let b = run(&c, 0.05, &[AlgorithmKind::Max], Ctx::noop());
        assert_eq!(a, b);
    }
}

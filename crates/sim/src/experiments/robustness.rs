//! Placement robustness to imperfect exploration (paper §3.1).
//!
//! The paper's evaluation assumes "complete terrain exploration and no
//! measurement noise" and leaves the generalization as ongoing work. This
//! experiment implements it: degrade the survey the placement algorithm
//! *sees* — by exploring only a fraction of the lattice, or by measuring
//! through a noisy GPS — then score the resulting placement against the
//! complete, noise-free truth:
//!
//! ```text
//! improvement(x) = mean LE(truth before) − mean LE(truth after placing
//!                  where the algorithm pointed, given the degraded view)
//! ```
//!
//! If the curve is flat, the algorithm is robust; where it collapses, the
//! paper's "solution space density" has run out (there are too few good
//! placements for a noisy view to still find one).

use crate::config::{AlgorithmKind, SimConfig};
use crate::progress::Ctx;
use crate::sweep::{self, Point, Sweep};
use abp_field::BeaconField;
use abp_geom::splitmix64;
use abp_placement::SurveyView;
use abp_radio::Propagation;
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::sampling::{survey_partial, SubsampleStrategy};
use abp_survey::{ErrorMap, Robot, SurveyPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One point of a robustness curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// The degradation parameter (exploration fraction, or GPS sigma in
    /// meters).
    pub x: f64,
    /// Improvement in true mean error achieved despite the degraded view.
    pub mean_improvement: ConfidenceInterval,
}

/// The name sweeps of this experiment report to probes.
pub const EXPERIMENT: &str = "robustness";

fn run_sweep(
    cfg: &SimConfig,
    beacons: usize,
    xs: &[f64],
    ctx: Ctx<'_>,
    degrade: fn(&SimConfig, f64, u64, &BeaconField, &dyn Propagation) -> ErrorMap,
) -> Vec<RobustnessPoint> {
    let points = xs.iter().map(|&x| Point { beacons, at: x }).collect();
    let sweep = Sweep::new(EXPERIMENT, "trial.robustness", points);
    let trial = move |cfg: &SimConfig, &x: &f64, trial_seed| {
        let field = cfg.trial_field(beacons, trial_seed);
        let model = cfg.model(0.0, splitmix64(trial_seed ^ 0x4E_01_5E));
        let lattice = cfg.lattice();
        let truth = ErrorMap::survey(&lattice, &field, &*model, cfg.policy);
        let view_map = degrade(cfg, x, trial_seed, &field, &*model);
        let algo = AlgorithmKind::Grid.build(cfg);
        let pos = {
            let view = SurveyView {
                map: &view_map,
                field: &field,
                model: &*model,
            };
            let mut rng = StdRng::seed_from_u64(splitmix64(trial_seed ^ 0xA160));
            algo.propose(&view, &mut rng)
        };
        let mut extended = field.clone();
        let id = extended.add_beacon(pos);
        let mut after = truth.clone();
        after.add_beacon(extended.get(id).expect("just added"), &*model);
        truth.mean_error() - after.mean_error()
    };
    sweep::run(cfg, ctx, sweep, trial, |&x, samples| {
        let w: Welford = samples.iter().copied().collect();
        RobustnessPoint {
            x,
            mean_improvement: ConfidenceInterval::from_moments(w.mean(), w.sample_std(), w.count()),
        }
    })
    .0
}

/// Sweeps the exploration fraction: the Grid algorithm sees only a random
/// `fraction` of the lattice measurements. Sweep and trial events go to
/// `ctx.probe`, and trials run under `ctx.policy`.
pub fn exploration_sweep_with(
    cfg: &SimConfig,
    beacons: usize,
    fractions: &[f64],
    ctx: Ctx<'_>,
) -> Vec<RobustnessPoint> {
    run_sweep(
        cfg,
        beacons,
        fractions,
        ctx,
        |cfg, fraction, trial_seed, field, model| {
            let lattice = cfg.lattice();
            let mut rng = StdRng::seed_from_u64(splitmix64(trial_seed ^ 0x5A3E));
            survey_partial(
                &lattice,
                field,
                model,
                cfg.policy,
                SubsampleStrategy::Random { fraction },
                &mut rng,
            )
        },
    )
}

/// Sweeps the GPS error: the Grid algorithm sees measurements taken by a
/// robot whose GPS has standard deviation `sigma` meters. Sweep and trial
/// events go to `ctx.probe`, and trials run under `ctx.policy`.
pub fn gps_noise_sweep_with(
    cfg: &SimConfig,
    beacons: usize,
    sigmas: &[f64],
    ctx: Ctx<'_>,
) -> Vec<RobustnessPoint> {
    run_sweep(
        cfg,
        beacons,
        sigmas,
        ctx,
        |cfg, sigma, trial_seed, field, model| {
            let plan = SurveyPlan::from_lattice(cfg.lattice());
            let mut robot = Robot::new(sigma, 0, splitmix64(trial_seed ^ 0x9B5));
            let (map, _) = robot.survey(&plan, field, model, cfg.policy);
            map
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            trials: 24,
            ..SimConfig::tiny()
        }
    }

    #[test]
    fn full_exploration_matches_baseline_improvement() {
        let c = cfg();
        let points = exploration_sweep_with(&c, 40, &[1.0], Ctx::noop());
        assert!(points[0].mean_improvement.estimate > 0.0);
    }

    #[test]
    fn grid_degrades_gracefully_with_sparse_exploration() {
        let c = cfg();
        let points = exploration_sweep_with(&c, 40, &[0.05, 0.25, 1.0], Ctx::noop());
        let sparse = points[0].mean_improvement.estimate;
        let full = points[2].mean_improvement.estimate;
        // Even 5% exploration retains a substantial share of the gain:
        // the solution space at low density is dense in good placements.
        assert!(
            sparse > 0.25 * full,
            "5% exploration kept only {sparse} of {full}"
        );
        // A quarter of the terrain is nearly as good as all of it.
        assert!(points[1].mean_improvement.estimate > 0.6 * full);
    }

    #[test]
    fn gps_noise_degrades_gracefully() {
        let c = cfg();
        let points = gps_noise_sweep_with(&c, 40, &[0.0, 2.0], Ctx::noop());
        let clean = points[0].mean_improvement.estimate;
        let noisy = points[1].mean_improvement.estimate;
        assert!(clean > 0.0);
        assert!(
            noisy > 0.5 * clean,
            "2 m GPS noise kept only {noisy} of {clean}"
        );
    }

    #[test]
    fn deterministic() {
        let c = cfg();
        let a = exploration_sweep_with(&c, 30, &[0.5], Ctx::noop());
        let b = exploration_sweep_with(&c, 30, &[0.5], Ctx::noop());
        assert_eq!(a, b);
    }
}

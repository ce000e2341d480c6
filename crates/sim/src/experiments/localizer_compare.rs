//! Localizer comparison: how much estimator sophistication buys.
//!
//! The paper fixes the centroid estimator and varies placement; its §2.2
//! footnote and §6 sketch richer estimators (full locus information,
//! multilateration). This experiment holds the fields fixed and varies
//! the estimator instead, answering the complementary question: at a
//! given beacon density, how much error comes from *placement* and how
//! much from the *estimator*?
//!
//! Compared: the paper's centroid, the distance-weighted centroid
//! (`gamma = 1`), the polygonal locus centroid, and least-squares
//! multilateration — all on identical fields under the ideal radio.

use crate::config::SimConfig;
use crate::progress::Ctx;
use crate::sweep::{self, Sweep};
use abp_geom::splitmix64;
use abp_localize::{
    CentroidLocalizer, Localizer, LocusLocalizer, MultilaterationLocalizer,
    WeightedCentroidLocalizer,
};
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::ErrorMap;
use serde::{Deserialize, Serialize};

/// Which localizers the comparison runs, in output order.
pub const LOCALIZER_NAMES: [&str; 4] =
    ["centroid", "weighted-centroid", "locus", "multilateration"];

/// One density point: mean error per localizer, paper order
/// ([`LOCALIZER_NAMES`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalizerPoint {
    /// Number of beacons.
    pub beacons: usize,
    /// Deployment density, beacons per m².
    pub density: f64,
    /// Mean localization error per localizer, indexed like
    /// [`LOCALIZER_NAMES`].
    pub mean_errors: Vec<ConfidenceInterval>,
}

/// The name sweeps of this experiment report to probes.
const EXPERIMENT: &str = "localizer-compare";

/// Runs the comparison, reporting sweep and trial events to `ctx.probe`
/// and honouring `ctx.policy`. `range_sigma` is the relative range-proxy
/// error given to the weighted-centroid and multilateration localizers
/// (`0` = perfect ranging — their best case).
///
/// Point-major surveys (the locus and multilateration localizers cannot
/// use the beacon-major sweep), so keep `cfg.step` coarse.
pub fn run(cfg: &SimConfig, range_sigma: f64, ctx: Ctx<'_>) -> Vec<LocalizerPoint> {
    let sweep = Sweep::new(EXPERIMENT, "trial.localizer_compare", sweep::densities(cfg));
    let trial = move |cfg: &SimConfig, &beacons: &usize, trial_seed| -> Vec<f64> {
        let field = cfg.trial_field(beacons, trial_seed);
        let model = cfg.model(0.0, splitmix64(trial_seed ^ 0x4E_01_5E));
        let lattice = cfg.lattice();
        let seed = splitmix64(trial_seed ^ 0x10CA_712E);
        let localizers: Vec<Box<dyn Localizer>> = vec![
            Box::new(CentroidLocalizer::new(cfg.policy)),
            Box::new(WeightedCentroidLocalizer::new(
                1.0,
                range_sigma,
                seed,
                cfg.policy,
            )),
            Box::new(LocusLocalizer::new(cfg.policy).with_arc_segments(32)),
            Box::new(MultilaterationLocalizer::new(range_sigma, seed, cfg.policy)),
        ];
        localizers
            .iter()
            .map(|loc| {
                ErrorMap::survey_with_localizer(&lattice, &field, &*model, loc.as_ref())
                    .mean_error()
            })
            .collect()
    };
    sweep::run(cfg, ctx, sweep, trial, |&beacons, samples| {
        let mut accs = vec![Welford::new(); LOCALIZER_NAMES.len()];
        for trial in samples {
            for (acc, &v) in accs.iter_mut().zip(trial) {
                acc.push(v);
            }
        }
        LocalizerPoint {
            beacons,
            density: cfg.density_of(beacons),
            mean_errors: accs
                .iter()
                .map(|w| ConfidenceInterval::from_moments(w.mean(), w.sample_std(), w.count()))
                .collect(),
        }
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            step: 10.0,
            trials: 6,
            beacon_counts: vec![40, 160],
            ..SimConfig::tiny()
        }
    }

    #[test]
    fn produces_all_localizers_and_sane_ordering() {
        let points = run(&cfg(), 0.0, Ctx::noop());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.mean_errors.len(), LOCALIZER_NAMES.len());
            for ci in &p.mean_errors {
                assert!(ci.estimate.is_finite() && ci.estimate >= 0.0);
            }
        }
        // At the denser field, perfect-range multilateration beats the
        // plain centroid decisively.
        let dense = &points[1];
        assert!(
            dense.mean_errors[3].estimate < dense.mean_errors[0].estimate,
            "multilateration {} should beat centroid {}",
            dense.mean_errors[3].estimate,
            dense.mean_errors[0].estimate
        );
        // The weighted centroid is no worse than the plain one.
        assert!(dense.mean_errors[1].estimate <= dense.mean_errors[0].estimate * 1.02);
    }

    #[test]
    fn every_localizer_improves_with_density() {
        let points = run(&cfg(), 0.0, Ctx::noop());
        for (k, _name) in LOCALIZER_NAMES.iter().enumerate() {
            assert!(
                points[1].mean_errors[k].estimate < points[0].mean_errors[k].estimate,
                "{} did not improve with density",
                LOCALIZER_NAMES[k]
            );
        }
    }

    #[test]
    fn deterministic() {
        let c = cfg();
        assert_eq!(run(&c, 0.05, Ctx::noop()), run(&c, 0.05, Ctx::noop()));
    }
}

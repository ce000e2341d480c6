//! The paper's Summary-of-Results claims (§4.3), verified end to end at a
//! reduced — but statistically meaningful — scale.
//!
//! Full-fidelity numbers (Table 1 scale) are produced by the `abp` CLI
//! and recorded in EXPERIMENTS.md; these tests pin the *qualitative*
//! findings so a regression in any substrate breaks CI.

use abp_sim::experiments::{density_error, improvement, overlap_bound};
use abp_sim::{AlgorithmKind, Ctx, SimConfig, TrialFailureReport};

/// Shared test configuration: paper geometry, coarse lattice, enough
/// trials for stable orderings.
fn cfg() -> SimConfig {
    SimConfig {
        step: 4.0,
        trials: 40,
        beacon_counts: vec![30, 70, 120, 240],
        threads: 0,
        ..SimConfig::paper()
    }
}

/// Fails the test if any trial of a sweep failed; returns `result`.
fn clean<T>(result: T, failures: &[TrialFailureReport]) -> T {
    assert!(failures.is_empty(), "failed trials: {failures:?}");
    result
}

/// §4.2: "the mean localization error falls sharply with increasing
/// beacon density ... and saturates".
#[test]
fn error_falls_sharply_then_saturates() {
    let sweep = density_error::run_sweep(&cfg(), 0.0, Ctx::noop());
    let points = clean(sweep.points, &sweep.failures);
    let e: Vec<f64> = points.iter().map(|p| p.mean_error.estimate).collect();
    assert!(e[0] > 2.0 * e[1], "no sharp initial fall: {e:?}");
    let tail_drop = e[2] - e[3];
    let head_drop = e[0] - e[1];
    assert!(tail_drop < head_drop * 0.2, "no saturation visible: {e:?}");
    // Saturated error is a small fraction of R (paper: ~0.3 R).
    assert!(e[3] < 0.5 * 15.0);
}

/// §4.3: "At low densities, the Grid algorithm has the potential for
/// significant improvements to the mean and median errors compared to the
/// Max or Random algorithms."
#[test]
fn grid_dominates_at_low_density() {
    // The grid-vs-max margin at one density is the noisiest statistic in
    // this file; 40 trials leaves it within sampling error of the 1.5x
    // threshold, so this test alone runs more trials.
    let sweep = improvement::run_sweep(
        &SimConfig {
            trials: 120,
            ..cfg()
        },
        0.0,
        &AlgorithmKind::PAPER,
        Ctx::noop(),
    );
    let curves = clean(sweep.curves, &sweep.failures);
    let low = 0; // 30 beacons = 0.003 / m^2
    let random = &curves[0].points[low];
    let max = &curves[1].points[low];
    let grid = &curves[2].points[low];
    assert!(
        grid.mean_improvement.estimate > 1.5 * max.mean_improvement.estimate,
        "grid {} vs max {}",
        grid.mean_improvement.estimate,
        max.mean_improvement.estimate
    );
    assert!(grid.mean_improvement.estimate > random.mean_improvement.estimate);
    assert!(grid.median_improvement.estimate >= max.median_improvement.estimate);
}

/// §4.2: "At very high beacon densities, the quality of localization is
/// saturated, and the performance of the three algorithms is about the
/// same" — all gains collapse toward zero.
#[test]
fn algorithms_converge_at_saturation() {
    let sweep = improvement::run_sweep(&cfg(), 0.0, &AlgorithmKind::PAPER, Ctx::noop());
    let curves = clean(sweep.curves, &sweep.failures);
    for curve in &curves {
        let at_saturation = curve.points.last().unwrap();
        assert!(
            at_saturation.mean_improvement.estimate.abs() < 0.3,
            "{:?} still improves {} m at 240 beacons",
            curve.algorithm,
            at_saturation.mean_improvement.estimate
        );
    }
}

/// §4.3: "When noise level is increased from 0 to 0.5, there is a steady
/// increase in both the mean localization error (up to 33%) and
/// saturation beacon density (up to 50%)."
#[test]
fn noise_raises_error_and_saturation_density() {
    let mut c = cfg();
    c.beacon_counts = vec![30, 70, 120, 170, 240];
    let ideal = density_error::run_sweep(&c, 0.0, Ctx::noop());
    let noisy = density_error::run_sweep(&c, 0.5, Ctx::noop());
    let ideal = clean(ideal.points, &ideal.failures);
    let noisy = clean(noisy.points, &noisy.failures);
    // Mean error rises at every density.
    for (i, n) in ideal.iter().zip(&noisy) {
        assert!(
            n.mean_error.estimate > i.mean_error.estimate,
            "noise did not raise error at {} beacons",
            i.beacons
        );
    }
    // And the rise at saturation is clearly resolved. (The paper reports
    // up to ~33%; the printed symmetric-u formula yields a steady but
    // milder ~5-7% — see EXPERIMENTS.md, "Interpreting the noise model".)
    let rel =
        noisy.last().unwrap().mean_error.estimate / ideal.last().unwrap().mean_error.estimate - 1.0;
    assert!(
        rel > 0.02,
        "only {:.1}% increase at saturation",
        rel * 100.0
    );
    // Saturation density does not decrease under noise.
    let sat_ideal = density_error::saturation_density(&ideal, 0.15).unwrap();
    let sat_noisy = density_error::saturation_density(&noisy, 0.15).unwrap();
    assert!(
        sat_noisy >= sat_ideal,
        "saturation density fell under noise: {sat_ideal} -> {sat_noisy}"
    );
}

/// §4.2.1: "The gains in both metrics with the Random algorithm are
/// somewhat unchanged with noise ... because noise is not an input in the
/// Random algorithm."
#[test]
fn random_is_insensitive_to_noise() {
    let mut c = cfg();
    c.beacon_counts = vec![70];
    c.trials = 80;
    let ideal = improvement::run_sweep(&c, 0.0, &[AlgorithmKind::Random], Ctx::noop());
    let noisy = improvement::run_sweep(&c, 0.5, &[AlgorithmKind::Random], Ctx::noop());
    let ideal = clean(ideal.curves, &ideal.failures);
    let noisy = clean(noisy.curves, &noisy.failures);
    let a = ideal[0].points[0].mean_improvement;
    let b = noisy[0].points[0].mean_improvement;
    // The confidence intervals overlap generously.
    let gap = (a.estimate - b.estimate).abs();
    assert!(
        gap < 2.0 * (a.half_width + b.half_width) + 0.15,
        "random moved under noise: {a} vs {b}"
    );
}

/// §4.2.1: "noise makes regions of moderate beacon densities more
/// improvable with the Grid algorithm".
///
/// This effect requires noise that actually degrades localization. The
/// paper's printed symmetric-`u` formula barely moves the error (speckle
/// averages out of centroids), so the claim is reproduced under the
/// loss-only reading of the noise model (`NoiseStyle::Lossy`, where
/// fading/shadowing only ever shortens reach) — see EXPERIMENTS.md,
/// "Interpreting the noise model".
#[test]
fn noise_makes_moderate_density_more_improvable_for_grid() {
    let mut c = cfg();
    c.beacon_counts = vec![70, 100]; // 0.007-0.01 / m^2: the moderate band
    c.trials = 120;
    c.noise_style = abp_radio::NoiseStyle::Lossy;
    let ideal = improvement::run_sweep(&c, 0.0, &[AlgorithmKind::Grid], Ctx::noop());
    let noisy = improvement::run_sweep(&c, 0.5, &[AlgorithmKind::Grid], Ctx::noop());
    let ideal = clean(ideal.curves, &ideal.failures);
    let noisy = clean(noisy.curves, &noisy.failures);
    let gain_sum = |curves: &[abp_sim::experiments::improvement::AlgorithmImprovement]| {
        curves[0]
            .points
            .iter()
            .map(|p| p.mean_improvement.estimate)
            .sum::<f64>()
    };
    let a = gain_sum(&ideal);
    let b = gain_sum(&noisy);
    assert!(
        b > a,
        "lossy noise should raise Grid's moderate-density gains: {a} -> {b}"
    );
}

/// §2.2: the centroid error bound under uniform placement — "for a range
/// overlap ratio of 1, the maximum error is bound by 0.5 d. This factor
/// falls off considerably (to 0.25 d) when the ratio increases to 4."
#[test]
fn overlap_bound_matches_section_2_2() {
    let points = overlap_bound::run(&overlap_bound::BoundConfig {
        step: 2.0,
        ratios: vec![1.0, 2.0, 3.0, 4.0],
        ..Default::default()
    });
    assert!(points[0].max_error_over_d <= 0.55);
    assert!(points[3].max_error_over_d <= 0.30);
    // Monotone non-increasing max error across the sweep.
    for w in points.windows(2) {
        assert!(
            w[1].max_error_over_d <= w[0].max_error_over_d + 0.02,
            "bound not monotone: {w:?}"
        );
    }
}

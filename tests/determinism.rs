//! Reproducibility guarantees: the whole pipeline is a pure function of
//! its seed, regardless of parallelism.

use abp_sim::experiments::{density_error, improvement};
use abp_sim::{figures, AlgorithmKind, Ctx, SimConfig};

fn small() -> SimConfig {
    SimConfig {
        step: 5.0,
        trials: 10,
        beacon_counts: vec![40, 160],
        ..SimConfig::paper()
    }
}

#[test]
fn figures_are_bit_identical_across_runs() {
    let cfg = small();
    let a = figures::fig4_with(&cfg, Ctx::noop());
    let b = figures::fig4_with(&cfg, Ctx::noop());
    assert_eq!(a.to_csv(), b.to_csv());

    let (a_mean, a_median) = figures::fig5_with(&cfg, Ctx::noop());
    let (b_mean, b_median) = figures::fig5_with(&cfg, Ctx::noop());
    assert_eq!(a_mean.to_csv(), b_mean.to_csv());
    assert_eq!(a_median.to_csv(), b_median.to_csv());
}

#[test]
fn thread_count_does_not_change_results() {
    let mut one = small();
    one.threads = 1;
    let mut three = small();
    three.threads = 3;
    let mut many = small();
    many.threads = 0; // all cores

    // Equal outcomes carry equal (empty) failure lists.
    let r1 = density_error::run_sweep(&one, 0.3, Ctx::noop());
    let r3 = density_error::run_sweep(&three, 0.3, Ctx::noop());
    let rn = density_error::run_sweep(&many, 0.3, Ctx::noop());
    assert!(r1.failures.is_empty(), "{:?}", r1.failures);
    assert_eq!(r1, r3);
    assert_eq!(r1, rn);

    let i1 = improvement::run_sweep(&one, 0.3, &AlgorithmKind::PAPER, Ctx::noop());
    let i3 = improvement::run_sweep(&three, 0.3, &AlgorithmKind::PAPER, Ctx::noop());
    assert!(i1.failures.is_empty(), "{:?}", i1.failures);
    assert_eq!(i1, i3);
}

#[test]
fn different_seeds_different_results() {
    let mut reseeded = small();
    reseeded.seed ^= 0xDEAD_BEEF;
    let a = density_error::run_sweep(&small(), 0.0, Ctx::noop());
    let b = density_error::run_sweep(&reseeded, 0.0, Ctx::noop());
    assert!(a.failures.is_empty() && b.failures.is_empty());
    assert_ne!(a.points, b.points);
}

#[test]
fn algorithm_set_composition_does_not_leak_randomness() {
    // Each algorithm gets its own RNG stream keyed by its position, so
    // the deterministic algorithms' curves are identical whether run
    // alone or alongside others.
    let cfg = small();
    let sweep = |algorithms: &[AlgorithmKind]| {
        let outcome = improvement::run_sweep(&cfg, 0.0, algorithms, Ctx::noop());
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        outcome.curves
    };
    let together = sweep(&AlgorithmKind::PAPER);
    let max_alone = sweep(&[AlgorithmKind::Max]);
    let grid_alone = sweep(&[AlgorithmKind::Grid]);
    assert_eq!(together[1].points, max_alone[0].points);
    assert_eq!(together[2].points, grid_alone[0].points);
}

#[test]
fn heatmap_demo_is_reproducible() {
    let cfg = SimConfig::tiny();
    assert_eq!(abp_sim::heatmap_demo(&cfg), abp_sim::heatmap_demo(&cfg));
}

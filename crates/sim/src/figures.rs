//! Named regenerators: one entry point per table/figure of the paper.
//!
//! Each figure has exactly one entry point, and it takes a [`Ctx`]
//! ([`Ctx::noop`] observes nothing): it runs the corresponding experiment
//! at the given [`SimConfig`], reports figure, sweep and trial events to
//! `ctx.probe`, runs trials under `ctx.policy`, checkpoints the density,
//! improvement and fault sweeps to `ctx.checkpoint`, and returns
//! render-ready [`Figure`]s (long-format CSV via [`Figure::to_csv`],
//! aligned text via [`Figure::render`]). A failed trial reaches
//! `ctx.probe`, and the figure aggregates the surviving trials. The
//! mapping to the paper is recorded in DESIGN.md; paper-vs-measured
//! outcomes live in EXPERIMENTS.md.

use crate::config::{AlgorithmKind, PaperConfig, SimConfig};
use crate::experiments::improvement::{AlgorithmImprovement, ImprovementPoint};
use crate::experiments::{
    density_error, fault_robustness, granularity, improvement, localizer_compare, multi_beacon,
    multilat_placement, net_sim, overlap_bound, robustness, solution_space,
};
use crate::progress::Ctx;
use crate::report::{Figure, Series, SeriesPoint};
use abp_stats::ConfidenceInterval;
use std::time::Instant;

/// Runs `body` bracketed by `figure_start`/`figure_done` probe events.
fn timed<T>(ctx: Ctx<'_>, id: &str, body: impl FnOnce() -> T) -> T {
    ctx.probe.figure_start(id);
    let started = Instant::now();
    let out = body();
    ctx.probe.figure_done(id, started.elapsed());
    out
}

/// Table 1 — the simulation parameters, rendered.
pub fn table1() -> String {
    PaperConfig.to_string()
}

/// Figure 1 — beacon density vs granularity of localization regions.
///
/// Quantified as a sweep of uniform `k × k` beacon grids: region count,
/// mean region size, and mean error per grid.
pub fn fig1_with(cfg: &SimConfig, per_sides: &[usize], ctx: Ctx<'_>) -> Figure {
    timed(ctx, "fig1", || {
        let rows = granularity::run_with(cfg, per_sides, ctx);
        let exact = |v: f64| ConfidenceInterval {
            estimate: v,
            half_width: 0.0,
        };
        Figure::new(
            "fig1",
            "Beacon density vs granularity of localization regions (uniform k x k grids, ideal radio)",
            "beacons",
            "regions / points-per-region / mean LE (m)",
        )
        .with_series(Series::new(
            "regions",
            rows.iter()
                .map(|r| SeriesPoint {
                    x: r.beacons as f64,
                    y: exact(r.regions as f64),
                })
                .collect(),
        ))
        .with_series(Series::new(
            "mean-region-size",
            rows.iter()
                .map(|r| SeriesPoint {
                    x: r.beacons as f64,
                    y: exact(r.mean_region_size),
                })
                .collect(),
        ))
        .with_series(Series::new(
            "mean-error",
            rows.iter()
                .map(|r| SeriesPoint {
                    x: r.beacons as f64,
                    y: exact(r.mean_error),
                })
                .collect(),
        ))
    })
}

fn density_series(cfg: &SimConfig, noise: f64, name: &str, ctx: Ctx<'_>) -> Series {
    // Failed trials were already reported through the probe; the series
    // aggregates the survivors.
    Series::new(
        name,
        density_error::run_sweep(cfg, noise, ctx)
            .points
            .iter()
            .map(|p| SeriesPoint {
                x: p.density,
                y: p.mean_error,
            })
            .collect(),
    )
}

/// A noise level's series name: `Ideal` at 0, else `Noise={noise}`.
fn noise_series_name(noise: f64) -> String {
    if noise == 0.0 {
        "Ideal".to_string()
    } else {
        format!("Noise={noise}")
    }
}

/// An improvement curve as its mean and median series, both named `name`.
fn improvement_series(name: String, curve: &AlgorithmImprovement) -> [Series; 2] {
    let points = |y: fn(&ImprovementPoint) -> ConfidenceInterval| {
        curve
            .points
            .iter()
            .map(|p| SeriesPoint {
                x: p.density,
                y: y(p),
            })
            .collect()
    };
    [
        Series::new(name.clone(), points(|p| p.mean_improvement)),
        Series::new(name, points(|p| p.median_improvement)),
    ]
}

/// Figure 4 — mean localization error vs beacon density under ideal
/// propagation.
pub fn fig4_with(cfg: &SimConfig, ctx: Ctx<'_>) -> Figure {
    timed(ctx, "fig4", || {
        Figure::new(
            "fig4",
            "Mean localization error vs beacon density (Ideal)",
            "density (/m^2)",
            "mean localization error (m)",
        )
        .with_series(density_series(cfg, 0.0, "Ideal", ctx))
    })
}

/// Figure 6 — mean localization error vs beacon density across the
/// paper's noise levels (0, 0.1, 0.3, 0.5).
pub fn fig6_with(cfg: &SimConfig, ctx: Ctx<'_>) -> Figure {
    timed(ctx, "fig6", || {
        let mut fig = Figure::new(
            "fig6",
            "Mean localization error vs beacon density (Noise)",
            "density (/m^2)",
            "mean localization error (m)",
        );
        for &noise in &PaperConfig::NOISE_LEVELS {
            fig.series
                .push(density_series(cfg, noise, &noise_series_name(noise), ctx));
        }
        fig
    })
}

/// Figure 5 — improvement in mean and median localization error vs beacon
/// density for Random, Max and Grid under ideal propagation. Returns the
/// (mean, median) figure pair.
pub fn fig5_with(cfg: &SimConfig, ctx: Ctx<'_>) -> (Figure, Figure) {
    timed(ctx, "fig5", || {
        let curves = improvement::run_sweep(cfg, 0.0, &AlgorithmKind::PAPER, ctx).curves;
        let mut mean_fig = Figure::new(
            "fig5-mean",
            "Improvement in mean error vs beacon density (Ideal)",
            "density (/m^2)",
            "improvement in mean error (m)",
        );
        let mut median_fig = Figure::new(
            "fig5-median",
            "Improvement in median error vs beacon density (Ideal)",
            "density (/m^2)",
            "improvement in median error (m)",
        );
        for curve in &curves {
            let [mean, median] = improvement_series(capitalized(curve.algorithm.name()), curve);
            mean_fig.series.push(mean);
            median_fig.series.push(median);
        }
        (mean_fig, median_fig)
    })
}

/// Figures 7, 8, 9 — one algorithm's improvement in mean and median error
/// across the paper's noise levels: Figure 7 is Random, 8 Max and 9 Grid;
/// other algorithms are accepted for ablations (`figx-*`).
pub fn fig_noise_with(cfg: &SimConfig, algorithm: AlgorithmKind, ctx: Ctx<'_>) -> (Figure, Figure) {
    let fig_id = match algorithm {
        AlgorithmKind::Random => "fig7",
        AlgorithmKind::Max => "fig8",
        AlgorithmKind::Grid => "fig9",
        AlgorithmKind::WeightedGrid => "figx-weighted-grid",
        AlgorithmKind::LocusBreak => "figx-locus-break",
    };
    timed(ctx, fig_id, || {
        let cap = capitalized(algorithm.name());
        let mut mean_fig = Figure::new(
            format!("{fig_id}-mean"),
            format!("Performance of the {cap} algorithm with Noise (mean error)"),
            "density (/m^2)",
            "improvement in mean error (m)",
        );
        let mut median_fig = Figure::new(
            format!("{fig_id}-median"),
            format!("Performance of the {cap} algorithm with Noise (median error)"),
            "density (/m^2)",
            "improvement in median error (m)",
        );
        for &noise in &PaperConfig::NOISE_LEVELS {
            let curves = improvement::run_sweep(cfg, noise, &[algorithm], ctx).curves;
            let [mean, median] = improvement_series(noise_series_name(noise), &curves[0]);
            mean_fig.series.push(mean);
            median_fig.series.push(median);
        }
        (mean_fig, median_fig)
    })
}

/// The §2.2 error-bound analysis: max and mean centroid error (as a
/// fraction of the beacon separation `d`) vs range-overlap ratio `R/d`.
pub fn bound_with(cfg: &overlap_bound::BoundConfig, ctx: Ctx<'_>) -> Figure {
    timed(ctx, "bound", || {
        let points = overlap_bound::run(cfg);
        let exact = |v: f64| ConfidenceInterval {
            estimate: v,
            half_width: 0.0,
        };
        Figure::new(
            "bound",
            "Centroid error vs range-overlap ratio R/d (uniform grid, interior)",
            "R/d",
            "error / d",
        )
        .with_series(Series::new(
            "max-error/d",
            points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.ratio,
                    y: exact(p.max_error_over_d),
                })
                .collect(),
        ))
        .with_series(Series::new(
            "mean-error/d",
            points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.ratio,
                    y: exact(p.mean_error_over_d),
                })
                .collect(),
        ))
    })
}

/// Ablation: the paper's three algorithms plus the workspace extensions
/// (weighted grid, locus-break), compared on mean-error improvement at one
/// noise level.
pub fn ablation_algorithms_with(cfg: &SimConfig, noise: f64, ctx: Ctx<'_>) -> Figure {
    timed(ctx, "ablation-algorithms", || {
        let all = [
            AlgorithmKind::Random,
            AlgorithmKind::Max,
            AlgorithmKind::Grid,
            AlgorithmKind::WeightedGrid,
            AlgorithmKind::LocusBreak,
        ];
        let mut fig = Figure::new(
            "ablation-algorithms",
            format!("All placement algorithms, improvement in mean error (noise {noise})"),
            "density (/m^2)",
            "improvement in mean error (m)",
        );
        for curve in &improvement::run_sweep(cfg, noise, &all, ctx).curves {
            let [mean, _] = improvement_series(capitalized(curve.algorithm.name()), curve);
            fig.series.push(mean);
        }
        fig
    })
}

/// Ablation: the three readings of the noise model's `u` draw
/// ([`abp_radio::NoiseStyle`]), compared on mean error vs density at one
/// noise level, with the ideal curve for reference. Documents the
/// noise-model interpretation question discussed in EXPERIMENTS.md.
pub fn ablation_noise_styles_with(cfg: &SimConfig, noise: f64, ctx: Ctx<'_>) -> Figure {
    use abp_radio::NoiseStyle;
    timed(ctx, "ablation-noise-styles", || {
        let mut fig = Figure::new(
            "ablation-noise-styles",
            format!("Noise-model readings, mean error vs density (noise {noise})"),
            "density (/m^2)",
            "mean localization error (m)",
        );
        fig.series.push(density_series(cfg, 0.0, "Ideal", ctx));
        for style in [
            NoiseStyle::Speckled,
            NoiseStyle::CoherentRadius,
            NoiseStyle::Lossy,
        ] {
            let mut styled = cfg.clone();
            styled.noise_style = style;
            fig.series
                .push(density_series(&styled, noise, &style.to_string(), ctx));
        }
        fig
    })
}

/// §3.1 generalization: Grid's improvement when it sees only a fraction
/// of the survey, and when measurements pass through a noisy GPS.
pub fn robustness_with(cfg: &SimConfig, beacons: usize, ctx: Ctx<'_>) -> (Figure, Figure) {
    let fractions = [0.02, 0.05, 0.1, 0.25, 0.5, 1.0];
    let sigmas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let to_points = |pts: &[robustness::RobustnessPoint]| {
        pts.iter()
            .map(|p| SeriesPoint {
                x: p.x,
                y: p.mean_improvement,
            })
            .collect()
    };
    let exploration = timed(ctx, "robustness-exploration", || {
        Figure::new(
            "robustness-exploration",
            format!("Grid improvement vs exploration fraction ({beacons} beacons, ideal radio)"),
            "fraction of lattice measured",
            "improvement in mean error (m)",
        )
        .with_series(Series::new(
            "Grid",
            to_points(&robustness::exploration_sweep_with(
                cfg, beacons, &fractions, ctx,
            )),
        ))
    });
    let gps = timed(ctx, "robustness-gps", || {
        Figure::new(
            "robustness-gps",
            format!("Grid improvement vs GPS error ({beacons} beacons, ideal radio)"),
            "GPS sigma (m)",
            "improvement in mean error (m)",
        )
        .with_series(Series::new(
            "Grid",
            to_points(&robustness::gps_noise_sweep_with(
                cfg, beacons, &sigmas, ctx,
            )),
        ))
    });
    (exploration, gps)
}

/// §6 future work: localization error and placement-algorithm ranking
/// under injected faults — permanent beacon death (first figure) and
/// Gilbert–Elliott burst loss (second figure), each layered with a light
/// survey-GPS outage.
pub fn faults_with(cfg: &SimConfig, beacons: usize, ctx: Ctx<'_>) -> (Figure, Figure) {
    let failure = fault_figure(
        cfg,
        &fault_robustness::FaultSweepSpec::failure_axis(beacons),
        "robustness-failure",
        format!("Error and placement gains vs beacon failure rate ({beacons} beacons)"),
        "fraction of beacons dead",
        ctx,
    );
    let burst = fault_figure(
        cfg,
        &fault_robustness::FaultSweepSpec::burst_axis(beacons),
        "robustness-burst",
        format!("Error and placement gains vs burst-loss intensity ({beacons} beacons)"),
        "stationary bad-state fraction",
        ctx,
    );
    (failure, burst)
}

fn fault_figure(
    cfg: &SimConfig,
    spec: &fault_robustness::FaultSweepSpec,
    id: &str,
    title: String,
    x_label: &str,
    ctx: Ctx<'_>,
) -> Figure {
    timed(ctx, id, || {
        let outcome = fault_robustness::run_sweep(cfg, 0.0, spec, ctx);
        let mut fig = Figure::new(id, title, x_label, "meters");
        fig.series.push(Series::new(
            "Error",
            outcome
                .points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.x,
                    y: p.mean_error,
                })
                .collect(),
        ));
        for (ai, kind) in spec.algorithms.iter().enumerate() {
            fig.series.push(Series::new(
                kind.name(),
                outcome
                    .points
                    .iter()
                    .map(|p| SeriesPoint {
                        x: p.x,
                        y: p.improvements[ai],
                    })
                    .collect(),
            ));
        }
        fig
    })
}

/// §1 contribution 3: the solution-space density sweep. `threshold` is
/// the relative error reduction that counts as "satisfying".
pub fn solution_space_with(
    cfg: &SimConfig,
    noise: f64,
    candidates: usize,
    threshold: f64,
    ctx: Ctx<'_>,
) -> Figure {
    timed(ctx, "solution-space", || {
        let points = solution_space::run(cfg, noise, candidates, threshold, ctx);
        let mut fig = Figure::new(
            "solution-space",
            format!(
                "Solution-space density (noise {noise}, {candidates} candidates, \
                 satisfying = -{:.0}% mean error)",
                threshold * 100.0
            ),
            "density (/m^2)",
            "fraction / meters",
        );
        fig.series.push(Series::new(
            "satisfying-fraction",
            points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.density,
                    y: p.satisfying_fraction,
                })
                .collect(),
        ));
        fig.series.push(Series::new(
            "positive-fraction",
            points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.density,
                    y: p.positive_fraction,
                })
                .collect(),
        ));
        fig.series.push(Series::new(
            "best-improvement (m)",
            points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.density,
                    y: p.best_improvement,
                })
                .collect(),
        ));
        fig
    })
}

/// §6 future work: gains from adding `k` beacons at once — greedy with
/// re-measurement vs one-shot top-k (Grid algorithm).
pub fn multi_beacon_with(
    cfg: &SimConfig,
    noise: f64,
    beacons: usize,
    ks: &[usize],
    ctx: Ctx<'_>,
) -> Figure {
    timed(ctx, "multi-beacon", || {
        let points = multi_beacon::run(cfg, noise, beacons, ks, ctx);
        let mut fig = Figure::new(
            "multi-beacon",
            format!("Adding k beacons at once ({beacons} initial beacons, noise {noise})"),
            "beacons added (k)",
            "total improvement in mean error (m)",
        );
        fig.series.push(Series::new(
            "greedy (re-measure)",
            points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.k as f64,
                    y: p.greedy,
                })
                .collect(),
        ));
        fig.series.push(Series::new(
            "one-shot top-k",
            points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.k as f64,
                    y: p.oneshot,
                })
                .collect(),
        ));
        fig
    })
}

/// Estimator ablation: mean error vs density for the paper's centroid,
/// the weighted centroid, the locus centroid, and multilateration, on
/// identical fields. Point-major surveys — keep the step coarse.
pub fn localizers_with(cfg: &SimConfig, range_sigma: f64, ctx: Ctx<'_>) -> Figure {
    timed(ctx, "localizers", || {
        let points = localizer_compare::run(cfg, range_sigma, ctx);
        let mut fig = Figure::new(
            "localizers",
            format!("Localizer comparison, mean error vs density (range sigma {range_sigma})"),
            "density (/m^2)",
            "mean localization error (m)",
        );
        for (k, name) in localizer_compare::LOCALIZER_NAMES.iter().enumerate() {
            fig.series.push(Series::new(
                *name,
                points
                    .iter()
                    .map(|p| SeriesPoint {
                        x: p.density,
                        y: p.mean_errors[k],
                    })
                    .collect(),
            ));
        }
        fig
    })
}

/// §6 future work: the paper's algorithms recast for multilateration
/// localization (mean-error improvement only; the median figure mirrors
/// it).
pub fn multilateration_with(cfg: &SimConfig, range_sigma: f64, ctx: Ctx<'_>) -> Figure {
    timed(ctx, "multilateration", || {
        let curves = multilat_placement::run(cfg, range_sigma, &AlgorithmKind::PAPER, ctx);
        let mut fig = Figure::new(
            "multilateration",
            format!("Improvement in mean error under multilateration (range sigma {range_sigma})"),
            "density (/m^2)",
            "improvement in mean error (m)",
        );
        for curve in &curves {
            let [mean, _] = improvement_series(capitalized(curve.algorithm.name()), curve);
            fig.series.push(mean);
        }
        fig
    })
}

/// Converts a net sweep's two metric streams into figure series.
fn net_series(outcome: &net_sim::NetSweepOutcome, primary: &str, secondary: &str) -> [Series; 2] {
    [
        Series::new(
            primary,
            outcome
                .points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.x,
                    y: p.primary,
                })
                .collect(),
        ),
        Series::new(
            secondary,
            outcome
                .points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.x,
                    y: p.secondary,
                })
                .collect(),
        ),
    ]
}

/// Time-domain axis 1 — localization error vs beacon interval `T`
/// (`abp-net` schedule surveyed through the §2.2 message-counting
/// oracle).
pub fn net_interval_with(cfg: &SimConfig, axes: &net_sim::NetAxes, ctx: Ctx<'_>) -> Figure {
    timed(ctx, net_sim::NET_INTERVAL, || {
        let outcome = net_sim::interval_sweep(cfg, axes, ctx);
        let [a, b] = net_series(&outcome, "mean-error (m)", "unheard-fraction");
        Figure::new(
            net_sim::NET_INTERVAL,
            format!(
                "Localization error vs beacon interval ({} beacons, listen {} s, CMthresh {})",
                axes.beacons, axes.interval.listen, axes.interval.cmthresh
            ),
            "beacon period T (s)",
            "mean localization error (m) / unheard fraction",
        )
        .with_series(a)
        .with_series(b)
    })
}

/// Time-domain axis 2 — collision rate vs beacon density on a contended
/// CSMA channel.
pub fn net_collisions_with(cfg: &SimConfig, axes: &net_sim::NetAxes, ctx: Ctx<'_>) -> Figure {
    timed(ctx, net_sim::NET_COLLISIONS, || {
        let outcome = net_sim::collision_sweep(cfg, axes, ctx);
        let [a, b] = net_series(&outcome, "collision-rate", "backoffs-per-message");
        Figure::new(
            net_sim::NET_COLLISIONS,
            format!(
                "Collision rate vs beacon density (period {} s, airtime {} ms)",
                axes.collision.period,
                axes.collision.airtime * 1e3
            ),
            "density (/m^2)",
            "fraction / count",
        )
        .with_series(a)
        .with_series(b)
    })
}

/// Time-domain axis 3 — network lifetime vs receiver duty cycle on a
/// finite battery.
pub fn net_lifetime_with(cfg: &SimConfig, axes: &net_sim::NetAxes, ctx: Ctx<'_>) -> Figure {
    timed(ctx, net_sim::NET_LIFETIME, || {
        let outcome = net_sim::lifetime_sweep(cfg, axes, ctx);
        let [a, b] = net_series(&outcome, "first-death (s)", "alive-fraction");
        Figure::new(
            net_sim::NET_LIFETIME,
            format!(
                "Network lifetime vs duty cycle ({} beacons, battery {} J)",
                axes.beacons, axes.lifetime.battery
            ),
            "receiver duty cycle",
            "seconds / fraction",
        )
        .with_series(a)
        .with_series(b)
    })
}

fn capitalized(name: &str) -> String {
    let mut chars = name.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            trials: 6,
            beacon_counts: vec![30, 120, 240],
            ..SimConfig::tiny()
        }
    }

    #[test]
    fn table1_contains_parameters() {
        let t = table1();
        assert!(t.contains("Side"));
        assert!(t.contains("400"));
    }

    #[test]
    fn fig1_has_three_series() {
        let fig = fig1_with(&cfg(), &[2, 3], Ctx::noop());
        assert_eq!(fig.series.len(), 3);
        assert_eq!(fig.series[0].points.len(), 2);
        assert!(fig.to_csv().contains("fig1,regions,4,"));
    }

    #[test]
    fn fig4_shape() {
        let fig = fig4_with(&cfg(), Ctx::noop());
        assert_eq!(fig.series.len(), 1);
        let pts = &fig.series[0].points;
        assert_eq!(pts.len(), 3);
        assert!(pts[0].y.estimate > pts[2].y.estimate, "error must fall");
    }

    #[test]
    fn fig5_pair_has_paper_algorithms() {
        let (mean_fig, median_fig) = fig5_with(&cfg(), Ctx::noop());
        let names: Vec<&str> = mean_fig.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["Random", "Max", "Grid"]);
        assert_eq!(median_fig.series.len(), 3);
    }

    #[test]
    fn fig_noise_ids_match_paper() {
        let mut c = cfg();
        c.beacon_counts = vec![60];
        c.trials = 3;
        let (mean_fig, median_fig) = fig_noise_with(&c, AlgorithmKind::Random, Ctx::noop());
        assert_eq!(mean_fig.id, "fig7-mean");
        assert_eq!(median_fig.id, "fig7-median");
        assert_eq!(mean_fig.series.len(), 4); // 4 noise levels
    }

    #[test]
    fn fig4_with_records_metrics() {
        let c = cfg();
        let recorder = crate::progress::MetricsRecorder::new(c.threads.max(1));
        let fig = fig4_with(&c, Ctx::new(&recorder));
        assert_eq!(fig.series.len(), 1);
        let metrics = recorder.figures();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].figure, "fig4");
        // 3 densities × 6 trials, all observed.
        assert_eq!(metrics[0].trials, 18);
        assert_eq!(metrics[0].failures, 0);
        assert!(metrics[0].trials_per_sec > 0.0);
        let json = recorder.report("fig4", &c);
        assert!(json.contains("\"figure\": \"fig4\""));
        assert!(json.contains("\"trials\": 18"));
    }

    #[test]
    fn net_figures_have_two_series_each() {
        let mut c = cfg();
        c.trials = 2;
        c.beacon_counts = vec![60];
        let mut axes = crate::experiments::net_sim::NetAxes::for_config(&c);
        axes.interval.duration = 4.0;
        axes.collision.duration = 4.0;
        axes.lifetime.duration = 6.0;
        axes.lifetime.battery = 0.012;
        axes.periods = vec![0.5, 2.0];
        axes.duty_cycles = vec![0.5, 1.0];
        let fig_i = net_interval_with(&c, &axes, Ctx::noop());
        assert_eq!(fig_i.id, "net-interval");
        assert_eq!(fig_i.series.len(), 2);
        assert_eq!(fig_i.series[0].points.len(), 2);
        let fig_c = net_collisions_with(&c, &axes, Ctx::noop());
        assert_eq!(fig_c.id, "net-collisions");
        assert_eq!(fig_c.series.len(), 2);
        let fig_l = net_lifetime_with(&c, &axes, Ctx::noop());
        assert_eq!(fig_l.id, "net-lifetime");
        assert!(fig_l.to_csv().contains("net-lifetime,first-death (s),"));
    }

    #[test]
    fn bound_figure_series() {
        let bc = overlap_bound::BoundConfig {
            step: 2.0,
            ratios: vec![1.0, 4.0],
            ..Default::default()
        };
        let fig = bound_with(&bc, Ctx::noop());
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 2);
    }
}

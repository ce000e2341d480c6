//! Time-domain experiments on the `abp-net` discrete-event simulator.
//!
//! Three new axes the timeless oracle predicate could never measure:
//!
//! * **localization error vs beacon interval** ([`interval_sweep`]) — how
//!   the §2.2 message-counting rule degrades localization as the
//!   beaconing period `T` grows against a fixed listen window `t` and
//!   `CMthresh`,
//! * **collision rate vs beacon density** ([`collision_sweep`]) — what
//!   fraction of in-range receptions the MAC loses to interference as
//!   deployments densify (hidden terminals included),
//! * **network lifetime vs duty cycle** ([`lifetime_sweep`]) — how
//!   receiver duty cycling stretches time-to-first-death on a finite
//!   battery.
//!
//! Each sweep is deterministic in `cfg.seed` and thread-count invariant,
//! reports progress through the standard [`Ctx`] probe, and survives
//! failing trials exactly like the density sweep (failed trials are
//! reported and excluded from the statistics, and `ctx.policy` retries
//! and times them out).

use crate::config::SimConfig;
use crate::progress::{Ctx, TrialFailureReport};
use crate::sweep::{self, Point, Sweep};
use abp_geom::splitmix64;
use abp_net::{NetConfig, NetSim};
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::ErrorMap;

/// Experiment name of the interval axis (probe events, figure id).
pub const NET_INTERVAL: &str = "net-interval";
/// Experiment name of the collision axis.
pub const NET_COLLISIONS: &str = "net-collisions";
/// Experiment name of the lifetime axis.
pub const NET_LIFETIME: &str = "net-lifetime";

/// Seed salts separating the model and schedule draw streams from the
/// field stream (which reuses [`SimConfig::trial_field`] unchanged).
const MODEL_SALT: u64 = 0x4E70_10DE;
const NET_SALT: u64 = 0x4E70_5EED;

/// The three sweep axes plus the [`NetConfig`] template behind each.
#[derive(Debug, Clone, PartialEq)]
pub struct NetAxes {
    /// Beacon count for the interval and lifetime axes.
    pub beacons: usize,
    /// Beaconing periods `T` (seconds) swept by [`interval_sweep`].
    pub periods: Vec<f64>,
    /// Receiver duty cycles swept by [`lifetime_sweep`].
    pub duty_cycles: Vec<f64>,
    /// Template for the interval axis (its `period` is overridden per
    /// point).
    pub interval: NetConfig,
    /// Template for the collision axis: short period, long airtime, full
    /// jitter — a deliberately contended channel.
    pub collision: NetConfig,
    /// Template for the lifetime axis: finite battery (its `duty_cycle`
    /// is overridden per point).
    pub lifetime: NetConfig,
}

impl NetAxes {
    /// Default axes scaled for a [`SimConfig`] preset: the middle entry
    /// of `beacon_counts` as the fixed deployment, periods spanning
    /// `t / CMthresh` (where the message-counting rule tips over), and
    /// duty cycles from 20 % to always-on.
    pub fn for_config(cfg: &SimConfig) -> Self {
        let beacons = cfg
            .beacon_counts
            .get(cfg.beacon_counts.len() / 2)
            .copied()
            .unwrap_or(100);
        let interval = NetConfig {
            duration: 12.0,
            listen: 4.0,
            ..NetConfig::paper()
        };
        let collision = NetConfig {
            duration: 12.0,
            listen: 4.0,
            period: 0.5,
            airtime: 10e-3,
            jitter: 1.0,
            ..NetConfig::paper()
        };
        let lifetime = NetConfig {
            duration: 30.0,
            listen: 4.0,
            battery: 0.06,
            tx_cost: 1e-3,
            idle_power: 4e-3,
            ..NetConfig::paper()
        };
        NetAxes {
            beacons,
            periods: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            duty_cycles: vec![0.2, 0.4, 0.6, 0.8, 1.0],
            interval,
            collision,
            lifetime,
        }
    }
}

/// One trial's two summary metrics (what they mean depends on the axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetTrialSample {
    /// The axis's headline metric.
    pub primary: f64,
    /// Its companion metric.
    pub secondary: f64,
}

/// One aggregated point of a net sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetPoint {
    /// The axis value (period in seconds, density in /m², or duty cycle).
    pub x: f64,
    /// Headline metric with a 95 % confidence interval.
    pub primary: ConfidenceInterval,
    /// Companion metric with a 95 % confidence interval.
    pub secondary: ConfidenceInterval,
}

/// A completed net sweep: one point per axis value plus any trial
/// failures (absent from the statistics, like the density sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct NetSweepOutcome {
    /// One aggregated point per axis value.
    pub points: Vec<NetPoint>,
    /// Every trial that panicked.
    pub failures: Vec<TrialFailureReport>,
}

/// **Localization error vs beacon interval.** Each trial deploys
/// `axes.beacons` beacons, simulates the schedule at the point's period,
/// then surveys the lattice through the run's [`abp_net::MessageCountOracle`]
/// — `primary` is the mean localization error, `secondary` the fraction
/// of lattice points hearing no beacon at all.
pub fn interval_sweep(cfg: &SimConfig, axes: &NetAxes, ctx: Ctx<'_>) -> NetSweepOutcome {
    let points = axes.periods.iter().map(|&period| {
        let ncfg = NetConfig {
            period,
            ..axes.interval.clone()
        };
        (period, axes.beacons, ncfg)
    });
    net_sweep(cfg, ctx, NET_INTERVAL, points, interval_trial)
}

/// One interval-axis trial, exposed for tests.
pub fn interval_trial(
    cfg: &SimConfig,
    ncfg: &NetConfig,
    beacons: usize,
    seed: u64,
) -> NetTrialSample {
    let field = cfg.trial_field(beacons, seed);
    let model = cfg.model(0.0, splitmix64(seed ^ MODEL_SALT));
    let run = NetSim::run(&field, &*model, ncfg, splitmix64(seed ^ NET_SALT));
    let oracle = run.oracle(&*model);
    let lattice = cfg.lattice();
    let map = ErrorMap::survey(&lattice, &field, &oracle, cfg.policy);
    NetTrialSample {
        primary: map.mean_error(),
        secondary: map.unheard_count() as f64 / map.len() as f64,
    }
}

/// **Collision rate vs beacon density.** Each trial deploys the point's
/// beacon count on a deliberately contended channel — `primary` is the
/// fraction of in-range receptions destroyed by interference
/// ([`abp_net::NetStats::collision_rate`]), `secondary` the backoffs per
/// transmitted message.
pub fn collision_sweep(cfg: &SimConfig, axes: &NetAxes, ctx: Ctx<'_>) -> NetSweepOutcome {
    let points = cfg
        .beacon_counts
        .iter()
        .map(|&beacons| (cfg.density_of(beacons), beacons, axes.collision.clone()));
    net_sweep(cfg, ctx, NET_COLLISIONS, points, collision_trial)
}

/// One collision-axis trial, exposed for tests.
pub fn collision_trial(
    cfg: &SimConfig,
    ncfg: &NetConfig,
    beacons: usize,
    seed: u64,
) -> NetTrialSample {
    let field = cfg.trial_field(beacons, seed);
    let model = cfg.model(0.0, splitmix64(seed ^ MODEL_SALT));
    let run = NetSim::run(&field, &*model, ncfg, splitmix64(seed ^ NET_SALT));
    NetTrialSample {
        primary: run.stats.collision_rate(),
        secondary: run.stats.backoffs as f64 / run.stats.messages_sent.max(1) as f64,
    }
}

/// **Network lifetime vs duty cycle.** Each trial runs `axes.beacons`
/// beacons on the finite-battery template at the point's duty cycle —
/// `primary` is the network lifetime in seconds (time of first battery
/// death, or the full duration when everyone survives), `secondary` the
/// fraction of beacons still alive at the end.
pub fn lifetime_sweep(cfg: &SimConfig, axes: &NetAxes, ctx: Ctx<'_>) -> NetSweepOutcome {
    let points = axes.duty_cycles.iter().map(|&duty| {
        let ncfg = NetConfig {
            duty_cycle: duty,
            ..axes.lifetime.clone()
        };
        (duty, axes.beacons, ncfg)
    });
    net_sweep(cfg, ctx, NET_LIFETIME, points, lifetime_trial)
}

/// One lifetime-axis trial, exposed for tests.
pub fn lifetime_trial(
    cfg: &SimConfig,
    ncfg: &NetConfig,
    beacons: usize,
    seed: u64,
) -> NetTrialSample {
    let field = cfg.trial_field(beacons, seed);
    let model = cfg.model(0.0, splitmix64(seed ^ MODEL_SALT));
    let run = NetSim::run(&field, &*model, ncfg, splitmix64(seed ^ NET_SALT));
    NetTrialSample {
        primary: run.lifetime_secs(),
        secondary: run.stats.alive_at_end as f64 / beacons.max(1) as f64,
    }
}

/// One net sweep: `cfg.trials` trials at each `(x, beacons, config)`
/// point, both metrics reduced to 95 % confidence intervals.
fn net_sweep(
    cfg: &SimConfig,
    ctx: Ctx<'_>,
    experiment: &'static str,
    points: impl Iterator<Item = (f64, usize, NetConfig)>,
    trial: fn(&SimConfig, &NetConfig, usize, u64) -> NetTrialSample,
) -> NetSweepOutcome {
    let points = points.map(|at| Point { beacons: at.1, at }).collect();
    let sweep = Sweep::new(experiment, "trial.net", points);
    let (points, failures) = sweep::run(
        cfg,
        ctx,
        sweep,
        move |cfg, (_, beacons, ncfg), seed| trial(cfg, ncfg, *beacons, seed),
        |&(x, ..), samples| {
            let mut primary = Welford::new();
            let mut secondary = Welford::new();
            for s in samples {
                primary.push(s.primary);
                secondary.push(s.secondary);
            }
            NetPoint {
                x,
                primary: ConfidenceInterval::from_moments(
                    primary.mean(),
                    primary.sample_std(),
                    primary.count(),
                ),
                secondary: ConfidenceInterval::from_moments(
                    secondary.mean(),
                    secondary.sample_std(),
                    secondary.count(),
                ),
            }
        },
    );
    NetSweepOutcome { points, failures }
}

/// The CLI's `--replay-check` gate: simulates one schedule twice from the
/// same trial seed and reports whether the event logs are byte-identical.
/// Any `false` here is a determinism regression.
pub fn replay_identical(cfg: &SimConfig, axes: &NetAxes, trial: usize) -> bool {
    let seed = cfg.trial_seed(0, trial);
    let field = cfg.trial_field(axes.beacons, seed);
    let model = cfg.model(0.0, splitmix64(seed ^ MODEL_SALT));
    let net_seed = splitmix64(seed ^ NET_SALT);
    let a = NetSim::run(&field, &*model, &axes.collision, net_seed);
    let b = NetSim::run(&field, &*model, &axes.collision, net_seed);
    a.log_bytes() == b.log_bytes()
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

    fn axes(cfg: &SimConfig) -> NetAxes {
        let mut a = NetAxes::for_config(cfg);
        // Shrink the simulated spans so the unit suite stays fast.
        a.interval.duration = 6.0;
        a.collision.duration = 6.0;
        a.lifetime.duration = 12.0;
        a.lifetime.battery = 0.024;
        a.periods = vec![0.5, 2.0, 4.0];
        a.duty_cycles = vec![0.25, 1.0];
        a
    }

    #[test]
    fn axes_scale_from_config() {
        let c = cfg();
        let a = NetAxes::for_config(&c);
        assert_eq!(a.beacons, 120, "middle of the beacon counts");
        assert!(!a.periods.is_empty());
        a.interval.validate();
        a.collision.validate();
        a.lifetime.validate();
        assert!(a.lifetime.battery.is_finite());
    }

    #[test]
    fn interval_error_rises_with_period() {
        let c = cfg();
        let a = axes(&c);
        let out = interval_sweep(&c, &a, Ctx::noop());
        assert!(out.failures.is_empty());
        assert_eq!(out.points.len(), 3);
        let first = &out.points[0];
        let last = &out.points[2];
        assert!(
            last.primary.estimate > first.primary.estimate,
            "period 4 s must localize worse than 0.5 s ({} vs {})",
            last.primary.estimate,
            first.primary.estimate
        );
        assert!(
            last.secondary.estimate > first.secondary.estimate,
            "unheard fraction must rise with the period"
        );
    }

    #[test]
    fn collision_rate_rises_with_density() {
        let c = cfg();
        let a = axes(&c);
        let out = collision_sweep(&c, &a, Ctx::noop());
        assert!(out.failures.is_empty());
        assert_eq!(out.points.len(), 3);
        assert!(
            out.points[2].primary.estimate > out.points[0].primary.estimate,
            "240 beacons must collide more than 30 ({} vs {})",
            out.points[2].primary.estimate,
            out.points[0].primary.estimate
        );
        for p in &out.points {
            assert!((0.0..=1.0).contains(&p.primary.estimate));
        }
    }

    #[test]
    fn lifetime_grows_as_duty_falls() {
        let c = cfg();
        let a = axes(&c);
        let out = lifetime_sweep(&c, &a, Ctx::noop());
        assert!(out.failures.is_empty());
        assert_eq!(out.points.len(), 2);
        let low_duty = &out.points[0];
        let full_duty = &out.points[1];
        assert!(
            low_duty.primary.estimate > full_duty.primary.estimate,
            "duty 0.25 must outlive duty 1.0 ({} vs {})",
            low_duty.primary.estimate,
            full_duty.primary.estimate
        );
    }

    #[test]
    fn sweeps_are_deterministic_and_thread_invariant() {
        let mut c = cfg();
        c.trials = 4;
        c.beacon_counts = vec![60];
        let a = axes(&c);
        let x = collision_sweep(&c, &a, Ctx::noop());
        let y = collision_sweep(&c, &a, Ctx::noop());
        assert_eq!(x, y);
        let mut c1 = c.clone();
        c1.threads = 1;
        let seq = collision_sweep(&c1, &a, Ctx::noop());
        assert_eq!(x, seq, "results must not depend on thread count");
    }

    #[test]
    fn replay_gate_accepts_the_deterministic_engine() {
        let mut c = cfg();
        c.beacon_counts = vec![60];
        let a = axes(&c);
        assert!(replay_identical(&c, &a, 0));
        assert!(replay_identical(&c, &a, 3));
    }

    #[test]
    fn failed_trials_are_reported_not_fatal() {
        fn flaky(cfg: &SimConfig, _: &NetConfig, _: usize, seed: u64) -> NetTrialSample {
            if seed == cfg.trial_seed(0, 2) {
                panic!("injected net fault");
            }
            NetTrialSample {
                primary: 1.0,
                secondary: 0.5,
            }
        }
        let c = cfg();
        let points = [(1.0, 60, NetConfig::paper())].into_iter();
        let outcome = net_sweep(&c, Ctx::noop(), NET_INTERVAL, points, flaky);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].trial, 2);
        assert!(outcome.failures[0].message.contains("injected net fault"));
        assert_eq!(outcome.points[0].primary.estimate, 1.0);
    }
}

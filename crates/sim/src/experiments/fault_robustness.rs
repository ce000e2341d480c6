//! Placement quality under injected faults (paper §6 future work).
//!
//! The paper evaluates adaptive placement in a benign world: every beacon
//! transmits forever, every message on a link within range arrives, and
//! the survey agent always knows where it is. Section 6 names the missing
//! piece — "beacons may fail or be compromised" — and this experiment
//! measures exactly that, with [`abp_fault`]'s deterministic injectors:
//!
//! * **failure axis** — a fraction `x` of beacons dies permanently
//!   ([`abp_fault::MortalityPlan`]),
//! * **burst axis** — every link runs over a Gilbert–Elliott on/off
//!   channel with stationary bad probability `x`
//!   ([`abp_fault::BurstPlan`]),
//!
//! optionally layered with survey-agent GPS outages. For each `x` the
//! sweep reports the terrain's mean localization error under the faults
//! and the paired improvement each placement algorithm (Random/Max/Grid)
//! still extracts — so the figure shows both how much the fault costs and
//! whether the algorithms' *ranking* survives it.
//!
//! The survey the algorithms see is a robot walk through the faulty world
//! (GPS outages drop waypoints into the explicit degraded/dropped
//! accounting channel); the improvement is evaluated at epoch 1 — after
//! placement — against a baseline of the *original* field at the same
//! epoch, so epoch-varying faults (bursts, flapping, drift) never
//! masquerade as placement gains.
//!
//! A trial surveys each of its two worlds once: the robot walks the
//! epoch-0 truth survey ([`Robot::walk`]), and each algorithm's after-map
//! is the epoch-1 baseline plus one [`ErrorMap::add_beacon`] — two
//! full-lattice sweeps and one single-beacon update per algorithm.

use crate::config::{AlgorithmKind, SimConfig};
use crate::progress::{Ctx, TrialFailureReport};
use crate::sweep::{self, Codec, Point, Sweep};
use abp_fault::{BurstPlan, FaultPlan, GpsOutagePlan, MortalityPlan};
use abp_geom::splitmix64;
use abp_placement::SurveyView;
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::{ErrorMap, Robot, SurveyPlan};
use bytes::{Buf, BufMut, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which fault family the sweep's x-axis scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAxis {
    /// `x` = fraction of beacons permanently dead.
    FailureRate,
    /// `x` = stationary fraction of time each link spends in the
    /// Gilbert–Elliott bad state.
    BurstIntensity,
}

impl FaultAxis {
    /// Stable name used in checkpoint keys and figure ids.
    pub fn name(&self) -> &'static str {
        match self {
            FaultAxis::FailureRate => "failure",
            FaultAxis::BurstIntensity => "burst",
        }
    }

    /// The fault plan this axis induces at intensity `x` (before any
    /// cross-cutting faults from the spec are layered on).
    pub fn plan(&self, x: f64) -> FaultPlan {
        match self {
            FaultAxis::FailureRate => FaultPlan {
                mortality: Some(MortalityPlan {
                    death_rate: x,
                    flap_rate: 0.0,
                    duty_cycle: 1.0,
                }),
                ..FaultPlan::none()
            },
            FaultAxis::BurstIntensity => FaultPlan {
                burst: Some(BurstPlan::paper(x)),
                ..FaultPlan::none()
            },
        }
    }
}

impl fmt::Display for FaultAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a fault sweep needs beyond the base [`SimConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepSpec {
    /// The fault family the x-axis scales.
    pub axis: FaultAxis,
    /// Axis sample points (fault intensities), in plot order.
    pub xs: Vec<f64>,
    /// Beacon count of every generated field (a single density — the
    /// fault intensity is the independent variable here).
    pub beacons: usize,
    /// GPS outages layered on the survey walk at *every* x, so the
    /// degraded-accounting channel is exercised across the whole sweep.
    pub gps: Option<GpsOutagePlan>,
    /// Placement algorithms whose ranking the figure tracks.
    pub algorithms: Vec<AlgorithmKind>,
}

impl FaultSweepSpec {
    /// The robustness figure's beacon-failure axis: 0–50 % of beacons
    /// dead, a light GPS outage on the survey walk, and the paper's three
    /// algorithms.
    pub fn failure_axis(beacons: usize) -> Self {
        FaultSweepSpec {
            axis: FaultAxis::FailureRate,
            xs: vec![0.0, 0.1, 0.2, 0.3, 0.5],
            beacons,
            gps: Some(GpsOutagePlan {
                outage_fraction: 0.05,
                window: 16,
                bias_meters: 0.0,
            }),
            algorithms: AlgorithmKind::PAPER.to_vec(),
        }
    }

    /// The robustness figure's burst-loss axis: links spend 0–80 % of
    /// their time in the bad state.
    pub fn burst_axis(beacons: usize) -> Self {
        FaultSweepSpec {
            xs: vec![0.0, 0.2, 0.4, 0.6, 0.8],
            axis: FaultAxis::BurstIntensity,
            ..FaultSweepSpec::failure_axis(beacons)
        }
    }

    /// The complete fault plan in effect at intensity `x`.
    pub fn plan_at(&self, x: f64) -> FaultPlan {
        let mut plan = self.axis.plan(x);
        plan.gps = self.gps;
        plan
    }
}

/// Raw per-trial sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultTrialSample {
    /// Mean localization error of the faulty field (epoch 0).
    pub error_mean: f64,
    /// Fraction of the robot's survey measured at full fidelity (the
    /// rest landed in the degraded/unheard/dropped channels).
    pub measured_fraction: f64,
    /// Mean-error improvement per algorithm, in spec order, evaluated at
    /// epoch 1.
    pub improvements: Vec<f64>,
}

/// One aggregated axis point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPoint {
    /// The fault intensity (axis-dependent meaning).
    pub x: f64,
    /// Beacon count of the underlying fields.
    pub beacons: usize,
    /// Mean localization error under the faults, with 95 % CI.
    pub mean_error: ConfidenceInterval,
    /// Average fully-measured fraction of the robot survey.
    pub measured_fraction: f64,
    /// Improvement per algorithm, in spec order, with 95 % CIs.
    pub improvements: Vec<ConfidenceInterval>,
}

/// The name sweeps of this experiment report to probes and checkpoints.
pub const EXPERIMENT: &str = "fault-robustness";

/// The outcome of a fault sweep: one point per axis intensity plus every
/// trial that exhausted its retries.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One aggregated point per `spec.xs` entry, in order.
    pub points: Vec<FaultPoint>,
    /// Every trial that failed terminally, in (x, trial) order.
    pub failures: Vec<TrialFailureReport>,
}

/// Runs one trial at fault intensity `x`: compile the plan, survey the
/// faulty world once per epoch, walk the robot over the epoch-0 survey,
/// let each algorithm place from that view, and measure the epoch-1
/// improvement by adding the placed beacon to the epoch-1 survey.
pub fn run_trial(
    cfg: &SimConfig,
    noise: f64,
    spec: &FaultSweepSpec,
    x: f64,
    trial_seed: u64,
) -> FaultTrialSample {
    let schedule = spec.plan_at(x).compile(trial_seed);
    let field = cfg.trial_field(spec.beacons, trial_seed);
    let model_seed = splitmix64(trial_seed ^ 0x4E_01_5E);
    let lattice = cfg.lattice();

    // Epoch 0: the world the survey happens in.
    let model0 = cfg.model(noise * schedule.noise_multiplier(0), model_seed);
    let faulty0 = schedule.wrap(&*model0, 0);
    let truth0 = ErrorMap::survey(&lattice, &field, &faulty0, cfg.policy);
    let error_mean = truth0.mean_error();

    // The algorithms only ever see the robot's walk through that world,
    // GPS outages and all.
    let walk = SurveyPlan::from_lattice(lattice);
    let mut robot = Robot::new(0.0, 0, splitmix64(trial_seed ^ 0x0B07));
    let (view, _report) = robot.walk(&walk, truth0, schedule.gps());
    let accounting = view.accounting();

    // Epoch 1: the world after deployment. Both the baseline and every
    // extended field are evaluated here, so epoch-varying faults cancel
    // out of the improvement.
    let model1 = cfg.model(noise * schedule.noise_multiplier(1), model_seed);
    let faulty1 = schedule.wrap(&*model1, 1);
    let before1 = ErrorMap::survey(&lattice, &field, &faulty1, cfg.policy);
    let before1_mean = before1.mean_error();
    // One after-map per trial: each further algorithm resets it from the
    // baseline in place rather than allocating a fresh clone.
    let mut after = before1.clone();
    let improvements = spec
        .algorithms
        .iter()
        .enumerate()
        .map(|(ai, kind)| {
            let algo = kind.build(cfg);
            let pos = {
                let sv = SurveyView {
                    map: &view,
                    field: &field,
                    model: &faulty0,
                };
                // Same per-algorithm stream salt as the improvement
                // experiment: adding or reordering algorithms never
                // shifts another's draw.
                let mut rng =
                    StdRng::seed_from_u64(splitmix64(trial_seed ^ (ai as u64) << 17 ^ 0xA160));
                algo.propose(&sv, &mut rng)
            };
            // The placed beacon is the extended field's last, so adding
            // it to the baseline accumulates it last at every point,
            // exactly as a full survey of the extended field would.
            let mut extended = field.clone();
            let id = extended.add_beacon(pos);
            if ai > 0 {
                after.clone_from(&before1);
            }
            after.add_beacon(extended.get(id).expect("just added"), &faulty1);
            before1_mean - after.mean_error()
        })
        .collect();
    FaultTrialSample {
        error_mean,
        measured_fraction: accounting.measured_fraction(view.len()),
        improvements,
    }
}

/// Runs the full fault sweep, reporting to `ctx.probe`, persisting each
/// completed axis point to `ctx.checkpoint` (keys carry the fault plan's
/// fingerprint, so regimes never share entries), and honoring
/// `ctx.policy` (retry with re-derived seeds, watchdog timeouts).
///
/// Deterministic in `cfg.seed` and thread-count invariant; a healthy
/// sweep is bit-identical under any retry policy.
pub fn run_sweep(cfg: &SimConfig, noise: f64, spec: &FaultSweepSpec, ctx: Ctx<'_>) -> SweepOutcome {
    let key = |xi: usize| {
        let x = spec.xs[xi];
        format!(
            "{EXPERIMENT}/plan={:016x}/axis={}/noise={noise}/x={x}/beacons={}",
            spec.plan_at(x).fingerprint(),
            spec.axis.name(),
            spec.beacons
        )
    };
    let points = spec
        .xs
        .iter()
        .map(|&x| Point {
            beacons: spec.beacons,
            at: x,
        })
        .collect();
    let shared = spec.clone();
    let (points, failures) = sweep::run(
        cfg,
        ctx,
        Sweep {
            codec: Some(Codec {
                key: &key,
                encode: &encode_point,
                decode: &|buf| decode_point(buf, spec.algorithms.len()),
            }),
            ..Sweep::new(EXPERIMENT, "trial.fault_robustness", points)
        },
        move |cfg, &x, seed| run_trial(cfg, noise, &shared, x, seed),
        |&x, samples| aggregate(spec, x, samples),
    );
    SweepOutcome { points, failures }
}

fn aggregate(spec: &FaultSweepSpec, x: f64, samples: &[FaultTrialSample]) -> FaultPoint {
    let mut error_w = Welford::new();
    let mut measured = 0.0;
    let mut improvement_w: Vec<Welford> = spec.algorithms.iter().map(|_| Welford::new()).collect();
    for s in samples {
        error_w.push(s.error_mean);
        measured += s.measured_fraction;
        for (w, &imp) in improvement_w.iter_mut().zip(&s.improvements) {
            w.push(imp);
        }
    }
    FaultPoint {
        x,
        beacons: spec.beacons,
        mean_error: ConfidenceInterval::from_moments(
            error_w.mean(),
            error_w.sample_std(),
            error_w.count(),
        ),
        measured_fraction: measured / samples.len().max(1) as f64,
        improvements: improvement_w
            .into_iter()
            .map(|w| ConfidenceInterval::from_moments(w.mean(), w.sample_std(), w.count()))
            .collect(),
    }
}

/// An axis point's checkpoint bytes; floats travel as raw IEEE bits so
/// resumed sweeps are bit-identical.
fn encode_point(point: &FaultPoint, buf: &mut BytesMut) {
    buf.put_u64(point.beacons as u64);
    buf.put_f64(point.x);
    buf.put_f64(point.mean_error.estimate);
    buf.put_f64(point.mean_error.half_width);
    buf.put_f64(point.measured_fraction);
    buf.put_u32(point.improvements.len() as u32);
    for ci in &point.improvements {
        buf.put_f64(ci.estimate);
        buf.put_f64(ci.half_width);
    }
}

fn decode_point(buf: &mut &[u8], n_algorithms: usize) -> Option<FaultPoint> {
    if buf.remaining() < 8 + 4 * 8 + 4 {
        return None;
    }
    let beacons = buf.get_u64() as usize;
    let x = buf.get_f64();
    let mean_error = ConfidenceInterval {
        estimate: buf.get_f64(),
        half_width: buf.get_f64(),
    };
    let measured_fraction = buf.get_f64();
    let n_improvements = buf.get_u32() as usize;
    if n_improvements != n_algorithms || buf.remaining() < n_improvements * 16 {
        return None;
    }
    let improvements = (0..n_improvements)
        .map(|_| ConfidenceInterval {
            estimate: buf.get_f64(),
            half_width: buf.get_f64(),
        })
        .collect();
    Some(FaultPoint {
        x,
        beacons,
        mean_error,
        measured_fraction,
        improvements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            trials: 6,
            ..SimConfig::tiny()
        }
    }

    fn spec() -> FaultSweepSpec {
        FaultSweepSpec {
            xs: vec![0.0, 0.3],
            ..FaultSweepSpec::failure_axis(60)
        }
    }

    #[test]
    fn beacon_death_raises_error() {
        let c = cfg();
        let s = FaultSweepSpec {
            xs: vec![0.0, 0.5],
            gps: None,
            ..FaultSweepSpec::failure_axis(60)
        };
        let out = run_sweep(&c, 0.0, &s, Ctx::noop());
        assert_eq!(out.points.len(), 2);
        assert!(out.failures.is_empty());
        assert!(
            out.points[1].mean_error.estimate > out.points[0].mean_error.estimate,
            "killing half the beacons must raise mean error ({} -> {})",
            out.points[0].mean_error.estimate,
            out.points[1].mean_error.estimate
        );
    }

    #[test]
    fn burst_loss_raises_error() {
        let c = cfg();
        let s = FaultSweepSpec {
            xs: vec![0.0, 0.6],
            gps: None,
            ..FaultSweepSpec::burst_axis(60)
        };
        let out = run_sweep(&c, 0.0, &s, Ctx::noop());
        assert!(
            out.points[1].mean_error.estimate > out.points[0].mean_error.estimate,
            "bursty links must raise mean error"
        );
    }

    #[test]
    fn zero_intensity_matches_the_healthy_pipeline() {
        // x = 0 with no GPS plan is a fault-free trial: the truth survey
        // must equal a survey without abp-fault in the loop at all.
        let c = cfg();
        let s = FaultSweepSpec {
            xs: vec![0.0],
            gps: None,
            ..FaultSweepSpec::failure_axis(60)
        };
        let trial_seed = c.trial_seed(0, 0);
        let sample = run_trial(&c, 0.2, &s, 0.0, trial_seed);
        let field = c.trial_field(60, trial_seed);
        let model = c.model(0.2, splitmix64(trial_seed ^ 0x4E_01_5E));
        let map = ErrorMap::survey(&c.lattice(), &field, &*model, c.policy);
        assert_eq!(sample.error_mean.to_bits(), map.mean_error().to_bits());
        // No GPS faults ⇒ nothing dropped; the only unmeasured points are
        // the ones the healthy survey can't hear either.
        assert_eq!(
            sample.measured_fraction,
            map.accounting().measured_fraction(map.len())
        );
    }

    #[test]
    fn gps_outage_shows_up_in_accounting() {
        let c = cfg();
        let s = spec(); // 5 % outage windows on the walk
        let sample = run_trial(&c, 0.0, &s, 0.3, c.trial_seed(0, 1));
        assert!(
            sample.measured_fraction < 1.0,
            "outage windows must remove measured points"
        );
        assert!(sample.measured_fraction > 0.5, "but not most of them");
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let c = cfg();
        let s = spec();
        let a = run_sweep(&c, 0.1, &s, Ctx::noop());
        let b = run_sweep(&c, 0.1, &s, Ctx::noop());
        assert_eq!(a, b);
        let mut c1 = c.clone();
        c1.threads = 1;
        let seq = run_sweep(&c1, 0.1, &s, Ctx::noop());
        assert_eq!(a.points, seq.points, "results must not depend on threads");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let c = cfg();
        let s = spec();
        let full = run_sweep(&c, 0.0, &s, Ctx::noop());

        let mut path = std::env::temp_dir();
        path.push(format!("abp-fault-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ckpt = crate::checkpoint::SweepCheckpoint::open(&path, c.fingerprint()).unwrap();

        // Simulate an interrupted run: seed the checkpoint with the first
        // axis point only, then resume the whole sweep.
        let plan_fp = s.plan_at(s.xs[0]).fingerprint();
        let key = format!("{EXPERIMENT}/plan={plan_fp:016x}/axis=failure/noise=0/x=0/beacons=60");
        let entry = sweep::encode_entry(
            &mut BytesMut::with_capacity(64),
            &encode_point,
            &full.points[0],
            &[],
        );
        ckpt.put(&key, entry).unwrap();

        let probe = crate::progress::NoopProbe;
        let resumed = run_sweep(&c, 0.0, &s, Ctx::new(&probe).with_checkpoint(&ckpt));
        assert_eq!(resumed.points, full.points, "resume must be bit-identical");
        assert_eq!(ckpt.len(), 2);
        let replay = run_sweep(&c, 0.0, &s, Ctx::new(&probe).with_checkpoint(&ckpt));
        assert_eq!(replay.points, full.points);

        // A different fault regime must not see these entries: same axis,
        // different intensity set ⇒ different plan fingerprints in keys.
        let other = FaultSweepSpec {
            xs: vec![0.15],
            ..s.clone()
        };
        let fresh = run_sweep(&c, 0.0, &other, Ctx::new(&probe).with_checkpoint(&ckpt));
        assert_eq!(fresh.points.len(), 1);
        assert_eq!(ckpt.len(), 3, "the other regime adds its own entry");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn supervised_healthy_sweep_is_bit_identical_to_plain() {
        use crate::runner::RunPolicy;
        use std::time::Duration;
        let c = cfg();
        let s = spec();
        let plain = run_sweep(&c, 0.0, &s, Ctx::noop());
        let policy = RunPolicy {
            retries: 2,
            trial_timeout: Some(Duration::from_secs(120)),
            backoff: Duration::from_millis(1),
        };
        let supervised = run_sweep(&c, 0.0, &s, Ctx::noop().with_policy(policy));
        assert_eq!(plain.points, supervised.points);
        assert!(supervised.failures.is_empty());
    }

    #[test]
    fn axis_entry_roundtrips() {
        let point = FaultPoint {
            x: 0.3,
            beacons: 60,
            mean_error: ConfidenceInterval {
                estimate: 4.25,
                half_width: 0.5,
            },
            measured_fraction: 0.93,
            improvements: vec![
                ConfidenceInterval {
                    estimate: 1.5,
                    half_width: 0.25,
                },
                ConfidenceInterval {
                    estimate: 2.5,
                    half_width: 0.125,
                },
            ],
        };
        let failures = vec![TrialFailureReport {
            experiment: EXPERIMENT,
            density_index: 3,
            beacons: 60,
            trial: 4,
            seed: 0xFEED,
            message: "panicked: boom".into(),
        }];
        let raw = sweep::encode_entry(
            &mut BytesMut::with_capacity(64),
            &encode_point,
            &point,
            &failures,
        );
        let decode = |n: usize| move |buf: &mut &[u8]| decode_point(buf, n);
        let report = |trial, seed, message| TrialFailureReport {
            experiment: EXPERIMENT,
            density_index: 3,
            beacons: 60,
            trial,
            seed,
            message,
        };
        let (decoded, decoded_failures) = sweep::decode_entry(&raw, &decode(2), report).unwrap();
        assert_eq!(decoded, point);
        assert_eq!(decoded_failures, failures);
        // Algorithm-count mismatch and truncation are both rejected.
        assert!(sweep::decode_entry(&raw, &decode(3), report).is_none());
        assert!(sweep::decode_entry(&raw[..raw.len() - 1], &decode(2), report).is_none());
    }
}

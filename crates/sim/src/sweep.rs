//! The one driver behind every Monte-Carlo sweep.
//!
//! An experiment describes its sweep — the points, one trial, and how
//! the trials of a point reduce to a result — and [`run`] does the rest
//! for every point in order:
//!
//! * restores the point from the checkpoint when an earlier run stored
//!   it, and otherwise
//! * emits `sweep_start`, runs `cfg.trials` trials (each inside the
//!   sweep's span, each reported through `trial_done`), reports every
//!   trial that failed, reduces the survivors, stores the result in the
//!   checkpoint, and emits `sweep_done`.
//!
//! Every trial runs on the runner's one engine: a worker pool that [`run`]
//! starts at its first computed point, keeps for every later point, and
//! joins before it returns, under `ctx.policy`. A failed trial is retried
//! with a [`SimConfig::retry_seed`]-derived seed while the policy grants
//! retries, and the watchdog abandons attempts that overrun its deadline.
//! Attempt 0 always uses the plain trial seed, so a healthy sweep is
//! bit-identical under any policy. The workers never touch the probe: the
//! calling thread hands it each point's trial events, at least every
//! 100 ms while the point runs and all of them before its `sweep_done`.

use crate::config::SimConfig;
use crate::progress::{Ctx, Probe, TrialFailureReport, TrialRetryReport, TrialTimeoutReport};
use crate::runner::{Pool, TrialEvent};
use bytes::{Buf, BufMut, BytesMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One point of a sweep.
pub(crate) struct Point<X> {
    /// The beacon count the point reports to the probe and in failures.
    pub beacons: usize,
    /// What the point's trials run at (a beacon count, an axis value, a
    /// `k`, …); the trial and the reduction both receive it.
    pub at: X,
}

/// One point per configured beacon count, each running at its count.
pub(crate) fn densities(cfg: &SimConfig) -> Vec<Point<usize>> {
    cfg.beacon_counts
        .iter()
        .map(|&beacons| Point {
            beacons,
            at: beacons,
        })
        .collect()
}

/// How the points of a checkpointed sweep travel through the store.
pub(crate) struct Codec<'a, O> {
    /// The key of the point at an index.
    pub key: &'a dyn Fn(usize) -> String,
    /// Appends a reduced point's bytes.
    pub encode: &'a dyn Fn(&O, &mut BytesMut),
    /// Reads a reduced point back, advancing the slice past its bytes.
    pub decode: &'a dyn Fn(&mut &[u8]) -> Option<O>,
}

/// A sweep's description, minus the trial and the reduction.
pub(crate) struct Sweep<'a, X, O> {
    /// The experiment name probes and failure reports carry.
    pub experiment: &'static str,
    /// The trace span wrapping each trial.
    pub span: &'static str,
    /// The points, in sweep order.
    pub points: Vec<Point<X>>,
    /// Present for the sweeps whose points are checkpointed.
    pub codec: Option<Codec<'a, O>>,
}

impl<X, O> Sweep<'_, X, O> {
    /// A sweep whose points are not checkpointed.
    pub fn new(experiment: &'static str, span: &'static str, points: Vec<Point<X>>) -> Self {
        Sweep {
            experiment,
            span,
            points,
            codec: None,
        }
    }
}

/// Runs a sweep (see the module docs) and returns its reduced points
/// plus every trial that failed, in (point, trial) order. A failed trial
/// is absent from its point's statistics.
pub(crate) fn run<X, S, O>(
    cfg: &SimConfig,
    ctx: Ctx<'_>,
    sweep: Sweep<'_, X, O>,
    trial: impl Fn(&SimConfig, &X, u64) -> S + Send + Sync + 'static,
    mut reduce: impl FnMut(&X, &[S]) -> O,
) -> (Vec<O>, Vec<TrialFailureReport>)
where
    X: Clone + Send + Sync + 'static,
    S: Send + 'static,
{
    let (experiment, span) = (sweep.experiment, sweep.span);
    // The pool's workers are detached threads (the watchdog may abandon
    // one), so the trial and config cross into `'static` land behind
    // `Arc`s.
    let (trial, shared) = (Arc::new(trial), Arc::new(cfg.clone()));
    let mut pool = None;
    let (mut points, mut failures) = (Vec::with_capacity(sweep.points.len()), Vec::new());
    // One staging buffer for every entry the sweep stores.
    let mut row = BytesMut::with_capacity(128);
    for (index, Point { beacons, at }) in sweep.points.into_iter().enumerate() {
        let report = |trial, seed, message| TrialFailureReport {
            experiment,
            density_index: index,
            beacons,
            trial,
            seed,
            message,
        };
        let entry = ctx
            .checkpoint
            .zip(sweep.codec.as_ref())
            .map(|(ckpt, codec)| (ckpt, codec, (codec.key)(index)));
        let restored = entry
            .as_ref()
            .and_then(|(ckpt, codec, key)| decode_entry(&ckpt.get(key)?, codec.decode, report));
        if let Some((point, restored)) = restored {
            ctx.probe
                .sweep_done(experiment, beacons, Duration::ZERO, true);
            points.push(point);
            failures.extend(restored);
            continue;
        }

        ctx.probe.sweep_start(experiment, beacons, cfg.trials);
        let started = Instant::now();
        let (worker_cfg, trial, worker_at) = (Arc::clone(&shared), Arc::clone(&trial), at.clone());
        let outcome = pool
            .get_or_insert_with(|| Pool::new(cfg.threads, cfg.trials, ctx.policy))
            .map(
                cfg.trials,
                move |t, attempt| {
                    let _span = abp_trace::span!(span);
                    trial(
                        &worker_cfg,
                        &worker_at,
                        worker_cfg.retry_seed(index, t, attempt),
                    )
                },
                |event| forward(ctx.probe, experiment, index, beacons, event),
            );
        let failed: Vec<_> = outcome
            .failures
            .iter()
            .map(|f| {
                let seed = cfg.retry_seed(index, f.index, f.attempts - 1);
                report(f.index, seed, f.fault.to_string())
            })
            .collect();
        let samples = outcome.into_values();
        for f in &failed {
            ctx.probe.trial_failed(f);
        }
        let point = reduce(&at, &samples);
        if let Some((ckpt, codec, key)) = &entry {
            let bytes = encode_entry(&mut row, codec.encode, &point, &failed);
            if let Err(e) = ckpt.put(key, bytes) {
                eprintln!(
                    "warning: checkpoint save to {} failed: {e}",
                    ckpt.path().display()
                );
            }
        }
        ctx.probe
            .sweep_done(experiment, beacons, started.elapsed(), false);
        points.push(point);
        failures.extend(failed);
    }
    (points, failures)
}

/// Frames one checkpoint entry: the point's own bytes, then the failure
/// list — a `u32` count, and per failure the `u64` trial index, the
/// `u64` seed, a `u32` message length and the message's UTF-8 bytes.
/// Floats inside the point travel as raw IEEE bits, which is what makes
/// resumed figures bit-identical.
pub(crate) fn encode_entry<O>(
    buf: &mut BytesMut,
    encode: &dyn Fn(&O, &mut BytesMut),
    point: &O,
    failures: &[TrialFailureReport],
) -> Vec<u8> {
    buf.clear();
    encode(point, buf);
    buf.put_u32(failures.len() as u32);
    for f in failures {
        buf.put_u64(f.trial as u64);
        buf.put_u64(f.seed);
        buf.put_u32(f.message.len() as u32);
        buf.put_slice(f.message.as_bytes());
    }
    buf.to_vec()
}

/// Reads an entry framed by [`encode_entry`]: the point, and each
/// failure as `report(trial, seed, message)`. `None` when any byte is out
/// of place.
pub(crate) fn decode_entry<O>(
    raw: &[u8],
    decode: &dyn Fn(&mut &[u8]) -> Option<O>,
    report: impl Fn(usize, u64, String) -> TrialFailureReport,
) -> Option<(O, Vec<TrialFailureReport>)> {
    let mut buf = raw;
    let point = decode(&mut buf)?;
    if buf.remaining() < 4 {
        return None;
    }
    let n_failures = buf.get_u32();
    let mut failures = Vec::new();
    for _ in 0..n_failures {
        if buf.remaining() < 8 + 8 + 4 {
            return None;
        }
        let trial = buf.get_u64() as usize;
        let seed = buf.get_u64();
        let len = buf.get_u32() as usize;
        if buf.remaining() < len {
            return None;
        }
        let message = String::from_utf8(buf[..len].to_vec()).ok()?;
        buf = &buf[len..];
        failures.push(report(trial, seed, message));
    }
    buf.is_empty().then_some((point, failures))
}

/// Hands one engine event to `probe` with the point's context. Terminal
/// failures are reported by [`run`] in trial order once the point settles.
fn forward(
    probe: &dyn Probe,
    experiment: &'static str,
    density_index: usize,
    beacons: usize,
    event: TrialEvent,
) {
    match event {
        TrialEvent::Done { busy } => probe.trial_done(busy),
        TrialEvent::TimedOut {
            index,
            attempt,
            limit,
        } => probe.trial_timed_out(&TrialTimeoutReport {
            experiment,
            density_index,
            beacons,
            trial: index,
            attempt,
            limit,
        }),
        TrialEvent::Retry {
            index,
            failed_attempt,
            fault,
            backoff,
        } => probe.trial_retried(&TrialRetryReport {
            experiment,
            density_index,
            beacons,
            trial: index,
            failed_attempt,
            fault: fault.to_string(),
            backoff,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::density_error::{self, TrialSample};
    use crate::runner::RunPolicy;
    use crate::scratch::{with_trial_scratch, TrialScratch};
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn cfg() -> SimConfig {
        SimConfig {
            trials: 3,
            beacon_counts: vec![20],
            ..SimConfig::tiny()
        }
    }

    fn sample() -> TrialSample {
        TrialSample {
            mean: 1.0,
            median: 1.0,
            unheard_fraction: 0.0,
        }
    }

    #[test]
    fn failure_reports_read_the_same_under_any_policy() {
        let c = cfg();
        let first = c.trial_seed(0, 0);
        let panics = move |_: &SimConfig, _: f64, _: usize, seed: u64| {
            if seed == first {
                panic!("boom");
            }
            sample()
        };
        let plain = density_error::run_sweep_with(&c, 0.0, Ctx::noop(), panics);
        assert_eq!(
            plain.failures[0].to_string(),
            format!("density-error: trial 0 at density #0 (20 beacons, seed {first:#018x}) panicked: boom")
        );

        let last = c.retry_seed(0, 0, 1);
        let always = move |_: &SimConfig, _: f64, _: usize, seed: u64| {
            if seed != first && seed != last {
                return sample();
            }
            panic!("boom")
        };
        let policy = RunPolicy {
            retries: 1,
            backoff: Duration::from_millis(1),
            ..RunPolicy::default()
        };
        let retried =
            density_error::run_sweep_with(&c, 0.0, Ctx::noop().with_policy(policy), always);
        assert_eq!(
            retried.failures[0].to_string(),
            format!("density-error: trial 0 at density #0 (20 beacons, seed {last:#018x}) panicked: boom")
        );

        let stuck = move |_: &SimConfig, _: f64, _: usize, seed: u64| {
            if seed == first {
                std::thread::sleep(Duration::from_secs(2));
            }
            sample()
        };
        let policy = RunPolicy {
            trial_timeout: Some(Duration::from_millis(50)),
            ..RunPolicy::default()
        };
        let timed_out =
            density_error::run_sweep_with(&c, 0.0, Ctx::noop().with_policy(policy), stuck);
        assert_eq!(
            timed_out.failures[0].to_string(),
            format!("density-error: trial 0 at density #0 (20 beacons, seed {first:#018x}) timed out after 0.050s")
        );
    }

    #[test]
    fn one_pool_and_its_scratch_serve_every_point() {
        let c = SimConfig {
            trials: 4,
            threads: 2,
            ..cfg()
        };
        let points = (0..4).map(|at| Point { beacons: 20, at }).collect();
        let (seen, failures) = run(
            &c,
            Ctx::noop(),
            Sweep::<usize, Vec<(ThreadId, usize)>>::new("pool", "trial.pool", points),
            |_, _, _| {
                let scratch = with_trial_scratch(|s| s as *mut TrialScratch as usize);
                (std::thread::current().id(), scratch)
            },
            |_, samples| samples.to_vec(),
        );
        assert!(failures.is_empty());
        let mut scratch_of = HashMap::new();
        for &(thread, scratch) in seen.iter().flatten() {
            let first = *scratch_of.entry(thread).or_insert(scratch);
            assert_eq!(first, scratch, "a worker's scratch moved between points");
        }
        assert!(
            scratch_of.len() <= 2,
            "{} threads ran a 2-thread sweep",
            scratch_of.len()
        );
    }

    #[test]
    fn trial_events_reach_the_probe_while_a_point_runs() {
        #[derive(Default)]
        struct Stamps {
            first_trial: Mutex<Option<Instant>>,
            sweep_done: Mutex<Option<Instant>>,
        }
        impl Probe for Stamps {
            fn trial_done(&self, _busy: Duration) {
                let mut first = self.first_trial.lock().unwrap();
                first.get_or_insert_with(Instant::now);
            }
            fn sweep_done(&self, _: &str, _: usize, _: Duration, _: bool) {
                *self.sweep_done.lock().unwrap() = Some(Instant::now());
            }
        }
        let probe = Stamps::default();
        let c = SimConfig {
            trials: 20,
            threads: 2,
            ..cfg()
        };
        let point = vec![Point { beacons: 20, at: 0 }];
        run(
            &c,
            Ctx::new(&probe),
            Sweep::<usize, ()>::new("progress", "trial.progress", point),
            |_, _, _| std::thread::sleep(Duration::from_millis(30)),
            |_, _| (),
        );
        let first = probe.first_trial.lock().unwrap().expect("trials reported");
        let done = probe.sweep_done.lock().unwrap().expect("point reported");
        assert!(
            done - first >= Duration::from_millis(100),
            "the first trial_done came only {:?} before sweep_done",
            done - first
        );
    }

    #[test]
    fn entry_with_failures_round_trips_through_the_framing() {
        let encode = |point: &u64, buf: &mut BytesMut| buf.put_u64(*point);
        let decode = |buf: &mut &[u8]| (buf.remaining() >= 8).then(|| buf.get_u64());
        let report = |trial, seed, message| TrialFailureReport {
            experiment: "density-error",
            density_index: 2,
            beacons: 60,
            trial,
            seed,
            message,
        };
        let failures = vec![
            report(4, 0xFEED, "panicked: boom".to_owned()),
            report(9, 7, "timed out after 0.050s".to_owned()),
        ];
        let raw = encode_entry(&mut BytesMut::with_capacity(8), &encode, &42, &failures);
        assert_eq!(decode_entry(&raw, &decode, report), Some((42, failures)));
        // A clean entry is the point plus a zero count.
        let clean = encode_entry(&mut BytesMut::with_capacity(8), &encode, &42, &[]);
        assert_eq!(clean, [&42u64.to_be_bytes()[..], &[0; 4]].concat());
        // Truncation anywhere, and trailing bytes, are rejected.
        for cut in 0..raw.len() {
            assert!(
                decode_entry(&raw[..cut], &decode, report).is_none(),
                "cut {cut}"
            );
        }
        let mut long = raw.clone();
        long.push(0);
        assert!(decode_entry(&long, &decode, report).is_none());
    }
}

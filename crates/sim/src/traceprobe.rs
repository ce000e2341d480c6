//! Bridges [`Probe`] lifecycle events into the `abp-trace`
//! sink, so one trace file carries both the phase-level spans from the
//! compute crates and the figure/sweep/trial story from the experiment
//! engine.

use crate::checkpoint::CheckpointOpen;
use crate::progress::{Probe, TrialFailureReport, TrialRetryReport, TrialTimeoutReport};
use abp_trace::{Counter, DurationHistogram};
use std::path::Path;
use std::time::Duration;

/// Trials that completed successfully, across all figures of the run.
pub static TRIALS_RUN: Counter = Counter::new("trials_run");

/// Trials that panicked and were excluded from aggregation.
pub static TRIALS_FAILED: Counter = Counter::new("trials_failed");

/// Trial attempts that failed but were re-run under `--retry`.
pub static TRIALS_RETRIED: Counter = Counter::new("trials_retried");

/// Trial attempts aborted by the `--trial-timeout` watchdog.
pub static TRIALS_TIMED_OUT: Counter = Counter::new("trials_timed_out");

/// Per-trial worker busy time.
pub static TRIAL_WALL: DurationHistogram = DurationHistogram::new("trial_wall");

/// A [`Probe`] that forwards every lifecycle event to the `abp-trace`
/// layer: figure/sweep/trial marks become instant events in the trace
/// file, and trial completions feed the [`TRIALS_RUN`]/[`TRIALS_FAILED`]
/// counters and the [`TRIAL_WALL`] histogram.
///
/// Events fire on the thread that runs the sweep, so in the Chrome
/// export the probe marks share that thread's track, while each trial's
/// own spans land on the track of the worker that ran it. When tracing is
/// disabled every method costs one relaxed atomic load.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceProbe;

impl TraceProbe {
    /// Creates the bridge.
    pub fn new() -> Self {
        TraceProbe
    }
}

impl Probe for TraceProbe {
    fn figure_start(&self, id: &str) {
        abp_trace::span::instant(format!("figure_start {id}"), "probe");
    }

    fn figure_done(&self, id: &str, wall: Duration) {
        abp_trace::span::instant(
            format!("figure_done {id} ({:.2}s)", wall.as_secs_f64()),
            "probe",
        );
    }

    fn sweep_start(&self, experiment: &str, beacons: usize, trials: usize) {
        abp_trace::span::instant(
            format!("sweep_start {experiment} @ {beacons} beacons ({trials} trials)"),
            "probe",
        );
    }

    fn sweep_done(&self, experiment: &str, beacons: usize, wall: Duration, from_checkpoint: bool) {
        let how = if from_checkpoint {
            "checkpoint"
        } else {
            "computed"
        };
        abp_trace::span::instant(
            format!(
                "sweep_done {experiment} @ {beacons} beacons ({:.2}s, {how})",
                wall.as_secs_f64()
            ),
            "probe",
        );
    }

    fn trial_done(&self, busy: Duration) {
        TRIALS_RUN.add(1);
        TRIAL_WALL.record(busy);
    }

    fn trial_failed(&self, failure: &TrialFailureReport) {
        TRIALS_FAILED.add(1);
        abp_trace::span::instant(
            format!(
                "trial_failed {} trial {} seed {:#018x}",
                failure.experiment, failure.trial, failure.seed
            ),
            "probe",
        );
    }

    fn trial_retried(&self, retry: &TrialRetryReport) {
        TRIALS_RETRIED.add(1);
        abp_trace::span::instant(
            format!(
                "trial_retried {} trial {} attempt {}",
                retry.experiment, retry.trial, retry.failed_attempt
            ),
            "probe",
        );
    }

    fn trial_timed_out(&self, timeout: &TrialTimeoutReport) {
        TRIALS_TIMED_OUT.add(1);
        abp_trace::span::instant(
            format!(
                "trial_timed_out {} trial {} attempt {} limit {:?}",
                timeout.experiment, timeout.trial, timeout.attempt, timeout.limit
            ),
            "probe",
        );
    }

    fn checkpoint_opened(&self, path: &Path, open: &CheckpointOpen) {
        abp_trace::span::instant(
            format!("checkpoint_opened {}: {open:?}", path.display()),
            "probe",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Both tests toggle the global trace gate and read shared counters;
    /// serialize them so they cannot observe each other's increments.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_bridge_is_inert() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        abp_trace::set_enabled(false);
        let p = TraceProbe::new();
        let before = TRIALS_RUN.total();
        p.figure_start("fig4");
        p.trial_done(Duration::from_millis(1));
        p.trial_failed(&TrialFailureReport {
            experiment: "density-error",
            density_index: 0,
            beacons: 20,
            trial: 0,
            seed: 1,
            message: "boom".into(),
        });
        p.figure_done("fig4", Duration::from_millis(2));
        assert_eq!(TRIALS_RUN.total(), before, "gate off: nothing counted");
    }

    #[test]
    fn enabled_bridge_counts_trials() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        abp_trace::set_enabled(true);
        let p = TraceProbe::new();
        let runs = TRIALS_RUN.total();
        let fails = TRIALS_FAILED.total();
        let walls = TRIAL_WALL.count();
        p.trial_done(Duration::from_millis(3));
        p.trial_failed(&TrialFailureReport {
            experiment: "density-error",
            density_index: 0,
            beacons: 20,
            trial: 0,
            seed: 1,
            message: "boom".into(),
        });
        abp_trace::set_enabled(false);
        assert_eq!(TRIALS_RUN.total(), runs + 1);
        assert_eq!(TRIALS_FAILED.total(), fails + 1);
        assert_eq!(TRIAL_WALL.count(), walls + 1);
    }

    #[test]
    fn enabled_bridge_counts_retries_and_timeouts() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        abp_trace::set_enabled(true);
        let p = TraceProbe::new();
        let retries = TRIALS_RETRIED.total();
        let timeouts = TRIALS_TIMED_OUT.total();
        p.trial_retried(&TrialRetryReport {
            experiment: "fault-robustness",
            density_index: 0,
            beacons: 20,
            trial: 0,
            failed_attempt: 0,
            fault: "boom".into(),
            backoff: Duration::from_millis(1),
        });
        p.trial_timed_out(&TrialTimeoutReport {
            experiment: "fault-robustness",
            density_index: 0,
            beacons: 20,
            trial: 0,
            attempt: 0,
            limit: Duration::from_secs(30),
        });
        p.checkpoint_opened(Path::new("x.ckpt"), &CheckpointOpen::Created);
        abp_trace::set_enabled(false);
        assert_eq!(TRIALS_RETRIED.total(), retries + 1);
        assert_eq!(TRIALS_TIMED_OUT.total(), timeouts + 1);
    }
}

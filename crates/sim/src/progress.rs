//! Observability for long Monte-Carlo runs: probes, progress reporting,
//! and the run report.
//!
//! The experiment drivers accept a [`Ctx`] carrying a [`Probe`] (and
//! optionally a [`crate::checkpoint::SweepCheckpoint`]). Probes receive
//! figure/sweep/trial lifecycle events on the thread that called the
//! experiment — the trial workers never call them — and must be `Sync`
//! so a [`Ctx`] can be shared. Three are provided:
//!
//! * [`NoopProbe`] — the default; zero overhead,
//! * [`ProgressProbe`] — live `completed/total`, throughput, and ETA on
//!   stderr (the CLI's `--progress`),
//! * [`MetricsRecorder`] — the batch run's one recorder: per-figure
//!   wall-clock, trial throughput and time quantiles, worker
//!   utilization, failures, retries and timeouts, rendered with the
//!   run's identity and counters as the run report (the CLI's
//!   `--report`), and marked in the trace as lifecycle instants (the
//!   CLI's `--trace`).

use crate::checkpoint::{CheckpointOpen, SweepCheckpoint};
use crate::config::SimConfig;
use crate::runner::RunPolicy;
use abp_trace::export::{json_f64, json_string};
use abp_trace::RawHistogram;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A trial that failed during a sweep (it panicked, or the watchdog
/// abandoned it, on its last attempt), with enough context to reproduce
/// it in isolation: the experiment, the sweep point, the trial index,
/// and the exact derived seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailureReport {
    /// Which experiment family the trial belonged to.
    pub experiment: &'static str,
    /// Index of the sweep point: a density of `cfg.beacon_counts`, or the
    /// experiment's own axis value (a fault intensity, a `k`, …).
    pub density_index: usize,
    /// Beacon count at that point.
    pub beacons: usize,
    /// Trial index within the point.
    pub trial: usize,
    /// The seed of the failed attempt
    /// (`cfg.retry_seed(density_index, trial, attempt)`, which is
    /// `cfg.trial_seed(density_index, trial)` for attempt 0).
    pub seed: u64,
    /// What went wrong, as [`crate::TrialFault`] renders it:
    /// `panicked: <payload>` or `timed out after <limit>`.
    pub message: String,
}

impl fmt::Display for TrialFailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: trial {} at density #{} ({} beacons, seed {:#018x}) {}",
            self.experiment, self.trial, self.density_index, self.beacons, self.seed, self.message
        )
    }
}

/// A trial attempt that failed but will be re-run with a re-derived seed
/// (the engine was given `--retry`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialRetryReport {
    /// Which experiment family the trial belonged to.
    pub experiment: &'static str,
    /// Index of the sweep point (see [`TrialFailureReport::density_index`]).
    pub density_index: usize,
    /// Beacon count at that point.
    pub beacons: usize,
    /// Trial index within the point.
    pub trial: usize,
    /// The attempt number that just failed (0 = first run).
    pub failed_attempt: u32,
    /// The fault rendered as text (panic payload or watchdog timeout).
    pub fault: String,
    /// Delay before the next attempt is allowed to start.
    pub backoff: Duration,
}

impl fmt::Display for TrialRetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: trial {} at density #{} ({} beacons) attempt {} failed ({}); retrying after {:?}",
            self.experiment,
            self.trial,
            self.density_index,
            self.beacons,
            self.failed_attempt,
            self.fault,
            self.backoff
        )
    }
}

/// A trial attempt aborted by the watchdog for exceeding
/// `--trial-timeout`. Emitted for *every* watchdog abort — the attempt
/// may still be retried afterwards (see [`TrialRetryReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialTimeoutReport {
    /// Which experiment family the trial belonged to.
    pub experiment: &'static str,
    /// Index of the sweep point (see [`TrialFailureReport::density_index`]).
    pub density_index: usize,
    /// Beacon count at that point.
    pub beacons: usize,
    /// Trial index within the point.
    pub trial: usize,
    /// The attempt number that was aborted (0 = first run).
    pub attempt: u32,
    /// The configured per-trial wall-clock limit that was exceeded.
    pub limit: Duration,
}

impl fmt::Display for TrialTimeoutReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: trial {} at density #{} ({} beacons) attempt {} exceeded the {:?} watchdog limit",
            self.experiment, self.trial, self.density_index, self.beacons, self.attempt, self.limit
        )
    }
}

/// Receives experiment lifecycle events.
///
/// All methods have empty defaults; implement only what you observe.
/// Every event arrives on the thread that called the experiment.
/// `trial_done` fires once per finished trial — keep it cheap.
pub trait Probe: Sync {
    /// A named figure (or table) regeneration began.
    fn figure_start(&self, id: &str) {
        let _ = id;
    }

    /// A named figure finished; `wall` is its total wall-clock time.
    fn figure_done(&self, id: &str, wall: Duration) {
        let _ = (id, wall);
    }

    /// A per-density sweep of `trials` trials began.
    fn sweep_start(&self, experiment: &str, beacons: usize, trials: usize) {
        let _ = (experiment, beacons, trials);
    }

    /// A per-density sweep finished. `from_checkpoint` marks sweeps whose
    /// results were restored rather than recomputed.
    fn sweep_done(&self, experiment: &str, beacons: usize, wall: Duration, from_checkpoint: bool) {
        let _ = (experiment, beacons, wall, from_checkpoint);
    }

    /// One trial finished; `busy` is the time the worker spent on it. The
    /// sweep driver forwards finished trials in batches, at least every
    /// 100 ms while a point runs, and all of a point's trials before its
    /// `sweep_done`.
    fn trial_done(&self, busy: Duration) {
        let _ = busy;
    }

    /// One trial failed on its last attempt (the sweep continues without
    /// it).
    fn trial_failed(&self, failure: &TrialFailureReport) {
        let _ = failure;
    }

    /// One trial attempt failed and will be retried with a re-derived
    /// seed after a backoff delay.
    fn trial_retried(&self, retry: &TrialRetryReport) {
        let _ = retry;
    }

    /// The watchdog aborted a trial attempt for exceeding the configured
    /// per-trial timeout. Fires once per abort, before any retry decision.
    fn trial_timed_out(&self, timeout: &TrialTimeoutReport) {
        let _ = timeout;
    }

    /// A sweep checkpoint file was opened. `open` says whether the store
    /// started fresh, resumed (possibly quarantining damaged entries), or
    /// ignored an incompatible existing file.
    fn checkpoint_opened(&self, path: &Path, open: &CheckpointOpen) {
        let _ = (path, open);
    }
}

/// The default probe: observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

static NOOP: NoopProbe = NoopProbe;

/// The observability context threaded through experiments and figures.
///
/// Cheap to copy; [`Ctx::noop`] is the zero-overhead context for a caller
/// that wants no events, checkpoint or retries.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// Receives lifecycle events.
    pub probe: &'a dyn Probe,
    /// When present, completed sweeps are persisted here and restored on
    /// the next run.
    pub checkpoint: Option<&'a SweepCheckpoint>,
    /// Retry/watchdog policy every sweep's trials run under. The default
    /// retries nothing and arms no watchdog.
    pub policy: RunPolicy,
}

impl Ctx<'static> {
    /// A context that observes nothing and checkpoints nowhere.
    pub fn noop() -> Self {
        Ctx {
            probe: &NOOP,
            checkpoint: None,
            policy: RunPolicy::default(),
        }
    }
}

impl<'a> Ctx<'a> {
    /// A context reporting to `probe`.
    pub fn new(probe: &'a dyn Probe) -> Self {
        Ctx {
            probe,
            checkpoint: None,
            policy: RunPolicy::default(),
        }
    }

    /// Adds a checkpoint store.
    pub fn with_checkpoint(self, checkpoint: &'a SweepCheckpoint) -> Self {
        Ctx {
            checkpoint: Some(checkpoint),
            ..self
        }
    }

    /// Sets the retry/watchdog policy.
    pub fn with_policy(self, policy: RunPolicy) -> Self {
        Ctx { policy, ..self }
    }
}

impl fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("checkpoint", &self.checkpoint.is_some())
            .finish_non_exhaustive()
    }
}

/// Forwards every event to each inner probe, in order.
pub struct Fanout<'a> {
    probes: Vec<&'a dyn Probe>,
}

impl<'a> Fanout<'a> {
    /// Combines any number of probes into one.
    pub fn new(probes: Vec<&'a dyn Probe>) -> Self {
        Fanout { probes }
    }
}

impl Probe for Fanout<'_> {
    fn figure_start(&self, id: &str) {
        for p in &self.probes {
            p.figure_start(id);
        }
    }

    fn figure_done(&self, id: &str, wall: Duration) {
        for p in &self.probes {
            p.figure_done(id, wall);
        }
    }

    fn sweep_start(&self, experiment: &str, beacons: usize, trials: usize) {
        for p in &self.probes {
            p.sweep_start(experiment, beacons, trials);
        }
    }

    fn sweep_done(&self, experiment: &str, beacons: usize, wall: Duration, from_checkpoint: bool) {
        for p in &self.probes {
            p.sweep_done(experiment, beacons, wall, from_checkpoint);
        }
    }

    fn trial_done(&self, busy: Duration) {
        for p in &self.probes {
            p.trial_done(busy);
        }
    }

    fn trial_failed(&self, failure: &TrialFailureReport) {
        for p in &self.probes {
            p.trial_failed(failure);
        }
    }

    fn trial_retried(&self, retry: &TrialRetryReport) {
        for p in &self.probes {
            p.trial_retried(retry);
        }
    }

    fn trial_timed_out(&self, timeout: &TrialTimeoutReport) {
        for p in &self.probes {
            p.trial_timed_out(timeout);
        }
    }

    fn checkpoint_opened(&self, path: &Path, open: &CheckpointOpen) {
        for p in &self.probes {
            p.checkpoint_opened(path, open);
        }
    }
}

struct ProgressState {
    label: String,
    done: usize,
    failed: usize,
    total: usize,
    sweep_started: Instant,
    last_render: Option<Instant>,
    line_open: bool,
}

impl ProgressState {
    /// Trials that no longer need running — successes plus failures. The
    /// progress fraction and ETA are based on this, so a sweep with panics
    /// still converges to `total` instead of stalling below it.
    fn settled(&self) -> usize {
        self.done + self.failed
    }
}

/// Live progress on stderr: one updating line per sweep with
/// `completed/total`, trial throughput, and ETA; a summary line per
/// completed sweep.
pub struct ProgressProbe {
    state: Mutex<ProgressState>,
}

impl ProgressProbe {
    /// Creates the probe (no output until the first event).
    pub fn new() -> Self {
        ProgressProbe {
            state: Mutex::new(ProgressState {
                label: String::new(),
                done: 0,
                failed: 0,
                total: 0,
                sweep_started: Instant::now(),
                last_render: None,
                line_open: false,
            }),
        }
    }

    fn render(state: &ProgressState) {
        let elapsed = state.sweep_started.elapsed().as_secs_f64();
        let settled = state.settled();
        let rate = settled as f64 / elapsed.max(1e-9);
        let eta = if settled == 0 {
            "--".to_string()
        } else {
            let left = state.total.saturating_sub(settled) as f64 / rate.max(1e-9);
            format!("{left:.0}s")
        };
        let progress = if state.failed > 0 {
            format!("{}(+{})/{}", state.done, state.failed, state.total)
        } else {
            format!("{}/{}", state.done, state.total)
        };
        eprint!(
            "\r{}: {progress} trials ({:.0}%, {:.1}/s, ETA {eta})   ",
            state.label,
            100.0 * settled as f64 / state.total.max(1) as f64,
            rate,
        );
    }
}

impl Default for ProgressProbe {
    fn default() -> Self {
        ProgressProbe::new()
    }
}

impl Probe for ProgressProbe {
    fn figure_start(&self, id: &str) {
        eprintln!("== {id} ==");
    }

    fn figure_done(&self, id: &str, wall: Duration) {
        let mut s = self.state.lock().expect("progress state");
        if s.line_open {
            eprintln!();
            s.line_open = false;
        }
        eprintln!("== {id} done in {:.2}s ==", wall.as_secs_f64());
    }

    fn sweep_start(&self, experiment: &str, beacons: usize, trials: usize) {
        let mut s = self.state.lock().expect("progress state");
        if s.line_open {
            eprintln!();
        }
        s.label = format!("{experiment} @ {beacons} beacons");
        s.done = 0;
        s.failed = 0;
        s.total = trials;
        s.sweep_started = Instant::now();
        s.last_render = None;
        s.line_open = true;
        Self::render(&s);
    }

    fn sweep_done(&self, experiment: &str, beacons: usize, wall: Duration, from_checkpoint: bool) {
        let mut s = self.state.lock().expect("progress state");
        if s.line_open {
            eprint!("\r");
            s.line_open = false;
        }
        if from_checkpoint {
            eprintln!("{experiment} @ {beacons} beacons: restored from checkpoint");
        } else {
            let rate = s.done as f64 / wall.as_secs_f64().max(1e-9);
            let failed = if s.failed > 0 {
                format!(" ({} failed)", s.failed)
            } else {
                String::new()
            };
            eprintln!(
                "{experiment} @ {beacons} beacons: {} trials in {:.2}s ({rate:.1}/s){failed}      ",
                s.done,
                wall.as_secs_f64(),
            );
        }
    }

    fn trial_done(&self, _busy: Duration) {
        let mut s = self.state.lock().expect("progress state");
        s.done += 1;
        // Throttle terminal writes; always render the final trial.
        let due = match s.last_render {
            None => true,
            Some(t) => t.elapsed() >= Duration::from_millis(100),
        };
        if due || s.settled() == s.total {
            s.last_render = Some(Instant::now());
            Self::render(&s);
        }
    }

    fn trial_failed(&self, failure: &TrialFailureReport) {
        let mut s = self.state.lock().expect("progress state");
        if s.line_open {
            eprintln!();
        }
        eprintln!("FAILED {failure}");
        // Failed trials still count toward progress: re-render so the line
        // keeps converging to `total` (shown as `done(+failed)/total`).
        s.failed += 1;
        if s.line_open {
            s.last_render = Some(Instant::now());
            Self::render(&s);
        }
    }

    fn trial_retried(&self, retry: &TrialRetryReport) {
        let mut s = self.state.lock().expect("progress state");
        if s.line_open {
            eprintln!();
        }
        eprintln!("RETRY {retry}");
        // A retried attempt settles nothing: the trial is still pending,
        // so no counter moves — just repaint the line we broke.
        if s.line_open {
            s.last_render = Some(Instant::now());
            Self::render(&s);
        }
    }

    fn trial_timed_out(&self, timeout: &TrialTimeoutReport) {
        let s = self.state.lock().expect("progress state");
        if s.line_open {
            eprintln!();
        }
        eprintln!("TIMEOUT {timeout}");
        // The retry-or-fail decision follows as its own event; that event
        // owns the counters and the repaint.
    }

    fn checkpoint_opened(&self, path: &Path, open: &CheckpointOpen) {
        match open {
            CheckpointOpen::Created => {}
            CheckpointOpen::Resumed {
                entries,
                quarantined,
            } => {
                if *quarantined > 0 {
                    eprintln!(
                        "checkpoint {}: resumed {entries} entries, quarantined {quarantined} damaged",
                        path.display()
                    );
                }
            }
            ignored => eprintln!("checkpoint {}: {ignored}", path.display()),
        }
    }
}

/// Metrics for one completed figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureMetrics {
    /// Figure id (e.g. `fig4`).
    pub figure: String,
    /// Wall-clock seconds for the whole figure.
    pub wall_seconds: f64,
    /// Trials executed (checkpoint-restored sweeps contribute none).
    pub trials: usize,
    /// Trials per wall-clock second.
    pub trials_per_sec: f64,
    /// Total worker busy-time divided by `wall x threads`: 1.0 means every
    /// worker computed the whole time.
    pub worker_utilization: f64,
    /// Trials that panicked.
    pub failures: usize,
    /// The derived seed of every failed trial, in failure order — enough
    /// to re-run each panicking trial in isolation.
    pub failed_seeds: Vec<u64>,
    /// Attempts that failed but were re-run under `--retry`.
    pub retries: usize,
    /// Attempts aborted by the `--trial-timeout` watchdog (including
    /// aborts that were subsequently retried).
    pub timeouts: usize,
    /// Median worker busy time of one trial, in seconds. Read off log₂
    /// buckets ([`abp_trace::HistogramSnapshot::quantile_ns`]), so it is
    /// a bucket bound within a factor of two of the true value; 0 when
    /// no trial ran.
    pub trial_p50_s: f64,
    /// 90th-percentile trial busy time, in seconds (as `trial_p50_s`).
    pub trial_p90_s: f64,
    /// 99th-percentile trial busy time, in seconds (as `trial_p50_s`).
    pub trial_p99_s: f64,
}

#[derive(Default)]
struct OpenFigure {
    id: String,
    /// Worker busy time of every finished trial: its count is the
    /// figure's trials, its sum the busy time, its buckets the quantiles.
    busy: RawHistogram,
    failed_seeds: Vec<u64>,
    retries: usize,
    timeouts: usize,
}

struct MetricsState {
    figures: Vec<FigureMetrics>,
    current: Option<OpenFigure>,
    checkpoint: Option<(PathBuf, CheckpointOpen)>,
    run_started: Instant,
}

/// The batch run's recorder: per-figure wall-clock, trial throughput,
/// worker utilization, trial-time quantiles, failures, retries and
/// timeouts, plus how the checkpoint opened. Render the run report with
/// [`MetricsRecorder::report`].
///
/// It also marks every lifecycle event in the trace as an `abp-trace`
/// instant (category `probe`): figure and sweep start and done, trial
/// failed, retried and timed out, and checkpoint opened. Those reach a
/// trace file only while the gate is on and a sink is installed; they
/// fire on the thread that runs the sweep, so in the Chrome export they
/// share that thread's track.
pub struct MetricsRecorder {
    threads: usize,
    state: Mutex<MetricsState>,
}

impl MetricsRecorder {
    /// `threads` is the resolved worker count (used for the utilization
    /// denominator).
    pub fn new(threads: usize) -> Self {
        MetricsRecorder {
            threads: threads.max(1),
            state: Mutex::new(MetricsState {
                figures: Vec::new(),
                current: None,
                checkpoint: None,
                run_started: Instant::now(),
            }),
        }
    }

    /// The metrics collected so far (completed figures only).
    pub fn figures(&self) -> Vec<FigureMetrics> {
        self.state.lock().expect("metrics state").figures.clone()
    }

    /// Renders the run report of `command` run under `cfg`: one JSON
    /// document that ties the run's identity to what it did.
    ///
    /// Schema (all numbers finite; seeds and the fingerprint are hex
    /// strings because JSON numbers cannot hold every `u64`):
    ///
    /// ```json
    /// {
    ///   "command": "fig4",
    ///   "seed": "0x00000000000000a5",
    ///   "config_fingerprint": "0x1f0e4c8a9b7d6e53",
    ///   "threads": 8,
    ///   "total_wall_seconds": 12.5,
    ///   "checkpoint": {"path": "fig4.ckpt", "opened": "resumed",
    ///                  "entries": 12, "quarantined": 0},
    ///   "figures": [
    ///     {
    ///       "figure": "fig4",
    ///       "wall_seconds": 3.2,
    ///       "trials": 240,
    ///       "trials_per_sec": 75.0,
    ///       "worker_utilization": 0.93,
    ///       "failures": 1,
    ///       "failed_seeds": ["0x00000000deadbeef"],
    ///       "retries": 2,
    ///       "timeouts": 1,
    ///       "trial_p50_s": 0.016777216,
    ///       "trial_p90_s": 0.033554432,
    ///       "trial_p99_s": 0.033554432
    ///     }
    ///   ],
    ///   "counters": {"candidates_scanned": 1200, "links_tested": 48000}
    /// }
    /// ```
    ///
    /// * `config_fingerprint` is [`SimConfig::fingerprint`], the key a
    ///   checkpoint file is matched against.
    /// * `checkpoint` is `null` when the run had none; otherwise `opened`
    ///   is `created`, `resumed`, `ignored_version`,
    ///   `ignored_fingerprint` or `ignored_corrupt`, and `entries` and
    ///   `quarantined` count what a resumed file held (0 otherwise).
    /// * `failed_seeds` lists the derived seed of every failed trial
    ///   (failure order), so partial-failure runs stay reproducible from
    ///   the report alone.
    /// * `counters` are the `abp-trace` registry totals
    ///   ([`abp_trace::counters_snapshot`]), which move only while the
    ///   gate is on; the CLI turns it on and zeroes them for a run that
    ///   writes a report.
    pub fn report(&self, command: &str, cfg: &SimConfig) -> String {
        let state = self.state.lock().expect("metrics state");
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"command\": {},\n", json_string(command)));
        out.push_str(&format!("  \"seed\": \"{:#018x}\",\n", cfg.seed));
        out.push_str(&format!(
            "  \"config_fingerprint\": \"{:#018x}\",\n",
            cfg.fingerprint()
        ));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"total_wall_seconds\": {},\n",
            json_f64(state.run_started.elapsed().as_secs_f64())
        ));
        let checkpoint = match &state.checkpoint {
            None => "null".to_string(),
            Some((path, open)) => {
                let (opened, entries) = match *open {
                    CheckpointOpen::Created => ("created", 0),
                    CheckpointOpen::Resumed { entries, .. } => ("resumed", entries),
                    CheckpointOpen::IgnoredVersion { .. } => ("ignored_version", 0),
                    CheckpointOpen::IgnoredFingerprint { .. } => ("ignored_fingerprint", 0),
                    CheckpointOpen::IgnoredCorrupt => ("ignored_corrupt", 0),
                };
                format!(
                    "{{\"path\": {}, \"opened\": \"{opened}\", \"entries\": {entries}, \
                     \"quarantined\": {}}}",
                    json_string(&path.to_string_lossy()),
                    open.quarantined()
                )
            }
        };
        out.push_str(&format!("  \"checkpoint\": {checkpoint},\n"));
        out.push_str("  \"figures\": [");
        for (i, m) in state.figures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let seeds = m
                .failed_seeds
                .iter()
                .map(|s| format!("\"{s:#018x}\""))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "\n    {{\"figure\": {}, \"wall_seconds\": {}, \"trials\": {}, \
                 \"trials_per_sec\": {}, \"worker_utilization\": {}, \"failures\": {}, \
                 \"failed_seeds\": [{seeds}], \"retries\": {}, \"timeouts\": {}, \
                 \"trial_p50_s\": {}, \"trial_p90_s\": {}, \"trial_p99_s\": {}}}",
                json_string(&m.figure),
                json_f64(m.wall_seconds),
                m.trials,
                json_f64(m.trials_per_sec),
                json_f64(m.worker_utilization),
                m.failures,
                m.retries,
                m.timeouts,
                json_f64(m.trial_p50_s),
                json_f64(m.trial_p90_s),
                json_f64(m.trial_p99_s),
            ));
        }
        if !state.figures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        let counters = abp_trace::counters_snapshot()
            .iter()
            .map(|c| format!("{}: {}", json_string(c.name), c.total))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("  \"counters\": {{{counters}}}\n}}\n"));
        out
    }
}

impl Probe for MetricsRecorder {
    fn figure_start(&self, id: &str) {
        instant(format_args!("figure_start {id}"));
        let mut s = self.state.lock().expect("metrics state");
        s.current = Some(OpenFigure {
            id: id.to_string(),
            ..OpenFigure::default()
        });
    }

    fn figure_done(&self, id: &str, wall: Duration) {
        instant(format_args!(
            "figure_done {id} ({:.2}s)",
            wall.as_secs_f64()
        ));
        let mut s = self.state.lock().expect("metrics state");
        let Some(open) = s.current.take() else {
            return;
        };
        debug_assert_eq!(open.id, id, "mismatched figure_done");
        let wall_seconds = wall.as_secs_f64();
        let busy = open.busy.snapshot("trial_busy");
        let trials = busy.count as usize;
        let quantile_s = |q| Duration::from_nanos(busy.quantile_ns(q).unwrap_or(0)).as_secs_f64();
        s.figures.push(FigureMetrics {
            figure: open.id,
            wall_seconds,
            trials,
            trials_per_sec: trials as f64 / wall_seconds.max(1e-9),
            worker_utilization: (Duration::from_nanos(busy.sum_ns).as_secs_f64()
                / (wall_seconds.max(1e-9) * self.threads as f64))
                .clamp(0.0, 1.0),
            failures: open.failed_seeds.len(),
            failed_seeds: open.failed_seeds,
            retries: open.retries,
            timeouts: open.timeouts,
            trial_p50_s: quantile_s(0.5),
            trial_p90_s: quantile_s(0.9),
            trial_p99_s: quantile_s(0.99),
        });
    }

    fn sweep_start(&self, experiment: &str, beacons: usize, trials: usize) {
        instant(format_args!(
            "sweep_start {experiment} @ {beacons} beacons ({trials} trials)"
        ));
    }

    fn sweep_done(&self, experiment: &str, beacons: usize, wall: Duration, from_checkpoint: bool) {
        let how = if from_checkpoint {
            "checkpoint"
        } else {
            "computed"
        };
        instant(format_args!(
            "sweep_done {experiment} @ {beacons} beacons ({:.2}s, {how})",
            wall.as_secs_f64()
        ));
    }

    fn trial_done(&self, busy: Duration) {
        let mut s = self.state.lock().expect("metrics state");
        if let Some(open) = s.current.as_mut() {
            open.busy.record(busy);
        }
    }

    fn trial_failed(&self, failure: &TrialFailureReport) {
        instant(format_args!(
            "trial_failed {} trial {} seed {:#018x}",
            failure.experiment, failure.trial, failure.seed
        ));
        let mut s = self.state.lock().expect("metrics state");
        if let Some(open) = s.current.as_mut() {
            open.failed_seeds.push(failure.seed);
        }
    }

    fn trial_retried(&self, retry: &TrialRetryReport) {
        instant(format_args!(
            "trial_retried {} trial {} attempt {}",
            retry.experiment, retry.trial, retry.failed_attempt
        ));
        let mut s = self.state.lock().expect("metrics state");
        if let Some(open) = s.current.as_mut() {
            open.retries += 1;
        }
    }

    fn trial_timed_out(&self, timeout: &TrialTimeoutReport) {
        instant(format_args!(
            "trial_timed_out {} trial {} attempt {} limit {:?}",
            timeout.experiment, timeout.trial, timeout.attempt, timeout.limit
        ));
        let mut s = self.state.lock().expect("metrics state");
        if let Some(open) = s.current.as_mut() {
            open.timeouts += 1;
        }
    }

    fn checkpoint_opened(&self, path: &Path, open: &CheckpointOpen) {
        instant(format_args!(
            "checkpoint_opened {}: {open:?}",
            path.display()
        ));
        self.state.lock().expect("metrics state").checkpoint = Some((path.to_path_buf(), *open));
    }
}

/// Marks a lifecycle event in the trace. The name is formatted only
/// when it will be kept: while the gate is on and a sink is installed.
fn instant(name: fmt::Arguments<'_>) {
    if abp_trace::enabled() && abp_trace::sink::installed() {
        abp_trace::span::instant(name.to_string(), "probe");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn noop_ctx_constructs() {
        let ctx = Ctx::noop();
        assert!(ctx.checkpoint.is_none());
        ctx.probe.trial_done(Duration::ZERO);
    }

    #[test]
    fn fanout_forwards_to_all() {
        struct Counter(AtomicUsize);
        impl Probe for Counter {
            fn trial_done(&self, _busy: Duration) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let a = Counter(AtomicUsize::new(0));
        let b = Counter(AtomicUsize::new(0));
        let fan = Fanout::new(vec![&a, &b]);
        fan.trial_done(Duration::ZERO);
        fan.trial_done(Duration::ZERO);
        assert_eq!(a.0.load(Ordering::Relaxed), 2);
        assert_eq!(b.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn metrics_recorder_tracks_figures() {
        let rec = MetricsRecorder::new(4);
        rec.figure_start("fig4");
        rec.trial_done(Duration::from_millis(40));
        rec.trial_done(Duration::from_millis(40));
        rec.trial_failed(&TrialFailureReport {
            experiment: "density-error",
            density_index: 0,
            beacons: 20,
            trial: 2,
            seed: 7,
            message: "boom".into(),
        });
        rec.figure_done("fig4", Duration::from_millis(100));
        let figs = rec.figures();
        assert_eq!(figs.len(), 1);
        let m = &figs[0];
        assert_eq!(m.figure, "fig4");
        assert_eq!(m.trials, 2);
        assert_eq!(m.failures, 1);
        assert!((m.wall_seconds - 0.1).abs() < 1e-9);
        assert!((m.trials_per_sec - 20.0).abs() < 1e-6);
        // busy 80ms over 100ms x 4 workers = 0.2 utilization.
        assert!((m.worker_utilization - 0.2).abs() < 1e-6);
    }

    #[test]
    fn json_output_is_wellformed() {
        let rec = MetricsRecorder::new(2);
        rec.figure_start("fig\"odd\\name");
        rec.trial_done(Duration::from_millis(5));
        rec.figure_done("fig\"odd\\name", Duration::from_millis(10));
        let json = rec.report("fig\"odd", &SimConfig::tiny());
        assert!(json.contains("\"fig\\\"odd\\\\name\""));
        assert!(json.contains("\"command\": \"fig\\\"odd\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"figures\": ["));
        assert!(json.contains("\"checkpoint\": null"));
        assert!(json.contains("\"counters\": {"));
        // Balanced braces/brackets (cheap well-formedness check; the CLI
        // test does a full structural parse).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn report_names_the_run_and_its_checkpoint() {
        let cfg = SimConfig::tiny();
        let rec = MetricsRecorder::new(1);
        let json = rec.report("fig4", &cfg);
        assert!(
            json.contains(&format!("\"seed\": \"{:#018x}\"", cfg.seed)),
            "{json}"
        );
        assert!(
            json.contains(&format!(
                "\"config_fingerprint\": \"{:#018x}\"",
                cfg.fingerprint()
            )),
            "{json}"
        );
        rec.checkpoint_opened(
            Path::new("runs/fig4.ckpt"),
            &CheckpointOpen::Resumed {
                entries: 3,
                quarantined: 1,
            },
        );
        let json = rec.report("fig4", &cfg);
        assert!(
            json.contains(
                "\"checkpoint\": {\"path\": \"runs/fig4.ckpt\", \"opened\": \"resumed\", \
                 \"entries\": 3, \"quarantined\": 1}"
            ),
            "{json}"
        );
        rec.checkpoint_opened(
            Path::new("x.ckpt"),
            &CheckpointOpen::IgnoredFingerprint { found: 7 },
        );
        assert!(rec
            .report("fig4", &cfg)
            .contains("\"opened\": \"ignored_fingerprint\", \"entries\": 0"));
    }

    #[test]
    fn trial_quantiles_come_from_log2_buckets() {
        let rec = MetricsRecorder::new(1);
        rec.figure_start("fig4");
        rec.figure_done("fig4", Duration::from_millis(1));
        rec.figure_start("fig5");
        // 90 trials near 1 ms and 10 near 100 ms.
        for _ in 0..90 {
            rec.trial_done(Duration::from_micros(1_000));
        }
        for _ in 0..10 {
            rec.trial_done(Duration::from_millis(100));
        }
        rec.figure_done("fig5", Duration::from_secs(2));
        let figs = rec.figures();
        let idle = &figs[0];
        assert_eq!(idle.trials, 0);
        assert_eq!(
            (idle.trial_p50_s, idle.trial_p90_s, idle.trial_p99_s),
            (0.0, 0.0, 0.0),
            "no trial ran"
        );
        let m = &figs[1];
        assert_eq!(m.trials, 100);
        // Each estimate is its bucket's upper bound, within 2x above.
        assert!((1e-3..2e-3).contains(&m.trial_p50_s), "{m:?}");
        assert!((1e-3..2e-3).contains(&m.trial_p90_s), "{m:?}");
        assert!((0.1..0.2).contains(&m.trial_p99_s), "{m:?}");
        // busy 1.09 s over 2 s x 1 worker.
        assert!((m.worker_utilization - 0.545).abs() < 1e-9, "{m:?}");
    }

    fn failure(seed: u64) -> TrialFailureReport {
        TrialFailureReport {
            experiment: "density-error",
            density_index: 0,
            beacons: 20,
            trial: 1,
            seed,
            message: "boom".into(),
        }
    }

    #[test]
    fn fanout_preserves_event_and_probe_order() {
        use std::sync::Mutex;
        struct Tagged<'a> {
            tag: &'static str,
            log: &'a Mutex<Vec<String>>,
        }
        impl Probe for Tagged<'_> {
            fn figure_start(&self, id: &str) {
                self.log
                    .lock()
                    .unwrap()
                    .push(format!("{}:start:{id}", self.tag));
            }
            fn trial_done(&self, _busy: Duration) {
                self.log.lock().unwrap().push(format!("{}:done", self.tag));
            }
            fn trial_failed(&self, f: &TrialFailureReport) {
                self.log
                    .lock()
                    .unwrap()
                    .push(format!("{}:failed:{}", self.tag, f.trial));
            }
            fn figure_done(&self, id: &str, _wall: Duration) {
                self.log
                    .lock()
                    .unwrap()
                    .push(format!("{}:end:{id}", self.tag));
            }
        }
        let log = Mutex::new(Vec::new());
        let a = Tagged {
            tag: "a",
            log: &log,
        };
        let b = Tagged {
            tag: "b",
            log: &log,
        };
        let fan = Fanout::new(vec![&a, &b]);
        fan.figure_start("fig4");
        fan.trial_done(Duration::ZERO);
        fan.trial_failed(&failure(7));
        fan.figure_done("fig4", Duration::ZERO);
        // Events arrive in emission order; within an event, probes fire in
        // registration order.
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                "a:start:fig4",
                "b:start:fig4",
                "a:done",
                "b:done",
                "a:failed:1",
                "b:failed:1",
                "a:end:fig4",
                "b:end:fig4",
            ]
        );
    }

    #[test]
    fn failure_report_seed_hex_round_trips() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let text = failure(seed).to_string();
            let token = text
                .split_whitespace()
                .find(|t| t.starts_with("0x"))
                .expect("hex seed in display")
                .trim_end_matches(')');
            let parsed =
                u64::from_str_radix(token.trim_start_matches("0x"), 16).expect("seed parses back");
            assert_eq!(parsed, seed, "display: {text}");
        }
    }

    #[test]
    fn progress_probe_counts_successes() {
        let p = ProgressProbe::new();
        p.sweep_start("density-error", 20, 3);
        p.trial_done(Duration::ZERO);
        p.trial_done(Duration::ZERO);
        let s = p.state.lock().unwrap();
        assert_eq!(s.done, 2);
        assert_eq!(s.failed, 0);
        assert_eq!(s.total, 3);
        assert_eq!(s.settled(), 2);
    }

    #[test]
    fn progress_probe_counts_failures_toward_progress() {
        let p = ProgressProbe::new();
        p.sweep_start("density-error", 20, 4);
        p.trial_done(Duration::ZERO);
        p.trial_failed(&failure(0xBAD));
        p.trial_done(Duration::ZERO);
        p.trial_done(Duration::ZERO);
        {
            let s = p.state.lock().unwrap();
            assert_eq!(s.done, 3);
            assert_eq!(s.failed, 1);
            // The sweep is complete: 3 successes + 1 failure = 4 trials,
            // so the progress line converged to total (the bug this guards
            // against left settled() stuck at done < total forever).
            assert_eq!(s.settled(), s.total);
        }
        p.sweep_done("density-error", 20, Duration::from_millis(10), false);
        // A new sweep starts from a clean slate.
        p.sweep_start("density-error", 40, 2);
        let s = p.state.lock().unwrap();
        assert_eq!((s.done, s.failed, s.total), (0, 0, 2));
    }

    #[test]
    fn metrics_json_records_failed_seeds() {
        let rec = MetricsRecorder::new(1);
        rec.figure_start("fig4");
        rec.trial_done(Duration::from_millis(1));
        rec.trial_failed(&failure(0xDEAD_BEEF));
        rec.trial_failed(&failure(0x1234));
        rec.figure_done("fig4", Duration::from_millis(10));
        let figs = rec.figures();
        assert_eq!(figs[0].failures, 2);
        assert_eq!(figs[0].failed_seeds, vec![0xDEAD_BEEF, 0x1234]);
        let json = rec.report("fig4", &SimConfig::tiny());
        assert!(
            json.contains("\"failed_seeds\": [\"0x00000000deadbeef\", \"0x0000000000001234\"]"),
            "{json}"
        );
    }

    #[test]
    fn metrics_recorder_counts_retries_and_timeouts() {
        let rec = MetricsRecorder::new(1);
        rec.figure_start("robustness-failure");
        rec.trial_timed_out(&TrialTimeoutReport {
            experiment: "fault-robustness",
            density_index: 0,
            beacons: 20,
            trial: 3,
            attempt: 0,
            limit: Duration::from_secs(30),
        });
        rec.trial_retried(&TrialRetryReport {
            experiment: "fault-robustness",
            density_index: 0,
            beacons: 20,
            trial: 3,
            failed_attempt: 0,
            fault: "timed out after 30s".into(),
            backoff: Duration::from_millis(250),
        });
        rec.trial_done(Duration::from_millis(2));
        rec.figure_done("robustness-failure", Duration::from_millis(10));
        let m = &rec.figures()[0];
        assert_eq!((m.retries, m.timeouts, m.failures), (1, 1, 0));
        let json = rec.report("faults", &SimConfig::tiny());
        assert!(json.contains("\"retries\": 1"), "{json}");
        assert!(json.contains("\"timeouts\": 1"), "{json}");
    }

    #[test]
    fn fanout_forwards_new_events() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counter {
            retries: AtomicUsize,
            timeouts: AtomicUsize,
            opens: AtomicUsize,
        }
        impl Probe for Counter {
            fn trial_retried(&self, _r: &TrialRetryReport) {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            fn trial_timed_out(&self, _t: &TrialTimeoutReport) {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            fn checkpoint_opened(&self, _path: &Path, _open: &CheckpointOpen) {
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
        }
        let a = Counter::default();
        let b = Counter::default();
        let fan = Fanout::new(vec![&a, &b]);
        fan.trial_retried(&TrialRetryReport {
            experiment: "fault-robustness",
            density_index: 0,
            beacons: 20,
            trial: 0,
            failed_attempt: 0,
            fault: "boom".into(),
            backoff: Duration::ZERO,
        });
        fan.trial_timed_out(&TrialTimeoutReport {
            experiment: "fault-robustness",
            density_index: 0,
            beacons: 20,
            trial: 0,
            attempt: 1,
            limit: Duration::from_secs(1),
        });
        fan.checkpoint_opened(Path::new("x.ckpt"), &CheckpointOpen::Created);
        for c in [&a, &b] {
            assert_eq!(c.retries.load(Ordering::Relaxed), 1);
            assert_eq!(c.timeouts.load(Ordering::Relaxed), 1);
            assert_eq!(c.opens.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn retry_and_timeout_reports_display_context() {
        let r = TrialRetryReport {
            experiment: "fault-robustness",
            density_index: 2,
            beacons: 60,
            trial: 9,
            failed_attempt: 1,
            fault: "timed out after 30s".into(),
            backoff: Duration::from_millis(500),
        };
        let text = r.to_string();
        for needle in [
            "fault-robustness",
            "trial 9",
            "#2",
            "60",
            "attempt 1",
            "retrying",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        let t = TrialTimeoutReport {
            experiment: "fault-robustness",
            density_index: 2,
            beacons: 60,
            trial: 9,
            attempt: 0,
            limit: Duration::from_secs(30),
        };
        let text = t.to_string();
        for needle in ["fault-robustness", "trial 9", "watchdog", "30s"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn ctx_policy_defaults_inert() {
        let ctx = Ctx::noop();
        assert_eq!(ctx.policy, RunPolicy::default());
        let policy = RunPolicy {
            retries: 2,
            ..RunPolicy::default()
        };
        let ctx = ctx.with_policy(policy);
        assert_ne!(ctx.policy, RunPolicy::default());
        assert_eq!(ctx.policy.retries, 2);
    }

    #[test]
    fn failure_report_displays_context() {
        let r = TrialFailureReport {
            experiment: "density-error",
            density_index: 3,
            beacons: 120,
            trial: 17,
            seed: 0xDEAD_BEEF,
            message: "index out of bounds".into(),
        };
        let text = r.to_string();
        for needle in [
            "density-error",
            "17",
            "#3",
            "120",
            "0x00000000deadbeef",
            "index out of bounds",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}

//! The Monte-Carlo experiment engine (paper §4).
//!
//! This crate turns the substrates of the `beaconplace` workspace into the
//! paper's evaluation pipeline: generate random beacon fields at a sweep
//! of densities, survey each field, let a placement algorithm add a
//! beacon, re-survey, and aggregate the improvement statistics over many
//! trials with 95 % confidence intervals.
//!
//! * [`SimConfig`] — experiment parameters; [`SimConfig::paper`] is
//!   Table 1 (`Side = 100 m`, `R = 15 m`, `step = 1 m`, `NG = 400`,
//!   20–240 beacons, 1000 fields per density),
//! * [`runner`] — deterministic, fault-tolerant parallel trial execution
//!   on one engine: a per-sweep worker pool with per-trial panic
//!   isolation, seed-re-deriving retries and a per-trial watchdog, as a
//!   [`RunPolicy`] grants them. Every experiment runs its trials through
//!   one crate-private sweep driver, which runs each point on that pool,
//!   reports each sweep and trial to the [`Probe`] from the calling
//!   thread, drops and reports failed trials, and checkpoints the
//!   density, improvement and fault sweeps,
//! * [`progress`] — the [`Probe`] observability hooks (progress lines,
//!   and the [`MetricsRecorder`] behind the run report) threaded through
//!   experiments and figures,
//! * [`checkpoint`] — crash-safe persistence of completed density sweeps
//!   so interrupted runs resume bit-identically,
//! * [`experiments`] — one module per experiment family:
//!   [`experiments::density_error`] (Figures 4 and 6),
//!   [`experiments::improvement`] (Figures 5, 7, 8, 9),
//!   [`experiments::granularity`] (Figure 1),
//!   [`experiments::overlap_bound`] (the §2.2 error-bound analysis),
//! * [`figures`] — one entry point per figure (`fig1_with`, `fig4_with`
//!   … `fig_noise_with` for Figures 7–9, `bound_with`, and the
//!   extensions), each taking a [`Ctx`], plus `table1`; they return
//!   render-ready [`report::Figure`]s,
//! * [`report`] — series/figure containers with CSV and aligned-text
//!   rendering.
//!
//! Everything is seeded: the same [`SimConfig`] always produces the same
//! numbers, bit for bit, regardless of thread count.
//!
//! # Example
//!
//! ```
//! use abp_sim::{experiments::density_error, Ctx, SimConfig};
//!
//! let mut cfg = SimConfig::tiny(); // test-sized: coarse lattice, few trials
//! cfg.beacon_counts = vec![20, 100, 240];
//! let outcome = density_error::run_sweep(&cfg, 0.0, Ctx::noop());
//! assert!(outcome.failures.is_empty());
//! let points = outcome.points;
//! assert_eq!(points.len(), 3);
//! // Error falls with density (Figure 4's headline shape).
//! assert!(points[2].mean_error.estimate < points[0].mean_error.estimate);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod demo;
pub mod experiments;
pub mod figures;
pub mod progress;
pub mod report;
pub mod runner;
pub mod scratch;
mod sweep;

pub use checkpoint::{CheckpointOpen, SweepCheckpoint};
pub use config::{AlgorithmKind, PaperConfig, SimConfig};
pub use demo::heatmap_demo;
pub use progress::{
    Ctx, Fanout, MetricsRecorder, NoopProbe, Probe, ProgressProbe, TrialFailureReport,
    TrialRetryReport, TrialTimeoutReport,
};
pub use report::{Figure, Series, SeriesPoint};
pub use runner::{RunPolicy, TrialFault};
pub use scratch::{with_trial_scratch, TrialScratch};

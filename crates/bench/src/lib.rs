//! The tracked kernel harness behind the `abp bench` subcommand
//! ([`sweep`]): each hot kernel — the survey sweep, the incremental
//! re-survey and the greedy Grid candidate scan — timed in its production
//! form against its brute-force oracle, with a bit-identical output
//! check on every sample.
#![forbid(unsafe_code)]

pub mod sweep;

pub use sweep::{run_bench, AllocStats, BenchConfig, BenchReport, KernelResult, Timing};

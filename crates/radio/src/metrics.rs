//! Workspace-wide radio telemetry counters (`abp-trace`).
//!
//! The counters live here — next to the [`Propagation`](crate::Propagation)
//! trait whose queries they count — so every layer that tests links
//! (connectivity oracles, beacon-major surveys, incremental re-surveys)
//! charges the same `links_tested` total. Call sites batch: they count
//! queries locally in the loop and issue one [`Counter::add`] per batch,
//! keeping the per-query cost at zero even with tracing enabled.
//!
//! [`Counter::add`]: abp_trace::Counter::add

use abp_trace::Counter;

/// Links decided by surveys and oracles: every `Propagation::connected`
/// call, plus every point a survey hears through a beacon's guaranteed
/// core (`Propagation::core_range`) without calling the model. The
/// dominant unit of radio work.
pub static LINKS_TESTED: Counter = Counter::new("links_tested");

/// Beacon messages simulated by the packet-level link procedure
/// ([`MessageLink::observe`](crate::MessageLink::observe)).
pub static PACKETS_OBSERVED: Counter = Counter::new("packets_observed");

//! Beacon density vs granularity of localization regions (Figure 1).
//!
//! Figure 1 argues the approach's premise pictorially: a 2×2 grid of
//! beacons yields "fewer and larger localization regions", a 3×3 grid
//! "more and smaller" ones, and finer regions mean lower error. This
//! experiment quantifies that with real region counts and errors for a
//! sweep of uniform `k × k` beacon grids.

use crate::config::SimConfig;
use crate::progress::Ctx;
use abp_field::generate::uniform_grid;
use abp_localize::regions::region_map;
use abp_survey::ErrorMap;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One row of the granularity table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GranularityRow {
    /// Beacons per grid side (`k` of the `k × k` grid).
    pub per_side: usize,
    /// Total beacons, `k²`.
    pub beacons: usize,
    /// Distinct localization regions over the survey lattice.
    pub regions: usize,
    /// Mean lattice points per region (region "size" proxy).
    pub mean_region_size: f64,
    /// Mean localization error over the lattice (m).
    pub mean_error: f64,
}

/// The name this experiment reports to probes.
pub const EXPERIMENT: &str = "granularity";

/// Runs the sweep for uniform `k × k` grids, `k ∈ per_sides`, under the
/// ideal radio model of `cfg`, reporting each grid survey to `ctx.probe`.
/// The experiment is deterministic (one survey per grid, no trials), so
/// there is nothing to checkpoint.
pub fn run_with(cfg: &SimConfig, per_sides: &[usize], ctx: Ctx<'_>) -> Vec<GranularityRow> {
    let lattice = cfg.lattice();
    let terrain = cfg.terrain();
    let model = cfg.model(0.0, 0);
    per_sides
        .iter()
        .map(|&k| {
            ctx.probe.sweep_start(EXPERIMENT, k * k, 1);
            let started = Instant::now();
            let field = uniform_grid(terrain, k);
            let regions = region_map(&lattice, &field, &*model);
            let map = ErrorMap::survey(&lattice, &field, &*model, cfg.policy);
            let row = GranularityRow {
                per_side: k,
                beacons: field.len(),
                regions: regions.region_count,
                mean_region_size: regions.mean_region_size(),
                mean_error: map.mean_error(),
            };
            ctx.probe.trial_done(started.elapsed());
            ctx.probe
                .sweep_done(EXPERIMENT, k * k, started.elapsed(), false);
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denser_grids_refine_regions_and_error() {
        let cfg = SimConfig::tiny();
        let rows = run_with(&cfg, &[2, 3, 5, 8], Ctx::noop());
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(
                w[1].regions >= w[0].regions,
                "regions must not decrease: {:?} -> {:?}",
                w[0],
                w[1]
            );
            assert!(w[1].mean_region_size <= w[0].mean_region_size + 1e-9);
            assert!(
                w[1].mean_error <= w[0].mean_error + 1e-9,
                "error must not increase: {} -> {}",
                w[0].mean_error,
                w[1].mean_error
            );
        }
        // Figure 1's specific instances.
        assert_eq!(rows[0].beacons, 4);
        assert_eq!(rows[1].beacons, 9);
        assert!(rows[1].regions > rows[0].regions);
    }

    #[test]
    fn single_beacon_baseline() {
        let cfg = SimConfig::tiny();
        let rows = run_with(&cfg, &[1], Ctx::noop());
        assert_eq!(rows[0].beacons, 1);
        // In-range vs out-of-range: exactly two regions.
        assert_eq!(rows[0].regions, 2);
    }
}

//! Behaviour lock for the §6 fault figures: the `robustness-failure` and
//! `robustness-burst` CSVs hash to committed digests at the tiny preset
//! and at paper geometry (the 1 m lattice the whole-run benchmark runs).
//!
//! `tests/determinism.rs` compares two runs of one build, so a change
//! that shifts every fault figure by one ulp would still pass there. This
//! file pins the bits across versions: a refactor of the fault trial
//! (fewer sweeps, incremental re-surveys, a different robot walk) must
//! reproduce these digests exactly, at any thread count.

use abp_sim::{figures, Ctx, SimConfig};

/// Digests of `(robustness-failure, robustness-burst)` CSVs at the tiny
/// preset, 3 trials.
const FAILURE_DIGEST: u64 = 0x6f52_6269_4fa3_1bf6;
const BURST_DIGEST: u64 = 0xdcfe_a404_805f_8720;

/// The same digests at paper geometry, 2 trials.
const PAPER_FAILURE_DIGEST: u64 = 0x8c50_078e_96f3_c538;
const PAPER_BURST_DIGEST: u64 = 0x4c15_72d3_c763_09fc;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fault_digests(cfg: &SimConfig) -> (u64, u64) {
    let (failure, burst) = figures::faults_with(cfg, 40, Ctx::noop());
    (
        fnv1a(failure.to_csv().as_bytes()),
        fnv1a(burst.to_csv().as_bytes()),
    )
}

fn assert_digests(cfg: &SimConfig, preset: &str, want: (u64, u64)) {
    let threads = cfg.threads;
    let (failure, burst) = fault_digests(cfg);
    assert_eq!(
        failure, want.0,
        "{preset} robustness-failure CSV changed at {threads} thread(s): {failure:#018x}"
    );
    assert_eq!(
        burst, want.1,
        "{preset} robustness-burst CSV changed at {threads} thread(s): {burst:#018x}"
    );
}

#[test]
fn fault_figures_match_committed_digests() {
    for threads in [1, 2] {
        let cfg = SimConfig {
            trials: 3,
            threads,
            ..SimConfig::tiny()
        };
        assert_digests(&cfg, "tiny", (FAILURE_DIGEST, BURST_DIGEST));
    }
}

/// The tiny preset's 5 m lattice has 441 points; this runs the 1 m
/// paper lattice, where burst links are decided by the millions and the
/// survey's guaranteed cores cover whole beacon disks.
#[test]
fn paper_geometry_fault_figures_match_committed_digests() {
    for threads in [1, 2] {
        let cfg = SimConfig {
            trials: 2,
            threads,
            ..SimConfig::paper()
        };
        assert_digests(&cfg, "paper", (PAPER_FAILURE_DIGEST, PAPER_BURST_DIGEST));
    }
}

//! Behaviour lock for the §6 fault figures: the `robustness-failure` and
//! `robustness-burst` CSVs hash to committed digests at the tiny preset
//! and at paper geometry (the 1 m lattice the whole-run benchmark runs).
//!
//! `tests/determinism.rs` compares two runs of one build, so a change
//! that shifts every fault figure by one ulp would still pass there. This
//! file pins the bits across versions: a refactor of the fault trial
//! (fewer sweeps, incremental re-surveys, a different robot walk) must
//! reproduce these digests exactly, at any thread count. The tiny test
//! also pins each figure's metadata (id, title, axis labels and series
//! names), which only `Figure::render` prints.

use abp_sim::{figures, Ctx, Figure, SimConfig};

/// Digests of `(robustness-failure, robustness-burst)` CSVs at the tiny
/// preset, 3 trials.
const FAILURE_DIGEST: u64 = 0x6f52_6269_4fa3_1bf6;
const BURST_DIGEST: u64 = 0xdcfe_a404_805f_8720;

/// The same digests at paper geometry, 2 trials.
const PAPER_FAILURE_DIGEST: u64 = 0x8c50_078e_96f3_c538;
const PAPER_BURST_DIGEST: u64 = 0x4c15_72d3_c763_09fc;

/// Digests of the two figures' metadata, as in `tests/figure_lock.rs`.
const FAILURE_META_DIGEST: u64 = 0xbc7d_cb8a_daf3_96a4;
const BURST_META_DIGEST: u64 = 0x970a_a6c8_5b4f_daa4;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a figure's id, title, axis labels and series names.
fn meta_digest(fig: &Figure) -> u64 {
    let meta: Vec<&str> = [&fig.id, &fig.title, &fig.x_label, &fig.y_label]
        .into_iter()
        .chain(fig.series.iter().map(|s| &s.name))
        .map(String::as_str)
        .collect();
    fnv1a(meta.join("\n").as_bytes())
}

/// Runs both fault figures, checks their CSV digests and returns them.
fn assert_digests(cfg: &SimConfig, preset: &str, want: (u64, u64)) -> (Figure, Figure) {
    let threads = cfg.threads;
    let figs = figures::faults_with(cfg, 40, Ctx::noop());
    let failure = fnv1a(figs.0.to_csv().as_bytes());
    let burst = fnv1a(figs.1.to_csv().as_bytes());
    assert_eq!(
        failure, want.0,
        "{preset} robustness-failure CSV changed at {threads} thread(s): {failure:#018x}"
    );
    assert_eq!(
        burst, want.1,
        "{preset} robustness-burst CSV changed at {threads} thread(s): {burst:#018x}"
    );
    figs
}

#[test]
fn fault_figures_match_committed_digests() {
    for threads in [1, 2] {
        let cfg = SimConfig {
            trials: 3,
            threads,
            ..SimConfig::tiny()
        };
        let (failure, burst) = assert_digests(&cfg, "tiny", (FAILURE_DIGEST, BURST_DIGEST));
        for (fig, want) in [(failure, FAILURE_META_DIGEST), (burst, BURST_META_DIGEST)] {
            let got = meta_digest(&fig);
            assert_eq!(got, want, "{} metadata changed: {got:#018x}", fig.id);
        }
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

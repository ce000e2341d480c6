//! Behaviour lock for the §6 fault figures: the `robustness-failure` and
//! `robustness-burst` CSVs at the tiny preset hash to committed digests.
//!
//! `tests/determinism.rs` compares two runs of one build, so a change
//! that shifts every fault figure by one ulp would still pass there. This
//! file pins the bits across versions: a refactor of the fault trial
//! (fewer sweeps, incremental re-surveys, a different robot walk) must
//! reproduce these digests exactly, at any thread count.

use abp_sim::{figures, Ctx, SimConfig};

/// Digests of `(robustness-failure, robustness-burst)` CSVs.
const FAILURE_DIGEST: u64 = 0x6f52_6269_4fa3_1bf6;
const BURST_DIGEST: u64 = 0xdcfe_a404_805f_8720;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fault_digests(threads: usize) -> (u64, u64) {
    let cfg = SimConfig {
        trials: 3,
        threads,
        ..SimConfig::tiny()
    };
    let (failure, burst) = figures::faults_with(&cfg, 40, Ctx::noop());
    (
        fnv1a(failure.to_csv().as_bytes()),
        fnv1a(burst.to_csv().as_bytes()),
    )
}

#[test]
fn fault_figures_match_committed_digests() {
    for threads in [1, 2] {
        let (failure, burst) = fault_digests(threads);
        assert_eq!(
            failure, FAILURE_DIGEST,
            "robustness-failure CSV changed at {threads} thread(s): {failure:#018x}"
        );
        assert_eq!(
            burst, BURST_DIGEST,
            "robustness-burst CSV changed at {threads} thread(s): {burst:#018x}"
        );
    }
}

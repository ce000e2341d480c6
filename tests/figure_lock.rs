//! Behaviour lock for the density and improvement figures: the CSVs of
//! `fig4`, `fig6`, `fig5-mean`, `fig5-median`, `ablation-noise-styles`
//! (noise 0.5) and `fig9-mean`/`fig9-median` at the tiny preset hash to
//! committed digests.
//!
//! `tests/determinism.rs` compares two runs of one build, so a change
//! that shifts every figure by one ulp would still pass there. This file
//! pins the bits across versions, in the pattern of `tests/fault_lock.rs`:
//! a rewrite of the survey sweep (a different traversal order, a skipped
//! `connected` call, a banded schedule) must reproduce these digests
//! exactly, at any thread count. The noise-style ablation runs all three
//! `NoiseStyle` readings, and `fig9` runs the noisy incremental
//! `ErrorMap::add_beacon` after every Grid placement.

use abp_sim::{figures, AlgorithmKind, Ctx, Figure, SimConfig};

/// `(figure id, digest of its CSV)`, in the order [`figure_digests`]
/// produces them.
const DIGESTS: [(&str, u64); 7] = [
    ("fig4", 0x038b_8e9d_dca0_1596),
    ("fig6", 0x7180_63c9_6166_f864),
    ("fig5-mean", 0x8ffa_c2db_4bd2_dc34),
    ("fig5-median", 0x050d_e0d0_a78f_fef1),
    ("ablation-noise-styles", 0xb76d_61a6_720e_1a1c),
    ("fig9-mean", 0x620a_0d02_0912_dcc5),
    ("fig9-median", 0x5862_efe2_4e06_0d6e),
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn figure_digests(threads: usize) -> Vec<(String, u64)> {
    let cfg = SimConfig {
        trials: 3,
        threads,
        ..SimConfig::tiny()
    };
    let ctx = Ctx::noop();
    let (fig5_mean, fig5_median) = figures::fig5_with(&cfg, ctx);
    let (fig9_mean, fig9_median) = figures::fig_noise_with(&cfg, AlgorithmKind::Grid, ctx);
    let figs: [Figure; 7] = [
        figures::fig4_with(&cfg, ctx),
        figures::fig6_with(&cfg, ctx),
        fig5_mean,
        fig5_median,
        figures::ablation_noise_styles_with(&cfg, 0.5, ctx),
        fig9_mean,
        fig9_median,
    ];
    figs.iter()
        .map(|f| (f.id.clone(), fnv1a(f.to_csv().as_bytes())))
        .collect()
}

#[test]
fn density_and_improvement_figures_match_committed_digests() {
    for threads in [1, 2] {
        let got = figure_digests(threads);
        for ((id, digest), (want_id, want)) in got.iter().zip(DIGESTS) {
            assert_eq!(id, want_id, "figure order changed");
            assert_eq!(
                *digest, want,
                "{id} CSV changed at {threads} thread(s): {digest:#018x}"
            );
        }
    }
}

//! Behaviour lock for the density, improvement and Grid-consuming
//! figures: their CSVs (and the heatmap demo's text) at the tiny preset
//! hash to committed digests.
//!
//! `tests/determinism.rs` compares two runs of one build, so a change
//! that shifts every figure by one ulp would still pass there. This file
//! pins the bits across versions, in the pattern of `tests/fault_lock.rs`:
//! a rewrite of the survey sweep (a different traversal order, a skipped
//! `connected` call, a banded schedule) or of the Grid scorer (a table of
//! row subtotals, a partial selection instead of a full sort) must
//! reproduce these digests exactly, at any thread count.
//!
//! The first lock covers `fig4`, `fig6`, `fig5-mean/median`, the
//! noise-style ablation (all three `NoiseStyle` readings at noise 0.5)
//! and `fig7`/`fig8`/`fig9-mean/median` (the noisy incremental
//! `ErrorMap::add_beacon` after every Random, Max and Grid placement).
//! The second covers every other figure that runs the Grid scorer: the
//! algorithm ablation (Grid and weighted Grid) at noise 0 and 0.5, both
//! robustness figures, the multi-beacon figure (one-shot
//! `propose_top_k` with `k > 1` and greedy Grid batches),
//! multilateration, the weighted-Grid noise figures, and the heatmap
//! demo. The tiny preset has `NG = 100` grids on a 5 m lattice,
//! so the grid-column bands span uneven numbers of lattice columns.

use abp_sim::{figures, heatmap_demo, AlgorithmKind, Ctx, Figure, SimConfig};

/// `(figure id, digest of its CSV)`, in the order [`figure_digests`]
/// produces them.
const DIGESTS: [(&str, u64); 11] = [
    ("fig4", 0x038b_8e9d_dca0_1596),
    ("fig6", 0x7180_63c9_6166_f864),
    ("fig5-mean", 0x8ffa_c2db_4bd2_dc34),
    ("fig5-median", 0x050d_e0d0_a78f_fef1),
    ("ablation-noise-styles", 0xb76d_61a6_720e_1a1c),
    ("fig7-mean", 0x8865_5daa_e936_1c63),
    ("fig7-median", 0xc0d1_6769_0f8e_beff),
    ("fig8-mean", 0x8d0e_070c_3e7e_3948),
    ("fig8-median", 0x2aba_576b_f383_63aa),
    ("fig9-mean", 0x620a_0d02_0912_dcc5),
    ("fig9-median", 0x5862_efe2_4e06_0d6e),
];

/// `(label, digest)` for the Grid-consuming outputs, in the order
/// [`grid_digests`] produces them. The two algorithm ablations share a
/// figure id, so the label carries the noise level.
const GRID_DIGESTS: [(&str, u64); 9] = [
    ("ablation-algorithms@0", 0x901b_74a7_3d5e_248c),
    ("ablation-algorithms@0.5", 0xf87a_fdbe_b65f_c749),
    ("robustness-exploration", 0x7164_7a1a_a4b5_7f47),
    ("robustness-gps", 0xd200_3ef7_8d9d_ef5d),
    ("multi-beacon", 0xd0ae_75ba_1422_c058),
    ("multilateration", 0x63bb_7bfd_5695_9012),
    ("figx-weighted-grid-mean", 0x37d0_6080_9954_3224),
    ("figx-weighted-grid-median", 0x0415_9f9f_642c_59cf),
    ("heatmap_demo", 0x21f7_45b1_9c21_df2e),
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn tiny(threads: usize) -> SimConfig {
    SimConfig {
        trials: 3,
        threads,
        ..SimConfig::tiny()
    }
}

fn csv_digest(fig: &Figure) -> u64 {
    fnv1a(fig.to_csv().as_bytes())
}

fn figure_digests(threads: usize) -> Vec<(String, u64)> {
    let cfg = tiny(threads);
    let ctx = Ctx::noop();
    let (fig5_mean, fig5_median) = figures::fig5_with(&cfg, ctx);
    let (fig7_mean, fig7_median) = figures::fig_noise_with(&cfg, AlgorithmKind::Random, ctx);
    let (fig8_mean, fig8_median) = figures::fig_noise_with(&cfg, AlgorithmKind::Max, ctx);
    let (fig9_mean, fig9_median) = figures::fig_noise_with(&cfg, AlgorithmKind::Grid, ctx);
    let figs: [Figure; 11] = [
        figures::fig4_with(&cfg, ctx),
        figures::fig6_with(&cfg, ctx),
        fig5_mean,
        fig5_median,
        figures::ablation_noise_styles_with(&cfg, 0.5, ctx),
        fig7_mean,
        fig7_median,
        fig8_mean,
        fig8_median,
        fig9_mean,
        fig9_median,
    ];
    figs.iter().map(|f| (f.id.clone(), csv_digest(f))).collect()
}

fn grid_digests(threads: usize) -> Vec<(String, u64)> {
    let cfg = tiny(threads);
    let ctx = Ctx::noop();
    let mut out = Vec::new();
    for (noise, label) in [(0.0, "@0"), (0.5, "@0.5")] {
        let fig = figures::ablation_algorithms_with(&cfg, noise, ctx);
        out.push((format!("{}{label}", fig.id), csv_digest(&fig)));
    }
    let (exploration, gps) = figures::robustness_with(&cfg, 40, ctx);
    let (weighted_mean, weighted_median) =
        figures::fig_noise_with(&cfg, AlgorithmKind::WeightedGrid, ctx);
    for fig in [
        exploration,
        gps,
        figures::multi_beacon_with(&cfg, 0.0, 40, &[1, 2, 4, 8, 12], ctx),
        figures::multilateration_with(&cfg, 0.05, ctx),
        weighted_mean,
        weighted_median,
    ] {
        out.push((fig.id.clone(), csv_digest(&fig)));
    }
    out.push((
        "heatmap_demo".to_owned(),
        fnv1a(heatmap_demo(&cfg).as_bytes()),
    ));
    out
}

fn assert_digests(got: &[(String, u64)], want: &[(&str, u64)], threads: usize) {
    assert_eq!(got.len(), want.len(), "figure count changed");
    for ((id, digest), (want_id, want)) in got.iter().zip(want) {
        assert_eq!(id, want_id, "figure order changed");
        assert_eq!(
            digest, want,
            "{id} output changed at {threads} thread(s): {digest:#018x}"
        );
    }
}

#[test]
fn density_and_improvement_figures_match_committed_digests() {
    for threads in [1, 2] {
        assert_digests(&figure_digests(threads), &DIGESTS, threads);
    }
}

#[test]
fn grid_consuming_figures_match_committed_digests() {
    for threads in [1, 2] {
        assert_digests(&grid_digests(threads), &GRID_DIGESTS, threads);
    }
}

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
//! The third covers the figures that place no beacon, with the CLI's
//! arguments: the Figure 1 granularity curve, the §2.2 overlap bound,
//! the solution-space census and the localizer comparison (which
//! surveys every localizer through the indexed connectivity oracle).
//! The fourth covers the three time-domain figures of `abp net`, on the
//! axes that command derives from the config.
//!
//! A CSV row carries the figure id and series names but not the title or
//! the axis labels, which only [`Figure::render`] prints. So each group
//! also pins every figure's metadata: its id, title, axis labels and
//! series names, in order.

use abp_sim::experiments::net_sim::NetAxes;
use abp_sim::experiments::overlap_bound::BoundConfig;
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

/// `(figure id, digest)` for the figures without placement, in the
/// order [`other_digests`] produces them.
const OTHER_DIGESTS: [(&str, u64); 4] = [
    ("fig1", 0xc4d3_825f_9d8e_5bd3),
    ("bound", 0x7838_79c9_8e5a_e684),
    ("solution-space", 0x9287_bf15_2007_7910),
    ("localizers", 0xe839_c9ec_4c7c_998b),
];

/// `(figure id, digest)` for the net figures, in the order
/// [`net_digests`] produces them.
const NET_DIGESTS: [(&str, u64); 3] = [
    ("net-interval", 0x7112_6311_897b_17ad),
    ("net-collisions", 0x2d3c_35b4_da19_84bb),
    ("net-lifetime", 0xacf9_c0ed_b4fe_9e71),
];

/// `(label, digest of the figure's metadata)` per group, in the order
/// of the CSV digests above (the heatmap demo is text, not a figure).
const META_DIGESTS: [(&str, u64); 11] = [
    ("fig4", 0xc7fa_ecc3_1a4e_82b6),
    ("fig6", 0xb689_9869_9d89_69dd),
    ("fig5-mean", 0xa855_066a_d55a_d017),
    ("fig5-median", 0x2a38_28da_7590_1594),
    ("ablation-noise-styles", 0x9d50_c7cb_ff79_71ce),
    ("fig7-mean", 0x725d_e38d_250b_37ba),
    ("fig7-median", 0x43d0_bbc9_3baf_b213),
    ("fig8-mean", 0xb5b4_e9b2_838e_9a1a),
    ("fig8-median", 0xa6c8_dbd7_423b_6315),
    ("fig9-mean", 0x207d_b6fa_b23d_15dd),
    ("fig9-median", 0xa6b7_5eb4_bdaa_2218),
];
const GRID_META_DIGESTS: [(&str, u64); 8] = [
    ("ablation-algorithms@0", 0xece7_5829_ca3f_4a33),
    ("ablation-algorithms@0.5", 0x7a76_2bd7_ee96_d576),
    ("robustness-exploration", 0xfd02_2304_2911_58ec),
    ("robustness-gps", 0x66f0_1b5b_24e9_9cb6),
    ("multi-beacon", 0x06cd_06aa_af3f_ce24),
    ("multilateration", 0xbbb5_aa56_94da_b6d5),
    ("figx-weighted-grid-mean", 0xb1e5_53c3_e18c_d1a7),
    ("figx-weighted-grid-median", 0x253d_cbf9_99ae_01f0),
];
const OTHER_META_DIGESTS: [(&str, u64); 4] = [
    ("fig1", 0x0876_f936_37f2_c0cb),
    ("bound", 0xdf7c_fdee_73d8_f54d),
    ("solution-space", 0xeb1f_9f01_4dbb_ba99),
    ("localizers", 0xf05a_f549_92a2_a232),
];
const NET_META_DIGESTS: [(&str, u64); 3] = [
    ("net-interval", 0x0619_054d_b070_744e),
    ("net-collisions", 0x5b6b_34b4_4172_ed3c),
    ("net-lifetime", 0x6ef7_ed52_9798_351c),
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

/// Digest of a figure's id, title, axis labels and series names.
fn meta_digest(fig: &Figure) -> u64 {
    let meta: Vec<&str> = [&fig.id, &fig.title, &fig.x_label, &fig.y_label]
        .into_iter()
        .chain(fig.series.iter().map(|s| &s.name))
        .map(String::as_str)
        .collect();
    fnv1a(meta.join("\n").as_bytes())
}

/// One group's locked outputs: `(label, CSV digest)` per output and
/// `(label, metadata digest)` per figure.
#[derive(Default)]
struct Locked {
    csv: Vec<(String, u64)>,
    meta: Vec<(String, u64)>,
}

impl Locked {
    fn push(&mut self, label: String, fig: &Figure) {
        self.csv
            .push((label.clone(), fnv1a(fig.to_csv().as_bytes())));
        self.meta.push((label, meta_digest(fig)));
    }

    fn of(figs: &[Figure]) -> Locked {
        let mut out = Locked::default();
        for fig in figs {
            out.push(fig.id.clone(), fig);
        }
        out
    }
}

fn figure_digests(threads: usize) -> Locked {
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
    Locked::of(&figs)
}

fn grid_digests(threads: usize) -> Locked {
    let cfg = tiny(threads);
    let ctx = Ctx::noop();
    let mut out = Locked::default();
    for (noise, label) in [(0.0, "@0"), (0.5, "@0.5")] {
        let fig = figures::ablation_algorithms_with(&cfg, noise, ctx);
        out.push(format!("{}{label}", fig.id), &fig);
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
        out.push(fig.id.clone(), &fig);
    }
    out.csv.push((
        "heatmap_demo".to_owned(),
        fnv1a(heatmap_demo(&cfg).as_bytes()),
    ));
    out
}

fn other_digests(threads: usize) -> Locked {
    let cfg = tiny(threads);
    let ctx = Ctx::noop();
    Locked::of(&[
        figures::fig1_with(&cfg, &[1, 2, 3, 4, 6, 8, 10], ctx),
        figures::bound_with(&BoundConfig::default(), ctx),
        figures::solution_space_with(&cfg, 0.0, 100, 0.02, ctx),
        figures::localizers_with(&cfg, 0.05, ctx),
    ])
}

fn net_digests(threads: usize) -> Locked {
    let cfg = tiny(threads);
    let ctx = Ctx::noop();
    let axes = NetAxes::for_config(&cfg);
    Locked::of(&[
        figures::net_interval_with(&cfg, &axes, ctx),
        figures::net_collisions_with(&cfg, &axes, ctx),
        figures::net_lifetime_with(&cfg, &axes, ctx),
    ])
}

fn assert_digests(got: &[(String, u64)], want: &[(&str, u64)], what: &str, threads: usize) {
    assert_eq!(got.len(), want.len(), "figure count changed");
    for ((id, digest), (want_id, want)) in got.iter().zip(want) {
        assert_eq!(id, want_id, "figure order changed");
        assert_eq!(
            digest, want,
            "{id} {what} changed at {threads} thread(s): {digest:#018x}"
        );
    }
}

fn assert_locked(got: &Locked, csv: &[(&str, u64)], meta: &[(&str, u64)], threads: usize) {
    assert_digests(&got.csv, csv, "output", threads);
    assert_digests(&got.meta, meta, "metadata", threads);
}

#[test]
fn density_and_improvement_figures_match_committed_digests() {
    for threads in [1, 2] {
        assert_locked(&figure_digests(threads), &DIGESTS, &META_DIGESTS, threads);
    }
}

#[test]
fn grid_consuming_figures_match_committed_digests() {
    for threads in [1, 2] {
        assert_locked(
            &grid_digests(threads),
            &GRID_DIGESTS,
            &GRID_META_DIGESTS,
            threads,
        );
    }
}

#[test]
fn figures_without_placement_match_committed_digests() {
    for threads in [1, 2] {
        assert_locked(
            &other_digests(threads),
            &OTHER_DIGESTS,
            &OTHER_META_DIGESTS,
            threads,
        );
    }
}

#[test]
fn net_figures_match_committed_digests() {
    for threads in [1, 2] {
        assert_locked(
            &net_digests(threads),
            &NET_DIGESTS,
            &NET_META_DIGESTS,
            threads,
        );
    }
}

//! Probe: Grid improvability at moderate density under the noise styles.
use abp_radio::NoiseStyle;
use abp_sim::experiments::improvement;
use abp_sim::{AlgorithmKind, Ctx, SimConfig};

fn main() {
    let mut cfg = SimConfig::paper();
    cfg.step = 2.0;
    cfg.trials = 300;
    cfg.beacon_counts = vec![50, 70, 100];
    for (label, style, noise) in [
        ("ideal", NoiseStyle::Speckled, 0.0),
        ("speckled 0.5", NoiseStyle::Speckled, 0.5),
        ("coherent 0.5", NoiseStyle::CoherentRadius, 0.5),
        ("lossy 0.5", NoiseStyle::Lossy, 0.5),
    ] {
        cfg.noise_style = style;
        let algorithms = [AlgorithmKind::Grid, AlgorithmKind::Max];
        let curves = improvement::run_sweep(&cfg, noise, &algorithms, Ctx::noop()).curves;
        print!("{label:>14}:");
        for (ai, name) in ["grid", "max"].iter().enumerate() {
            for p in &curves[ai].points {
                print!(" {name}@{}:{:.3}", p.beacons, p.mean_improvement.estimate);
            }
        }
        println!();
    }
}

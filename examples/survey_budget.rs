//! Survey budget: how much exploration does adaptive placement need?
//!
//! The paper assumes the robot measures *every* lattice point (§3.1).
//! This example sweeps the exploration budget — the fraction of the
//! terrain actually measured — and shows the Grid algorithm's gain
//! degrading gracefully, a direct consequence of the solution space being
//! dense in good placements at low beacon density (§1, contribution 3).
//!
//! Run with: `cargo run --release --example survey_budget`

use abp_sim::experiments::{robustness, solution_space};
use abp_sim::{Ctx, SimConfig};

fn main() {
    let cfg = SimConfig {
        step: 2.0,
        trials: 60,
        ..SimConfig::paper()
    };
    let beacons = 40; // 0.004 / m^2: the low-density regime

    println!("exploration budget vs Grid's improvement ({beacons} beacons, ideal radio):\n");
    let fractions = [0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0];
    let points = robustness::exploration_sweep_with(&cfg, beacons, &fractions, Ctx::noop());
    let full = points.last().unwrap().mean_improvement.estimate;
    println!(
        "{:>10} {:>16} {:>12}",
        "explored", "mean gain (m)", "vs full"
    );
    for p in &points {
        println!(
            "{:>9.0}% {:>9.3} ± {:.3} {:>11.0}%",
            p.x * 100.0,
            p.mean_improvement.estimate,
            p.mean_improvement.half_width,
            p.mean_improvement.estimate / full * 100.0
        );
    }

    println!("\nwhy it works — the solution space is dense at low density:");
    let mut sol_cfg = cfg.clone();
    sol_cfg.beacon_counts = vec![20, 40, 100, 240];
    sol_cfg.trials = 30;
    let sol = solution_space::run(&sol_cfg, 0.0, 100, 0.02, Ctx::noop());
    println!(
        "\n{:>10} {:>22} {:>20}",
        "density", "satisfying candidates", "best possible (m)"
    );
    for p in &sol {
        println!(
            "{:>10.4} {:>21.0}% {:>20.3}",
            p.density,
            p.satisfying_fraction.estimate * 100.0,
            p.best_improvement.estimate
        );
    }
    println!(
        "\nAt 0.002-0.004 /m^2 roughly a third to a half of ALL candidate points are\n\
         'satisfying' placements, so even a 5% survey finds one. Past the saturation\n\
         density almost no candidate helps - no amount of surveying can fix that."
    );
}

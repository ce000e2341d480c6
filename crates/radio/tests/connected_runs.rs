//! The `Propagation::connected_runs` contract: bit `k` of a run's mask is
//! exactly `connected` at the run's `k`-th receiver, and the bits past
//! the run's length are clear.
//!
//! Surveys decide every receiver outside a beacon's core through this
//! call, so a mask that differs from `connected` in one bit would add or
//! drop a beacon silently. The runs therefore cover lengths 1 to 64,
//! columns past the terrain, and receivers exactly on — and one ulp
//! either side of — each beacon's core and reach circles: a beacon at
//! `x = c` has column 0 of its own row at squared distance `c * c`, the
//! contracts' squared form, bit for bit.

use abp_fault::{BurstPlan, FaultPlan, MortalityPlan};
use abp_geom::Point;
use abp_radio::{
    HeightField, IdealDisk, LogDistance, NoiseStyle, Obstructed, PerBeaconNoise, Propagation, Run,
    TerrainShadowed, TimeVarying, TxId, Wall,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const R: f64 = 15.0;
const NOISES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];
const STYLES: [NoiseStyle; 3] = [
    NoiseStyle::Speckled,
    NoiseStyle::CoherentRadius,
    NoiseStyle::Lossy,
];
const STEPS: [f64; 4] = [0.25, 1.0, 2.0, 3.7];

/// The float `k` ulps from a positive `x`.
fn ulp(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k) as u64)
}

/// A batch of runs for a beacon at `pos`: random rows and columns around
/// it (some past the terrain's 100 m side), every length from 1 to 64,
/// and runs starting at column 0 of the beacon's own row.
fn runs_around(rng: &mut StdRng, pos: Point, step: f64) -> Vec<Run> {
    let reach = 2.0 * R / step;
    let around = |rng: &mut StdRng, c: f64| {
        let offset = (rng.random::<f64>() * 2.0 - 1.0) * reach;
        (c / step + offset).clamp(0.0, 140.0 / step) as u32
    };
    let mut runs: Vec<Run> = (1..=64)
        .map(|len| Run::new(around(rng, pos.y), around(rng, pos.x), len))
        .collect();
    let own_row = (pos.y / step).round().max(0.0) as u32;
    runs.extend([1, 2, 64].map(|len| Run::new(own_row, 0, len)));
    runs
}

/// Beacon positions whose column-0 receiver in their own row lies on or
/// one ulp either side of radius `c`, plus random positions.
fn positions(rng: &mut StdRng, step: f64, circles: [f64; 2]) -> Vec<Point> {
    let mut out = Vec::new();
    for c in circles {
        if c > 0.0 {
            let row_y = (rng.random::<f64>() * 40.0).floor() * step;
            out.extend([-1, 0, 1].map(|k| Point::new(ulp(c, k), row_y)));
        }
    }
    out.extend(
        (0..4).map(|_| Point::new(100.0 * rng.random::<f64>(), 100.0 * rng.random::<f64>())),
    );
    out
}

/// Checks the contract for `model` over many beacons, steps and runs;
/// returns the (set, clear) bit counts so callers can assert both
/// answers were exercised.
fn check<M: Propagation>(model: &M, name: &str, seed: u64) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut set, mut clear) = (0, 0);
    for id in 0..24u64 {
        let tx = TxId(id);
        let step = STEPS[id as usize % STEPS.len()];
        let probe = Point::new(50.0, 50.0);
        let circles = [
            model.core_range(tx, probe).unwrap_or(0.0),
            model.max_range(tx, probe),
        ];
        for pos in positions(&mut rng, step, circles) {
            let runs = runs_around(&mut rng, pos, step);
            let mut masks = vec![u64::MAX; runs.len()];
            <M as Propagation>::connected_runs(model, tx, pos, step, &runs, &mut masks);
            for (run, mask) in runs.iter().zip(&masks) {
                for k in 0..64 {
                    let bit = mask >> k & 1 == 1;
                    if k >= run.len() {
                        assert!(!bit, "{name}: bit {k} set past {run:?}");
                        continue;
                    }
                    let rx = run.receiver(k, step);
                    let want = model.connected(tx, pos, rx);
                    assert_eq!(bit, want, "{name}: {tx} at {pos:?}, {rx:?} in {run:?}");
                    if want {
                        set += 1;
                    } else {
                        clear += 1;
                    }
                }
            }
        }
    }
    (set, clear)
}

fn check_both<M: Propagation>(model: &M, name: &str, seed: u64) {
    let (set, clear) = check(model, name, seed);
    assert!(set > 100 && clear > 100, "{name}: {set} set, {clear} clear");
}

#[test]
fn run_receivers_are_lattice_points() {
    let run = Run::new(3, 7, 2);
    assert_eq!(run.receiver(1, 0.5), Point::new(8.0 * 0.5, 3.0 * 0.5));
    assert_eq!((run.j(), run.i0(), run.len()), (3, 7, 2));
    assert!(Run::new(0, 0, 0).is_empty());
}

#[test]
#[should_panic(expected = "at most 64")]
fn runs_hold_at_most_64_receivers() {
    let _ = Run::new(0, 0, 65);
}

#[test]
fn ideal_and_every_noise_style_and_level() {
    check_both(&IdealDisk::new(R), "ideal", 1);
    for style in STYLES {
        for noise in NOISES {
            let m = PerBeaconNoise::with_style(R, noise, 0x5EED ^ noise.to_bits(), style);
            check_both(&m, &format!("{style} {noise}"), noise.to_bits());
        }
    }
}

#[test]
fn models_without_a_batched_override() {
    let base = IdealDisk::new(R);
    let wall = Wall::new(Point::new(45.0, 0.0), Point::new(45.0, 100.0), 0.3);
    check_both(&LogDistance::new(R, 3.0, 4.0, 1.0, 5), "log-distance", 2);
    check_both(&Obstructed::new(base, vec![wall]), "obstructed", 3);
    let hill = HeightField::hill(5.0, 21, 30.0, 20.0);
    check_both(&TerrainShadowed::new(base, hill, 1.0), "terrain", 4);
    let noisy = PerBeaconNoise::new(R, 0.3, 6);
    check_both(&TimeVarying::new(noisy, 0.3, 1), "time-varying", 5);
}

#[test]
fn references_and_boxes_forward_connected_runs() {
    let m = PerBeaconNoise::new(R, 0.5, 3);
    check_both::<&PerBeaconNoise>(&&m, "&M", 6);
    check_both::<Box<PerBeaconNoise>>(&Box::new(m), "Box<M>", 7);
    let boxed: Box<dyn Propagation> = Box::new(m);
    check_both::<&Box<dyn Propagation>>(&&boxed, "&Box<dyn>", 8);
}

#[test]
fn faulty_radio_under_every_schedule() {
    let mortality = |death_rate, flap_rate| FaultPlan {
        mortality: Some(MortalityPlan {
            death_rate,
            flap_rate,
            duty_cycle: 0.5,
        }),
        ..FaultPlan::none()
    };
    let burst = |x| FaultPlan {
        burst: Some(BurstPlan::paper(x)),
        ..FaultPlan::none()
    };
    let chain = FaultPlan {
        burst: Some(BurstPlan {
            intensity: 0.3,
            burst_len: 4.0,
            loss_good: 0.05,
            loss_bad: 0.9,
            window: 32,
            threshold: 0.85,
        }),
        ..FaultPlan::none()
    };
    let plans = [
        ("dead", mortality(0.5, 0.0)),
        ("flapping", mortality(0.0, 0.8)),
        ("lossy burst", burst(0.4)),
        ("light burst", burst(0.2)),
        ("leaky 32-message chain", chain),
        (
            "flapping under a lossy burst",
            FaultPlan {
                mortality: mortality(0.2, 0.5).mortality,
                ..burst(0.4)
            },
        ),
        ("transparent burst", burst(0.0)),
    ];
    let noisy = PerBeaconNoise::new(R, 0.3, 9);
    for (name, plan) in plans {
        for epoch in 0..3 {
            let world = plan.compile(11).wrap(noisy, epoch);
            let (set, clear) = check(&world, &format!("{name} epoch {epoch}"), 10 + epoch);
            assert!(
                set > 0 && clear > 100,
                "{name} epoch {epoch}: {set} set, {clear} clear"
            );
        }
    }
    // At intensity 0.8 the paper's chain cuts every link, almost all
    // within a few messages.
    for epoch in 0..3 {
        let world = burst(0.8).compile(11).wrap(noisy, epoch);
        let (set, clear) = check(&world, &format!("heavy burst epoch {epoch}"), 10 + epoch);
        assert!(
            set == 0 && clear > 100,
            "heavy burst epoch {epoch}: {set} set, {clear} clear"
        );
    }
    // A dead beacon's masks are zero whatever the base model hears.
    let dead = mortality(1.0, 0.0).compile(11).wrap(IdealDisk::new(R), 0);
    let (set, _) = check(&dead, "all dead", 13);
    assert_eq!(set, 0);
}

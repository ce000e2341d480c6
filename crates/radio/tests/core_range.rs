//! The `Propagation::core_range` contract: every receiver with
//! `tx_pos.distance_squared(rx) <= core * core` is connected, and the
//! core never exceeds `max_range`.
//!
//! Surveys skip the `connected` call inside the core, so a core that is
//! one ulp too generous would silently add a beacon the model rejects.
//! The samples therefore include receivers exactly on the core circle
//! (axis-aligned, where the squared distance equals `core * core` bit for
//! bit) and receivers one ulp either side of it.

use abp_geom::Point;
use abp_radio::{
    HeightField, IdealDisk, LogDistance, NoiseStyle, Obstructed, PerBeaconNoise, Propagation,
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

/// Receivers around `tx_pos` for a beacon with core `core` and reach
/// `reach`: uniform in the reach disk, on the core circle at random
/// angles, and exactly on (and one ulp off) the circle along both axes.
fn receivers(rng: &mut StdRng, tx_pos: Point, core: f64, reach: f64) -> Vec<Point> {
    let mut out = Vec::new();
    for _ in 0..64 {
        let theta = rng.random::<f64>() * std::f64::consts::TAU;
        let d = reach * rng.random::<f64>().sqrt();
        out.push(Point::new(
            tx_pos.x + d * theta.cos(),
            tx_pos.y + d * theta.sin(),
        ));
        out.push(Point::new(
            tx_pos.x + core * theta.cos(),
            tx_pos.y + core * theta.sin(),
        ));
    }
    // The core and its two neighbouring floats (cores are positive).
    let ulp = |c: f64, k: i64| f64::from_bits((c.to_bits() as i64 + k) as u64);
    for c in [ulp(core, -1), core, ulp(core, 1)] {
        out.extend([
            Point::new(tx_pos.x + c, tx_pos.y),
            Point::new(tx_pos.x - c, tx_pos.y),
            Point::new(tx_pos.x, tx_pos.y + c),
            Point::new(tx_pos.x, tx_pos.y - c),
        ]);
    }
    out
}

/// Checks the contract for `model` over many beacons and receivers;
/// returns how many receivers fell inside a core (so callers can assert
/// the boundary was really exercised).
fn check_contract<M: Propagation>(model: &M, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inside = 0;
    for id in 0..200u64 {
        let tx = TxId(id);
        // Whole-number positions keep the axis-aligned boundary
        // receivers exact: (x + core) - x == core for these magnitudes.
        let tx_pos = Point::new(
            (rng.random::<f64>() * 100.0).floor(),
            (rng.random::<f64>() * 100.0).floor(),
        );
        let reach = model.max_range(tx, tx_pos);
        let core = model
            .core_range(tx, tx_pos)
            .expect("model under test has a core");
        assert!(
            (0.0..=reach).contains(&core),
            "core {core} outside [0, max_range {reach}] for {tx}"
        );
        for rx in receivers(&mut rng, tx_pos, core, reach) {
            if tx_pos.distance_squared(rx) <= core * core {
                inside += 1;
                assert!(
                    model.connected(tx, tx_pos, rx),
                    "{tx} at {tx_pos} drops {rx} inside its core {core}"
                );
            }
        }
    }
    inside
}

#[test]
fn ideal_disk_core_is_its_range() {
    let m = IdealDisk::new(R);
    assert!(check_contract(&m, 1) > 0);
    for id in 0..50 {
        let p = Point::new(id as f64, 2.0 * id as f64);
        assert_eq!(m.core_range(TxId(id), p), Some(m.max_range(TxId(id), p)));
    }
}

#[test]
fn noise_cores_hold_for_every_style_and_level() {
    for style in STYLES {
        for noise in NOISES {
            let m = PerBeaconNoise::with_style(R, noise, 0x5EED ^ noise.to_bits(), style);
            let inside = check_contract(&m, noise.to_bits());
            assert!(
                inside > 1000,
                "{style} noise {noise}: only {inside} core hits"
            );
        }
    }
}

#[test]
fn noise_core_is_r_one_minus_nf_for_per_point_styles() {
    for style in [NoiseStyle::Speckled, NoiseStyle::Lossy] {
        for noise in NOISES {
            let m = PerBeaconNoise::with_style(R, noise, 9, style);
            for id in 0..50 {
                let tx = TxId(id);
                let want = R * (1.0 - m.noise_factor(tx));
                assert_eq!(m.core_range(tx, Point::ORIGIN), Some(want));
            }
        }
    }
}

#[test]
fn coherent_radius_core_is_the_whole_disk() {
    for noise in NOISES {
        let m = PerBeaconNoise::with_style(R, noise, 21, NoiseStyle::CoherentRadius);
        for id in 0..50 {
            let (tx, p) = (TxId(id), Point::new(3.0 * id as f64, 40.0));
            assert_eq!(m.core_range(tx, p), Some(m.max_range(tx, p)));
        }
    }
}

#[test]
fn noiseless_cores_equal_the_ideal_disk() {
    for style in STYLES {
        let m = PerBeaconNoise::with_style(R, 0.0, 4, style);
        for id in 0..20 {
            assert_eq!(m.core_range(TxId(id), Point::ORIGIN), Some(R));
        }
    }
}

#[test]
fn references_and_boxes_forward_core_range() {
    fn core<M: Propagation>(model: M) -> Option<f64> {
        model.core_range(TxId(7), Point::new(10.0, 20.0))
    }
    for style in STYLES {
        let m = PerBeaconNoise::with_style(R, 0.5, 3, style);
        let want = m.core_range(TxId(7), Point::new(10.0, 20.0));
        assert!(want.is_some());
        assert_eq!(core::<&PerBeaconNoise>(&m), want);
        assert_eq!(core(Box::new(m)), want);
        let boxed: Box<dyn Propagation> = Box::new(m);
        assert_eq!(core::<&Box<dyn Propagation>>(&boxed), want);
    }
}

#[test]
fn models_that_drop_links_inside_a_base_core_have_none() {
    let base = IdealDisk::new(R);
    let p = Point::new(50.0, 50.0);
    let wall = Wall::new(Point::new(45.0, 0.0), Point::new(45.0, 100.0), 0.1);
    let none: [(&str, Box<dyn Propagation>); 4] = [
        ("TimeVarying", Box::new(TimeVarying::new(base, 0.3, 1))),
        ("Obstructed", Box::new(Obstructed::new(base, vec![wall]))),
        (
            "TerrainShadowed",
            Box::new(TerrainShadowed::new(
                base,
                HeightField::hill(5.0, 21, 30.0, 20.0),
                1.0,
            )),
        ),
        (
            "LogDistance",
            Box::new(LogDistance::new(R, 3.0, 4.0, 1.0, 5)),
        ),
    ];
    for (name, model) in &none {
        assert_eq!(model.core_range(TxId(1), p), None, "{name}");
    }
    // The wrappers really can drop a link their base would carry inside
    // its core, which is why they must not forward the base's core.
    let blocked = Point::new(40.0, 50.0);
    assert!(base.connected(TxId(1), p, blocked));
    assert!(!none[1].1.connected(TxId(1), p, blocked), "wall blocks");
}

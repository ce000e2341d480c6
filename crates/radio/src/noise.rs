//! The paper's static per-beacon propagation-noise model (§4.2.1).

use crate::{Propagation, TxId};
use abp_geom::{DeterministicField, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the paper's per-(beacon, point) draw `u` is realized.
///
/// The paper states `u` is "chosen uniformly at random between −1 and 1"
/// without saying whether one draw is shared per beacon or redrawn per
/// query point; both readings satisfy the printed formula. They differ
/// observably:
///
/// * [`NoiseStyle::Speckled`] (default, the literal reading) — `u` per
///   (beacon, point): each beacon's coverage boundary is a speckled
///   annulus between `R(1−nf)` and `R(1+nf)`. Independent per-point
///   speckle largely averages out of the centroid, so the error increase
///   under noise is mild.
/// * [`NoiseStyle::CoherentRadius`] — `u` per beacon: each beacon's disk
///   is coherently grown or shrunk to radius `R(1 + u(B)·nf(B))`. The
///   whole disk shifts together, biasing centroids coherently; this
///   reading reproduces the paper's reported error increase (≈ 33 % at
///   `Noise = 0.5`) much more closely. See EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum NoiseStyle {
    /// `u` redrawn per (beacon, point): speckled annulus boundary.
    #[default]
    Speckled,
    /// `u` drawn once per beacon: coherently perturbed disk radius.
    CoherentRadius,
    /// `u` redrawn per (beacon, point) but clamped to `[-1, 0]` — noise
    /// only ever *shortens* reach, as physical losses (multi-path, fading,
    /// shadowing, obstacles) do. Not the printed formula, but the reading
    /// that reproduces the paper's reported magnitudes (error up ≈ 33 %,
    /// saturation density up ≈ 50 % at `Noise = 0.5`); the symmetric
    /// readings grow coverage as often as they shrink it and yield much
    /// milder effects. Compared in EXPERIMENTS.md.
    Lossy,
}

impl fmt::Display for NoiseStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NoiseStyle::Speckled => "speckled",
            NoiseStyle::CoherentRadius => "coherent-radius",
            NoiseStyle::Lossy => "lossy",
        })
    }
}

/// The ICDCS 2001 noise model: connectivity to beacon `B` exists at point
/// `P` iff
///
/// ```text
/// distance(P, B) <= R · (1 + u · nf(B))
/// ```
///
/// where `nf(B)` — the *noise factor* of beacon `B` — is drawn uniformly
/// from `[0, Noise]` once per beacon, and `u` is drawn uniformly from
/// `[-1, 1]` (see [`NoiseStyle`] for the readings of `u`'s scope).
/// The intent (quoting the paper) is "to
/// create non-uniform propagation noise for the beacons, and to create
/// random regions with higher propagation noise than the rest of the
/// location field". The model is **location based and static with respect
/// to time**.
///
/// Both draws are realized through a seeded
/// [`DeterministicField`], so the model needs
/// no storage, answers identically for repeated queries (before/after
/// surveys see the same world), and distinct seeds give independent noise
/// fields for independent Monte-Carlo trials.
///
/// Geometry of one beacon's coverage: points closer than `R(1 - nf(B))`
/// are always connected, points beyond `R(1 + nf(B))` never, and the
/// annulus in between is speckled (connected with probability falling
/// linearly from 1 to 0 with distance).
///
/// # Example
///
/// ```
/// use abp_geom::Point;
/// use abp_radio::{PerBeaconNoise, Propagation, TxId};
///
/// let m = PerBeaconNoise::new(15.0, 0.5, 7);
/// let b = Point::new(50.0, 50.0);
/// // Inside the guaranteed core R(1 - Noise):
/// assert!(m.connected(TxId(2), b, Point::new(50.0, 57.0)));
/// // Beyond the maximal reach R(1 + Noise):
/// assert!(!m.connected(TxId(2), b, Point::new(50.0, 73.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerBeaconNoise {
    nominal: f64,
    max_noise: f64,
    style: NoiseStyle,
    field: DeterministicField,
}

impl PerBeaconNoise {
    /// Creates the model with the default [`NoiseStyle::Speckled`].
    ///
    /// * `nominal` — the nominal range `R` (15 m in the paper),
    /// * `max_noise` — the field's maximum noise factor `Noise`
    ///   (0, 0.1, 0.3 or 0.5 in the paper; 0 degenerates to
    ///   [`IdealDisk`](crate::IdealDisk) behaviour),
    /// * `seed` — realizes this field's noise; independent trials use
    ///   different seeds.
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not finite/positive, or `max_noise` is not in
    /// `[0, 1)` (a noise factor of 1 would let effective ranges reach 0,
    /// and the paper never exceeds 0.5).
    pub fn new(nominal: f64, max_noise: f64, seed: u64) -> Self {
        Self::with_style(nominal, max_noise, seed, NoiseStyle::default())
    }

    /// Creates the model with an explicit [`NoiseStyle`].
    ///
    /// # Panics
    ///
    /// As [`PerBeaconNoise::new`].
    pub fn with_style(nominal: f64, max_noise: f64, seed: u64, style: NoiseStyle) -> Self {
        assert!(
            nominal.is_finite() && nominal > 0.0,
            "nominal range must be finite and positive, got {nominal}"
        );
        assert!(
            (0.0..1.0).contains(&max_noise),
            "max noise factor must be in [0, 1), got {max_noise}"
        );
        PerBeaconNoise {
            nominal,
            max_noise,
            style,
            field: DeterministicField::new(seed),
        }
    }

    /// The configured [`NoiseStyle`].
    #[inline]
    pub fn style(&self) -> NoiseStyle {
        self.style
    }

    /// The nominal range `R`.
    #[inline]
    pub fn nominal(&self) -> f64 {
        self.nominal
    }

    /// The field-wide maximum noise factor `Noise`.
    #[inline]
    pub fn max_noise(&self) -> f64 {
        self.max_noise
    }

    /// The noise factor `nf(B)` of a specific beacon, in
    /// `[0, max_noise]`.
    #[inline]
    pub fn noise_factor(&self, tx: TxId) -> f64 {
        self.field.unit_keyed(tx.0) * self.max_noise
    }

    /// The perturbation `u` in `[-1, 1)`: per (beacon, point) under
    /// [`NoiseStyle::Speckled`], per beacon under
    /// [`NoiseStyle::CoherentRadius`] (then `rx` is ignored).
    #[inline]
    pub fn u(&self, tx: TxId, rx: Point) -> f64 {
        match self.style {
            NoiseStyle::Speckled => self.field.symmetric(tx.0, rx),
            NoiseStyle::CoherentRadius => self.field.unit_keyed(tx.0 ^ 0xC0_4E_7A) * 2.0 - 1.0,
            NoiseStyle::Lossy => -self.field.unit(tx.0, rx),
        }
    }

    /// The effective connectivity radius for `tx` *at query point* `rx`:
    /// `R (1 + u·nf)`.
    #[inline]
    pub fn effective_range(&self, tx: TxId, rx: Point) -> f64 {
        self.nominal * (1.0 + self.u(tx, rx) * self.noise_factor(tx))
    }
}

impl Propagation for PerBeaconNoise {
    #[inline]
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool {
        let r = self.effective_range(tx, rx);
        tx_pos.distance_squared(rx) <= r * r
    }

    #[inline]
    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64 {
        match self.style {
            NoiseStyle::Speckled => self.nominal * (1.0 + self.noise_factor(tx)),
            NoiseStyle::CoherentRadius => self.effective_range(tx, tx_pos).max(0.0),
            NoiseStyle::Lossy => self.nominal,
        }
    }

    #[inline]
    fn nominal_range(&self) -> f64 {
        self.nominal
    }

    /// `R(1 − nf)` under the per-point styles: `u ≥ −1`, and every step
    /// of `R · (1 + u·nf)` rounds monotonically, so the effective radius
    /// at any point is at least this value in floating point too. Under
    /// [`NoiseStyle::CoherentRadius`] the disk is sharp and the core is
    /// the beacon's whole radius, leaving no annulus to test.
    #[inline]
    fn core_range(&self, tx: TxId, tx_pos: Point) -> Option<f64> {
        Some(match self.style {
            NoiseStyle::Speckled | NoiseStyle::Lossy => {
                self.nominal * (1.0 - self.noise_factor(tx))
            }
            NoiseStyle::CoherentRadius => self.max_range(tx, tx_pos),
        })
    }
}

impl fmt::Display for PerBeaconNoise {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "per-beacon noise (R = {} m, Noise = {}, seed = {})",
            self.nominal,
            self.max_noise,
            self.field.seed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: f64 = 15.0;

    #[test]
    fn zero_noise_equals_ideal_disk() {
        let m = PerBeaconNoise::new(R, 0.0, 123);
        let b = Point::new(10.0, 10.0);
        for k in 0..200 {
            let rx = Point::new((k % 20) as f64 * 2.0, (k / 20) as f64 * 2.5);
            let ideal = b.distance(rx) <= R;
            assert_eq!(m.connected(TxId(5), b, rx), ideal, "rx {rx}");
        }
        assert_eq!(m.max_range(TxId(5), b), R);
    }

    #[test]
    fn connectivity_is_static_in_time() {
        let m = PerBeaconNoise::new(R, 0.5, 99);
        let b = Point::new(30.0, 40.0);
        let rx = Point::new(35.0, 52.0);
        let first = m.connected(TxId(1), b, rx);
        for _ in 0..10 {
            assert_eq!(m.connected(TxId(1), b, rx), first);
        }
    }

    #[test]
    fn guaranteed_core_and_max_reach() {
        let m = PerBeaconNoise::new(R, 0.5, 7);
        let b = Point::new(50.0, 50.0);
        for tx in (0..50).map(TxId) {
            let nf = m.noise_factor(tx);
            assert!((0.0..=0.5).contains(&nf));
            // Points strictly inside R(1 - nf) are always connected.
            let core = R * (1.0 - nf) * 0.999;
            assert!(m.connected(tx, b, Point::new(50.0 + core, 50.0)));
            // Points beyond R(1 + nf) never are.
            let beyond = R * (1.0 + nf) * 1.001;
            assert!(!m.connected(tx, b, Point::new(50.0 + beyond, 50.0)));
            // max_range bounds connectivity.
            assert!(m.max_range(tx, b) >= core && m.max_range(tx, b) <= R * 1.5);
        }
    }

    #[test]
    fn noise_factors_vary_across_beacons() {
        let m = PerBeaconNoise::new(R, 0.5, 11);
        let factors: Vec<f64> = (0..20).map(|k| m.noise_factor(TxId(k))).collect();
        let distinct = factors
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 1e-12)
            .count();
        assert!(distinct > 10, "noise factors should differ across beacons");
    }

    #[test]
    fn noise_factor_roughly_uniform_over_population() {
        let m = PerBeaconNoise::new(R, 0.5, 3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|k| m.noise_factor(TxId(k))).sum::<f64>() / n as f64;
        // U[0, 0.5] has mean 0.25.
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn annulus_connectivity_rate_matches_linear_falloff() {
        // At distance d = R(1 + x·nf) for x in (-1, 1), the connection
        // probability over random points is (1 - x) / 2.
        let m = PerBeaconNoise::new(R, 0.5, 42);
        let tx = TxId(0);
        let nf = m.noise_factor(tx);
        assert!(nf > 0.05, "test needs a beacon with real noise");
        let b = Point::new(0.0, 0.0);
        let x = 0.0; // mid-annulus: expect ~50% connected
        let d = R * (1.0 + x * nf);
        let n = 20_000;
        let connected = (0..n)
            .filter(|k| {
                let theta = std::f64::consts::TAU * *k as f64 / n as f64;
                m.connected(tx, b, Point::new(d * theta.cos(), d * theta.sin()))
            })
            .count();
        let rate = connected as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn different_seeds_different_worlds() {
        let m1 = PerBeaconNoise::new(R, 0.5, 1);
        let m2 = PerBeaconNoise::new(R, 0.5, 2);
        let b = Point::ORIGIN;
        let diffs = (0..2000)
            .filter(|k| {
                let rx = Point::new(14.0 + (k % 40) as f64 * 0.05, (k / 40) as f64 * 0.3);
                m1.connected(TxId(3), b, rx) != m2.connected(TxId(3), b, rx)
            })
            .count();
        assert!(diffs > 0, "independent seeds must disagree somewhere");
    }

    #[test]
    #[should_panic(expected = "max noise factor")]
    fn rejects_noise_of_one() {
        let _ = PerBeaconNoise::new(R, 1.0, 0);
    }

    #[test]
    fn coherent_radius_is_a_clean_disk() {
        let m = PerBeaconNoise::with_style(R, 0.5, 7, NoiseStyle::CoherentRadius);
        let b = Point::new(50.0, 50.0);
        for tx in (0..20).map(TxId) {
            let r_eff = m.effective_range(tx, b);
            assert!((R * 0.5..=R * 1.5).contains(&r_eff));
            // Coherent: connectivity is exactly the disk of radius r_eff.
            for k in 0..100 {
                let theta = std::f64::consts::TAU * k as f64 / 100.0;
                let inside = Point::new(
                    50.0 + 0.99 * r_eff * theta.cos(),
                    50.0 + 0.99 * r_eff * theta.sin(),
                );
                let outside = Point::new(
                    50.0 + 1.01 * r_eff * theta.cos(),
                    50.0 + 1.01 * r_eff * theta.sin(),
                );
                assert!(m.connected(tx, b, inside));
                assert!(!m.connected(tx, b, outside));
            }
        }
    }

    #[test]
    fn coherent_radii_vary_across_beacons() {
        let m = PerBeaconNoise::with_style(R, 0.5, 3, NoiseStyle::CoherentRadius);
        let radii: Vec<f64> = (0..20)
            .map(|k| m.effective_range(TxId(k), Point::ORIGIN))
            .collect();
        let grown = radii.iter().filter(|&&r| r > R).count();
        let shrunk = radii.iter().filter(|&&r| r < R).count();
        assert!(grown > 2 && shrunk > 2, "u should be two-sided: {radii:?}");
    }

    #[test]
    fn lossy_never_reaches_beyond_nominal() {
        let m = PerBeaconNoise::with_style(R, 0.5, 11, NoiseStyle::Lossy);
        let b = Point::new(50.0, 50.0);
        for tx in (0..20).map(TxId) {
            assert_eq!(m.max_range(tx, b), R);
            // Nothing beyond R, ever.
            assert!(!m.connected(tx, b, Point::new(50.0 + R * 1.001, 50.0)));
            // The guaranteed core R(1 - nf) still connects.
            let core = R * (1.0 - m.noise_factor(tx)) * 0.999;
            assert!(m.connected(tx, b, Point::new(50.0 + core, 50.0)));
        }
    }

    #[test]
    fn lossy_shrinks_coverage_on_average() {
        let spec = PerBeaconNoise::with_style(R, 0.5, 5, NoiseStyle::Speckled);
        let lossy = PerBeaconNoise::with_style(R, 0.5, 5, NoiseStyle::Lossy);
        let b = Point::ORIGIN;
        let count = |m: &PerBeaconNoise| {
            (0..10_000)
                .filter(|k| {
                    let p = Point::new(
                        ((k % 100) as f64 - 50.0) * 0.5,
                        ((k / 100) as f64 - 50.0) * 0.5,
                    );
                    m.connected(TxId(0), b, p)
                })
                .count()
        };
        assert!(count(&lossy) < count(&spec));
    }

    #[test]
    fn styles_display() {
        assert_eq!(NoiseStyle::Speckled.to_string(), "speckled");
        assert_eq!(NoiseStyle::CoherentRadius.to_string(), "coherent-radius");
        assert_eq!(NoiseStyle::Lossy.to_string(), "lossy");
    }
}

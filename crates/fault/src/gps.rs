//! Survey-agent GPS outages: dropped or position-biased samples.
//!
//! The paper's terrain survey assumes the measuring agent knows its own
//! position exactly (idealized GPS/differential-GPS, §5). Field robots do
//! not: canyon walls and foliage produce *outage windows* during which
//! the receiver either reports nothing or reports a confidently wrong
//! position. This module models both, in units of survey waypoints:
//!
//! * **drop** mode: samples taken inside an outage window are discarded —
//!   the error map simply has holes where the robot was blind;
//! * **bias** mode: the receiver keeps reporting, but with a constant
//!   per-window offset (multipath lock onto a reflected signal), so the
//!   robot files its measurements under the wrong coordinates.
//!
//! Windows are blocks of consecutive waypoints; whether a block is an
//! outage, and the bias vector it applies, hash deterministically from
//! the schedule seed so replays agree.

use crate::{mix, unit};
use abp_geom::Vec2;
use serde::{Deserialize, Serialize};

/// What the GPS fault does to one survey sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpsFault {
    /// The sample is lost entirely.
    Drop,
    /// The believed position is offset by this displacement.
    Bias(Vec2),
}

/// Declarative GPS-outage parameters for a [`crate::FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsOutagePlan {
    /// Expected fraction of waypoints falling inside an outage, `[0, 1]`.
    pub outage_fraction: f64,
    /// Length of an outage window, in consecutive waypoints (`>= 1`).
    pub window: usize,
    /// Magnitude scale of the per-window position bias in meters.
    /// Zero selects drop mode: blind samples are discarded instead.
    pub bias_meters: f64,
}

impl GpsOutagePlan {
    /// Folds the plan's parameters into a fingerprint hash.
    pub(crate) fn fingerprint(&self, h: u64) -> u64 {
        let h = mix(h, 0x4750_5321); // "GPS!"
        let h = mix(h, self.outage_fraction.to_bits());
        let h = mix(h, self.window as u64);
        mix(h, self.bias_meters.to_bits())
    }
}

/// A compiled GPS-outage realization for one trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsOutage {
    seed: u64,
    plan: GpsOutagePlan,
}

impl GpsOutage {
    /// Compiles `plan` against a per-trial seed.
    pub fn new(seed: u64, plan: GpsOutagePlan) -> Self {
        GpsOutage { seed, plan }
    }

    /// The length of an outage window in waypoints: every waypoint of
    /// one window, from a multiple of this length, shares its fault.
    pub fn window(&self) -> usize {
        self.plan.window.max(1)
    }

    /// The fault affecting waypoint index `waypoint`, if any.
    pub fn fault_at(&self, waypoint: usize) -> Option<GpsFault> {
        let block = (waypoint / self.window()) as u64;
        let h = mix(self.seed, mix(0x0675_0004, block));
        if unit(h) >= self.plan.outage_fraction {
            return None;
        }
        if self.plan.bias_meters <= 0.0 {
            return Some(GpsFault::Drop);
        }
        // One constant offset per window: the receiver locks onto a
        // reflected signal and stays wrong until the window ends.
        let angle = std::f64::consts::TAU * unit(mix(h, 0x0676_0005));
        let magnitude = self.plan.bias_meters * (0.5 + unit(mix(h, 0x0677_0006)));
        Some(GpsFault::Bias(Vec2 {
            x: magnitude * angle.cos(),
            y: magnitude * angle.sin(),
        }))
    }

    /// Fraction of the first `n` waypoints affected by an outage
    /// (diagnostic helper).
    pub fn outage_fraction_of(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let hit = (0..n).filter(|&w| self.fault_at(w).is_some()).count();
        hit as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_plan() -> GpsOutagePlan {
        GpsOutagePlan {
            outage_fraction: 0.3,
            window: 8,
            bias_meters: 0.0,
        }
    }

    #[test]
    fn replay_is_identical() {
        let a = GpsOutage::new(31, drop_plan());
        let b = GpsOutage::new(31, drop_plan());
        for w in 0..500 {
            assert_eq!(a.fault_at(w), b.fault_at(w));
        }
    }

    #[test]
    fn drop_mode_emits_drops_only() {
        let o = GpsOutage::new(31, drop_plan());
        let mut saw_drop = false;
        for w in 0..500 {
            match o.fault_at(w) {
                Some(GpsFault::Drop) => saw_drop = true,
                Some(GpsFault::Bias(_)) => panic!("drop mode produced a bias"),
                None => {}
            }
        }
        assert!(saw_drop);
    }

    #[test]
    fn windows_are_contiguous_blocks() {
        let o = GpsOutage::new(31, drop_plan());
        assert_eq!(o.window(), 8);
        // All waypoints inside one window share its fate.
        for block in 0..40 {
            let first = o.fault_at(block * 8);
            for offset in 1..8 {
                assert_eq!(o.fault_at(block * 8 + offset).is_some(), first.is_some());
            }
        }
    }

    #[test]
    fn bias_mode_is_constant_within_a_window() {
        let plan = GpsOutagePlan {
            outage_fraction: 0.5,
            window: 6,
            bias_meters: 3.0,
        };
        let o = GpsOutage::new(99, plan);
        for block in 0..60usize {
            if let Some(GpsFault::Bias(v)) = o.fault_at(block * 6) {
                let len = (v.x * v.x + v.y * v.y).sqrt();
                assert!((1.5..=4.5).contains(&len), "bias magnitude {len}");
                for offset in 1..6 {
                    assert_eq!(o.fault_at(block * 6 + offset), Some(GpsFault::Bias(v)));
                }
            }
        }
    }

    #[test]
    fn outage_fraction_tracks_request() {
        let o = GpsOutage::new(5, drop_plan());
        let f = o.outage_fraction_of(8000);
        assert!((f - 0.3).abs() < 0.06, "outage fraction {f} far from 0.3");
    }

    #[test]
    fn zero_fraction_never_faults() {
        let plan = GpsOutagePlan {
            outage_fraction: 0.0,
            window: 4,
            bias_meters: 2.0,
        };
        let o = GpsOutage::new(5, plan);
        assert!((0..200).all(|w| o.fault_at(w).is_none()));
    }
}

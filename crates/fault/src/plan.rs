//! The declarative [`FaultPlan`] and its compiled [`FaultSchedule`].

use crate::drift::{DriftPlan, DriftSchedule};
use crate::gilbert::{BurstPlan, BurstSchedule};
use crate::gps::{GpsFault, GpsOutage, GpsOutagePlan};
use crate::mix;
use crate::mortality::{MortalityPlan, MortalitySchedule};
use abp_geom::{DeterministicField, Point};
use abp_radio::{Propagation, TxId};
use serde::{Deserialize, Serialize};

/// A declarative description of which faults afflict a trial.
///
/// `None` in every slot is the healthy world: compiling such a plan
/// yields a schedule that never kills a beacon, never cuts a link,
/// never blinds the robot, and never drifts the noise — byte-for-byte
/// the behavior of a run without `abp-fault` in the loop.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Beacon mortality (permanent death + duty-cycle flapping).
    pub mortality: Option<MortalityPlan>,
    /// Correlated message-loss bursts on every link.
    pub burst: Option<BurstPlan>,
    /// Survey-agent GPS outage windows.
    pub gps: Option<GpsOutagePlan>,
    /// Drifting noise-factor ramp across epochs.
    pub drift: Option<DriftPlan>,
}

impl FaultPlan {
    /// The healthy world: no faults at all.
    pub const fn none() -> Self {
        FaultPlan {
            mortality: None,
            burst: None,
            gps: None,
            drift: None,
        }
    }

    /// Whether this plan injects no faults whatsoever.
    pub fn is_none(&self) -> bool {
        self.mortality.is_none()
            && self.burst.is_none()
            && self.gps.is_none()
            && self.drift.is_none()
    }

    /// A stable hash of every parameter in the plan.
    ///
    /// Folded into sweep checkpoint keys so entries computed under one
    /// fault regime are never mistaken for another's.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0x4642_5046_5f76_3031; // "FBPF_v01"
        h = mix(h, u64::from(self.mortality.is_some()));
        if let Some(m) = &self.mortality {
            h = m.fingerprint(h);
        }
        h = mix(h, u64::from(self.burst.is_some()));
        if let Some(b) = &self.burst {
            h = b.fingerprint(h);
        }
        h = mix(h, u64::from(self.gps.is_some()));
        if let Some(g) = &self.gps {
            h = g.fingerprint(h);
        }
        h = mix(h, u64::from(self.drift.is_some()));
        if let Some(d) = &self.drift {
            h = d.fingerprint(h);
        }
        h
    }

    /// Compiles the plan into a concrete per-trial realization.
    ///
    /// Each fault family receives an independent sub-seed derived from
    /// `trial_seed` by a salted splitmix64 chain, so enabling one family
    /// never perturbs another's realization.
    pub fn compile(&self, trial_seed: u64) -> FaultSchedule {
        FaultSchedule {
            mortality: self
                .mortality
                .map(|p| MortalitySchedule::new(mix(trial_seed, 0x4D4F_5254_5345_4544), p)),
            burst: self
                .burst
                .map(|p| BurstSchedule::new(mix(trial_seed, 0x4255_5253_5345_4544), p)),
            gps: self
                .gps
                .map(|p| GpsOutage::new(mix(trial_seed, 0x4750_5353_5345_4544), p)),
            drift: self
                .drift
                .map(|p| DriftSchedule::new(mix(trial_seed, 0x4452_4654_5345_4544), p)),
            link_field: DeterministicField::new(mix(trial_seed, 0x4C49_4E4B_5345_4544)),
        }
    }
}

/// A compiled, queryable fault realization for one trial.
///
/// Pure functions of `(trial seed, plan, query)` throughout — a schedule
/// holds no mutable state and may be queried from any thread in any
/// order with identical results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    mortality: Option<MortalitySchedule>,
    burst: Option<BurstSchedule>,
    gps: Option<GpsOutage>,
    drift: Option<DriftSchedule>,
    link_field: DeterministicField,
}

impl FaultSchedule {
    /// Whether beacon `tx` is transmitting during `epoch`.
    pub fn is_alive(&self, tx: u64, epoch: u64) -> bool {
        self.mortality.map_or(true, |m| m.is_alive(tx, epoch))
    }

    /// The GPS fault affecting survey waypoint `waypoint`, if any.
    pub fn gps_fault(&self, waypoint: usize) -> Option<GpsFault> {
        self.gps.and_then(|g| g.fault_at(waypoint))
    }

    /// Multiplier on the configured noise factor at `epoch`.
    pub fn noise_multiplier(&self, epoch: u64) -> f64 {
        self.drift.map_or(1.0, |d| d.noise_multiplier(epoch))
    }

    /// The compiled mortality realization, if mortality is planned.
    pub fn mortality(&self) -> Option<&MortalitySchedule> {
        self.mortality.as_ref()
    }

    /// The compiled burst-loss realization, if bursts are planned.
    pub fn burst(&self) -> Option<&BurstSchedule> {
        self.burst.as_ref()
    }

    /// The compiled GPS-outage realization, if outages are planned.
    pub fn gps(&self) -> Option<&GpsOutage> {
        self.gps.as_ref()
    }

    /// Layers this schedule's radio-facing faults (mortality + burst
    /// loss) over `base`, producing a [`Propagation`] model for `epoch`.
    ///
    /// With neither family planned the wrapper is transparent: it
    /// forwards every query to `base` unchanged.
    pub fn wrap<M: Propagation>(&self, base: M, epoch: u64) -> FaultyRadio<M> {
        FaultyRadio {
            base,
            mortality: self.mortality,
            burst: self.burst,
            link_field: self.link_field,
            epoch,
        }
    }
}

/// A [`Propagation`] model with mortality and burst loss layered on top.
///
/// * a dead (or currently asleep) beacon reaches nobody and advertises a
///   zero `max_range`, so surveys skip it cheaply;
/// * a live link additionally survives only if enough of the listening
///   window escapes the Gilbert–Elliott bursts.
///
/// Burst loss only ever *removes* connectivity, so the base model's
/// `max_range` remains a valid upper bound.
#[derive(Debug, Clone, Copy)]
pub struct FaultyRadio<M> {
    base: M,
    mortality: Option<MortalitySchedule>,
    burst: Option<BurstSchedule>,
    link_field: DeterministicField,
    epoch: u64,
}

impl<M> FaultyRadio<M> {
    /// The epoch this wrapper evaluates faults at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The wrapped base model.
    pub fn base(&self) -> &M {
        &self.base
    }
}

impl<M: Propagation> Propagation for FaultyRadio<M> {
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool {
        if let Some(m) = &self.mortality {
            if !m.is_alive(tx.0, self.epoch) {
                return false;
            }
        }
        if !self.base.connected(tx, tx_pos, rx) {
            return false;
        }
        match &self.burst {
            Some(b) => b.link_up(self.link_field.hash(tx.0, rx), self.epoch),
            None => true,
        }
    }

    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64 {
        if let Some(m) = &self.mortality {
            if !m.is_alive(tx.0, self.epoch) {
                return 0.0;
            }
        }
        self.base.max_range(tx, tx_pos)
    }

    fn nominal_range(&self) -> f64 {
        self.base.nominal_range()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_radio::IdealDisk;

    fn full_plan() -> FaultPlan {
        FaultPlan {
            mortality: Some(MortalityPlan {
                death_rate: 0.2,
                flap_rate: 0.2,
                duty_cycle: 0.5,
            }),
            burst: Some(BurstPlan::paper(0.4)),
            gps: Some(GpsOutagePlan {
                outage_fraction: 0.25,
                window: 5,
                bias_meters: 0.0,
            }),
            drift: Some(DriftPlan {
                ramp_per_epoch: 0.1,
                cap: 1.4,
            }),
        }
    }

    #[test]
    fn noop_plan_compiles_to_transparent_schedule() {
        let s = FaultPlan::none().compile(42);
        assert!(FaultPlan::none().is_none());
        assert!(s.is_alive(3, 0));
        assert!(s.gps_fault(10).is_none());
        assert_eq!(s.noise_multiplier(5), 1.0);
        let base = IdealDisk::new(15.0);
        let wrapped = s.wrap(&base, 0);
        let tx = TxId(4);
        let tx_pos = Point::new(10.0, 10.0);
        for i in 0..40 {
            let rx = Point::new(i as f64, 2.0 * i as f64);
            assert_eq!(
                wrapped.connected(tx, tx_pos, rx),
                base.connected(tx, tx_pos, rx)
            );
        }
        assert_eq!(wrapped.max_range(tx, tx_pos), base.max_range(tx, tx_pos));
    }

    #[test]
    fn compile_is_deterministic() {
        let plan = full_plan();
        let a = plan.compile(0xBEEF);
        let b = plan.compile(0xBEEF);
        assert_eq!(a, b);
    }

    #[test]
    fn different_trial_seeds_give_different_realizations() {
        let plan = full_plan();
        let a = plan.compile(1);
        let b = plan.compile(2);
        let differs = (0..200u64).any(|tx| a.is_alive(tx, 0) != b.is_alive(tx, 0));
        assert!(differs);
    }

    #[test]
    fn fingerprint_tracks_parameters() {
        let base = full_plan();
        assert_eq!(base.fingerprint(), full_plan().fingerprint());
        let mut tweaked = base;
        tweaked.mortality = Some(MortalityPlan {
            death_rate: 0.21,
            flap_rate: 0.2,
            duty_cycle: 0.5,
        });
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        assert_ne!(base.fingerprint(), FaultPlan::none().fingerprint());
    }

    #[test]
    fn dead_beacon_has_zero_range_and_no_links() {
        let plan = FaultPlan {
            mortality: Some(MortalityPlan {
                death_rate: 1.0,
                flap_rate: 0.0,
                duty_cycle: 1.0,
            }),
            ..FaultPlan::none()
        };
        let s = plan.compile(9);
        let base = IdealDisk::new(15.0);
        let w = s.wrap(&base, 0);
        let tx = TxId(0);
        let p = Point::new(5.0, 5.0);
        assert_eq!(w.max_range(tx, p), 0.0);
        assert!(!w.connected(tx, p, p));
        assert_eq!(w.nominal_range(), 15.0);
    }

    /// Death and bursts can cut any link inside the base model's core,
    /// so the wrapper never claims one — not even for a schedule that
    /// happens to inject nothing.
    #[test]
    fn faulty_radio_has_no_guaranteed_core() {
        let base = IdealDisk::new(15.0);
        assert!(base.core_range(TxId(1), Point::ORIGIN).is_some());
        for plan in [full_plan(), FaultPlan::none()] {
            let s = plan.compile(7);
            for epoch in 0..3 {
                let w = s.wrap(&base, epoch);
                for tx in (0..20).map(TxId) {
                    assert_eq!(w.core_range(tx, Point::new(5.0, 5.0)), None);
                }
            }
        }
    }

    #[test]
    fn burst_only_removes_connectivity() {
        let plan = FaultPlan {
            burst: Some(BurstPlan::paper(0.6)),
            ..FaultPlan::none()
        };
        let s = plan.compile(123);
        let base = IdealDisk::new(15.0);
        let w = s.wrap(&base, 0);
        let tx = TxId(1);
        let tx_pos = Point::new(50.0, 50.0);
        let mut cut = 0;
        for i in 0..400 {
            let rx = Point::new(40.0 + (i % 20) as f64, 40.0 + (i / 20) as f64);
            let before = base.connected(tx, tx_pos, rx);
            let after = w.connected(tx, tx_pos, rx);
            assert!(!after || before, "burst wrapper must never add links");
            if before && !after {
                cut += 1;
            }
        }
        assert!(cut > 0, "intensity 0.6 should cut some links");
    }
}

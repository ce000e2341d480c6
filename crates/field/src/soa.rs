//! Structure-of-arrays beacon layout for dense sweep kernels.

use crate::beacon::Beacon;
use crate::field::BeaconField;

/// A structure-of-arrays mirror of a [`BeaconField`]: parallel `xs`/`ys`
/// position slices plus a per-beacon squared reach, all in beacon
/// **insertion order** (the order of [`BeaconField::iter`]).
///
/// The AoS walk of the indexed survey touches a 24-byte `Beacon` record
/// per candidate just to read two coordinates; at paper scale that wastes
/// two thirds of every cache line. `BeaconSoA` packs the three values the
/// disk-membership test needs into dense `f64` slices that a sweep can
/// stream with unit stride.
///
/// The squared reach comes from a caller-supplied closure rather than a
/// propagation model, so this crate stays independent of `abp-radio`;
/// the survey layer passes `|b| model.max_range(b.tx(), b.pos()).powi(2)`.
///
/// Buffers are retained across [`BeaconSoA::rebuild_with`] calls, so a
/// scratch-held instance reaches zero steady-state allocations once it
/// has seen the largest field of the sweep.
///
/// # Example
///
/// ```
/// use abp_field::{BeaconField, BeaconSoA};
/// use abp_geom::{Point, Terrain};
///
/// let field = BeaconField::from_positions(
///     Terrain::square(100.0),
///     [Point::new(10.0, 20.0), Point::new(30.0, 40.0)],
/// );
/// let mut soa = BeaconSoA::new();
/// soa.rebuild_with(&field, |_| 15.0 * 15.0);
/// assert_eq!(soa.xs(), &[10.0, 30.0]);
/// assert_eq!(soa.ys(), &[20.0, 40.0]);
/// assert_eq!(soa.reach2(), &[225.0, 225.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BeaconSoA {
    xs: Vec<f64>,
    ys: Vec<f64>,
    reach2: Vec<f64>,
}

impl BeaconSoA {
    /// Creates an empty SoA with no backing storage.
    pub fn new() -> Self {
        BeaconSoA::default()
    }

    /// Refills the slices from `field`, calling `reach2_of` once per
    /// beacon (in insertion order) for the squared hearing reach.
    /// Existing capacity is reused.
    pub fn rebuild_with(&mut self, field: &BeaconField, mut reach2_of: impl FnMut(&Beacon) -> f64) {
        self.xs.clear();
        self.ys.clear();
        self.reach2.clear();
        for b in field.iter() {
            let p = b.pos();
            self.xs.push(p.x);
            self.ys.push(p.y);
            self.reach2.push(reach2_of(b));
        }
    }

    /// Beacon x coordinates, in insertion order.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Beacon y coordinates, in insertion order.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Per-beacon squared reach, in insertion order.
    #[inline]
    pub fn reach2(&self) -> &[f64] {
        &self.reach2
    }

    /// Number of mirrored beacons.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if the mirror is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_geom::{Point, Terrain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mirrors_field_in_insertion_order() {
        let field =
            BeaconField::random_uniform(50, Terrain::square(100.0), &mut StdRng::seed_from_u64(7));
        let mut soa = BeaconSoA::new();
        soa.rebuild_with(&field, |b| b.pos().x); // arbitrary but beacon-dependent
        assert_eq!(soa.len(), 50);
        for (k, b) in field.iter().enumerate() {
            assert_eq!(soa.xs()[k].to_bits(), b.pos().x.to_bits());
            assert_eq!(soa.ys()[k].to_bits(), b.pos().y.to_bits());
            assert_eq!(soa.reach2()[k].to_bits(), b.pos().x.to_bits());
        }
    }

    #[test]
    fn rebuild_reuses_capacity_and_replaces_contents() {
        let big =
            BeaconField::random_uniform(40, Terrain::square(100.0), &mut StdRng::seed_from_u64(1));
        let small = BeaconField::from_positions(Terrain::square(100.0), [Point::new(1.0, 2.0)]);
        let mut soa = BeaconSoA::new();
        soa.rebuild_with(&big, |_| 1.0);
        let cap = soa.xs.capacity();
        soa.rebuild_with(&small, |_| 9.0);
        assert_eq!(soa.len(), 1);
        assert_eq!(soa.xs(), &[1.0]);
        assert_eq!(soa.ys(), &[2.0]);
        assert_eq!(soa.reach2(), &[9.0]);
        assert_eq!(
            soa.xs.capacity(),
            cap,
            "shrinking rebuild must keep capacity"
        );
    }

    #[test]
    fn empty_field_empty_soa() {
        let mut soa = BeaconSoA::new();
        soa.rebuild_with(&BeaconField::new(Terrain::square(10.0)), |_| 0.0);
        assert!(soa.is_empty());
        assert_eq!(soa.len(), 0);
    }
}

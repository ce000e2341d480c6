//! Deterministic splittable hashing.
//!
//! The paper's propagation-noise model is *location based and static with
//! respect to time*: whether beacon `B` reaches point `P` never changes
//! while the experiment runs. Rather than materializing a noise value for
//! every (beacon, lattice-point) pair — 2.4 M pairs at paper scale — we
//! derive each value on demand from a [`splitmix64`] hash of the field
//! seed, the beacon id, and the point's coordinate bits. The same inputs
//! always hash to the same value, which gives a time-static noise field
//! with zero storage, valid at *any* query point (not just lattice points).
//!
//! The module also holds the IEEE CRC-32 ([`crc32`]) that guards the
//! sweep checkpoint's entries and the serve daemon's state file.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// One round of the SplitMix64 mixing function.
///
/// A high-quality 64-bit finalizer (Steele et al., *Fast Splittable
/// Pseudorandom Number Generators*, OOPSLA 2014). Passes into itself to
/// chain multiple words.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The IEEE CRC-32 table (reflected polynomial `0xEDB8_8320`).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The IEEE CRC-32 (zlib, PNG, Ethernet) of `bytes`, continued from
/// `crc`, the CRC-32 of the bytes before them (0 to start): so
/// `crc32(crc32(0, a), b)` is the CRC-32 of `a` followed by `b`.
///
/// # Example
///
/// ```
/// use abp_geom::crc32;
/// assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
/// assert_eq!(crc32(crc32(0, b"1234"), b"56789"), 0xCBF4_3926);
/// ```
pub fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A [`DeterministicField`] hash part-way through its words: the left
/// fold of [`splitmix64`] over the words absorbed so far.
///
/// Every field hash absorbs the seed, a key and then any further words
/// in that order, so a caller that needs many hashes sharing a prefix —
/// one beacon's draws at many points, one lattice column's at many rows
/// — absorbs the prefix once and continues from a copy of the state.
/// The continued hash has exactly the bits of the one-shot hash.
///
/// # Example
///
/// ```
/// use abp_geom::{DeterministicField, Point};
/// let field = DeterministicField::new(42);
/// let p = Point::new(3.0, 4.0);
/// let column = field.keyed(7).absorb(p.x.to_bits());
/// assert_eq!(column.absorb(p.y.to_bits()).finish(), field.hash(7, p));
/// assert_eq!(column.absorb(p.y.to_bits()).unit(), field.unit(7, p));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HashState(u64);

impl HashState {
    /// The state before any word: pi digits, an arbitrary non-zero seed.
    const START: HashState = HashState(0x243F_6A88_85A3_08D3);

    /// The state after absorbing `word`.
    #[inline]
    pub fn absorb(self, word: u64) -> HashState {
        HashState(splitmix64(self.0 ^ word))
    }

    /// The hash of the words absorbed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The hash as a value uniform in `[0, 1)`: its 53 high bits, the
    /// standard conversion to a double.
    #[inline]
    pub fn unit(self) -> f64 {
        (self.0 >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A deterministic scalar field: maps `(beacon id, point)` to reproducible
/// pseudo-random values derived from a seed.
///
/// Two fields with the same seed are identical; different seeds give
/// independent fields. Values are stable across platforms (pure integer
/// arithmetic on IEEE-754 bit patterns).
///
/// # Example
///
/// ```
/// use abp_geom::{DeterministicField, Point};
/// let field = DeterministicField::new(42);
/// let p = Point::new(3.0, 4.0);
/// let u = field.symmetric(7, p);
/// assert!((-1.0..=1.0).contains(&u));
/// assert_eq!(u, DeterministicField::new(42).symmetric(7, p)); // static in time
/// assert_ne!(u, field.symmetric(8, p)); // independent per beacon
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeterministicField {
    seed: u64,
}

impl DeterministicField {
    /// Creates a field from a seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        DeterministicField { seed }
    }

    /// The field's seed.
    #[inline]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// The hash state after the seed and `key`: the prefix every
    /// `(key, point)` hash of this field shares.
    #[inline]
    pub fn keyed(&self, key: u64) -> HashState {
        HashState::START.absorb(self.seed).absorb(key)
    }

    /// The hash state after the seed, `key` and the point's coordinate
    /// bits.
    #[inline]
    fn at(&self, key: u64, p: Point) -> HashState {
        self.keyed(key).absorb(p.x.to_bits()).absorb(p.y.to_bits())
    }

    /// Raw 64-bit hash for `(key, point)`.
    #[inline]
    pub fn hash(&self, key: u64, p: Point) -> u64 {
        self.at(key, p).finish()
    }

    /// A value uniform in `[0, 1)` for `(key, point)`.
    #[inline]
    pub fn unit(&self, key: u64, p: Point) -> f64 {
        self.at(key, p).unit()
    }

    /// A value uniform in `[-1, 1)` for `(key, point)` — the paper's `u`
    /// ("chosen uniformly at random between -1 and 1").
    #[inline]
    pub fn symmetric(&self, key: u64, p: Point) -> f64 {
        self.unit(key, p) * 2.0 - 1.0
    }

    /// A per-key (point-independent) value uniform in `[0, 1)`.
    ///
    /// Used for per-beacon draws such as the noise factor `nf(B)`.
    #[inline]
    pub fn unit_keyed(&self, key: u64) -> f64 {
        self.keyed(key).unit()
    }

    /// Derives a new independent field, e.g. for a sub-experiment.
    #[inline]
    pub fn split(&self, label: u64) -> DeterministicField {
        DeterministicField {
            seed: self.keyed(label).absorb(0x5EED).finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values_stable() {
        // Lock in concrete outputs so cross-platform drift is caught.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    /// The standard CRC-32 check value, which both the checkpoint and
    /// the state-file formats depend on, and chaining across a split.
    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        for split in 0..=9 {
            let (a, b) = b"123456789".split_at(split);
            assert_eq!(crc32(crc32(0, a), b), 0xCBF4_3926, "split at {split}");
        }
    }

    #[test]
    fn field_is_deterministic() {
        let f1 = DeterministicField::new(99);
        let f2 = DeterministicField::new(99);
        let p = Point::new(12.5, -3.25);
        assert_eq!(f1.hash(5, p), f2.hash(5, p));
        assert_eq!(f1.unit(5, p), f2.unit(5, p));
        assert_eq!(f1.unit_keyed(5), f2.unit_keyed(5));
    }

    #[test]
    fn field_varies_with_inputs() {
        let f = DeterministicField::new(1);
        let p = Point::new(1.0, 2.0);
        let q = Point::new(1.0, 2.0000001);
        assert_ne!(f.hash(0, p), f.hash(1, p));
        assert_ne!(f.hash(0, p), f.hash(0, q));
        assert_ne!(f.hash(0, p), DeterministicField::new(2).hash(0, p));
    }

    #[test]
    fn unit_in_range_and_roughly_uniform() {
        let f = DeterministicField::new(7);
        let mut sum = 0.0;
        let n = 10_000;
        for k in 0..n {
            let p = Point::new(k as f64 * 0.37, (k % 101) as f64);
            let u = f.unit(3, p);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} not ~0.5");
    }

    #[test]
    fn symmetric_in_range_and_centered() {
        let f = DeterministicField::new(11);
        let mut sum = 0.0;
        let n = 10_000;
        for k in 0..n {
            let p = Point::new((k / 101) as f64, (k % 101) as f64);
            let u = f.symmetric(9, p);
            assert!((-1.0..1.0).contains(&u));
            sum += u;
        }
        assert!((sum / n as f64).abs() < 0.04);
    }

    #[test]
    fn split_gives_independent_fields() {
        let f = DeterministicField::new(5);
        let a = f.split(1);
        let b = f.split(2);
        assert_ne!(a.seed(), b.seed());
        assert_ne!(a.seed(), f.seed());
        // Splitting is itself deterministic.
        assert_eq!(f.split(1).seed(), a.seed());
    }
}

//! Per-request compute: localize and place against a pinned snapshot.
//!
//! # Bit-identity with the batch path
//!
//! A served localization must equal what the batch pipeline
//! (`CentroidLocalizer::try_localize_via`) computes for the same heard
//! set — not approximately, **bit for bit** — so a fielded client and an
//! offline replay of its logs can never disagree. The batch localizer
//! accumulates `sum += pos` over heard beacons in *insertion order* (the
//! `ConnectivityOracle::for_each_heard` ordering contract) and divides
//! once. [`localize`] reproduces that exactly: ids resolve to slots
//! (`BeaconField::slot_of`; slot order *is* insertion order because ids
//! are monotonic and never reused), slots are sorted ascending and
//! deduplicated, and the sums run in slot order with the same `+=` /
//! single-divide arithmetic. f64 addition is not associative, so the
//! order is the contract — [`served_matches_batch`] checks the equality
//! over entire lattices and runs in both the test suite and the bench
//! gate.
//!
//! # Allocation discipline
//!
//! Everything here works in caller-provided scratch ([`ServeScratch`])
//! or fixed-size locals; after a connection's first few requests size
//! the scratch, the request path allocates nothing.

use crate::protocol::{LocalizeReply, PlaceAlgo};
use crate::snapshot::{WorldSnapshot, SERVE_POLICY};
use abp_field::BeaconId;
use abp_geom::Point;
use abp_localize::Localizer;
use abp_placement::{PlacementAlgorithm, RandomPlacement, SurveyView};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Minimum heard beacons for a full-method (non-degraded) answer —
/// matches `Localizer::min_beacons` for the centroid localizer.
pub const MIN_BEACONS: usize = 1;

/// Reused per-connection buffers: request/response bytes plus the id and
/// slot workspaces of [`localize`]. Pre-sized so the steady state of a
/// well-behaved connection allocates nothing.
#[derive(Debug)]
pub struct ServeScratch {
    /// Incoming frame payload.
    pub in_buf: Vec<u8>,
    /// Outgoing frame (prefix + payload).
    pub out_buf: Vec<u8>,
    /// Heard-beacon ids decoded from the request.
    pub ids: Vec<u64>,
    /// Resolved field slots, sorted and deduplicated.
    pub slots: Vec<usize>,
}

impl ServeScratch {
    /// Creates scratch with capacities covering typical requests (4 KiB
    /// frames, 256 heard beacons) so no growth happens in steady state.
    pub fn new() -> Self {
        ServeScratch {
            in_buf: Vec::with_capacity(4096),
            out_buf: Vec::with_capacity(4096),
            ids: Vec::with_capacity(256),
            slots: Vec::with_capacity(256),
        }
    }
}

impl Default for ServeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Localizes a client that heard exactly the beacons in `ids` (wire
/// order, duplicates tolerated) against `snap`, using `slots` as the
/// resolution workspace.
///
/// # Errors
///
/// Returns the first id that is not a beacon of this epoch. (A client
/// acting on a roster from epoch `N` can race a publish of `N+1`; ids
/// are never reused, so a stale id is *detected*, not silently
/// misresolved.)
pub fn localize(
    snap: &WorldSnapshot,
    ids: &[u64],
    slots: &mut Vec<usize>,
) -> Result<LocalizeReply, u64> {
    slots.clear();
    for &id in ids {
        slots.push(snap.field().slot_of(BeaconId(id)).ok_or(id)?);
    }
    // Ascending slot order == insertion order == the order the batch
    // localizer's oracle visits heard beacons in. `sort_unstable` and
    // `dedup` are in-place: no allocation.
    slots.sort_unstable();
    slots.dedup();
    let beacons = snap.field().beacons();
    let mut sum_x = 0.0;
    let mut sum_y = 0.0;
    for &slot in slots.iter() {
        let pos = beacons[slot].pos();
        sum_x += pos.x;
        sum_y += pos.y;
    }
    let heard = slots.len();
    let estimate = if heard == 0 {
        SERVE_POLICY.estimate(snap.terrain())
    } else {
        Some(Point::new(sum_x / heard as f64, sum_y / heard as f64))
    };
    let confidence = estimate.and_then(|e| snap.map().error_near(e));
    Ok(LocalizeReply {
        epoch: snap.epoch(),
        estimate,
        heard: heard as u32,
        degraded: heard < MIN_BEACONS,
        confidence,
    })
}

/// Proposes the next beacon position. Max and Grid return the answers
/// precomputed at snapshot build; Random runs the paper's `O(1)`
/// algorithm live with a request-supplied seed. All three paths are
/// allocation-free.
pub fn place(snap: &WorldSnapshot, algo: PlaceAlgo, seed: u64) -> Point {
    match algo {
        PlaceAlgo::Max => snap.max_point(),
        PlaceAlgo::Grid => snap.grid_point(),
        PlaceAlgo::Random => {
            let view = SurveyView {
                map: snap.map(),
                field: snap.field(),
                model: snap.model(),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            RandomPlacement::new(snap.terrain()).propose(&view, &mut rng)
        }
    }
}

/// Verifies the bit-identity contract over every lattice point of
/// `snap` (stride 1) or a strided sample: at each point, gather the
/// heard set through the snapshot's oracle, localize it through
/// [`localize`] as if the ids had arrived on the wire, and compare
/// against the batch `try_localize_via` — estimates by exact bit
/// pattern, heard counts and degraded flags by value.
///
/// Returns `true` iff every sampled point matches.
pub fn served_matches_batch(snap: &WorldSnapshot, stride: usize) -> bool {
    let stride = stride.max(1);
    let oracle = snap.oracle();
    let localizer = snap.batch_localizer();
    let mut ids = Vec::new();
    let mut slots = Vec::new();
    for (k, at) in snap.map().lattice().points().enumerate() {
        if k % stride != 0 {
            continue;
        }
        ids.clear();
        oracle.for_each_heard(at, |b| ids.push(b.id().0));
        let served = match localize(snap, &ids, &mut slots) {
            Ok(reply) => reply,
            Err(_) => return false,
        };
        let batch = localizer.try_localize_via(&oracle, at);
        let fix = batch.fix();
        let estimates_match = match (served.estimate, fix.estimate) {
            (Some(s), Some(b)) => s.x.to_bits() == b.x.to_bits() && s.y.to_bits() == b.y.to_bits(),
            (None, None) => true,
            _ => false,
        };
        if !estimates_match
            || served.heard as usize != fix.heard
            || served.degraded != batch.is_degraded()
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_field::BeaconField;
    use abp_geom::Terrain;
    use abp_radio::{IdealDisk, PerBeaconNoise};
    use std::sync::Arc;

    fn snapshot(beacons: usize, seed: u64) -> WorldSnapshot {
        let terrain = Terrain::square(100.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let field = BeaconField::random_uniform(beacons, terrain, &mut rng);
        WorldSnapshot::build(0, field, Arc::new(IdealDisk::new(15.0)), 5.0)
    }

    #[test]
    fn localize_matches_hand_centroid() {
        let terrain = Terrain::square(100.0);
        let field = BeaconField::from_positions(
            terrain,
            [
                Point::new(45.0, 45.0),
                Point::new(55.0, 45.0),
                Point::new(50.0, 55.0),
            ],
        );
        let snap = WorldSnapshot::build(0, field, Arc::new(IdealDisk::new(15.0)), 5.0);
        let mut slots = Vec::new();
        // Wire order scrambled and with a duplicate: resolution must
        // sort into insertion order and dedup before accumulating.
        let reply = localize(&snap, &[2, 0, 1, 0], &mut slots).unwrap();
        assert_eq!(reply.heard, 3);
        assert!(!reply.degraded);
        let est = reply.estimate.unwrap();
        assert_eq!(est.x.to_bits(), (50.0f64).to_bits());
        assert_eq!(est.y.to_bits(), (145.0f64 / 3.0).to_bits());
        assert!(reply.confidence.is_some());
    }

    #[test]
    fn empty_heard_set_is_degraded_terrain_center() {
        let snap = snapshot(6, 1);
        let mut slots = Vec::new();
        let reply = localize(&snap, &[], &mut slots).unwrap();
        assert_eq!(reply.heard, 0);
        assert!(reply.degraded);
        assert_eq!(reply.estimate, Some(Point::new(50.0, 50.0)));
    }

    #[test]
    fn unknown_id_is_reported_not_misresolved() {
        let snap = snapshot(4, 2);
        let mut slots = Vec::new();
        assert_eq!(localize(&snap, &[0, 999], &mut slots), Err(999));
    }

    #[test]
    fn served_localization_is_bit_identical_to_batch() {
        // The satellite's core guarantee, over full lattices, for both a
        // disk-exact and a noisy (per-beacon range) model.
        for beacons in [5usize, 40, 120] {
            let snap = snapshot(beacons, beacons as u64);
            assert!(
                served_matches_batch(&snap, 1),
                "ideal disk, {beacons} beacons"
            );
        }
        let terrain = Terrain::square(100.0);
        let mut rng = StdRng::seed_from_u64(77);
        let field = BeaconField::random_uniform(60, terrain, &mut rng);
        let noisy =
            WorldSnapshot::build(0, field, Arc::new(PerBeaconNoise::new(15.0, 0.4, 13)), 5.0);
        assert!(served_matches_batch(&noisy, 1), "noisy model");
    }

    #[test]
    fn place_is_deterministic_and_in_terrain() {
        let snap = snapshot(20, 5);
        for algo in [PlaceAlgo::Random, PlaceAlgo::Max, PlaceAlgo::Grid] {
            let a = place(&snap, algo, 42);
            let b = place(&snap, algo, 42);
            assert_eq!(a, b, "{algo:?} must be deterministic per seed");
            assert!(snap.terrain().contains(a));
        }
        // Random varies with the seed; Max/Grid ignore it.
        assert_ne!(
            place(&snap, PlaceAlgo::Random, 1),
            place(&snap, PlaceAlgo::Random, 2)
        );
        assert_eq!(
            place(&snap, PlaceAlgo::Max, 1),
            place(&snap, PlaceAlgo::Max, 2)
        );
    }

    #[test]
    fn localize_steady_state_allocates_nothing() {
        let snap = snapshot(50, 8);
        let mut slots = Vec::with_capacity(64);
        let ids: Vec<u64> = (0..20).collect();
        // Warm up, then measure.
        for _ in 0..4 {
            localize(&snap, &ids, &mut slots).unwrap();
            place(&snap, PlaceAlgo::Random, 3);
        }
        let before = abp_trace::thread_snapshot();
        for seed in 0..100 {
            localize(&snap, &ids, &mut slots).unwrap();
            place(&snap, PlaceAlgo::Random, seed);
            place(&snap, PlaceAlgo::Max, seed);
            place(&snap, PlaceAlgo::Grid, seed);
        }
        let delta = abp_trace::thread_snapshot().delta_since(before);
        assert_eq!(delta.allocs, 0, "request compute must not allocate");
    }
}

//! The published world state and its epoch-stamped swap cell.
//!
//! A [`WorldSnapshot`] is everything a request needs, built **once** per
//! epoch off the hot path: the beacon field, its surveyed [`ErrorMap`],
//! and the deterministic placement answers (Max and Grid) precomputed so
//! a place request is a field read instead of an `O(map)` scan.
//!
//! Publication is a generation swap: the [`SnapshotCell`] holds the
//! current `Arc<WorldSnapshot>` behind a lock that is only ever touched
//! on epoch *change*. Readers keep their own cached `Arc` (see
//! [`SnapshotReader`]) and compare a lock-free epoch hint per request;
//! as long as the world is stable — the overwhelmingly common case — a
//! request touches no lock and performs no allocation. When the
//! rebuilder publishes epoch `N+1`, in-flight requests finish on epoch
//! `N` (their `Arc` keeps it alive) and the next request refreshes.
//!
//! Every snapshot carries a fingerprint folded over all of its parts at
//! build time; [`WorldSnapshot::is_consistent`] refolds and compares, so
//! the churn tests can prove a reader never observes a torn mix of one
//! epoch's map with another's field.

use abp_field::BeaconField;
use abp_geom::{splitmix64, Lattice, Point, Terrain};
use abp_localize::{CentroidLocalizer, ConnectivityOracle, UnheardPolicy};
use abp_placement::{GridPlacement, MaxPlacement, PlacementAlgorithm, SurveyView};
use abp_radio::Propagation;
use abp_survey::ErrorMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The unheard policy every snapshot surveys and serves with. Pinned so
/// served estimates are bit-identical to the batch
/// [`CentroidLocalizer`] under the same policy.
pub const SERVE_POLICY: UnheardPolicy = UnheardPolicy::TerrainCenter;

/// One immutable epoch of world state. Built by the rebuilder thread,
/// shared with connection threads via `Arc`, never mutated.
pub struct WorldSnapshot {
    epoch: u64,
    field: BeaconField,
    map: ErrorMap,
    model: Arc<dyn Propagation>,
    max_point: Point,
    grid_point: Point,
    fingerprint: u64,
}

impl WorldSnapshot {
    /// Surveys `field` under `model` on a lattice of spacing `step` and
    /// bundles the result as epoch `epoch`. This is the expensive
    /// control-plane build — a full survey of the field — that the
    /// snapshot swap keeps off the request path.
    pub fn build(epoch: u64, field: BeaconField, model: Arc<dyn Propagation>, step: f64) -> Self {
        let lattice = Lattice::new(field.terrain(), step);
        let map = ErrorMap::survey(&lattice, &field, &*model, SERVE_POLICY);
        Self::assemble(epoch, field, map, model)
    }

    /// [`WorldSnapshot::build`], kept for the whole-run benchmark
    /// (`perfbench`), which still calls it; the thread count is ignored.
    pub fn build_with_threads(
        epoch: u64,
        field: BeaconField,
        model: Arc<dyn Propagation>,
        step: f64,
        _survey_threads: usize,
    ) -> Self {
        Self::build(epoch, field, model, step)
    }

    /// Builds the successor epoch after `point` received a beacon: same
    /// model and lattice, epoch advanced by one.
    ///
    /// The map is this epoch's map plus one [`ErrorMap::add_beacon`], not
    /// a full survey. That is exact: the new beacon is the last one every
    /// point adds, so the map equals a survey of the grown field bit for
    /// bit.
    pub fn with_beacon_added(&self, point: Point) -> WorldSnapshot {
        let mut field = self.field.clone();
        let id = field.add_beacon(self.field.terrain().bounds().clamp_point(point));
        let mut map = self.map.clone();
        map.add_beacon(field.get(id).expect("beacon just added"), &*self.model);
        Self::assemble(self.epoch + 1, field, map, Arc::clone(&self.model))
    }

    /// Bundles a surveyed `map` of `field` with everything else a request
    /// needs: the precomputed Max and Grid answers, and the fingerprint.
    fn assemble(
        epoch: u64,
        field: BeaconField,
        map: ErrorMap,
        model: Arc<dyn Propagation>,
    ) -> Self {
        // Precompute the deterministic placement answers so a place
        // request is O(1). Both algorithms ignore the rng.
        let view = SurveyView {
            map: &map,
            field: &field,
            model: &*model,
        };
        let mut rng = StdRng::seed_from_u64(epoch);
        let max_point = MaxPlacement::new().propose(&view, &mut rng);
        let grid_point =
            GridPlacement::paper(field.terrain(), model.nominal_range()).propose(&view, &mut rng);
        let fingerprint = fold_fingerprint(epoch, &field, &map, max_point, grid_point);
        WorldSnapshot {
            epoch,
            field,
            map,
            model,
            max_point,
            grid_point,
            fingerprint,
        }
    }

    /// The epoch this snapshot was published as.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The beacon field of this epoch.
    #[inline]
    pub fn field(&self) -> &BeaconField {
        &self.field
    }

    /// The surveyed error map of this epoch.
    #[inline]
    pub fn map(&self) -> &ErrorMap {
        &self.map
    }

    /// The propagation model in effect.
    #[inline]
    pub fn model(&self) -> &dyn Propagation {
        &*self.model
    }

    /// The terrain being served.
    #[inline]
    pub fn terrain(&self) -> Terrain {
        self.field.terrain()
    }

    /// The precomputed Max-placement answer for this epoch.
    #[inline]
    pub fn max_point(&self) -> Point {
        self.max_point
    }

    /// The precomputed Grid-placement answer for this epoch.
    #[inline]
    pub fn grid_point(&self) -> Point {
        self.grid_point
    }

    /// A brute-force connectivity oracle over this epoch's field, for
    /// checking served answers against the batch localizer (the request
    /// path never gathers neighbors). Allocation-free to construct.
    #[inline]
    pub fn oracle(&self) -> ConnectivityOracle<'_> {
        ConnectivityOracle::new(&self.field, self.model())
    }

    /// The fingerprint folded over every part of this snapshot at build
    /// time. Two snapshots built from the same inputs fold to the same
    /// value, so equality here certifies a bit-identical world — the
    /// warm-restart tests use it to prove a restored daemon serves the
    /// exact error map the killed one published.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The batch localizer this snapshot's serving path must match
    /// bit-for-bit.
    #[inline]
    pub fn batch_localizer(&self) -> CentroidLocalizer {
        CentroidLocalizer::new(SERVE_POLICY)
    }

    /// Refolds the fingerprint over the current parts and compares it to
    /// the one recorded at build time. A reader holding a torn mix of
    /// epochs (impossible under the `Arc` swap, which is what the churn
    /// test proves) would fail this.
    pub fn is_consistent(&self) -> bool {
        fold_fingerprint(
            self.epoch,
            &self.field,
            &self.map,
            self.max_point,
            self.grid_point,
        ) == self.fingerprint
    }
}

impl std::fmt::Debug for WorldSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldSnapshot")
            .field("epoch", &self.epoch)
            .field("beacons", &self.field.len())
            .field("lattice_points", &self.map.len())
            .field("mean_error", &self.map.mean_error())
            .finish()
    }
}

fn fold_fingerprint(
    epoch: u64,
    field: &BeaconField,
    map: &ErrorMap,
    max_point: Point,
    grid_point: Point,
) -> u64 {
    let mut h = splitmix64(epoch);
    h = splitmix64(h ^ field.len() as u64);
    for b in field {
        h = splitmix64(h ^ b.id().0);
        h = splitmix64(h ^ b.pos().x.to_bits());
        h = splitmix64(h ^ b.pos().y.to_bits());
    }
    h = splitmix64(h ^ map.len() as u64);
    h = splitmix64(h ^ map.valid_count() as u64);
    h = splitmix64(h ^ map.mean_error().to_bits());
    h = splitmix64(h ^ max_point.x.to_bits() ^ max_point.y.to_bits());
    h = splitmix64(h ^ grid_point.x.to_bits() ^ grid_point.y.to_bits());
    h
}

/// The publication point: holds the current snapshot generation.
///
/// Writers ([`SnapshotCell::publish`]) swap in a new `Arc` and then
/// advance the epoch hint; readers compare the hint (one relaxed-cost
/// atomic load) against their cached snapshot's epoch and take the lock
/// only on an actual change. The hint is advanced *after* the swap under
/// the write lock, so a reader that observes the new hint is guaranteed
/// to load the new snapshot; a reader that observes the old hint serves
/// at most one more request from the previous epoch — staleness is
/// bounded and monotonic, and never torn.
pub struct SnapshotCell {
    epoch: AtomicU64,
    current: RwLock<Arc<WorldSnapshot>>,
}

impl SnapshotCell {
    /// Creates the cell publishing `initial`.
    pub fn new(initial: WorldSnapshot) -> Self {
        SnapshotCell {
            epoch: AtomicU64::new(initial.epoch()),
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// Publishes `next` as the current generation and returns its epoch.
    ///
    /// # Panics
    ///
    /// Panics if `next.epoch()` does not advance the published epoch —
    /// regressions here would break the readers' change detection.
    pub fn publish(&self, next: WorldSnapshot) -> u64 {
        let epoch = next.epoch();
        let mut slot = self.current.write().expect("snapshot lock poisoned");
        assert!(
            epoch > slot.epoch(),
            "epoch must advance: {} -> {epoch}",
            slot.epoch()
        );
        *slot = Arc::new(next);
        // Advance the hint while still holding the write lock: any
        // reader that sees the new hint will find the new snapshot.
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// The epoch hint — the epoch of the currently published snapshot.
    #[inline]
    pub fn epoch_hint(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Loads (a handle to) the current snapshot. Takes the read lock;
    /// request paths should go through a [`SnapshotReader`] instead,
    /// which only calls this on epoch change.
    pub fn load(&self) -> Arc<WorldSnapshot> {
        self.current.read().expect("snapshot lock poisoned").clone()
    }

    /// Creates a per-connection cached reader.
    pub fn reader(&self) -> SnapshotReader<'_> {
        SnapshotReader {
            cell: self,
            cached: self.load(),
        }
    }
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("epoch", &self.epoch_hint())
            .finish()
    }
}

/// A connection-local snapshot handle: one atomic load per request in steady
/// state, a lock + `Arc` refresh only when the epoch actually changed.
pub struct SnapshotReader<'a> {
    cell: &'a SnapshotCell,
    cached: Arc<WorldSnapshot>,
}

impl SnapshotReader<'_> {
    /// The current snapshot, refreshing the cache iff the published
    /// epoch moved. The returned borrow is pinned to this reader, so the
    /// snapshot cannot change under an in-flight request.
    #[inline]
    pub fn current(&mut self) -> &WorldSnapshot {
        if self.cached.epoch() != self.cell.epoch_hint() {
            self.cached = self.cell.load();
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_radio::IdealDisk;

    fn snapshot(epoch: u64, beacons: usize) -> WorldSnapshot {
        let terrain = Terrain::square(60.0);
        let mut rng = StdRng::seed_from_u64(9);
        let field = BeaconField::random_uniform(beacons, terrain, &mut rng);
        WorldSnapshot::build(epoch, field, Arc::new(IdealDisk::new(15.0)), 4.0)
    }

    #[test]
    fn build_is_consistent_and_precomputes_placements() {
        let snap = snapshot(0, 12);
        assert!(snap.is_consistent());
        // Precomputed answers equal a live run of the real algorithms.
        let view = SurveyView {
            map: snap.map(),
            field: snap.field(),
            model: snap.model(),
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            snap.max_point(),
            MaxPlacement::new().propose(&view, &mut rng)
        );
        assert_eq!(
            snap.grid_point(),
            GridPlacement::paper(snap.terrain(), snap.model().nominal_range())
                .propose(&view, &mut rng)
        );
    }

    #[test]
    fn with_beacon_added_advances_epoch_and_grows_field() {
        let snap = snapshot(3, 5);
        let next = snap.with_beacon_added(Point::new(30.0, 30.0));
        assert_eq!(next.epoch(), 4);
        assert_eq!(next.field().len(), 6);
        assert!(next.is_consistent());
        // The parent is untouched (immutable generations).
        assert_eq!(snap.field().len(), 5);
        assert!(snap.is_consistent());
    }

    #[test]
    fn cell_publish_swaps_and_readers_refresh() {
        let cell = SnapshotCell::new(snapshot(0, 4));
        let mut reader = cell.reader();
        assert_eq!(reader.current().epoch(), 0);
        let old = cell.load();
        cell.publish(snapshot(1, 5));
        assert_eq!(cell.epoch_hint(), 1);
        assert_eq!(reader.current().epoch(), 1);
        assert_eq!(reader.current().field().len(), 5);
        // The displaced generation stays alive and intact for holders.
        assert_eq!(old.epoch(), 0);
        assert!(old.is_consistent());
    }

    #[test]
    #[should_panic(expected = "epoch must advance")]
    fn cell_rejects_epoch_regression() {
        let cell = SnapshotCell::new(snapshot(2, 4));
        cell.publish(snapshot(2, 4));
    }
}

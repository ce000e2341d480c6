//! The measured localization-error field.

use crate::lanes::SweepLane;
use abp_field::{Beacon, BeaconField};
use abp_geom::{Disk, Lattice, LatticeIndex, Point, Rect};
use abp_localize::{ConnectivityOracle, Localizer, UnheardPolicy};
use abp_radio::Propagation;
use abp_stats::Summary;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The lattice region an incremental survey update touched.
///
/// Returned by [`ErrorMap::add_beacon`] / [`ErrorMap::kill_beacon`] so
/// downstream caches (incremental placement scoring in `abp-placement`)
/// can re-derive only the affected region instead of rescanning the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SurveyDelta {
    /// Inclusive `(min, max)` corners of the changed lattice-index
    /// bounding box, or `None` when the update changed no point (the
    /// beacon reached nothing).
    pub changed: Option<(LatticeIndex, LatticeIndex)>,
    /// Number of lattice points whose accumulators changed.
    pub touched: usize,
}

impl SurveyDelta {
    /// A delta that changed nothing.
    pub const EMPTY: SurveyDelta = SurveyDelta {
        changed: None,
        touched: 0,
    };

    /// Whether any lattice point changed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.changed.is_none()
    }

    /// Whether `ix` lies inside the changed bounding box.
    pub fn contains(&self, ix: LatticeIndex) -> bool {
        match self.changed {
            Some((lo, hi)) => lo.i <= ix.i && ix.i <= hi.i && lo.j <= ix.j && ix.j <= hi.j,
            None => false,
        }
    }
}

/// Explicit per-point accounting of a survey's measurement quality.
///
/// A healthy, fault-free survey puts every point in `measured` (plus
/// `unheard` holes where no beacon reaches). Fault injection opens two
/// more channels: `degraded` points heard *something* but fewer beacons
/// than the consuming estimator needs, and `dropped` points were visited
/// but their sample was lost (a GPS outage window, for instance). The
/// four channels partition the lattice:
/// `measured + degraded + unheard + dropped == len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SurveyAccounting {
    /// Points measured at the estimator's full fidelity.
    pub measured: usize,
    /// Points heard by at least one beacon but fewer than the estimator's
    /// minimum — localization there is a typed fallback, not the method.
    pub degraded: usize,
    /// Points hearing no beacon at all.
    pub unheard: usize,
    /// Points whose sample was lost in collection (never measured despite
    /// beacon coverage).
    pub dropped: usize,
}

impl SurveyAccounting {
    /// Fraction of `len` points that were measured at full fidelity.
    pub fn measured_fraction(&self, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        self.measured as f64 / len as f64
    }
}

impl fmt::Display for SurveyAccounting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} measured, {} degraded, {} unheard, {} dropped",
            self.measured, self.degraded, self.unheard, self.dropped
        )
    }
}

/// The localization error measured at every lattice point — what the
/// paper's exploring agent produces in Step 2 of the Max/Grid algorithms
/// ("measure localization error at each point `(i·step, j·step)`"), and
/// the sole input the placement algorithms consume.
///
/// Internally the map keeps, per point, the running centroid accumulator
/// `(Σx, Σy, count)` of connected beacons. This enables:
///
/// * **beacon-major construction** ([`ErrorMap::survey`]): for each beacon
///   visit only the lattice points inside its maximum range — `O(Σ
///   points-in-range)` instead of `O(points × beacons)`, a ~6× saving at
///   paper scale and far more at low density;
/// * **incremental re-survey** ([`ErrorMap::add_beacon`]): adding a beacon
///   touches only the points inside *its* coverage disk, so the
///   after-placement survey costs `O((R/step)²)` instead of a full pass.
///
/// Unheard points follow the configured [`UnheardPolicy`]; with
/// [`UnheardPolicy::Exclude`] they carry no measurement and are skipped by
/// all statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorMap {
    lattice: Lattice,
    policy: UnheardPolicy,
    sum_x: Vec<f64>,
    sum_y: Vec<f64>,
    count: Vec<u32>,
    /// Localization error per point; NaN encodes "excluded".
    errors: Vec<f64>,
}

impl ErrorMap {
    /// Surveys `field` under `model` over `lattice` (beacon-major sweep).
    ///
    /// Semantically identical to running the paper's centroid localizer at
    /// every lattice point (validated against
    /// [`ErrorMap::survey_with_localizer`] in tests).
    pub fn survey(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
    ) -> Self {
        let n = lattice.len();
        let mut map = ErrorMap {
            lattice: *lattice,
            policy,
            sum_x: vec![0.0; n],
            sum_y: vec![0.0; n],
            count: vec![0; n],
            errors: vec![0.0; n],
        };
        {
            let _span = abp_trace::span!("radio.connectivity_sweep");
            for b in field {
                map.accumulate_beacon(b, model);
            }
        }
        {
            let _span = abp_trace::span!("localize.derive_errors");
            for flat in 0..n {
                map.errors[flat] = map.derive_error(flat);
            }
        }
        map
    }

    /// Point-major brute-force sweep: for every lattice point, scan every
    /// beacon. `O(points × beacons)` — the reference the indexed sweep is
    /// benchmarked and bit-compared against.
    ///
    /// Accumulates each point's heard beacons in insertion order — the
    /// same per-point addition order as the beacon-major
    /// [`ErrorMap::survey`] — so all three sweeps produce **bit-identical**
    /// maps (asserted by tests and the CI perf-smoke job).
    pub fn survey_point_major(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
    ) -> Self {
        Self::survey_via(&ConnectivityOracle::new(field, model), lattice, policy)
    }

    /// Point-major sweep through a grid-bin spatial index: each lattice
    /// point tests only the beacons in nearby cells —
    /// `O(points × beacons-in-reach)`.
    ///
    /// Bit-identical to [`ErrorMap::survey`] and
    /// [`ErrorMap::survey_point_major`]: the index visits candidates in
    /// insertion order (see `abp_field::CellIndex`) and prunes only
    /// beacons that `Propagation::max_range` proves unreachable, so every
    /// per-point accumulation performs the same additions in the same
    /// order.
    pub fn survey_indexed(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
    ) -> Self {
        let index = ConnectivityOracle::build_index(field, model);
        // Disk-exact models (`Propagation::disk_exact`) let the sweep
        // replace the virtual per-candidate `connected` call with the
        // inline squared-distance comparison the contract pins down —
        // the hottest loop in the workspace then touches only the dense
        // position and threshold arrays, with no dynamic dispatch.
        if model.disk_exact() {
            return Self::survey_indexed_disk(&index, lattice, field, model, policy);
        }
        let oracle = ConnectivityOracle::with_index(field, model, &index);
        Self::survey_via(&oracle, lattice, policy)
    }

    /// The disk-exact indexed sweep: per candidate, heard is exactly
    /// `distance_squared <= max_range^2` (see
    /// `Propagation::disk_exact`), evaluated inline over the index's
    /// dense position array. Bit-identical to the oracle path because
    /// the comparison *is* the model's `connected` and candidates arrive
    /// in the same ascending insertion order.
    fn survey_indexed_disk(
        index: &abp_field::CellIndex,
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
    ) -> Self {
        let n = lattice.len();
        let mut map = ErrorMap {
            lattice: *lattice,
            policy,
            sum_x: vec![0.0; n],
            sum_y: vec![0.0; n],
            count: vec![0; n],
            errors: vec![0.0; n],
        };
        // Dense positions and squared thresholds, in insertion order
        // (r * r per beacon, matching the disk_exact contract verbatim).
        // The fresh path allocates its mirror locally; the scratch path
        // reuses one across trials.
        let mut soa = abp_field::BeaconSoA::new();
        soa.rebuild_with(field, |b| {
            let r = model.max_range(b.tx(), b.pos());
            r * r
        });
        let mut lane = SweepLane::new();
        Self::disk_sweep_soa(
            index,
            &soa,
            lattice,
            &mut lane,
            &mut map.sum_x,
            &mut map.sum_y,
            &mut map.count,
        );
        {
            let _span = abp_trace::span!("localize.derive_errors");
            for flat in 0..n {
                map.errors[flat] = map.derive_error(flat);
            }
        }
        map
    }

    /// [`ErrorMap::survey_indexed`] through a reusable
    /// [`SurveyScratch`](crate::SurveyScratch): the accumulator grids,
    /// SoA mirror, and spatial index all come from (and return to) the
    /// scratch, so repeated calls allocate nothing once the buffers have
    /// grown to the sweep's largest trial.
    ///
    /// **Bit-identical** to [`ErrorMap::survey_indexed`] — and therefore
    /// to all three fresh sweeps: the disk-exact path runs the tiled
    /// structure-of-arrays kernel over the same candidates in the same
    /// ascending insertion order with the same `dx² + dy² <= r²`
    /// comparison, and the oracle path is the same loop as
    /// [`ErrorMap::survey_point_major`]. Asserted by tests here, in
    /// `scratch.rs`, and at scale in `tests/indexing.rs`.
    ///
    /// The returned map *owns* the grid buffers; hand them back with
    /// [`SurveyScratch::recycle`](crate::SurveyScratch::recycle) when
    /// done.
    pub fn survey_indexed_with(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
        scratch: &mut crate::SurveyScratch,
    ) -> Self {
        Self::survey_indexed_with_threads(lattice, field, model, policy, scratch, 1)
    }

    /// [`ErrorMap::survey_indexed_with`] across an intra-survey tile
    /// scheduler: the lattice is split row-band-wise into tiles (about
    /// four per worker, for load balance), each tile owns disjoint
    /// `sum_x/sum_y/count/errors` slices and its own packed-candidate
    /// [`SweepLane`] from the scratch, and a worker
    /// pool mirroring `abp-sim`'s `parallel_try_map` discipline (atomic
    /// work claiming, per-tile panic isolation, deterministic re-panic)
    /// executes them. Error derivation joins the same tile pass, fused
    /// with the sweep under the `radio.connectivity_sweep` span.
    ///
    /// `threads` follows the workspace convention: `0` means all
    /// available cores; `1` runs the plain sequential sweep (identical
    /// code path and trace spans as before this scheduler existed).
    ///
    /// **Bit-identical at any thread count**: every lattice point's
    /// accumulation is self-contained (its candidates fold in ascending
    /// insertion order regardless of which tile visits it), tiles write
    /// disjoint slices, and no cross-point arithmetic exists anywhere in
    /// the pass — so the schedule cannot influence any output bit.
    /// Asserted by `four_sweeps_bit_identical`, the proptests, and
    /// `tests/indexing.rs` at paper scale.
    pub fn survey_indexed_with_threads(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
        scratch: &mut crate::SurveyScratch,
        threads: usize,
    ) -> Self {
        let workers = crate::tiles::resolve_survey_threads(threads);
        let n = lattice.len();
        let mut sum_x = std::mem::take(&mut scratch.sum_x);
        let mut sum_y = std::mem::take(&mut scratch.sum_y);
        let mut count = std::mem::take(&mut scratch.count);
        let mut errors = std::mem::take(&mut scratch.errors);
        sum_x.clear();
        sum_x.resize(n, 0.0);
        sum_y.clear();
        sum_y.resize(n, 0.0);
        count.clear();
        count.resize(n, 0);
        errors.clear();
        errors.resize(n, 0.0);
        match &mut scratch.index {
            Some(index) => ConnectivityOracle::rebuild_index(index, field, model),
            none => *none = Some(ConnectivityOracle::build_index(field, model)),
        }
        let crate::SurveyScratch {
            index,
            soa,
            tile_lanes,
            ..
        } = scratch;
        let index = index.as_ref().expect("index was just built");
        let disk = model.disk_exact();
        if disk {
            // Dense squared thresholds, computed exactly as the AoS path
            // does (r * r per beacon, insertion order).
            soa.rebuild_with(field, |b| {
                let r = model.max_range(b.tx(), b.pos());
                r * r
            });
        }

        if workers <= 1 {
            if disk {
                if tile_lanes.is_empty() {
                    tile_lanes.push(SweepLane::new());
                }
                Self::disk_sweep_soa(
                    index,
                    soa,
                    lattice,
                    &mut tile_lanes[0],
                    &mut sum_x,
                    &mut sum_y,
                    &mut count,
                );
            } else {
                let oracle = ConnectivityOracle::with_index(field, model, index);
                let _span = abp_trace::span!("radio.connectivity_sweep");
                Self::oracle_sweep_rows(
                    &oracle,
                    lattice,
                    0,
                    lattice.per_side() - 1,
                    &mut sum_x,
                    &mut sum_y,
                    &mut count,
                );
            }
            let mut map = ErrorMap::from_parts(*lattice, policy, sum_x, sum_y, count, errors);
            {
                let _span = abp_trace::span!("localize.derive_errors");
                for flat in 0..n {
                    map.errors[flat] = map.derive_error(flat);
                }
            }
            return map;
        }

        let per_side = lattice.per_side() as usize;
        let bands = crate::tiles::row_bands(per_side, workers * 4);
        while tile_lanes.len() < bands.len() {
            tile_lanes.push(SweepLane::new());
        }
        let oracle = (!disk).then(|| ConnectivityOracle::with_index(field, model, index));
        let soa: &abp_field::BeaconSoA = soa;

        struct Tile<'a> {
            j_lo: u32,
            j_hi: u32,
            sum_x: &'a mut [f64],
            sum_y: &'a mut [f64],
            count: &'a mut [u32],
            errors: &'a mut [f64],
            lane: &'a mut SweepLane,
        }

        let mut tasks: Vec<Tile<'_>> = Vec::with_capacity(bands.len());
        {
            let mut rx: &mut [f64] = &mut sum_x;
            let mut ry: &mut [f64] = &mut sum_y;
            let mut rc: &mut [u32] = &mut count;
            let mut re: &mut [f64] = &mut errors;
            let mut lanes: &mut [SweepLane] = tile_lanes;
            for &(start, rows) in &bands {
                let len = rows * per_side;
                let (hx, tx) = std::mem::take(&mut rx).split_at_mut(len);
                rx = tx;
                let (hy, ty) = std::mem::take(&mut ry).split_at_mut(len);
                ry = ty;
                let (hc, tc) = std::mem::take(&mut rc).split_at_mut(len);
                rc = tc;
                let (he, te) = std::mem::take(&mut re).split_at_mut(len);
                re = te;
                let (lane, rest) = std::mem::take(&mut lanes).split_first_mut().expect("lane");
                lanes = rest;
                tasks.push(Tile {
                    j_lo: start as u32,
                    j_hi: (start + rows - 1) as u32,
                    sum_x: hx,
                    sum_y: hy,
                    count: hc,
                    errors: he,
                    lane,
                });
            }
        }

        let tested = AtomicU64::new(0);
        {
            // The tiled pass fuses sweep + error derivation into one tile
            // traversal; the fused work reports under the sweep span.
            let _span = abp_trace::span!("radio.connectivity_sweep");
            crate::tiles::run_pool(tasks, workers, |_, t| {
                match &oracle {
                    Some(oracle) => Self::oracle_sweep_rows(
                        oracle, lattice, t.j_lo, t.j_hi, t.sum_x, t.sum_y, t.count,
                    ),
                    None => {
                        let band = Self::disk_sweep_rows(
                            index, soa, lattice, t.j_lo, t.j_hi, t.lane, t.sum_x, t.sum_y, t.count,
                        );
                        tested.fetch_add(band, Ordering::Relaxed);
                    }
                }
                let base = t.j_lo as usize * per_side;
                for off in 0..t.errors.len() {
                    t.errors[off] = derive_error_at(
                        lattice,
                        policy,
                        base + off,
                        t.sum_x[off],
                        t.sum_y[off],
                        t.count[off],
                    );
                }
            });
            if disk {
                abp_radio::metrics::LINKS_TESTED.add(tested.load(Ordering::Relaxed));
            }
        }
        ErrorMap::from_parts(*lattice, policy, sum_x, sum_y, count, errors)
    }

    /// The tiled structure-of-arrays disk sweep over the whole lattice:
    /// [`ErrorMap::disk_sweep_rows`] for every row, under the
    /// connectivity span, with the links-tested metric flushed once.
    fn disk_sweep_soa(
        index: &abp_field::CellIndex,
        soa: &abp_field::BeaconSoA,
        lattice: &Lattice,
        lane: &mut SweepLane,
        sum_x: &mut [f64],
        sum_y: &mut [f64],
        count: &mut [u32],
    ) {
        let _span = abp_trace::span!("radio.connectivity_sweep");
        let tested = Self::disk_sweep_rows(
            index,
            soa,
            lattice,
            0,
            lattice.per_side() - 1,
            lane,
            sum_x,
            sum_y,
            count,
        );
        abp_radio::metrics::LINKS_TESTED.add(tested);
    }

    /// The SIMD-wide structure-of-arrays disk sweep over lattice rows
    /// `j_lo..=j_hi`: points are walked row-major, the candidate cell is
    /// resolved once per run of points sharing it, and on each cell
    /// change the candidates' `xs`/`ys`/`reach²` columns are gathered
    /// densely into `lane` ([`SweepLane::pack`], amortized over the whole
    /// run) so the membership test streams unit-stride memory through the
    /// explicit-width kernel ([`crate::lanes::sweep_lanes`]) — no
    /// `Beacon` records, no virtual calls, no gathers in the inner loop.
    ///
    /// The kernel computes the membership mask [`crate::LANES`] wide but
    /// folds accepted candidates in ascending insertion order, so the
    /// accumulation order and arithmetic are exactly those of the scalar
    /// per-candidate test and the result is bit-identical.
    ///
    /// Output slices are **band-local**: index `flat - j_lo * per_side`.
    /// Returns the number of links tested (the caller owns the metric
    /// flush — tiles sum theirs into one add).
    #[allow(clippy::too_many_arguments)]
    fn disk_sweep_rows(
        index: &abp_field::CellIndex,
        soa: &abp_field::BeaconSoA,
        lattice: &Lattice,
        j_lo: u32,
        j_hi: u32,
        lane: &mut SweepLane,
        sum_x: &mut [f64],
        sum_y: &mut [f64],
        count: &mut [u32],
    ) -> u64 {
        let bins = index.bins();
        let (xs, ys, r2) = (soa.xs(), soa.ys(), soa.reach2());
        let per_side = lattice.per_side();
        let mut tested = 0u64;
        let mut last_cell = usize::MAX;
        let mut off = 0usize;
        for j in j_lo..=j_hi {
            for i in 0..per_side {
                let p = lattice.point(LatticeIndex::new(i, j));
                let (sx, sy, heard) = if let Some(c) = bins.candidate_cell(p) {
                    if c != last_cell {
                        last_cell = c;
                        lane.pack(bins.cell_candidates(c), xs, ys, r2);
                    }
                    tested += lane.len() as u64;
                    lane.sweep(p.x, p.y)
                } else {
                    // No precomputed candidate table (oversized reach or
                    // empty index): the generic candidate walk, still
                    // over the dense arrays.
                    let (mut sx, mut sy, mut heard) = (0.0f64, 0.0f64, 0u32);
                    bins.for_each_candidate(p, |k, _| {
                        tested += 1;
                        // Same operand order as Point::distance_squared
                        // with self = beacon, other = p — keeps the f64
                        // results bit-identical to the AoS walk.
                        let dx = xs[k] - p.x;
                        let dy = ys[k] - p.y;
                        if dx * dx + dy * dy <= r2[k] {
                            sx += xs[k];
                            sy += ys[k];
                            heard += 1;
                        }
                    });
                    (sx, sy, heard)
                };
                sum_x[off] = sx;
                sum_y[off] = sy;
                count[off] = heard;
                off += 1;
            }
        }
        tested
    }

    /// The oracle (non-disk-exact) sweep over lattice rows `j_lo..=j_hi`,
    /// accumulating each point's heard beacons in insertion order —
    /// the same loop [`ErrorMap::survey_point_major`] runs, banded so
    /// tiles can share it. Output slices are band-local, like
    /// [`ErrorMap::disk_sweep_rows`].
    fn oracle_sweep_rows(
        oracle: &ConnectivityOracle<'_>,
        lattice: &Lattice,
        j_lo: u32,
        j_hi: u32,
        sum_x: &mut [f64],
        sum_y: &mut [f64],
        count: &mut [u32],
    ) {
        let per_side = lattice.per_side();
        let mut off = 0usize;
        for j in j_lo..=j_hi {
            for i in 0..per_side {
                let p = lattice.point(LatticeIndex::new(i, j));
                let (mut sx, mut sy, mut heard) = (0.0f64, 0.0f64, 0u32);
                oracle.for_each_heard(p, |b| {
                    sx += b.pos().x;
                    sy += b.pos().y;
                    heard += 1;
                });
                sum_x[off] = sx;
                sum_y[off] = sy;
                count[off] = heard;
                off += 1;
            }
        }
    }

    /// Point-major sweep through a caller-provided oracle (brute or
    /// indexed).
    fn survey_via(
        oracle: &ConnectivityOracle<'_>,
        lattice: &Lattice,
        policy: UnheardPolicy,
    ) -> Self {
        let n = lattice.len();
        let mut map = ErrorMap {
            lattice: *lattice,
            policy,
            sum_x: vec![0.0; n],
            sum_y: vec![0.0; n],
            count: vec![0; n],
            errors: vec![0.0; n],
        };
        {
            let _span = abp_trace::span!("radio.connectivity_sweep");
            for ix in lattice.indices() {
                let p = lattice.point(ix);
                // Accumulate in locals and store once per point: the
                // additions happen in the same (beacon-insertion) order
                // as ever, so the sums stay bit-identical — only the
                // per-beacon memory traffic goes away.
                let (mut sx, mut sy, mut n) = (0.0f64, 0.0f64, 0u32);
                oracle.for_each_heard(p, |b| {
                    sx += b.pos().x;
                    sy += b.pos().y;
                    n += 1;
                });
                let flat = lattice.flat(ix);
                map.sum_x[flat] = sx;
                map.sum_y[flat] = sy;
                map.count[flat] = n;
            }
        }
        {
            let _span = abp_trace::span!("localize.derive_errors");
            for flat in 0..n {
                map.errors[flat] = map.derive_error(flat);
            }
        }
        map
    }

    /// Reference implementation: runs an arbitrary [`Localizer`] at every
    /// lattice point. `O(points × beacons)` — used for validation and for
    /// non-centroid localizers, not in the hot experiment path.
    ///
    /// The map records the localizer's own
    /// [`unheard_policy`](Localizer::unheard_policy), so per-point validity
    /// ([`ErrorMap::error_at`], [`ErrorMap::estimate_at`]) and the
    /// statistics agree with what the localizer actually returned at
    /// unheard points.
    pub fn survey_with_localizer<L: Localizer + ?Sized>(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        localizer: &L,
    ) -> Self {
        let n = lattice.len();
        let mut map = ErrorMap {
            lattice: *lattice,
            policy: localizer.unheard_policy(),
            sum_x: vec![0.0; n],
            sum_y: vec![0.0; n],
            count: vec![0; n],
            errors: vec![f64::NAN; n],
        };
        let _span = abp_trace::span!("localize.survey");
        // One index for the whole sweep: localizers gather neighbors
        // through it (Localizer::localize_via), which is order-identical
        // to the brute scan — see the CellIndex ordering contract.
        let index = ConnectivityOracle::build_index(field, model);
        let oracle = ConnectivityOracle::with_index(field, model, &index);
        for ix in lattice.indices() {
            let p = lattice.point(ix);
            let fix = localizer.localize_via(&oracle, p);
            let flat = lattice.flat(ix);
            map.count[flat] = fix.heard as u32;
            if let Some(est) = fix.estimate {
                map.sum_x[flat] = est.x * fix.heard.max(1) as f64;
                map.sum_y[flat] = est.y * fix.heard.max(1) as f64;
                map.errors[flat] = est.distance(p);
            }
        }
        map
    }

    /// Assembles a map from raw parts (robot surveys, snapshot decoding).
    pub(crate) fn from_parts(
        lattice: Lattice,
        policy: UnheardPolicy,
        sum_x: Vec<f64>,
        sum_y: Vec<f64>,
        count: Vec<u32>,
        errors: Vec<f64>,
    ) -> Self {
        let n = lattice.len();
        assert!(
            sum_x.len() == n && sum_y.len() == n && count.len() == n && errors.len() == n,
            "part lengths must equal the lattice size {n}"
        );
        ErrorMap {
            lattice,
            policy,
            sum_x,
            sum_y,
            count,
            errors,
        }
    }

    /// Raw accessors for snapshot encoding.
    pub(crate) fn parts(&self) -> (&[f64], &[f64], &[u32], &[f64]) {
        (&self.sum_x, &self.sum_y, &self.count, &self.errors)
    }

    /// Disassembles the map into its grid buffers so a
    /// [`SurveyScratch`](crate::SurveyScratch) or a robot walk can reuse
    /// them.
    pub(crate) fn into_parts(self) -> (Vec<f64>, Vec<f64>, Vec<u32>, Vec<f64>) {
        (self.sum_x, self.sum_y, self.count, self.errors)
    }

    /// Adds one beacon's contribution to the accumulators (no error
    /// derivation).
    fn accumulate_beacon(&mut self, b: &Beacon, model: &dyn Propagation) {
        let reach = model.max_range(b.tx(), b.pos());
        let (bx, by) = (b.pos().x, b.pos().y);
        let tx = b.tx();
        let lattice = self.lattice;
        let mut tested = 0u64;
        lattice.for_each_in_disk(Disk::new(b.pos(), reach), |ix, p| {
            tested += 1;
            if model.connected(tx, b.pos(), p) {
                let flat = lattice.flat(ix);
                self.sum_x[flat] += bx;
                self.sum_y[flat] += by;
                self.count[flat] += 1;
            }
        });
        abp_radio::metrics::LINKS_TESTED.add(tested);
    }

    /// Incrementally re-surveys after `beacon` was added to the field:
    /// only lattice points inside the beacon's maximum range are updated.
    ///
    /// The result is exactly what a full [`ErrorMap::survey`] of the
    /// extended field would produce (deterministic propagation makes the
    /// replay exact); tests assert this equivalence. The returned
    /// [`SurveyDelta`] bounds the changed region so cached scores can
    /// update incrementally.
    pub fn add_beacon(&mut self, beacon: &Beacon, model: &dyn Propagation) -> SurveyDelta {
        let _span = abp_trace::span!("radio.incremental_update");
        let reach = model.max_range(beacon.tx(), beacon.pos());
        let (bx, by) = (beacon.pos().x, beacon.pos().y);
        let tx = beacon.tx();
        let lattice = self.lattice;
        let mut touched = Vec::new();
        let mut bounds: Option<(LatticeIndex, LatticeIndex)> = None;
        let mut tested = 0u64;
        lattice.for_each_in_disk(Disk::new(beacon.pos(), reach), |ix, p| {
            tested += 1;
            if model.connected(tx, beacon.pos(), p) {
                let flat = lattice.flat(ix);
                self.sum_x[flat] += bx;
                self.sum_y[flat] += by;
                self.count[flat] += 1;
                touched.push(flat);
                Self::grow_bounds(&mut bounds, ix);
            }
        });
        abp_radio::metrics::LINKS_TESTED.add(tested);
        let delta = SurveyDelta {
            changed: bounds,
            touched: touched.len(),
        };
        for flat in touched {
            self.errors[flat] = self.derive_error(flat);
        }
        delta
    }

    /// Incrementally removes a beacon's contribution (the inverse of
    /// [`ErrorMap::add_beacon`]) — used by the self-scheduling extension
    /// when a beacon turns passive and by fault experiments when one dies.
    /// Returns the changed region, like [`ErrorMap::add_beacon`].
    pub fn remove_beacon(&mut self, beacon: &Beacon, model: &dyn Propagation) -> SurveyDelta {
        let reach = model.max_range(beacon.tx(), beacon.pos());
        let (bx, by) = (beacon.pos().x, beacon.pos().y);
        let tx = beacon.tx();
        let lattice = self.lattice;
        let mut touched = Vec::new();
        let mut bounds: Option<(LatticeIndex, LatticeIndex)> = None;
        lattice.for_each_in_disk(Disk::new(beacon.pos(), reach), |ix, p| {
            if model.connected(tx, beacon.pos(), p) {
                let flat = lattice.flat(ix);
                debug_assert!(self.count[flat] > 0, "removing unaccounted beacon");
                self.sum_x[flat] -= bx;
                self.sum_y[flat] -= by;
                self.count[flat] -= 1;
                touched.push(flat);
                Self::grow_bounds(&mut bounds, ix);
            }
        });
        let delta = SurveyDelta {
            changed: bounds,
            touched: touched.len(),
        };
        for flat in touched {
            self.errors[flat] = self.derive_error(flat);
        }
        delta
    }

    /// [`ErrorMap::remove_beacon`] under its fault-experiment name: the
    /// beacon died, take its contribution out of the map.
    pub fn kill_beacon(&mut self, beacon: &Beacon, model: &dyn Propagation) -> SurveyDelta {
        self.remove_beacon(beacon, model)
    }

    /// [`ErrorMap::add_beacon`] across the tile scheduler: the beacon's
    /// coverage-disk row span is split into bands, each band owns
    /// disjoint grid slices, and workers update their bands concurrently
    /// (errors derived inline, which is exact because a single-beacon
    /// update touches each point at most once). `threads` follows the
    /// workspace convention (`0` = all cores, `<= 1` = the sequential
    /// path verbatim). Bit-identical to the sequential method at any
    /// thread count; the returned delta is identical too (bounds and
    /// touched counts merge in band order, and both are order-free).
    pub fn add_beacon_threaded(
        &mut self,
        beacon: &Beacon,
        model: &dyn Propagation,
        threads: usize,
    ) -> SurveyDelta {
        let workers = crate::tiles::resolve_survey_threads(threads);
        if workers <= 1 {
            return self.add_beacon(beacon, model);
        }
        let _span = abp_trace::span!("radio.incremental_update");
        self.update_beacon_banded(beacon, model, workers, true)
    }

    /// [`ErrorMap::remove_beacon`] across the tile scheduler — see
    /// [`ErrorMap::add_beacon_threaded`].
    pub fn remove_beacon_threaded(
        &mut self,
        beacon: &Beacon,
        model: &dyn Propagation,
        threads: usize,
    ) -> SurveyDelta {
        let workers = crate::tiles::resolve_survey_threads(threads);
        if workers <= 1 {
            return self.remove_beacon(beacon, model);
        }
        self.update_beacon_banded(beacon, model, workers, false)
    }

    /// The banded single-beacon update: row bands of the coverage disk,
    /// disjoint grid slices per band, one result slot per band merged in
    /// band order after the pool drains.
    fn update_beacon_banded(
        &mut self,
        beacon: &Beacon,
        model: &dyn Propagation,
        workers: usize,
        add: bool,
    ) -> SurveyDelta {
        let reach = model.max_range(beacon.tx(), beacon.pos());
        let disk = Disk::new(beacon.pos(), reach);
        let (bx, by) = (beacon.pos().x, beacon.pos().y);
        let tx = beacon.tx();
        let lattice = self.lattice;
        let policy = self.policy;
        let c = disk.center();
        let Some((j_lo, j_hi)) = lattice.index_span(c.y - reach, c.y + reach) else {
            if add {
                abp_radio::metrics::LINKS_TESTED.add(0);
            }
            return SurveyDelta::EMPTY;
        };
        let per_side = lattice.per_side() as usize;
        let rows = (j_hi - j_lo + 1) as usize;
        let bands = crate::tiles::row_bands(rows, workers * 4);

        #[derive(Default)]
        struct BandOut {
            tested: u64,
            touched: usize,
            bounds: Option<(LatticeIndex, LatticeIndex)>,
        }
        struct Band<'a> {
            j_lo: u32,
            j_hi: u32,
            sum_x: &'a mut [f64],
            sum_y: &'a mut [f64],
            count: &'a mut [u32],
            errors: &'a mut [f64],
            out: &'a mut BandOut,
        }

        let mut outs: Vec<BandOut> = Vec::with_capacity(bands.len());
        outs.resize_with(bands.len(), BandOut::default);
        let mut tasks: Vec<Band<'_>> = Vec::with_capacity(bands.len());
        {
            let mut rx: &mut [f64] = &mut self.sum_x;
            let mut ry: &mut [f64] = &mut self.sum_y;
            let mut rc: &mut [u32] = &mut self.count;
            let mut re: &mut [f64] = &mut self.errors;
            let mut ro: &mut [BandOut] = &mut outs;
            let mut consumed = 0usize;
            for &(start, len) in &bands {
                let begin = (j_lo as usize + start) * per_side;
                let skip = begin - consumed;
                let flats = len * per_side;
                let (_, r) = std::mem::take(&mut rx).split_at_mut(skip);
                let (hx, r) = r.split_at_mut(flats);
                rx = r;
                let (_, r) = std::mem::take(&mut ry).split_at_mut(skip);
                let (hy, r) = r.split_at_mut(flats);
                ry = r;
                let (_, r) = std::mem::take(&mut rc).split_at_mut(skip);
                let (hc, r) = r.split_at_mut(flats);
                rc = r;
                let (_, r) = std::mem::take(&mut re).split_at_mut(skip);
                let (he, r) = r.split_at_mut(flats);
                re = r;
                let (out, rest) = std::mem::take(&mut ro).split_first_mut().expect("out slot");
                ro = rest;
                consumed = begin + flats;
                tasks.push(Band {
                    j_lo: (j_lo as usize + start) as u32,
                    j_hi: (j_lo as usize + start + len - 1) as u32,
                    sum_x: hx,
                    sum_y: hy,
                    count: hc,
                    errors: he,
                    out,
                });
            }
        }

        crate::tiles::run_pool(tasks, workers, |_, t| {
            let base = t.j_lo as usize * per_side;
            lattice.for_each_in_disk_rows(disk, t.j_lo, t.j_hi, |ix, p| {
                if add {
                    t.out.tested += 1;
                }
                if model.connected(tx, beacon.pos(), p) {
                    let off = lattice.flat(ix) - base;
                    if add {
                        t.sum_x[off] += bx;
                        t.sum_y[off] += by;
                        t.count[off] += 1;
                    } else {
                        debug_assert!(t.count[off] > 0, "removing unaccounted beacon");
                        t.sum_x[off] -= bx;
                        t.sum_y[off] -= by;
                        t.count[off] -= 1;
                    }
                    t.errors[off] = derive_error_at(
                        &lattice,
                        policy,
                        base + off,
                        t.sum_x[off],
                        t.sum_y[off],
                        t.count[off],
                    );
                    t.out.touched += 1;
                    Self::grow_bounds(&mut t.out.bounds, ix);
                }
            });
        });

        let mut bounds: Option<(LatticeIndex, LatticeIndex)> = None;
        let mut touched = 0usize;
        let mut tested = 0u64;
        for out in &outs {
            tested += out.tested;
            touched += out.touched;
            if let Some((lo, hi)) = out.bounds {
                Self::grow_bounds(&mut bounds, lo);
                Self::grow_bounds(&mut bounds, hi);
            }
        }
        if add {
            abp_radio::metrics::LINKS_TESTED.add(tested);
        }
        SurveyDelta {
            changed: bounds,
            touched,
        }
    }

    fn grow_bounds(bounds: &mut Option<(LatticeIndex, LatticeIndex)>, ix: LatticeIndex) {
        *bounds = Some(match *bounds {
            None => (ix, ix),
            Some((lo, hi)) => (
                LatticeIndex::new(lo.i.min(ix.i), lo.j.min(ix.j)),
                LatticeIndex::new(hi.i.max(ix.i), hi.j.max(ix.j)),
            ),
        });
    }

    fn derive_error(&self, flat: usize) -> f64 {
        derive_error_at(
            &self.lattice,
            self.policy,
            flat,
            self.sum_x[flat],
            self.sum_y[flat],
            self.count[flat],
        )
    }

    /// The survey lattice.
    #[inline]
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The unheard policy in effect.
    #[inline]
    pub fn policy(&self) -> UnheardPolicy {
        self.policy
    }

    /// Total number of lattice points (`PT`).
    #[inline]
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Always `false` (lattices are non-empty by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// The measured error at a lattice point, or `None` for excluded
    /// (unheard under [`UnheardPolicy::Exclude`]) points.
    pub fn error_at(&self, ix: LatticeIndex) -> Option<f64> {
        let e = self.errors[self.lattice.flat(ix)];
        (!e.is_nan()).then_some(e)
    }

    /// The measured error at the lattice point nearest `p` — the serving
    /// layer's *confidence* for an estimate at `p` (the error the survey
    /// measured where the client claims to be). `None` when that point is
    /// excluded. Allocation-free.
    pub fn error_near(&self, p: Point) -> Option<f64> {
        self.error_at(self.lattice.nearest(p))
    }

    /// The position estimate at a lattice point (`None` if excluded).
    pub fn estimate_at(&self, ix: LatticeIndex) -> Option<Point> {
        let flat = self.lattice.flat(ix);
        if self.count[flat] > 0 {
            let inv = 1.0 / self.count[flat] as f64;
            Some(Point::new(self.sum_x[flat] * inv, self.sum_y[flat] * inv))
        } else {
            self.policy.estimate(self.lattice.terrain())
        }
    }

    /// Number of beacons heard at a lattice point.
    pub fn heard_at(&self, ix: LatticeIndex) -> u32 {
        self.count[self.lattice.flat(ix)]
    }

    /// Iterates the valid (non-excluded) errors.
    pub fn valid_errors(&self) -> impl Iterator<Item = f64> + '_ {
        self.errors.iter().copied().filter(|e| !e.is_nan())
    }

    /// Number of valid measurements.
    pub fn valid_count(&self) -> usize {
        self.errors.iter().filter(|e| !e.is_nan()).count()
    }

    /// Number of lattice points hearing no beacon.
    pub fn unheard_count(&self) -> usize {
        self.count.iter().filter(|&&c| c == 0).count()
    }

    /// Classifies every lattice point into the explicit accounting
    /// channels of [`SurveyAccounting`], treating points that heard
    /// fewer than `min_beacons` beacons as *degraded*.
    ///
    /// `min_beacons` should match the estimator consuming the map:
    /// `1` for proximity/centroid methods, `3` for multilateration
    /// (see `Localizer::min_beacons` in `abp-localize`). Fault-injected
    /// surveys use this to report how much of the terrain was measured
    /// at full fidelity versus degraded, unheard, or lost outright.
    pub fn accounting_with(&self, min_beacons: u32) -> SurveyAccounting {
        let mut acc = SurveyAccounting::default();
        for (flat, &c) in self.count.iter().enumerate() {
            if c == 0 {
                acc.unheard += 1;
            } else if self.errors[flat].is_nan() {
                acc.dropped += 1;
            } else if c < min_beacons {
                acc.degraded += 1;
            } else {
                acc.measured += 1;
            }
        }
        acc
    }

    /// [`ErrorMap::accounting_with`] for a single-beacon estimator
    /// (the paper's centroid method): no point can be degraded, so the
    /// channels reduce to measured / unheard / dropped.
    pub fn accounting(&self) -> SurveyAccounting {
        self.accounting_with(1)
    }

    /// Mean localization error over all measured points — the statistic of
    /// Figures 4 and 6.
    ///
    /// # Panics
    ///
    /// Panics if every point is excluded (only possible with
    /// [`UnheardPolicy::Exclude`] and an unheard terrain).
    pub fn mean_error(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for e in self.valid_errors() {
            sum += e;
            n += 1;
        }
        assert!(n > 0, "no valid measurements in error map");
        sum / n as f64
    }

    /// Median localization error over all measured points (R-7
    /// interpolation, matching [`abp_stats::median`]), computed by
    /// selection in `O(points)` — the improvement experiments call this in
    /// their inner loop.
    ///
    /// # Panics
    ///
    /// Panics if every point is excluded.
    pub fn median_error(&self) -> f64 {
        self.median_error_with(&mut Vec::new())
    }

    /// [`ErrorMap::median_error`] into a caller-provided selection
    /// workspace: the same R-7 selection, bit-identical result, but the
    /// collected values live in `workspace` (cleared, then refilled) so a
    /// scratch-reusing caller pays no allocation after the first call.
    ///
    /// # Panics
    ///
    /// Panics if every point is excluded.
    pub fn median_error_with(&self, workspace: &mut Vec<f64>) -> f64 {
        workspace.clear();
        workspace.extend(self.valid_errors());
        assert!(!workspace.is_empty(), "no valid measurements in error map");
        let n = workspace.len();
        let k2 = n / 2;
        let (left, mid, _) =
            workspace.select_nth_unstable_by(k2, |a, b| a.partial_cmp(b).expect("no NaN here"));
        let hi = *mid;
        if n % 2 == 1 {
            hi
        } else {
            let lo = left.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo + hi) * 0.5
        }
    }

    /// Full descriptive statistics of the valid errors.
    ///
    /// # Panics
    ///
    /// Panics if every point is excluded.
    pub fn summary(&self) -> Summary {
        Summary::from_iter(self.valid_errors())
    }

    /// The lattice point with the highest measured error — Step 3 of the
    /// paper's Max algorithm. Ties break toward the first point in
    /// row-major order (deterministic). `None` if every point is excluded.
    pub fn max_error_point(&self) -> Option<(LatticeIndex, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (flat, &e) in self.errors.iter().enumerate() {
            if e.is_nan() {
                continue;
            }
            if best.map_or(true, |(_, be)| e > be) {
                best = Some((flat, e));
            }
        }
        best.map(|(flat, e)| (self.lattice.unflat(flat), e))
    }

    /// Cumulative (summed) error over the lattice points inside `rect` —
    /// Step 4 of the paper's Grid algorithm (`S(i, j)`). Excluded points
    /// contribute nothing.
    ///
    /// Summation association is fixed and documented: each lattice row's
    /// errors are summed left-to-right into a row subtotal, and the row
    /// subtotals are added bottom-to-top. The incremental Grid scorer in
    /// `abp-placement` caches exactly those row subtotals, so its scores
    /// are bit-identical to this function's.
    pub fn cumulative_error_in(&self, rect: &Rect) -> f64 {
        let mut total = 0.0;
        let lattice = self.lattice;
        let mut row = u32::MAX;
        let mut row_sum = 0.0;
        lattice.for_each_in_rect(rect, |ix, _| {
            if ix.j != row {
                total += row_sum;
                row_sum = 0.0;
                row = ix.j;
            }
            let e = self.errors[lattice.flat(ix)];
            if !e.is_nan() {
                row_sum += e;
            }
        });
        total + row_sum
    }

    /// The row subtotal this map's [`ErrorMap::cumulative_error_in`]
    /// association uses: valid errors of row `j`, columns `i_lo..=i_hi`,
    /// summed left-to-right. Exposed for the incremental Grid scorer.
    pub fn row_error_sum(&self, j: u32, i_lo: u32, i_hi: u32) -> f64 {
        let per_side = self.lattice.per_side() as usize;
        let base = j as usize * per_side;
        let mut sum = 0.0;
        for i in i_lo..=i_hi {
            let e = self.errors[base + i as usize];
            if !e.is_nan() {
                sum += e;
            }
        }
        sum
    }
}

/// Derives one lattice point's localization error from its accumulator
/// values — the exact arithmetic of `ErrorMap::derive_error`, exposed as
/// a free function so survey tiles (which hold band-local slices, not a
/// finished map) derive errors in the same pass that sweeps them.
pub(crate) fn derive_error_at(
    lattice: &Lattice,
    policy: UnheardPolicy,
    flat: usize,
    sum_x: f64,
    sum_y: f64,
    count: u32,
) -> f64 {
    let p = lattice.point(lattice.unflat(flat));
    let estimate = if count > 0 {
        let inv = 1.0 / count as f64;
        Some(Point::new(sum_x * inv, sum_y * inv))
    } else {
        policy.estimate(lattice.terrain())
    };
    match estimate {
        Some(est) => est.distance(p),
        None => f64::NAN,
    }
}

impl fmt::Display for ErrorMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error map over {} ({} valid, {} unheard)",
            self.lattice,
            self.valid_count(),
            self.unheard_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_geom::Terrain;
    use abp_localize::CentroidLocalizer;
    use abp_radio::{IdealDisk, PerBeaconNoise};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    fn lattice(step: f64) -> Lattice {
        Lattice::new(terrain(), step)
    }

    #[test]
    fn empty_field_policy_estimates() {
        let lat = lattice(10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        // Every point estimated at (50, 50): corner error = 50*sqrt(2).
        let corner = map.error_at(LatticeIndex::new(0, 0)).unwrap();
        assert!((corner - 50.0 * std::f64::consts::SQRT_2).abs() < 1e-9);
        let center = map.error_at(lat.nearest(Point::new(50.0, 50.0))).unwrap();
        assert_eq!(center, 0.0);
        assert_eq!(map.unheard_count(), map.len());
    }

    #[test]
    fn exclude_policy_drops_unheard() {
        let lat = lattice(10.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(50.0, 50.0)]);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::Exclude);
        assert!(map.valid_count() > 0);
        assert!(map.valid_count() < map.len());
        assert_eq!(map.valid_count() + map.unheard_count(), map.len());
        assert!(map.error_at(LatticeIndex::new(0, 0)).is_none());
    }

    #[test]
    fn survey_matches_localizer_reference() {
        let lat = lattice(5.0);
        let mut rng = StdRng::seed_from_u64(7);
        let field = BeaconField::random_uniform(40, terrain(), &mut rng);
        for noise in [0.0, 0.3] {
            let model = PerBeaconNoise::new(15.0, noise, 13);
            let fast = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::Exclude);
            let slow = ErrorMap::survey_with_localizer(
                &lat,
                &field,
                &model,
                &CentroidLocalizer::new(UnheardPolicy::Exclude),
            );
            for ix in lat.indices() {
                let a = fast.error_at(ix);
                let b = slow.error_at(ix);
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "{ix}: {x} vs {y}"),
                    _ => panic!("validity mismatch at {ix}: {a:?} vs {b:?}"),
                }
                assert_eq!(fast.heard_at(ix), slow.heard_at(ix), "heard at {ix}");
            }
        }
    }

    /// Bitwise map comparison: every accumulator and error identical to
    /// the bit (NaN-safe via to_bits).
    fn assert_bit_identical(a: &ErrorMap, b: &ErrorMap, label: &str) {
        let (ax, ay, ac, ae) = a.parts();
        let (bx, by, bc, be) = b.parts();
        assert_eq!(ac, bc, "{label}: heard counts differ");
        for flat in 0..a.len() {
            assert_eq!(
                ax[flat].to_bits(),
                bx[flat].to_bits(),
                "{label}: sum_x at {flat}"
            );
            assert_eq!(
                ay[flat].to_bits(),
                by[flat].to_bits(),
                "{label}: sum_y at {flat}"
            );
            assert_eq!(
                ae[flat].to_bits(),
                be[flat].to_bits(),
                "{label}: error at {flat}"
            );
        }
    }

    #[test]
    fn four_sweeps_bit_identical() {
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(17);
        let field = BeaconField::random_uniform(60, terrain(), &mut rng);
        let mut scratch = crate::SurveyScratch::new();
        let mut scratch_mt = crate::SurveyScratch::new();
        for noise in [0.0, 0.4] {
            let model = PerBeaconNoise::new(15.0, noise, 5);
            for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
                let beacon_major = ErrorMap::survey(&lat, &field, &model, policy);
                let brute = ErrorMap::survey_point_major(&lat, &field, &model, policy);
                let indexed = ErrorMap::survey_indexed(&lat, &field, &model, policy);
                let scratched =
                    ErrorMap::survey_indexed_with(&lat, &field, &model, policy, &mut scratch);
                assert_bit_identical(&beacon_major, &brute, "beacon-major vs point-major");
                assert_bit_identical(&brute, &indexed, "point-major vs indexed");
                assert_bit_identical(&indexed, &scratched, "indexed vs scratch-reused");
                scratch.recycle(scratched);
                // The tiled scheduler at several thread counts — more
                // workers than cores is fine (oversubscription changes
                // only scheduling, never bits).
                for threads in [2usize, 3, 4] {
                    let tiled = ErrorMap::survey_indexed_with_threads(
                        &lat,
                        &field,
                        &model,
                        policy,
                        &mut scratch_mt,
                        threads,
                    );
                    assert_bit_identical(
                        &indexed,
                        &tiled,
                        &format!("indexed vs tiled {threads}-thread"),
                    );
                    scratch_mt.recycle(tiled);
                }
            }
        }
    }

    /// A noisy model forces `disk_exact() == false`, so the tiled pass
    /// runs the oracle kernel — it must be bit-identical too (covered
    /// above), and so must an *empty* field through the tiled path.
    #[test]
    fn tiled_survey_handles_empty_field() {
        let lat = lattice(10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let mut scratch = crate::SurveyScratch::new();
        let fresh = ErrorMap::survey_indexed(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let tiled = ErrorMap::survey_indexed_with_threads(
            &lat,
            &field,
            &model,
            UnheardPolicy::TerrainCenter,
            &mut scratch,
            4,
        );
        assert_bit_identical(&fresh, &tiled, "empty field tiled");
    }

    #[test]
    fn threaded_incremental_updates_match_sequential() {
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(31);
        for noise in [0.0, 0.3] {
            let mut field = BeaconField::random_uniform(25, terrain(), &mut rng);
            let model = PerBeaconNoise::new(15.0, noise, 8);
            let seq0 = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
            let mut seq = seq0.clone();
            let mut par = seq0.clone();
            let id = field.add_beacon(Point::new(41.0, 59.0));
            let beacon = *field.get(id).unwrap();
            let d_seq = seq.add_beacon(&beacon, &model);
            let d_par = par.add_beacon_threaded(&beacon, &model, 4);
            assert_eq!(d_seq, d_par, "add deltas (noise {noise})");
            assert_bit_identical(&seq, &par, "threaded add");
            let r_seq = seq.remove_beacon(&beacon, &model);
            let r_par = par.remove_beacon_threaded(&beacon, &model, 3);
            assert_eq!(r_seq, r_par, "remove deltas (noise {noise})");
            assert_bit_identical(&seq, &par, "threaded remove");
        }
    }

    /// A beacon whose disk misses the lattice entirely: both paths must
    /// report an empty delta and change nothing.
    #[test]
    fn threaded_incremental_empty_reach_is_a_noop() {
        let lat = lattice(10.0);
        let mut rng = StdRng::seed_from_u64(37);
        let field = BeaconField::random_uniform(5, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        // A probe far below the terrain: its whole disk misses the
        // lattice rows, so the banded path takes the empty-span exit.
        let probe = Beacon::new(abp_field::BeaconId(999), Point::new(5.0, -50.0));
        let mut map = before.clone();
        let delta = map.add_beacon_threaded(&probe, &model, 4);
        assert!(delta.is_empty());
        assert_eq!(delta.touched, 0);
        assert_bit_identical(&before, &map, "out-of-reach add");
    }

    #[test]
    fn add_beacon_delta_bounds_changed_region() {
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(23);
        let mut field = BeaconField::random_uniform(20, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(40.0, 60.0));
        let beacon = *field.get(id).unwrap();
        let mut map = before.clone();
        let delta = map.add_beacon(&beacon, &model);
        assert!(!delta.is_empty());
        assert!(delta.touched > 0);
        // Every point whose error changed lies inside the delta's box.
        for ix in lat.indices() {
            let changed = map.error_at(ix) != before.error_at(ix);
            if changed {
                assert!(delta.contains(ix), "changed point {ix} outside delta");
            }
        }
        // And the box is tight to the beacon's reach.
        let (lo, hi) = delta.changed.unwrap();
        let r = model.max_range(beacon.tx(), beacon.pos());
        assert!(lat.point(lo).distance(beacon.pos()) <= r * 2.0_f64.sqrt() + 1e-9);
        assert!(lat.point(hi).distance(beacon.pos()) <= r * 2.0_f64.sqrt() + 1e-9);
    }

    #[test]
    fn kill_beacon_inverts_add_and_reports_same_region() {
        let lat = lattice(4.0);
        let mut rng = StdRng::seed_from_u64(29);
        let mut field = BeaconField::random_uniform(15, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(70.0, 30.0));
        let beacon = *field.get(id).unwrap();
        let mut map = before.clone();
        let added = map.add_beacon(&beacon, &model);
        let killed = map.kill_beacon(&beacon, &model);
        assert_eq!(added.changed, killed.changed);
        assert_eq!(added.touched, killed.touched);
        for ix in lat.indices() {
            assert_eq!(map.heard_at(ix), before.heard_at(ix));
        }
    }

    #[test]
    fn row_error_sum_matches_cumulative_association() {
        let lat = lattice(10.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(30.0, 30.0)]);
        let model = IdealDisk::new(25.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let rect = Rect::new(Point::new(5.0, 15.0), Point::new(75.0, 85.0));
        let (i_lo, i_hi) = lat.index_span(rect.min().x, rect.max().x).unwrap();
        let (j_lo, j_hi) = lat.index_span(rect.min().y, rect.max().y).unwrap();
        let mut total = 0.0;
        for j in j_lo..=j_hi {
            total += map.row_error_sum(j, i_lo, i_hi);
        }
        assert_eq!(
            total.to_bits(),
            map.cumulative_error_in(&rect).to_bits(),
            "row-sum association must reproduce cumulative_error_in exactly"
        );
    }

    #[test]
    fn incremental_add_equals_full_resurvey() {
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for noise in [0.0, 0.5] {
            let mut field = BeaconField::random_uniform(30, terrain(), &mut rng);
            let model = PerBeaconNoise::new(15.0, noise, 21);
            let mut map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
            // Add a beacon both ways.
            let id = field.add_beacon(Point::new(33.3, 66.6));
            let beacon = *field.get(id).unwrap();
            map.add_beacon(&beacon, &model);
            let full = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
            for ix in lat.indices() {
                assert_eq!(map.heard_at(ix), full.heard_at(ix));
                let (a, b) = (map.error_at(ix).unwrap(), full.error_at(ix).unwrap());
                assert!((a - b).abs() < 1e-9, "{ix}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn incremental_remove_inverts_add() {
        let lat = lattice(4.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut field = BeaconField::random_uniform(20, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(20.0, 80.0));
        let beacon = *field.get(id).unwrap();
        let mut map = before.clone();
        map.add_beacon(&beacon, &model);
        map.remove_beacon(&beacon, &model);
        for ix in lat.indices() {
            assert_eq!(map.heard_at(ix), before.heard_at(ix));
            let (a, b) = (map.error_at(ix).unwrap(), before.error_at(ix).unwrap());
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn adding_a_beacon_never_reduces_heard_counts() {
        let lat = lattice(5.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut field = BeaconField::random_uniform(10, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(50.0, 50.0));
        let mut after = before.clone();
        after.add_beacon(field.get(id).unwrap(), &model);
        for ix in lat.indices() {
            assert!(after.heard_at(ix) >= before.heard_at(ix));
        }
    }

    #[test]
    fn mean_and_median_match_summary() {
        let lat = lattice(5.0);
        let mut rng = StdRng::seed_from_u64(5);
        let field = BeaconField::random_uniform(50, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let s = map.summary();
        assert!((map.mean_error() - s.mean()).abs() < 1e-12);
        assert!((map.median_error() - s.median()).abs() < 1e-12);
        assert_eq!(map.valid_count(), s.len());
    }

    #[test]
    fn max_error_point_is_argmax() {
        let lat = lattice(10.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(0.0, 0.0)]);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::Origin);
        let (ix, e) = map.max_error_point().unwrap();
        for other in lat.indices() {
            assert!(map.error_at(other).unwrap() <= e);
        }
        // With Origin policy the worst point is the far corner (100, 100).
        assert_eq!(ix, LatticeIndex::new(10, 10));
    }

    #[test]
    fn cumulative_error_in_rect_sums_members() {
        let lat = lattice(10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let rect = Rect::new(Point::new(0.0, 0.0), Point::new(20.0, 20.0));
        let mut manual = 0.0;
        lat.for_each_in_rect(&rect, |ix, _| manual += map.error_at(ix).unwrap());
        assert!((map.cumulative_error_in(&rect) - manual).abs() < 1e-9);
        // Whole-terrain cumulative = mean * count.
        let whole = map.cumulative_error_in(&terrain().bounds());
        assert!((whole - map.mean_error() * map.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn localizer_survey_honors_unheard_policy() {
        // A single corner beacon leaves most of the terrain unheard; a
        // TerrainCenter localizer still estimates (50, 50) there, and the
        // map must reflect that — error and estimate both present,
        // mutually consistent, and counted by the statistics.
        let lat = lattice(10.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(0.0, 0.0)]);
        let model = IdealDisk::new(15.0);
        let localizer = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);
        let map = ErrorMap::survey_with_localizer(&lat, &field, &model, &localizer);
        assert_eq!(map.policy(), UnheardPolicy::TerrainCenter);
        assert!(map.unheard_count() > 0);
        // Every point is valid under TerrainCenter.
        assert_eq!(map.valid_count(), map.len());
        let far = LatticeIndex::new(10, 10); // (100, 100): unheard corner
        assert_eq!(map.heard_at(far), 0);
        let est = map.estimate_at(far).expect("policy estimate must exist");
        assert_eq!(est, Point::new(50.0, 50.0));
        let err = map.error_at(far).expect("policy error must exist");
        assert!((err - est.distance(lat.point(far))).abs() < 1e-12);
        // And the whole map matches the beacon-major fast path, which has
        // always honored the policy.
        let fast = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        assert_eq!(fast.policy(), map.policy());
        for ix in lat.indices() {
            let (a, b) = (map.error_at(ix).unwrap(), fast.error_at(ix).unwrap());
            assert!((a - b).abs() < 1e-9, "{ix}: {a} vs {b}");
            assert_eq!(map.estimate_at(ix), fast.estimate_at(ix));
        }
    }

    #[test]
    #[should_panic(expected = "no valid measurements")]
    fn mean_panics_when_everything_excluded() {
        let lat = lattice(10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::Exclude);
        let _ = map.mean_error();
    }
}

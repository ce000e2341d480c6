//! The measured localization-error field.

use crate::SurveyScratch;
use abp_field::{Beacon, BeaconField};
use abp_geom::{Disk, Lattice, LatticeIndex, Point, Rect};
use abp_localize::{ConnectivityOracle, Localizer, UnheardPolicy};
use abp_radio::{Propagation, Run};
use abp_stats::Summary;
use serde::{Deserialize, Serialize};
use std::fmt;

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
///   paper scale and far more at low density — and ask the model only
///   outside the beacon's guaranteed core;
/// * **incremental re-survey** ([`ErrorMap::add_beacon`]): adding a beacon
///   touches only the points inside *its* coverage disk, so the
///   after-placement survey costs `O((R/step)²)` instead of a full pass.
///
/// Unheard points follow the configured [`UnheardPolicy`]; with
/// [`UnheardPolicy::Exclude`] they carry no measurement and are skipped by
/// all statistics.
///
/// `clone_from` copies into the target's own four grids, so a trial that
/// resets one after-map from its baseline per algorithm allocates it once.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
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
    /// Surveys `field` under `model` over `lattice`: the production
    /// beacon-major sweep of [`ErrorMap::survey_indexed_with`], through a
    /// temporary scratch.
    ///
    /// Semantically identical to running the paper's centroid localizer at
    /// every lattice point (validated against
    /// [`ErrorMap::survey_with_localizer`] in tests), and bit-identical to
    /// the point-major oracle [`ErrorMap::survey_point_major`].
    pub fn survey(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
    ) -> Self {
        Self::survey_indexed_with(lattice, field, model, policy, &mut SurveyScratch::new())
    }

    /// Point-major brute-force sweep: for every lattice point, scan every
    /// beacon. `O(points × beacons)` — the oracle the production sweep is
    /// benchmarked and bit-compared against.
    ///
    /// Accumulates each point's heard beacons in insertion order — the
    /// same per-point addition order as the beacon-major
    /// [`ErrorMap::survey`] — so both sweeps produce **bit-identical**
    /// maps (asserted by tests and the CI perf-smoke job).
    pub fn survey_point_major(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
    ) -> Self {
        let oracle = ConnectivityOracle::new(field, model);
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
        map.derive_errors();
        map
    }

    /// The production sweep through a reusable [`SurveyScratch`]: the
    /// accumulator grids come from (and return to) the scratch, so
    /// repeated calls allocate nothing once the buffers have grown to the
    /// sweep's largest trial.
    ///
    /// The sweep is beacon-major: each beacon, in insertion order, walks
    /// the lattice rows of its reach disk
    /// ([`Lattice::for_each_disk_row`]). Per row, the
    /// points inside the beacon's guaranteed core
    /// (`Propagation::core_range`) are heard as one contiguous run
    /// without asking the model; the rest of the row is queued as runs
    /// the model decides in batches through
    /// `Propagation::connected_runs`. Errors are then derived in one
    /// row-major pass over the lattice. The name, from an earlier
    /// index-based sweep, is kept because the whole-run benchmark
    /// (`perfbench`) calls this function by name.
    ///
    /// **Bit-identical** to [`ErrorMap::survey_point_major`]: every point
    /// sums its heard beacons in insertion order starting from 0.0, the
    /// core only skips `connected` calls that would return `true`, and
    /// each mask bit is exactly `connected`'s answer. Asserted by tests
    /// here, in `scratch.rs`, and at scale in `tests/indexing.rs`.
    ///
    /// The returned map *owns* the grid buffers; hand them back with
    /// [`SurveyScratch::recycle`] when done.
    pub fn survey_indexed_with(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
        scratch: &mut SurveyScratch,
    ) -> Self {
        let (mut sum_x, mut sum_y, mut count, errors) = scratch.take_grids(lattice.len());
        {
            let _span = abp_trace::span!("radio.connectivity_sweep");
            // Slices, so the walk's closure holds the grids' pointers
            // directly; a captured `&mut Vec` costs one more load per run.
            let (sx, sy, heard) = (&mut sum_x[..], &mut sum_y[..], &mut count[..]);
            let per_side = lattice.per_side() as usize;
            let mut tested = 0u64;
            for b in field {
                let (bx, by) = (b.pos().x, b.pos().y);
                tested += walk_beacon(lattice, b, model, |j, lo, hi| {
                    let row = j as usize * per_side;
                    let cols = row + lo as usize..row + hi as usize;
                    sx[cols.clone()].iter_mut().for_each(|v| *v += bx);
                    sy[cols.clone()].iter_mut().for_each(|v| *v += by);
                    heard[cols].iter_mut().for_each(|v| *v += 1);
                });
            }
            abp_radio::metrics::LINKS_TESTED.add(tested);
        }
        let mut map = ErrorMap::from_parts(*lattice, policy, sum_x, sum_y, count, errors);
        map.derive_errors();
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
        // One candidate table for the whole sweep: localizers gather
        // neighbors through it (Localizer::localize_via), in the brute
        // scan's order.
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

    /// Disassembles the map into its grid buffers so a [`SurveyScratch`]
    /// or a robot walk can reuse them.
    pub(crate) fn into_parts(self) -> (Vec<f64>, Vec<f64>, Vec<u32>, Vec<f64>) {
        (self.sum_x, self.sum_y, self.count, self.errors)
    }

    /// Incrementally re-surveys after `beacon` was added to the field:
    /// only lattice points inside the beacon's maximum range are visited,
    /// by the same row walk the full sweep runs.
    ///
    /// The result is exactly what a full [`ErrorMap::survey`] of the
    /// extended field would produce (deterministic propagation makes the
    /// replay exact, and the new beacon is the last one every point
    /// adds); tests assert this equivalence. The returned
    /// [`SurveyDelta`] bounds the changed region so cached scores can
    /// update incrementally.
    pub fn add_beacon(&mut self, beacon: &Beacon, model: &dyn Propagation) -> SurveyDelta {
        let _span = abp_trace::span!("radio.incremental_update");
        self.update_beacon(beacon, model, true)
    }

    /// Incrementally removes a beacon's contribution (the inverse of
    /// [`ErrorMap::add_beacon`]) — used by the self-scheduling extension
    /// when a beacon turns passive and by fault experiments when one dies.
    /// Returns the changed region, like [`ErrorMap::add_beacon`].
    pub fn remove_beacon(&mut self, beacon: &Beacon, model: &dyn Propagation) -> SurveyDelta {
        self.update_beacon(beacon, model, false)
    }

    /// [`ErrorMap::remove_beacon`] under its fault-experiment name: the
    /// beacon died, take its contribution out of the map.
    pub fn kill_beacon(&mut self, beacon: &Beacon, model: &dyn Propagation) -> SurveyDelta {
        self.remove_beacon(beacon, model)
    }

    /// The single-beacon update behind the incremental methods: one
    /// [`walk_beacon`] over the beacon's reach disk, updating the map's
    /// own grids in place. Errors are derived as each point is updated,
    /// which is exact because one beacon reaches each point at most once.
    /// Only additions count toward `links_tested`.
    fn update_beacon(
        &mut self,
        beacon: &Beacon,
        model: &dyn Propagation,
        add: bool,
    ) -> SurveyDelta {
        let (lattice, policy) = (self.lattice, self.policy);
        let (bx, by) = (beacon.pos().x, beacon.pos().y);
        let per_side = lattice.per_side() as usize;
        let mut changed: Option<(LatticeIndex, LatticeIndex)> = None;
        let mut touched = 0usize;
        let tested = walk_beacon(&lattice, beacon, model, |j, lo, hi| {
            for i in lo..hi {
                let flat = j as usize * per_side + i as usize;
                if add {
                    self.sum_x[flat] += bx;
                    self.sum_y[flat] += by;
                    self.count[flat] += 1;
                } else {
                    debug_assert!(self.count[flat] > 0, "removing unaccounted beacon");
                    self.sum_x[flat] -= bx;
                    self.sum_y[flat] -= by;
                    self.count[flat] -= 1;
                }
                self.errors[flat] = derive_error_at(
                    &lattice,
                    policy,
                    lattice.point(LatticeIndex::new(i, j)),
                    self.sum_x[flat],
                    self.sum_y[flat],
                    self.count[flat],
                );
            }
            touched += (hi - lo) as usize;
            Self::grow_bounds(&mut changed, LatticeIndex::new(lo, j));
            Self::grow_bounds(&mut changed, LatticeIndex::new(hi - 1, j));
        });
        if add {
            abp_radio::metrics::LINKS_TESTED.add(tested);
        }
        SurveyDelta { changed, touched }
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

    /// Derives every point's error from its accumulators, row by row, so
    /// each point's position comes from its row and column directly.
    fn derive_errors(&mut self) {
        let _span = abp_trace::span!("localize.derive_errors");
        let lattice = self.lattice;
        let per_side = lattice.per_side();
        for j in 0..per_side {
            for i in 0..per_side {
                let flat = j as usize * per_side as usize + i as usize;
                self.errors[flat] = derive_error_at(
                    &lattice,
                    self.policy,
                    lattice.point(LatticeIndex::new(i, j)),
                    self.sum_x[flat],
                    self.sum_y[flat],
                    self.count[flat],
                );
            }
        }
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
    /// errors are summed left-to-right into a row subtotal
    /// ([`ErrorMap::row_error_sum`]), and the row subtotals are added
    /// bottom-to-top onto `0.0`. The Grid scorer in `abp-placement` reads
    /// every grid's score from a table of exactly those row subtotals, so
    /// its scores are bit-identical to this function's; this per-rectangle
    /// sum, applied to every grid by `GridPlacement::cumulative_errors_direct`,
    /// is the oracle tests and the bench compare it against.
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
    /// summed left-to-right onto `0.0`. The Grid scorer in
    /// `abp-placement` builds its table of row subtotals from this.
    ///
    /// An excluded (NaN) point adds `+0.0` instead of being skipped by a
    /// branch. That is exact: the sum starts at `+0.0`, and under
    /// round-to-nearest a sum is `-0.0` only when both operands are, so
    /// the sum is never `-0.0` and adding `+0.0` leaves its bits
    /// unchanged.
    pub fn row_error_sum(&self, j: u32, i_lo: u32, i_hi: u32) -> f64 {
        let base = j as usize * self.lattice.per_side() as usize;
        self.errors[base + i_lo as usize..=base + i_hi as usize]
            .iter()
            .fold(0.0, |sum, &e| sum + if e.is_nan() { 0.0 } else { e })
    }
}

/// Derives one lattice point's localization error from its accumulator
/// values at the point's position `p` — the arithmetic of every error
/// the map holds, exposed as a free function so an incremental update
/// can derive a point's error while it still holds the map's grids
/// mutably.
pub(crate) fn derive_error_at(
    lattice: &Lattice,
    policy: UnheardPolicy,
    p: Point,
    sum_x: f64,
    sum_y: f64,
    count: u32,
) -> f64 {
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

/// Annulus runs one `Propagation::connected_runs` call decides: enough
/// for a whole beacon's annulus at the paper's 1 m step.
const RUN_BATCH: usize = 128;

/// One beacon's walk over its reach disk (`Propagation::max_range`):
/// calls `heard(j, lo, hi)` for runs of points `lo..hi` of row `j` that
/// hear the beacon. Each row's points inside the beacon's guaranteed core
/// (`Propagation::core_range`, in the contract's squared form) are heard
/// as one run without asking the model. The rest of the row is queued as
/// runs of at most 64 points into a fixed batch that one
/// `Propagation::connected_runs` call decides, when the batch fills and
/// when the walk ends; only their set bits reach `heard`. Returns the
/// points decided — the links tested.
///
/// Full sweeps and incremental updates both run this walk, so they hear
/// exactly the same points. Each heard point is reported once, but not
/// in lattice order: an annulus run is reported when its batch is
/// decided, after the cores of later rows.
fn walk_beacon<F: FnMut(u32, u32, u32)>(
    lattice: &Lattice,
    beacon: &Beacon,
    model: &dyn Propagation,
    mut heard: F,
) -> u64 {
    let (tx, pos) = (beacon.tx(), beacon.pos());
    let reach = model.max_range(tx, pos);
    let step = lattice.step();
    let decide = |runs: &[Run], masks: &mut [u64], heard: &mut F| {
        model.connected_runs(tx, pos, step, runs, masks);
        for (run, &mask) in runs.iter().zip(masks.iter()) {
            for_each_set_run(mask, |lo, hi| heard(run.j(), run.i0() + lo, run.i0() + hi));
        }
    };
    let mut runs = [Run::default(); RUN_BATCH];
    let mut masks = [0u64; RUN_BATCH];
    let mut queued = 0;
    let mut tested = 0u64;
    let core = model.core_range(tx, pos);
    lattice.for_each_disk_row(Disk::new(pos, reach), core, |row| {
        tested += u64::from(row.hi - row.lo);
        if row.core_lo < row.core_hi {
            heard(row.j, row.core_lo, row.core_hi);
        }
        for (mut lo, hi) in [(row.lo, row.core_lo), (row.core_hi, row.hi)] {
            while lo < hi {
                if queued == RUN_BATCH {
                    decide(&runs, &mut masks, &mut heard);
                    queued = 0;
                }
                let len = (hi - lo).min(Run::MAX_LEN);
                runs[queued] = Run::new(row.j, lo, len);
                queued += 1;
                lo += len;
            }
        }
    });
    decide(&runs[..queued], &mut masks[..queued], &mut heard);
    tested
}

/// Calls `f(lo, hi)` for each maximal run of set bits `lo..hi` of `mask`,
/// lowest first.
#[inline]
fn for_each_set_run(mut mask: u64, mut f: impl FnMut(u32, u32)) {
    while mask != 0 {
        let lo = mask.trailing_zeros();
        let hi = lo + (mask >> lo).trailing_ones();
        f(lo, hi);
        mask = mask.checked_shr(hi).map_or(0, |m| m << hi);
    }
}

impl Clone for ErrorMap {
    fn clone(&self) -> Self {
        ErrorMap {
            lattice: self.lattice,
            policy: self.policy,
            sum_x: self.sum_x.clone(),
            sum_y: self.sum_y.clone(),
            count: self.count.clone(),
            errors: self.errors.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.lattice = source.lattice;
        self.policy = source.policy;
        self.sum_x.clone_from(&source.sum_x);
        self.sum_y.clone_from(&source.sum_y);
        self.count.clone_from(&source.count);
        self.errors.clone_from(&source.errors);
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

    /// A transparent wrapper with no guaranteed core: the same links as
    /// the wrapped model, but every point in reach must ask `connected`.
    struct NoCore<M>(M);

    impl<M: Propagation> Propagation for NoCore<M> {
        fn connected(&self, tx: abp_radio::TxId, tx_pos: Point, rx: Point) -> bool {
            self.0.connected(tx, tx_pos, rx)
        }
        fn max_range(&self, tx: abp_radio::TxId, tx_pos: Point) -> f64 {
            self.0.max_range(tx, tx_pos)
        }
        fn nominal_range(&self) -> f64 {
            self.0.nominal_range()
        }
    }

    /// The production sweep — fresh and scratch-reused — against the
    /// point-major oracle, bit for bit, under the ideal disk, every noise
    /// style at 0.4, and a model with no core.
    #[test]
    fn production_sweeps_bit_identical_to_oracle() {
        use abp_radio::NoiseStyle;
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(17);
        let field = BeaconField::random_uniform(60, terrain(), &mut rng);
        let styled = |style| PerBeaconNoise::with_style(15.0, 0.4, 5, style);
        let speckled = styled(NoiseStyle::Speckled);
        let coherent = styled(NoiseStyle::CoherentRadius);
        let lossy = styled(NoiseStyle::Lossy);
        let ideal = IdealDisk::new(15.0);
        let no_core = NoCore(speckled);
        let models: [(&str, &dyn Propagation); 5] = [
            ("ideal", &ideal),
            ("speckled", &speckled),
            ("coherent", &coherent),
            ("lossy", &lossy),
            ("no core", &no_core),
        ];
        let mut scratch = crate::SurveyScratch::new();
        for (name, model) in models {
            for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
                let label = format!("{name} {policy:?}");
                let oracle = ErrorMap::survey_point_major(&lat, &field, model, policy);
                let fresh = ErrorMap::survey(&lat, &field, model, policy);
                assert_bit_identical(&oracle, &fresh, &format!("{label}: fresh"));
                let reused =
                    ErrorMap::survey_indexed_with(&lat, &field, model, policy, &mut scratch);
                assert_bit_identical(&oracle, &reused, &format!("{label}: scratch-reused"));
                scratch.recycle(reused);
            }
        }
    }

    /// An empty field through every form of the sweep matches the oracle.
    #[test]
    fn empty_field_survey_matches_oracle() {
        let lat = lattice(10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let mut scratch = crate::SurveyScratch::new();
        for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
            let oracle = ErrorMap::survey_point_major(&lat, &field, &model, policy);
            let fresh = ErrorMap::survey(&lat, &field, &model, policy);
            assert_bit_identical(&oracle, &fresh, "empty field fresh");
            let reused = ErrorMap::survey_indexed_with(&lat, &field, &model, policy, &mut scratch);
            assert_bit_identical(&oracle, &reused, "empty field scratch-reused");
            scratch.recycle(reused);
        }
    }

    /// The exact map [`ErrorMap::remove_beacon`] must leave after the
    /// beacon was added: the extended field's oracle minus the beacon at
    /// every point that hears it (where the two oracles' counts differ),
    /// with errors derived from the result.
    fn oracle_minus(extended: &ErrorMap, original: &ErrorMap, beacon: &Beacon) -> ErrorMap {
        let (ex, ey, ec, _) = extended.parts();
        let (mut sum_x, mut sum_y, mut count) = (ex.to_vec(), ey.to_vec(), ec.to_vec());
        for flat in 0..extended.len() {
            if count[flat] != original.parts().2[flat] {
                sum_x[flat] -= beacon.pos().x;
                sum_y[flat] -= beacon.pos().y;
                count[flat] -= 1;
            }
        }
        let (lattice, policy) = (*extended.lattice(), extended.policy());
        let errors = (0..extended.len())
            .map(|f| {
                let p = lattice.point(lattice.unflat(f));
                derive_error_at(&lattice, policy, p, sum_x[f], sum_y[f], count[f])
            })
            .collect();
        ErrorMap::from_parts(lattice, policy, sum_x, sum_y, count, errors)
    }

    /// `add_beacon` lands exactly on the point-major oracle of the
    /// extended field; `remove_beacon` then takes exactly the beacon's
    /// own coordinates back out of every point that hears it, restoring
    /// the original field's heard counts, and reports the add's delta.
    #[test]
    fn incremental_updates_match_point_major_oracle() {
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(31);
        for noise in [0.0, 0.3] {
            let mut field = BeaconField::random_uniform(25, terrain(), &mut rng);
            let model = PerBeaconNoise::new(15.0, noise, 8);
            let policy = UnheardPolicy::TerrainCenter;
            let original = ErrorMap::survey_point_major(&lat, &field, &model, policy);
            let mut map = original.clone();
            let id = field.add_beacon(Point::new(41.0, 59.0));
            let beacon = *field.get(id).unwrap();
            let added = map.add_beacon(&beacon, &model);
            let extended = ErrorMap::survey_point_major(&lat, &field, &model, policy);
            assert_bit_identical(&extended, &map, &format!("add (noise {noise})"));
            let removed = map.remove_beacon(&beacon, &model);
            assert_eq!(added, removed, "remove delta (noise {noise})");
            let expected = oracle_minus(&extended, &original, &beacon);
            assert_bit_identical(&expected, &map, &format!("remove (noise {noise})"));
            assert_eq!(map.parts().2, original.parts().2, "heard counts restored");
        }
    }

    /// A beacon whose disk misses the lattice entirely: the update must
    /// report an empty delta and change nothing, either way.
    #[test]
    fn incremental_empty_reach_is_a_noop() {
        let lat = lattice(10.0);
        let mut rng = StdRng::seed_from_u64(37);
        let field = BeaconField::random_uniform(5, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        // A probe far below the terrain: its whole disk misses the
        // lattice rows, so the walk takes the empty-span exit.
        let probe = Beacon::new(abp_field::BeaconId(999), Point::new(5.0, -50.0));
        let mut map = before.clone();
        for delta in [
            map.add_beacon(&probe, &model),
            map.remove_beacon(&probe, &model),
        ] {
            assert!(delta.is_empty());
            assert_eq!(delta.touched, 0);
        }
        assert_bit_identical(&before, &map, "out-of-reach add and remove");
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

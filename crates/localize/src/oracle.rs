//! The connectivity oracle: who can a client hear?

use abp_field::{Beacon, BeaconField};
use abp_geom::Point;
use abp_radio::Propagation;

/// Combines a beacon field with a propagation model to answer
/// "which beacons are connected at point `P`?" — the primitive every
/// localizer builds on.
///
/// By default each query scans every beacon. Attach a
/// [`CandidateTable`] with [`ConnectivityOracle::with_index`] and a
/// query walks only the beacons listed for its cell — same results, in
/// the same beacon-insertion order, so downstream f64 accumulation stays
/// bit-identical.
///
/// # Example
///
/// ```
/// use abp_field::BeaconField;
/// use abp_geom::{Point, Terrain};
/// use abp_localize::ConnectivityOracle;
/// use abp_radio::IdealDisk;
///
/// let field = BeaconField::from_positions(
///     Terrain::square(100.0),
///     [Point::new(0.0, 0.0), Point::new(50.0, 50.0)],
/// );
/// let model = IdealDisk::new(15.0);
/// let oracle = ConnectivityOracle::new(&field, &model);
/// assert_eq!(oracle.heard_count(Point::new(5.0, 5.0)), 1);
/// assert_eq!(oracle.heard_count(Point::new(25.0, 25.0)), 0);
/// ```
#[derive(Clone, Copy)]
pub struct ConnectivityOracle<'a> {
    field: &'a BeaconField,
    model: &'a dyn Propagation,
    index: Option<&'a CandidateTable>,
}

impl std::fmt::Debug for ConnectivityOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnectivityOracle")
            .field("beacons", &self.field.len())
            .field("nominal_range", &self.model.nominal_range())
            .field("indexed", &self.index.is_some())
            .finish()
    }
}

impl<'a> ConnectivityOracle<'a> {
    /// Creates the oracle over a field and model (brute-force queries).
    pub fn new(field: &'a BeaconField, model: &'a dyn Propagation) -> Self {
        ConnectivityOracle {
            field,
            model,
            index: None,
        }
    }

    /// Creates an oracle whose queries go through `index` instead of
    /// scanning every beacon.
    ///
    /// `index` must have been built over exactly the beacons of `field`
    /// (see [`ConnectivityOracle::build_index`]); results and their order
    /// are then identical to the brute-force oracle — the table only
    /// skips beacons that `Propagation::max_range` proves unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `index` lists a different number of beacons than
    /// `field` holds, or covers less than the field's
    /// [`query_reach`](ConnectivityOracle::query_reach) under `model`.
    pub fn with_index(
        field: &'a BeaconField,
        model: &'a dyn Propagation,
        index: &'a CandidateTable,
    ) -> Self {
        assert_eq!(
            index.len,
            field.len(),
            "index must cover exactly the field's beacons"
        );
        let reach = Self::query_reach(field, model);
        assert!(
            index.reach >= reach,
            "index covers reach {} but the oracle needs {reach}",
            index.reach
        );
        ConnectivityOracle {
            field,
            model,
            index: Some(index),
        }
    }

    /// Builds the candidate table matching this field and model, covering
    /// the field-wide maximum reach.
    pub fn build_index(field: &BeaconField, model: &dyn Propagation) -> CandidateTable {
        CandidateTable::build(field, Self::query_reach(field, model))
    }

    /// The field-wide maximum connectivity distance: no beacon can be
    /// heard from farther away. Falls back to the nominal range on an
    /// empty field, and is always finite and positive.
    pub fn query_reach(field: &BeaconField, model: &dyn Propagation) -> f64 {
        let reach = field
            .iter()
            .map(|b| model.max_range(b.tx(), b.pos()))
            .fold(model.nominal_range(), f64::max);
        assert!(
            reach.is_finite() && reach > 0.0,
            "propagation reach must be finite and positive, got {reach}"
        );
        reach
    }

    /// The underlying beacon field.
    #[inline]
    pub fn field(&self) -> &'a BeaconField {
        self.field
    }

    /// The underlying propagation model.
    #[inline]
    pub fn model(&self) -> &'a dyn Propagation {
        self.model
    }

    /// Invokes `f` for every beacon connected at `at`, in beacon
    /// insertion order (on both the brute and the indexed path).
    pub fn for_each_heard<F: FnMut(&Beacon)>(&self, at: Point, mut f: F) {
        let Some(index) = self.index else {
            abp_radio::metrics::LINKS_TESTED.add(self.field.len() as u64);
            for b in self.field {
                if self.model.connected(b.tx(), b.pos(), at) {
                    f(b);
                }
            }
            return;
        };
        // An inline distance check rejects out-of-reach candidates before
        // the (virtual) `connected()` call — sound because the table's
        // reach bounds every beacon's `max_range`, so a farther beacon
        // cannot be connected.
        let candidates = index.candidates(at);
        abp_radio::metrics::LINKS_TESTED.add(candidates.len() as u64);
        let beacons = self.field.beacons();
        let r2 = index.reach * index.reach;
        for &slot in candidates {
            let b = &beacons[slot as usize];
            if b.pos().distance_squared(at) <= r2 && self.model.connected(b.tx(), b.pos(), at) {
                f(b);
            }
        }
    }

    /// The connected beacons at `at`, in beacon insertion order.
    pub fn heard(&self, at: Point) -> Vec<Beacon> {
        let mut out = Vec::new();
        self.for_each_heard(at, |b| out.push(*b));
        out
    }

    /// Number of beacons connected at `at`.
    pub fn heard_count(&self, at: Point) -> usize {
        let mut n = 0;
        self.for_each_heard(at, |_| n += 1);
        n
    }

    /// The *connectivity signature* at `at`: the sorted ids of connected
    /// beacons. Two points with equal signatures receive identical
    /// centroid estimates — they lie in the same localization region
    /// (Figure 1).
    pub fn signature(&self, at: Point) -> Vec<abp_field::BeaconId> {
        let mut ids: Vec<_> = Vec::new();
        self.for_each_heard(at, |b| ids.push(b.id()));
        ids.sort();
        ids
    }
}

/// The spatial index of an indexed [`ConnectivityOracle`], built by
/// [`ConnectivityOracle::build_index`].
///
/// The beacons' bounding box is cut into square cells at least the
/// query reach wide, and each cell lists the slots of every beacon in
/// its 3×3 block of cells. A beacon within reach of a point therefore
/// sits in the list of the point's cell, clamped to the grid for points
/// outside the box. The lists are filled in slot order, so each is
/// ascending: a query visits candidates in the brute scan's order.
#[derive(Debug, Clone)]
pub struct CandidateTable {
    /// The query radius the lists cover.
    reach: f64,
    /// Number of beacons listed.
    len: usize,
    /// Lower-left corner of the beacons' bounding box.
    origin: Point,
    /// Cell side: the reach, doubled while the grid would exceed
    /// `O(len)` cells.
    cell: f64,
    nx: usize,
    ny: usize,
    /// `slots[starts[c]..starts[c + 1]]` is cell `c`'s list (row-major).
    starts: Vec<u32>,
    slots: Vec<u32>,
}

impl CandidateTable {
    fn build(field: &BeaconField, reach: f64) -> Self {
        let corner = |pick: fn(f64, f64) -> f64| {
            field
                .positions()
                .reduce(|a, b| Point::new(pick(a.x, b.x), pick(a.y, b.y)))
                .unwrap_or(Point::ORIGIN)
        };
        let (origin, far) = (corner(f64::min), corner(f64::max));
        // Keep the cell count O(len): a reach tiny against the field's
        // extent would otherwise allocate an unbounded grid.
        let cap = (field.len().max(16) * 4) as f64;
        let mut cell = reach;
        let (nx, ny) = loop {
            let nx = ((far.x - origin.x) / cell).floor() + 1.0;
            let ny = ((far.y - origin.y) / cell).floor() + 1.0;
            if nx * ny <= cap {
                break (nx as usize, ny as usize);
            }
            cell *= 2.0;
        };
        let mut table = CandidateTable {
            reach,
            len: field.len(),
            origin,
            cell,
            nx,
            ny,
            starts: Vec::new(),
            slots: Vec::new(),
        };
        // Two passes over the beacons in slot order: count each cell's
        // list, then fill it.
        let ncells = nx * ny;
        let mut starts = vec![0u32; ncells + 1];
        for p in field.positions() {
            table.for_each_block_cell(p, |c| starts[c + 1] += 1);
        }
        for c in 0..ncells {
            starts[c + 1] += starts[c];
        }
        let mut next = starts[..ncells].to_vec();
        let mut slots = vec![0; starts[ncells] as usize];
        for (slot, p) in field.positions().enumerate() {
            table.for_each_block_cell(p, |c| {
                slots[next[c] as usize] = slot as u32;
                next[c] += 1;
            });
        }
        table.starts = starts;
        table.slots = slots;
        table
    }

    /// The grid cell of `p` as `(column, row)`, clamped to the grid.
    fn cell_of(&self, p: Point) -> (usize, usize) {
        let axis = |v: f64, lo: f64, n: usize| {
            ((v - lo) / self.cell).floor().clamp(0.0, (n - 1) as f64) as usize
        };
        (
            axis(p.x, self.origin.x, self.nx),
            axis(p.y, self.origin.y, self.ny),
        )
    }

    /// Calls `f` with every cell of the 3×3 block around `p`'s cell.
    fn for_each_block_cell(&self, p: Point, mut f: impl FnMut(usize)) {
        let (cx, cy) = self.cell_of(p);
        for y in cy.saturating_sub(1)..=(cy + 1).min(self.ny - 1) {
            for x in cx.saturating_sub(1)..=(cx + 1).min(self.nx - 1) {
                f(y * self.nx + x);
            }
        }
    }

    /// The slots of every beacon that may be heard at `at`, ascending: a
    /// superset of those within the table's reach of `at`.
    pub fn candidates(&self, at: Point) -> &[u32] {
        let (x, y) = self.cell_of(at);
        let c = y * self.nx + x;
        &self.slots[self.starts[c] as usize..self.starts[c + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_geom::Terrain;
    use abp_radio::{IdealDisk, PerBeaconNoise};

    fn cross_field() -> BeaconField {
        BeaconField::from_positions(
            Terrain::square(100.0),
            [
                Point::new(50.0, 50.0),
                Point::new(50.0, 70.0),
                Point::new(50.0, 30.0),
                Point::new(30.0, 50.0),
                Point::new(70.0, 50.0),
            ],
        )
    }

    #[test]
    fn heard_counts_by_position() {
        let field = cross_field();
        let model = IdealDisk::new(15.0);
        let oracle = ConnectivityOracle::new(&field, &model);
        // Center hears only the center beacon (others are 20 m away).
        assert_eq!(oracle.heard_count(Point::new(50.0, 50.0)), 1);
        // Midway between center and north beacon hears both.
        assert_eq!(oracle.heard_count(Point::new(50.0, 60.0)), 2);
        // Far corner hears nothing.
        assert_eq!(oracle.heard_count(Point::new(0.0, 0.0)), 0);
    }

    #[test]
    fn heard_returns_correct_beacons() {
        let field = cross_field();
        let model = IdealDisk::new(15.0);
        let oracle = ConnectivityOracle::new(&field, &model);
        let heard = oracle.heard(Point::new(50.0, 62.0));
        let positions: Vec<_> = heard.iter().map(|b| b.pos()).collect();
        assert_eq!(
            positions,
            vec![Point::new(50.0, 50.0), Point::new(50.0, 70.0)]
        );
    }

    #[test]
    fn signature_is_sorted_and_stable() {
        let field = cross_field();
        let model = IdealDisk::new(25.0);
        let oracle = ConnectivityOracle::new(&field, &model);
        let sig = oracle.signature(Point::new(50.0, 50.0));
        assert_eq!(sig.len(), 5);
        assert!(sig.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sig, oracle.signature(Point::new(50.0, 50.0)));
    }

    #[test]
    fn oracle_respects_noisy_model() {
        let field = cross_field();
        let noisy = PerBeaconNoise::new(15.0, 0.5, 7);
        let oracle = ConnectivityOracle::new(&field, &noisy);
        // Deterministic: repeated queries agree.
        let p = Point::new(50.0, 63.0);
        assert_eq!(oracle.heard(p), oracle.heard(p));
    }

    #[test]
    fn indexed_oracle_matches_brute_in_order() {
        use abp_field::generate;
        let field = generate::uniform_grid(Terrain::square(100.0), 7);
        for noise in [0.0, 0.4] {
            let model = PerBeaconNoise::new(15.0, noise, 11);
            let brute = ConnectivityOracle::new(&field, &model);
            let index = ConnectivityOracle::build_index(&field, &model);
            let indexed = ConnectivityOracle::with_index(&field, &model, &index);
            for j in 0..11 {
                for i in 0..11 {
                    let at = Point::new(i as f64 * 10.0, j as f64 * 10.0);
                    // Identical heard sets, in identical (insertion) order.
                    assert_eq!(brute.heard(at), indexed.heard(at), "at {at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index covers reach")]
    fn with_index_rejects_an_index_short_of_the_reach() {
        let field = cross_field();
        let index = ConnectivityOracle::build_index(&field, &IdealDisk::new(10.0));
        let wider = IdealDisk::new(20.0);
        let _ = ConnectivityOracle::with_index(&field, &wider, &index);
    }

    #[test]
    fn empty_field_hears_nothing() {
        let field = BeaconField::new(Terrain::square(10.0));
        let model = IdealDisk::new(5.0);
        let oracle = ConnectivityOracle::new(&field, &model);
        assert_eq!(oracle.heard_count(Point::new(5.0, 5.0)), 0);
        assert!(oracle.signature(Point::new(5.0, 5.0)).is_empty());
    }
}

//! Reusable survey buffers for allocation-free steady-state sweeps.

use crate::errormap::ErrorMap;

/// Every buffer a full survey needs, owned once and recycled across
/// trials: the four error-map accumulator grids and the quantile
/// selection workspace.
///
/// The Monte-Carlo engine keeps one `SurveyScratch` per worker thread
/// (see `abp-sim`); [`ErrorMap::survey_indexed_with`] drains the grid
/// buffers into the map it returns, and [`SurveyScratch::recycle`] takes
/// them back when the caller is done reading the map. Once the scratch
/// has passed through one trial at the sweep's largest lattice, every
/// later trial runs without touching the allocator.
///
/// # Example
///
/// ```
/// use abp_field::BeaconField;
/// use abp_geom::{Lattice, Point, Terrain};
/// use abp_localize::UnheardPolicy;
/// use abp_radio::IdealDisk;
/// use abp_survey::{ErrorMap, SurveyScratch};
///
/// let terrain = Terrain::square(100.0);
/// let lattice = Lattice::new(terrain, 5.0);
/// let field = BeaconField::from_positions(terrain, [Point::new(50.0, 50.0)]);
/// let model = IdealDisk::new(15.0);
///
/// let mut scratch = SurveyScratch::new();
/// let map = ErrorMap::survey_indexed_with(
///     &lattice, &field, &model, UnheardPolicy::TerrainCenter, &mut scratch);
/// let median = scratch.median_error(&map);
/// assert_eq!(
///     median.to_bits(),
///     ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter)
///         .median_error()
///         .to_bits(),
/// );
/// scratch.recycle(map); // hand the grid buffers back for the next trial
/// ```
#[derive(Debug, Default)]
pub struct SurveyScratch {
    sum_x: Vec<f64>,
    sum_y: Vec<f64>,
    count: Vec<u32>,
    errors: Vec<f64>,
    /// Selection workspace for [`SurveyScratch::median_error`].
    quantiles: Vec<f64>,
}

impl SurveyScratch {
    /// Creates an empty scratch; buffers grow on first use and are kept
    /// thereafter.
    pub fn new() -> Self {
        SurveyScratch::default()
    }

    /// Takes the four grids out of the scratch, zeroed and sized for `n`
    /// lattice points, as `(sum_x, sum_y, count, errors)`.
    pub(crate) fn take_grids(&mut self, n: usize) -> (Vec<f64>, Vec<f64>, Vec<u32>, Vec<f64>) {
        fn zeroed<T: Copy + Default>(grid: &mut Vec<T>, n: usize) -> Vec<T> {
            let mut grid = std::mem::take(grid);
            grid.clear();
            grid.resize(n, T::default());
            grid
        }
        (
            zeroed(&mut self.sum_x, n),
            zeroed(&mut self.sum_y, n),
            zeroed(&mut self.count, n),
            zeroed(&mut self.errors, n),
        )
    }

    /// Takes an [`ErrorMap`]'s grid buffers back into the scratch so the
    /// next [`ErrorMap::survey_indexed_with`] call reuses them instead of
    /// allocating. Call this once the map's statistics have been read.
    ///
    /// Recycling a map that was *not* produced from this scratch is fine
    /// — the buffers are interchangeable; only capacity matters.
    pub fn recycle(&mut self, map: ErrorMap) {
        let (sum_x, sum_y, count, errors) = map.into_parts();
        self.sum_x = sum_x;
        self.sum_y = sum_y;
        self.count = count;
        self.errors = errors;
    }

    /// [`ErrorMap::median_error`] through this scratch's reused selection
    /// workspace — bit-identical result, no per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if every point of the map is excluded.
    pub fn median_error(&mut self, map: &ErrorMap) -> f64 {
        map.median_error_with(&mut self.quantiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_field::BeaconField;
    use abp_geom::{Lattice, Terrain};
    use abp_localize::UnheardPolicy;
    use abp_radio::{IdealDisk, PerBeaconNoise};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn field(n: usize, seed: u64) -> BeaconField {
        BeaconField::random_uniform(n, Terrain::square(100.0), &mut StdRng::seed_from_u64(seed))
    }

    /// Bitwise map equality (NaN-safe — derived `PartialEq` rejects the
    /// NaN-encoded excluded points even when maps are bit-identical).
    fn assert_bit_identical(a: &ErrorMap, b: &ErrorMap, label: &str) {
        let (ax, ay, ac, ae) = a.parts();
        let (bx, by, bc, be) = b.parts();
        assert_eq!(a.lattice(), b.lattice(), "{label}: lattice");
        assert_eq!(a.policy(), b.policy(), "{label}: policy");
        assert_eq!(ac, bc, "{label}: heard counts");
        for flat in 0..ax.len() {
            assert_eq!(
                ax[flat].to_bits(),
                bx[flat].to_bits(),
                "{label}: sum_x[{flat}]"
            );
            assert_eq!(
                ay[flat].to_bits(),
                by[flat].to_bits(),
                "{label}: sum_y[{flat}]"
            );
            assert_eq!(
                ae[flat].to_bits(),
                be[flat].to_bits(),
                "{label}: error[{flat}]"
            );
        }
    }

    /// The scratch path must be bit-identical to the point-major oracle,
    /// across repeated reuse over different fields and noise levels, on
    /// the ideal disk (all core) and noisy models (core plus annulus).
    #[test]
    fn scratch_reuse_is_bit_identical_across_trials() {
        let lat = Lattice::new(Terrain::square(100.0), 4.0);
        let mut scratch = SurveyScratch::new();
        for (trial, &(n, seed, noise)) in [
            (45usize, 3u64, 0.0f64),
            (20, 4, 0.4),
            (60, 5, 0.0),
            (10, 6, 0.2),
        ]
        .iter()
        .enumerate()
        {
            let f = field(n, seed);
            let model = PerBeaconNoise::new(15.0, noise, 7);
            for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
                let oracle = ErrorMap::survey_point_major(&lat, &f, &model, policy);
                let reused = ErrorMap::survey_indexed_with(&lat, &f, &model, policy, &mut scratch);
                assert_bit_identical(&oracle, &reused, &format!("trial {trial} {policy:?}"));
                assert_eq!(
                    scratch.median_error(&reused).to_bits(),
                    oracle.median_error().to_bits(),
                    "trial {trial} median"
                );
                scratch.recycle(reused);
            }
        }
    }

    /// Growing lattices through one scratch: buffer resizing must not
    /// leak stale state between trials.
    #[test]
    fn scratch_survives_lattice_growth_and_shrink() {
        let mut scratch = SurveyScratch::new();
        let model = IdealDisk::new(15.0);
        for step in [10.0, 2.0, 5.0] {
            let lat = Lattice::new(Terrain::square(100.0), step);
            let f = field(30, 11);
            let policy = UnheardPolicy::TerrainCenter;
            let oracle = ErrorMap::survey_point_major(&lat, &f, &model, policy);
            let reused = ErrorMap::survey_indexed_with(&lat, &f, &model, policy, &mut scratch);
            assert_bit_identical(&oracle, &reused, &format!("step {step}"));
            scratch.recycle(reused);
        }
    }

    /// An empty field through the scratch path matches the oracle.
    #[test]
    fn scratch_handles_empty_field() {
        let lat = Lattice::new(Terrain::square(100.0), 10.0);
        let f = BeaconField::new(Terrain::square(100.0));
        let model = IdealDisk::new(15.0);
        let mut scratch = SurveyScratch::new();
        let policy = UnheardPolicy::TerrainCenter;
        let reused = ErrorMap::survey_indexed_with(&lat, &f, &model, policy, &mut scratch);
        let oracle = ErrorMap::survey_point_major(&lat, &f, &model, policy);
        assert_bit_identical(&oracle, &reused, "empty field");
    }
}

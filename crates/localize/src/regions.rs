//! Localization regions (Figure 1).
//!
//! "By increasing the density of the beacons that populate the grid, the
//! granularity of the localization regions becomes finer, and hence the
//! accuracy of the location estimate improves." A *localization region* is
//! a maximal set of points sharing the same connectivity signature — all
//! of them receive the same centroid estimate. This module counts and maps
//! regions over a lattice, quantifying Figure 1's granularity argument.

use abp_field::BeaconField;
use abp_geom::{splitmix64, Lattice};
use abp_radio::Propagation;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The region structure of a field over a lattice.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionMap {
    /// Per lattice point (row-major): the region id its signature maps to.
    /// Region ids are dense, `0..region_count`, in order of first
    /// appearance along the row-major sweep. Points hearing zero beacons
    /// form one shared region.
    pub region_of: Vec<u32>,
    /// Number of distinct regions.
    pub region_count: usize,
    /// Number of lattice points hearing no beacon at all.
    pub unheard_points: usize,
}

impl RegionMap {
    /// Mean number of lattice points per region — a granularity measure:
    /// smaller regions mean finer localization.
    pub fn mean_region_size(&self) -> f64 {
        if self.region_count == 0 {
            0.0
        } else {
            self.region_of.len() as f64 / self.region_count as f64
        }
    }
}

/// Computes the [`RegionMap`] of `field` under `model` over `lattice`.
///
/// Signatures are hashed incrementally (order-independent XOR of per-id
/// hashes) so the sweep runs beacon-major like the survey, not
/// point-major.
///
/// # Example
///
/// ```
/// use abp_field::generate::uniform_grid;
/// use abp_geom::{Lattice, Terrain};
/// use abp_localize::regions::region_map;
/// use abp_radio::IdealDisk;
///
/// let terrain = Terrain::square(100.0);
/// let lattice = Lattice::new(terrain, 2.0);
/// let model = IdealDisk::new(60.0);
/// let coarse = region_map(&lattice, &uniform_grid(terrain, 2), &model);
/// let fine = region_map(&lattice, &uniform_grid(terrain, 3), &model);
/// // Figure 1: more beacons, more and smaller localization regions.
/// assert!(fine.region_count > coarse.region_count);
/// assert!(fine.mean_region_size() < coarse.mean_region_size());
/// ```
pub fn region_map(lattice: &Lattice, field: &BeaconField, model: &dyn Propagation) -> RegionMap {
    // Order-independent signature accumulator per lattice point.
    let mut sig = vec![(0u64, 0u32); lattice.len()]; // (xor of hashes, count)
    for b in field {
        let reach = model.max_range(b.tx(), b.pos());
        lattice.for_each_in_disk(abp_geom::Disk::new(b.pos(), reach), |ix, p, _| {
            if model.connected(b.tx(), b.pos(), p) {
                let slot = &mut sig[lattice.flat(ix)];
                slot.0 ^= splitmix64(b.id().0 ^ 0xB1A5_0000);
                slot.1 += 1;
            }
        });
    }
    let mut ids: HashMap<(u64, u32), u32> = HashMap::new();
    let mut region_of = Vec::with_capacity(lattice.len());
    let mut unheard_points = 0usize;
    for s in &sig {
        if s.1 == 0 {
            unheard_points += 1;
        }
        let next = ids.len() as u32;
        let id = *ids.entry(*s).or_insert(next);
        region_of.push(id);
    }
    RegionMap {
        region_of,
        region_count: ids.len(),
        unheard_points,
    }
}

/// Convenience: just the number of distinct localization regions.
pub fn count_regions(lattice: &Lattice, field: &BeaconField, model: &dyn Propagation) -> usize {
    region_map(lattice, field, model).region_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_field::generate::uniform_grid;
    use abp_geom::{Point, Terrain};
    use abp_radio::IdealDisk;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    #[test]
    fn empty_field_one_region() {
        let lattice = Lattice::new(terrain(), 10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let map = region_map(&lattice, &field, &model);
        assert_eq!(map.region_count, 1);
        assert_eq!(map.unheard_points, lattice.len());
        assert!(map.region_of.iter().all(|&r| r == 0));
    }

    #[test]
    fn single_beacon_two_regions() {
        let lattice = Lattice::new(terrain(), 5.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(50.0, 50.0)]);
        let model = IdealDisk::new(15.0);
        let map = region_map(&lattice, &field, &model);
        // Inside the disk vs outside: exactly two regions.
        assert_eq!(map.region_count, 2);
        assert!(map.unheard_points > 0);
    }

    #[test]
    fn figure1_finer_grid_more_regions() {
        let lattice = Lattice::new(terrain(), 2.0);
        let model = IdealDisk::new(60.0);
        let two = region_map(&lattice, &uniform_grid(terrain(), 2), &model);
        let three = region_map(&lattice, &uniform_grid(terrain(), 3), &model);
        assert!(
            three.region_count > two.region_count,
            "3x3 ({}) must refine 2x2 ({})",
            three.region_count,
            two.region_count
        );
        assert!(three.mean_region_size() < two.mean_region_size());
    }

    #[test]
    fn region_map_consistent_with_oracle_signatures() {
        let lattice = Lattice::new(terrain(), 10.0);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let field = BeaconField::random_uniform(30, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let map = region_map(&lattice, &field, &model);
        let oracle = crate::oracle::ConnectivityOracle::new(&field, &model);
        // Same region id <=> same signature, for all point pairs.
        let sigs: Vec<_> = lattice.points().map(|p| oracle.signature(p)).collect();
        for i in 0..sigs.len() {
            for j in (i + 1)..sigs.len() {
                assert_eq!(
                    map.region_of[i] == map.region_of[j],
                    sigs[i] == sigs[j],
                    "points {i} and {j} disagree"
                );
            }
        }
    }

    #[test]
    fn region_ids_dense_from_zero() {
        let lattice = Lattice::new(terrain(), 10.0);
        let field = BeaconField::from_positions(
            terrain(),
            [Point::new(20.0, 20.0), Point::new(80.0, 80.0)],
        );
        let model = IdealDisk::new(15.0);
        let map = region_map(&lattice, &field, &model);
        let max = *map.region_of.iter().max().unwrap();
        assert_eq!(max as usize + 1, map.region_count);
    }
}

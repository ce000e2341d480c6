//! Property-based tests for beacon fields and generators.

use abp_field::generate::{clustered, grid_with_spacing, perturbed_grid, uniform_grid};
use abp_field::BeaconField;
use abp_geom::{Point, Terrain};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

proptest! {
    #[test]
    fn random_uniform_invariants(n in 0usize..300, side in 1.0..500.0f64, seed in any::<u64>()) {
        let terrain = Terrain::square(side);
        let field = BeaconField::random_uniform(n, terrain, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(field.len(), n);
        // All inside terrain, all ids unique.
        let ids: HashSet<_> = field.iter().map(|b| b.id()).collect();
        prop_assert_eq!(ids.len(), n);
        for b in &field {
            prop_assert!(terrain.contains(b.pos()));
        }
        // Density round-trips.
        prop_assert!((field.density() * terrain.area() - n as f64).abs() < 1e-9);
    }

    #[test]
    fn uniform_grid_invariants(per_side in 1usize..12, side in 10.0..500.0f64) {
        let terrain = Terrain::square(side);
        let field = uniform_grid(terrain, per_side);
        prop_assert_eq!(field.len(), per_side * per_side);
        for b in &field {
            prop_assert!(terrain.contains(b.pos()));
        }
    }

    #[test]
    fn grid_with_spacing_invariants(side in 20.0..300.0f64, frac in 0.05..1.0f64) {
        let spacing = side * frac;
        let terrain = Terrain::square(side);
        let field = grid_with_spacing(terrain, spacing);
        let per_side = (side / spacing).floor() as usize + 1;
        prop_assert_eq!(field.len(), per_side * per_side);
        for b in &field {
            prop_assert!(terrain.contains(b.pos()));
        }
    }

    #[test]
    fn perturbed_grid_bounded_displacement(
        per_side in 1usize..8, offset in 0.0..20.0f64, seed in any::<u64>()
    ) {
        let terrain = Terrain::square(100.0);
        let nominal = uniform_grid(terrain, per_side);
        let mut rng = StdRng::seed_from_u64(seed);
        let field = perturbed_grid(terrain, per_side, offset, &mut rng);
        prop_assert_eq!(field.len(), nominal.len());
        for (n, p) in nominal.iter().zip(field.iter()) {
            // Clamping can only reduce the displacement.
            prop_assert!(n.pos().distance(p.pos()) <= offset + 1e-9);
            prop_assert!(terrain.contains(p.pos()));
        }
    }

    #[test]
    fn clustered_invariants(
        clusters in 0usize..6, per in 0usize..20, sigma in 0.0..30.0f64, seed in any::<u64>()
    ) {
        let terrain = Terrain::square(100.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let field = clustered(terrain, clusters, per, sigma, &mut rng);
        prop_assert_eq!(field.len(), clusters * per);
        for b in &field {
            prop_assert!(terrain.contains(b.pos()));
        }
    }

    #[test]
    fn nearest_distance_is_minimum(n in 1usize..100, seed in any::<u64>(), qx in 0.0..100.0f64, qy in 0.0..100.0f64) {
        let terrain = Terrain::square(100.0);
        let field = BeaconField::random_uniform(n, terrain, &mut StdRng::seed_from_u64(seed));
        let q = Point::new(qx, qy);
        let nearest = field.nearest_distance(q).unwrap();
        for b in &field {
            prop_assert!(b.pos().distance(q) >= nearest - 1e-9);
        }
    }

    #[test]
    fn add_then_remove_restores_len(n in 0usize..50, seed in any::<u64>(), px in 0.0..100.0f64, py in 0.0..100.0f64) {
        let terrain = Terrain::square(100.0);
        let mut field = BeaconField::random_uniform(n, terrain, &mut StdRng::seed_from_u64(seed));
        let id = field.add_beacon(Point::new(px, py));
        prop_assert_eq!(field.len(), n + 1);
        let removed = field.remove(id).unwrap();
        prop_assert_eq!(removed.pos(), Point::new(px, py));
        prop_assert_eq!(field.len(), n);
    }
}

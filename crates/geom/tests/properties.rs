//! Property-based tests for the geometry substrate.

use abp_geom::{
    centroid, circle_circle_intersections, lens_area, Circle, DeterministicField, Disk, Lattice,
    Point, Polygon, Rect, Terrain, Vec2,
};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1e4..1e4
}

fn point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn distance_symmetric(a in point(), b in point()) {
        prop_assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_nonnegative_and_identity(a in point(), b in point()) {
        prop_assert!(a.distance(b) >= 0.0);
        prop_assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn triangle_inequality(a in point(), b in point(), c in point()) {
        // Allow a tiny relative slack for floating-point rounding.
        let lhs = a.distance(c);
        let rhs = a.distance(b) + b.distance(c);
        prop_assert!(lhs <= rhs + 1e-9 * (1.0 + rhs));
    }

    #[test]
    fn midpoint_equidistant(a in point(), b in point()) {
        let m = a.midpoint(b);
        prop_assert!((a.distance(m) - b.distance(m)).abs() <= 1e-9 * (1.0 + a.distance(b)));
    }

    #[test]
    fn vector_addition_roundtrip(a in point(), b in point()) {
        let v = b - a;
        let back = a + v;
        prop_assert!(back.distance(b) < 1e-9);
    }

    #[test]
    fn centroid_inside_bounding_box(pts in prop::collection::vec(point(), 1..50)) {
        let c = centroid(pts.iter().copied()).unwrap();
        let min_x = pts.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let max_x = pts.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        let min_y = pts.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
        let max_y = pts.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max);
        let eps = 1e-9 * (1.0 + max_x.abs() + max_y.abs());
        prop_assert!(c.x >= min_x - eps && c.x <= max_x + eps);
        prop_assert!(c.y >= min_y - eps && c.y <= max_y + eps);
    }

    #[test]
    fn rect_contains_center(a in point(), b in point()) {
        let r = Rect::new(a, b);
        prop_assert!(r.contains(r.center()));
        prop_assert!(r.area() >= 0.0);
    }

    #[test]
    fn rect_clamp_is_inside(a in point(), b in point(), p in point()) {
        let r = Rect::new(a, b);
        prop_assert!(r.contains(r.clamp_point(p)));
    }

    #[test]
    fn rect_intersection_contained_in_both(
        a in point(), b in point(), c in point(), d in point()
    ) {
        let r1 = Rect::new(a, b);
        let r2 = Rect::new(c, d);
        if let Some(i) = r1.intersection(&r2) {
            prop_assert!(r1.contains(i.center()));
            prop_assert!(r2.contains(i.center()));
            prop_assert!(i.area() <= r1.area() + 1e-9);
            prop_assert!(i.area() <= r2.area() + 1e-9);
        }
    }

    #[test]
    fn disk_boundary_membership(c in point(), r in 0.0..500.0f64, theta in 0.0..std::f64::consts::TAU) {
        let d = Disk::new(c, r);
        // A point slightly inside is contained; slightly outside is not.
        let dir = Vec2::new(theta.cos(), theta.sin());
        prop_assert!(d.contains(c + dir * (r * 0.999)));
        prop_assert!(!d.contains(c + dir * (r * 1.001 + 1e-6)));
    }

    #[test]
    fn circle_intersections_lie_on_both(
        c1 in point(), r1 in 0.1..300.0f64, c2 in point(), r2 in 0.1..300.0f64
    ) {
        let a = Circle::new(c1, r1);
        let b = Circle::new(c2, r2);
        if let Some((p, q)) = circle_circle_intersections(&a, &b) {
            let tol = 1e-6 * (1.0 + r1 + r2 + c1.distance(c2));
            for pt in [p, q] {
                prop_assert!((pt.distance(c1) - r1).abs() < tol);
                prop_assert!((pt.distance(c2) - r2).abs() < tol);
            }
        }
    }

    #[test]
    fn lens_area_bounded_by_smaller_disk(
        c1 in point(), r1 in 0.0..300.0f64, c2 in point(), r2 in 0.0..300.0f64
    ) {
        let a = Disk::new(c1, r1);
        let b = Disk::new(c2, r2);
        let area = lens_area(&a, &b);
        let min_area = a.area().min(b.area());
        prop_assert!(area >= -1e-9);
        prop_assert!(area <= min_area + 1e-6 * (1.0 + min_area));
        // Symmetry.
        prop_assert!((area - lens_area(&b, &a)).abs() < 1e-9 * (1.0 + area));
    }

    #[test]
    fn lattice_flat_unflat_roundtrip(side in 1.0..200.0f64, divisor in 1u32..40) {
        let step = side / divisor as f64;
        let lat = Lattice::new(Terrain::square(side), step);
        for off in [0, lat.len() / 3, lat.len() - 1] {
            prop_assert_eq!(lat.flat(lat.unflat(off)), off);
        }
    }

    #[test]
    fn lattice_points_inside_terrain(side in 1.0..200.0f64, divisor in 1u32..20) {
        let step = side / divisor as f64;
        let terrain = Terrain::square(side);
        let lat = Lattice::new(terrain, step);
        // Lattice coordinates may exceed the side by float rounding only.
        for p in lat.points() {
            prop_assert!(p.x >= 0.0 && p.y >= 0.0);
            prop_assert!(p.x <= side + 1e-9 && p.y <= side + 1e-9);
        }
    }

    #[test]
    fn lattice_nearest_is_truly_nearest(px in 0.0..100.0f64, py in 0.0..100.0f64) {
        let lat = Lattice::new(Terrain::square(100.0), 1.0);
        let p = Point::new(px, py);
        let near = lat.point(lat.nearest(p));
        // No lattice point can be more than half a step closer.
        prop_assert!(near.distance(p) <= (2.0f64).sqrt() / 2.0 + 1e-9);
    }

    #[test]
    fn polygon_regular_area_below_circle(
        c in point(), r in 0.1..100.0f64, n in 8usize..128
    ) {
        let poly = Polygon::regular(c, r, n, 0.0);
        let circle_area = std::f64::consts::PI * r * r;
        prop_assert!(poly.area() <= circle_area + 1e-9);
        // Inscribed polygon area approaches the circle from below.
        prop_assert!(poly.area() >= circle_area * 0.6);
    }

    #[test]
    fn polygon_clip_never_grows(
        r in 1.0..50.0f64, cx in -20.0..20.0f64, cy in -20.0..20.0f64, cr in 0.5..50.0f64
    ) {
        let poly = Polygon::regular(Point::ORIGIN, r, 64, 0.0);
        let clipped = poly.clip_disk(Point::new(cx, cy), cr, 64);
        prop_assert!(clipped.area() <= poly.area() + 1e-9);
    }

    #[test]
    fn polygon_centroid_inside_convex(r in 0.5..50.0f64, n in 3usize..64, phase in 0.0..6.2f64) {
        let poly = Polygon::regular(Point::new(7.0, -3.0), r, n, phase);
        if let Some(c) = poly.centroid() {
            prop_assert!(poly.contains(c));
        }
    }

    #[test]
    fn hash_field_deterministic_and_bounded(seed in any::<u64>(), key in any::<u64>(), p in point()) {
        let f = DeterministicField::new(seed);
        prop_assert_eq!(f.hash(key, p), DeterministicField::new(seed).hash(key, p));
        let u = f.unit(key, p);
        prop_assert!((0.0..1.0).contains(&u));
        let s = f.symmetric(key, p);
        prop_assert!((-1.0..1.0).contains(&s));
        let k = f.unit_keyed(key);
        prop_assert!((0.0..1.0).contains(&k));
    }

    #[test]
    fn terrain_point_at_always_inside(side in 0.1..1e4f64, u in 0.0..=1.0f64, v in 0.0..=1.0f64) {
        let t = Terrain::square(side);
        prop_assert!(t.contains(t.point_at(u, v)));
    }
}

proptest! {
    #[test]
    fn segment_intersection_is_symmetric(
        a in point(), b in point(), c in point(), d in point()
    ) {
        prop_assume!(a.distance(b) > 1e-9 && c.distance(d) > 1e-9);
        let s1 = abp_geom::Segment::new(a, b);
        let s2 = abp_geom::Segment::new(c, d);
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
    }

    #[test]
    fn segment_self_and_shared_endpoint_intersect(a in point(), b in point(), c in point()) {
        prop_assume!(a.distance(b) > 1e-9 && b.distance(c) > 1e-9);
        let s1 = abp_geom::Segment::new(a, b);
        prop_assert!(s1.intersects(&s1));
        let s2 = abp_geom::Segment::new(b, c);
        prop_assert!(s1.intersects(&s2), "shared endpoint must intersect");
    }

    #[test]
    fn segment_distance_to_point_bounds(a in point(), b in point(), p in point()) {
        prop_assume!(a.distance(b) > 1e-9);
        let s = abp_geom::Segment::new(a, b);
        let d = s.distance_to_point(p);
        prop_assert!(d >= 0.0);
        // Never farther than either endpoint.
        prop_assert!(d <= a.distance(p) + 1e-9);
        prop_assert!(d <= b.distance(p) + 1e-9);
        // Points on the segment have distance ~0.
        prop_assert!(s.distance_to_point(s.midpoint()) < 1e-9);
    }

    #[test]
    fn segment_at_interpolates(a in point(), b in point(), t in 0.0..=1.0f64) {
        prop_assume!(a.distance(b) > 1e-9);
        let s = abp_geom::Segment::new(a, b);
        let p = s.at(t);
        // The interpolant lies on the segment.
        prop_assert!(s.distance_to_point(p) < 1e-6 * (1.0 + s.length()));
    }
}

/// A disk-enumeration case: a lattice with a step from 0.25 to 5 m, a
/// centre on a lattice point, off the lattice or outside the terrain, a
/// radius of 0, the exact distance to some lattice point, or a random
/// value, and a core radius that is none, the radius, one ulp below it,
/// the exact distance to some lattice point, or a random fraction of the
/// radius.
#[derive(Debug, Clone, Copy)]
struct DiskCase {
    lattice: Lattice,
    center: Point,
    radius: f64,
    core: Option<f64>,
}

fn disk_case() -> impl Strategy<Value = DiskCase> {
    (
        (5.0..40.0f64, 0.25..5.0f64),
        (0u8..3, 0.0..1.0f64, 0.0..1.0f64),
        (0u8..3, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        (0u8..5, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
    )
        .prop_map(
            |((side, step), (at, fx, fy), (rk, r0, r1, r2), (ck, c0, c1, c2))| {
                let lattice = Lattice::new(Terrain::square(side), step);
                let n = lattice.per_side() as f64;
                let on_lattice = |u: f64, v: f64| {
                    let k = |w: f64| ((w * n) as u32).min(lattice.per_side() - 1);
                    lattice.point(abp_geom::LatticeIndex::new(k(u), k(v)))
                };
                let center = match at {
                    0 => on_lattice(fx, fy),
                    1 => Point::new(fx * side, fy * side),
                    // Left of or right of the terrain, at any height around it.
                    _ => {
                        let x = if fx < 0.5 {
                            -1.0 - 40.0 * fx
                        } else {
                            side + 1.0 + 40.0 * (fx - 0.5)
                        };
                        Point::new(x, fy * (side + 60.0) - 30.0)
                    }
                };
                let exact = |u: f64, v: f64| center.distance(on_lattice(u, v));
                let radius = match rk {
                    0 => 0.0,
                    1 => exact(r0, r1),
                    _ => 30.0 * r2,
                };
                let core = match ck {
                    0 => None,
                    1 => Some(radius),
                    2 => Some(exact(c0, c1)),
                    3 => Some(f64::from_bits(radius.to_bits().saturating_sub(1))),
                    _ => Some(radius * c2),
                };
                DiskCase {
                    lattice,
                    center,
                    radius,
                    core,
                }
            },
        )
}

/// Every lattice point with `d2 <= r²` under the brute filter, with its
/// `d2` bits, in row-major order.
fn brute_disk(case: &DiskCase) -> Vec<(abp_geom::LatticeIndex, u64)> {
    let r2 = case.radius * case.radius;
    case.lattice
        .indices()
        .filter_map(|ix| {
            let d2 = case.center.distance_squared(case.lattice.point(ix));
            (d2 <= r2).then_some((ix, d2.to_bits()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `for_each_in_disk` visits, row by row, exactly the lattice points
    /// the brute filter keeps, handing out bit-equal squared distances.
    #[test]
    fn disk_enumeration_is_exact(case in disk_case()) {
        let disk = Disk::new(case.center, case.radius);
        let mut seen = Vec::new();
        case.lattice.for_each_in_disk(disk, |ix, p, d2| {
            assert_eq!(p, case.lattice.point(ix));
            seen.push((ix, d2.to_bits()));
        });
        prop_assert_eq!(seen, brute_disk(&case));
    }

    /// The row walk's intervals cover exactly the brute filter's points,
    /// one non-empty row at a time in ascending order, and its core
    /// split holds every point with `d2 <= core²` and no other.
    #[test]
    fn disk_rows_and_core_split_are_exact(case in disk_case()) {
        let disk = Disk::new(case.center, case.radius);
        let core2 = case.core.map_or(f64::NEG_INFINITY, |c| c * c);
        let (mut seen, mut in_core, mut want_core) = (Vec::new(), Vec::new(), Vec::new());
        let mut last_row = None;
        case.lattice.for_each_disk_row(disk, case.core, |row| {
            assert!(row.lo <= row.core_lo && row.core_lo <= row.core_hi && row.core_hi <= row.hi);
            assert!(row.lo < row.hi, "empty row {row:?}");
            assert!(last_row < Some(row.j), "rows out of order");
            last_row = Some(row.j);
            for i in row.lo..row.hi {
                let ix = abp_geom::LatticeIndex::new(i, row.j);
                let d2 = case.center.distance_squared(case.lattice.point(ix));
                seen.push((ix, d2.to_bits()));
                if (row.core_lo..row.core_hi).contains(&i) {
                    in_core.push(ix);
                }
                if d2 <= core2 {
                    want_core.push(ix);
                }
            }
        });
        prop_assert_eq!(seen, brute_disk(&case));
        prop_assert_eq!(in_core, want_core);
    }
}

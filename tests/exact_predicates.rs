//! Differential test of the exact refinement predicates.
//!
//! Every segment-crossing question in `pbsm_geom::predicates` goes through
//! one window-clipped plane sweep (`seg_sweep::segments_cross`). This file
//! keeps the straightforward all-pairs form of each predicate as the
//! reference and checks `evaluate` against it on seeded random shapes, on
//! hand-built degenerate cases, and on every MBR-overlapping pair of the
//! TIGER and Sequoia data at scale 0.02.

use pbsm::prelude::*;
use pbsm_geom::lcg::Lcg;
use pbsm_geom::polygon::Ring;
use pbsm_geom::sweep::join_pairs;
use pbsm_geom::Segment;

/// The all-pairs reference: every segment of one side against every
/// segment of the other, with a per-pair MBR reject.
fn all_pairs_cross(a: impl Iterator<Item = Segment>, b: impl Iterator<Item = Segment>) -> bool {
    let b: Vec<Segment> = b.collect();
    a.into_iter().any(|s| {
        let sm = s.mbr();
        b.iter().any(|e| sm.intersects(&e.mbr()) && s.intersects(e))
    })
}

fn ref_contains_polygon(outer: &Polygon, inner: &Polygon) -> bool {
    outer.mbr().contains(&inner.mbr())
        && outer.contains_point(inner.outer().points()[0])
        && !all_pairs_cross(inner.segments(), outer.segments())
        && !outer
            .holes()
            .iter()
            .any(|hole| inner.mbr().contains(&hole.mbr()) && inner.contains_point(hole.points()[0]))
}

fn ref_contains_polyline(outer: &Polygon, l: &Polyline) -> bool {
    outer.mbr().contains(&l.mbr())
        && outer.contains_point(l.points()[0])
        && !all_pairs_cross(l.segments(), outer.segments())
}

fn ref_polyline_polygon(l: &Polyline, g: &Polygon) -> bool {
    l.mbr().intersects(&g.mbr())
        && (l.points().iter().any(|&p| g.contains_point(p))
            || all_pairs_cross(l.segments(), g.segments()))
}

fn ref_polygons(a: &Polygon, b: &Polygon) -> bool {
    a.mbr().intersects(&b.mbr())
        && (b.outer().points().iter().any(|&p| a.contains_point(p))
            || a.outer().points().iter().any(|&p| b.contains_point(p))
            || all_pairs_cross(a.segments(), b.segments()))
}

/// The reference answer for the predicates built on the crossing kernel
/// (`None` for the point cases, which do not use it).
fn reference(pred: SpatialPredicate, left: &Geometry, right: &Geometry) -> Option<bool> {
    use Geometry as G;
    Some(match (pred, left, right) {
        (SpatialPredicate::Intersects, G::Polyline(a), G::Polyline(b)) => {
            all_pairs_cross(a.segments(), b.segments())
        }
        (SpatialPredicate::Intersects, G::Polyline(l), G::Polygon(g))
        | (SpatialPredicate::Intersects, G::Polygon(g), G::Polyline(l)) => {
            ref_polyline_polygon(l, g)
        }
        (SpatialPredicate::Intersects, G::Polygon(a), G::Polygon(b)) => ref_polygons(a, b),
        (SpatialPredicate::Contains, G::Polygon(o), G::Polyline(l)) => ref_contains_polyline(o, l),
        (SpatialPredicate::Contains, G::Polygon(o), G::Polygon(i)) => ref_contains_polygon(o, i),
        _ => return None,
    })
}

/// Checks `evaluate` against the reference for both predicates in both
/// argument orders; returns how many (predicate, order) cases it checked.
fn check_pair(a: &Geometry, b: &Geometry, what: &str) -> usize {
    let opts = RefineOptions::default();
    let mut checked = 0;
    for pred in [SpatialPredicate::Intersects, SpatialPredicate::Contains] {
        for (l, r) in [(a, b), (b, a)] {
            if let Some(want) = reference(pred, l, r) {
                let got = pbsm_geom::predicates::evaluate(pred, l, r, &opts);
                assert_eq!(got, want, "{what}: {pred:?}\n left {l:?}\n right {r:?}");
                checked += 1;
            }
        }
    }
    checked
}

fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
    coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

fn line(coords: &[(f64, f64)]) -> Geometry {
    Polyline::new(pts(coords)).into()
}

fn ring(coords: &[(f64, f64)]) -> Ring {
    Ring::new(pts(coords))
}

fn square(x0: f64, y0: f64, s: f64) -> Ring {
    ring(&[(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s)])
}

fn poly(outer: Ring, holes: Vec<Ring>) -> Geometry {
    Polygon::with_holes(outer, holes).into()
}

/// A random walk of `n` vertices from `(x0, y0)`; with `snap`, every
/// coordinate is rounded to an integer so shared vertices, collinear
/// overlaps and touching MBRs are common.
fn walk(rng: &mut Lcg, x0: f64, y0: f64, n: usize, snap: bool) -> Polyline {
    let mut p = Point::new(x0, y0);
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let q = if snap {
            Point::new(p.x.round(), p.y.round())
        } else {
            p
        };
        v.push(q);
        p = Point::new(
            p.x + 4.0 * rng.next_f64() - 2.0,
            p.y + 4.0 * rng.next_f64() - 2.0,
        );
    }
    Polyline::new(v)
}

/// A star-shaped ring of `n` vertices around `(cx, cy)` with radii in
/// `[r/2, r]`.
fn star(rng: &mut Lcg, cx: f64, cy: f64, r: f64, n: usize, snap: bool) -> Ring {
    let v = (0..n)
        .map(|i| {
            let t = std::f64::consts::TAU * (i as f64 + 0.8 * rng.next_f64()) / n as f64;
            let rad = r * (0.5 + 0.5 * rng.next_f64());
            let (x, y) = (cx + rad * t.cos(), cy + rad * t.sin());
            if snap {
                Point::new(x.round(), y.round())
            } else {
                Point::new(x, y)
            }
        })
        .collect();
    Ring::new(v)
}

/// A star polygon, with a central hole half the time (kept only when it
/// lies inside the outer ring's MBR, as a valid polygon's holes do).
fn star_polygon(rng: &mut Lcg, cx: f64, cy: f64, r: f64, snap: bool) -> Polygon {
    let n = 3 + (rng.next_u64() % 12) as usize;
    let outer = star(rng, cx, cy, r, n, snap);
    if rng.next_u64().is_multiple_of(2) {
        let n = 3 + (rng.next_u64() % 5) as usize;
        let hole = star(rng, cx, cy, r * 0.2, n, snap);
        if outer.mbr().contains(&hole.mbr()) {
            return Polygon::with_holes(outer, vec![hole]);
        }
    }
    Polygon::simple(outer)
}

#[test]
fn kernel_matches_all_pairs_on_random_shapes() {
    let mut rng = Lcg::new(0x5EED);
    let mut checked = 0;
    for trial in 0..600 {
        let snap = trial % 2 == 0;
        let at = |rng: &mut Lcg| 10.0 * rng.next_f64();
        let (ax, ay, bx, by) = (at(&mut rng), at(&mut rng), at(&mut rng), at(&mut rng));
        let na = 2 + (rng.next_u64() % 20) as usize;
        let nb = 2 + (rng.next_u64() % 20) as usize;
        let l1: Geometry = walk(&mut rng, ax, ay, na, snap).into();
        let l2: Geometry = walk(&mut rng, bx, by, nb, snap).into();
        let r = 2.0 + 6.0 * rng.next_f64();
        let big: Geometry = star_polygon(&mut rng, ax, ay, r, snap).into();
        // A small polygon near the big one's centre, so containment holds
        // in a fair share of the trials.
        let (sx, sy) = (
            ax + 2.0 * rng.next_f64() - 1.0,
            ay + 2.0 * rng.next_f64() - 1.0,
        );
        let r = 0.5 + 2.0 * rng.next_f64();
        let small: Geometry = star_polygon(&mut rng, sx, sy, r, snap).into();
        let what = format!("trial {trial}");
        for (a, b) in [
            (&l1, &l2),
            (&l1, &big),
            (&l2, &big),
            (&l1, &small),
            (&big, &small),
        ] {
            checked += check_pair(a, b, &what);
        }
    }
    assert!(checked >= 600 * 5 * 2, "checked only {checked} cases");
}

#[test]
fn kernel_matches_all_pairs_on_degenerate_cases() {
    let host_hole = square(3.0, 3.0, 4.0);
    let host = || poly(square(0.0, 0.0, 10.0), vec![host_hole.clone()]);
    let cases: Vec<(&str, Geometry, Geometry, Option<bool>)> = vec![
        (
            "MBRs share an edge, chains touch on it (zero-width window)",
            line(&[(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)]),
            line(&[(1.0, 1.0), (2.0, 1.5)]),
            Some(true),
        ),
        (
            "MBRs share an edge, chains apart",
            line(&[(0.0, 0.0), (1.0, 2.0)]),
            line(&[(1.0, 0.0), (2.0, 2.0)]),
            Some(false),
        ),
        (
            "chains meet at the MBRs' shared corner (zero-area window)",
            line(&[(0.0, 0.0), (1.0, 1.0)]),
            line(&[(1.0, 1.0), (2.0, 0.0)]),
            Some(true),
        ),
        (
            "squares touch at one corner",
            poly(square(0.0, 0.0, 1.0), vec![]),
            poly(square(1.0, 1.0, 1.0), vec![]),
            Some(true),
        ),
        (
            "MBRs touch at a corner, polygons apart",
            poly(ring(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), vec![]),
            poly(ring(&[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]), vec![]),
            Some(false),
        ),
        (
            "collinear overlapping chains",
            line(&[(0.0, 0.0), (2.0, 0.0)]),
            line(&[(1.0, 0.0), (3.0, 0.0)]),
            Some(true),
        ),
        (
            "collinear overlapping polygon edges",
            poly(square(0.0, 0.0, 2.0), vec![]),
            poly(square(2.0, 1.0, 2.0), vec![]),
            Some(true),
        ),
        (
            "chain vertex on a polygon edge",
            poly(square(0.0, 0.0, 4.0), vec![]),
            line(&[(4.0, 2.0), (6.0, 2.0)]),
            Some(true),
        ),
        (
            "inner vertex on the outer boundary",
            poly(square(0.0, 0.0, 4.0), vec![]),
            poly(ring(&[(1.0, 1.0), (4.0, 2.0), (1.0, 3.0)]), vec![]),
            Some(true),
        ),
        (
            "zero-length segments",
            line(&[(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]),
            line(&[(2.0, 2.0), (2.0, 2.0)]),
            Some(true),
        ),
        (
            "zero-length segment beside a chain",
            line(&[(0.0, 0.0), (2.0, 2.0)]),
            line(&[(1.0, 1.5), (1.0, 1.5)]),
            Some(false),
        ),
        (
            "ring with a repeated vertex",
            poly(
                ring(&[(0.0, 0.0), (3.0, 0.0), (3.0, 0.0), (3.0, 3.0)]),
                vec![],
            ),
            line(&[(1.0, 0.5), (2.0, 0.5)]),
            Some(true),
        ),
        (
            "island sharing an edge with its host",
            poly(square(0.0, 0.0, 10.0), vec![]),
            poly(square(0.0, 2.0, 2.0), vec![]),
            Some(true),
        ),
        (
            "island sharing an edge with the host's hole",
            host(),
            poly(square(7.0, 4.0, 1.0), vec![]),
            Some(true),
        ),
        (
            "island inside a hole",
            host(),
            poly(square(4.0, 4.0, 1.0), vec![]),
            Some(false),
        ),
        (
            "island equal to the hole",
            host(),
            poly(host_hole.clone(), vec![]),
            Some(true),
        ),
        (
            "island swallowing the hole",
            host(),
            poly(square(2.0, 2.0, 6.0), vec![]),
            Some(true),
        ),
        (
            "island in the host's flesh",
            host(),
            poly(square(0.5, 0.5, 1.0), vec![]),
            Some(true),
        ),
        (
            "chain inside the hole",
            host(),
            line(&[(4.0, 4.0), (6.0, 6.0)]),
            Some(false),
        ),
    ];
    for (what, a, b, intersects) in &cases {
        assert!(check_pair(a, b, what) > 0, "{what}: no predicate checked");
        if let Some(want) = intersects {
            let got = pbsm_geom::predicates::evaluate(
                SpatialPredicate::Intersects,
                a,
                b,
                &RefineOptions::default(),
            );
            assert_eq!(got, *want, "{what}: Intersects");
        }
    }
    // Containment answers the degenerate cases are about.
    let contains = |a: &Geometry, b: &Geometry| {
        pbsm_geom::predicates::evaluate(SpatialPredicate::Contains, a, b, &RefineOptions::default())
    };
    let in_flesh = poly(square(0.5, 0.5, 1.0), vec![]);
    assert!(contains(&host(), &in_flesh));
    assert!(!contains(&host(), &poly(square(4.0, 4.0, 1.0), vec![])));
    assert!(!contains(&host(), &poly(square(2.0, 2.0, 6.0), vec![])));
    assert!(!contains(&host(), &poly(square(7.0, 4.0, 1.0), vec![])));
}

/// Every MBR-overlapping pair of `left` × `right`, as the filter step
/// would hand them to refinement.
fn mbr_pairs<'a>(
    left: &'a [SpatialTuple],
    right: &'a [SpatialTuple],
) -> impl Iterator<Item = (&'a Geometry, &'a Geometry)> {
    let tag = |ts: &[SpatialTuple]| -> Vec<(Rect, u32)> {
        ts.iter()
            .enumerate()
            .map(|(i, t)| (t.geom.mbr(), i as u32))
            .collect()
    };
    join_pairs(&tag(left), &tag(right))
        .into_iter()
        .map(move |(l, r)| (&left[l as usize].geom, &right[r as usize].geom))
}

#[test]
fn kernel_matches_all_pairs_on_tiger_and_sequoia() {
    let opts = RefineOptions::default();
    let data = [
        {
            let cfg = TigerConfig::scaled(0.02);
            (
                SpatialPredicate::Intersects,
                tiger::road(&cfg),
                tiger::hydrography(&cfg),
            )
        },
        {
            let (landuse, islands) = sequoia::generate(&SequoiaConfig::scaled(0.02));
            (SpatialPredicate::Contains, landuse, islands)
        },
    ];
    for (pred, left, right) in &data {
        let (mut pairs, mut hits) = (0, 0);
        for (l, r) in mbr_pairs(left, right) {
            let want = reference(*pred, l, r).expect("kernel predicate");
            let got = pbsm_geom::predicates::evaluate(*pred, l, r, &opts);
            assert_eq!(got, want, "{pred:?}\n left {l:?}\n right {r:?}");
            pairs += 1;
            hits += usize::from(got);
        }
        // Both answers occur, so the check covers accepts and rejects.
        assert!(hits > 0 && hits < pairs, "{pred:?}: {hits} of {pairs}");
    }
}

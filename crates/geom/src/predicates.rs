//! Exact-geometry join predicates for the refinement step.
//!
//! The filter step pairs tuples whose MBRs overlap; the refinement step
//! "examines the actual R and S tuples to determine if the attributes
//! actually satisfy the join condition" (§3.2). The paper's two evaluation
//! queries use two predicates:
//!
//! * **Intersects** — TIGER queries: "all the intersecting Road and
//!   Hydrography features".
//! * **Contains** — Sequoia query: "those islands that are contained in one
//!   or more of the polygons" (left contains right).
//!
//! [`RefineOptions`] selects the implementation strategy the paper
//! discusses: plane-sweep vs naive polyline intersection (the 62 % claim),
//! and the \[BKSS94\] MBR/MER pre-filter for containment.

use crate::mer::maximal_enclosed_rect;
use crate::seg_sweep::{polylines_intersect_sweep, segments_cross};
use crate::{Geometry, Point, Polygon, Polyline, Segment};

/// The spatial join predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpatialPredicate {
    /// Geometries share at least one point.
    Intersects,
    /// The left geometry fully contains the right one.
    Contains,
}

/// Strategy switches for the refinement step, mirroring the paper's
/// discussion.
#[derive(Clone, Copy, Debug)]
pub struct RefineOptions {
    /// Use the plane-sweep polyline intersection (§4.4). When false, the
    /// naive all-pairs segment test is used — the paper reports this costs
    /// 62 % more.
    pub plane_sweep: bool,
    /// Apply the \[BKSS94\] MER fast-accept before the exact containment
    /// test.
    pub mer_filter: bool,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            plane_sweep: true,
            mer_filter: false,
        }
    }
}

/// Whether a polyline and polygon share a point: either a chain vertex is
/// inside the polygon or a chain segment crosses the boundary.
fn polyline_intersects_polygon(l: &Polyline, g: &Polygon) -> bool {
    let (lm, gm) = (l.mbr(), g.mbr());
    if !lm.intersects(&gm) {
        return false;
    }
    if l.points().iter().any(|&p| g.contains_point(p)) {
        return true;
    }
    segments_cross(&lm.intersection(&gm), l.segments(), g.segments())
}

/// Whether two polygons share a point: boundary intersection or one
/// containing a vertex of the other.
fn polygons_intersect(a: &Polygon, b: &Polygon) -> bool {
    let (am, bm) = (a.mbr(), b.mbr());
    if !am.intersects(&bm) {
        return false;
    }
    if b.outer().points().iter().any(|&p| a.contains_point(p)) {
        return true;
    }
    if a.outer().points().iter().any(|&p| b.contains_point(p)) {
        return true;
    }
    segments_cross(&am.intersection(&bm), a.segments(), b.segments())
}

/// Whether polygon `outer` fully contains polygon `inner` (hole-aware).
///
/// `inner` is contained iff no boundary segments of the two polygons cross
/// and a representative vertex of `inner` lies inside `outer`. (If the
/// boundaries never cross, either all of `inner` is inside `outer` or none
/// of it is, so one vertex decides.)
pub fn polygon_contains_polygon(outer: &Polygon, inner: &Polygon) -> bool {
    let im = inner.mbr();
    if !outer.mbr().contains(&im) {
        return false;
    }
    if !outer.contains_point(inner.outer().points()[0]) {
        return false;
    }
    if segments_cross(&im, inner.segments(), outer.segments()) {
        return false;
    }
    // Boundaries don't cross and a vertex is inside; guard against a hole
    // of `outer` swallowing part of `inner`: a hole fully inside `inner`
    // would mean `inner` is not contained in the polygon's point set.
    for hole in outer.holes() {
        if im.contains(&hole.mbr()) && inner.contains_point(hole.points()[0]) {
            return false;
        }
    }
    true
}

/// Whether polygon `outer` fully contains the polyline `l`.
pub fn polygon_contains_polyline(outer: &Polygon, l: &Polyline) -> bool {
    let lm = l.mbr();
    if !outer.mbr().contains(&lm) {
        return false;
    }
    if !outer.contains_point(l.points()[0]) {
        return false;
    }
    !segments_cross(&lm, l.segments(), outer.segments())
}

fn point_on_polyline(p: Point, l: &Polyline) -> bool {
    let probe = Segment::new(p, p);
    l.segments()
        .any(|s| s.mbr().contains_point(p) && s.intersects(&probe))
}

/// Evaluates `pred(left, right)` exactly, honouring the strategy switches
/// in `opts`. This is the CPU-intensive heart of the refinement step.
pub fn evaluate(
    pred: SpatialPredicate,
    left: &Geometry,
    right: &Geometry,
    opts: &RefineOptions,
) -> bool {
    match pred {
        SpatialPredicate::Intersects => intersects(left, right, opts),
        SpatialPredicate::Contains => contains(left, right, opts),
    }
}

fn intersects(left: &Geometry, right: &Geometry, opts: &RefineOptions) -> bool {
    use Geometry::*;
    match (left, right) {
        (Point(a), Point(b)) => a == b,
        (Point(p), Polyline(l)) | (Polyline(l), Point(p)) => point_on_polyline(*p, l),
        (Point(p), Polygon(g)) | (Polygon(g), Point(p)) => g.contains_point(*p),
        (Polyline(a), Polyline(b)) => {
            if opts.plane_sweep {
                polylines_intersect_sweep(a, b)
            } else {
                a.intersects_naive(b)
            }
        }
        (Polyline(l), Polygon(g)) | (Polygon(g), Polyline(l)) => polyline_intersects_polygon(l, g),
        (Polygon(a), Polygon(b)) => polygons_intersect(a, b),
    }
}

fn contains(left: &Geometry, right: &Geometry, opts: &RefineOptions) -> bool {
    use Geometry::*;
    match (left, right) {
        (Polygon(outer), inner) => {
            if opts.mer_filter {
                // Fast accept: inner's MBR inside outer's MER ⇒ contained.
                if let Some(mer) = maximal_enclosed_rect(outer, 12) {
                    if mer.contains(&inner.mbr()) {
                        return true;
                    }
                }
            }
            match inner {
                Point(p) => outer.contains_point(*p),
                Polyline(l) => polygon_contains_polyline(outer, l),
                Polygon(g) => polygon_contains_polygon(outer, g),
            }
        }
        (Polyline(l), Point(p)) => point_on_polyline(*p, l),
        (Point(a), Point(b)) => a == b,
        // Lower-dimensional geometry cannot contain higher-dimensional one.
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::Ring;

    fn ring(coords: &[(f64, f64)]) -> Ring {
        Ring::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    fn pl(coords: &[(f64, f64)]) -> Polyline {
        Polyline::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    fn square(x0: f64, y0: f64, s: f64) -> Polygon {
        Polygon::simple(ring(&[
            (x0, y0),
            (x0 + s, y0),
            (x0 + s, y0 + s),
            (x0, y0 + s),
        ]))
    }

    #[test]
    fn polyline_polygon_intersection() {
        let g = square(0.0, 0.0, 4.0);
        assert!(polyline_intersects_polygon(
            &pl(&[(-1.0, 2.0), (5.0, 2.0)]),
            &g
        ));
        assert!(polyline_intersects_polygon(
            &pl(&[(1.0, 1.0), (2.0, 2.0)]),
            &g
        )); // inside
        assert!(!polyline_intersects_polygon(
            &pl(&[(5.0, 5.0), (6.0, 6.0)]),
            &g
        ));
    }

    #[test]
    fn polygon_polygon_intersection() {
        let a = square(0.0, 0.0, 4.0);
        assert!(polygons_intersect(&a, &square(2.0, 2.0, 4.0)));
        assert!(polygons_intersect(&a, &square(1.0, 1.0, 1.0))); // contained
        assert!(!polygons_intersect(&a, &square(5.0, 5.0, 1.0)));
    }

    #[test]
    fn containment_polygon_in_polygon() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(2.0, 2.0, 2.0);
        assert!(polygon_contains_polygon(&outer, &inner));
        assert!(!polygon_contains_polygon(&inner, &outer));
        let overlapping = square(8.0, 8.0, 4.0);
        assert!(!polygon_contains_polygon(&outer, &overlapping));
    }

    #[test]
    fn containment_respects_holes() {
        // A lake in a park: an island inside the hole is NOT contained.
        let hole = ring(&[(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)]);
        let park = Polygon::with_holes(
            ring(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            vec![hole],
        );
        let in_hole = square(4.0, 4.0, 1.0);
        assert!(!polygon_contains_polygon(&park, &in_hole));
        let in_flesh = square(0.5, 0.5, 1.0);
        assert!(polygon_contains_polygon(&park, &in_flesh));
    }

    #[test]
    fn evaluate_dispatch_intersects() {
        let opts = RefineOptions::default();
        let a: Geometry = pl(&[(0.0, 0.0), (2.0, 2.0)]).into();
        let b: Geometry = pl(&[(0.0, 2.0), (2.0, 0.0)]).into();
        assert!(evaluate(SpatialPredicate::Intersects, &a, &b, &opts));
        let naive = RefineOptions {
            plane_sweep: false,
            ..opts
        };
        assert!(evaluate(SpatialPredicate::Intersects, &a, &b, &naive));
    }

    #[test]
    fn evaluate_dispatch_contains() {
        let opts = RefineOptions::default();
        let outer: Geometry = square(0.0, 0.0, 10.0).into();
        let inner: Geometry = square(1.0, 1.0, 2.0).into();
        assert!(evaluate(SpatialPredicate::Contains, &outer, &inner, &opts));
        assert!(!evaluate(SpatialPredicate::Contains, &inner, &outer, &opts));
        // A polyline cannot contain a polygon.
        let l: Geometry = pl(&[(0.0, 0.0), (1.0, 0.0)]).into();
        assert!(!evaluate(SpatialPredicate::Contains, &l, &inner, &opts));
    }

    #[test]
    fn mer_filter_agrees_with_exact() {
        let outer = square(0.0, 0.0, 10.0);
        let with_mer = RefineOptions {
            plane_sweep: true,
            mer_filter: true,
        };
        let without = RefineOptions::default();
        for &(x0, s) in &[(1.0, 2.0), (0.5, 9.0), (6.0, 5.0)] {
            let inner: Geometry = square(x0, x0, s).into();
            let og: Geometry = outer.clone().into();
            assert_eq!(
                evaluate(SpatialPredicate::Contains, &og, &inner, &with_mer),
                evaluate(SpatialPredicate::Contains, &og, &inner, &without),
                "x0={x0} s={s}"
            );
        }
    }

    #[test]
    fn point_predicates() {
        let opts = RefineOptions::default();
        let p: Geometry = Point::new(1.0, 1.0).into();
        let g: Geometry = square(0.0, 0.0, 2.0).into();
        assert!(evaluate(SpatialPredicate::Intersects, &p, &g, &opts));
        assert!(evaluate(SpatialPredicate::Contains, &g, &p, &opts));
        let l: Geometry = pl(&[(0.0, 0.0), (2.0, 2.0)]).into();
        assert!(evaluate(SpatialPredicate::Intersects, &p, &l, &opts));
        assert!(evaluate(SpatialPredicate::Contains, &l, &p, &opts));
    }
}

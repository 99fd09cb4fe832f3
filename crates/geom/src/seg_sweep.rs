//! The one segment-crossing kernel behind every exact predicate.
//!
//! §4.4: "For performing the refinement step, which in this case requires
//! examining two polylines for intersection, a plane–sweeping algorithm was
//! used. Without this, the cost of the refinement step increases by 62%."
//!
//! [`segments_cross`] answers "does any segment of `a` meet any segment of
//! `b`?" for every predicate in [`crate::predicates`]: polyline ×
//! polyline, polyline × polygon and polygon × polygon intersection, and
//! the boundary-crossing half of both containment tests. It works in
//! three steps:
//!
//! 1. compute each segment's MBR once;
//! 2. keep only the segments whose MBR meets the caller's `window`, and
//!    answer `false` as soon as either side has none left;
//! 3. sweep the survivors in `xl` order (the same sort-merge structure as
//!    [`crate::sweep`]), running the exact [`Segment::intersects`] test
//!    only on cross-side pairs whose MBRs overlap, and exit on the first
//!    hit, since every caller needs a boolean.
//!
//! **Why the window changes no answer.** The exact test only ever runs on
//! segment pairs whose MBRs overlap, so it suffices that every such pair
//! survives the clip. Let `s` (from `a`) and `t` (from `b`) have
//! overlapping MBRs. The corner `q = (max(s.xl, t.xl), max(s.yl, t.yl))`
//! lies in both segment MBRs. Each segment lies inside the MBR of its own
//! geometry (a polygon's holes lie inside its outer ring), so `q` lies in
//! both geometries' MBRs too, and so in their intersection — the window
//! the intersection predicates pass. The containment predicates pass the
//! inner geometry's MBR, which holds `q` because it holds the inner
//! segment's MBR. Either way both `s` and `t` meet the window and reach
//! the sweep. The argument uses only `min`/`max` and comparisons, which
//! are exact in floating point: the clip is not an approximation.
//!
//! The naive baseline ([`crate::Polyline::intersects_naive`]) instead
//! tests all `n·m` segment pairs; `refinement_sweep_ablation` in the bench
//! crate reproduces the 62 % claim against it.

use crate::{Polyline, Rect, Segment};

/// One sweep event: a segment with its MBR and the input it came from.
struct Item {
    mbr: Rect,
    seg: Segment,
    from_a: bool,
}

thread_local! {
    /// Scratch buffer reused across calls: refinement evaluates a
    /// predicate once per candidate pair, and a fresh allocation per call
    /// would dominate the cost for the short chains of the TIGER data.
    static SCRATCH: std::cell::RefCell<Vec<Item>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Whether any segment of `a` intersects any segment of `b` (closed
/// semantics: touching and collinear overlap count).
///
/// `window` must contain every point where a segment MBR of `a` can meet
/// one of `b` — the intersection of the two geometries' MBRs, or any
/// rectangle holding it. Segments whose MBR misses `window` are dropped
/// before the sweep; see the module docs for why this is exact.
pub fn segments_cross(
    window: &Rect,
    a: impl IntoIterator<Item = Segment>,
    b: impl IntoIterator<Item = Segment>,
) -> bool {
    SCRATCH.with(|scratch| {
        let mut items = scratch.borrow_mut();
        items.clear();
        clip_into(window, a, true, &mut items);
        let from_a = items.len();
        if from_a == 0 {
            return false;
        }
        clip_into(window, b, false, &mut items);
        if items.len() == from_a {
            return false;
        }
        sweep(&mut items)
    })
}

/// Plane-sweep intersection test between two polylines.
pub fn polylines_intersect_sweep(a: &Polyline, b: &Polyline) -> bool {
    segments_cross(&a.mbr().intersection(&b.mbr()), a.segments(), b.segments())
}

fn clip_into(
    window: &Rect,
    segs: impl IntoIterator<Item = Segment>,
    from_a: bool,
    items: &mut Vec<Item>,
) {
    for seg in segs {
        let mbr = seg.mbr();
        if mbr.intersects(window) {
            items.push(Item { mbr, seg, from_a });
        }
    }
}

fn sweep(items: &mut [Item]) -> bool {
    items.sort_unstable_by(|p, q| p.mbr.xl.partial_cmp(&q.mbr.xl).expect("NaN coordinate"));

    // Nested forward scan, as in the partition merge: for each item, test
    // against later items until their xl passes our xu.
    for i in 0..items.len() {
        let it = &items[i];
        for jt in &items[i + 1..] {
            if jt.mbr.xl > it.mbr.xu {
                break;
            }
            if jt.from_a != it.from_a && it.mbr.intersects_y(&jt.mbr) && it.seg.intersects(&jt.seg)
            {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn pl(coords: &[(f64, f64)]) -> Polyline {
        Polyline::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn agrees_with_naive_on_basic_cases() {
        let cross_a = pl(&[(0.0, 0.0), (2.0, 2.0)]);
        let cross_b = pl(&[(0.0, 2.0), (2.0, 0.0)]);
        assert!(polylines_intersect_sweep(&cross_a, &cross_b));
        assert!(cross_a.intersects_naive(&cross_b));

        let par_a = pl(&[(0.0, 0.0), (5.0, 0.0)]);
        let par_b = pl(&[(0.0, 1.0), (5.0, 1.0)]);
        assert!(!polylines_intersect_sweep(&par_a, &par_b));
        assert!(!par_a.intersects_naive(&par_b));
    }

    #[test]
    fn mbr_overlap_without_geometry_overlap() {
        // Interleaving staircases whose MBRs fully overlap but never touch.
        let a = pl(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]);
        let b = pl(&[(0.0, 0.5), (0.4, 0.5), (0.4, 3.0)]);
        assert_eq!(polylines_intersect_sweep(&a, &b), a.intersects_naive(&b));
    }

    #[test]
    fn random_walks_agree_with_naive() {
        let mut rng = crate::lcg::Lcg::new(99);
        let mut rnd = move || rng.next_f64() - 1.0;
        fn walk(rnd: &mut impl FnMut() -> f64, x0: f64, y0: f64, n: usize) -> Polyline {
            let mut pts = vec![Point::new(x0, y0)];
            for _ in 1..n {
                let last = *pts.last().unwrap();
                pts.push(Point::new(last.x + rnd(), last.y + rnd()));
            }
            Polyline::new(pts)
        }
        for trial in 0..60 {
            let a = walk(&mut rnd, 0.0, 0.0, 12);
            let (bx, by) = (rnd() * 3.0, rnd() * 3.0);
            let b = walk(&mut rnd, bx, by, 12);
            assert_eq!(
                polylines_intersect_sweep(&a, &b),
                a.intersects_naive(&b),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn window_clip_short_circuits() {
        let a = [Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))];
        let b = [Segment::new(Point::new(0.0, 1.0), Point::new(1.0, 0.0))];
        assert!(segments_cross(&Rect::new(0.0, 0.0, 1.0, 1.0), a, b));
        // A window that misses one side answers false before any sweep.
        assert!(!segments_cross(&Rect::new(5.0, 5.0, 6.0, 6.0), a, b));
        assert!(!segments_cross(&Rect::empty(), a, b));
        // A zero-area window (the corner both MBRs share) still finds the
        // touching pair.
        let c = [Segment::new(Point::new(1.0, 1.0), Point::new(2.0, 3.0))];
        assert!(segments_cross(&Rect::new(1.0, 1.0, 1.0, 1.0), a, c));
    }
}

//! Spatial selection: the non-join half of a spatial query workload.
//!
//! Paradise "supports storing, browsing, and querying of geographic data
//! sets"; browsing a map region is a window query over a relation. Both
//! evaluation strategies are provided: a sequential scan with an MBR
//! filter, and an index probe through a pre-built R\*-tree — the same
//! filter/refine split as the joins (§1: "spatial operations, including
//! the spatial join, typically operate in two steps").

use crate::cost::CostTracker;
use crate::JoinReport;
use pbsm_geom::polygon::Ring;
use pbsm_geom::predicates::{evaluate, RefineOptions, SpatialPredicate};
use pbsm_geom::{Geometry, Point, Rect};
use pbsm_rtree::query::window_query;
use pbsm_rtree::RTree;
use pbsm_storage::heap::HeapFile;
use pbsm_storage::tuple::SpatialTuple;
use pbsm_storage::{Db, Oid, StorageResult};

/// Result of a selection.
pub struct SelectOutcome {
    /// Matching tuples' OIDs, sorted.
    pub oids: Vec<Oid>,
    /// Cost breakdown ("filter"/"refine" or "probe index"/"refine").
    pub report: JoinReport,
    /// Per-query execution profile built from the selection's span.
    pub profile: Option<pbsm_obs::profile::Profile>,
}

/// Selects all tuples of `relation` whose exact geometry intersects the
/// query window, via a full scan.
pub fn select_scan(db: &Db, relation: &str, window: &Rect) -> StorageResult<SelectOutcome> {
    let guard = pbsm_obs::span(format!("select scan {relation}"));
    let meta = db.catalog().relation(relation)?.clone();
    let heap = HeapFile::open(meta.file);
    let mut tracker = CostTracker::new();
    let window_geom = window_polygon(window);
    let opts = RefineOptions::default();
    let oids: StorageResult<Vec<Oid>> = tracker.run("scan + refine", || {
        let mut out = Vec::new();
        for item in heap.scan(db.pool()) {
            let (oid, bytes) = item?;
            let tuple = SpatialTuple::decode(&bytes)?;
            // Filter on the MBR, refine exactly.
            if window.intersects(&tuple.geom.mbr())
                && evaluate(
                    SpatialPredicate::Intersects,
                    &window_geom,
                    &tuple.geom,
                    &opts,
                )
            {
                out.push(oid);
            }
        }
        Ok(out)
    });
    let mut oids = oids?;
    oids.sort_unstable();
    Ok(finish_select(
        db,
        "select.scan",
        relation,
        guard,
        tracker,
        oids,
    ))
}

/// Selects via the relation's R\*-tree index (which must exist in the
/// catalog): probe for candidates, then fetch and refine.
pub fn select_index(db: &Db, relation: &str, window: &Rect) -> StorageResult<SelectOutcome> {
    let guard = pbsm_obs::span(format!("select probe {relation}"));
    let meta = db.catalog().relation(relation)?.clone();
    let index = db.catalog().index(relation).ok_or_else(|| {
        pbsm_storage::StorageError::UnknownRelation(format!("{relation} (index)"))
    })?;
    let tree = RTree::open(index);
    let heap = HeapFile::open(meta.file);
    let mut tracker = CostTracker::new();
    let window_geom = window_polygon(window);
    let opts = RefineOptions::default();

    let candidates: StorageResult<Vec<Oid>> = tracker.run("probe index", || {
        let mut hits = Vec::new();
        window_query(&tree, db.pool(), window, &mut hits)?;
        hits.sort_unstable(); // physical fetch order
        Ok(hits)
    });
    let candidates = candidates?;

    let oids: StorageResult<Vec<Oid>> = tracker.run("fetch + refine", || {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for oid in &candidates {
            heap.fetch(db.pool(), *oid, &mut buf)?;
            let tuple = SpatialTuple::decode(&buf)?;
            if evaluate(
                SpatialPredicate::Intersects,
                &window_geom,
                &tuple.geom,
                &opts,
            ) {
                out.push(*oid);
            }
        }
        Ok(out)
    });
    Ok(finish_select(
        db,
        "select.index",
        relation,
        guard,
        tracker,
        oids?,
    ))
}

/// Shared tail of both strategies: close the root span, build and
/// publish the profile, assemble the outcome.
fn finish_select(
    db: &Db,
    algorithm: &str,
    relation: &str,
    guard: pbsm_obs::SpanGuard,
    tracker: CostTracker,
    oids: Vec<Oid>,
) -> SelectOutcome {
    let record = guard.finish();
    let report = tracker.finish();
    let profile = crate::profile::build_select_profile(
        algorithm,
        relation,
        &db.config().disk,
        &record,
        &report,
        oids.len() as u64,
    );
    pbsm_obs::profile::publish(profile.clone());
    let class = if algorithm == "select.index" {
        crate::telemetry::QueryClass::SelectIndex
    } else {
        crate::telemetry::QueryClass::SelectScan
    };
    crate::telemetry::query_complete(class, record.delta(pbsm_obs::names::DISK_IO_NS));
    SelectOutcome {
        oids,
        report,
        profile: Some(profile),
    }
}

fn window_polygon(window: &Rect) -> Geometry {
    Geometry::Polygon(pbsm_geom::Polygon::simple(Ring::new(vec![
        Point::new(window.xl, window.yl),
        Point::new(window.xu, window.yl),
        Point::new(window.xu, window.yu),
        Point::new(window.xl, window.yu),
    ])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{build_index, load_relation};
    use pbsm_geom::Polyline;
    use pbsm_storage::DbConfig;

    fn mk_tuples(n: usize) -> Vec<SpatialTuple> {
        crate::testgen::grid_tuples(n, 40, 0.8, 0.8, 8)
    }

    #[test]
    fn scan_and_index_agree() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        let meta = load_relation(&db, "r", &mk_tuples(800), false).unwrap();
        build_index(&db, &meta).unwrap();
        for window in [
            Rect::new(3.0, 3.0, 8.0, 8.0),
            Rect::new(0.0, 0.0, 40.0, 20.0),
            Rect::new(100.0, 100.0, 101.0, 101.0),
            Rect::new(5.5, 5.5, 5.6, 5.6),
        ] {
            let a = select_scan(&db, "r", &window).unwrap();
            let b = select_index(&db, "r", &window).unwrap();
            assert_eq!(a.oids, b.oids, "window {window:?}");
        }
    }

    #[test]
    fn refine_rejects_mbr_only_matches() {
        // A diagonal line whose MBR overlaps the window while the line
        // itself misses it.
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        let t = SpatialTuple::new(
            0,
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 10.0)]).into(),
            0,
        );
        load_relation(&db, "r", &[t], false).unwrap();
        // Window in the MBR's corner, away from the diagonal.
        let miss = Rect::new(8.0, 0.0, 9.0, 1.0);
        assert!(select_scan(&db, "r", &miss).unwrap().oids.is_empty());
        let hit = Rect::new(4.0, 4.0, 6.0, 6.0);
        assert_eq!(select_scan(&db, "r", &hit).unwrap().oids.len(), 1);
    }

    #[test]
    fn missing_index_is_an_error() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        load_relation(&db, "r", &mk_tuples(10), false).unwrap();
        assert!(select_index(&db, "r", &Rect::new(0.0, 0.0, 1.0, 1.0)).is_err());
    }
}

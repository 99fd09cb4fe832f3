//! The indexed nested loops spatial join (§4.1).
//!
//! "If neither join input has an index on the joining attribute, the
//! indexed nested loops join algorithm first builds an index on the
//! smaller input R [by bulk loading]. After building the index on the
//! join attribute of R, a scan is started on S. Each tuple of S is used
//! to probe the index on R. … The tuples of R corresponding to these OIDs
//! are then fetched (from disk, if necessary) and checked with the S
//! tuple to determine if the join condition is satisfied."
//!
//! With pre-existing indices (§4.5): if one input has an index, that
//! index is probed; if both do, the smaller index is probed.

use crate::cost::CostTracker;
use crate::loader::ensure_index;
use crate::refine::matches;
use crate::{JoinConfig, JoinOutcome, JoinSpec, JoinStats};
use pbsm_rtree::query::window_query;
use pbsm_storage::catalog::{Catalog, RelationMeta};
use pbsm_storage::heap::HeapFile;
use pbsm_storage::tuple::SpatialTuple;
use pbsm_storage::{Db, Oid, StorageResult};

/// Runs the indexed nested loops join.
pub fn inl_join(db: &Db, spec: &JoinSpec, config: &JoinConfig) -> StorageResult<JoinOutcome> {
    let guard = pbsm_obs::span(format!("inl join {} ⋈ {}", spec.left, spec.right));
    let (left, right) = {
        let cat = db.catalog();
        (
            cat.relation(&spec.left)?.clone(),
            cat.relation(&spec.right)?.clone(),
        )
    };
    let mut tracker = CostTracker::new();
    let mut stats = JoinStats::default();

    let index_on_left = index_side(&db.catalog(), &left, &right);
    let (indexed, probing) = if index_on_left {
        (&left, &right)
    } else {
        (&right, &left)
    };

    let tree = ensure_index(db, indexed, &mut tracker)?;

    // Probe phase: scan the probing relation; each tuple probes the index,
    // then immediately fetches and checks the matching indexed tuples.
    let indexed_heap = HeapFile::open(indexed.file);
    let probing_heap = HeapFile::open(probing.file);
    let mut pairs: Vec<(Oid, Oid)> = Vec::new();
    let probe_result: StorageResult<(u64, u64)> = tracker.run("probe index", || {
        let mut candidates = 0u64;
        let mut results = 0u64;
        let mut hits: Vec<Oid> = Vec::new();
        let mut fetch_buf = Vec::new();
        for item in probing_heap.scan(db.pool()) {
            let (probe_oid, bytes) = item?;
            let probe_tuple = SpatialTuple::decode(&bytes)?;
            hits.clear();
            window_query(&tree, db.pool(), &probe_tuple.geom.mbr(), &mut hits)?;
            candidates += hits.len() as u64;
            for &hit_oid in &hits {
                indexed_heap.fetch(db.pool(), hit_oid, &mut fetch_buf)?;
                let hit_tuple = SpatialTuple::decode(&fetch_buf)?;
                // Evaluate with (left, right) orientation regardless of
                // which side carries the index.
                let ok = if index_on_left {
                    matches(&hit_tuple, &probe_tuple, spec.predicate, &config.refine)
                } else {
                    matches(&probe_tuple, &hit_tuple, spec.predicate, &config.refine)
                };
                if ok {
                    results += 1;
                    if index_on_left {
                        pairs.push((hit_oid, probe_oid));
                    } else {
                        pairs.push((probe_oid, hit_oid));
                    }
                }
            }
        }
        Ok((candidates, results))
    });
    let (candidates, results) = probe_result?;
    stats.candidates = candidates;
    stats.unique_candidates = candidates;
    stats.results = results;
    stats.peak_work_mem_pages = (config.work_mem_bytes / pbsm_storage::PAGE_SIZE).max(1) as u64;
    pairs.sort_unstable();

    let record = guard.finish();
    let report = tracker.finish();
    let profile = crate::profile::build_join_profile(
        "inl",
        &format!("{} ⋈ {}", spec.left, spec.right),
        &db.config().disk,
        &record,
        &report,
        &stats,
    );
    pbsm_obs::profile::publish(profile.clone());
    crate::telemetry::query_complete(
        crate::telemetry::QueryClass::Inl,
        record.delta(pbsm_obs::names::DISK_IO_NS),
    );
    Ok(JoinOutcome {
        pairs,
        report,
        stats,
        profile: Some(profile),
    })
}

/// The §4.1/§4.5 index-side pick: the input that carries the only
/// existing index, the smaller input when both or neither have one.
/// `true` when the index side is the left input.
pub(crate) fn index_side(cat: &Catalog, left: &RelationMeta, right: &RelationMeta) -> bool {
    match (
        cat.index(&left.name).is_some(),
        cat.index(&right.name).is_some(),
    ) {
        (true, false) => true,
        (false, true) => false,
        _ => left.cardinality <= right.cardinality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{build_index, load_relation};
    use crate::pbsm::pbsm_join;
    use pbsm_geom::predicates::SpatialPredicate;
    use pbsm_storage::DbConfig;

    fn mk_tuples(n: usize, seed: u64) -> Vec<SpatialTuple> {
        crate::testgen::mk_tuples(n, seed, 60.0, 2, 1.0, 0.0, 16)
    }

    #[test]
    fn inl_matches_pbsm() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        load_relation(&db, "big", &mk_tuples(600, 3), false).unwrap();
        load_relation(&db, "small", &mk_tuples(150, 7), false).unwrap();
        let spec = JoinSpec::new("big", "small", SpatialPredicate::Intersects);
        let config = JoinConfig {
            work_mem_bytes: 64 * 1024,
            ..JoinConfig::default()
        };
        let a = inl_join(&db, &spec, &config).unwrap();
        let b = pbsm_join(&db, &spec, &config).unwrap();
        assert!(!a.pairs.is_empty());
        assert_eq!(a.pairs, b.pairs);
        // INL built its index on the smaller input.
        let names: Vec<&str> = a
            .report
            .components
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["build index on small", "probe index"]);
    }

    #[test]
    fn inl_uses_preexisting_index() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        let big = load_relation(&db, "big", &mk_tuples(500, 3), false).unwrap();
        load_relation(&db, "small", &mk_tuples(100, 7), false).unwrap();
        // Pre-build the index on the LARGER input: INL must probe it even
        // though it is not the smaller side.
        build_index(&db, &big).unwrap();
        let spec = JoinSpec::new("big", "small", SpatialPredicate::Intersects);
        let out = inl_join(&db, &spec, &JoinConfig::for_db(&db)).unwrap();
        let names: Vec<&str> = out
            .report
            .components
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["probe index"], "should not rebuild any index");
        let want = pbsm_join(&db, &spec, &JoinConfig::for_db(&db)).unwrap();
        assert_eq!(out.pairs, want.pairs);
    }
}

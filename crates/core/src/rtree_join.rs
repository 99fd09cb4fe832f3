//! The R-tree-based join competitor (§4.2).
//!
//! "For this algorithm, we first use bulk loading to build an R*-tree
//! index on the joining attribute of the two input relations. The two
//! indices are then joined using the R-tree join algorithm proposed in
//! \[BKS93\]. … The objects corresponding to these OIDs then have to be
//! fetched and checked to determine if the join predicate is actually
//! satisfied. For this, we use the same technique that was used in the
//! PBSM join algorithm."
//!
//! Components mirror Figure 10: "build index on <left>", "build index on
//! <right>" (skipped for pre-existing indices), "join indices",
//! "refinement step".

use crate::cost::CostTracker;
use crate::keyptr::{encode_pair, OID_PAIR_SIZE};
use crate::loader::ensure_index;
use crate::refine::refinement_step;
use crate::{JoinConfig, JoinOutcome, JoinSpec, JoinStats};
use pbsm_rtree::join::rtree_join as bks93_join;
use pbsm_storage::record::RecordFile;
use pbsm_storage::{Db, StorageResult};

/// Runs the R-tree join: build missing indices, BKS93 synchronized
/// traversal, shared refinement.
pub fn rtree_join(db: &Db, spec: &JoinSpec, config: &JoinConfig) -> StorageResult<JoinOutcome> {
    let guard = pbsm_obs::span(format!("rtree join {} ⋈ {}", spec.left, spec.right));
    let (left, right) = {
        let cat = db.catalog();
        (
            cat.relation(&spec.left)?.clone(),
            cat.relation(&spec.right)?.clone(),
        )
    };
    let mut tracker = CostTracker::new();
    let mut stats = JoinStats::default();

    let left_tree = ensure_index(db, &left, &mut tracker)?;
    let right_tree = ensure_index(db, &right, &mut tracker)?;

    // Synchronized depth-first traversal producing candidate OID pairs.
    let candidates = tracker.run("join indices", || -> StorageResult<RecordFile> {
        let out = RecordFile::create(db.pool(), OID_PAIR_SIZE)?;
        let mut writer = out.writer(db.pool());
        let mut err = None;
        bks93_join(&left_tree, &right_tree, db.pool(), &mut |a, b| {
            if err.is_none() {
                if let Err(e) = writer.push(&encode_pair(a, b)) {
                    err = Some(e);
                }
            }
        })?;
        if let Some(e) = err {
            return Err(e);
        }
        writer.finish()?;
        Ok(out)
    })?;
    stats.candidates = candidates.count();

    let refined = tracker.run("refinement step", || {
        refinement_step(
            db,
            &candidates,
            &left,
            &right,
            spec.predicate,
            &config.refine,
            config.work_mem_bytes,
        )
    })?;
    candidates.destroy(db.pool());
    stats.unique_candidates = refined.unique_candidates;
    stats.results = refined.pairs.len() as u64;
    stats.peak_work_mem_pages = (config.work_mem_bytes / pbsm_storage::PAGE_SIZE).max(1) as u64;

    let record = guard.finish();
    let report = tracker.finish();
    let profile = crate::profile::build_join_profile(
        "rtree",
        &format!("{} ⋈ {}", spec.left, spec.right),
        &db.config().disk,
        &record,
        &report,
        &stats,
    );
    pbsm_obs::profile::publish(profile.clone());
    crate::telemetry::query_complete(
        crate::telemetry::QueryClass::Rtree,
        record.delta(pbsm_obs::names::DISK_IO_NS),
    );
    Ok(JoinOutcome {
        pairs: refined.pairs,
        report,
        stats,
        profile: Some(profile),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{build_index, load_relation};
    use crate::pbsm::pbsm_join;
    use pbsm_geom::predicates::SpatialPredicate;
    use pbsm_storage::tuple::SpatialTuple;
    use pbsm_storage::DbConfig;

    fn mk_tuples(n: usize, seed: u64) -> Vec<SpatialTuple> {
        crate::testgen::mk_tuples(n, seed, 70.0, 1, 1.0, 0.0, 16)
    }

    #[test]
    fn rtree_join_matches_pbsm() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        load_relation(&db, "r", &mk_tuples(500, 3), false).unwrap();
        load_relation(&db, "s", &mk_tuples(400, 7), false).unwrap();
        let spec = JoinSpec::new("r", "s", SpatialPredicate::Intersects);
        let config = JoinConfig {
            work_mem_bytes: 64 * 1024,
            ..JoinConfig::default()
        };
        let a = rtree_join(&db, &spec, &config).unwrap();
        let names: Vec<&str> = a
            .report
            .components
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "build index on r",
                "build index on s",
                "join indices",
                "refinement step"
            ]
        );
        let b = pbsm_join(&db, &spec, &config).unwrap();
        assert!(!a.pairs.is_empty());
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn rtree_join_skips_existing_indices() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        let r = load_relation(&db, "r", &mk_tuples(300, 5), false).unwrap();
        let s = load_relation(&db, "s", &mk_tuples(300, 9), false).unwrap();
        build_index(&db, &r).unwrap();
        build_index(&db, &s).unwrap();
        let spec = JoinSpec::new("r", "s", SpatialPredicate::Intersects);
        let out = rtree_join(&db, &spec, &JoinConfig::for_db(&db)).unwrap();
        let names: Vec<&str> = out
            .report
            .components
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["join indices", "refinement step"]);
    }
}

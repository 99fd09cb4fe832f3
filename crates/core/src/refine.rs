//! The refinement step (§3.2), shared by PBSM and the R-tree join (§4.2).
//!
//! "First, the OID pairs are sorted using OID_R as the primary sort key
//! and OID_S as the secondary sort key. Duplicate entries are eliminated
//! during this sort. Next, as many R tuples as can fit in memory are read
//! from disk along with the corresponding array of <OID_R, OID_S> pairs.
//! The OID_R part of this array is 'swizzled' to point to the R tuples in
//! memory, and then the array is sorted on OID_S (this makes the accesses
//! to S sequential). The S tuples are then read sequentially into memory,
//! and the join attributes of the R and the S tuple are checked to
//! determine whether they satisfy the join condition."

use crate::keyptr::{cmp_pair_bytes, decode_pair};
use pbsm_geom::predicates::{evaluate, RefineOptions, SpatialPredicate};
use pbsm_storage::catalog::RelationMeta;
use pbsm_storage::extsort::{external_sort_files, SortCheckpoint};
use pbsm_storage::heap::HeapFile;
use pbsm_storage::record::RecordFile;
use pbsm_storage::tuple::SpatialTuple;
use pbsm_storage::{Db, Oid, StorageError, StorageResult};
use std::collections::BTreeMap;

/// Outcome of the refinement step.
pub struct RefineOutcome {
    /// Pairs satisfying the exact predicate, sorted.
    pub pairs: Vec<(Oid, Oid)>,
    /// Candidates remaining after duplicate elimination.
    pub unique_candidates: u64,
}

/// Runs the full refinement step over a candidate OID-pair file.
///
/// `left`/`right` are the relations the OIDs refer to; `predicate` is
/// evaluated as `predicate(left tuple, right tuple)`.
pub fn refinement_step(
    db: &Db,
    candidates: &RecordFile,
    left: &RelationMeta,
    right: &RelationMeta,
    predicate: SpatialPredicate,
    opts: &RefineOptions,
    work_mem: usize,
) -> StorageResult<RefineOutcome> {
    refine_candidates(
        db,
        &[candidates],
        left,
        right,
        predicate,
        opts,
        work_mem,
        None,
    )
}

/// The refinement path behind [`refinement_step`], over candidate files
/// read in order as one pair stream (a journaled join keeps one file per
/// partition pair). With `ckpt`, the candidate sort reuses durable runs
/// recovered from the journal (skipping the input records they hold) and
/// reports each newly completed run so it can be checkpointed. The
/// refinement scan itself is not checkpointed — it is a pure read over
/// the sorted file and simply re-runs after a crash.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_candidates(
    db: &Db,
    candidates: &[&RecordFile],
    left: &RelationMeta,
    right: &RelationMeta,
    predicate: SpatialPredicate,
    opts: &RefineOptions,
    work_mem: usize,
    ckpt: Option<SortCheckpoint<'_>>,
) -> StorageResult<RefineOutcome> {
    // Sort by (OID_R, OID_S), eliminating duplicates during the sort.
    let sorted = external_sort_files(db.pool(), candidates, work_mem, cmp_pair_bytes, true, ckpt)?;
    let unique_candidates = sorted.count();
    let raw_candidates = candidates.iter().map(|f| f.count()).sum();
    pbsm_obs::cached_counter!("pbsm.refine.raw_candidates").add(raw_candidates);
    pbsm_obs::cached_counter!("pbsm.refine.unique_candidates").add(unique_candidates);
    // Destroy the sorted temp file on error paths too, so an ENOSPC
    // abort leaves no stranded pages behind for the degraded re-run.
    let result = refine_sorted(db, &sorted, left, right, predicate, opts, work_mem);
    sorted.destroy(db.pool());
    let mut out = result?;

    out.sort_unstable();
    Ok(RefineOutcome {
        pairs: out,
        unique_candidates,
    })
}

fn refine_sorted(
    db: &Db,
    sorted: &RecordFile,
    left: &RelationMeta,
    right: &RelationMeta,
    predicate: SpatialPredicate,
    opts: &RefineOptions,
    work_mem: usize,
) -> StorageResult<Vec<(Oid, Oid)>> {
    let left_heap = HeapFile::open(left.file);
    let right_heap = HeapFile::open(right.file);
    // Half the work memory holds R tuples; the rest covers the pair array
    // and the streaming S tuple.
    let r_budget = (work_mem / 2).max(64 * 1024);

    let mut out = Vec::new();
    let mut reader = sorted.reader(db.pool());
    let mut fetch_buf = Vec::new();

    // Batch state: decoded R tuples (with their OIDs, for result
    // emission) plus the pairs referencing them. The OID→index map is the
    // "swizzling" — pairs carry an index into `r_tuples` instead of an
    // OID, so the per-pair predicate evaluation does no lookup. A
    // `BTreeMap` (never iterated, but keeps hash order out of this
    // counter-gated path entirely) — lookups are once per unique R OID.
    let mut r_tuples: Vec<(Oid, SpatialTuple)> = Vec::new();
    let mut r_index: BTreeMap<u64, u32> = BTreeMap::new();
    let mut r_bytes = 0usize;
    let mut batch: Vec<(u32, Oid)> = Vec::new();

    loop {
        let next = reader.next_record()?.map(decode_pair);
        let flush = match next {
            Some((r_oid, _)) => {
                // Starting a new R tuple that would overflow the budget?
                !r_index.contains_key(&r_oid.raw()) && r_bytes >= r_budget
            }
            None => true,
        };
        if flush && !batch.is_empty() {
            process_batch(
                db,
                &right_heap,
                &r_tuples,
                &mut batch,
                predicate,
                opts,
                &mut out,
            )?;
            r_tuples.clear();
            r_index.clear();
            r_bytes = 0;
        }
        let Some((r_oid, s_oid)) = next else { break };
        let idx = match r_index.get(&r_oid.raw()) {
            Some(&i) => i,
            None => {
                left_heap.fetch(db.pool(), r_oid, &mut fetch_buf)?;
                let tuple = SpatialTuple::decode(&fetch_buf)?;
                r_bytes += fetch_buf.len();
                let i = r_tuples.len() as u32;
                r_tuples.push((r_oid, tuple));
                r_index.insert(r_oid.raw(), i);
                i
            }
        };
        batch.push((idx, s_oid));
    }
    Ok(out)
}

/// Second half of a batch: sort on OID_S, stream S tuples sequentially,
/// evaluate the predicate.
fn process_batch(
    db: &Db,
    right_heap: &HeapFile,
    r_tuples: &[(Oid, SpatialTuple)],
    batch: &mut Vec<(u32, Oid)>,
    predicate: SpatialPredicate,
    opts: &RefineOptions,
    out: &mut Vec<(Oid, Oid)>,
) -> StorageResult<()> {
    // Sort on OID_S "(this makes the accesses to S sequential)".
    batch.sort_unstable_by_key(|(_, s)| *s);
    let mut fetch_buf = Vec::new();
    let mut cached: Option<(Oid, SpatialTuple)> = None;
    let mut true_hits = 0u64;
    let mut false_hits = 0u64;
    for &(r_idx, s_oid) in batch.iter() {
        if cached.as_ref().map(|(oid, _)| *oid) != Some(s_oid) {
            right_heap.fetch(db.pool(), s_oid, &mut fetch_buf)?;
            cached = Some((s_oid, SpatialTuple::decode(&fetch_buf)?));
        }
        // `cached` is always `Some` here (set just above on a miss);
        // surface the impossible case as a typed error, not a panic.
        let Some((_, s_tuple)) = cached.as_ref() else {
            return Err(StorageError::Corrupt("refine batch lost its S tuple"));
        };
        let (r_oid, r_tuple) = &r_tuples[r_idx as usize];
        if matches(r_tuple, s_tuple, predicate, opts) {
            true_hits += 1;
            out.push((*r_oid, s_oid));
        } else {
            false_hits += 1;
        }
    }
    pbsm_obs::cached_counter!("pbsm.refine.true_hits").add(true_hits);
    pbsm_obs::cached_counter!("pbsm.refine.false_hits").add(false_hits);
    batch.clear();
    Ok(())
}

/// Evaluates the exact join predicate, honouring a stored MER (\[BKSS94\])
/// as a fast-accept for containment when present and enabled.
pub fn matches(
    left: &SpatialTuple,
    right: &SpatialTuple,
    predicate: SpatialPredicate,
    opts: &RefineOptions,
) -> bool {
    if predicate == SpatialPredicate::Contains && opts.mer_filter {
        if let (Some(mer), geom) = (&left.mer, &right.geom) {
            if mer.contains(&geom.mbr()) {
                return true;
            }
        }
        // Fall through to the exact test with the on-the-fly MER disabled:
        // a stored MER already served as the filter (or none exists).
        let exact = RefineOptions {
            mer_filter: false,
            ..*opts
        };
        return evaluate(predicate, &left.geom, &right.geom, &exact);
    }
    evaluate(predicate, &left.geom, &right.geom, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{merge_partitions, partition_input};
    use crate::loader::load_relation;
    use crate::partition::{TileGrid, TileMapScheme};
    use crate::JoinConfig;
    use pbsm_storage::DbConfig;

    fn mk_tuples(n: usize, seed: u64, spread: f64) -> Vec<SpatialTuple> {
        crate::testgen::mk_tuples(n, seed, spread, 2, 2.0, -1.0, 8)
    }

    /// Ground truth: exact predicate over all tuple pairs.
    fn brute_exact(
        db: &Db,
        r: &RelationMeta,
        s: &RelationMeta,
        pred: SpatialPredicate,
    ) -> Vec<(Oid, Oid)> {
        let opts = RefineOptions::default();
        let rh = HeapFile::open(r.file);
        let sh = HeapFile::open(s.file);
        let rts: Vec<(Oid, SpatialTuple)> = rh
            .scan(db.pool())
            .map(|x| {
                let (o, b) = x.unwrap();
                (o, SpatialTuple::decode(&b).unwrap())
            })
            .collect();
        let sts: Vec<(Oid, SpatialTuple)> = sh
            .scan(db.pool())
            .map(|x| {
                let (o, b) = x.unwrap();
                (o, SpatialTuple::decode(&b).unwrap())
            })
            .collect();
        let mut out = Vec::new();
        for (ro, rt) in &rts {
            for (so, st) in &sts {
                if matches(rt, st, pred, &opts) {
                    out.push((*ro, *so));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn full_filter_plus_refine_equals_brute_force() {
        let db = Db::new(DbConfig::with_pool_mb(2));
        let r = load_relation(&db, "r", &mk_tuples(400, 3, 40.0), false).unwrap();
        let s = load_relation(&db, "s", &mk_tuples(300, 11, 40.0), false).unwrap();
        let grid = TileGrid::new(r.universe.union(&s.universe), 256);
        let rp = partition_input(&db, &r, &grid, TileMapScheme::Hash, 4).unwrap();
        let sp = partition_input(&db, &s, &grid, TileMapScheme::Hash, 4).unwrap();
        let (cand, _) = merge_partitions(&db, &rp, &sp, &JoinConfig::default()).unwrap();
        let outcome = refinement_step(
            &db,
            &cand,
            &r,
            &s,
            SpatialPredicate::Intersects,
            &RefineOptions::default(),
            1 << 20,
        )
        .unwrap();
        let want = brute_exact(&db, &r, &s, SpatialPredicate::Intersects);
        assert!(!want.is_empty());
        assert_eq!(outcome.pairs, want);
        assert!(outcome.unique_candidates >= want.len() as u64);
    }

    #[test]
    fn tiny_memory_budget_still_correct() {
        // Forces many refinement batches and external sort runs.
        let db = Db::new(DbConfig::with_pool_mb(2));
        let r = load_relation(&db, "r", &mk_tuples(300, 5, 30.0), false).unwrap();
        let s = load_relation(&db, "s", &mk_tuples(250, 9, 30.0), false).unwrap();
        let grid = TileGrid::new(r.universe.union(&s.universe), 64);
        let rp = partition_input(&db, &r, &grid, TileMapScheme::RoundRobin, 6).unwrap();
        let sp = partition_input(&db, &s, &grid, TileMapScheme::RoundRobin, 6).unwrap();
        let (cand, _) = merge_partitions(&db, &rp, &sp, &JoinConfig::default()).unwrap();
        let outcome = refinement_step(
            &db,
            &cand,
            &r,
            &s,
            SpatialPredicate::Intersects,
            &RefineOptions::default(),
            130 * 1024, // drives r_budget to its 64 KiB floor
        )
        .unwrap();
        assert_eq!(
            outcome.pairs,
            brute_exact(&db, &r, &s, SpatialPredicate::Intersects)
        );
    }

    #[test]
    fn stored_mer_fast_accepts() {
        use pbsm_geom::mer::maximal_enclosed_rect;
        use pbsm_geom::polygon::Ring;
        use pbsm_geom::{Point, Polygon};
        fn square(x0: f64, s: f64) -> Polygon {
            let c = [(x0, x0), (x0 + s, x0), (x0 + s, x0 + s), (x0, x0 + s)];
            Polygon::simple(Ring::new(
                c.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            ))
        }
        let outer = square(0.0, 10.0);
        let mer = maximal_enclosed_rect(&outer, 12).unwrap();
        let stored = SpatialTuple {
            mer: Some(mer),
            ..SpatialTuple::new(1, outer.clone().into(), 0)
        };
        let bare = SpatialTuple::new(1, outer.into(), 0);
        let inside = SpatialTuple::new(2, square(3.0, 2.0).into(), 0);
        let straddling = SpatialTuple::new(3, square(8.0, 4.0).into(), 0);
        let contains = SpatialPredicate::Contains;
        let with_mer = RefineOptions {
            plane_sweep: true,
            mer_filter: true,
        };
        // Inner well inside the MER: the fast accept agrees with exact.
        assert!(mer.contains(&inside.geom.mbr()));
        assert!(matches(&stored, &inside, contains, &with_mer));
        // Inner partly outside: falls through to the exact test.
        assert!(!matches(&stored, &straddling, contains, &with_mer));
        // No stored MER, or the filter off: the exact test alone decides.
        assert!(matches(&bare, &inside, contains, &with_mer));
        assert!(matches(
            &stored,
            &inside,
            contains,
            &RefineOptions::default()
        ));
        // The stored MER is trusted as is: a MER the polygon does not
        // really enclose shows the exact test was skipped.
        let unsound = SpatialTuple {
            mer: Some(pbsm_geom::Rect::new(0.0, 0.0, 20.0, 20.0)),
            ..bare.clone()
        };
        assert!(matches(&unsound, &straddling, contains, &with_mer));
        assert!(!matches(
            &unsound,
            &straddling,
            contains,
            &RefineOptions::default()
        ));
    }

    #[test]
    fn naive_and_sweep_refinement_agree() {
        let db = Db::new(DbConfig::with_pool_mb(2));
        let r = load_relation(&db, "r", &mk_tuples(200, 21, 25.0), false).unwrap();
        let s = load_relation(&db, "s", &mk_tuples(200, 23, 25.0), false).unwrap();
        let grid = TileGrid::new(r.universe.union(&s.universe), 64);
        let rp = partition_input(&db, &r, &grid, TileMapScheme::Hash, 2).unwrap();
        let sp = partition_input(&db, &s, &grid, TileMapScheme::Hash, 2).unwrap();
        let (cand, _) = merge_partitions(&db, &rp, &sp, &JoinConfig::default()).unwrap();
        let sweep = refinement_step(
            &db,
            &cand,
            &r,
            &s,
            SpatialPredicate::Intersects,
            &RefineOptions {
                plane_sweep: true,
                mer_filter: false,
            },
            1 << 20,
        )
        .unwrap();
        let naive = refinement_step(
            &db,
            &cand,
            &r,
            &s,
            SpatialPredicate::Intersects,
            &RefineOptions {
                plane_sweep: false,
                mer_filter: false,
            },
            1 << 20,
        )
        .unwrap();
        assert_eq!(sweep.pairs, naive.pairs);
    }
}

//! The PBSM join driver (§3).
//!
//! Components are tracked to mirror Figure 12's breakdown: "Partition
//! <left>", "Partition <right>", "Merge Partitions", "Refinement Step".

use crate::cost::CostTracker;
use crate::filter::{merge_pairs, merge_partitions, partition_input, Partitioned};
use crate::keyptr::{encode_pair, KEY_PTR_SIZE, OID_PAIR_SIZE};
use crate::partition::{partition_count, TileGrid};
use crate::recover::{degraded_work_mem, join_fingerprint};
use crate::refine::refine_candidates;
use crate::{JoinConfig, JoinOutcome, JoinSpec, JoinStats};
use pbsm_storage::catalog::RelationMeta;
use pbsm_storage::extsort::SortCheckpoint;
use pbsm_storage::journal::{JoinResume, JournalRecord};
use pbsm_storage::record::RecordFile;
use pbsm_storage::{Db, Snapshot, StorageError, StorageResult};
use std::collections::{BTreeMap, BTreeSet};

/// Runs the Partition Based Spatial-Merge join.
///
/// On `DiskFull` (device out of space during partitioning, the candidate
/// merge, or the refinement sort) the driver degrades instead of aborting:
/// the failed attempt's temp files are released, work memory is halved and
/// the partition floor doubled, and the whole filter + refinement pipeline
/// re-runs — up to `config.recovery.max_attempts` total attempts. Any
/// other error, and `DiskFull` past the budget, surfaces unchanged.
pub fn pbsm_join(db: &Db, spec: &JoinSpec, config: &JoinConfig) -> StorageResult<JoinOutcome> {
    pbsm_join_resume(db, spec, config, None)
}

/// [`pbsm_join`] against a read snapshot — the serving-thread entry
/// point. PBSM reads the catalog, never writes it; its partition and
/// candidate temp files are private to the running query, so concurrent
/// joins over the shared pool do not interact. Never resumes from
/// checkpoints (serving instances run unjournaled).
pub fn pbsm_join_at(
    snap: Snapshot<'_>,
    spec: &JoinSpec,
    config: &JoinConfig,
) -> StorageResult<JoinOutcome> {
    pbsm_join_resume(snap.db(), spec, config, None)
}

/// [`pbsm_join`], optionally resuming from crash checkpoints surfaced by
/// [`pbsm_storage::Db::recover`].
///
/// When the database journals intents (`DbConfig::journal`), every attempt
/// journals a `JoinBegin` carrying a fingerprint of its plan shape, each
/// completed partition-pair sweep and refinement sort run is checkpointed,
/// and a `JoinEnd` retires the checkpoints on success. A caller restarting
/// after a crash passes the recovered [`JoinResume`]; the driver reuses
/// checkpoints only when the restarted plan's fingerprint and partition
/// count match what was journaled — otherwise the checkpoint files are
/// destroyed and the join runs from scratch. Either way the result is
/// identical to an uninterrupted run.
pub fn pbsm_join_resume(
    db: &Db,
    spec: &JoinSpec,
    config: &JoinConfig,
    resume: Option<&JoinResume>,
) -> StorageResult<JoinOutcome> {
    let mut guard = Some(pbsm_obs::span(format!(
        "pbsm join {} ⋈ {}",
        spec.left, spec.right
    )));
    let (left, right) = {
        let cat = db.catalog();
        (
            cat.relation(&spec.left)?.clone(),
            cat.relation(&spec.right)?.clone(),
        )
    };
    let max_attempts = config.recovery.max_attempts.max(1);
    let mut work_mem = config.work_mem_bytes;
    let mut min_partitions = 1usize;
    let mut attempt_no = 1u32;
    let mut resume = resume;
    loop {
        // Equation 1 sizes the partition set from catalog cardinalities;
        // a degraded re-run additionally forces more partitions than the
        // failed attempt used.
        let p = partition_count(left.cardinality, right.cardinality, KEY_PTR_SIZE, work_mem)
            .max(min_partitions);
        let outcome = attempt(db, spec, config, &left, &right, work_mem, p, resume.take());
        match outcome {
            Err(e) if e.is_disk_full() && attempt_no < max_attempts => {
                pbsm_obs::cached_counter!("pbsm.recover.enospc_retries").incr();
                pbsm_obs::flight::record(
                    pbsm_obs::flight::EventKind::Degrade,
                    "halve work_mem",
                    work_mem as u64,
                    p as u64,
                );
                min_partitions = (p * 2).max(2);
                work_mem = degraded_work_mem(work_mem);
                attempt_no += 1;
            }
            Err(e) => {
                if e.is_disk_full() {
                    pbsm_obs::cached_counter!("pbsm.recover.exhausted").incr();
                }
                return Err(e);
            }
            Ok(mut out) => {
                out.stats.recovery_retries = (attempt_no - 1) as u64;
                // The budget the successful attempt really ran under —
                // after degradation this is smaller than configured.
                out.stats.peak_work_mem_pages = (work_mem / pbsm_storage::PAGE_SIZE).max(1) as u64;
                if let Some(g) = guard.take() {
                    let record = g.finish();
                    let profile = crate::profile::build_join_profile(
                        "pbsm",
                        &format!("{} ⋈ {}", spec.left, spec.right),
                        &db.config().disk,
                        &record,
                        &out.report,
                        &out.stats,
                    );
                    pbsm_obs::profile::publish(profile.clone());
                    out.profile = Some(profile);
                    crate::telemetry::query_complete(
                        crate::telemetry::QueryClass::Pbsm,
                        record.delta(pbsm_obs::names::DISK_IO_NS),
                    );
                }
                return Ok(out);
            }
        }
    }
}

/// Every temp file one attempt creates or inherits. [`attempt`] destroys
/// them explicitly — the partition files as soon as the merge has read
/// them, everything else on its way out whatever the outcome — never in
/// `Drop`, where swallowed errors can hide a crash (DESIGN.md §15).
#[derive(Default)]
struct Ledger {
    /// Both inputs' partition files, until the merge has read them.
    partitions: Vec<Partitioned>,
    /// Candidate files by pair index, in pair order: one file for an
    /// unjournaled merge, one per pair when journaled (resumed pairs'
    /// files inherited from crash checkpoints).
    candidates: BTreeMap<u32, RecordFile>,
    /// Resumed sort-run checkpoints, until the refinement sort takes them
    /// over (it destroys them itself on every path).
    runs: Vec<RecordFile>,
}

impl Ledger {
    fn destroy_partitions(&mut self, db: &Db) {
        for parts in self.partitions.drain(..) {
            parts.destroy(db);
        }
    }

    fn destroy(mut self, db: &Db) {
        self.destroy_partitions(db);
        for f in self.candidates.into_values().chain(self.runs) {
            f.destroy(db.pool());
        }
    }
}

/// Everything journal-specific about one attempt on a journaled `Db`: the
/// `JoinBegin`/`JoinEnd` bracket, the accepted checkpoints, and a flushed
/// checkpoint per completed pair sweep and refinement sort run.
struct Checkpoints {
    join_id: u64,
    /// Pairs whose candidate files were recovered from checkpoints.
    resumed: BTreeSet<u32>,
}

impl Checkpoints {
    /// Journals `JoinBegin` for the plan fingerprinted `join_id`. A
    /// `resume` whose fingerprint and partition count match the plan is
    /// accepted: its files join `ledger`, and its checkpoints are
    /// re-journaled under the fresh `JoinBegin` *before* any expensive
    /// work, so a second crash mid-partitioning still finds them. Files
    /// of a rejected resume are destroyed; each destroy journals a
    /// `TempDropped`, so the journal itself records the invalidation.
    fn begin(
        db: &Db,
        join_id: u64,
        p: usize,
        resume: Option<&JoinResume>,
        ledger: &mut Ledger,
    ) -> StorageResult<Self> {
        let accepted = resume.filter(|r| r.fingerprint == join_id && r.partitions == p as u32);
        // Run checkpoints are sound only when *every* pair was
        // checkpointed: the refinement sort reads all pair files in index
        // order as one stream, so one re-swept pair would shift that
        // stream under the resumed runs' skip offsets.
        let runs_usable = accepted.is_some_and(|r| r.pairs.len() == p);
        if let Some(r) = resume {
            for pc in &r.pairs {
                let f = RecordFile::open(pc.file, OID_PAIR_SIZE, pc.count);
                if accepted.is_some() {
                    ledger.candidates.insert(pc.index, f);
                } else {
                    f.destroy(db.pool());
                }
            }
            for rc in &r.runs {
                let f = RecordFile::open(rc.file, OID_PAIR_SIZE, rc.count);
                if runs_usable {
                    ledger.runs.push(f);
                } else {
                    f.destroy(db.pool());
                }
            }
        }
        db.pool().journal_append(JournalRecord::JoinBegin {
            join_id,
            fingerprint: join_id,
            partitions: p as u32,
        })?;
        if let Some(r) = accepted {
            pbsm_obs::cached_counter!("pbsm.resume.joins").incr();
            for pc in &r.pairs {
                db.pool().journal_append(JournalRecord::PairDone {
                    join_id,
                    pair_index: pc.index,
                    file: pc.file,
                    count: pc.count,
                })?;
            }
            for rc in r.runs.iter().filter(|_| runs_usable) {
                db.pool().journal_append(JournalRecord::RunDone {
                    join_id,
                    run_index: rc.index,
                    file: rc.file,
                    count: rc.count,
                })?;
            }
        }
        Ok(Checkpoints {
            join_id,
            resumed: ledger.candidates.keys().copied().collect(),
        })
    }

    /// Should the pair loop skip pair `i`? True when it was resumed.
    fn skip_pair(&self, i: u32) -> bool {
        let resumed = self.resumed.contains(&i);
        if resumed {
            pbsm_obs::cached_counter!("pbsm.resume.pairs_skipped").incr();
        }
        resumed
    }

    /// Checkpoints pair `i`'s finished candidate file. Durability comes
    /// first: the journal record must never claim candidates the disk
    /// does not hold.
    fn pair_done(&self, db: &Db, i: u32, file: &RecordFile) -> StorageResult<()> {
        db.pool().flush_file(file.file_id())?;
        db.pool().journal_append(JournalRecord::PairDone {
            join_id: self.join_id,
            pair_index: i,
            file: file.file_id(),
            count: file.count(),
        })
    }

    /// Checkpoints a refinement sort run (the sort flushed it already).
    fn run_done(&self, db: &Db, index: u32, run: &RecordFile) -> StorageResult<()> {
        db.pool().journal_append(JournalRecord::RunDone {
            join_id: self.join_id,
            run_index: index,
            file: run.file_id(),
            count: run.count(),
        })
    }

    /// Retires every checkpoint of the attempt.
    fn end(self, db: &Db) -> StorageResult<()> {
        db.pool().journal_append(JournalRecord::JoinEnd {
            join_id: self.join_id,
        })
    }
}

/// One full filter + refinement pass with `p` partitions under `work_mem`.
///
/// On a journaled `Db` the pass runs under a [`Checkpoints`] sink: resumed
/// pairs are skipped, and each pair's candidates go to their own flushed,
/// checkpointed file, which the refinement sort reads in pair order.
/// Unjournaled, all candidates go to one file. Every temp file the pass
/// creates or inherits is held in one [`Ledger`] and destroyed right here
/// on every path, so a degraded re-run (and the hard capacity budget)
/// starts from a clean disk.
#[allow(clippy::too_many_arguments)]
fn attempt(
    db: &Db,
    spec: &JoinSpec,
    config: &JoinConfig,
    left: &RelationMeta,
    right: &RelationMeta,
    work_mem: usize,
    p: usize,
    resume: Option<&JoinResume>,
) -> StorageResult<JoinOutcome> {
    // Degraded attempts run the whole pipeline (including the merge's
    // dynamic-repartition threshold) under the reduced work memory.
    let config = &JoinConfig {
        work_mem_bytes: work_mem,
        ..config.clone()
    };
    let join_id = db.pool().journal_enabled().then(|| {
        join_fingerprint(
            &left.name,
            &right.name,
            left.cardinality,
            right.cardinality,
            spec.predicate,
            p,
            work_mem,
            config.num_tiles,
        )
    });
    let mut ledger = Ledger::default();
    let run = |ledger: &mut Ledger| -> StorageResult<(JoinOutcome, Option<Checkpoints>)> {
        let mut tracker = CostTracker::new();
        let mut stats = JoinStats::default();
        let sink = match join_id {
            Some(id) => Some(Checkpoints::begin(db, id, p, resume, ledger)?),
            None => None,
        };

        // The grid uses at least the configured tile count ("NT is
        // greater than or equal to P").
        let universe = left.universe.union(&right.universe);
        let grid = TileGrid::new(universe, config.num_tiles.max(p));
        stats.partitions = p;
        stats.tiles = grid.num_tiles() as usize;

        // Filter step, phase 1: partition both inputs (never
        // checkpointed — partition files are cheap to rebuild relative to
        // sweeps and sorts).
        for rel in [left, right] {
            let parts = tracker.run(&format!("partition {}", rel.name), || {
                partition_input(db, rel, &grid, config.tile_map, p)
            })?;
            stats.input_elements += parts.input_elements;
            stats.replicated_elements += parts.replicated_elements;
            ledger.partitions.push(parts);
        }

        // Filter step, phase 2: plane-sweep merge of each partition pair,
        // into one candidate file or, journaled, one checkpointed file per
        // pair.
        let [lp, rp] = ledger.partitions.as_slice() else {
            return Err(StorageError::Corrupt("attempt lost a partitioned input"));
        };
        let candidates = &mut ledger.candidates;
        let merged = tracker.run("merge partitions", || match &sink {
            None => {
                let (out, _) = merge_partitions(db, lp, rp, config)?;
                candidates.insert(0, out);
                Ok(())
            }
            Some(sink) => merge_pairs(
                db,
                lp,
                rp,
                config,
                |i| sink.skip_pair(i),
                |i, pairs| {
                    let out = RecordFile::create(db.pool(), OID_PAIR_SIZE)?;
                    let out = &*candidates.entry(i).or_insert(out);
                    let mut writer = out.writer(db.pool());
                    for (ro, so) in pairs {
                        writer.push(&encode_pair(*ro, *so))?;
                    }
                    writer.finish()?;
                    sink.pair_done(db, i, out)
                },
            ),
        });
        ledger.destroy_partitions(db);
        merged?;
        stats.resumed_pairs = sink.as_ref().map_or(0, |s| s.resumed.len() as u64);

        // Refinement step: the sort reads the candidate files in pair
        // order as one stream.
        let runs = std::mem::take(&mut ledger.runs);
        stats.resumed_runs = runs.len() as u64;
        if !runs.is_empty() {
            pbsm_obs::cached_counter!("pbsm.resume.runs_skipped").add(runs.len() as u64);
        }
        let candidates: Vec<&RecordFile> = ledger.candidates.values().collect();
        stats.candidates = candidates.iter().map(|f| f.count()).sum();
        let refined = tracker.run("refinement step", || {
            let mut on_run = |index: u32, run: &RecordFile| match &sink {
                Some(sink) => sink.run_done(db, index, run),
                None => Ok(()),
            };
            let ckpt = sink.is_some().then_some(SortCheckpoint {
                resume_runs: runs,
                on_run: &mut on_run,
            });
            refine_candidates(
                db,
                &candidates,
                left,
                right,
                spec.predicate,
                &config.refine,
                work_mem,
                ckpt,
            )
        })?;
        stats.unique_candidates = refined.unique_candidates;
        stats.results = refined.pairs.len() as u64;
        let out = JoinOutcome {
            pairs: refined.pairs,
            report: tracker.finish(),
            stats,
            profile: None,
        };
        Ok((out, sink))
    };
    let result = run(&mut ledger);
    if result.is_ok() && crate::telemetry::force_temp_leak() {
        // Test hook: leak the candidate files so the leak sentinel has a
        // genuine monotonic drift to detect. Journaled, the skipped
        // `TempDropped` records also leave intents open, so the
        // journal-length leak axis drifts alongside live pages.
        ledger.candidates.clear();
    }
    ledger.destroy(db);
    let (out, sink) = result?;
    if let Some(sink) = sink {
        sink.end(db)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::load_relation;
    use pbsm_geom::predicates::SpatialPredicate;
    use pbsm_storage::tuple::SpatialTuple;
    use pbsm_storage::DbConfig;

    fn mk_tuples(n: usize, seed: u64) -> Vec<SpatialTuple> {
        crate::testgen::mk_tuples(n, seed, 80.0, 3, 1.0, -0.5, 24)
    }

    #[test]
    fn pbsm_end_to_end() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        load_relation(&db, "road", &mk_tuples(700, 3), false).unwrap();
        load_relation(&db, "hydro", &mk_tuples(500, 9), false).unwrap();
        let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
        // Small work memory to force several partitions.
        let config = JoinConfig {
            work_mem_bytes: 16 * 1024,
            num_tiles: 128,
            ..JoinConfig::default()
        };
        let out = pbsm_join(&db, &spec, &config).unwrap();
        assert!(
            out.stats.partitions >= 2,
            "partitions {}",
            out.stats.partitions
        );
        assert!(out.stats.results > 0);
        assert!(out.stats.candidates >= out.stats.unique_candidates);
        assert!(out.stats.unique_candidates >= out.stats.results);
        // Components present and in Figure-12 shape.
        let names: Vec<&str> = out
            .report
            .components
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "partition road",
                "partition hydro",
                "merge partitions",
                "refinement step"
            ]
        );
        // Data this small stays resident in a 2 MB pool, so physical I/O
        // may legitimately be zero; CPU time must not be.
        assert!(out.report.total_cpu_s() > 0.0);
    }

    #[test]
    fn pbsm_in_memory_single_partition() {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(8));
        load_relation(&db, "a", &mk_tuples(200, 5), false).unwrap();
        load_relation(&db, "b", &mk_tuples(200, 7), false).unwrap();
        let out = pbsm_join(
            &db,
            &JoinSpec::new("a", "b", SpatialPredicate::Intersects),
            &JoinConfig::for_db(&db),
        )
        .unwrap();
        assert_eq!(out.stats.partitions, 1);
        assert_eq!(out.stats.candidates, out.stats.unique_candidates);
        assert!(out.stats.results > 0);
    }

    #[test]
    fn journaled_join_matches_plain_and_retires_checkpoints() {
        let mk = |journal: bool| {
            let db = pbsm_storage::Db::new(DbConfig {
                journal,
                ..DbConfig::with_pool_mb(2)
            });
            load_relation(&db, "road", &mk_tuples(700, 3), false).unwrap();
            load_relation(&db, "hydro", &mk_tuples(500, 9), false).unwrap();
            db
        };
        let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
        let config = JoinConfig {
            work_mem_bytes: 16 * 1024,
            num_tiles: 128,
            ..JoinConfig::default()
        };
        let plain = pbsm_join(&mk(false), &spec, &config).unwrap();
        let db = mk(true);
        let out = pbsm_join(&db, &spec, &config).unwrap();
        // The journal claims file 0, shifting every heap file id by one;
        // compare the (page, slot) identity of each result pair instead.
        let strip = |pairs: &[(pbsm_storage::Oid, pbsm_storage::Oid)]| -> Vec<[u64; 2]> {
            pairs
                .iter()
                .map(|(a, b)| [a.raw() & 0xFFFF_FFFF_FFFF, b.raw() & 0xFFFF_FFFF_FFFF])
                .collect()
        };
        assert_eq!(strip(&out.pairs), strip(&plain.pairs));
        assert_eq!(out.stats.candidates, plain.stats.candidates);
        assert_eq!(out.stats.unique_candidates, plain.stats.unique_candidates);
        assert_eq!(out.stats.resumed_pairs, 0);
        assert_eq!(out.stats.resumed_runs, 0);
        // The JoinEnd record retired every checkpoint: recovery over this
        // disk finds no join in flight and nothing to reclaim.
        let cfg = db.config();
        let (_db2, state) = pbsm_storage::Db::recover(cfg, db.into_disk()).unwrap();
        assert_eq!(state.orphan_files, 0);
        assert_eq!(state.orphan_pages, 0);
        assert!(state.join.is_none());
    }

    #[test]
    fn pbsm_identity_join_contains_diagonal() {
        // Joining a relation with itself: every tuple pairs with itself.
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(4));
        load_relation(&db, "x", &mk_tuples(150, 13), false).unwrap();
        load_relation(&db, "y", &mk_tuples(150, 13), false).unwrap(); // same seed
        let out = pbsm_join(
            &db,
            &JoinSpec::new("x", "y", SpatialPredicate::Intersects),
            &JoinConfig::for_db(&db),
        )
        .unwrap();
        assert!(out.stats.results >= 150);
    }
}

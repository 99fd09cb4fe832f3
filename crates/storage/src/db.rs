//! The database handle tying disk, buffer pool, and catalog together.
//!
//! With `DbConfig::journal` enabled, the handle also owns the
//! crash-consistency story: [`Db::new`] claims file 0 for the intent
//! journal, and [`Db::recover`] rebuilds a usable instance from whatever
//! a crashed process left on the disk — reclaiming un-committed files and
//! surfacing the interrupted join's checkpoints as a [`RecoveredState`].

use crate::buffer::{BufferPool, ReplacementPolicy};
use crate::catalog::Catalog;
use crate::disk::{DiskModel, DiskStats, SimDisk};
use crate::fault::{FaultConfig, RetryPolicy};
use crate::journal::{JoinResume, Journal, JournalRecord, RecoveredState};
use crate::lockcheck::{self, LockId, Tracked};
use crate::page::FileId;
use crate::StorageResult;
use pbsm_obs as obs;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Configuration for a [`Db`] instance.
#[derive(Clone, Copy, Debug)]
pub struct DbConfig {
    /// Buffer pool size in bytes (the paper varies 2/8/24 MB).
    pub buffer_pool_bytes: usize,
    /// Disk timing model.
    pub disk: DiskModel,
    /// SHORE-style sorted write-behind (§4.6). Default on.
    pub sorted_flush: bool,
    /// Seeded fault schedule installed at creation. `None` (the default)
    /// is a perfect device; chaos runs install one after loading data via
    /// [`SimDisk::set_faults`].
    pub faults: Option<FaultConfig>,
    /// Bounded deterministic retry budget for transient faults.
    pub retry: RetryPolicy,
    /// Crash consistency: claim file 0 for the intent journal and log
    /// every file-lifecycle intent and join checkpoint through it.
    /// Default off — journaling shifts file ids and adds writes, and the
    /// gated deterministic benchmarks must stay byte-identical.
    pub journal: bool,
    /// Buffer-pool victim selection. Default [`ReplacementPolicy::Clock`]
    /// — the policy the gated deterministic counter streams were recorded
    /// under; [`ReplacementPolicy::Lru`] selects the exact-LRU list.
    pub replacement: ReplacementPolicy,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffer_pool_bytes: 24 * 1024 * 1024,
            disk: DiskModel::default(),
            sorted_flush: true,
            faults: None,
            retry: RetryPolicy::default(),
            journal: false,
            replacement: ReplacementPolicy::default(),
        }
    }
}

impl DbConfig {
    /// Convenience constructor with the pool size in megabytes.
    pub fn with_pool_mb(mb: usize) -> Self {
        DbConfig {
            buffer_pool_bytes: mb * 1024 * 1024,
            ..DbConfig::default()
        }
    }
}

/// Resting levels of the resources the leak sentinels watch, captured
/// from the engine's own state (disk allocator, page table, journal) so
/// a baseline never depends on metric-flush timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryBaseline {
    /// Pages allocated across all live files.
    pub live_pages: u64,
    /// Pages currently mapped to a buffer-pool frame.
    pub pool_occupied: u64,
    /// Journaled temp files awaiting a drop or commit.
    pub journal_open_intents: u64,
    /// Pages held by the append-only journal file itself. The journal
    /// legitimately grows forever, so leak math over `live_pages`
    /// subtracts this.
    pub journal_pages: u64,
}

/// An in-process spatial database instance: simulated disk + buffer pool +
/// catalog. All structures (heap files, record files, R*-trees) operate
/// through [`Db::pool`].
///
/// `Db` is `Sync`: N serving threads may share one instance through
/// [`Db::read_snapshot`] handles, running queries concurrently against
/// the shared buffer pool (see the lock-ordering notes in
/// [`crate::buffer`]).
pub struct Db {
    pool: BufferPool,
    catalog: RwLock<Catalog>,
    config: DbConfig,
}

impl Db {
    /// Creates an empty database.
    pub fn new(config: DbConfig) -> Self {
        let mut disk = SimDisk::new(config.disk);
        disk.set_faults(config.faults);
        // The journal must claim file 0 before anything else exists.
        let journal = config.journal.then(|| Journal::create(&mut disk));
        let pool = BufferPool::new(config.buffer_pool_bytes, disk);
        pool.set_sorted_flush(config.sorted_flush);
        pool.set_retry_policy(config.retry);
        pool.set_replacement_policy(config.replacement);
        if let Some(j) = journal {
            pool.install_journal(j);
        }
        Db {
            pool,
            catalog: RwLock::new(Catalog::new()),
            config,
        }
    }

    /// Rebuilds a database from a disk a crashed process left behind.
    ///
    /// Clears the crash poison, scans the intent journal (tolerating a
    /// torn tail), and reclaims every file that is neither the journal,
    /// nor committed, nor a checkpoint of the join that was in flight —
    /// restoring the `live_pages` accounting a dead process could not.
    /// The catalog is volatile (it lived in the crashed process's
    /// memory), so callers re-register their relations; only committed
    /// heap files have durable data to re-register *onto*.
    pub fn recover(config: DbConfig, mut disk: SimDisk) -> StorageResult<(Db, RecoveredState)> {
        obs::flight::record(
            obs::flight::EventKind::RecoveryDecision,
            "recover start",
            disk.num_files() as u64,
            disk.live_pages(),
        );
        disk.clear_crash();
        disk.set_faults(config.faults);
        if !config.journal || disk.num_files() == 0 {
            // Nothing journaled, nothing to reconcile: a fresh instance
            // over the surviving disk.
            let pool = BufferPool::new(config.buffer_pool_bytes, disk);
            pool.set_sorted_flush(config.sorted_flush);
            pool.set_retry_policy(config.retry);
            pool.set_replacement_policy(config.replacement);
            let db = Db {
                pool,
                catalog: RwLock::new(Catalog::new()),
                config,
            };
            return Ok((db, RecoveredState::default()));
        }

        let (journal, records) = Journal::open_at_tail(&mut disk)?;
        let jfile = journal.file_id();

        // Replay the intent log: which files were committed, which were
        // dropped, and what the in-flight join had checkpointed.
        let mut committed: BTreeSet<FileId> = BTreeSet::new();
        let mut cur: Option<JoinResume> = None;
        let mut pairs: BTreeMap<u32, crate::journal::PairCkpt> = BTreeMap::new();
        let mut runs: BTreeMap<u32, crate::journal::RunCkpt> = BTreeMap::new();
        for rec in &records {
            match *rec {
                JournalRecord::TempCreated { .. } => {}
                JournalRecord::TempDropped { file } => {
                    committed.remove(&file);
                    // A dropped file invalidates any checkpoint naming it.
                    pairs.retain(|_, c| c.file != file);
                    runs.retain(|_, c| c.file != file);
                }
                JournalRecord::Committed { file } => {
                    committed.insert(file);
                }
                JournalRecord::JoinBegin {
                    join_id,
                    fingerprint,
                    partitions,
                } => {
                    cur = Some(JoinResume {
                        join_id,
                        fingerprint,
                        partitions,
                        pairs: Vec::new(),
                        runs: Vec::new(),
                    });
                    pairs.clear();
                    runs.clear();
                }
                JournalRecord::PairDone {
                    join_id,
                    pair_index,
                    file,
                    count,
                } => {
                    if cur.as_ref().is_some_and(|j| j.join_id == join_id) {
                        pairs.insert(
                            pair_index,
                            crate::journal::PairCkpt {
                                index: pair_index,
                                file,
                                count,
                            },
                        );
                    }
                }
                JournalRecord::RunDone {
                    join_id,
                    run_index,
                    file,
                    count,
                } => {
                    if cur.as_ref().is_some_and(|j| j.join_id == join_id) {
                        runs.insert(
                            run_index,
                            crate::journal::RunCkpt {
                                index: run_index,
                                file,
                                count,
                            },
                        );
                    }
                }
                JournalRecord::JoinEnd { join_id } => {
                    if cur.as_ref().is_some_and(|j| j.join_id == join_id) {
                        cur = None;
                        pairs.clear();
                        runs.clear();
                    }
                }
            }
        }
        if let Some(j) = cur.as_mut() {
            obs::flight::record(
                obs::flight::EventKind::RecoveryDecision,
                "join in flight",
                j.join_id,
                j.partitions as u64,
            );
            j.pairs = pairs.into_values().collect();
            j.runs = runs.into_values().collect();
            // A checkpoint whose file the disk no longer holds is useless.
            j.pairs.retain(|c| !disk.is_dropped(c.file));
            j.runs.retain(|c| !disk.is_dropped(c.file));
            // Sort resume skips a single input prefix sized by the sum of
            // the resumed runs' counts, so run checkpoints are usable only
            // as a contiguous prefix of run indices. A gap — e.g. the
            // crash landed mid-merge, after early runs were already
            // destroyed — invalidates every checkpoint after it; the
            // stranded files fall through to orphan reclamation below.
            let prefix = j
                .runs
                .iter()
                .enumerate()
                .take_while(|(i, c)| c.index == *i as u32)
                .count();
            j.runs.truncate(prefix);
            obs::flight::record(
                obs::flight::EventKind::RecoveryDecision,
                "checkpoints trusted",
                j.pairs.len() as u64,
                j.runs.len() as u64,
            );
        }

        // Protected files: the journal itself, committed relations, and
        // the in-flight join's checkpoints. Everything else is garbage a
        // dead process could not clean up.
        let mut keep: BTreeSet<FileId> = committed;
        keep.insert(jfile);
        if let Some(j) = &cur {
            keep.extend(j.pairs.iter().map(|c| c.file));
            keep.extend(j.runs.iter().map(|c| c.file));
        }
        let mut state = RecoveredState {
            join: cur,
            ..RecoveredState::default()
        };
        let mut reclaimed: Vec<FileId> = Vec::new();
        for n in 0..disk.num_files() {
            let file = FileId(n);
            if keep.contains(&file) || disk.is_dropped(file) {
                continue;
            }
            let pages = disk.num_pages(file) as u64;
            disk.drop_file(file);
            reclaimed.push(file);
            if pages > 0 {
                state.orphan_files += 1;
                state.orphan_pages += pages;
                obs::flight::record(
                    obs::flight::EventKind::RecoveryDecision,
                    "reclaim orphan",
                    file.0 as u64,
                    pages,
                );
            }
        }
        obs::cached_counter!("storage.journal.recovered_files").add(state.orphan_files);
        obs::cached_counter!("storage.journal.recovered_pages").add(state.orphan_pages);

        let pool = BufferPool::new(config.buffer_pool_bytes, disk);
        pool.set_sorted_flush(config.sorted_flush);
        pool.set_retry_policy(config.retry);
        pool.set_replacement_policy(config.replacement);
        pool.install_journal(journal);
        // Record the reclaims so a second crash-recover cycle does not
        // re-count (or re-trust checkpoints in) the same files.
        for file in reclaimed {
            pool.journal_append(JournalRecord::TempDropped { file })?;
        }
        let db = Db {
            pool,
            catalog: RwLock::new(Catalog::new()),
            config,
        };
        Ok((db, state))
    }

    /// The buffer pool (and through it, the disk).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Read access to the catalog. Many readers may hold this at once;
    /// scope the guard tightly (clone the metas out) — holding it across
    /// a whole query would block registrations on other threads.
    pub fn catalog(&self) -> Tracked<RwLockReadGuard<'_, Catalog>> {
        lockcheck::read(&self.catalog, LockId::Catalog)
    }

    /// Write access to the catalog (registration / index bookkeeping).
    pub fn catalog_mut(&self) -> Tracked<RwLockWriteGuard<'_, Catalog>> {
        lockcheck::write(&self.catalog, LockId::Catalog)
    }

    /// A read-only handle for a serving thread.
    ///
    /// `Snapshot` is `Copy + Send`: hand one to each worker in a
    /// `thread::scope` and run queries against it concurrently through
    /// `pbsm_join::execute_at`.
    /// The name states the contract, not an MVCC implementation: the
    /// serving layer is read-only over loaded-then-immutable relations
    /// (the paper's workload), so every read observes the same data and
    /// snapshot isolation holds trivially. Handles borrow the `Db`, so
    /// the instance cannot be torn down while any are live.
    pub fn read_snapshot(&self) -> Snapshot<'_> {
        Snapshot { db: self }
    }

    /// The configuration this instance was created with.
    pub fn config(&self) -> DbConfig {
        self.config
    }

    /// Cumulative disk counters.
    pub fn disk_stats(&self) -> DiskStats {
        self.pool.disk_stats()
    }

    /// Point-in-time resting levels of the leak-sentinel axes, read
    /// from the authoritative engine state (not the metric registry).
    /// The soak harness captures this once after warmup and holds each
    /// sentinel to it.
    pub fn telemetry_baseline(&self) -> TelemetryBaseline {
        let (_, _, mapped) = self.pool.frame_census();
        let journal_pages = self
            .pool
            .journal_file()
            .map_or(0, |f| self.pool.disk().num_pages(f) as u64);
        // Each reading in its own statement: a disk guard living to the
        // end of a struct literal would overlap the journal lock inside
        // `journal_open_intents`, inverting the declared journal → disk
        // order (the lockcheck sentinel caught exactly that here).
        let live_pages = self.pool.disk().live_pages();
        let journal_open_intents = self.pool.journal_open_intents();
        TelemetryBaseline {
            live_pages,
            pool_occupied: mapped as u64,
            journal_open_intents,
            journal_pages,
        }
    }

    /// Pages held by all live (non-dropped) files — what
    /// [`SimDisk::live_pages`] must equal when the allocator's
    /// accounting reconciles. Crash/shard audits assert
    /// `live_pages() == held_pages()` on every engine.
    pub fn held_pages(&self) -> u64 {
        let disk = self.pool.disk();
        (0..disk.num_files())
            .map(FileId)
            .filter(|f| !disk.is_dropped(*f))
            .map(|f| disk.num_pages(f) as u64)
            .sum()
    }

    /// Tears the instance down, discarding all volatile state (cached
    /// frames, catalog), and returns the disk — the crash harness's
    /// "kill -9". Feed the result to [`Db::recover`].
    pub fn into_disk(self) -> SimDisk {
        self.pool.into_disk()
    }
}

/// A read-only view of a [`Db`] for one serving thread. See
/// [`Db::read_snapshot`].
#[derive(Clone, Copy)]
pub struct Snapshot<'a> {
    db: &'a Db,
}

impl<'a> Snapshot<'a> {
    /// The shared buffer pool.
    pub fn pool(&self) -> &'a BufferPool {
        self.db.pool()
    }

    /// Read access to the shared catalog.
    pub fn catalog(&self) -> Tracked<RwLockReadGuard<'a, Catalog>> {
        self.db.catalog()
    }

    /// The configuration of the underlying instance.
    pub fn config(&self) -> DbConfig {
        self.db.config()
    }

    /// Cumulative disk counters of the underlying instance.
    pub fn disk_stats(&self) -> DiskStats {
        self.db.disk_stats()
    }

    /// The underlying handle, for `pbsm_join::execute_at`, which checks
    /// the serving contract (snapshots never build an index) and then
    /// runs the query through the `&Db` drivers. Deliberately not
    /// `DerefMut`-style sugar: going through `db()` keeps mutation
    /// visibly impossible at the type level in snapshot code.
    pub fn db(&self) -> &'a Db {
        self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapFile;

    #[test]
    fn db_and_snapshot_are_shareable_across_threads() {
        // Compile-time contract of the serving layer: a `&Db` may be
        // shared across threads and snapshot handles may move to them.
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<Db>();
        assert_send::<Snapshot<'static>>();
        assert_sync::<Snapshot<'static>>();
    }

    #[test]
    fn replacement_policy_config_reaches_pool() {
        let cfg = DbConfig {
            replacement: ReplacementPolicy::Lru,
            ..DbConfig::with_pool_mb(2)
        };
        let db = Db::new(cfg);
        assert_eq!(db.pool().replacement_policy(), ReplacementPolicy::Lru);
        // And survives recovery on both recover paths.
        let (db2, _) = Db::recover(cfg, db.into_disk()).unwrap();
        assert_eq!(db2.pool().replacement_policy(), ReplacementPolicy::Lru);
    }

    #[test]
    fn snapshot_bridges_pool_catalog_and_config() {
        let db = Db::new(DbConfig::with_pool_mb(2));
        let snap = db.read_snapshot();
        assert_eq!(snap.config().buffer_pool_bytes, 2 * 1024 * 1024);
        assert_eq!(snap.pool().num_frames(), db.pool().num_frames());
        assert!(snap.catalog().relation("nope").is_err());
        assert_eq!(snap.disk_stats().reads, db.disk_stats().reads);
    }

    #[test]
    fn db_wires_pool_and_catalog() {
        let db = Db::new(DbConfig::with_pool_mb(2));
        assert_eq!(
            db.pool().num_frames(),
            2 * 1024 * 1024 / crate::page::PAGE_SIZE
        );
        let heap = HeapFile::create(db.pool()).unwrap();
        let oid = heap.insert(db.pool(), b"hello").unwrap();
        let mut buf = Vec::new();
        heap.fetch(db.pool(), oid, &mut buf).unwrap();
        assert_eq!(buf, b"hello");
        assert!(db.catalog().relation("nope").is_err());
    }

    #[test]
    fn sorted_flush_config_respected() {
        let cfg = DbConfig {
            sorted_flush: false,
            ..DbConfig::with_pool_mb(2)
        };
        let db = Db::new(cfg);
        assert!(!db.config().sorted_flush);
    }

    fn journaled_cfg() -> DbConfig {
        DbConfig {
            journal: true,
            ..DbConfig::with_pool_mb(2)
        }
    }

    #[test]
    fn journaled_db_claims_file_zero() {
        let db = Db::new(journaled_cfg());
        assert!(db.pool().journal_enabled());
        assert_eq!(db.pool().journal_file(), Some(FileId(0)));
        // The first user file therefore lands at id 1.
        let heap = HeapFile::create(db.pool()).unwrap();
        assert_eq!(heap.file_id(), FileId(1));
    }

    #[test]
    fn recover_reclaims_uncommitted_files_and_keeps_committed() {
        let cfg = journaled_cfg();
        let db = Db::new(cfg);
        let kept = HeapFile::create(db.pool()).unwrap();
        kept.insert(db.pool(), b"durable").unwrap();
        db.pool().commit_intent(kept.file_id()).unwrap();
        let kept_id = kept.file_id();
        // An uncommitted temp with real pages: garbage after the crash.
        let orphan = db.pool().begin_intent().unwrap();
        {
            let (_pid, mut g) = db.pool().new_page(orphan).unwrap();
            g[0] = 1;
        }
        db.pool().flush_file(orphan).unwrap();

        let mut disk = db.into_disk();
        disk.crash_now();
        let (db2, state) = Db::recover(cfg, disk).unwrap();
        assert_eq!(state.orphan_files, 1);
        assert!(state.orphan_pages >= 1);
        assert!(state.join.is_none());
        assert!(db2.pool().disk().is_dropped(orphan));
        assert!(!db2.pool().disk().is_dropped(kept_id));
        // The committed heap's data survived.
        let heap = HeapFile::open(kept_id);
        let mut buf = Vec::new();
        heap.fetch(db2.pool(), crate::Oid::new(kept_id, 0, 0), &mut buf)
            .unwrap();
        assert_eq!(buf, b"durable");
    }

    #[test]
    fn recover_surfaces_join_checkpoints() {
        let cfg = journaled_cfg();
        let db = Db::new(cfg);
        let pair_file = db.pool().begin_intent().unwrap();
        {
            let (_pid, mut g) = db.pool().new_page(pair_file).unwrap();
            g[0] = 9;
        }
        db.pool().flush_file(pair_file).unwrap();
        db.pool()
            .journal_append(JournalRecord::JoinBegin {
                join_id: 77,
                fingerprint: 77,
                partitions: 4,
            })
            .unwrap();
        db.pool()
            .journal_append(JournalRecord::PairDone {
                join_id: 77,
                pair_index: 0,
                file: pair_file,
                count: 12,
            })
            .unwrap();
        let mut disk = db.into_disk();
        disk.crash_now();
        let (db2, state) = Db::recover(cfg, disk).unwrap();
        let join = state.join.expect("in-flight join must surface");
        assert_eq!(join.join_id, 77);
        assert_eq!(join.partitions, 4);
        assert_eq!(join.pairs.len(), 1);
        assert_eq!(join.pairs[0].file, pair_file);
        assert_eq!(join.pairs[0].count, 12);
        // The checkpointed file was protected from reclamation.
        assert!(!db2.pool().disk().is_dropped(pair_file));
    }

    #[test]
    fn recovery_trusts_only_a_contiguous_run_prefix() {
        // Three run checkpoints, then run 0's file is dropped (the crash
        // landed mid-merge). The skip-a-prefix resume contract makes runs
        // 1 and 2 unusable: recovery must discard them and reclaim their
        // files as orphans instead of protecting them.
        let cfg = journaled_cfg();
        let db = Db::new(cfg);
        db.pool()
            .journal_append(JournalRecord::JoinBegin {
                join_id: 9,
                fingerprint: 9,
                partitions: 1,
            })
            .unwrap();
        let mut run_files = Vec::new();
        for idx in 0..3u32 {
            let file = db.pool().begin_intent().unwrap();
            {
                let (_pid, mut g) = db.pool().new_page(file).unwrap();
                g[0] = idx as u8 + 1;
            }
            db.pool().flush_file(file).unwrap();
            db.pool()
                .journal_append(JournalRecord::RunDone {
                    join_id: 9,
                    run_index: idx,
                    file,
                    count: 10,
                })
                .unwrap();
            run_files.push(file);
        }
        db.pool().drop_file(run_files[0]);
        let mut disk = db.into_disk();
        disk.crash_now();
        let (db2, state) = Db::recover(cfg, disk).unwrap();
        let join = state.join.expect("join must surface");
        assert!(join.runs.is_empty(), "gapped runs must be discarded");
        // The stranded run files were reclaimed, not protected.
        assert!(db2.pool().disk().is_dropped(run_files[1]));
        assert!(db2.pool().disk().is_dropped(run_files[2]));
        assert_eq!(state.orphan_files, 2);
    }

    #[test]
    fn join_end_clears_checkpoints() {
        let cfg = journaled_cfg();
        let db = Db::new(cfg);
        db.pool()
            .journal_append(JournalRecord::JoinBegin {
                join_id: 5,
                fingerprint: 5,
                partitions: 2,
            })
            .unwrap();
        db.pool()
            .journal_append(JournalRecord::JoinEnd { join_id: 5 })
            .unwrap();
        let disk = db.into_disk();
        let (_db2, state) = Db::recover(cfg, disk).unwrap();
        assert!(state.join.is_none());
    }
}

//! Sharded scatter-gather joins that survive any single-shard crash
//! mid-query — the ROADMAP's scale-out arc.
//!
//! A [`ShardedDb`] coordinates K **independent** journaled [`Db`] engines.
//! Relations are spatially partitioned across the shards with a two-layer
//! space-oriented assignment (after SOLAR's spatial shards and the
//! two-layer partitioning of arXiv 2307.09256):
//!
//! 1. **Layer 1 — cell ownership.** The joint universe is decomposed into
//!    a regular grid of disjoint cells (reusing the §3.4 [`TileGrid`]);
//!    each cell is owned by exactly one shard via the same deterministic
//!    hash map the PBSM partitioner uses ([`TileMapScheme::Hash`]).
//! 2. **Layer 2 — overlap replication.** Every tuple is stored on every
//!    shard that owns a cell its MBR overlaps, so any two tuples whose
//!    MBRs intersect are co-resident on at least one shard.
//!
//! A result pair is *emitted* only by the shard that owns the cell
//! containing the **reference point** of the two MBRs' intersection —
//! `(max(xl_r, xl_s), max(yl_r, yl_s))`, the intersection's lower-left
//! corner. That point lies inside both MBRs, so both tuples are
//! replicated to its owner (the pair is **total**: some shard emits it),
//! and cells are disjoint with a single owner (the pair is
//! **duplicate-free**: exactly one shard emits it). The merge is then a
//! deterministic concat + sort — no cross-shard dedup pass exists.
//!
//! # Fault domains
//!
//! Each shard is its own fault domain. The scatter runs every per-shard
//! join on a worker thread against that shard's [`Snapshot`]; the
//! coordinator layers three defenses over the storage stack's own fault
//! story:
//!
//! * **Transient faults** — the buffer pool's bounded per-page retry
//!   ([`pbsm_storage::fault::RetryPolicy`]) absorbs what it can; when a
//!   whole join still fails transiently (`TransientRead`/`Write`,
//!   `RetriesExhausted`), the worker re-runs it under the per-shard
//!   [`ShardRetryPolicy`] with deterministic exponential backoff.
//! * **Crashes** — a shard hitting a `crash_at` point mid-join surfaces
//!   [`StorageError::Crashed`] (or a panic, caught by `catch_unwind`).
//!   After the scatter barrier the coordinator recovers *only* that
//!   shard: [`Db::recover`] over the surviving disk image, catalog
//!   re-registration, index rebuild (index files are rebuildable intent
//!   and are reclaimed), then [`execute_at`] with the journal's
//!   checkpoints, which PBSM resumes from and INL and the R-tree join
//!   ignore (they re-run from scratch). Sibling shards are never touched
//!   and their finished results are kept. A crash point that fires
//!   inside a swallowed-error cleanup path — the join answers correctly
//!   from cached frames while its temp drops silently leak on the
//!   poisoned device — is caught too: the gather checks every engine's
//!   poison flag and routes such **zombie shards** through the same
//!   recovery, discarding their results.
//! * **ENOSPC** — the PBSM driver's degradation loop (halved work
//!   memory, more partitions) runs per shard; each shard's
//!   [`JoinStats::recovery_retries`] and `peak_work_mem_pages` report how
//!   degraded that shard's attempt ran.
//!
//! Everything a caller can observe is deterministic: shard assignment is
//! a pure function of the grid and the hash, per-shard joins are the
//! sequential drivers, worker metrics ship home as commutative
//! [`MetricsDelta`]s merged in shard order, and the merged pair list is
//! sorted.
//!
//! [`Snapshot`]: pbsm_storage::Snapshot
//! [`MetricsDelta`]: pbsm_obs::MetricsDelta

use crate::loader::{build_index, extract_entries, load_relation};
use crate::partition::{TileGrid, TileMapScheme};
use crate::query::{execute_at, Algorithm, Query};
use crate::{JoinConfig, JoinOutcome, JoinSpec, JoinStats};
use pbsm_geom::Rect;
use pbsm_obs::names;
use pbsm_storage::catalog::RelationMeta;
use pbsm_storage::journal::JoinResume;
use pbsm_storage::tuple::SpatialTuple;
use pbsm_storage::{Db, DbConfig, StorageError, TelemetryBaseline};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Typed failure taxonomy of the sharded coordinator. Every variant
/// names the shard whose fault domain failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard's join surfaced a storage error the coordinator does not
    /// absorb (not transient, not a crash).
    Storage {
        /// Index of the failing shard.
        shard: usize,
        /// The underlying typed storage error.
        source: StorageError,
    },
    /// A shard worker panicked and the panic was not containable by the
    /// recover-and-resume path (double fault).
    Panicked {
        /// Index of the failing shard.
        shard: usize,
        /// Panic payload text.
        message: String,
    },
    /// Recovering a crashed shard failed — the one outcome that takes
    /// the whole query down, because the shard's slice of the answer is
    /// unreachable.
    RecoveryFailed {
        /// Index of the failing shard.
        shard: usize,
        /// The error recovery (or the post-recovery rebuild) surfaced.
        source: StorageError,
    },
    /// A shard engine was unavailable (already consumed by a failed
    /// recovery) when the coordinator needed it.
    ShardUnavailable {
        /// Index of the missing shard.
        shard: usize,
    },
}

impl ShardError {
    /// The shard whose fault domain produced this error.
    pub fn shard(&self) -> usize {
        match self {
            ShardError::Storage { shard, .. }
            | ShardError::Panicked { shard, .. }
            | ShardError::RecoveryFailed { shard, .. }
            | ShardError::ShardUnavailable { shard } => *shard,
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Storage { shard, source } => {
                write!(f, "shard {shard}: storage error: {source}")
            }
            ShardError::Panicked { shard, message } => {
                write!(f, "shard {shard}: worker panicked: {message}")
            }
            ShardError::RecoveryFailed { shard, source } => {
                write!(f, "shard {shard}: crash recovery failed: {source}")
            }
            ShardError::ShardUnavailable { shard } => {
                write!(f, "shard {shard}: engine unavailable")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Storage { source, .. } | ShardError::RecoveryFailed { source, .. } => {
                Some(source)
            }
            _ => None,
        }
    }
}

/// Whole-join retry budget a shard worker spends on transient faults,
/// layered over the buffer pool's per-page retry
/// ([`pbsm_storage::fault::RetryPolicy`]): when a join still fails with
/// `TransientRead`/`TransientWrite`/`RetriesExhausted`, the worker
/// re-runs it from scratch (failed attempts clean up their temp files on
/// the error path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRetryPolicy {
    /// Total attempts, including the first. `1` disables shard-level
    /// retry.
    pub max_attempts: u32,
    /// Base backoff slept between attempts, doubled per retry (capped at
    /// 64×). `0` (the default) retries immediately — the fault schedule
    /// is deterministic in operation counts, not wall time, so tests and
    /// harnesses stay fast.
    pub backoff_ms: u64,
}

impl Default for ShardRetryPolicy {
    fn default() -> Self {
        ShardRetryPolicy {
            max_attempts: 3,
            backoff_ms: 0,
        }
    }
}

/// Configuration of a [`ShardedDb`].
#[derive(Clone, Copy, Debug)]
pub struct ShardedDbConfig {
    /// Number of independent shard engines (K ≥ 1).
    pub shards: usize,
    /// Layer-1 grid granularity: the cell grid has at least
    /// `shards × cells_per_shard` cells. More cells → finer ownership →
    /// better balance, slightly more replication.
    pub cells_per_shard: usize,
    /// Per-shard engine configuration. `journal` is forced on — the
    /// crash-containment contract needs every shard to journal intents
    /// and join checkpoints.
    pub db: DbConfig,
    /// Per-shard transient retry/backoff policy.
    pub retry: ShardRetryPolicy,
}

impl ShardedDbConfig {
    /// A K-shard configuration with a 2 MB pool per shard and default
    /// grid granularity and retry budget.
    pub fn with_shards(shards: usize) -> Self {
        ShardedDbConfig {
            shards: shards.max(1),
            cells_per_shard: 16,
            db: DbConfig::with_pool_mb(2),
            retry: ShardRetryPolicy::default(),
        }
    }
}

/// What one shard contributed to a scatter-gather join.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// The per-shard join's own counters — including the per-shard
    /// ENOSPC story (`recovery_retries`, `peak_work_mem_pages`) and the
    /// per-shard resume story (`resumed_pairs`, `resumed_runs`).
    pub join: JoinStats,
    /// Result pairs the shard's local join produced (before the
    /// owner-cell filter).
    pub raw_pairs: u64,
    /// Pairs this shard emitted after the owner-cell filter — across all
    /// shards these are disjoint and their union is the full answer.
    pub emitted_pairs: u64,
    /// Whole-join re-runs the worker spent absorbing transient faults.
    pub transient_retries: u64,
    /// True when this shard crashed (or panicked) mid-join and was
    /// recovered and resumed without disturbing its siblings.
    pub crash_contained: bool,
    /// The contained panic's payload text, when the crash surfaced as a
    /// panic rather than a typed [`StorageError::Crashed`].
    pub panic_message: Option<String>,
    /// Orphan files per-shard recovery reclaimed (0 when not crashed).
    pub orphan_files: u64,
    /// Pages those reclaimed files held.
    pub orphan_pages: u64,
    /// True when the shard was skipped because one join side had no
    /// tuples there (no candidate pair can exist on it).
    pub skipped: bool,
}

/// The outcome of a sharded scatter-gather join. Pairs are identified by
/// the tuples' global surrogate **keys** (shard-local OIDs differ per
/// engine).
#[derive(Clone, Debug)]
pub struct ShardedJoinOutcome {
    /// The merged answer: `(left key, right key)` pairs, sorted,
    /// duplicate-free by construction.
    pub pairs: Vec<(u64, u64)>,
    /// Each shard's emitted slice of the answer (sorted). Their disjoint
    /// union equals [`pairs`](Self::pairs) — tests pin this.
    pub shard_pairs: Vec<Vec<(u64, u64)>>,
    /// Per-shard execution stats, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl ShardedJoinOutcome {
    /// Pairs resumed from checkpoints across all shards (proof the
    /// crash-containment path did real work, not a silent re-run).
    pub fn resumed_pairs(&self) -> u64 {
        self.shards.iter().map(|s| s.join.resumed_pairs).sum()
    }

    /// Sort runs resumed from checkpoints across all shards.
    pub fn resumed_runs(&self) -> u64 {
        self.shards.iter().map(|s| s.join.resumed_runs).sum()
    }

    /// Shards whose crash was contained during this join.
    pub fn crashes_contained(&self) -> u64 {
        self.shards.iter().filter(|s| s.crash_contained).count() as u64
    }
}

/// One shard: an engine slot (taken during recovery), the catalog metas
/// to re-register after a crash, and the OID → (key, MBR) maps that
/// translate shard-local results to global identities.
struct Shard {
    db: Option<Db>,
    metas: Vec<RelationMeta>,
    keys: BTreeMap<String, BTreeMap<u64, (u64, Rect)>>,
}

/// K independent journaled engines behind one spatial scatter-gather
/// coordinator. See the module docs for the assignment and fault-domain
/// story.
pub struct ShardedDb {
    config: ShardedDbConfig,
    grid: TileGrid,
    shards: Vec<Shard>,
    input_tuples: u64,
    replica_tuples: u64,
}

/// How one scatter worker ended.
enum WorkerEnd {
    Done(Box<JoinOutcome>, u32),
    Crashed,
    Panicked(String),
    Failed(StorageError),
    Skipped,
}

/// The text of a caught panic's payload.
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "non-string panic payload".to_string(),
        },
    }
}

/// True for errors the shard-level retry loop re-runs a join over: the
/// transient class, plus the buffer pool's own retry budget giving up.
fn shard_retriable(e: &StorageError) -> bool {
    e.is_transient() || matches!(e, StorageError::RetriesExhausted(_))
}

/// One shard's join through the serving executor: the per-shard indexes
/// are prebuilt at load and rebuilt by crash recovery, so the snapshot
/// contract holds. `resume` reaches PBSM only.
fn join_at(
    db: &Db,
    alg: Algorithm,
    spec: &JoinSpec,
    config: &JoinConfig,
    resume: Option<&JoinResume>,
) -> Result<JoinOutcome, StorageError> {
    let query = Query::Join {
        alg,
        spec: spec.clone(),
    };
    execute_at(db.read_snapshot(), &query, config, resume)?
        .into_join()
        .ok_or(StorageError::Corrupt("a join query answered without pairs"))
}

/// The per-shard worker: run the driver against a fresh snapshot,
/// re-running under the shard retry policy on transient failures.
/// Panics are caught and reported as an end state, never unwound across
/// the scatter.
fn scatter_worker(
    db: &Db,
    alg: Algorithm,
    spec: &JoinSpec,
    config: &JoinConfig,
    retry: ShardRetryPolicy,
) -> WorkerEnd {
    let mut retries = 0u32;
    loop {
        let attempt = catch_unwind(AssertUnwindSafe(|| join_at(db, alg, spec, config, None)));
        match attempt {
            Err(payload) => return WorkerEnd::Panicked(panic_text(payload)),
            Ok(Ok(out)) => return WorkerEnd::Done(Box::new(out), retries),
            Ok(Err(StorageError::Crashed)) => return WorkerEnd::Crashed,
            Ok(Err(e)) if shard_retriable(&e) && retries + 1 < retry.max_attempts.max(1) => {
                retries += 1;
                pbsm_obs::counter(names::SHARD_RETRY_ATTEMPTS).incr();
                if retry.backoff_ms > 0 {
                    // Deterministic exponential backoff; the simulated
                    // fault schedule keys on operation counts, so the
                    // sleep only paces real-world contention.
                    let factor = 1u64 << (retries - 1).min(6);
                    std::thread::sleep(std::time::Duration::from_millis(
                        retry.backoff_ms.saturating_mul(factor),
                    ));
                }
            }
            Ok(Err(e)) => return WorkerEnd::Failed(e),
        }
    }
}

impl ShardedDb {
    /// Creates K empty journaled shard engines over the given joint
    /// universe (the union of every MBR that will be loaded — ownership
    /// must be decided on the same grid for every relation).
    ///
    /// `config.db.journal` is forced on: crash containment is built on
    /// each shard's intent journal and join checkpoints.
    pub fn new(mut config: ShardedDbConfig, universe: Rect) -> Self {
        config.db.journal = true;
        config.shards = config.shards.max(1);
        let cells = config.shards * config.cells_per_shard.max(1);
        let grid = TileGrid::new(universe, cells);
        let shards = (0..config.shards)
            .map(|_| Shard {
                db: Some(Db::new(config.db)),
                metas: Vec::new(),
                keys: BTreeMap::new(),
            })
            .collect();
        ShardedDb {
            config,
            grid,
            shards,
            input_tuples: 0,
            replica_tuples: 0,
        }
    }

    /// Number of shard engines.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The layer-1 ownership grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Borrow one shard's engine (harnesses use this to arm per-shard
    /// fault schedules). `None` only if a failed recovery consumed it.
    pub fn shard_db(&self, shard: usize) -> Option<&Db> {
        self.shards.get(shard).and_then(|s| s.db.as_ref())
    }

    /// Surrenders the engines (audit recoveries consume them).
    pub fn into_dbs(self) -> Vec<Db> {
        self.shards.into_iter().filter_map(|s| s.db).collect()
    }

    /// Resting telemetry baseline of every shard, for leak sentinels.
    pub fn telemetry_baselines(&self) -> Vec<TelemetryBaseline> {
        self.shards
            .iter()
            .map(|s| {
                s.db.as_ref()
                    .map(|db| db.telemetry_baseline())
                    .unwrap_or_default()
            })
            .collect()
    }

    /// `(input tuples, stored copies)` across all loads — the layer-2
    /// replication overhead.
    pub fn replication(&self) -> (u64, u64) {
        (self.input_tuples, self.replica_tuples)
    }

    /// Owner cell of a point: the disjoint layer-1 cell containing it.
    fn cell_of_point(&self, x: f64, y: f64) -> u32 {
        let (col, _, row, _) = self.grid.tile_range(&Rect::new(x, y, x, y));
        self.grid.tile_at(col, row)
    }

    /// The shard owning a cell (layer 1).
    pub fn owner_of_cell(&self, cell: u32) -> usize {
        TileMapScheme::Hash.partition_of(cell, self.shards.len()) as usize
    }

    /// The unique shard allowed to emit a result pair with these MBRs:
    /// the owner of the cell containing the intersection's reference
    /// point. Both tuples are replicated there (the point lies in both
    /// MBRs), so exactly that shard has the pair *and* keeps it.
    pub fn owner_of_pair(&self, left: &Rect, right: &Rect) -> usize {
        let x = left.xl.max(right.xl);
        let y = left.yl.max(right.yl);
        self.owner_of_cell(self.cell_of_point(x, y))
    }

    /// Shards a tuple's MBR overlaps (layer 2): the owners of every cell
    /// in its tile range. The tuple is stored on each of them.
    pub fn shards_of_mbr(&self, mbr: &Rect) -> Vec<usize> {
        let (c0, c1, r0, r1) = self.grid.tile_range(mbr);
        let mut owners = BTreeSet::new();
        for row in r0..=r1 {
            for col in c0..=c1 {
                owners.insert(self.owner_of_cell(self.grid.tile_at(col, row)));
            }
        }
        owners.into_iter().collect()
    }

    /// Loads a relation across the shards: each tuple is appended to
    /// every owning shard's heap in input order, the per-shard OID → key
    /// maps are captured, and the per-shard R\*-tree index is prebuilt so
    /// the INL/R-tree snapshot drivers never hit their typed
    /// `UnknownRelation("<name> (index)")` error mid-scatter.
    pub fn load_relation(
        &mut self,
        name: &str,
        tuples: &[SpatialTuple],
        clustered: bool,
    ) -> Result<(), ShardError> {
        let k = self.shards.len();
        let mut batches: Vec<Vec<SpatialTuple>> = (0..k).map(|_| Vec::new()).collect();
        let mut copies = 0u64;
        for t in tuples {
            let owners = self.shards_of_mbr(&t.geom.mbr());
            copies += owners.len() as u64;
            for s in owners {
                batches[s].push(t.clone());
            }
        }
        pbsm_obs::counter(names::SHARD_LOAD_TUPLES).add(tuples.len() as u64);
        pbsm_obs::counter(names::SHARD_LOAD_REPLICAS)
            .add(copies.saturating_sub(tuples.len() as u64));
        self.input_tuples += tuples.len() as u64;
        self.replica_tuples += copies;

        for (s, batch) in batches.iter().enumerate() {
            let shard = &mut self.shards[s];
            let db = match shard.db.as_ref() {
                Some(db) => db,
                None => return Err(ShardError::ShardUnavailable { shard: s }),
            };
            let wrap = |source| ShardError::Storage { shard: s, source };
            let meta = load_relation(db, name, batch, clustered).map_err(wrap)?;
            // Heap scan order is insertion order, so the extracted
            // entries zip 1:1 with the batch — the OID → (key, MBR) map
            // survives recovery because committed heap OIDs are durable.
            let entries = extract_entries(db, &meta).map_err(wrap)?;
            let mut map = BTreeMap::new();
            for ((mbr, oid), t) in entries.iter().zip(batch) {
                map.insert(oid.raw(), (t.key, *mbr));
            }
            // Prebuild the (rebuildable) index; an empty slice has
            // nothing to index and its shard is skipped at scatter time.
            if meta.cardinality > 0 {
                build_index(db, &meta).map_err(wrap)?;
            }
            shard.metas.push(meta);
            shard.keys.insert(name.to_string(), map);
        }
        Ok(())
    }

    /// The scatter-gather join. Workers run the per-shard joins
    /// concurrently; any shard that crashes (or panics) is recovered and
    /// resumed afterwards on the coordinator thread, without touching its
    /// siblings or re-running their finished work.
    pub fn join(
        &mut self,
        alg: Algorithm,
        spec: &JoinSpec,
        config: &JoinConfig,
    ) -> Result<ShardedJoinOutcome, ShardError> {
        let k = self.shards.len();
        // A shard where either side is empty cannot hold a candidate
        // pair; skip it (its catalog still knows the relation).
        let mut active = vec![false; k];
        for (i, shard) in self.shards.iter().enumerate() {
            let db = match shard.db.as_ref() {
                Some(db) => db,
                None => return Err(ShardError::ShardUnavailable { shard: i }),
            };
            let wrap = |source| ShardError::Storage { shard: i, source };
            let cat = db.catalog();
            let left = cat.relation(&spec.left).map_err(wrap)?.cardinality;
            let right = cat.relation(&spec.right).map_err(wrap)?.cardinality;
            active[i] = left > 0 && right > 0;
        }

        let retry = self.config.retry;
        let ends: Vec<(WorkerEnd, pbsm_obs::MetricsDelta)> = {
            let shards = &self.shards;
            let active = &active;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..k)
                    .map(|i| {
                        scope.spawn(move || {
                            if !active[i] {
                                return (WorkerEnd::Skipped, pbsm_obs::take_metrics_delta());
                            }
                            let end = match shards[i].db.as_ref() {
                                Some(db) => scatter_worker(db, alg, spec, config, retry),
                                None => WorkerEnd::Failed(StorageError::Corrupt(
                                    "shard engine unavailable",
                                )),
                            };
                            (end, pbsm_obs::take_metrics_delta())
                        })
                    })
                    .collect();
                // Joined (and later merged) in shard order: deltas are
                // commutative, but a fixed order keeps the loop obviously
                // deterministic.
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(x) => x,
                        Err(payload) => (
                            WorkerEnd::Panicked(panic_text(payload)),
                            pbsm_obs::MetricsDelta::default(),
                        ),
                    })
                    .collect()
            })
        };
        for (_, delta) in &ends {
            pbsm_obs::merge_metrics_delta(delta);
        }
        pbsm_obs::counter(names::SHARD_JOIN_SCATTERED)
            .add(active.iter().filter(|a| **a).count() as u64);
        pbsm_obs::counter(names::SHARD_JOIN_SKIPPED)
            .add(active.iter().filter(|a| !**a).count() as u64);

        // Gather, containing crashes: siblings' finished outcomes are
        // kept as-is while each crashed shard is recovered and resumed.
        let mut stats: Vec<ShardStats> = (0..k).map(|_| ShardStats::default()).collect();
        let mut outcomes: Vec<Option<JoinOutcome>> = Vec::with_capacity(k);
        for (i, (end, _)) in ends.into_iter().enumerate() {
            match end {
                WorkerEnd::Skipped => {
                    stats[i].skipped = true;
                    outcomes.push(None);
                }
                WorkerEnd::Done(out, retries) => {
                    stats[i].transient_retries = retries as u64;
                    // Zombie detection: the crash point can fire inside a
                    // swallowed-error path (temp-file cleanup after the
                    // result was already computed from cached frames). The
                    // join then returns a correct answer from a poisoned
                    // engine whose pending drops silently leaked. Treat
                    // exactly like a surfaced crash: recover and re-run,
                    // discarding the zombie's result.
                    let zombie = self.shards[i]
                        .db
                        .as_ref()
                        .is_some_and(|db| db.pool().disk().is_crashed());
                    if zombie {
                        let out = self.contain_crash(i, alg, spec, config, &mut stats[i])?;
                        outcomes.push(Some(out));
                    } else {
                        stats[i].join = out.stats;
                        outcomes.push(Some(*out));
                    }
                }
                WorkerEnd::Failed(source) => {
                    return Err(ShardError::Storage { shard: i, source });
                }
                WorkerEnd::Crashed => {
                    let out = self.contain_crash(i, alg, spec, config, &mut stats[i])?;
                    outcomes.push(Some(out));
                }
                WorkerEnd::Panicked(message) => {
                    stats[i].panic_message = Some(message);
                    let out = self.contain_crash(i, alg, spec, config, &mut stats[i])?;
                    outcomes.push(Some(out));
                }
            }
        }

        // Owner-cell filter + deterministic concat merge.
        let mut shard_pairs = Vec::with_capacity(k);
        let mut pairs = Vec::new();
        let mut raw = 0u64;
        let mut emitted = 0u64;
        for (i, out) in outcomes.iter().enumerate() {
            let mut mine = match out {
                None => Vec::new(),
                Some(out) => self.emit_pairs(i, spec, &out.pairs)?,
            };
            mine.sort_unstable();
            stats[i].raw_pairs = out.as_ref().map_or(0, |o| o.pairs.len() as u64);
            stats[i].emitted_pairs = mine.len() as u64;
            raw += stats[i].raw_pairs;
            emitted += stats[i].emitted_pairs;
            pairs.extend_from_slice(&mine);
            shard_pairs.push(mine);
        }
        pairs.sort_unstable();
        pbsm_obs::counter(names::SHARD_PAIRS_EMITTED).add(emitted);
        pbsm_obs::counter(names::SHARD_PAIRS_FILTERED).add(raw - emitted);
        Ok(ShardedJoinOutcome {
            pairs,
            shard_pairs,
            shards: stats,
        })
    }

    /// Crash containment for one shard: recover the engine over the
    /// surviving disk image, re-register the durable relations, rebuild
    /// the reclaimed (rebuildable) indexes, and finish the join — resumed
    /// from checkpoints for PBSM, from scratch for INL and R-tree.
    fn contain_crash(
        &mut self,
        i: usize,
        alg: Algorithm,
        spec: &JoinSpec,
        config: &JoinConfig,
        stats: &mut ShardStats,
    ) -> Result<JoinOutcome, ShardError> {
        let shard = &mut self.shards[i];
        let db = match shard.db.take() {
            Some(db) => db,
            None => return Err(ShardError::ShardUnavailable { shard: i }),
        };
        let (db, state) = match Db::recover(db.config(), db.into_disk()) {
            Ok(x) => x,
            // The engine is gone; the slot stays empty and the error
            // names the shard whose answer slice is unreachable.
            Err(source) => return Err(ShardError::RecoveryFailed { shard: i, source }),
        };
        // The crashed process's catalog was volatile; re-register the
        // committed relations, then rebuild their indexes (index files
        // are uncommitted intent and were reclaimed just now).
        for meta in &shard.metas {
            db.catalog_mut().put_relation(meta.clone());
        }
        let mut rebuild_err = None;
        for meta in &shard.metas {
            if meta.cardinality == 0 {
                continue;
            }
            if let Err(e) = build_index(&db, meta) {
                rebuild_err = Some(e);
                break;
            }
        }
        shard.db = Some(db);
        if let Some(source) = rebuild_err {
            return Err(ShardError::RecoveryFailed { shard: i, source });
        }
        stats.crash_contained = true;
        stats.orphan_files = state.orphan_files;
        stats.orphan_pages = state.orphan_pages;
        pbsm_obs::counter(names::SHARD_CRASH_CONTAINED).incr();
        pbsm_obs::counter(names::SHARD_RECOVER_ORPHAN_FILES).add(state.orphan_files);
        pbsm_obs::counter(names::SHARD_RECOVER_ORPHAN_PAGES).add(state.orphan_pages);

        let db = match self.shards[i].db.as_ref() {
            Some(db) => db,
            None => return Err(ShardError::ShardUnavailable { shard: i }),
        };
        // PBSM trusts the journaled checkpoints: finished partition pairs
        // and sort runs are not re-done. The index joins restart from
        // scratch — their half-built temp state was reclaimed and their
        // inputs are durable.
        let out = join_at(db, alg, spec, config, state.join.as_ref())
            .map_err(|source| ShardError::Storage { shard: i, source })?;
        stats.join = out.stats;
        pbsm_obs::counter(names::SHARD_RESUMED_PAIRS).add(out.stats.resumed_pairs);
        pbsm_obs::counter(names::SHARD_RESUMED_RUNS).add(out.stats.resumed_runs);
        Ok(out)
    }

    /// Translates one shard's local `(Oid, Oid)` results to global key
    /// pairs, keeping only the pairs this shard owns.
    fn emit_pairs(
        &self,
        i: usize,
        spec: &JoinSpec,
        local: &[(pbsm_storage::Oid, pbsm_storage::Oid)],
    ) -> Result<Vec<(u64, u64)>, ShardError> {
        let shard = &self.shards[i];
        let missing = |name: &str| ShardError::Storage {
            shard: i,
            source: StorageError::UnknownRelation(name.to_string()),
        };
        let left = shard
            .keys
            .get(&spec.left)
            .ok_or_else(|| missing(&spec.left))?;
        let right = shard
            .keys
            .get(&spec.right)
            .ok_or_else(|| missing(&spec.right))?;
        let bad_oid = |raw: u64| ShardError::Storage {
            shard: i,
            source: StorageError::InvalidOid(raw),
        };
        let mut out = Vec::with_capacity(local.len());
        for (lo, ro) in local {
            let (lk, lmbr) = left.get(&lo.raw()).ok_or_else(|| bad_oid(lo.raw()))?;
            let (rk, rmbr) = right.get(&ro.raw()).ok_or_else(|| bad_oid(ro.raw()))?;
            if self.owner_of_pair(lmbr, rmbr) == i {
                out.push((*lk, *rk));
            }
        }
        Ok(out)
    }
}

/// The bounding box of every tuple in `sets`: the joint universe
/// [`ShardedDb::new`] decomposes.
pub fn universe_of(sets: &[&[SpatialTuple]]) -> Rect {
    sets.iter()
        .flat_map(|s| s.iter())
        .fold(Rect::empty(), |acc, t| acc.union(&t.geom.mbr()))
}

/// The unsharded answer: `spec` joined by PBSM on one engine holding all
/// of `left` and `right`, as sorted global `(left key, right key)` pairs —
/// the exact answer every sharded configuration must merge to.
pub fn unsharded_join_keys(
    left: &[SpatialTuple],
    right: &[SpatialTuple],
    spec: &JoinSpec,
    config: &JoinConfig,
) -> Result<Vec<(u64, u64)>, StorageError> {
    let db = Db::new(DbConfig::with_pool_mb(2));
    let lm = load_relation(&db, &spec.left, left, false)?;
    let rm = load_relation(&db, &spec.right, right, false)?;
    let out = crate::pbsm::pbsm_join(&db, spec, config)?;
    // Heap scan order is insertion order: zip OIDs back to global keys.
    let key_map = |meta, tuples: &[SpatialTuple]| -> Result<BTreeMap<u64, u64>, StorageError> {
        Ok(extract_entries(&db, meta)?
            .iter()
            .zip(tuples)
            .map(|((_, oid), t)| (oid.raw(), t.key))
            .collect())
    };
    let (lmap, rmap) = (key_map(&lm, left)?, key_map(&rm, right)?);
    let mut pairs: Vec<(u64, u64)> = out
        .pairs
        .iter()
        .map(|(a, b)| (lmap[&a.raw()], rmap[&b.raw()]))
        .collect();
    pairs.sort_unstable();
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbsm_geom::predicates::SpatialPredicate;

    fn mk(n: usize, seed: u64) -> Vec<SpatialTuple> {
        crate::testgen::mk_tuples(n, seed, 60.0, 2, 2.0, 0.3, 8)
    }

    fn oracle_pairs(
        left: &[SpatialTuple],
        right: &[SpatialTuple],
        predicate: SpatialPredicate,
    ) -> Vec<(u64, u64)> {
        let spec = JoinSpec::new("l", "r", predicate);
        unsharded_join_keys(left, right, &spec, &JoinConfig::default()).unwrap()
    }

    fn sharded(k: usize, left: &[SpatialTuple], right: &[SpatialTuple]) -> ShardedDb {
        let universe = universe_of(&[left, right]);
        let mut sdb = ShardedDb::new(ShardedDbConfig::with_shards(k), universe);
        sdb.load_relation("l", left, false).unwrap();
        sdb.load_relation("r", right, false).unwrap();
        sdb
    }

    #[test]
    fn owner_cell_is_replicated_to_both_tuples() {
        // The dedup argument's load-bearing fact: for any two overlapping
        // MBRs, the owner of the reference point's cell appears in both
        // tuples' layer-2 shard sets.
        let left = crate::testgen::mk_tuples(150, 7, 30.0, 2, 2.0, 0.3, 8);
        let right = crate::testgen::mk_tuples(150, 8, 30.0, 2, 2.0, 0.3, 8);
        let sdb = sharded(3, &left, &right);
        let mut checked = 0;
        for l in &left {
            for r in &right {
                let (lm, rm) = (l.geom.mbr(), r.geom.mbr());
                if !lm.intersects(&rm) {
                    continue;
                }
                let owner = sdb.owner_of_pair(&lm, &rm);
                assert!(sdb.shards_of_mbr(&lm).contains(&owner));
                assert!(sdb.shards_of_mbr(&rm).contains(&owner));
                checked += 1;
            }
        }
        assert!(checked > 50, "degenerate workload: {checked} overlaps");
    }

    #[test]
    fn sharded_join_matches_unsharded_oracle_for_all_drivers() {
        let left = mk(300, 11);
        let right = mk(260, 12);
        let oracle = oracle_pairs(&left, &right, SpatialPredicate::Intersects);
        assert!(!oracle.is_empty());
        for k in [1, 2, 4] {
            let mut sdb = sharded(k, &left, &right);
            let spec = JoinSpec::new("l", "r", SpatialPredicate::Intersects);
            let config = JoinConfig {
                work_mem_bytes: 256 * 1024,
                ..JoinConfig::default()
            };
            for alg in Algorithm::ALL {
                let out = sdb.join(alg, &spec, &config).unwrap();
                assert_eq!(out.pairs, oracle, "k={k} alg={}", alg.key());
                // Disjoint union: per-shard emissions re-merge to the
                // full answer with no pair appearing twice.
                let mut merged: Vec<(u64, u64)> =
                    out.shard_pairs.iter().flatten().copied().collect();
                merged.sort_unstable();
                assert_eq!(merged, oracle);
            }
        }
    }

    #[test]
    fn replication_counts_are_tracked() {
        let left = mk(100, 3);
        let right = mk(100, 4);
        let sdb = sharded(4, &left, &right);
        let (input, copies) = sdb.replication();
        assert_eq!(input, 200);
        assert!(copies >= input, "every tuple stored at least once");
    }

    #[test]
    fn shard_error_taxonomy_names_the_shard() {
        let e = ShardError::Storage {
            shard: 2,
            source: StorageError::Crashed,
        };
        assert_eq!(e.shard(), 2);
        assert!(e.to_string().contains("shard 2"));
        let e = ShardError::RecoveryFailed {
            shard: 1,
            source: StorageError::DiskFull { file: 3 },
        };
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(ShardError::ShardUnavailable { shard: 0 }.shard(), 0);
    }

    #[test]
    fn crash_mid_join_is_contained_and_resumed() {
        use pbsm_storage::FaultConfig;
        let left = mk(300, 21);
        let right = mk(260, 22);
        let oracle = oracle_pairs(&left, &right, SpatialPredicate::Intersects);
        let mut sdb = sharded(3, &left, &right);
        let spec = JoinSpec::new("l", "r", SpatialPredicate::Intersects);
        // Small work memory → several partitions → checkpoints land
        // throughout the crashed shard's op window.
        let config = JoinConfig {
            work_mem_bytes: 64 * 1024,
            num_tiles: 256,
            ..JoinConfig::default()
        };
        let victim = 1;
        // Probe the victim's disk-operation window with a fault-free run
        // (chaos.rs idiom), then aim the crash at the middle of it.
        let ops_before = sdb.shard_db(victim).unwrap().pool().disk().total_ops();
        let probe = sdb.join(Algorithm::Pbsm, &spec, &config).unwrap();
        assert_eq!(probe.pairs, oracle);
        let window = sdb.shard_db(victim).unwrap().pool().disk().total_ops() - ops_before;
        assert!(window > 1, "victim shard did no I/O during the probe");
        sdb.shard_db(victim)
            .unwrap()
            .pool()
            .disk_mut()
            .set_faults(Some(FaultConfig::crash_at(5, (window / 2).max(1))));
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = sdb.join(Algorithm::Pbsm, &spec, &config);
        std::panic::set_hook(prev_hook);
        let out = out.unwrap();
        assert_eq!(
            out.pairs, oracle,
            "contained crash must not change the answer"
        );
        assert!(out.shards[victim].crash_contained);
        assert_eq!(out.crashes_contained(), 1);
        for (i, s) in out.shards.iter().enumerate() {
            if i != victim {
                assert!(!s.crash_contained, "sibling {i} must be undisturbed");
            }
        }
        // The recovered engine is live again: the same query re-runs
        // cleanly on all shards.
        let again = sdb.join(Algorithm::Pbsm, &spec, &config).unwrap();
        assert_eq!(again.pairs, oracle);
        assert_eq!(again.crashes_contained(), 0);
    }

    #[test]
    fn zombie_shard_is_detected_and_recovered() {
        // A poisoned engine whose join happens to complete from cached
        // frames (zero disk operations) must still be recovered — the
        // result of a dead process is not trusted.
        let left = mk(300, 31);
        let right = mk(260, 32);
        let oracle = oracle_pairs(&left, &right, SpatialPredicate::Intersects);
        let mut sdb = sharded(3, &left, &right);
        let spec = JoinSpec::new("l", "r", SpatialPredicate::Intersects);
        let config = JoinConfig {
            work_mem_bytes: 256 * 1024,
            ..JoinConfig::default()
        };
        // Warm every shard's cache so the INL join needs no disk I/O and
        // the poison below stays invisible to the worker.
        let warm = sdb.join(Algorithm::Inl, &spec, &config).unwrap();
        assert_eq!(warm.pairs, oracle);
        let victim = 2;
        sdb.shard_db(victim).unwrap().pool().disk_mut().crash_now();
        let out = sdb.join(Algorithm::Inl, &spec, &config).unwrap();
        assert_eq!(out.pairs, oracle);
        assert!(
            out.shards[victim].crash_contained,
            "the poisoned engine must be detected and recovered"
        );
        assert!(!sdb.shard_db(victim).unwrap().pool().disk().is_crashed());
    }
}

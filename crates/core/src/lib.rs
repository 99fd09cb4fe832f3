//! The paper's spatial-join algorithms: **PBSM** (the primary
//! contribution), the indexed nested loops join, and the R\*-tree join
//! driver — all complete filter + refinement implementations over the
//! [`pbsm_storage`] substrate.
//!
//! # The Partition Based Spatial-Merge join (§3)
//!
//! ```text
//!  R ──scan──► R_kp ─┐                       ┌─► partition R_1 … R_P ─┐
//!                    ├─ spatial partitioning ┤                        ├─ plane-sweep merge
//!  S ──scan──► S_kp ─┘   (tiles → partitions)└─► partition S_1 … S_P ─┘        │
//!                                                                              ▼
//!                                 candidate <OID_R, OID_S> pairs  ──► refinement step ──► result
//! ```
//!
//! * [`filter`] — the filter step: key-pointer extraction, Equation 1
//!   partition sizing, the §3.4 tiled partitioning function, and the
//!   plane-sweep partition merge.
//! * [`refine`] — the §3.2 refinement step (sort OID pairs, eliminate
//!   duplicates, fetch tuples with swizzled sequential access, evaluate the
//!   exact predicate), shared by PBSM and the R-tree join exactly as in
//!   §4.2.
//! * [`pbsm`] — the PBSM driver; [`inl`] — indexed nested loops (§4.1);
//!   [`rtree_join`] — the BKS93-based competitor (§4.2).
//! * [`query`] — the plan and the query as data ([`Algorithm`],
//!   [`Query`]) and the one executor pair, [`execute`] over a `Db` and
//!   [`execute_at`] over a serving snapshot.
//! * [`partition`] — the spatial partitioning function and its design
//!   space (number of tiles, round-robin vs hash tile→partition maps) for
//!   the Figure 4–6 experiments.
//! * [`cost`] — per-component cost instrumentation backing the Figure
//!   10–12 breakdowns and Table 4.
//! * [`recover`] — the ENOSPC degradation policy: PBSM re-runs the filter
//!   step with halved work memory / more partitions instead of aborting.
//! * [`skew`] — §3.5's dynamic repartitioning (described as future work in
//!   the paper; implemented here as an extension).
//! * [`shard`] — the scale-out extension: K independent journaled engines
//!   behind a duplicate-free scatter-gather coordinator whose per-shard
//!   fault domains survive any single-shard crash mid-query.

pub mod cost;
pub mod filter;
pub mod inl;
pub mod keyptr;
pub mod loader;
pub mod partition;
pub mod pbsm;
pub mod profile;
pub mod query;
pub mod recover;
pub mod refine;
pub mod rtree_join;
pub mod select;
pub mod shard;
pub mod skew;
pub mod telemetry;
#[cfg(test)]
pub(crate) mod testgen;

pub use cost::{CostComponent, CostTracker, JoinReport};
pub use keyptr::KeyPointer;
pub use loader::load_relation;
pub use partition::{TileGrid, TileMapScheme};
pub use profile::{build_join_profile, drift_model};
pub use query::{execute, execute_at, Algorithm, Outcome, Query};
pub use recover::{join_fingerprint, RecoveryPolicy};
pub use shard::{
    ShardError, ShardRetryPolicy, ShardStats, ShardedDb, ShardedDbConfig, ShardedJoinOutcome,
};
// The benchmark package under `pbsmbench/` names `ShardAlgorithm::Pbsm`
// and is kept byte-stable across library changes, so the old name stays.
pub use query::Algorithm as ShardAlgorithm;

use pbsm_geom::predicates::{RefineOptions, SpatialPredicate};
use pbsm_storage::Oid;

/// Which relations to join and how.
#[derive(Clone, Debug)]
pub struct JoinSpec {
    /// Catalog name of the left (R) input.
    pub left: String,
    /// Catalog name of the right (S) input.
    pub right: String,
    /// The join predicate evaluated exactly during refinement.
    pub predicate: SpatialPredicate,
}

impl JoinSpec {
    /// Convenience constructor.
    pub fn new(left: &str, right: &str, predicate: SpatialPredicate) -> Self {
        JoinSpec {
            left: left.to_string(),
            right: right.to_string(),
            predicate,
        }
    }
}

/// Tuning knobs shared by the join algorithms.
#[derive(Clone, Debug)]
pub struct JoinConfig {
    /// Work memory in bytes: bounds partition pairs (Equation 1), sort
    /// runs, and the refinement fetch window. The paper sizes this with
    /// the buffer pool.
    pub work_mem_bytes: usize,
    /// Number of tiles of the spatial partitioning function (§3.4; the
    /// study uses 1024).
    pub num_tiles: usize,
    /// Tile→partition mapping scheme.
    pub tile_map: TileMapScheme,
    /// Refinement strategy switches (plane sweep, MER filter).
    pub refine: RefineOptions,
    /// §3.5 extension: dynamically repartition partition pairs that
    /// exceed work memory. Off by default ("the current implementation of
    /// PBSM does not incorporate any of these techniques").
    pub dynamic_repartition: bool,
    /// Bounded ENOSPC degradation: how many times PBSM may re-run the
    /// filter step with halved work memory / doubled partitions before
    /// surfacing `DiskFull`.
    pub recovery: RecoveryPolicy,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            work_mem_bytes: 16 * 1024 * 1024,
            num_tiles: 1024,
            tile_map: TileMapScheme::Hash,
            refine: RefineOptions::default(),
            dynamic_repartition: false,
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl JoinConfig {
    /// A configuration whose work memory matches a database's buffer pool,
    /// the way the paper sizes its joins.
    pub fn for_db(db: &pbsm_storage::Db) -> Self {
        JoinConfig {
            work_mem_bytes: db.config().buffer_pool_bytes,
            ..JoinConfig::default()
        }
    }
}

/// Counters describing one join execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinStats {
    /// Partitions used by the filter step (1 = inputs fit in memory).
    pub partitions: usize,
    /// Tiles of the partitioning grid actually used.
    pub tiles: usize,
    /// Key-pointer elements written, including tile replication.
    pub replicated_elements: u64,
    /// Key-pointer elements before replication.
    pub input_elements: u64,
    /// Candidate pairs emitted by the filter step (with duplicates).
    pub candidates: u64,
    /// Candidates after duplicate elimination.
    pub unique_candidates: u64,
    /// Pairs that satisfied the exact predicate.
    pub results: u64,
    /// Degraded re-runs the ENOSPC recovery loop performed (0 = first
    /// attempt succeeded).
    pub recovery_retries: u64,
    /// Partition pairs skipped on a crash-resumed join because their
    /// candidate files were recovered from journal checkpoints.
    pub resumed_pairs: u64,
    /// Refinement sort runs skipped on a crash-resumed join.
    pub resumed_runs: u64,
    /// Work-memory budget the join actually ran under, in pages. After
    /// ENOSPC degradation this is the successful attempt's (halved)
    /// budget — the high-water the query really had, not the configured
    /// one.
    pub peak_work_mem_pages: u64,
}

/// The outcome of a join: result OID pairs, per-component costs, and
/// counters.
pub struct JoinOutcome {
    /// Result pairs `(left OID, right OID)`, sorted.
    pub pairs: Vec<(Oid, Oid)>,
    /// Per-component cost breakdown.
    pub report: JoinReport,
    /// Execution counters.
    pub stats: JoinStats,
    /// Per-query execution profile (EXPLAIN ANALYZE tree, drift audit),
    /// attached by the drivers from the root span. Also queued in
    /// [`pbsm_obs::profile::take_pending`] for the bench harness.
    pub profile: Option<pbsm_obs::profile::Profile>,
}

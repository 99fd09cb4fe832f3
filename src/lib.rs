//! # pbsm — Partition Based Spatial-Merge Join
//!
//! A complete, from-scratch reproduction of *"Partition Based
//! Spatial-Merge Join"* (Patel & DeWitt, SIGMOD 1996): the PBSM algorithm,
//! its competitors (indexed nested loops and the BKS93 R\*-tree join), and
//! every substrate the paper's evaluation depends on — a geometry kernel,
//! a paged storage manager over a simulated 1996 disk, a paged R\*-tree,
//! and synthetic TIGER/Sequoia workload generators.
//!
//! This crate is a facade re-exporting the workspace members; see the
//! README for a tour and `examples/quickstart.rs` for a five-minute intro.
//!
//! ```
//! use pbsm::prelude::*;
//!
//! // An in-process database with a 4 MB buffer pool over a simulated
//! // 1996 disk.
//! let db = Db::new(DbConfig::with_pool_mb(4));
//!
//! // Tiny synthetic TIGER-like inputs (0.2 % of the paper's scale).
//! let cfg = TigerConfig::scaled(0.002);
//! load_relation(&db, "road", &tiger::road(&cfg), false).unwrap();
//! load_relation(&db, "hydro", &tiger::hydrography(&cfg), false).unwrap();
//!
//! // Find all intersecting road/hydrography feature pairs with PBSM.
//! let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
//! let out = pbsm_join(&db, &spec, &JoinConfig::for_db(&db)).unwrap();
//! assert_eq!(out.pairs.len() as u64, out.stats.results);
//! ```

pub use pbsm_datagen as datagen;
pub use pbsm_geom as geom;
pub use pbsm_join as join;
pub use pbsm_rtree as rtree;
pub use pbsm_storage as storage;

/// One-stop imports for applications.
pub mod prelude {
    pub use pbsm_datagen::sequoia::{self, SequoiaConfig};
    pub use pbsm_datagen::tiger::{self, TigerConfig};
    pub use pbsm_datagen::DatasetStats;
    pub use pbsm_geom::predicates::{RefineOptions, SpatialPredicate};
    pub use pbsm_geom::{Geometry, Point, Polygon, Polyline, Rect};
    pub use pbsm_join::inl::inl_join;
    pub use pbsm_join::loader::{build_index, load_relation, spatial_sort};
    pub use pbsm_join::pbsm::pbsm_join;
    pub use pbsm_join::rtree_join::rtree_join;
    pub use pbsm_join::{
        execute, execute_at, Algorithm, JoinConfig, JoinOutcome, JoinSpec, JoinStats, Outcome,
        Query, ShardError, ShardRetryPolicy, ShardedDb, ShardedDbConfig, ShardedJoinOutcome,
        TileMapScheme,
    };
    pub use pbsm_storage::tuple::SpatialTuple;
    pub use pbsm_storage::{Db, DbConfig, Oid};
}

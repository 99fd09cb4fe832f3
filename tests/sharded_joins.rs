//! Sharded scatter-gather joins against the unsharded single-engine
//! oracle: the two-layer shard assignment must be **duplicate-free**
//! (no pair emitted by two shards) and **total** (every oracle pair
//! emitted by exactly one shard) for every algorithm and shard count,
//! on both the TIGER and Sequoia workloads — and a shard killed
//! mid-join must be recovered and resumed without disturbing its
//! siblings or changing the answer.

use pbsm::geom::predicates::SpatialPredicate;
use pbsm::join::loader::load_relation;
use pbsm::join::shard::{universe_of, unsharded_join_keys, ShardedDb, ShardedDbConfig};
use pbsm::join::{execute_at, Algorithm, JoinConfig, JoinSpec, Query};
use pbsm::prelude::{sequoia, tiger, SequoiaConfig, TigerConfig};
use pbsm::storage::tuple::SpatialTuple;
use pbsm::storage::{Db, DbConfig, FaultConfig, StorageError};

fn sharded(k: usize, spec: &JoinSpec, left: &[SpatialTuple], right: &[SpatialTuple]) -> ShardedDb {
    let mut sdb = ShardedDb::new(ShardedDbConfig::with_shards(k), universe_of(&[left, right]));
    sdb.load_relation(&spec.left, left, false).unwrap();
    sdb.load_relation(&spec.right, right, false).unwrap();
    sdb
}

/// Duplicate-free + total, asserted structurally: the per-shard emission
/// lists are pairwise disjoint and their union is exactly the oracle.
fn assert_partition_exact(
    sdb: &mut ShardedDb,
    spec: &JoinSpec,
    config: &JoinConfig,
    oracle: &[(u64, u64)],
    context: &str,
) {
    for alg in Algorithm::ALL {
        let out = sdb.join(alg, spec, config).unwrap();
        assert_eq!(out.pairs, oracle, "{context}: {} merged result", alg.key());
        // Totality + duplicate-freeness: every oracle pair is emitted by
        // exactly one shard, so the concatenated per-shard lists re-sort
        // to the oracle with no pair missing and none doubled.
        let mut merged: Vec<(u64, u64)> = out.shard_pairs.iter().flatten().copied().collect();
        merged.sort_unstable();
        assert_eq!(merged, oracle, "{context}: {} shard union", alg.key());
        let emitted: u64 = out.shards.iter().map(|s| s.emitted_pairs).sum();
        assert_eq!(emitted, oracle.len() as u64, "{context}: {}", alg.key());
    }
}

#[test]
fn tiger_slice_partition_is_duplicate_free_and_total() {
    let cfg = TigerConfig::scaled(0.01);
    let road = tiger::road(&cfg);
    let hydro = tiger::hydrography(&cfg);
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let config = JoinConfig {
        work_mem_bytes: 256 * 1024,
        ..JoinConfig::default()
    };
    let oracle = unsharded_join_keys(&road, &hydro, &spec, &config).unwrap();
    assert!(!oracle.is_empty(), "degenerate tiger slice");
    for k in [2, 3, 4] {
        let mut sdb = sharded(k, &spec, &road, &hydro);
        assert_partition_exact(&mut sdb, &spec, &config, &oracle, &format!("tiger k={k}"));
    }
}

#[test]
fn sequoia_slice_partition_is_duplicate_free_and_total() {
    let cfg = SequoiaConfig {
        scale: 0.02,
        ..SequoiaConfig::default()
    };
    let (polys, islands) = sequoia::generate(&cfg);
    let spec = JoinSpec::new("landuse", "islands", SpatialPredicate::Contains);
    let config = JoinConfig {
        work_mem_bytes: 256 * 1024,
        ..JoinConfig::default()
    };
    let oracle = unsharded_join_keys(&polys, &islands, &spec, &config).unwrap();
    assert!(!oracle.is_empty(), "degenerate sequoia slice");
    for k in [2, 3] {
        let mut sdb = sharded(k, &spec, &polys, &islands);
        assert_partition_exact(&mut sdb, &spec, &config, &oracle, &format!("sequoia k={k}"));
    }
}

/// Snapshot queries never auto-build an index; a genuinely missing one
/// surfaces the typed `UnknownRelation("<name> (index)")` error.
/// (The sharded load path prebuilds per-shard indexes at load time
/// precisely so a scatter never hits this.)
#[test]
fn missing_index_error_is_typed_and_named() {
    let cfg = TigerConfig::scaled(0.002);
    let road = tiger::road(&cfg);
    let hydro = tiger::hydrography(&cfg);
    let db = Db::new(DbConfig::with_pool_mb(2));
    load_relation(&db, "road", &road, false).unwrap();
    load_relation(&db, "hydro", &hydro, false).unwrap();
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let config = JoinConfig::for_db(&db);

    for alg in [Algorithm::Inl, Algorithm::RtreeJoin] {
        let query = Query::Join {
            alg,
            spec: spec.clone(),
        };
        match execute_at(db.read_snapshot(), &query, &config, None).map(|_| ()) {
            Err(StorageError::UnknownRelation(name)) => {
                assert!(name.ends_with("(index)"), "{}: got {name:?}", alg.key())
            }
            other => panic!("expected UnknownRelation(.. (index)), got {other:?}"),
        }
    }
}

/// The sharded load path prebuilds every shard's indexes, so the index
/// joins run through snapshots immediately — no scatter-time builds.
#[test]
fn sharded_load_prebuilds_indexes_for_snapshot_drivers() {
    let cfg = TigerConfig::scaled(0.005);
    let road = tiger::road(&cfg);
    let hydro = tiger::hydrography(&cfg);
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let sdb = sharded(3, &spec, &road, &hydro);
    let config = JoinConfig {
        work_mem_bytes: 256 * 1024,
        ..JoinConfig::default()
    };
    for s in 0..sdb.num_shards() {
        let db = sdb.shard_db(s).unwrap();
        // Empty shards are skipped by the scatter; loaded ones must
        // serve both index drivers directly.
        let loaded = db.catalog().relation("road").unwrap().cardinality > 0
            && db.catalog().relation("hydro").unwrap().cardinality > 0;
        if loaded {
            for alg in [Algorithm::Inl, Algorithm::RtreeJoin] {
                let query = Query::Join {
                    alg,
                    spec: spec.clone(),
                };
                execute_at(db.read_snapshot(), &query, &config, None).unwrap();
            }
        }
    }
}

/// Kill one shard mid-join: the coordinator recovers and resumes it,
/// siblings are untouched, the answer matches the oracle, checkpointed
/// work is actually reused, and every shard's allocator reconciles.
#[test]
fn single_shard_crash_is_contained_with_checkpoint_reuse() {
    let cfg = TigerConfig::scaled(0.01);
    let road = tiger::road(&cfg);
    let hydro = tiger::hydrography(&cfg);
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    // Small work memory → several partitions per shard → checkpoints
    // live through the refinement tail where the crash lands.
    let config = JoinConfig {
        work_mem_bytes: 64 * 1024,
        num_tiles: 256,
        ..JoinConfig::default()
    };
    let oracle = unsharded_join_keys(&road, &hydro, &spec, &config).unwrap();
    let victim = 0;

    // Probe the victim's op window on an identical build.
    let mut probe = sharded(3, &spec, &road, &hydro);
    let ops0 = probe.shard_db(victim).unwrap().pool().disk().total_ops();
    probe.join(Algorithm::Pbsm, &spec, &config).unwrap();
    let window = probe.shard_db(victim).unwrap().pool().disk().total_ops() - ops0;
    assert!(window > 10, "victim did almost no I/O");

    // Crash at 90% of the window: inside refinement, after several
    // partition pairs have checkpointed but before their candidate
    // files were consumed — a real partial resume.
    let mut sdb = sharded(3, &spec, &road, &hydro);
    let baselines = sdb.telemetry_baselines();
    sdb.shard_db(victim)
        .unwrap()
        .pool()
        .disk_mut()
        .set_faults(Some(FaultConfig::crash_at(13, 1 + (window - 1) * 9 / 10)));
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = sdb.join(Algorithm::Pbsm, &spec, &config);
    std::panic::set_hook(prev_hook);
    let out = out.unwrap();

    assert_eq!(out.pairs, oracle, "contained crash changed the answer");
    assert!(out.shards[victim].crash_contained);
    assert!(
        out.shards[victim].join.resumed_pairs > 0,
        "the 90% crash point must land a real checkpoint resume"
    );
    for (i, s) in out.shards.iter().enumerate() {
        if i != victim {
            assert!(!s.crash_contained, "sibling {i} was disturbed");
        }
    }

    // Every shard's gauges are back at baseline and its allocator
    // reconciles; an audit recovery finds no join in flight.
    for (s, base) in baselines.iter().enumerate().take(sdb.num_shards()) {
        let db = sdb.shard_db(s).unwrap();
        let tb = db.telemetry_baseline();
        assert_eq!(tb.live_pages, db.held_pages(), "shard {s} allocator");
        assert_eq!(
            tb.live_pages - tb.journal_pages,
            base.live_pages - base.journal_pages,
            "shard {s} durable pages"
        );
        assert_eq!(
            tb.journal_open_intents, base.journal_open_intents,
            "shard {s} open intents"
        );
    }
    for (s, db) in sdb.into_dbs().into_iter().enumerate() {
        let (_, audit) = Db::recover(db.config(), db.into_disk()).unwrap();
        assert!(audit.join.is_none(), "shard {s}: join still in flight");
    }
}

/// Transient faults on one shard are absorbed by the per-shard retry
/// policy layered over the buffer pool's own retry — no crash, no
/// divergence.
#[test]
fn transient_faults_on_one_shard_are_absorbed() {
    let cfg = TigerConfig::scaled(0.005);
    let road = tiger::road(&cfg);
    let hydro = tiger::hydrography(&cfg);
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let config = JoinConfig {
        work_mem_bytes: 128 * 1024,
        ..JoinConfig::default()
    };
    let oracle = unsharded_join_keys(&road, &hydro, &spec, &config).unwrap();
    let mut sdb = sharded(3, &spec, &road, &hydro);
    sdb.shard_db(1)
        .unwrap()
        .pool()
        .disk_mut()
        .set_faults(Some(FaultConfig::transient_only(42, 20_000)));
    for alg in Algorithm::ALL {
        let out = sdb.join(alg, &spec, &config).unwrap();
        assert_eq!(out.pairs, oracle, "{} under transient faults", alg.key());
        assert_eq!(out.crashes_contained(), 0);
    }
}

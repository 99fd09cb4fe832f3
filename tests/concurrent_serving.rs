//! The concurrent-serving stress suite (tier-1).
//!
//! K threads replay a seeded mixed query workload — window selections
//! plus PBSM / INL / R-tree joins over synthetic TIGER and Sequoia
//! relations — through `Db::read_snapshot()` handles and `execute_at`
//! against one shared buffer pool, and every query's **full result**
//! (each OID, each OID pair) must equal what a single-threaded oracle
//! pass through `execute` on the `Db` produced. Runs under both
//! replacement policies, and checks that the pool's frame accounting and
//! gauges come back to rest once all handles drop.
//!
//! Thread count comes from `PBSM_SERVE_THREADS` (default 4, min 2), so
//! `scripts/serve.sh` can crank the parallelism without a rebuild.

use pbsm::datagen::tiger::{self, TigerConfig};
use pbsm::geom::predicates::SpatialPredicate;
use pbsm::geom::Rect;
use pbsm::join::loader::load_relation;
use pbsm::join::{execute, execute_at, Algorithm, JoinConfig, JoinSpec, Outcome, Query};
use pbsm::storage::{Db, DbConfig, Oid, ReplacementPolicy, StorageResult};
use pbsm_bench::{query_mix, serving_db};

fn serve_threads() -> usize {
    std::env::var("PBSM_SERVE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(2)
}

/// One shared database: all four relations, pre-built indexes (the
/// snapshot contract), cold cache.
fn build_db(policy: ReplacementPolicy) -> Db {
    let config = DbConfig {
        replacement: policy,
        ..DbConfig::with_pool_mb(2)
    };
    serving_db(config, 0.02)
}

/// A query's complete answer — compared with full `==`, not a digest,
/// so any divergence pinpoints the exact query.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Answer {
    Oids(Vec<Oid>),
    Pairs(Vec<(Oid, Oid)>),
}

impl From<StorageResult<Outcome>> for Answer {
    fn from(out: StorageResult<Outcome>) -> Self {
        match out.unwrap() {
            Outcome::Join(out) => Answer::Pairs(out.pairs),
            Outcome::Select(out) => Answer::Oids(out.oids),
        }
    }
}

/// Core of the suite: oracle pass, then K-thread replay, full-result
/// equality per query, and a clean pool afterwards.
fn stress(policy: ReplacementPolicy) {
    let threads = serve_threads();
    let db = build_db(policy);
    let jc = JoinConfig::for_db(&db);
    let queries: Vec<Query> = query_mix(1996).take(60).collect();

    // Single-threaded oracle through `execute` on the Db itself, so the
    // replay below also checks that the two executors agree.
    let oracle: Vec<Answer> = queries
        .iter()
        .map(|q| execute(&db, q, &jc, None).into())
        .collect();
    db.pool().clear_cache().unwrap();

    // Concurrent replay: worker w takes queries w, w+K, w+2K, …
    let answers: Vec<Option<Answer>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let db = &db;
                let jc = &jc;
                let queries = &queries;
                scope.spawn(move || {
                    let snap = db.read_snapshot();
                    (w..queries.len())
                        .step_by(threads)
                        .map(|i| (i, execute_at(snap, &queries[i], jc, None).into()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut merged: Vec<Option<Answer>> = vec![None; queries.len()];
        for h in handles {
            for (i, ans) in h.join().expect("worker panicked") {
                merged[i] = Some(ans);
            }
        }
        merged
    });

    for (i, (got, want)) in answers.iter().zip(&oracle).enumerate() {
        assert_eq!(
            got.as_ref(),
            Some(want),
            "query {i} diverged from the single-threaded oracle"
        );
    }

    // All guards dropped: no pins outstanding, every frame accounted for.
    let (free, pinned, mapped) = db.pool().frame_census();
    assert_eq!(pinned, 0, "a serving thread leaked a pin");
    assert_eq!(free + mapped, db.pool().num_frames());
}

#[test]
fn concurrent_replay_is_byte_identical_to_oracle_clock() {
    stress(ReplacementPolicy::Clock);
}

#[test]
fn concurrent_replay_is_byte_identical_to_oracle_lru() {
    stress(ReplacementPolicy::Lru);
}

#[test]
fn pool_gauges_return_to_baseline_after_db_drops() {
    pbsm_obs::reset();
    let db = build_db(ReplacementPolicy::Clock);
    let jc = JoinConfig::for_db(&db);
    for q in query_mix(7).take(12) {
        execute_at(db.read_snapshot(), &q, &jc, None).unwrap();
    }
    // Force a metric flush so the occupied gauge reflects the warm pool.
    let occupied_warm = db.telemetry_baseline().pool_occupied;
    assert!(occupied_warm > 0, "workload should have warmed the pool");
    drop(db);
    // The pool's Drop publishes the zeroed gauges by name on this thread.
    assert_eq!(
        pbsm_obs::gauge(pbsm_obs::names::POOL_OCCUPIED).get(),
        0,
        "storage.pool.occupied must rest at 0 after the Db drops"
    );
    assert_eq!(
        pbsm_obs::gauge(pbsm_obs::names::DISK_LIVE_PAGES).get(),
        0,
        "storage.disk.live_pages must rest at 0 after the Db drops"
    );
}

#[test]
fn counters_stay_readable_after_joins_on_another_thread() {
    // Temp files created by joins on a serving thread must not leave
    // metric handles behind that the building thread later indexes: the
    // disk's flusher runs on this thread at every counter read.
    let db = Db::new(DbConfig::with_pool_mb(1));
    let cfg = TigerConfig::scaled(0.02);
    load_relation(&db, "road", &tiger::road(&cfg), false).unwrap();
    load_relation(&db, "hydro", &tiger::hydrography(&cfg), false).unwrap();
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let config = JoinConfig::for_db(&db);
    let query = Query::Join {
        alg: Algorithm::Pbsm,
        spec,
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..20 {
                execute_at(db.read_snapshot(), &query, &config, None).unwrap();
            }
        });
    });
    let reads = pbsm_obs::counter("storage.disk.reads").get();
    assert!(reads > 0, "loading spilled nothing: {reads} reads");
}

#[test]
fn snapshot_handles_share_one_pool() {
    // Two snapshots of the same Db observe each other's cache effects:
    // the second identical query is warmer than the first. (Snapshots
    // are views, not copies.)
    let db = build_db(ReplacementPolicy::Clock);
    let s1 = db.read_snapshot();
    let s2 = db.read_snapshot();
    let query = Query::Select {
        index: false,
        relation: "road".into(),
        window: Rect::new(10.0, 10.0, 30.0, 30.0),
    };
    let jc = JoinConfig::for_db(&db);
    let h0 = db.pool().stats().hits;
    let a = Answer::from(execute_at(s1, &query, &jc, None));
    let h1 = db.pool().stats().hits;
    let b = Answer::from(execute_at(s2, &query, &jc, None));
    let h2 = db.pool().stats().hits;
    assert_eq!(a, b);
    assert!(
        h2 - h1 > h1 - h0,
        "second pass must hit the shared cache more"
    );
}

//! The concurrent-serving stress suite (tier-1).
//!
//! K threads replay a seeded mixed query workload — window selections
//! plus PBSM / INL / R-tree joins over synthetic TIGER and Sequoia
//! relations — through `Db::read_snapshot()` handles against one shared
//! buffer pool, and every query's **full result** (each OID, each OID
//! pair) must equal what a single-threaded oracle pass produced. Runs
//! under both replacement policies, and checks that the pool's frame
//! accounting and gauges come back to rest once all handles drop.
//!
//! Thread count comes from `PBSM_SERVE_THREADS` (default 4, min 2), so
//! `scripts/serve.sh` can crank the parallelism without a rebuild.

use pbsm::datagen::sequoia::{self, SequoiaConfig};
use pbsm::datagen::tiger::{self, TigerConfig};
use pbsm::geom::predicates::SpatialPredicate;
use pbsm::geom::Rect;
use pbsm::join::inl::inl_join_at;
use pbsm::join::loader::{build_index, load_relation};
use pbsm::join::pbsm::pbsm_join_at;
use pbsm::join::rtree_join::rtree_join_at;
use pbsm::join::select::{select_index_at, select_scan_at};
use pbsm::join::{JoinConfig, JoinSpec};
use pbsm::storage::{Db, DbConfig, Oid, ReplacementPolicy, Snapshot};

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
    let db = Db::new(DbConfig {
        replacement: policy,
        ..DbConfig::with_pool_mb(2)
    });
    let tiger_cfg = TigerConfig::scaled(0.02);
    let sequoia_cfg = SequoiaConfig {
        scale: 0.02,
        ..SequoiaConfig::default()
    };
    let (landuse, islands) = sequoia::generate(&sequoia_cfg);
    for (name, tuples) in [
        ("road", tiger::road(&tiger_cfg)),
        ("hydrography", tiger::hydrography(&tiger_cfg)),
        ("landuse", landuse),
        ("islands", islands),
    ] {
        let meta = load_relation(&db, name, &tuples, false).unwrap();
        build_index(&db, &meta).unwrap();
    }
    db.pool().clear_cache().unwrap();
    db
}

#[derive(Clone)]
enum Query {
    Select {
        index: bool,
        relation: &'static str,
        window: Rect,
    },
    Join {
        alg: u8, // 0 = pbsm, 1 = inl, 2 = rtree
        spec: JoinSpec,
    },
}

/// A query's complete answer — compared with full `==`, not a digest,
/// so any divergence pinpoints the exact query.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Answer {
    Oids(Vec<Oid>),
    Pairs(Vec<(Oid, Oid)>),
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The soak/serve mix: 30% scans, 30% index probes, 20% PBSM, 10% INL,
/// 10% R-tree, pre-generated so every pass replays the identical list.
fn workload(seed: u64, n: usize) -> Vec<Query> {
    const RELATIONS: [&str; 4] = ["road", "hydrography", "landuse", "islands"];
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let roll = rng.next() % 10;
            if roll < 6 {
                let relation = RELATIONS[(rng.next() % 4) as usize];
                let cx = 5.0 + (rng.next() % 900) as f64 / 10.0;
                let cy = 5.0 + (rng.next() % 900) as f64 / 10.0;
                let half = 1.0 + (rng.next() % 70) as f64 / 10.0;
                Query::Select {
                    index: roll >= 3,
                    relation,
                    window: Rect::new(cx - half, cy - half, cx + half, cy + half),
                }
            } else {
                let alg = match roll {
                    6 | 7 => 0,
                    8 => 1,
                    _ => 2,
                };
                let spec = if rng.next().is_multiple_of(2) {
                    JoinSpec::new("road", "hydrography", SpatialPredicate::Intersects)
                } else {
                    JoinSpec::new("landuse", "islands", SpatialPredicate::Contains)
                };
                Query::Join { alg, spec }
            }
        })
        .collect()
}

fn run_query(snap: Snapshot<'_>, jc: &JoinConfig, q: &Query) -> Answer {
    match q {
        Query::Select {
            index,
            relation,
            window,
        } => {
            let out = if *index {
                select_index_at(snap, relation, window).unwrap()
            } else {
                select_scan_at(snap, relation, window).unwrap()
            };
            Answer::Oids(out.oids)
        }
        Query::Join { alg, spec } => {
            let out = match alg {
                0 => pbsm_join_at(snap, spec, jc).unwrap(),
                1 => inl_join_at(snap, spec, jc).unwrap(),
                _ => rtree_join_at(snap, spec, jc).unwrap(),
            };
            Answer::Pairs(out.pairs)
        }
    }
}

/// Core of the suite: oracle pass, then K-thread replay, full-result
/// equality per query, and a clean pool afterwards.
fn stress(policy: ReplacementPolicy) {
    let threads = serve_threads();
    let db = build_db(policy);
    let jc = JoinConfig::for_db(&db);
    let queries = workload(1996, 60);

    // Single-threaded oracle over the same snapshot entry points.
    let oracle: Vec<Answer> = queries
        .iter()
        .map(|q| run_query(db.read_snapshot(), &jc, q))
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
                        .map(|i| (i, run_query(snap, jc, &queries[i])))
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
    for q in workload(7, 12) {
        run_query(db.read_snapshot(), &jc, &q);
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
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..20 {
                pbsm_join_at(db.read_snapshot(), &spec, &config).unwrap();
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
    let window = Rect::new(10.0, 10.0, 30.0, 30.0);
    let h0 = db.pool().stats().hits;
    let a = select_scan_at(s1, "road", &window).unwrap();
    let h1 = db.pool().stats().hits;
    let b = select_scan_at(s2, "road", &window).unwrap();
    let h2 = db.pool().stats().hits;
    assert_eq!(a.oids, b.oids);
    assert!(
        h2 - h1 > h1 - h0,
        "second pass must hit the shared cache more"
    );
}

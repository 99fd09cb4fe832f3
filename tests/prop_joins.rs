//! Property-based end-to-end tests: for arbitrary tuple sets and
//! configurations, the full PBSM pipeline (storage → filter → refinement)
//! equals a brute-force evaluation of the predicate.
//!
//! Needs the external `proptest` crate: re-add it to [dev-dependencies]
//! and run with `--features proptest-tests`.
#![cfg(feature = "proptest-tests")]

use pbsm::prelude::*;
use proptest::prelude::*;

fn arb_polyline() -> impl Strategy<Value = Geometry> {
    prop::collection::vec((0.0f64..50.0, 0.0f64..50.0), 2..6).prop_map(|pts| {
        Geometry::Polyline(Polyline::new(
            pts.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
        ))
    })
}

fn arb_tuples(max: usize) -> impl Strategy<Value = Vec<SpatialTuple>> {
    prop::collection::vec(arb_polyline(), 1..max).prop_map(|gs| {
        gs.into_iter()
            .enumerate()
            .map(|(i, g)| SpatialTuple::new(i as u64, g, 8))
            .collect()
    })
}

fn brute(db: &Db, left: &str, right: &str) -> Vec<(Oid, Oid)> {
    use pbsm::storage::heap::HeapFile;
    let opts = RefineOptions::default();
    let load = |name: &str| -> Vec<(Oid, SpatialTuple)> {
        let meta = db.catalog().relation(name).unwrap().clone();
        HeapFile::open(meta.file)
            .scan(db.pool())
            .map(|x| {
                let (o, b) = x.unwrap();
                (o, SpatialTuple::decode(&b).unwrap())
            })
            .collect()
    };
    let mut out = Vec::new();
    for (lo, lt) in &load(left) {
        for (ro, rt) in &load(right) {
            if pbsm::join::refine::matches(lt, rt, SpatialPredicate::Intersects, &opts) {
                out.push((*lo, *ro));
            }
        }
    }
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PBSM == brute force for arbitrary inputs, work memory, tile count,
    /// and mapping scheme.
    #[test]
    fn pbsm_equals_brute_force(
        ls in arb_tuples(60),
        rs in arb_tuples(60),
        work_kb in 2usize..64,
        tiles in 1usize..600,
        round_robin in any::<bool>(),
    ) {
        let db = Db::new(DbConfig::with_pool_mb(2));
        load_relation(&db, "l", &ls, false).unwrap();
        load_relation(&db, "r", &rs, false).unwrap();
        let config = JoinConfig {
            work_mem_bytes: work_kb * 1024,
            num_tiles: tiles,
            tile_map: if round_robin { TileMapScheme::RoundRobin } else { TileMapScheme::Hash },
            ..JoinConfig::default()
        };
        let spec = JoinSpec::new("l", "r", SpatialPredicate::Intersects);
        let out = pbsm_join(&db, &spec, &config).unwrap();
        prop_assert_eq!(out.pairs, brute(&db, "l", "r"));
    }

    /// The three algorithms agree pairwise on arbitrary inputs.
    #[test]
    fn algorithms_agree(
        ls in arb_tuples(40),
        rs in arb_tuples(40),
    ) {
        let db = Db::new(DbConfig::with_pool_mb(2));
        load_relation(&db, "l", &ls, false).unwrap();
        load_relation(&db, "r", &rs, false).unwrap();
        let spec = JoinSpec::new("l", "r", SpatialPredicate::Intersects);
        let config = JoinConfig { work_mem_bytes: 8 * 1024, ..JoinConfig::default() };
        let a = pbsm_join(&db, &spec, &config).unwrap().pairs;
        let b = rtree_join(&db, &spec, &config).unwrap().pairs;
        let c = inl_join(&db, &spec, &config).unwrap().pairs;
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    /// Tuples survive the storage layer byte-exactly under pool pressure.
    #[test]
    fn storage_roundtrip(ts in arb_tuples(80)) {
        use pbsm::storage::heap::HeapFile;
        let db = Db::new(DbConfig::with_pool_mb(2));
        load_relation(&db, "t", &ts, false).unwrap();
        let meta = db.catalog().relation("t").unwrap().clone();
        let back: Vec<SpatialTuple> = HeapFile::open(meta.file)
            .scan(db.pool())
            .map(|x| SpatialTuple::decode(&x.unwrap().1).unwrap())
            .collect();
        prop_assert_eq!(back, ts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The exact-LRU pool tracks a naive reference model over arbitrary
    /// access traces: after every touch the intrusive recency list equals
    /// the model, and the hit/miss tallies agree. (The seeded unit-test
    /// variant lives in `pbsm_storage::buffer`; this one drives arbitrary
    /// pool sizes and traces.)
    #[test]
    fn lru_pool_equals_reference_model(
        nframes in 8usize..24,
        npages in 1usize..48,
        trace in prop::collection::vec(any::<u16>(), 1..300),
    ) {
        use pbsm::storage::ReplacementPolicy;
        let db = Db::new(DbConfig {
            replacement: ReplacementPolicy::Lru,
            buffer_pool_bytes: nframes * pbsm::storage::PAGE_SIZE,
            ..DbConfig::default()
        });
        let file = db.pool().disk_mut().create_file();
        let mut pids = Vec::new();
        for _ in 0..npages {
            let (pid, _g) = db.pool().new_page(file).unwrap();
            pids.push(pid);
        }
        db.pool().clear_cache().unwrap();
        let mut model: Vec<pbsm::storage::PageId> = Vec::new();
        for step in trace {
            let pid = pids[step as usize % pids.len()];
            if let Some(pos) = model.iter().position(|p| *p == pid) {
                model.remove(pos);
            } else if model.len() == nframes {
                model.remove(0);
            }
            model.push(pid);
            drop(db.pool().get(pid).unwrap());
            prop_assert_eq!(db.pool().lru_order(), model.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The two-layer sharded scatter-gather is duplicate-free and total
    /// for arbitrary inputs and shard counts: the per-shard emission lists
    /// are pairwise disjoint and concatenate to exactly the brute-force
    /// truth, for every scatter algorithm. (Keys are unique per relation,
    /// so comparing key pairs detects both a dropped and a doubled pair.)
    #[test]
    fn sharded_join_is_duplicate_free_and_total(
        ls in arb_tuples(40),
        rs in arb_tuples(40),
        k in 1usize..5,
    ) {
        let opts = RefineOptions::default();
        let mut truth = Vec::new();
        for lt in &ls {
            for rt in &rs {
                if pbsm::join::refine::matches(lt, rt, SpatialPredicate::Intersects, &opts) {
                    truth.push((lt.key, rt.key));
                }
            }
        }
        truth.sort_unstable();

        let universe = ls
            .iter()
            .chain(&rs)
            .fold(Rect::empty(), |acc, t| acc.union(&t.geom.mbr()));
        let spec = JoinSpec::new("l", "r", SpatialPredicate::Intersects);
        let config = JoinConfig { work_mem_bytes: 8 * 1024, ..JoinConfig::default() };
        let mut sdb = ShardedDb::new(ShardedDbConfig::with_shards(k), universe);
        sdb.load_relation("l", &ls, false).unwrap();
        sdb.load_relation("r", &rs, false).unwrap();
        for alg in Algorithm::ALL {
            let out = sdb.join(alg, &spec, &config).unwrap();
            prop_assert_eq!(&out.pairs, &truth);
            let mut merged: Vec<(u64, u64)> =
                out.shard_pairs.iter().flatten().copied().collect();
            merged.sort_unstable();
            prop_assert_eq!(&merged, &truth);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Transient faults with bursts inside the retry budget are invisible:
    /// PBSM under any seeded `transient_only` schedule equals brute force
    /// bit-for-bit.
    #[test]
    fn pbsm_equals_brute_force_under_transient_faults(
        ls in arb_tuples(50),
        rs in arb_tuples(50),
        seed in any::<u64>(),
    ) {
        let db = Db::new(DbConfig::with_pool_mb(2));
        load_relation(&db, "l", &ls, false).unwrap();
        load_relation(&db, "r", &rs, false).unwrap();
        let truth = brute(&db, "l", "r");
        db.pool().clear_cache().unwrap();
        db.pool().disk_mut().set_faults(Some(
            pbsm::storage::FaultConfig::transient_only(seed, 50_000),
        ));
        let spec = JoinSpec::new("l", "r", SpatialPredicate::Intersects);
        let config = JoinConfig { work_mem_bytes: 8 * 1024, ..JoinConfig::default() };
        let out = pbsm_join(&db, &spec, &config).unwrap();
        prop_assert_eq!(out.pairs, truth);
    }
}

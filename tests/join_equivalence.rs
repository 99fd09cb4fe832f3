//! Cross-algorithm integration tests: PBSM, the R-tree join, and indexed
//! nested loops are different plans for the same query, so on every
//! workload, configuration, and buffer-pool size they must return
//! identical answers — and agree with a brute-force ground truth.

use pbsm::prelude::*;
use pbsm::storage::heap::HeapFile;

fn ground_truth(db: &Db, left: &str, right: &str, pred: SpatialPredicate) -> Vec<(Oid, Oid)> {
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
    let l = load(left);
    let r = load(right);
    let mut out = Vec::new();
    for (lo, lt) in &l {
        for (ro, rt) in &r {
            if pbsm::join::refine::matches(lt, rt, pred, &opts) {
                out.push((*lo, *ro));
            }
        }
    }
    out.sort_unstable();
    out
}

fn setup_tiger(pool_mb: usize, clustered: bool) -> Db {
    let db = Db::new(DbConfig::with_pool_mb(pool_mb));
    let cfg = TigerConfig::scaled(0.01);
    let mut road = tiger::road(&cfg);
    let mut hydro = tiger::hydrography(&cfg);
    if clustered {
        spatial_sort(&mut road);
        spatial_sort(&mut hydro);
    }
    load_relation(&db, "road", &road, clustered).unwrap();
    load_relation(&db, "hydro", &hydro, clustered).unwrap();
    db
}

#[test]
fn all_algorithms_agree_on_tiger() {
    let db = setup_tiger(2, false);
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let config = JoinConfig {
        work_mem_bytes: 128 * 1024,
        ..JoinConfig::default()
    };

    let truth = ground_truth(&db, "road", "hydro", SpatialPredicate::Intersects);
    assert!(!truth.is_empty(), "degenerate workload");

    let a = pbsm_join(&db, &spec, &config).unwrap();
    assert_eq!(a.pairs, truth, "PBSM");
    let b = rtree_join(&db, &spec, &config).unwrap();
    assert_eq!(b.pairs, truth, "R-tree join");
    let c = inl_join(&db, &spec, &config).unwrap();
    assert_eq!(c.pairs, truth, "INL");
}

#[test]
fn agreement_across_buffer_pool_sizes() {
    // The paper's 2/8/24 MB axis: answers must not depend on pool size.
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let mut reference: Option<Vec<(Oid, Oid)>> = None;
    for pool_mb in [2usize, 8, 24] {
        let db = setup_tiger(pool_mb, false);
        let out = pbsm_join(&db, &spec, &JoinConfig::for_db(&db)).unwrap();
        match &reference {
            None => reference = Some(out.pairs),
            Some(want) => assert_eq!(&out.pairs, want, "pool {pool_mb} MB"),
        }
    }
}

#[test]
fn clustering_does_not_change_results() {
    // Clustered inputs change OIDs (physical order), so compare surrogate
    // key pairs instead.
    let key_pairs = |db: &Db, pairs: &[(Oid, Oid)]| -> Vec<(u64, u64)> {
        let mut buf = Vec::new();
        let road = HeapFile::open(db.catalog().relation("road").unwrap().file);
        let hydro = HeapFile::open(db.catalog().relation("hydro").unwrap().file);
        let mut out: Vec<(u64, u64)> = pairs
            .iter()
            .map(|(a, b)| {
                road.fetch(db.pool(), *a, &mut buf).unwrap();
                let ka = SpatialTuple::decode(&buf).unwrap().key;
                hydro.fetch(db.pool(), *b, &mut buf).unwrap();
                let kb = SpatialTuple::decode(&buf).unwrap().key;
                (ka, kb)
            })
            .collect();
        out.sort_unstable();
        out
    };
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);

    let plain_db = setup_tiger(4, false);
    let plain = pbsm_join(&plain_db, &spec, &JoinConfig::for_db(&plain_db)).unwrap();
    let clustered_db = setup_tiger(4, true);
    let clustered = pbsm_join(&clustered_db, &spec, &JoinConfig::for_db(&clustered_db)).unwrap();
    assert_eq!(
        key_pairs(&plain_db, &plain.pairs),
        key_pairs(&clustered_db, &clustered.pairs)
    );
}

#[test]
fn sequoia_containment_all_algorithms() {
    let db = Db::new(DbConfig::with_pool_mb(4));
    let (landuse, islands) = sequoia::generate(&SequoiaConfig::scaled(0.01));
    load_relation(&db, "landuse", &landuse, false).unwrap();
    load_relation(&db, "islands", &islands, false).unwrap();
    let spec = JoinSpec::new("landuse", "islands", SpatialPredicate::Contains);
    let config = JoinConfig {
        work_mem_bytes: 256 * 1024,
        ..JoinConfig::default()
    };

    let truth = ground_truth(&db, "landuse", "islands", SpatialPredicate::Contains);
    assert!(!truth.is_empty());
    assert_eq!(pbsm_join(&db, &spec, &config).unwrap().pairs, truth, "PBSM");
    assert_eq!(
        rtree_join(&db, &spec, &config).unwrap().pairs,
        truth,
        "R-tree"
    );
    assert_eq!(inl_join(&db, &spec, &config).unwrap().pairs, truth, "INL");
}

#[test]
fn extensions_preserve_answers() {
    let db = setup_tiger(2, false);
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let base = JoinConfig {
        work_mem_bytes: 64 * 1024,
        ..JoinConfig::default()
    };
    let want = pbsm_join(&db, &spec, &base).unwrap().pairs;

    let repart = JoinConfig {
        dynamic_repartition: true,
        ..base.clone()
    };
    assert_eq!(pbsm_join(&db, &spec, &repart).unwrap().pairs, want);

    let rr = JoinConfig {
        tile_map: TileMapScheme::RoundRobin,
        ..base.clone()
    };
    assert_eq!(pbsm_join(&db, &spec, &rr).unwrap().pairs, want);

    for tiles in [16usize, 256, 4096] {
        let t = JoinConfig {
            num_tiles: tiles,
            ..base.clone()
        };
        assert_eq!(
            pbsm_join(&db, &spec, &t).unwrap().pairs,
            want,
            "{tiles} tiles"
        );
    }
}

#[test]
fn sorted_flush_off_still_correct() {
    let db = Db::new(DbConfig {
        sorted_flush: false,
        ..DbConfig::with_pool_mb(2)
    });
    let cfg = TigerConfig::scaled(0.005);
    load_relation(&db, "road", &tiger::road(&cfg), false).unwrap();
    load_relation(&db, "hydro", &tiger::hydrography(&cfg), false).unwrap();
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let out = pbsm_join(&db, &spec, &JoinConfig::for_db(&db)).unwrap();
    let truth = ground_truth(&db, "road", "hydro", SpatialPredicate::Intersects);
    assert_eq!(out.pairs, truth);
}

// ---------------------------------------------------------------------------
// Fault injection: joins under a seeded fault schedule must either match
// the fault-free ground truth bit-for-bit or fail with a clean typed error.
// ---------------------------------------------------------------------------

use pbsm::join::RecoveryPolicy;
use pbsm::storage::FaultConfig;

#[test]
fn pbsm_matches_oracle_under_absorbable_transient_faults() {
    // `transient_only` bursts are at most 2 consecutive failures; the
    // pool's default retry budget is 4 attempts, so every fault must be
    // absorbed and the answer must equal the ground truth exactly.
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let config = JoinConfig {
        work_mem_bytes: 64 * 1024, // force partitioning + spill I/O
        ..JoinConfig::default()
    };
    let mut fired = 0u64;
    for seed in [13u64, 1996, 271_828] {
        let db = setup_tiger(2, false);
        let truth = ground_truth(&db, "road", "hydro", SpatialPredicate::Intersects);
        db.pool().clear_cache().unwrap(); // cold start: faults see real I/O
        db.pool()
            .disk_mut()
            .set_faults(Some(FaultConfig::transient_only(seed, 20_000)));
        let out = pbsm_join(&db, &spec, &config).unwrap();
        assert_eq!(out.pairs, truth, "seed {seed}");
        fired += db.pool().disk().fault_tally().total();
    }
    assert!(fired > 0, "schedules must actually have injected faults");
}

#[test]
fn all_algorithms_survive_transient_faults_identically() {
    let db = setup_tiger(2, false);
    let truth = ground_truth(&db, "road", "hydro", SpatialPredicate::Intersects);
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let config = JoinConfig {
        work_mem_bytes: 64 * 1024,
        ..JoinConfig::default()
    };
    for (name, run) in [
        ("pbsm", pbsm_join as fn(&Db, &JoinSpec, &JoinConfig) -> _),
        ("rtree", rtree_join),
        ("inl", inl_join),
    ] {
        db.pool().clear_cache().unwrap();
        db.pool()
            .disk_mut()
            .set_faults(Some(FaultConfig::transient_only(4242, 20_000)));
        let out = run(&db, &spec, &config).unwrap();
        db.pool().disk_mut().set_faults(None);
        assert_eq!(out.pairs, truth, "{name}");
    }
}

/// `n` random segments in a 100 × 100 universe, each spanning up to `len`
/// along both axes.
fn segments(n: usize, len: f64, seed: u64) -> Vec<SpatialTuple> {
    let mut rnd = pbsm::geom::lcg::Lcg::new(seed);
    (0..n)
        .map(|i| {
            let (x, y) = (rnd.next_f64() * 100.0, rnd.next_f64() * 100.0);
            let end = Point::new(x + rnd.next_f64() * len, y + rnd.next_f64() * len);
            SpatialTuple::new(
                i as u64,
                Polyline::new(vec![Point::new(x, y), end]).into(),
                16,
            )
        })
        .collect()
}

#[test]
fn pbsm_enospc_fails_clean_and_destroys_temp_files() {
    // Capacity budgets from almost no headroom up to the join's peak
    // footprint, with degradation disabled so the first `DiskFull`
    // surfaces. The inputs overlap densely enough that their candidate
    // pairs take about as many pages as their partitions, so depending
    // on the budget the join runs out of space while partitioning,
    // merging or sorting candidates. Wherever it lands, the driver must
    // surface `DiskFull` as a typed error (never a panic), and — the
    // cleanup-on-error contract — every temp file of the failed attempt
    // must be destroyed, leaving the disk at its pre-join footprint with
    // no pinned frames. A journaled attempt must also close every
    // intent, leaving recovery nothing to reclaim.
    let spec = JoinSpec::new("r", "s", SpatialPredicate::Intersects);
    let config = JoinConfig {
        work_mem_bytes: 64 * 1024,
        recovery: RecoveryPolicy::disabled(),
        ..JoinConfig::default()
    };
    let (r, s) = (segments(2000, 6.0, 1), segments(2000, 6.0, 2));
    let counter = |name: &str| pbsm_obs::counter(name).get();
    for journal in [false, true] {
        let db_config = DbConfig {
            journal,
            ..DbConfig::with_pool_mb(2)
        };
        let db = Db::new(db_config);
        let metas = [
            load_relation(&db, "r", &r, false).unwrap(),
            load_relation(&db, "s", &s, false).unwrap(),
        ];
        db.pool().flush_all().unwrap();
        let truth = ground_truth(&db, "r", "s", SpatialPredicate::Intersects);
        // Pages held outside the journal, which legitimately only grows.
        let footprint = |db: &Db| {
            let b = db.telemetry_baseline();
            b.live_pages - b.journal_pages
        };
        let join_with_headroom = |db: &Db, headroom: u64| {
            let cap = db.pool().disk().live_pages() + headroom;
            db.pool().disk_mut().set_faults(Some(FaultConfig {
                capacity_pages: Some(cap),
                ..FaultConfig::default()
            }));
            let out = pbsm_join(db, &spec, &config);
            db.pool().disk_mut().set_faults(None);
            out
        };

        // The peak footprint: the smallest headroom the join survives.
        let (mut fails, mut peak) = (4u64, 8u64);
        while join_with_headroom(&db, peak).is_err() {
            (fails, peak) = (peak, peak * 2);
        }
        while peak - fails > 1 {
            let mid = (fails + peak) / 2;
            match join_with_headroom(&db, mid) {
                Ok(_) => peak = mid,
                Err(_) => fails = mid,
            }
        }

        let mut db = db;
        let mut phases = std::collections::BTreeSet::new();
        let steps = 10;
        for step in 0..steps {
            let headroom = 4 + (peak - 4) * step / steps;
            let ctx = format!("journal={journal}, headroom {headroom} of {peak} pages");
            let before = footprint(&db);
            let partitioned = counter("pbsm.partition.input_elements");
            let merged = counter("pbsm.merge.sweep_comparisons");
            let err = match join_with_headroom(&db, headroom) {
                Ok(_) => panic!("{ctx}: the join must fail"),
                Err(e) => e,
            };
            assert!(err.is_disk_full(), "{ctx}: expected DiskFull, got {err}");
            phases.insert(
                if counter("pbsm.partition.input_elements") - partitioned < 4000 {
                    "partition"
                } else if counter("pbsm.merge.sweep_comparisons") == merged {
                    "merge"
                } else {
                    "refinement sort"
                },
            );
            assert_eq!(footprint(&db), before, "{ctx}: temp files survived");
            let (free, pinned, mapped) = db.pool().frame_census();
            assert_eq!(pinned, 0, "{ctx}");
            assert_eq!(free + mapped, db.pool().num_frames(), "{ctx}");
            if journal {
                assert_eq!(db.pool().journal_open_intents(), 0, "{ctx}");
                let (recovered, state) = Db::recover(db_config, db.into_disk()).unwrap();
                assert_eq!(state.orphan_files, 0, "{ctx}: recovery reclaimed orphans");
                // The catalog is volatile: re-register the relations.
                for meta in &metas {
                    recovered.catalog_mut().put_relation(meta.clone());
                }
                db = recovered;
            }
        }
        assert_eq!(
            phases.into_iter().collect::<Vec<_>>(),
            ["merge", "partition", "refinement sort"],
            "journal={journal}: the sweep must run out of space in every spilling phase"
        );

        // With the budget lifted the same database still answers correctly.
        assert_eq!(join_with_headroom(&db, peak).unwrap().pairs, truth);
    }
}

#[test]
fn pbsm_degrades_through_probabilistic_enospc() {
    // Probabilistic ENOSPC: each attempt redraws the allocation stream, so
    // the bounded degradation loop gets fresh chances. Across seeds, every
    // outcome must be either the exact ground truth or a clean typed
    // DiskFull — and at least one seed must exercise the recovery loop.
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let config = JoinConfig {
        work_mem_bytes: 64 * 1024,
        ..JoinConfig::default()
    };
    let mut recovered = 0u64;
    let mut enospc_seen = 0u64;
    for seed in 0u64..6 {
        let db = setup_tiger(2, false);
        let truth = ground_truth(&db, "road", "hydro", SpatialPredicate::Intersects);
        db.pool().clear_cache().unwrap();
        db.pool().disk_mut().set_faults(Some(FaultConfig {
            seed,
            enospc_ppm: 30_000,
            ..FaultConfig::default()
        }));
        match pbsm_join(&db, &spec, &config) {
            Ok(out) => {
                assert_eq!(out.pairs, truth, "seed {seed}");
                recovered += out.stats.recovery_retries;
            }
            Err(e) => assert!(e.is_disk_full(), "seed {seed}: expected DiskFull, got {e}"),
        }
        enospc_seen += db.pool().disk().fault_tally().enospc;
    }
    assert!(
        enospc_seen > 0,
        "schedules must actually have injected ENOSPC"
    );
    assert!(
        recovered > 0,
        "at least one seed must succeed only after degradation"
    );
}

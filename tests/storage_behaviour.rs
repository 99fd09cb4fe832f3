//! Integration tests for the storage substrate's paper-relevant
//! behaviours: buffer-pool sizing effects, sorted write-behind, OID
//! physical ordering, and heap-file durability under churn.

use pbsm::geom::{Geometry, Point, Polyline};
use pbsm::storage::heap::HeapFile;
use pbsm::storage::tuple::SpatialTuple;
use pbsm::storage::{Db, DbConfig};

fn tuples(n: usize) -> Vec<SpatialTuple> {
    (0..n)
        .map(|i| {
            let x = (i % 97) as f64;
            let y = (i / 97) as f64;
            let geom: Geometry =
                Polyline::new(vec![Point::new(x, y), Point::new(x + 1.0, y + 1.0)]).into();
            SpatialTuple::new(i as u64, geom, (i % 50) as u16)
        })
        .collect()
}

#[test]
fn smaller_pool_means_more_io() {
    // The experimental axis of the whole paper: shrinking the buffer pool
    // must increase physical I/O for an identical workload.
    let run = |mb: usize| -> u64 {
        let db = Db::new(DbConfig::with_pool_mb(mb));
        let heap = HeapFile::create(db.pool()).unwrap();
        let ts = tuples(80_000);
        let mut buf = Vec::new();
        let mut oids = Vec::new();
        for t in &ts {
            t.encode_into(&mut buf);
            oids.push(heap.insert(db.pool(), &buf).unwrap());
        }
        // Random-order fetches: hit rate depends on pool size.
        let mut idx = 7usize;
        for _ in 0..80_000 {
            idx = (idx * 31 + 17) % oids.len();
            heap.fetch(db.pool(), oids[idx], &mut buf).unwrap();
        }
        db.disk_stats().reads
    };
    let small = run(2);
    let large = run(24);
    assert!(
        small > large * 2,
        "2 MB pool should read far more than 24 MB: {small} vs {large}"
    );
}

#[test]
fn oid_order_is_physical_order() {
    // §3.2 sorts candidates by OID to make fetches sequential; that only
    // works if OID order == insertion (physical) order.
    let db = Db::new(DbConfig::with_pool_mb(2));
    let heap = HeapFile::create(db.pool()).unwrap();
    let mut buf = Vec::new();
    let mut oids = Vec::new();
    for t in tuples(5_000) {
        t.encode_into(&mut buf);
        oids.push(heap.insert(db.pool(), &buf).unwrap());
    }
    let mut sorted = oids.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, oids);

    // And fetching in OID order is much cheaper than random order.
    db.pool().clear_cache().unwrap();
    let before = db.disk_stats();
    for oid in &oids {
        heap.fetch(db.pool(), *oid, &mut buf).unwrap();
    }
    let sequential = db.disk_stats().delta_since(&before);

    db.pool().clear_cache().unwrap();
    let before = db.disk_stats();
    let mut idx = 13usize;
    for _ in 0..oids.len() {
        idx = (idx * 101 + 7) % oids.len();
        heap.fetch(db.pool(), oids[idx], &mut buf).unwrap();
    }
    let random = db.disk_stats().delta_since(&before);
    assert!(
        random.io_ms > 2.0 * sequential.io_ms,
        "random fetch {:.0}ms should cost far more than sequential {:.0}ms",
        random.io_ms,
        sequential.io_ms
    );
}

#[test]
fn sorted_flush_cuts_seeks_under_identical_workload() {
    let run = |sorted: bool| -> u64 {
        let db = Db::new(DbConfig {
            sorted_flush: sorted,
            ..DbConfig::with_pool_mb(2)
        });
        let h1 = HeapFile::create(db.pool()).unwrap();
        let h2 = HeapFile::create(db.pool()).unwrap();
        let mut buf = Vec::new();
        // Interleave inserts into two files: dirty pages alternate, so the
        // naive single-victim flush seeks between files constantly.
        for t in tuples(30_000) {
            t.encode_into(&mut buf);
            let target = if t.key % 2 == 0 { &h1 } else { &h2 };
            target.insert(db.pool(), &buf).unwrap();
        }
        db.pool().flush_all().unwrap();
        db.disk_stats().seeks
    };
    let with = run(true);
    let without = run(false);
    assert!(
        with < without,
        "sorted write-behind should seek less: {with} vs {without}"
    );
}

#[test]
fn scan_sees_all_records_under_eviction() {
    let db = Db::new(DbConfig::with_pool_mb(2));
    let heap = HeapFile::create(db.pool()).unwrap();
    let ts = tuples(10_000);
    let mut buf = Vec::new();
    for t in &ts {
        t.encode_into(&mut buf);
        heap.insert(db.pool(), &buf).unwrap();
    }
    let decoded: Vec<SpatialTuple> = heap
        .scan(db.pool())
        .map(|r| SpatialTuple::decode(&r.unwrap().1).unwrap())
        .collect();
    assert_eq!(decoded, ts);
}

#[test]
fn db_stats_are_monotonic() {
    let db = Db::new(DbConfig::with_pool_mb(2));
    let heap = HeapFile::create(db.pool()).unwrap();
    let mut prev = db.disk_stats();
    let mut buf = Vec::new();
    for t in tuples(2_000) {
        t.encode_into(&mut buf);
        heap.insert(db.pool(), &buf).unwrap();
        let now = db.disk_stats();
        assert!(now.reads >= prev.reads && now.writes >= prev.writes);
        assert!(now.io_ms >= prev.io_ms);
        prev = now;
    }
}

// ---------------------------------------------------------------------------
// Fault injection & buffer-pool pressure (the chaos-test regression guards).
// ---------------------------------------------------------------------------

use pbsm::storage::{FaultConfig, StorageError};

#[test]
fn enospc_surfaces_typed_error_without_leaking_frames() {
    // A hard 48-page device: inserts must fail with `DiskFull` — a typed
    // error, not a panic — and the pool must come out of the failure with
    // every frame either free or cleanly mapped, none pinned.
    let db = Db::new(DbConfig {
        faults: Some(FaultConfig {
            capacity_pages: Some(48),
            ..FaultConfig::default()
        }),
        ..DbConfig::with_pool_mb(2)
    });
    let heap = HeapFile::create(db.pool()).unwrap();
    let mut buf = Vec::new();
    let mut err = None;
    for t in tuples(20_000) {
        t.encode_into(&mut buf);
        match heap.insert(db.pool(), &buf) {
            Ok(_) => {}
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    assert!(
        matches!(err, Some(StorageError::DiskFull { .. })),
        "expected DiskFull, got {err:?}"
    );
    let (free, pinned, mapped) = db.pool().frame_census();
    assert_eq!(pinned, 0, "no frame may stay pinned after an I/O error");
    assert_eq!(free + mapped, db.pool().num_frames());

    // Dropping the file returns its pages: a fresh heap can insert again.
    let used = db.pool().disk().live_pages();
    assert!(used > 0);
    db.pool().drop_file(heap.file_id());
    assert_eq!(db.pool().disk().live_pages(), 0);
    let heap2 = HeapFile::create(db.pool()).unwrap();
    tuples(1)[0].encode_into(&mut buf);
    heap2.insert(db.pool(), &buf).unwrap();
}

#[test]
fn pin_heavy_pressure_is_typed_error_then_recovers() {
    // Pin every frame of a tiny pool via live page guards. One more `get`
    // must fail with `BufferPoolFull` (no deadlock, no panic); releasing
    // the guards makes the same call succeed, with a clean census.
    let db = Db::new(DbConfig::with_pool_mb(2));
    let heap = HeapFile::create(db.pool()).unwrap();
    let mut buf = Vec::new();
    let ts = tuples(60_000); // well past 2 MB of pages
    for t in &ts {
        t.encode_into(&mut buf);
        heap.insert(db.pool(), &buf).unwrap();
    }
    db.pool().flush_all().unwrap();
    let n = db.pool().num_frames();
    let file = heap.file_id();
    let pids: Vec<_> = (0..n as u32)
        .map(|p| pbsm::storage::PageId::new(file, p))
        .collect();
    let guards: Vec<_> = pids.iter().map(|&p| db.pool().get(p).unwrap()).collect();
    let (_, pinned, _) = db.pool().frame_census();
    assert_eq!(pinned, n, "every frame pinned");

    let overflow = pbsm::storage::PageId::new(file, n as u32);
    match db.pool().get(overflow) {
        Err(StorageError::BufferPoolFull) => {}
        other => panic!("expected BufferPoolFull, got {:?}", other.map(|_| ())),
    }
    drop(guards);
    db.pool().get(overflow).unwrap();
    let (free, pinned, mapped) = db.pool().frame_census();
    assert_eq!(pinned, 0);
    assert_eq!(free + mapped, n);
}

#[test]
fn transient_fault_churn_keeps_free_list_canonical() {
    // Heavy transient faults during churn, all absorbed by the bounded
    // retry; afterwards `clear_cache` must leave the free list in its
    // canonical descending order — the PR 2 determinism guarantee that
    // cold-start replacement behaviour is reproducible after any fault
    // history.
    let db = Db::new(DbConfig::with_pool_mb(2));
    let heap = HeapFile::create(db.pool()).unwrap();
    let mut buf = Vec::new();
    for t in tuples(40_000) {
        t.encode_into(&mut buf);
        heap.insert(db.pool(), &buf).unwrap();
    }
    db.pool()
        .disk_mut()
        .set_faults(Some(FaultConfig::transient_only(77, 30_000)));
    let mut oid_buf = Vec::new();
    for r in heap.scan(db.pool()) {
        let (_, bytes) = r.unwrap(); // bursts <= 2 always absorbed
        oid_buf.clear();
        oid_buf.extend_from_slice(&bytes[..bytes.len().min(8)]);
    }
    assert!(
        db.pool().disk().fault_tally().transient_reads > 0,
        "schedule must actually have fired"
    );
    db.pool().disk_mut().set_faults(None);
    db.pool().clear_cache().unwrap();
    let free = db.pool().free_list();
    let want: Vec<usize> = (0..db.pool().num_frames()).rev().collect();
    assert_eq!(free, want, "free list must be canonical descending");
}

#[test]
fn torn_write_detected_as_corruption_after_crash() {
    // End-to-end checksum story: a torn write is silent at write time and
    // *latent* while the machine stays up — the drive cache still holds
    // what the writer intended. Only a crash makes the tear real, and then
    // read-back surfaces a typed `Corruption` — never garbage tuples.
    let db = Db::new(DbConfig::with_pool_mb(2));
    let heap = HeapFile::create(db.pool()).unwrap();
    let mut buf = Vec::new();
    let mut oids = Vec::new();
    for t in tuples(30_000) {
        t.encode_into(&mut buf);
        oids.push(heap.insert(db.pool(), &buf).unwrap());
    }
    // Tear every write while flushing the dirty pool (flush_all does not
    // sync, so the tears stay pending).
    db.pool().disk_mut().set_faults(Some(FaultConfig {
        seed: 5,
        torn_write_ppm: 1_000_000,
        ..FaultConfig::default()
    }));
    db.pool().flush_all().unwrap(); // torn writes "succeed"
    db.pool().disk_mut().set_faults(None);
    db.pool().clear_cache().unwrap();
    // No crash yet: every read-back sees the intended bytes.
    for oid in &oids {
        heap.fetch(db.pool(), *oid, &mut buf)
            .expect("pending tears must be invisible before a crash");
    }
    // Crash: the pending tears hit the platters. Reopen and read back.
    db.pool().disk_mut().crash_now();
    db.pool().disk_mut().clear_crash();
    db.pool().clear_cache().unwrap();
    let mut corruptions = 0;
    for oid in &oids {
        match heap.fetch(db.pool(), *oid, &mut buf) {
            Ok(()) => {}
            Err(StorageError::Corruption(_)) => corruptions += 1,
            Err(e) => panic!("expected Corruption, got {e}"),
        }
    }
    assert!(corruptions > 0, "at least one torn page must be detected");
}

// ---------------------------------------------------------------------------
// Latch invariants (concurrent serving layer)
// ---------------------------------------------------------------------------

use pbsm::storage::PAGE_SIZE;
use std::sync::Barrier;

/// Fill a fresh file with `n` pages whose first 8 bytes encode their
/// ordinal, flush, and return the page ids cold.
fn patterned_pages(db: &Db, n: usize) -> Vec<pbsm::storage::PageId> {
    let file = db.pool().disk_mut().create_file();
    let mut pids = Vec::with_capacity(n);
    for j in 0..n {
        let (pid, mut g) = db.pool().new_page(file).unwrap();
        g[..8].copy_from_slice(&(j as u64).to_le_bytes());
        drop(g);
        pids.push(pid);
    }
    db.pool().clear_cache().unwrap();
    pids
}

fn ordinal(page: &[u8; PAGE_SIZE]) -> u64 {
    u64::from_le_bytes(page[..8].try_into().unwrap())
}

#[test]
fn two_threads_can_double_pin_the_same_page() {
    // Latch invariant: read pins take *shared* frame latches, so two
    // threads repeatedly pinning the same page never block each other out
    // of correctness — both observe the identical bytes every time, and
    // no pin leaks.
    let db = Db::new(DbConfig {
        buffer_pool_bytes: 8 * PAGE_SIZE,
        ..DbConfig::default()
    });
    let pids = patterned_pages(&db, 4);
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                barrier.wait();
                for round in 0..300 {
                    let pid = pids[round % pids.len()];
                    let page = db.pool().get(pid).unwrap();
                    assert_eq!(ordinal(&page), (round % pids.len()) as u64);
                }
            });
        }
    });
    let (free, pinned, mapped) = db.pool().frame_census();
    assert_eq!(pinned, 0, "a reader leaked a pin");
    assert_eq!(free + mapped, db.pool().num_frames());
}

#[test]
fn eviction_never_races_a_pinned_frame() {
    // Latch invariant: the replacement sweep only considers frames with
    // pin == 0, and the write-back latch is taken under the state lock.
    // A thread holding a page guard keeps that frame resident and its
    // bytes stable while another thread churns the entire (tiny) pool
    // through many eviction cycles.
    let db = Db::new(DbConfig {
        buffer_pool_bytes: 8 * PAGE_SIZE,
        ..DbConfig::default()
    });
    let pids = patterned_pages(&db, 48);
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let page = db.pool().get(pids[0]).unwrap();
            barrier.wait(); // pinned — release the churner
            barrier.wait(); // churn finished
            assert!(
                db.pool().resident_pages().contains(&pids[0]),
                "the pinned page must have survived every eviction sweep"
            );
            assert_eq!(ordinal(&page), 0, "pinned frame bytes changed under churn");
        });
        scope.spawn(|| {
            barrier.wait();
            for _ in 0..6 {
                for (j, pid) in pids.iter().enumerate().skip(1) {
                    let page = db.pool().get(*pid).unwrap();
                    assert_eq!(ordinal(&page), j as u64);
                }
            }
            barrier.wait();
        });
    });
    let (_, pinned, _) = db.pool().frame_census();
    assert_eq!(pinned, 0);
}

#[test]
fn transient_faults_are_absorbed_under_concurrent_readers() {
    // `with_retry` recovery with the pool under concurrent read load: a
    // seeded transient-only schedule (bursts inside the default retry
    // budget) fires on the shared disk while four threads fault pages in
    // and out of a pool far smaller than the working set. Every read must
    // succeed with the right bytes, and the frame accounting must be
    // clean afterwards.
    let db = Db::new(DbConfig {
        buffer_pool_bytes: 8 * PAGE_SIZE,
        ..DbConfig::default()
    });
    let pids = patterned_pages(&db, 48);
    db.pool()
        .disk_mut()
        .set_faults(Some(FaultConfig::transient_only(91, 30_000)));
    std::thread::scope(|scope| {
        let (db, pids) = (&db, &pids);
        for w in 0..4usize {
            scope.spawn(move || {
                for round in 0..8 {
                    for j in ((w + round) % 4..pids.len()).step_by(4) {
                        let page = db.pool().get(pids[j]).unwrap();
                        assert_eq!(ordinal(&page), j as u64);
                    }
                }
            });
        }
    });
    assert!(
        db.pool().disk().fault_tally().transient_reads > 0,
        "the fault schedule must actually have fired"
    );
    db.pool().disk_mut().set_faults(None);
    let (free, pinned, mapped) = db.pool().frame_census();
    assert_eq!(pinned, 0);
    assert_eq!(free + mapped, db.pool().num_frames());
}

#[test]
fn cleared_pool_repeats_its_io() {
    // Cold rounds on one database must model the same I/O: clearing the
    // pool restores the free-frame order and the clock hand, so the second
    // cold join allocates and evicts exactly as the first did.
    use pbsm::prelude::*;
    let db = Db::new(DbConfig::with_pool_mb(2));
    assert_eq!(
        db.pool().replacement_policy(),
        pbsm::storage::buffer::ReplacementPolicy::Clock
    );
    let cfg = TigerConfig::scaled(0.02);
    load_relation(&db, "road", &tiger::road(&cfg), false).unwrap();
    load_relation(&db, "hydro", &tiger::hydrography(&cfg), false).unwrap();
    let spec = JoinSpec::new("road", "hydro", SpatialPredicate::Intersects);
    let config = JoinConfig::for_db(&db);
    let cold_join = || {
        db.pool().clear_cache().unwrap();
        let before = db.disk_stats();
        pbsm_join(&db, &spec, &config).unwrap();
        db.disk_stats().delta_since(&before)
    };
    let (first, second) = (cold_join(), cold_join());
    assert!(first.reads > 0 && first.writes > 0, "{first:?}");
    assert_eq!(
        (first.reads, first.writes, first.seeks),
        (second.reads, second.writes, second.seeks)
    );
    assert!(
        (first.io_ms - second.io_ms).abs() <= 1e-9 * first.io_ms,
        "{first:?} vs {second:?}"
    );
}

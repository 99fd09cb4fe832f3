//! The PBSM filter step (§3.1).
//!
//! 1. **Partitioning**: each input is scanned once; every tuple's
//!    key-pointer element is routed through the spatial partitioning
//!    function into one or more of the `P` partition files (`P` from
//!    Equation 1; with `P = 1` the single "partition" is exactly the
//!    paper's temporary relation `R_kp`).
//! 2. **Merging**: for each `i`, partitions `R_i` and `S_i` are loaded,
//!    sorted on `MBR.xl`, and joined with the plane sweep of
//!    [`pbsm_geom::sweep`]; matching element pairs contribute a candidate
//!    `<OID_R, OID_S>` to the output relation.
//!
//! Because the partitioning function replicates elements that span tiles
//! of multiple partitions, the candidate relation may contain duplicates;
//! they are eliminated by the refinement step's sort, exactly as in §3.2.

use crate::keyptr::{encode_pair, KeyPointer, KEY_PTR_SIZE, OID_PAIR_SIZE};
use crate::partition::{TileGrid, TileMapScheme};
use crate::{skew, JoinConfig};
use pbsm_geom::sweep::{sort_by_xl, sweep_join, SweepStats, Tagged};
use pbsm_storage::catalog::RelationMeta;
use pbsm_storage::heap::HeapFile;
use pbsm_storage::record::RecordFile;
use pbsm_storage::tuple::SpatialTuple;
use pbsm_storage::{Db, Oid, StorageResult};

/// Result of partitioning one input.
pub struct Partitioned {
    /// One key-pointer file per partition.
    pub files: Vec<RecordFile>,
    /// Elements scanned from the input.
    pub input_elements: u64,
    /// Elements written across all partitions (≥ input: replication).
    pub replicated_elements: u64,
}

impl Partitioned {
    /// Drops all partition files.
    pub fn destroy(self, db: &Db) {
        for f in self.files {
            f.destroy(db.pool());
        }
    }
}

/// Scans `rel` and routes each tuple's key-pointer element into `p`
/// partition files through the spatial partitioning function.
pub fn partition_input(
    db: &Db,
    rel: &RelationMeta,
    grid: &TileGrid,
    scheme: TileMapScheme,
    p: usize,
) -> StorageResult<Partitioned> {
    let mut files: Vec<RecordFile> = Vec::with_capacity(p);
    for _ in 0..p {
        match RecordFile::create(db.pool(), KEY_PTR_SIZE) {
            Ok(f) => files.push(f),
            Err(e) => {
                for f in files {
                    f.destroy(db.pool());
                }
                return Err(e);
            }
        }
    }
    match partition_into(db, rel, grid, scheme, p, &files) {
        Ok((input_elements, replicated_elements)) => Ok(Partitioned {
            files,
            input_elements,
            replicated_elements,
        }),
        Err(e) => {
            // A failed scan (I/O fault, ENOSPC mid-spill) releases every
            // partition file so a degraded re-run starts from clean disk.
            for f in files {
                f.destroy(db.pool());
            }
            Err(e)
        }
    }
}

fn partition_into(
    db: &Db,
    rel: &RelationMeta,
    grid: &TileGrid,
    scheme: TileMapScheme,
    p: usize,
    files: &[RecordFile],
) -> StorageResult<(u64, u64)> {
    let mut writers: Vec<_> = files.iter().map(|f| f.writer(db.pool())).collect();
    let heap = HeapFile::open(rel.file);
    // Per-tuple observations tally into stack-local histograms and merge
    // into the registry once, after the scan.
    let mut tiles_per_mbr = pbsm_obs::LocalHist::new();
    let mut copies_per_mbr = pbsm_obs::LocalHist::new();
    let mut tile_counts = vec![0u64; grid.num_tiles() as usize];
    let mut input_elements = 0u64;
    let mut replicated_elements = 0u64;
    for item in heap.scan(db.pool()) {
        let (oid, bytes) = item?;
        let tuple = SpatialTuple::decode(&bytes)?;
        let kp = KeyPointer {
            mbr: tuple.geom.mbr(),
            oid,
        };
        let enc = kp.encode();
        input_elements += 1;
        let mut tiles = 0u64;
        grid.for_each_tile(&kp.mbr, |t| {
            tiles += 1;
            tile_counts[t as usize] += 1;
        });
        tiles_per_mbr.record(tiles);
        let mut err = None;
        let mut copies = 0u64;
        grid.for_each_partition(&kp.mbr, scheme, p, |part| {
            copies += 1;
            if let Err(e) = writers[part as usize].push(&enc) {
                err = Some(e);
            }
        });
        copies_per_mbr.record(copies);
        replicated_elements += copies;
        if let Some(e) = err {
            return Err(e);
        }
    }
    for w in writers {
        w.finish()?;
    }
    let mut occupancy = pbsm_obs::LocalHist::new();
    for &c in &tile_counts {
        occupancy.record(c);
    }
    tiles_per_mbr.flush(pbsm_obs::cached_histogram!("pbsm.partition.tiles_per_mbr"));
    copies_per_mbr.flush(pbsm_obs::cached_histogram!("pbsm.partition.copies_per_mbr"));
    occupancy.flush(pbsm_obs::cached_histogram!("pbsm.partition.tile_occupancy"));
    pbsm_obs::cached_counter!("pbsm.partition.input_elements").add(input_elements);
    pbsm_obs::cached_counter!("pbsm.partition.replicated_elements").add(replicated_elements);
    Ok((input_elements, replicated_elements))
}

/// Decodes a partition file into memory.
pub fn load_partition(db: &Db, file: &RecordFile) -> StorageResult<Vec<KeyPointer>> {
    let bytes = file.read_all(db.pool())?;
    Ok(bytes
        .chunks_exact(KEY_PTR_SIZE)
        .map(KeyPointer::decode)
        .collect())
}

/// Plane-sweeps one in-memory partition pair, appending candidate OID
/// pairs to `out`. This is the paper's "computational geometry based
/// plane-sweeping technique … the spatial equivalent of sort–merge".
///
/// Returns the sweep's work tallies rather than reporting them itself, so
/// the pair loop can publish one total per merge.
pub fn sweep_partition_pair(
    r: &[KeyPointer],
    s: &[KeyPointer],
    out: &mut Vec<(Oid, Oid)>,
) -> SweepStats {
    let mut tr: Vec<Tagged> = r
        .iter()
        .enumerate()
        .map(|(i, kp)| (kp.mbr, i as u32))
        .collect();
    let mut ts: Vec<Tagged> = s
        .iter()
        .enumerate()
        .map(|(i, kp)| (kp.mbr, i as u32))
        .collect();
    sort_by_xl(&mut tr);
    sort_by_xl(&mut ts);
    sweep_join(&tr, &ts, |ir, is| {
        out.push((r[ir as usize].oid, s[is as usize].oid));
    })
}

/// Merges every partition pair, writing candidate OID pairs to a new
/// record file. Honors the configuration's skew-repartitioning extension.
pub fn merge_partitions(
    db: &Db,
    r_parts: &Partitioned,
    s_parts: &Partitioned,
    config: &JoinConfig,
) -> StorageResult<(RecordFile, u64)> {
    let out = RecordFile::create(db.pool(), OID_PAIR_SIZE)?;
    let mut writer = out.writer(db.pool());
    let merged = merge_pairs(
        db,
        r_parts,
        s_parts,
        config,
        |_| false,
        |_, pairs| {
            pairs
                .iter()
                .try_for_each(|(ro, so)| writer.push(&encode_pair(*ro, *so)))
        },
    )
    .and_then(|()| writer.finish());
    match merged {
        Ok(()) => {
            let candidates = out.count();
            Ok((out, candidates))
        }
        Err(e) => {
            out.destroy(db.pool());
            Err(e)
        }
    }
}

/// The pair loop: merges each partition pair `skip` does not claim and
/// hands its candidates to `emit`, in pair order.
pub(crate) fn merge_pairs(
    db: &Db,
    r_parts: &Partitioned,
    s_parts: &Partitioned,
    config: &JoinConfig,
    skip: impl Fn(u32) -> bool,
    mut emit: impl FnMut(u32, &[(Oid, Oid)]) -> StorageResult<()>,
) -> StorageResult<()> {
    debug_assert_eq!(r_parts.files.len(), s_parts.files.len());
    let mut stats = SweepStats::default();
    let mut pairs = Vec::new();
    for (i, (rf, sf)) in r_parts.files.iter().zip(&s_parts.files).enumerate() {
        let i = i as u32;
        if skip(i) {
            continue;
        }
        pairs.clear();
        stats.absorb(merge_pair(db, rf, sf, config, &mut pairs)?);
        emit(i, &pairs)?;
    }
    pbsm_obs::cached_counter!("pbsm.merge.sweep_comparisons").add(stats.comparisons);
    pbsm_obs::cached_counter!("pbsm.merge.candidates").add(stats.hits);
    Ok(())
}

/// Loads one partition pair and joins it: the plane sweep, or the §3.5
/// dynamic repartitioning when enabled and the pair overflows work memory.
fn merge_pair(
    db: &Db,
    rf: &RecordFile,
    sf: &RecordFile,
    config: &JoinConfig,
    out: &mut Vec<(Oid, Oid)>,
) -> StorageResult<SweepStats> {
    let r = load_partition(db, rf)?;
    let s = load_partition(db, sf)?;
    let pair_bytes = (r.len() + s.len()) * KEY_PTR_SIZE;
    Ok(
        if config.dynamic_repartition && pair_bytes > config.work_mem_bytes {
            skew::merge_with_repartition(&r, &s, config.work_mem_bytes, out)
        } else {
            sweep_partition_pair(&r, &s, out)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::load_relation;
    use pbsm_storage::{DbConfig, Oid};

    fn mk_tuples(n: usize, seed: u64, spread: f64) -> Vec<SpatialTuple> {
        crate::testgen::mk_tuples(n, seed, spread, 1, 2.0, 0.0, 8)
    }

    fn setup(p_mem: usize) -> (pbsm_storage::Db, RelationMeta, RelationMeta) {
        let db = pbsm_storage::Db::new(DbConfig::with_pool_mb(2));
        let r = load_relation(&db, "r", &mk_tuples(800, 3, 50.0), false).unwrap();
        let s = load_relation(&db, "s", &mk_tuples(600, 7, 50.0), false).unwrap();
        let _ = p_mem;
        (db, r, s)
    }

    /// Filter-level ground truth: all MBR-overlapping OID pairs.
    fn brute_filter(db: &pbsm_storage::Db, r: &RelationMeta, s: &RelationMeta) -> Vec<(Oid, Oid)> {
        let re = crate::loader::extract_entries(db, r).unwrap();
        let se = crate::loader::extract_entries(db, s).unwrap();
        let mut out = Vec::new();
        for (rr, ro) in &re {
            for (sr, so) in &se {
                if rr.intersects(sr) {
                    out.push((*ro, *so));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn read_pairs(db: &pbsm_storage::Db, rf: &RecordFile) -> Vec<(Oid, Oid)> {
        let bytes = rf.read_all(db.pool()).unwrap();
        let mut pairs: Vec<(Oid, Oid)> = bytes
            .chunks_exact(OID_PAIR_SIZE)
            .map(crate::keyptr::decode_pair)
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    #[test]
    fn single_partition_filter_matches_brute_force() {
        let (db, r, s) = setup(1);
        let universe = r.universe.union(&s.universe);
        let grid = TileGrid::new(universe, 64);
        let rp = partition_input(&db, &r, &grid, TileMapScheme::Hash, 1).unwrap();
        let sp = partition_input(&db, &s, &grid, TileMapScheme::Hash, 1).unwrap();
        assert_eq!(rp.input_elements, 800);
        assert_eq!(rp.replicated_elements, 800); // one partition: no replication
        let (cand, n) = merge_partitions(&db, &rp, &sp, &JoinConfig::default()).unwrap();
        assert!(n > 0);
        assert_eq!(read_pairs(&db, &cand), brute_filter(&db, &r, &s));
    }

    #[test]
    fn multi_partition_filter_matches_brute_force() {
        let (db, r, s) = setup(8);
        let universe = r.universe.union(&s.universe);
        for p in [2usize, 4, 7, 16] {
            for scheme in [TileMapScheme::RoundRobin, TileMapScheme::Hash] {
                let grid = TileGrid::new(universe, 256);
                let rp = partition_input(&db, &r, &grid, scheme, p).unwrap();
                let sp = partition_input(&db, &s, &grid, scheme, p).unwrap();
                assert!(rp.replicated_elements >= rp.input_elements);
                let (cand, _) = merge_partitions(&db, &rp, &sp, &JoinConfig::default()).unwrap();
                assert_eq!(
                    read_pairs(&db, &cand),
                    brute_filter(&db, &r, &s),
                    "p={p} scheme={scheme:?}"
                );
                cand.destroy(db.pool());
                rp.destroy(&db);
                sp.destroy(&db);
            }
        }
    }

    #[test]
    fn duplicates_only_from_replication() {
        // With one tile per partition and objects spanning tiles, raw
        // candidates contain duplicates; dedup must fix it.
        let (db, r, s) = setup(4);
        let universe = r.universe.union(&s.universe);
        let grid = TileGrid::new(universe, 4);
        let rp = partition_input(&db, &r, &grid, TileMapScheme::RoundRobin, 4).unwrap();
        let sp = partition_input(&db, &s, &grid, TileMapScheme::RoundRobin, 4).unwrap();
        let (cand, raw) = merge_partitions(&db, &rp, &sp, &JoinConfig::default()).unwrap();
        let deduped = read_pairs(&db, &cand);
        assert!(raw >= deduped.len() as u64);
        assert_eq!(deduped, brute_filter(&db, &r, &s));
    }
}

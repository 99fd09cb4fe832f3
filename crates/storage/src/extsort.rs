//! External merge sort over fixed-size-record files.
//!
//! The refinement step begins: "the OID pairs are sorted using OID_R as
//! the primary sort key and OID_S as the secondary sort key. Duplicate
//! entries are eliminated during this sort." (§3.2). Candidate files can
//! exceed the join's work memory, so the sort is external: run generation
//! bounded by `work_mem` bytes followed by a single k-way merge, with
//! optional duplicate elimination during the merge.

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::record::{RecordFile, RecordReader};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Run-checkpoint callback: `(run_index, run)` once the run is durable.
pub type OnRun<'a> = &'a mut dyn FnMut(u32, &RecordFile) -> StorageResult<()>;

/// Checkpoint hooks for a resumable external sort.
///
/// `resume_runs` are durable runs recovered from the intent journal; the
/// sort seeds its run list with them and skips the input records they
/// already capture (sum of their counts — run generation is strictly
/// sequential, so the resume point is a single prefix length). `on_run`
/// fires after each *newly generated* run has been flushed to disk,
/// letting the caller journal a run checkpoint; its error aborts the sort.
pub struct SortCheckpoint<'a> {
    /// Runs recovered from a previous incarnation, in run-index order.
    pub resume_runs: Vec<RecordFile>,
    /// Called with `(run_index, run)` once the run is durable.
    pub on_run: OnRun<'a>,
}

/// Sorts `input` by the total order `cmp`, producing a new file. When
/// `dedup` is set, records comparing `Equal` are emitted once.
///
/// `work_mem` bounds the bytes of records held in memory during run
/// generation (at least one record is always held).
pub fn external_sort(
    pool: &BufferPool,
    input: &RecordFile,
    work_mem: usize,
    cmp: impl Fn(&[u8], &[u8]) -> Ordering + Copy,
    dedup: bool,
) -> StorageResult<RecordFile> {
    external_sort_files(pool, &[input], work_mem, cmp, dedup, None)
}

/// [`external_sort`] with optional crash checkpoints: previously durable
/// runs are reused instead of regenerated, and each new run is reported
/// through the checkpoint callback once flushed.
pub fn external_sort_ckpt(
    pool: &BufferPool,
    input: &RecordFile,
    work_mem: usize,
    cmp: impl Fn(&[u8], &[u8]) -> Ordering + Copy,
    dedup: bool,
    ckpt: Option<SortCheckpoint<'_>>,
) -> StorageResult<RecordFile> {
    external_sort_files(pool, &[input], work_mem, cmp, dedup, ckpt)
}

/// [`external_sort_ckpt`] over several inputs read in order as one record
/// stream, so a resumed run's skip offset counts records of that stream.
/// All inputs must share one record size.
pub fn external_sort_files(
    pool: &BufferPool,
    inputs: &[&RecordFile],
    work_mem: usize,
    cmp: impl Fn(&[u8], &[u8]) -> Ordering + Copy,
    dedup: bool,
    ckpt: Option<SortCheckpoint<'_>>,
) -> StorageResult<RecordFile> {
    let _span = pbsm_obs::span("external sort");
    let mut runs: Vec<RecordFile> = Vec::new();
    let mut skip = 0u64;
    let mut on_run: Option<OnRun<'_>> = None;
    if let Some(c) = ckpt {
        skip = c.resume_runs.iter().map(RecordFile::count).sum();
        runs = c.resume_runs;
        on_run = Some(c.on_run);
    }
    match sort_with_runs(pool, inputs, work_mem, cmp, dedup, &mut runs, skip, on_run) {
        Ok(out) => Ok(out),
        Err(e) => {
            // An error mid-spill (e.g. ENOSPC) must not strand run pages:
            // the caller's degraded retry needs that space back. Dropping
            // a checkpointed run journals its release, which invalidates
            // the stale run checkpoints for any later recovery.
            for run in runs.drain(..) {
                run.destroy(pool);
            }
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sort_with_runs(
    pool: &BufferPool,
    inputs: &[&RecordFile],
    work_mem: usize,
    cmp: impl Fn(&[u8], &[u8]) -> Ordering + Copy,
    dedup: bool,
    runs: &mut Vec<RecordFile>,
    mut skip: u64,
    mut on_run: Option<OnRun<'_>>,
) -> StorageResult<RecordFile> {
    let rec_size = inputs
        .first()
        .ok_or(StorageError::Corrupt("external sort without input"))?
        .rec_size();
    debug_assert!(inputs.iter().all(|f| f.rec_size() == rec_size));
    let per_run = (work_mem / rec_size).max(1);

    // Phase 1: run generation, starting past any resumed prefix. Inputs
    // the prefix covers whole are never opened.
    {
        let mut readers = Vec::with_capacity(inputs.len());
        for input in inputs {
            if skip >= input.count() {
                skip -= input.count();
            } else {
                readers.push(input.reader_at(pool, skip));
                skip = 0;
            }
        }
        let mut at = 0;
        let mut chunk: Vec<u8> = Vec::with_capacity(per_run * rec_size);
        loop {
            let done = loop {
                let Some(reader) = readers.get_mut(at) else {
                    break true;
                };
                match reader.next_record()? {
                    Some(rec) => {
                        chunk.extend_from_slice(rec);
                        break false;
                    }
                    None => at += 1,
                }
            };
            if chunk.len() / rec_size >= per_run || (done && !chunk.is_empty()) {
                let run = write_sorted_run(pool, &chunk, rec_size, cmp)?;
                runs.push(run);
                if let Some(cb) = on_run.as_deref_mut() {
                    let run = runs
                        .last()
                        .ok_or(StorageError::Corrupt("run list emptied during generation"))?;
                    // Make the run durable before checkpointing it; the
                    // journal record must never outrun the data.
                    pool.flush_file(run.file_id())?;
                    cb((runs.len() - 1) as u32, run)?;
                }
                chunk.clear();
            }
            if done {
                break;
            }
        }
    }
    pbsm_obs::cached_counter!("storage.extsort.runs").add(runs.len() as u64);

    // Phase 2: k-way merge (or pass-through).
    match runs.len() {
        0 => {
            let out = RecordFile::create(pool, rec_size)?;
            out.writer(pool).finish()?;
            Ok(out)
        }
        1 if !dedup => runs
            .pop()
            .ok_or(StorageError::Corrupt("run list emptied during merge")),
        _ => {
            pbsm_obs::cached_counter!("storage.extsort.merge_passes").incr();
            let out = merge_runs(pool, runs, rec_size, cmp, dedup)?;
            for run in runs.drain(..) {
                run.destroy(pool);
            }
            Ok(out)
        }
    }
}

fn write_sorted_run(
    pool: &BufferPool,
    chunk: &[u8],
    rec_size: usize,
    cmp: impl Fn(&[u8], &[u8]) -> Ordering,
) -> StorageResult<RecordFile> {
    let n = chunk.len() / rec_size;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let ra = &chunk[a as usize * rec_size..(a as usize + 1) * rec_size];
        let rb = &chunk[b as usize * rec_size..(b as usize + 1) * rec_size];
        cmp(ra, rb)
    });
    let run = RecordFile::create(pool, rec_size)?;
    let result = {
        let mut w = run.writer(pool);
        let mut res = Ok(());
        for idx in order {
            let at = idx as usize * rec_size;
            if let Err(e) = w.push(&chunk[at..at + rec_size]) {
                res = Err(e);
                break;
            }
        }
        res.and_then(|()| w.finish())
    };
    match result {
        Ok(()) => Ok(run),
        Err(e) => {
            run.destroy(pool);
            Err(e)
        }
    }
}

/// Heap entry: current head record of one run. Ordering is inverted so the
/// `BinaryHeap` max-heap yields the *smallest* record first; ties broken by
/// run index for determinism.
struct Head<'a, F: Fn(&[u8], &[u8]) -> Ordering> {
    rec: Vec<u8>,
    run: usize,
    cmp: &'a F,
}

impl<F: Fn(&[u8], &[u8]) -> Ordering> PartialEq for Head<'_, F> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<F: Fn(&[u8], &[u8]) -> Ordering> Eq for Head<'_, F> {}
impl<F: Fn(&[u8], &[u8]) -> Ordering> PartialOrd for Head<'_, F> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<F: Fn(&[u8], &[u8]) -> Ordering> Ord for Head<'_, F> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.cmp)(&other.rec, &self.rec).then(other.run.cmp(&self.run))
    }
}

fn merge_runs(
    pool: &BufferPool,
    runs: &[RecordFile],
    rec_size: usize,
    cmp: impl Fn(&[u8], &[u8]) -> Ordering + Copy,
    dedup: bool,
) -> StorageResult<RecordFile> {
    let out = RecordFile::create(pool, rec_size)?;
    match merge_into(pool, runs, &out, cmp, dedup) {
        Ok(()) => Ok(out),
        Err(e) => {
            out.destroy(pool);
            Err(e)
        }
    }
}

fn merge_into(
    pool: &BufferPool,
    runs: &[RecordFile],
    out: &RecordFile,
    cmp: impl Fn(&[u8], &[u8]) -> Ordering + Copy,
    dedup: bool,
) -> StorageResult<()> {
    let mut w = out.writer(pool);
    let mut readers: Vec<RecordReader<'_>> = runs.iter().map(|r| r.reader(pool)).collect();
    let mut heap: BinaryHeap<Head<'_, _>> = BinaryHeap::with_capacity(runs.len());
    for (i, r) in readers.iter_mut().enumerate() {
        if let Some(rec) = r.next_record()? {
            heap.push(Head {
                rec: rec.to_vec(),
                run: i,
                cmp: &cmp,
            });
        }
    }
    let mut last: Option<Vec<u8>> = None;
    while let Some(head) = heap.pop() {
        let emit = match &last {
            Some(prev) if dedup => cmp(prev, &head.rec) != Ordering::Equal,
            _ => true,
        };
        if emit {
            w.push(&head.rec)?;
            last = Some(head.rec.clone());
        }
        if let Some(rec) = readers[head.run].next_record()? {
            heap.push(Head {
                rec: rec.to_vec(),
                run: head.run,
                cmp: &cmp,
            });
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskModel, SimDisk};
    use crate::page::PAGE_SIZE;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(frames * PAGE_SIZE, SimDisk::new(DiskModel::default()))
    }

    fn u64_cmp(a: &[u8], b: &[u8]) -> Ordering {
        let ka = u64::from_le_bytes(a[..8].try_into().unwrap());
        let kb = u64::from_le_bytes(b[..8].try_into().unwrap());
        ka.cmp(&kb)
    }

    fn fill(pool: &BufferPool, keys: &[u64]) -> RecordFile {
        let rf = RecordFile::create(pool, 8).unwrap();
        let mut w = rf.writer(pool);
        for k in keys {
            w.push(&k.to_le_bytes()).unwrap();
        }
        w.finish().unwrap();
        rf
    }

    fn read_keys(pool: &BufferPool, rf: &RecordFile) -> Vec<u64> {
        let mut out = Vec::new();
        let mut r = rf.reader(pool);
        while let Some(rec) = r.next_record().unwrap() {
            out.push(u64::from_le_bytes(rec[..8].try_into().unwrap()));
        }
        out
    }

    #[test]
    fn sorts_with_many_runs() {
        let pool = pool(32);
        // Pseudo-random keys; work_mem of 256 bytes → 32 records per run →
        // hundreds of runs.
        let keys: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let input = fill(&pool, &keys);
        let sorted = external_sort(&pool, &input, 256, u64_cmp, false).unwrap();
        let got = read_keys(&pool, &sorted);
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(sorted.count(), 10_000);
    }

    #[test]
    fn single_run_fast_path() {
        let pool = pool(32);
        let keys = vec![5u64, 3, 9, 1];
        let input = fill(&pool, &keys);
        let sorted = external_sort(&pool, &input, 1 << 20, u64_cmp, false).unwrap();
        assert_eq!(read_keys(&pool, &sorted), vec![1, 3, 5, 9]);
    }

    #[test]
    fn dedup_removes_duplicates_across_runs() {
        let pool = pool(32);
        let keys = vec![4u64, 2, 4, 2, 4, 1, 1, 9, 9, 9, 2];
        let input = fill(&pool, &keys);
        // Tiny work_mem forces duplicates to land in different runs.
        let sorted = external_sort(&pool, &input, 16, u64_cmp, true).unwrap();
        assert_eq!(read_keys(&pool, &sorted), vec![1, 2, 4, 9]);
    }

    #[test]
    fn dedup_single_run() {
        let pool = pool(32);
        let input = fill(&pool, &[7, 7, 7]);
        let sorted = external_sort(&pool, &input, 1 << 20, u64_cmp, true).unwrap();
        assert_eq!(read_keys(&pool, &sorted), vec![7]);
    }

    #[test]
    fn empty_input() {
        let pool = pool(32);
        let input = fill(&pool, &[]);
        let sorted = external_sort(&pool, &input, 1024, u64_cmp, true).unwrap();
        assert_eq!(read_keys(&pool, &sorted), Vec::<u64>::new());
    }

    #[test]
    fn checkpointed_sort_resumes_from_durable_runs() {
        // Model a crash during run generation: the first two runs (32
        // records each, matching work_mem 256 / rec_size 8) survived as
        // durable files; the rest of the input was never spilled. The
        // resumed sort must skip their prefix of the input, regenerate
        // only the remainder, and still produce the full sorted output —
        // also when the input is split across files and the prefix ends
        // inside the second of them.
        let keys: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        for splits in [vec![500], vec![50, 100, 350]] {
            let pool = pool(32);
            let mut rest = &keys[..];
            let inputs: Vec<RecordFile> = splits
                .iter()
                .map(|&n| {
                    let (head, tail) = rest.split_at(n);
                    rest = tail;
                    fill(&pool, head)
                })
                .collect();

            let per_run = 256 / 8;
            let mut resume_runs = Vec::new();
            for chunk in keys.chunks(per_run).take(2) {
                let mut sorted = chunk.to_vec();
                sorted.sort_unstable();
                resume_runs.push(fill(&pool, &sorted));
            }

            let mut new_runs: Vec<u32> = Vec::new();
            let mut on_run = |idx: u32, run: &RecordFile| {
                assert_eq!(run.rec_size(), 8);
                new_runs.push(idx);
                Ok(())
            };
            let sorted = external_sort_files(
                &pool,
                &inputs.iter().collect::<Vec<_>>(),
                256,
                u64_cmp,
                false,
                Some(SortCheckpoint {
                    resume_runs,
                    on_run: &mut on_run,
                }),
            )
            .unwrap();

            let mut want = keys.clone();
            want.sort_unstable();
            assert_eq!(read_keys(&pool, &sorted), want, "splits {splits:?}");
            // 500 records − 64 resumed = 436 left → 14 new runs, indices 2..16.
            assert_eq!(new_runs, (2..16).collect::<Vec<u32>>(), "splits {splits:?}");
        }
    }

    #[test]
    fn stable_under_tiny_pool() {
        // Pool smaller than the data forces constant eviction during the
        // merge; results must still be correct.
        let pool = pool(8);
        let keys: Vec<u64> = (0..5000u64).rev().collect();
        let input = fill(&pool, &keys);
        let sorted = external_sort(&pool, &input, 1024, u64_cmp, false).unwrap();
        let got = read_keys(&pool, &sorted);
        assert_eq!(got, (0..5000u64).collect::<Vec<_>>());
    }
}

//! The simulated disk and its 1996 cost model.
//!
//! The paper's testbed stored the database on a Seagate ST12400N (2 GB,
//! 3.5" SCSI). This module keeps all file contents in memory but meters
//! every page transfer: a *seek* is charged whenever an access is not
//! physically consecutive with the previous access, and every page charges
//! transfer time. The resulting [`DiskStats`] feed the Table-4-style I/O
//! cost columns of the benchmark harness.

use crate::error::{StorageError, StorageResult};
use crate::fault::{page_checksum, FaultConfig, FaultSchedule, FaultTally, WriteDecision};
use crate::page::{zeroed_page, FileId, PageBuf, PageId, PAGE_SIZE};
use pbsm_obs as obs;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Disk timing parameters.
///
/// Defaults approximate the ST12400N: ~11 ms average positioning time
/// (seek + rotational latency) and ~4.5 MB/s sustained transfer.
#[derive(Clone, Copy, Debug)]
pub struct DiskModel {
    /// Cost of a non-sequential access, in milliseconds.
    pub seek_ms: f64,
    /// Sustained transfer rate, in megabytes per second.
    pub transfer_mb_per_s: f64,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            seek_ms: 11.0,
            transfer_mb_per_s: 4.5,
        }
    }
}

impl DiskModel {
    /// Transfer time of one page in milliseconds.
    #[inline]
    pub fn page_transfer_ms(&self) -> f64 {
        (PAGE_SIZE as f64 / (self.transfer_mb_per_s * 1024.0 * 1024.0)) * 1000.0
    }

    /// Models the time for an access pattern of `pages` page transfers of
    /// which `seeks` were non-sequential.
    #[inline]
    pub fn time_ms(&self, pages: u64, seeks: u64) -> f64 {
        seeks as f64 * self.seek_ms + pages as f64 * self.page_transfer_ms()
    }
}

/// Monotonically increasing I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiskStats {
    /// Pages read from disk.
    pub reads: u64,
    /// Pages written to disk.
    pub writes: u64,
    /// Non-sequential accesses (head movements).
    pub seeks: u64,
    /// Modeled elapsed I/O time in milliseconds.
    pub io_ms: f64,
}

impl DiskStats {
    /// Component-wise difference `self - earlier`, for per-phase deltas.
    pub fn delta_since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            seeks: self.seeks - earlier.seeks,
            io_ms: self.io_ms - earlier.io_ms,
        }
    }

    /// Total page transfers.
    pub fn pages(&self) -> u64 {
        self.reads + self.writes
    }
}

struct FileData {
    pages: Vec<PageBuf>,
    /// Sidecar checksum per page, computed over the bytes the writer
    /// *intended* to store. A torn write damages `pages[i]` but not
    /// `sums[i]`, so the mismatch surfaces on the next read as
    /// [`StorageError::Corruption`]. Kept outside the 8 KB page so the
    /// on-page layout (and every page-capacity constant) is unchanged.
    sums: Vec<u64>,
    /// Freed files keep their slot (FileIds are never reused) but drop
    /// their pages.
    dropped: bool,
}

/// Disk-wide observability counters. `io_ns` mirrors `DiskStats::io_ms`
/// as integer nanoseconds so span deltas stay exact. One registered
/// [`obs::FlushMetrics`] source per disk drains the pending cells.
struct DiskCounters {
    pending_reads: AtomicU64,
    pending_writes: AtomicU64,
    pending_seeks: AtomicU64,
    pending_io_ns: AtomicU64,
    reads: obs::Counter,
    writes: obs::Counter,
    seeks: obs::Counter,
    io_ns: obs::Counter,
    /// Mirror of `SimDisk::live_pages`, published as the
    /// `storage.disk.live_pages` gauge only when it moved since the last
    /// flush so idle flushes stay free.
    live_pages: AtomicU64,
    live_pages_published: AtomicU64,
    live_pages_gauge: obs::Gauge,
}

impl Drop for DiskCounters {
    fn drop(&mut self) {
        // No disk, no live pages: publish the resting level so the
        // gauge's post-drop baseline is exact (leak-sentinel contract:
        // gauges return to baseline when the Db is dropped). Resolved by
        // name, not the stored handle: handles index the *registering*
        // thread's registry, and the drop may run on any thread.
        obs::gauge("storage.disk.live_pages").set(0);
        self.live_pages_published.store(0, Ordering::Relaxed);
    }
}

impl obs::FlushMetrics for DiskCounters {
    fn flush_metrics(&self) {
        for (pending, counter) in [
            (&self.pending_reads, self.reads),
            (&self.pending_writes, self.writes),
            (&self.pending_seeks, self.seeks),
            (&self.pending_io_ns, self.io_ns),
        ] {
            let n = pending.swap(0, Ordering::Relaxed);
            if n > 0 {
                counter.add(n);
            }
        }
        let live = self.live_pages.load(Ordering::Relaxed);
        if live != self.live_pages_published.load(Ordering::Relaxed) {
            self.live_pages_gauge.set(live);
            self.live_pages_published.store(live, Ordering::Relaxed);
        }
    }
}

/// Checksum of a freshly allocated (all-zero) page, computed once.
fn zeroed_sum() -> u64 {
    use std::sync::OnceLock;
    static SUM: OnceLock<u64> = OnceLock::new();
    *SUM.get_or_init(|| page_checksum(&zeroed_page()))
}

/// The simulated disk: an array of files, each an array of pages, plus the
/// metering state.
pub struct SimDisk {
    files: Vec<FileData>,
    model: DiskModel,
    stats: DiskStats,
    /// Last physical position touched, for sequentiality detection.
    last_pos: Option<PageId>,
    counters: Arc<DiskCounters>,
    /// Modeled seek / page-transfer costs in integer nanoseconds, for the
    /// `storage.disk.io_ns` counter.
    seek_ns: u64,
    transfer_ns: u64,
    /// Seeded fault plan; `None` (the default) is the perfect device.
    faults: Option<FaultSchedule>,
    /// Pages currently allocated across live files, for the hard
    /// `capacity_pages` bound. Dropped files return their pages.
    live_pages: u64,
    /// Every operation attempted over the disk's lifetime (reads, writes,
    /// allocations — including ones that failed). The crash harness
    /// probes a fault-free run to learn how many ops a join performs,
    /// then samples crash points inside that range.
    total_ops: u64,
    /// Countdown to the armed crash point: `Some(0)` means the *next*
    /// operation crashes. Re-armed by [`SimDisk::set_faults`].
    ops_until_crash: Option<u64>,
    /// Whether the crashing write itself is torn (see `FaultConfig`).
    crash_tear_in_flight: bool,
    /// True once the crash point fired: the handle is poisoned and every
    /// operation returns [`StorageError::Crashed`].
    crashed: bool,
    /// Torn writes that have not yet been confirmed by a [`SimDisk::sync`]:
    /// for each page, the span offset and the pre-write bytes that a crash
    /// would resurrect (the old half of a mixed old/new sector image).
    pending_tears: BTreeMap<PageId, (usize, [u8; TEAR_SPAN])>,
}

/// Bytes damaged by a torn write (one simulated sector's worth).
const TEAR_SPAN: usize = 64;

impl SimDisk {
    /// Creates an empty disk with the given timing model.
    pub fn new(model: DiskModel) -> Self {
        SimDisk {
            files: Vec::new(),
            model,
            stats: DiskStats::default(),
            last_pos: None,
            counters: {
                let counters = Arc::new(DiskCounters {
                    pending_reads: AtomicU64::new(0),
                    pending_writes: AtomicU64::new(0),
                    pending_seeks: AtomicU64::new(0),
                    pending_io_ns: AtomicU64::new(0),
                    reads: obs::counter("storage.disk.reads"),
                    writes: obs::counter("storage.disk.writes"),
                    seeks: obs::counter("storage.disk.seeks"),
                    io_ns: obs::counter("storage.disk.io_ns"),
                    live_pages: AtomicU64::new(0),
                    live_pages_published: AtomicU64::new(0),
                    live_pages_gauge: obs::gauge("storage.disk.live_pages"),
                });
                let weak = Arc::downgrade(&counters);
                let weak: std::sync::Weak<dyn obs::FlushMetrics> = weak;
                obs::register_flusher(weak);
                counters
            },
            seek_ns: (model.seek_ms * 1e6) as u64,
            transfer_ns: (model.page_transfer_ms() * 1e6) as u64,
            faults: None,
            live_pages: 0,
            total_ops: 0,
            ops_until_crash: None,
            crash_tear_in_flight: false,
            crashed: false,
            pending_tears: BTreeMap::new(),
        }
    }

    /// Installs (or clears) a seeded fault schedule. Takes effect for all
    /// subsequent I/O; the chaos harness uses this to load data on a
    /// perfect device and then pull the rug under the join. A configured
    /// `crash_after_ops` counts from this arming point.
    pub fn set_faults(&mut self, cfg: Option<FaultConfig>) {
        self.ops_until_crash = cfg.as_ref().and_then(|c| c.crash_after_ops);
        self.crash_tear_in_flight = cfg.as_ref().is_some_and(|c| c.crash_tear_in_flight);
        self.faults = cfg.map(FaultSchedule::new);
    }

    /// True when a fault schedule is installed.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Pages currently allocated across live files. Chaos tests size
    /// `capacity_pages` budgets relative to this.
    pub fn live_pages(&self) -> u64 {
        self.live_pages
    }

    /// Injected-fault totals of the current schedule (zeros when none).
    pub fn fault_tally(&self) -> FaultTally {
        self.faults
            .as_ref()
            .map_or(FaultTally::default(), |f| f.injected())
    }

    /// Every operation attempted over the disk's lifetime.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// True once a crash point fired and poisoned the handle.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Number of file slots ever created (dropped files keep their slot).
    pub fn num_files(&self) -> u32 {
        self.files.len() as u32
    }

    /// True when `file` exists and has been dropped.
    pub fn is_dropped(&self, file: FileId) -> bool {
        self.files.get(file.0 as usize).is_some_and(|f| f.dropped)
    }

    /// Durability point: confirms every write issued so far. Pending torn
    /// writes are healed — their stored copies already hold the intended
    /// bytes, and the sync means the device acknowledged them. Charges
    /// nothing and does not count as an operation, so enabling sync
    /// boundaries leaves every metered counter untouched.
    pub fn sync(&mut self) {
        self.pending_tears.clear();
    }

    /// Counts one operation against the armed crash point. Returns `true`
    /// when this operation is the one that crashes.
    fn count_op(&mut self) -> bool {
        self.total_ops += 1;
        match self.ops_until_crash.as_mut() {
            Some(0) => {
                self.ops_until_crash = None;
                true
            }
            Some(left) => {
                *left -= 1;
                false
            }
            None => false,
        }
    }

    /// Materializes every pending tear — each damaged span reverts to its
    /// pre-write bytes, while the sidecar checksum keeps describing the
    /// intended bytes — and poisons the handle.
    fn enter_crash(&mut self) {
        obs::flight::record(
            obs::flight::EventKind::CrashPoint,
            "disk",
            self.total_ops,
            0,
        );
        let tears = std::mem::take(&mut self.pending_tears);
        for (pid, (offset, old)) in tears {
            if let Some(f) = self.files.get_mut(pid.file.0 as usize) {
                if !f.dropped && (pid.page_no as usize) < f.pages.len() {
                    f.pages[pid.page_no as usize][offset..offset + TEAR_SPAN].copy_from_slice(&old);
                }
            }
        }
        self.crashed = true;
    }

    /// Kills the simulated process right now: pending tears materialize
    /// and every subsequent operation fails with
    /// [`StorageError::Crashed`]. Test hook; the scheduled path is
    /// `FaultConfig::crash_after_ops`.
    pub fn crash_now(&mut self) {
        self.enter_crash();
    }

    /// Un-poisons the handle, as the first step of recovery ("the process
    /// restarted"). Damage done by the crash — materialized tears, files
    /// that missed their cleanup — stays, exactly like a real restart.
    pub fn clear_crash(&mut self) {
        self.crashed = false;
        self.ops_until_crash = None;
    }

    /// Creates a new empty file and returns its id.
    pub fn create_file(&mut self) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(FileData {
            pages: Vec::new(),
            sums: Vec::new(),
            dropped: false,
        });
        id
    }

    /// Drops a file's pages (temp-file cleanup). The id is not reused,
    /// and the pages count back toward free capacity. A no-op on a
    /// crashed handle: a dead process cannot clean up after itself, which
    /// is exactly the garbage `Db::recover` exists to reclaim.
    pub fn drop_file(&mut self, file: FileId) {
        if self.crashed {
            return;
        }
        self.pending_tears.retain(|pid, _| pid.file != file);
        if let Some(f) = self.files.get_mut(file.0 as usize) {
            self.live_pages -= f.pages.len() as u64;
            self.counters
                .live_pages
                .store(self.live_pages, Ordering::Relaxed);
            f.pages.clear();
            f.pages.shrink_to_fit();
            f.sums.clear();
            f.sums.shrink_to_fit();
            f.dropped = true;
        }
    }

    /// Number of allocated pages in `file`.
    pub fn num_pages(&self, file: FileId) -> u32 {
        self.files
            .get(file.0 as usize)
            .map_or(0, |f| f.pages.len() as u32)
    }

    /// Appends a zeroed page to `file` and returns its id. Allocation
    /// itself is not charged; the subsequent write is. Fails with
    /// [`StorageError::DiskFull`] when the schedule injects ENOSPC or the
    /// device is past its configured capacity.
    pub fn allocate_page(&mut self, file: FileId) -> StorageResult<PageId> {
        if self.crashed {
            return Err(StorageError::Crashed);
        }
        if self.count_op() {
            self.enter_crash();
            return Err(StorageError::Crashed);
        }
        if self.files.get(file.0 as usize).is_none() {
            return Err(StorageError::InvalidPage(PageId::new(file, 0)));
        }
        if let Some(fs) = self.faults.as_mut() {
            if let Some(cap) = fs.config().capacity_pages {
                if self.live_pages >= cap {
                    fs.note_capacity_enospc();
                    return Err(StorageError::DiskFull { file: file.0 });
                }
            }
            if fs.on_allocate() {
                return Err(StorageError::DiskFull { file: file.0 });
            }
        }
        let f = &mut self.files[file.0 as usize];
        let page_no = f.pages.len() as u32;
        f.pages.push(zeroed_page());
        f.sums.push(zeroed_sum());
        self.live_pages += 1;
        self.counters
            .live_pages
            .store(self.live_pages, Ordering::Relaxed);
        Ok(PageId::new(file, page_no))
    }

    #[inline]
    fn account(&mut self, pid: PageId, is_write: bool) {
        let sequential = match self.last_pos {
            Some(last) => last.file == pid.file && pid.page_no == last.page_no.wrapping_add(1),
            None => false,
        };
        let mut io_ns = self.transfer_ns;
        if !sequential {
            self.stats.seeks += 1;
            self.stats.io_ms += self.model.seek_ms;
            io_ns += self.seek_ns;
            obs::bump_shared(&self.counters.pending_seeks);
        }
        self.stats.io_ms += self.model.page_transfer_ms();
        self.counters
            .pending_io_ns
            .fetch_add(io_ns, Ordering::Relaxed);
        if is_write {
            self.stats.writes += 1;
            obs::bump_shared(&self.counters.pending_writes);
        } else {
            self.stats.reads += 1;
            obs::bump_shared(&self.counters.pending_reads);
        }
        self.last_pos = Some(pid);
    }

    /// Reads a page into `buf`, charging the model. Verifies the sidecar
    /// checksum: a mismatch means a torn write damaged the stored copy,
    /// surfaced as the non-retryable [`StorageError::Corruption`].
    pub fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> StorageResult<()> {
        if self.crashed {
            return Err(StorageError::Crashed);
        }
        if self.count_op() {
            self.enter_crash();
            return Err(StorageError::Crashed);
        }
        let f = self
            .files
            .get(pid.file.0 as usize)
            .filter(|f| !f.dropped)
            .ok_or(StorageError::InvalidPage(pid))?;
        if pid.page_no as usize >= f.pages.len() {
            return Err(StorageError::InvalidPage(pid));
        }
        if let Some(fs) = self.faults.as_mut() {
            // Transient fault: no transfer happened, nothing is charged.
            if fs.on_read(pid) {
                return Err(StorageError::TransientRead(pid));
            }
        }
        let f = &self.files[pid.file.0 as usize];
        buf.copy_from_slice(&f.pages[pid.page_no as usize][..]);
        let sum_ok = f.sums[pid.page_no as usize] == page_checksum(buf);
        self.account(pid, false);
        if !sum_ok {
            obs::cached_counter!("storage.disk.checksum_failures").incr();
            return Err(StorageError::Corruption(pid));
        }
        Ok(())
    }

    /// Writes a page from `buf`, charging the model. A torn-write fault
    /// reports success and stores the intended bytes, but registers a
    /// *pending tear*: if a crash strikes before the next [`sync`], the
    /// damaged span reverts to its pre-write contents and the checksum
    /// mismatch surfaces on the post-crash read, like a real torn sector.
    ///
    /// [`sync`]: SimDisk::sync
    pub fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> StorageResult<()> {
        if self.crashed {
            return Err(StorageError::Crashed);
        }
        let crash_here = self.count_op();
        let f = self
            .files
            .get(pid.file.0 as usize)
            .filter(|f| !f.dropped)
            .ok_or(StorageError::InvalidPage(pid))?;
        if pid.page_no as usize >= f.pages.len() {
            return Err(StorageError::InvalidPage(pid));
        }
        if crash_here {
            if self.crash_tear_in_flight {
                // The dying write reaches the platter half-done: store the
                // intended bytes, then revert one sector-sized span to the
                // old image. Offset derives from the op count so the same
                // crash point tears the same bytes on every replay.
                let offset = (self.total_ops.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13) as usize
                    % (PAGE_SIZE - TEAR_SPAN);
                let f = &mut self.files[pid.file.0 as usize];
                let page = &mut f.pages[pid.page_no as usize];
                let mut old = [0u8; TEAR_SPAN];
                old.copy_from_slice(&page[offset..offset + TEAR_SPAN]);
                page.copy_from_slice(buf);
                f.sums[pid.page_no as usize] = page_checksum(buf);
                page[offset..offset + TEAR_SPAN].copy_from_slice(&old);
                self.pending_tears.remove(&pid);
            }
            self.enter_crash();
            return Err(StorageError::Crashed);
        }
        let decision = match self.faults.as_mut() {
            Some(fs) => fs.on_write(pid),
            None => WriteDecision::Ok,
        };
        if matches!(decision, WriteDecision::Transient) {
            // No transfer happened; the stored copy is untouched.
            return Err(StorageError::TransientWrite(pid));
        }
        // Capture the pre-write span before overwriting, in case this
        // write is torn: a crash resurrects those bytes.
        let torn_old = if let WriteDecision::Torn { offset } = decision {
            let page = &self.files[pid.file.0 as usize].pages[pid.page_no as usize];
            let mut old = [0u8; TEAR_SPAN];
            old.copy_from_slice(&page[offset..offset + TEAR_SPAN]);
            Some((offset, old))
        } else {
            None
        };
        let f = &mut self.files[pid.file.0 as usize];
        let page = &mut f.pages[pid.page_no as usize];
        page.copy_from_slice(buf);
        // The checksum always describes the *intended* bytes.
        f.sums[pid.page_no as usize] = page_checksum(buf);
        match torn_old {
            Some((offset, old)) => {
                self.pending_tears.insert(pid, (offset, old));
            }
            // A clean full-page rewrite supersedes any earlier tear.
            None => {
                self.pending_tears.remove(&pid);
            }
        }
        self.account(pid, true);
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// The timing model in force.
    pub fn model(&self) -> DiskModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(byte: u8) -> PageBuf {
        let mut p = zeroed_page();
        p.fill(byte);
        p
    }

    #[test]
    fn roundtrip_and_counters() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let p0 = d.allocate_page(f).unwrap();
        let p1 = d.allocate_page(f).unwrap();
        assert_eq!(d.num_pages(f), 2);

        d.write_page(p0, &page_of(7)).unwrap();
        d.write_page(p1, &page_of(9)).unwrap();
        let mut buf = zeroed_page();
        d.read_page(p0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));

        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        // Write p0 (seek), write p1 (sequential), read p0 (seek back).
        assert_eq!(s.seeks, 2);
    }

    #[test]
    fn sequential_writes_incur_one_seek() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let pids: Vec<_> = (0..10).map(|_| d.allocate_page(f).unwrap()).collect();
        let buf = page_of(1);
        for pid in &pids {
            d.write_page(*pid, &buf).unwrap();
        }
        assert_eq!(d.stats().seeks, 1);
        assert_eq!(d.stats().writes, 10);
    }

    #[test]
    fn random_writes_incur_many_seeks() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let pids: Vec<_> = (0..10).map(|_| d.allocate_page(f).unwrap()).collect();
        let buf = page_of(1);
        for pid in pids.iter().rev() {
            d.write_page(*pid, &buf).unwrap();
        }
        assert_eq!(d.stats().seeks, 10);
    }

    #[test]
    fn model_time_accumulates() {
        let model = DiskModel {
            seek_ms: 10.0,
            transfer_mb_per_s: 8.0,
        };
        let mut d = SimDisk::new(model);
        let f = d.create_file();
        let p = d.allocate_page(f).unwrap();
        d.write_page(p, &page_of(0)).unwrap();
        let expect = 10.0 + model.page_transfer_ms();
        assert!((d.stats().io_ms - expect).abs() < 1e-9);
        assert_eq!(model.time_ms(1, 1), expect);
    }

    #[test]
    fn delta_since() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let p = d.allocate_page(f).unwrap();
        d.write_page(p, &page_of(0)).unwrap();
        let snap = d.stats();
        let mut buf = zeroed_page();
        d.read_page(p, &mut buf).unwrap();
        let delta = d.stats().delta_since(&snap);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 0);
    }

    #[test]
    fn torn_write_detected_after_crash() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let p = d.allocate_page(f).unwrap();
        d.set_faults(Some(crate::fault::FaultConfig {
            seed: 5,
            torn_write_ppm: 1_000_000,
            ..Default::default()
        }));
        d.write_page(p, &page_of(3)).unwrap(); // "succeeds", tear pending
        assert_eq!(d.fault_tally().torn_writes, 1);
        // Until a crash, the stored copy is intact: the tear is latent.
        let mut buf = zeroed_page();
        d.read_page(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 3));
        // Crash: the tear materializes (the span reverts to the old,
        // all-zero image) and the next read reports corruption.
        d.crash_now();
        assert_eq!(d.read_page(p, &mut buf), Err(StorageError::Crashed));
        d.clear_crash();
        assert_eq!(d.read_page(p, &mut buf), Err(StorageError::Corruption(p)));
        // Rewriting the page with faults off repairs it.
        d.set_faults(None);
        d.write_page(p, &page_of(3)).unwrap();
        d.read_page(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 3));
    }

    #[test]
    fn sync_heals_pending_tears() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let p = d.allocate_page(f).unwrap();
        d.set_faults(Some(crate::fault::FaultConfig {
            seed: 5,
            torn_write_ppm: 1_000_000,
            ..Default::default()
        }));
        d.write_page(p, &page_of(4)).unwrap();
        // The sync confirms the write, so a later crash damages nothing.
        d.sync();
        d.crash_now();
        d.clear_crash();
        let mut buf = zeroed_page();
        d.read_page(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 4));
    }

    #[test]
    fn clean_rewrite_supersedes_pending_tear() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let p = d.allocate_page(f).unwrap();
        d.set_faults(Some(crate::fault::FaultConfig {
            seed: 5,
            torn_write_ppm: 1_000_000,
            ..Default::default()
        }));
        d.write_page(p, &page_of(1)).unwrap(); // tear pending
        d.set_faults(None);
        d.write_page(p, &page_of(2)).unwrap(); // clean full rewrite
        d.crash_now();
        d.clear_crash();
        let mut buf = zeroed_page();
        d.read_page(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
    }

    #[test]
    fn crash_point_poisons_every_later_op() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let p0 = d.allocate_page(f).unwrap();
        let p1 = d.allocate_page(f).unwrap();
        d.write_page(p0, &page_of(1)).unwrap();
        // Arm: op 0 (the next one) survives, op 1 crashes.
        d.set_faults(Some(crate::fault::FaultConfig::crash_at(7, 1)));
        d.write_page(p1, &page_of(2)).unwrap();
        assert!(!d.is_crashed());
        assert_eq!(d.write_page(p0, &page_of(9)), Err(StorageError::Crashed));
        assert!(d.is_crashed());
        let mut buf = zeroed_page();
        assert_eq!(d.read_page(p1, &mut buf), Err(StorageError::Crashed));
        assert_eq!(d.allocate_page(f), Err(StorageError::Crashed));
        // drop_file is a no-op on a dead process: the pages leak.
        d.drop_file(f);
        assert!(!d.is_dropped(f));
        assert_eq!(d.num_pages(f), 2);
        // Restart: p1 reads back intact (its write completed cleanly),
        // while the in-flight write to p0 left a mixed old/new image
        // whose checksum mismatch is reported as corruption.
        d.clear_crash();
        d.set_faults(None);
        d.read_page(p1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
        assert_eq!(d.read_page(p0, &mut buf), Err(StorageError::Corruption(p0)));
    }

    #[test]
    fn crash_point_is_deterministic() {
        let run = || {
            let mut d = SimDisk::new(DiskModel::default());
            let f = d.create_file();
            let pids: Vec<_> = (0..4).map(|_| d.allocate_page(f).unwrap()).collect();
            d.set_faults(Some(crate::fault::FaultConfig::crash_at(3, 5)));
            let mut outcomes = Vec::new();
            for round in 0..3u8 {
                for pid in &pids {
                    outcomes.push(d.write_page(*pid, &page_of(round)).is_ok());
                }
            }
            d.clear_crash();
            d.set_faults(None);
            let mut images = Vec::new();
            for pid in &pids {
                let mut buf = zeroed_page();
                images.push(d.read_page(*pid, &mut buf).map(|()| buf.to_vec()));
            }
            (outcomes, images)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn transient_read_leaves_data_intact() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let p = d.allocate_page(f).unwrap();
        d.write_page(p, &page_of(8)).unwrap();
        d.set_faults(Some(crate::fault::FaultConfig {
            seed: 1,
            read_transient_ppm: 1_000_000,
            max_transient_burst: 1,
            ..Default::default()
        }));
        let mut buf = zeroed_page();
        assert_eq!(
            d.read_page(p, &mut buf),
            Err(StorageError::TransientRead(p))
        );
        let reads_before = d.stats().reads;
        d.set_faults(None);
        d.read_page(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 8));
        // The failed attempt charged no transfer.
        assert_eq!(d.stats().reads, reads_before + 1);
    }

    #[test]
    fn capacity_bound_enospc_and_reclaim() {
        let mut d = SimDisk::new(DiskModel::default());
        let f1 = d.create_file();
        let f2 = d.create_file();
        d.set_faults(Some(crate::fault::FaultConfig {
            seed: 0,
            capacity_pages: Some(2),
            ..Default::default()
        }));
        d.allocate_page(f1).unwrap();
        d.allocate_page(f1).unwrap();
        assert_eq!(
            d.allocate_page(f2),
            Err(StorageError::DiskFull { file: f2.0 })
        );
        assert_eq!(d.fault_tally().enospc, 1);
        // Dropping a file returns its pages to the capacity budget.
        d.drop_file(f1);
        d.allocate_page(f2).unwrap();
    }

    #[test]
    fn dropped_file_rejects_io() {
        let mut d = SimDisk::new(DiskModel::default());
        let f = d.create_file();
        let p = d.allocate_page(f).unwrap();
        d.drop_file(f);
        let mut buf = zeroed_page();
        assert!(d.read_page(p, &mut buf).is_err());
    }
}

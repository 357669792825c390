//! Disk managers: the page-granular backing stores under the buffer pool.
//!
//! Three implementations:
//!
//! * [`InMemoryDisk`] — plain page store, zero simulated cost. The
//!   baseline substrate for unit tests.
//! * [`SimulatedDisk`] — page store plus an explicit latency model.
//!   Every read/write is charged a configurable number of simulated
//!   nanoseconds, accumulated in [`IoStats`]. This is the substitution
//!   for the paper's real disk: Figures 2(b) and 3 depend on the *ratio*
//!   between memory and disk access costs, which the model makes
//!   explicit and reproducible.
//! * [`FileDisk`] — a real file on the local filesystem, for runs that
//!   want actual I/O syscalls.

use crate::error::{Result, StorageError};
use crate::lockrank;
use crate::page::{Page, PageId};
use crate::stats::{AtomicIoStats, IoStats};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Abstract page-granular backing store.
///
/// All methods take `&self`; implementations are internally synchronized
/// so a single disk can sit under a shared buffer pool.
///
/// # Concurrency expectations
///
/// The buffer pool issues `read`s *outside* its shard locks (the
/// overlapped-fault state machine) and `write`s from a background
/// write-behind flusher, so an implementation must expect **many
/// concurrent calls**, including several reads in flight at once.
/// Implementations that block (e.g. [`LatencyDisk`], [`FileDisk`])
/// should do so without holding an internal lock across the wait, or
/// they re-serialize the faults the pool just overlapped. The pool
/// guarantees it never issues two concurrent `write`s for the *same*
/// page, and never a `read` of a page concurrent with its own pending
/// write-behind write (queued bytes are served from memory instead) —
/// so per-page ordering is the pool's problem, not the disk's.
///
/// # Accounting
///
/// [`DiskManager::stats`] counts operations that reach the disk. Pool
/// misses served from the write-behind queue never get here, which is
/// what lets tests assert "N threads, one fault, exactly one read" via
/// [`IoStats`].
pub trait DiskManager: Send + Sync {
    /// Size in bytes of every page on this disk.
    fn page_size(&self) -> usize;

    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> Result<PageId>;

    /// Reads page `id` into `buf`.
    ///
    /// `buf` must have been created with this disk's page size.
    fn read(&self, id: PageId, buf: &mut Page) -> Result<()>;

    /// Writes `page` to page `id`.
    fn write(&self, id: PageId, page: &Page) -> Result<()>;

    /// Writes a batch of pages. The default implementation issues one
    /// [`DiskManager::write`] per entry, stopping at the first error;
    /// implementations with a cheaper bulk path (one lock acquisition,
    /// one syscall, one device round-trip) override it — the buffer
    /// pool's write-behind flusher drains its queue through this, so an
    /// override directly amortizes the background write path.
    ///
    /// Contract: callers never repeat a page id within one batch (the
    /// flusher claims each queue slot before batching), and a batch
    /// error makes no claim about which pages landed — callers must
    /// treat every page in the batch as unwritten and retry; page
    /// writes are idempotent, so re-writing a page that did land is
    /// harmless.
    fn write_many(&self, pages: &[(PageId, &Page)]) -> Result<()> {
        for (id, page) in pages {
            self.write(*id, page)?;
        }
        Ok(())
    }

    /// Reads a batch of pages, each into its paired buffer. The default
    /// implementation issues one [`DiskManager::read`] per entry,
    /// stopping at the first error; implementations with a cheaper bulk
    /// path (one lock acquisition, one syscall, one device round-trip)
    /// override it — the buffer pool's batch-fault path drains its
    /// misses through this, so an override directly amortizes cold
    /// scans and multi-point lookups.
    ///
    /// Contract (the read-side twin of [`DiskManager::write_many`]):
    /// callers never repeat a page id within one batch (the pool claims
    /// each `Loading` slot before batching), and a batch error makes no
    /// claim about which buffers were filled — callers must treat every
    /// page in the batch as unread and retry; page reads are
    /// idempotent, so re-reading a page that did land is harmless.
    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> Result<()> {
        for (id, buf) in pages.iter_mut() {
            self.read(*id, buf)?;
        }
        Ok(())
    }

    /// Number of allocated pages.
    fn num_pages(&self) -> u64;

    /// I/O counters (reads, writes, simulated time).
    fn stats(&self) -> IoStats;

    /// Zeroes the I/O counters.
    fn reset_stats(&self);
}

/// Latency model for [`SimulatedDisk`].
///
/// Defaults approximate a 2011-era SATA drive, the hardware class behind
/// the paper's measurements: ~10 ms per random page read, ~10 ms writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskModel {
    /// Simulated nanoseconds charged per page read.
    pub read_ns: u64,
    /// Simulated nanoseconds charged per page write.
    pub write_ns: u64,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel { read_ns: 10_000_000, write_ns: 10_000_000 }
    }
}

impl DiskModel {
    /// A model approximating a modern NVMe device (~80 µs random read).
    pub fn nvme() -> Self {
        DiskModel { read_ns: 80_000, write_ns: 20_000 }
    }

    /// A model with zero cost (useful to isolate CPU effects).
    pub fn free() -> Self {
        DiskModel { read_ns: 0, write_ns: 0 }
    }
}

/// In-memory page store with no cost model.
pub struct InMemoryDisk {
    page_size: usize,
    pages: Mutex<Vec<Box<[u8]>>>,
    stats: AtomicIoStats,
}

impl InMemoryDisk {
    /// Creates an empty disk with the given page size.
    pub fn new(page_size: usize) -> Self {
        InMemoryDisk {
            page_size,
            pages: Mutex::with_rank(lockrank::DISK_IO, Vec::new()),
            stats: AtomicIoStats::new(),
        }
    }
}

impl DiskManager for InMemoryDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.lock();
        pages.push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(PageId(pages.len() as u64 - 1))
    }

    fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
        let pages = self.pages.lock();
        let src = pages.get(id.0 as usize).ok_or(StorageError::PageNotFound(id.0))?;
        buf.bytes_mut().copy_from_slice(src);
        self.stats.record_read(0);
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        let mut pages = self.pages.lock();
        let dst = pages.get_mut(id.0 as usize).ok_or(StorageError::PageNotFound(id.0))?;
        dst.copy_from_slice(page.bytes());
        self.stats.record_write(0);
        Ok(())
    }

    /// Bulk override: the whole batch lands under **one** store-lock
    /// acquisition instead of one per page (the default impl's cost),
    /// which is exactly the round-trip amortization the write-behind
    /// flusher batches for.
    fn write_many(&self, pages: &[(PageId, &Page)]) -> Result<()> {
        let mut store = self.pages.lock();
        for (id, page) in pages {
            let dst = store.get_mut(id.0 as usize).ok_or(StorageError::PageNotFound(id.0))?;
            dst.copy_from_slice(page.bytes());
            self.stats.record_write(0);
        }
        Ok(())
    }

    /// Bulk override: the whole batch is served under **one** store-lock
    /// acquisition instead of one per page, mirroring `write_many`.
    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> Result<()> {
        let store = self.pages.lock();
        for (id, buf) in pages.iter_mut() {
            let src = store.get(id.0 as usize).ok_or(StorageError::PageNotFound(id.0))?;
            buf.bytes_mut().copy_from_slice(src);
            self.stats.record_read(0);
        }
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// In-memory page store that charges a [`DiskModel`] per operation.
///
/// The simulated clock only accumulates; nothing sleeps. Harnesses add
/// `stats().sim_total_ns()` to measured CPU time to produce end-to-end
/// cost figures (see `nbb-bench`).
pub struct SimulatedDisk {
    inner: InMemoryDisk,
    model: DiskModel,
    stats: AtomicIoStats,
}

impl SimulatedDisk {
    /// Creates a simulated disk with the given page size and cost model.
    pub fn new(page_size: usize, model: DiskModel) -> Self {
        SimulatedDisk { inner: InMemoryDisk::new(page_size), model, stats: AtomicIoStats::new() }
    }

    /// The cost model in effect.
    pub fn model(&self) -> DiskModel {
        self.model
    }
}

impl DiskManager for SimulatedDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
        self.inner.read(id, buf)?;
        self.stats.record_read(self.model.read_ns);
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.inner.write(id, page)?;
        self.stats.record_write(self.model.write_ns);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// In-memory page store that *actually blocks* for a [`DiskModel`] per
/// operation (contrast [`SimulatedDisk`], which only accounts).
///
/// Sleeping releases the CPU, so a blocked reader models DMA-style I/O:
/// other threads make progress during the wait. Concurrency benches use
/// this to expose what a lock held across a page fault really costs —
/// a single-stripe buffer pool stalls every reader for the full device
/// latency, a sharded one only the colliding stripe.
pub struct LatencyDisk {
    inner: InMemoryDisk,
    model: DiskModel,
    stats: AtomicIoStats,
}

impl LatencyDisk {
    /// Creates a blocking disk with the given page size and latency model.
    pub fn new(page_size: usize, model: DiskModel) -> Self {
        LatencyDisk { inner: InMemoryDisk::new(page_size), model, stats: AtomicIoStats::new() }
    }

    /// The latency model in effect.
    pub fn model(&self) -> DiskModel {
        self.model
    }

    fn block_for(ns: u64) {
        if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }
}

impl DiskManager for LatencyDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
        self.inner.read(id, buf)?;
        Self::block_for(self.model.read_ns);
        self.stats.record_read(self.model.read_ns);
        Ok(())
    }

    /// Bulk override modeling seek amortization: the whole batch blocks
    /// for **one** device latency instead of one per page (a single
    /// seek + sequential transfer). Accounting stays per page (`reads`
    /// climbs by the batch size) but only the first page carries the
    /// simulated latency, so `sim_read_ns` reflects the one seek.
    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> Result<()> {
        self.inner.read_many(pages)?;
        Self::block_for(self.model.read_ns);
        for (i, _) in pages.iter().enumerate() {
            self.stats.record_read(if i == 0 { self.model.read_ns } else { 0 });
        }
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.inner.write(id, page)?;
        Self::block_for(self.model.write_ns);
        self.stats.record_write(self.model.write_ns);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// File-backed page store issuing real positioned I/O.
pub struct FileDisk {
    page_size: usize,
    file: File,
    next_page: AtomicU64,
    stats: AtomicIoStats,
    #[cfg_attr(unix, allow(dead_code))] // only used by the non-unix seek path
    io_lock: Mutex<()>,
}

impl FileDisk {
    /// Creates (truncating) a disk file at `path`.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FileDisk {
            page_size,
            file,
            next_page: AtomicU64::new(0),
            stats: AtomicIoStats::new(),
            io_lock: Mutex::with_rank(lockrank::DISK_IO, ()),
        })
    }

    #[cfg(unix)]
    fn pread(&self, off: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)?;
        Ok(())
    }

    #[cfg(unix)]
    fn pwrite(&self, off: u64, buf: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, off)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn pread(&self, off: u64, buf: &mut [u8]) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _g = self.io_lock.lock();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(buf)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn pwrite(&self, off: u64, buf: &[u8]) -> Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let _g = self.io_lock.lock();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(off))?;
        f.write_all(buf)?;
        Ok(())
    }
}

impl DiskManager for FileDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&self) -> Result<PageId> {
        let id = self.next_page.fetch_add(1, Ordering::SeqCst);
        // Extend the file with a zeroed page so reads of fresh pages work.
        let zeroes = vec![0u8; self.page_size];
        self.pwrite(id * self.page_size as u64, &zeroes)?;
        Ok(PageId(id))
    }

    fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
        if id.0 >= self.next_page.load(Ordering::SeqCst) {
            return Err(StorageError::PageNotFound(id.0));
        }
        self.pread(id.0 * self.page_size as u64, buf.bytes_mut())?;
        self.stats.record_read(0);
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        if id.0 >= self.next_page.load(Ordering::SeqCst) {
            return Err(StorageError::PageNotFound(id.0));
        }
        self.pwrite(id.0 * self.page_size as u64, page.bytes())?;
        self.stats.record_write(0);
        Ok(())
    }

    /// Bulk override: sorts the batch by page id and coalesces each run
    /// of *adjacent* ids into one contiguous buffer written with a
    /// single positioned write — one seek + one syscall per run instead
    /// of one per page (the write-behind flusher's drain batches are
    /// eviction-ordered, so sequential workloads produce long runs).
    /// The copy into the staging buffer is the price of the vectored
    /// write; gaps break a run and start a new one. Validation happens
    /// up front so a bad id fails the batch before any bytes land.
    fn write_many(&self, pages: &[(PageId, &Page)]) -> Result<()> {
        let next = self.next_page.load(Ordering::SeqCst);
        for (id, _) in pages {
            if id.0 >= next {
                return Err(StorageError::PageNotFound(id.0));
            }
        }
        let mut sorted: Vec<&(PageId, &Page)> = pages.iter().collect();
        sorted.sort_by_key(|(id, _)| *id);
        let mut run_start = 0;
        while run_start < sorted.len() {
            let mut run_end = run_start + 1;
            while run_end < sorted.len() && sorted[run_end].0 .0 == sorted[run_end - 1].0 .0 + 1 {
                run_end += 1;
            }
            let run = &sorted[run_start..run_end];
            if run.len() == 1 {
                let (id, page) = run[0];
                self.pwrite(id.0 * self.page_size as u64, page.bytes())?;
            } else {
                let mut buf = Vec::with_capacity(run.len() * self.page_size);
                for (_, page) in run {
                    buf.extend_from_slice(page.bytes());
                }
                self.pwrite(run[0].0 .0 * self.page_size as u64, &buf)?;
            }
            for _ in run {
                self.stats.record_write(0);
            }
            run_start = run_end;
        }
        Ok(())
    }

    /// Bulk override mirroring `write_many`: sorts the batch by page id
    /// and coalesces each run of *adjacent* ids into one contiguous
    /// staging buffer filled with a single positioned read — one seek +
    /// one syscall per run instead of one per page (cold scans fault
    /// leaves in allocation order, so sequential workloads produce long
    /// runs). The copy out of the staging buffer is the price of the
    /// vectored read; gaps break a run and start a new one. Validation
    /// happens up front so a bad id fails the batch before any buffer
    /// is touched.
    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> Result<()> {
        let next = self.next_page.load(Ordering::SeqCst);
        for (id, _) in pages.iter() {
            if id.0 >= next {
                return Err(StorageError::PageNotFound(id.0));
            }
        }
        // Sort indices, not the entries: the buffers are mutable
        // borrows, so runs are discovered through an index permutation.
        let mut order: Vec<usize> = (0..pages.len()).collect();
        order.sort_by_key(|&i| pages[i].0);
        let mut run_start = 0;
        while run_start < order.len() {
            let mut run_end = run_start + 1;
            while run_end < order.len()
                && pages[order[run_end]].0 .0 == pages[order[run_end - 1]].0 .0 + 1
            {
                run_end += 1;
            }
            let run = &order[run_start..run_end];
            if run.len() == 1 {
                let (id, buf) = &mut pages[run[0]];
                self.pread(id.0 * self.page_size as u64, buf.bytes_mut())?;
            } else {
                let first = pages[run[0]].0 .0;
                let mut staging = vec![0u8; run.len() * self.page_size];
                self.pread(first * self.page_size as u64, &mut staging)?;
                for (k, &i) in run.iter().enumerate() {
                    let chunk = &staging[k * self.page_size..(k + 1) * self.page_size];
                    pages[i].1.bytes_mut().copy_from_slice(chunk);
                }
            }
            for _ in run {
                self.stats.record_read(0);
            }
            run_start = run_end;
        }
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.next_page.load(Ordering::SeqCst)
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(disk: &dyn DiskManager) {
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        assert_ne!(a, b);
        let mut p = Page::new(disk.page_size());
        p.bytes_mut()[0] = 0xAA;
        p.bytes_mut()[disk.page_size() - 1] = 0xBB;
        disk.write(b, &p).unwrap();
        let mut out = Page::new(disk.page_size());
        disk.read(b, &mut out).unwrap();
        assert_eq!(out.bytes()[0], 0xAA);
        assert_eq!(out.bytes()[disk.page_size() - 1], 0xBB);
        // page `a` still zeroed
        disk.read(a, &mut out).unwrap();
        assert!(out.bytes().iter().all(|&x| x == 0));
    }

    #[test]
    fn in_memory_round_trip() {
        round_trip(&InMemoryDisk::new(512));
    }

    #[test]
    fn simulated_round_trip_and_cost() {
        let d = SimulatedDisk::new(512, DiskModel { read_ns: 100, write_ns: 10 });
        round_trip(&d);
        let s = d.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.sim_read_ns, 200);
        assert_eq!(s.sim_write_ns, 10);
    }

    #[test]
    fn file_disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("nbb_disk_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let d = FileDisk::create(&path, 512).unwrap();
        round_trip(&d);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_many_matches_point_writes() {
        // The InMemoryDisk override and the trait's default (exercised
        // through SimulatedDisk, which does not override) must both
        // land every page and count every write.
        let disks: [&dyn DiskManager; 2] = [
            &InMemoryDisk::new(512),
            &SimulatedDisk::new(512, DiskModel { read_ns: 0, write_ns: 5 }),
        ];
        for disk in disks {
            let ids: Vec<PageId> = (0..4).map(|_| disk.allocate().unwrap()).collect();
            let pages: Vec<Page> = (0..4)
                .map(|i| {
                    let mut p = Page::new(512);
                    p.bytes_mut()[0] = 100 + i as u8;
                    p
                })
                .collect();
            let batch: Vec<(PageId, &Page)> = ids.iter().copied().zip(pages.iter()).collect();
            disk.reset_stats();
            disk.write_many(&batch).unwrap();
            assert_eq!(disk.stats().writes, 4, "every batched write counted");
            let mut out = Page::new(512);
            for (i, id) in ids.iter().enumerate() {
                disk.read(*id, &mut out).unwrap();
                assert_eq!(out.bytes()[0], 100 + i as u8);
            }
        }
    }

    #[test]
    fn file_disk_write_many_coalesces_adjacent_runs() {
        // Gap/run mix, submitted unsorted: ids {0,1,2}, {5}, {7,8} must
        // land as three coalesced positioned writes covering every page
        // (write accounting stays per page), and the gap pages must
        // keep their prior contents.
        let dir = std::env::temp_dir().join(format!("nbb_disk_test_wm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coalesce.db");
        let d = FileDisk::create(&path, 512).unwrap();
        let ids: Vec<PageId> = (0..9).map(|_| d.allocate().unwrap()).collect();
        // Pre-mark the gap pages so we can prove the runs didn't bleed.
        for gap in [3u64, 4, 6] {
            let mut p = Page::new(512);
            p.bytes_mut()[0] = 0xEE;
            d.write(PageId(gap), &p).unwrap();
        }
        let batch_ids = [7u64, 0, 8, 2, 5, 1]; // unsorted on purpose
        let pages: Vec<Page> = batch_ids
            .iter()
            .map(|&id| {
                let mut p = Page::new(512);
                p.bytes_mut()[0] = 0x40 + id as u8;
                p.bytes_mut()[511] = id as u8;
                p
            })
            .collect();
        let batch: Vec<(PageId, &Page)> =
            batch_ids.iter().map(|&id| PageId(id)).zip(pages.iter()).collect();
        d.reset_stats();
        d.write_many(&batch).unwrap();
        assert_eq!(d.stats().writes, 6, "accounting stays per page");
        let mut out = Page::new(512);
        for &id in &batch_ids {
            d.read(PageId(id), &mut out).unwrap();
            assert_eq!(out.bytes()[0], 0x40 + id as u8, "page {id}");
            assert_eq!(out.bytes()[511], id as u8, "page {id} tail");
        }
        for gap in [3u64, 4, 6] {
            d.read(PageId(gap), &mut out).unwrap();
            assert_eq!(out.bytes()[0], 0xEE, "gap page {gap} clobbered by a run");
        }
        let _ = ids;
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_disk_write_many_rejects_unallocated_ids_up_front() {
        let dir = std::env::temp_dir().join(format!("nbb_disk_test_wmv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("validate.db");
        let d = FileDisk::create(&path, 512).unwrap();
        let a = d.allocate().unwrap();
        let q = Page::new(512);
        let batch = vec![(a, &q), (PageId(42), &q)];
        assert!(matches!(d.write_many(&batch), Err(StorageError::PageNotFound(42))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_many_of_unallocated_page_errors() {
        let d = InMemoryDisk::new(512);
        let a = d.allocate().unwrap();
        let p = Page::new(512);
        let batch = vec![(a, &p), (PageId(99), &p)];
        assert!(matches!(d.write_many(&batch), Err(StorageError::PageNotFound(99))));
    }

    #[test]
    fn read_many_matches_point_reads() {
        // The InMemoryDisk override and the trait's default (exercised
        // through SimulatedDisk, which does not override) must both
        // fill every buffer and count every read.
        let disks: [&dyn DiskManager; 2] = [
            &InMemoryDisk::new(512),
            &SimulatedDisk::new(512, DiskModel { read_ns: 5, write_ns: 0 }),
        ];
        for disk in disks {
            let ids: Vec<PageId> = (0..4).map(|_| disk.allocate().unwrap()).collect();
            for (i, id) in ids.iter().enumerate() {
                let mut p = Page::new(512);
                p.bytes_mut()[0] = 100 + i as u8;
                disk.write(*id, &p).unwrap();
            }
            let mut bufs: Vec<Page> = (0..4).map(|_| Page::new(512)).collect();
            let mut batch: Vec<(PageId, &mut Page)> =
                ids.iter().copied().zip(bufs.iter_mut()).collect();
            disk.reset_stats();
            disk.read_many(&mut batch).unwrap();
            assert_eq!(disk.stats().reads, 4, "every batched read counted");
            for (i, buf) in bufs.iter().enumerate() {
                assert_eq!(buf.bytes()[0], 100 + i as u8);
            }
        }
    }

    #[test]
    fn file_disk_read_many_coalesces_adjacent_runs() {
        // Gap/run mix, submitted unsorted: ids {0,1,2}, {5}, {7,8} must
        // be served as three coalesced positioned reads covering every
        // page (read accounting stays per page), and each buffer must
        // receive its own page's bytes — not a neighbour's.
        let dir = std::env::temp_dir().join(format!("nbb_disk_test_rm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coalesce_read.db");
        let d = FileDisk::create(&path, 512).unwrap();
        for _ in 0..9 {
            d.allocate().unwrap();
        }
        for id in 0u64..9 {
            let mut p = Page::new(512);
            p.bytes_mut()[0] = 0x40 + id as u8;
            p.bytes_mut()[511] = id as u8;
            d.write(PageId(id), &p).unwrap();
        }
        let batch_ids = [7u64, 0, 8, 2, 5, 1]; // unsorted on purpose
        let mut bufs: Vec<Page> = batch_ids.iter().map(|_| Page::new(512)).collect();
        let mut batch: Vec<(PageId, &mut Page)> =
            batch_ids.iter().map(|&id| PageId(id)).zip(bufs.iter_mut()).collect();
        d.reset_stats();
        d.read_many(&mut batch).unwrap();
        assert_eq!(d.stats().reads, 6, "accounting stays per page");
        for (k, &id) in batch_ids.iter().enumerate() {
            assert_eq!(bufs[k].bytes()[0], 0x40 + id as u8, "page {id}");
            assert_eq!(bufs[k].bytes()[511], id as u8, "page {id} tail");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_disk_read_many_rejects_unallocated_ids_up_front() {
        let dir = std::env::temp_dir().join(format!("nbb_disk_test_rmv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("validate_read.db");
        let d = FileDisk::create(&path, 512).unwrap();
        let a = d.allocate().unwrap();
        let mut p1 = Page::new(512);
        let mut p2 = Page::new(512);
        let mut batch = vec![(a, &mut p1), (PageId(42), &mut p2)];
        assert!(matches!(d.read_many(&mut batch), Err(StorageError::PageNotFound(42))));
        assert_eq!(d.stats().reads, 0, "validation fails before any read lands");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_many_of_unallocated_page_errors() {
        let d = InMemoryDisk::new(512);
        let a = d.allocate().unwrap();
        let mut p1 = Page::new(512);
        let mut p2 = Page::new(512);
        let mut batch = vec![(a, &mut p1), (PageId(99), &mut p2)];
        assert!(matches!(d.read_many(&mut batch), Err(StorageError::PageNotFound(99))));
    }

    #[test]
    fn latency_disk_read_many_charges_one_latency_per_batch() {
        let d = LatencyDisk::new(512, DiskModel { read_ns: 2_000_000, write_ns: 0 });
        let ids: Vec<PageId> = (0..4).map(|_| d.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            let mut p = Page::new(512);
            p.bytes_mut()[0] = i as u8 + 1;
            d.write(*id, &p).unwrap();
        }
        d.reset_stats();
        let mut bufs: Vec<Page> = (0..4).map(|_| Page::new(512)).collect();
        let mut batch: Vec<(PageId, &mut Page)> =
            ids.iter().copied().zip(bufs.iter_mut()).collect();
        let start = std::time::Instant::now();
        d.read_many(&mut batch).unwrap();
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(2),
            "batch must block for one modeled latency"
        );
        for (i, buf) in bufs.iter().enumerate() {
            assert_eq!(buf.bytes()[0], i as u8 + 1);
        }
        let s = d.stats();
        assert_eq!(s.reads, 4, "accounting stays per page");
        assert_eq!(s.sim_read_ns, 2_000_000, "one seek charged for the whole batch");
    }

    #[test]
    fn read_of_unallocated_page_fails() {
        let d = InMemoryDisk::new(512);
        let mut p = Page::new(512);
        assert!(matches!(d.read(PageId(0), &mut p), Err(StorageError::PageNotFound(0))));
    }

    #[test]
    fn default_model_is_hdd_scale() {
        let m = DiskModel::default();
        assert_eq!(m.read_ns, 10_000_000);
        assert!(DiskModel::nvme().read_ns < m.read_ns);
        assert_eq!(DiskModel::free().read_ns, 0);
    }

    #[test]
    fn reset_stats_works() {
        let d = SimulatedDisk::new(512, DiskModel::default());
        let id = d.allocate().unwrap();
        let mut p = Page::new(512);
        d.read(id, &mut p).unwrap();
        assert_eq!(d.stats().reads, 1);
        d.reset_stats();
        assert_eq!(d.stats().reads, 0);
    }

    #[test]
    fn latency_disk_round_trips_and_blocks() {
        let d = LatencyDisk::new(512, DiskModel { read_ns: 2_000_000, write_ns: 0 });
        let id = d.allocate().unwrap();
        let mut w = Page::new(512);
        w.bytes_mut()[9] = 99;
        d.write(id, &w).unwrap();
        let start = std::time::Instant::now();
        let mut r = Page::new(512);
        d.read(id, &mut r).unwrap();
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(2),
            "read must block for the modeled latency"
        );
        assert_eq!(r.bytes()[9], 99);
        let s = d.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!(s.sim_read_ns, 2_000_000);
    }
}

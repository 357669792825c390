//! Disk managers: the page-granular backing stores under the buffer pool.
//!
//! Three implementations:
//!
//! * [`InMemoryDisk`] — plain page store with no cost. The baseline
//!   substrate for unit tests and experiments; a harness that wants a
//!   disk-cost term multiplies the [`IoStats`] counts by a
//!   [`DiskModel`], which is what the paper's Figures 2(b) and 3 rest
//!   on: the *ratio* between memory and disk access costs.
//! * `FaultDisk` — an [`InMemoryDisk`] driven by a test script: gates
//!   that park reads or writes, injected failures and panics, a per-call
//!   log of page ids, and an optional [`DiskModel`] latency slept once
//!   per call. Test code only: it is compiled under the crate's
//!   `fault-disk` feature, which only dev-dependencies enable, so no
//!   release binary carries it.
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

#[cfg(any(test, feature = "fault-disk"))]
mod fault;
#[cfg(any(test, feature = "fault-disk"))]
pub use fault::FaultDisk;

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
/// Implementations that block (e.g. `FaultDisk`, [`FileDisk`])
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

    /// Writes a batch of pages in one call: one lock acquisition, one
    /// syscall, one device round-trip where the store allows. The
    /// buffer pool's write-behind flusher drains its queue through
    /// this, so the bulk path directly amortizes the background write
    /// path.
    ///
    /// Contract: callers never repeat a page id within one batch (the
    /// flusher claims each queue slot before batching), and a batch
    /// error makes no claim about which pages landed — callers must
    /// treat every page in the batch as unwritten and retry; page
    /// writes are idempotent, so re-writing a page that did land is
    /// harmless.
    fn write_many(&self, pages: &[(PageId, &Page)]) -> Result<()>;

    /// Reads a batch of pages, each into its paired buffer, in one
    /// call. The buffer pool's fault path drains every miss through
    /// this (a point miss is a batch of one), so the bulk path directly
    /// amortizes cold scans and multi-point lookups.
    ///
    /// Contract (the read-side twin of [`DiskManager::write_many`]):
    /// callers never repeat a page id within one batch (the pool claims
    /// each `Loading` slot before batching), and a batch error makes no
    /// claim about which buffers were filled — callers must treat every
    /// page in the batch as unread and retry; page reads are
    /// idempotent, so re-reading a page that did land is harmless.
    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> Result<()>;

    /// Number of allocated pages.
    fn num_pages(&self) -> u64;

    /// I/O counters: pages read and written.
    fn stats(&self) -> IoStats;

    /// Zeroes the I/O counters.
    fn reset_stats(&self);
}

/// Per-page disk costs: what a cost harness charges per counted read
/// and write, and what a `FaultDisk` sleeps per call.
///
/// Defaults approximate a 2011-era SATA drive, the hardware class behind
/// the paper's measurements: ~10 ms per random page read, ~10 ms writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskModel {
    /// Nanoseconds per page read.
    pub read_ns: u64,
    /// Nanoseconds per page write.
    pub write_ns: u64,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel { read_ns: 10_000_000, write_ns: 10_000_000 }
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
        self.stats.record_read();
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        let mut pages = self.pages.lock();
        let dst = pages.get_mut(id.0 as usize).ok_or(StorageError::PageNotFound(id.0))?;
        dst.copy_from_slice(page.bytes());
        self.stats.record_write();
        Ok(())
    }

    /// The whole batch lands under **one** store-lock acquisition
    /// instead of one per page, which is exactly the round-trip
    /// amortization the write-behind flusher batches for.
    fn write_many(&self, pages: &[(PageId, &Page)]) -> Result<()> {
        let mut store = self.pages.lock();
        for (id, page) in pages {
            let dst = store.get_mut(id.0 as usize).ok_or(StorageError::PageNotFound(id.0))?;
            dst.copy_from_slice(page.bytes());
            self.stats.record_write();
        }
        Ok(())
    }

    /// The whole batch is served under **one** store-lock acquisition
    /// instead of one per page, mirroring `write_many`.
    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> Result<()> {
        let store = self.pages.lock();
        for (id, buf) in pages.iter_mut() {
            let src = store.get(id.0 as usize).ok_or(StorageError::PageNotFound(id.0))?;
            buf.bytes_mut().copy_from_slice(src);
            self.stats.record_read();
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
        self.stats.record_read();
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        if id.0 >= self.next_page.load(Ordering::SeqCst) {
            return Err(StorageError::PageNotFound(id.0));
        }
        self.pwrite(id.0 * self.page_size as u64, page.bytes())?;
        self.stats.record_write();
        Ok(())
    }

    /// Sorts the batch by page id and coalesces each run
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
                self.stats.record_write();
            }
            run_start = run_end;
        }
        Ok(())
    }

    /// Mirrors `write_many`: sorts the batch by page id
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
                self.stats.record_read();
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
    fn file_disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("nbb_disk_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let d = FileDisk::create(&path, 512).unwrap();
        round_trip(&d);
        std::fs::remove_file(&path).ok();
    }

    /// One disk of each kind. The file disk's file is unlinked at
    /// once where the platform allows: the open handle keeps it alive.
    fn every_disk(tag: &str) -> Vec<Box<dyn DiskManager>> {
        let path = std::env::temp_dir().join(format!("nbb_disk_{tag}_{}.db", std::process::id()));
        let file = FileDisk::create(&path, 512).unwrap();
        std::fs::remove_file(&path).ok();
        vec![Box::new(InMemoryDisk::new(512)), Box::new(file), Box::new(FaultDisk::new(512))]
    }

    #[test]
    fn write_many_matches_point_writes() {
        // Every disk's bulk path must land every page and count every
        // write.
        for disk in every_disk("wm") {
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
        // Every disk's bulk path must fill every buffer and count every
        // read.
        for disk in every_disk("rm") {
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
    fn read_of_unallocated_page_fails() {
        let d = InMemoryDisk::new(512);
        let mut p = Page::new(512);
        assert!(matches!(d.read(PageId(0), &mut p), Err(StorageError::PageNotFound(0))));
    }

    #[test]
    fn default_model_is_hdd_scale() {
        let m = DiskModel::default();
        assert_eq!(m.read_ns, 10_000_000);
    }

    #[test]
    fn reset_stats_works() {
        let d = InMemoryDisk::new(512);
        let id = d.allocate().unwrap();
        let mut p = Page::new(512);
        d.read(id, &mut p).unwrap();
        assert_eq!(d.stats().reads, 1);
        d.reset_stats();
        assert_eq!(d.stats().reads, 0);
    }
}

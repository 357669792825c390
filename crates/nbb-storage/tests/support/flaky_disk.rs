//! The test disk whose reads or allocations can be made to fail —
//! shared by the pool's error-path test (`pool_edge_cases.rs`) and the
//! table's write-path fault test (`nbb-core/tests/write_faults.rs`),
//! which include this file with `#[path]`.

// Each includer uses some of the failure modes.
#![allow(dead_code)]

use nbb_storage::{DiskManager, InMemoryDisk, IoStats, Page, PageId, Result, StorageError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// An [`InMemoryDisk`] whose reads fail on demand: all of them while
/// `fail_reads` is set, or one chosen page's n-th read from now
/// ([`FlakyDisk::fail_nth_read`]); and whose allocations fail while
/// `fail_allocs` is set. Batched reads go through the trait's
/// default `read_many`, one `read` per page.
pub struct FlakyDisk {
    inner: InMemoryDisk,
    /// Every read fails while set.
    pub fail_reads: AtomicBool,
    /// Every allocation fails while set.
    pub fail_allocs: AtomicBool,
    /// The page whose reads count down (`u64::MAX` = none armed).
    countdown_page: AtomicU64,
    countdown: AtomicU64,
}

impl FlakyDisk {
    pub fn new(page_size: usize) -> Self {
        FlakyDisk {
            inner: InMemoryDisk::new(page_size),
            fail_reads: AtomicBool::new(false),
            fail_allocs: AtomicBool::new(false),
            countdown_page: AtomicU64::new(u64::MAX),
            countdown: AtomicU64::new(0),
        }
    }

    /// Arms a one-shot failure: the `n`-th (1-based) read of `page`
    /// from now errors; the reads before and after it succeed.
    pub fn fail_nth_read(&self, page: PageId, n: u64) {
        self.countdown.store(n, Ordering::Relaxed);
        self.countdown_page.store(page.0, Ordering::Relaxed);
    }
}

impl DiskManager for FlakyDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn allocate(&self) -> Result<PageId> {
        if self.fail_allocs.load(Ordering::Relaxed) {
            return Err(StorageError::Io("injected allocation failure".into()));
        }
        self.inner.allocate()
    }
    fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
        let armed = self.countdown_page.load(Ordering::Relaxed) == id.0;
        if armed && self.countdown.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.countdown_page.store(u64::MAX, Ordering::Relaxed);
            return Err(StorageError::Io(format!("injected failure reading {id}")));
        }
        if self.fail_reads.load(Ordering::Relaxed) {
            return Err(StorageError::Io("injected read failure".into()));
        }
        self.inner.read(id, buf)
    }
    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.inner.write(id, page)
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

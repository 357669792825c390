//! [`FaultDisk`]: the scripted test disk.

use super::{DiskManager, DiskModel, InMemoryDisk};
use crate::error::{Result, StorageError};
use crate::lockrank;
use crate::page::{Page, PageId};
use crate::stats::IoStats;
use parking_lot::{Condvar, Mutex};

/// An [`InMemoryDisk`] driven by a test script: the one disk that
/// fault, ordering and latency tests build on.
///
/// The script can
///
/// * hold reads, and separately writes, at a gate until released
///   ([`FaultDisk::hold_reads`], [`FaultDisk::hold_writes`]);
/// * fail reads: any call that touches one page
///   ([`FaultDisk::fail_reads_of`]) or the n-th read of one page
///   ([`FaultDisk::fail_nth_read`]); and fail allocations
///   ([`FaultDisk::fail_allocs`]);
/// * panic inside the next read or the next write;
/// * sleep a [`DiskModel`] latency once per call, however many pages
///   it carries ([`FaultDisk::with_latency`]).
///
/// Every read and write call is logged as the page ids it carried, in
/// arrival order ([`FaultDisk::read_log`], [`FaultDisk::write_log`]); a
/// point call is a call of one page. A call's fate is fixed when it
/// arrives: it is logged and claims the rules that strike it before it
/// parks at the gate, so a test that sees a call in the log knows it
/// is parked, and a rule armed while a call is parked strikes the next
/// one. A failing batch fails whole and lands nothing.
pub struct FaultDisk {
    inner: InMemoryDisk,
    latency: DiskModel,
    script: Mutex<Script>,
    released: Condvar,
}

/// The scripted rules and the call logs, under one lock.
#[derive(Default)]
struct Script {
    hold_reads: bool,
    hold_writes: bool,
    fail_page: Option<PageId>,
    /// The page whose reads count down, and the reads left until one fails.
    fail_nth: Option<(PageId, u64)>,
    fail_allocs: bool,
    panic_next_read: bool,
    panic_next_write: bool,
    reads: Vec<Vec<PageId>>,
    writes: Vec<Vec<PageId>>,
}

impl Script {
    /// The failure the script holds for a read call of `ids`, if any,
    /// spending the one-shot rules it fires.
    fn read_failure(&mut self, ids: &[PageId]) -> Option<String> {
        if let Some((page, left)) = &mut self.fail_nth {
            if ids.contains(page) {
                *left -= 1;
                if *left == 0 {
                    let page = *page;
                    self.fail_nth = None;
                    return Some(format!("injected read failure on page {page}"));
                }
            }
        }
        self.fail_page
            .filter(|page| ids.contains(page))
            .map(|page| format!("injected read failure on page {page}"))
    }
}

impl FaultDisk {
    /// An empty disk with the given page size and no latency.
    pub fn new(page_size: usize) -> Self {
        Self::with_latency(page_size, DiskModel { read_ns: 0, write_ns: 0 })
    }

    /// An empty disk that sleeps `latency.read_ns` per read call and
    /// `latency.write_ns` per write call. Sleeping frees the CPU, so a
    /// parked fault costs other threads nothing, as with DMA.
    pub fn with_latency(page_size: usize, latency: DiskModel) -> Self {
        FaultDisk {
            inner: InMemoryDisk::new(page_size),
            latency,
            script: Mutex::with_rank(lockrank::DISK_IO, Script::default()),
            released: Condvar::new(),
        }
    }

    /// Parks every read call from now on until [`FaultDisk::release_reads`].
    pub fn hold_reads(&self) {
        self.script.lock().hold_reads = true;
    }

    /// Lets parked and later read calls through.
    pub fn release_reads(&self) {
        self.script.lock().hold_reads = false;
        self.released.notify_all();
    }

    /// Parks every write call from now on until [`FaultDisk::release_writes`].
    pub fn hold_writes(&self) {
        self.script.lock().hold_writes = true;
    }

    /// Lets parked and later write calls through.
    pub fn release_writes(&self) {
        self.script.lock().hold_writes = false;
        self.released.notify_all();
    }

    /// Fails every read call that touches `page` until called with `None`.
    pub fn fail_reads_of(&self, page: Option<PageId>) {
        self.script.lock().fail_page = page;
    }

    /// Fails the `n`-th (1-based) read call from now that touches
    /// `page`, point or inside a batch; the calls before and after it
    /// succeed.
    pub fn fail_nth_read(&self, page: PageId, n: u64) {
        assert!(n > 0, "the first read is the 1st");
        self.script.lock().fail_nth = Some((page, n));
    }

    /// Fails every allocation while `on`.
    pub fn fail_allocs(&self, on: bool) {
        self.script.lock().fail_allocs = on;
    }

    /// Panics inside the next read call.
    pub fn panic_next_read(&self) {
        self.script.lock().panic_next_read = true;
    }

    /// Panics inside the next write call.
    pub fn panic_next_write(&self) {
        self.script.lock().panic_next_write = true;
    }

    /// The page ids of every read call so far, one entry per call.
    pub fn read_log(&self) -> Vec<Vec<PageId>> {
        self.script.lock().reads.clone()
    }

    /// Like [`FaultDisk::read_log`], and empties the log.
    pub fn take_read_log(&self) -> Vec<Vec<PageId>> {
        std::mem::take(&mut self.script.lock().reads)
    }

    /// The page ids of every write call so far, one entry per call.
    pub fn write_log(&self) -> Vec<Vec<PageId>> {
        self.script.lock().writes.clone()
    }

    /// Logs a read call of `ids`, claims its rules, parks at the gate,
    /// sleeps the read latency, then injects what it claimed.
    fn enter_read(&self, ids: Vec<PageId>) -> Result<()> {
        let mut script = self.script.lock();
        let panic = std::mem::take(&mut script.panic_next_read);
        let failure = script.read_failure(&ids);
        script.reads.push(ids);
        while script.hold_reads {
            self.released.wait(&mut script);
        }
        drop(script);
        Self::sleep(self.latency.read_ns);
        if panic {
            panic!("injected disk panic");
        }
        failure.map_or(Ok(()), |msg| Err(StorageError::Io(msg)))
    }

    /// The write-side twin of [`FaultDisk::enter_read`].
    fn enter_write(&self, ids: Vec<PageId>) {
        let mut script = self.script.lock();
        let panic = std::mem::take(&mut script.panic_next_write);
        script.writes.push(ids);
        while script.hold_writes {
            self.released.wait(&mut script);
        }
        drop(script);
        Self::sleep(self.latency.write_ns);
        if panic {
            panic!("injected disk panic");
        }
    }

    fn sleep(ns: u64) {
        if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }
}

impl DiskManager for FaultDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self) -> Result<PageId> {
        if self.script.lock().fail_allocs {
            return Err(StorageError::Io("injected allocation failure".into()));
        }
        self.inner.allocate()
    }

    fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
        self.enter_read(vec![id])?;
        self.inner.read(id, buf)
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.enter_write(vec![id]);
        self.inner.write(id, page)
    }

    fn write_many(&self, pages: &[(PageId, &Page)]) -> Result<()> {
        self.enter_write(pages.iter().map(|(id, _)| *id).collect());
        self.inner.write_many(pages)
    }

    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> Result<()> {
        self.enter_read(pages.iter().map(|(id, _)| *id).collect())?;
        self.inner.read_many(pages)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` pages on `disk`, page `i` marked `i + 1` at byte 0.
    fn marked_pages(disk: &dyn DiskManager, n: u8) -> Vec<PageId> {
        (0..n)
            .map(|i| {
                let id = disk.allocate().unwrap();
                let mut p = Page::new(disk.page_size());
                p.bytes_mut()[0] = i + 1;
                disk.write(id, &p).unwrap();
                id
            })
            .collect()
    }

    /// Reads `ids` in one call; the first byte of each page on success.
    fn read_batch(disk: &dyn DiskManager, ids: &[PageId]) -> Result<Vec<u8>> {
        let mut bufs: Vec<Page> = ids.iter().map(|_| Page::new(disk.page_size())).collect();
        let mut batch: Vec<(PageId, &mut Page)> =
            ids.iter().copied().zip(bufs.iter_mut()).collect();
        disk.read_many(&mut batch)?;
        Ok(bufs.iter().map(|p| p.bytes()[0]).collect())
    }

    #[test]
    fn fault_disk_gate_parks_reads_until_released() {
        let d = FaultDisk::new(512);
        let ids = marked_pages(&d, 2);
        d.hold_reads();
        std::thread::scope(|s| {
            let reader = s.spawn(|| read_batch(&d, &ids));
            // Logged before it parks: once the log shows the call, only
            // the release can let it finish. The pause only gives a gate
            // that failed to hold the time to show it.
            while d.read_log().is_empty() {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!reader.is_finished(), "a held read must park");
            d.release_reads();
            assert_eq!(reader.join().unwrap().unwrap(), vec![1, 2]);
        });
    }

    #[test]
    fn fault_disk_gate_parks_writes_until_released() {
        let d = FaultDisk::new(512);
        let id = marked_pages(&d, 1)[0];
        d.hold_writes();
        let mut p = Page::new(512);
        p.bytes_mut()[0] = 9;
        std::thread::scope(|s| {
            let writer = s.spawn(|| d.write_many(&[(id, &p)]));
            while d.write_log().len() < 2 {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!writer.is_finished(), "a held write must park");
            assert_eq!(read_batch(&d, &[id]).unwrap(), vec![1], "reads pass a write gate");
            d.release_writes();
            writer.join().unwrap().unwrap();
        });
        assert_eq!(read_batch(&d, &[id]).unwrap(), vec![9]);
    }

    #[test]
    fn fault_disk_fails_every_call_that_touches_a_page() {
        let d = FaultDisk::new(512);
        let ids = marked_pages(&d, 3);
        d.reset_stats();
        d.fail_reads_of(Some(ids[1]));
        let mut p = Page::new(512);
        assert!(d.read(ids[1], &mut p).is_err(), "a point read of the page");
        match read_batch(&d, &ids) {
            Err(StorageError::Io(msg)) => assert!(msg.contains("injected read failure"), "{msg}"),
            other => panic!("a batch with the page fails whole, got {other:?}"),
        }
        assert_eq!(d.stats().reads, 0, "a failed call lands nothing");
        assert_eq!(read_batch(&d, &[ids[0], ids[2]]).unwrap(), vec![1, 3], "others pass");
        d.fail_reads_of(None);
        assert_eq!(read_batch(&d, &ids).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn fault_disk_fails_the_nth_read_of_a_page_point_or_batched() {
        let d = FaultDisk::new(512);
        let ids = marked_pages(&d, 2);
        let (p, q) = (ids[0], ids[1]);
        d.fail_nth_read(p, 3);
        let mut buf = Page::new(512);
        assert!(d.read(q, &mut buf).is_ok(), "another page's read does not count");
        assert!(d.read(p, &mut buf).is_ok(), "1st");
        assert!(read_batch(&d, &[q, p]).is_ok(), "2nd, inside a batch");
        assert!(read_batch(&d, &[p, q]).is_err(), "3rd, inside a batch");
        assert!(d.read(p, &mut buf).is_ok(), "the rule is spent");
        d.fail_nth_read(p, 1);
        assert!(d.read(p, &mut buf).is_err(), "1st, point");
        assert!(d.read(p, &mut buf).is_ok());
    }

    #[test]
    fn fault_disk_fails_allocations_while_set() {
        let d = FaultDisk::new(512);
        d.fail_allocs(true);
        assert!(matches!(d.allocate(), Err(StorageError::Io(_))));
        assert_eq!(d.num_pages(), 0);
        d.fail_allocs(false);
        assert_eq!(d.allocate().unwrap(), PageId(0));
    }

    #[test]
    fn fault_disk_panics_once_per_arming() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let d = FaultDisk::new(512);
        let id = marked_pages(&d, 1)[0];
        let mut p = Page::new(512);
        d.panic_next_read();
        assert!(catch_unwind(AssertUnwindSafe(|| read_batch(&d, &[id]))).is_err());
        assert!(d.read(id, &mut p).is_ok(), "the next read goes through");
        d.panic_next_write();
        assert!(catch_unwind(AssertUnwindSafe(|| d.write(id, &p))).is_err());
        assert!(d.write_many(&[(id, &p)]).is_ok(), "the next write goes through");
    }

    #[test]
    fn fault_disk_sleeps_one_latency_per_call() {
        const MS: u64 = 10;
        const PAGES: u8 = 16;
        let d = FaultDisk::with_latency(
            512,
            DiskModel { read_ns: MS * 1_000_000, write_ns: MS * 1_000_000 },
        );
        let ids: Vec<PageId> = (0..PAGES).map(|_| d.allocate().unwrap()).collect();
        let pages: Vec<Page> = (0..PAGES).map(|_| Page::new(512)).collect();
        let batch: Vec<(PageId, &Page)> = ids.iter().copied().zip(pages.iter()).collect();
        let once = std::time::Duration::from_millis(MS);
        // One latency, not one per page: the bar sits halfway between
        // one call's sleep and the per-page sum.
        let per_page_half = once * u32::from(PAGES) / 2;
        let start = std::time::Instant::now();
        d.write_many(&batch).unwrap();
        let wrote = start.elapsed();
        let start = std::time::Instant::now();
        read_batch(&d, &ids).unwrap();
        let read = start.elapsed();
        for (what, took) in [("write_many", wrote), ("read_many", read)] {
            assert!(took >= once, "{what} must sleep its latency: {took:?}");
            assert!(took < per_page_half, "{what} slept per page: {took:?}");
        }
        assert_eq!((d.stats().reads, d.stats().writes), (PAGES as u64, PAGES as u64));
    }

    #[test]
    fn fault_disk_logs_the_pages_of_every_call() {
        let d = FaultDisk::new(512);
        let ids = marked_pages(&d, 3);
        let mut p = Page::new(512);
        d.read(ids[2], &mut p).unwrap();
        d.fail_nth_read(ids[0], 1);
        assert!(read_batch(&d, &ids[..2]).is_err());
        d.write_many(&[(ids[1], &p), (ids[0], &p)]).unwrap();
        assert_eq!(
            d.take_read_log(),
            vec![vec![ids[2]], vec![ids[0], ids[1]]],
            "failed calls are logged too"
        );
        assert!(d.read_log().is_empty(), "taking empties the log");
        let writes = d.write_log();
        assert_eq!(writes.len(), 4, "three point writes, then one batch");
        assert_eq!(writes[3], vec![ids[1], ids[0]]);
    }
}

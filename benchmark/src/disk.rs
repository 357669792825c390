//! `BenchDisk`: the benchmark's device model, owned by the benchmark so
//! that no change to the engine can move it.
//!
//! An in-memory page store that sleeps a fixed charge per *call*: one
//! charge for `read`, `read_many`, `write` and `write_many` alike,
//! whatever the batch size, so a batched call is the only way to pay
//! less. It is also the place where the pool → device boundary is
//! timed: calls, pages, time inside calls, calls in flight and the
//! device spans are all counted here, outside `nbb-storage`.
//!
//! The charge is on while requests are served and probes run. It is
//! off during set-up and the closing verification, which are not
//! latency measurements: set-up time is then the engine's own work,
//! not three thousand sleeps, and calls and pages are counted either
//! way.

use crate::trace::{Kind, SpanLog};
use nbb_storage::error::Result;
use nbb_storage::stats::IoStats;
use nbb_storage::{DiskManager, InMemoryDisk, Page, PageId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sleep charged per device call. The sandbox adds its timer slack on
/// top, so a call takes about 210 µs of wall time.
pub const CHARGE: Duration = Duration::from_micros(150);

/// Counters of one disk. Monotonic; take two snapshots and subtract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounts {
    pub read_calls: u64,
    pub read_pages: u64,
    pub read_ns: u64,
    pub write_calls: u64,
    pub write_pages: u64,
    pub write_ns: u64,
}

impl DiskCounts {
    pub fn since(self, earlier: DiskCounts) -> DiskCounts {
        DiskCounts {
            read_calls: self.read_calls - earlier.read_calls,
            read_pages: self.read_pages - earlier.read_pages,
            read_ns: self.read_ns - earlier.read_ns,
            write_calls: self.write_calls - earlier.write_calls,
            write_pages: self.write_pages - earlier.write_pages,
            write_ns: self.write_ns - earlier.write_ns,
        }
    }

    pub fn plus(self, other: DiskCounts) -> DiskCounts {
        DiskCounts {
            read_calls: self.read_calls + other.read_calls,
            read_pages: self.read_pages + other.read_pages,
            read_ns: self.read_ns + other.read_ns,
            write_calls: self.write_calls + other.write_calls,
            write_pages: self.write_pages + other.write_pages,
            write_ns: self.write_ns + other.write_ns,
        }
    }
}

/// What the two disks of one database share: the clock and span log,
/// and the device-wide view of calls in flight.
pub struct Device {
    pub log: Arc<SpanLog>,
    charging: AtomicBool,
    in_flight: AtomicU64,
    in_flight_max: AtomicU64,
    busy_since_ns: AtomicU64,
    busy_ns: AtomicU64,
}

impl Device {
    pub fn new(log: Arc<SpanLog>) -> Arc<Self> {
        Arc::new(Device {
            log,
            charging: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            in_flight_max: AtomicU64::new(0),
            busy_since_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        })
    }

    /// Switches the per-call sleep on or off.
    pub fn set_charging(&self, on: bool) {
        self.charging.store(on, Ordering::SeqCst);
    }

    /// Nanoseconds during which at least one call was in flight, the
    /// busy period still open included. A statistic: an exit racing the
    /// next enter may lose one interval.
    pub fn busy_ns(&self) -> u64 {
        let closed = self.busy_ns.load(Ordering::Relaxed);
        if self.in_flight.load(Ordering::Relaxed) == 0 {
            return closed;
        }
        closed + self.log.now_ns().saturating_sub(self.busy_since_ns.load(Ordering::Relaxed))
    }

    /// Most calls ever in flight at once, and resets the mark.
    pub fn take_in_flight_max(&self) -> u64 {
        self.in_flight_max.swap(self.in_flight.load(Ordering::Relaxed), Ordering::Relaxed)
    }

    fn enter(&self) -> u64 {
        let now = self.log.now_ns();
        let before = self.in_flight.fetch_add(1, Ordering::Relaxed);
        if before == 0 {
            self.busy_since_ns.store(now, Ordering::Relaxed);
        }
        self.in_flight_max.fetch_max(before + 1, Ordering::Relaxed);
        now
    }

    fn exit(&self) -> u64 {
        let now = self.log.now_ns();
        if self.in_flight.fetch_sub(1, Ordering::Relaxed) == 1 {
            let since = self.busy_since_ns.load(Ordering::Relaxed);
            self.busy_ns.fetch_add(now.saturating_sub(since), Ordering::Relaxed);
        }
        now
    }
}

pub struct BenchDisk {
    inner: InMemoryDisk,
    device: Arc<Device>,
    read_calls: AtomicU64,
    read_pages: AtomicU64,
    read_ns: AtomicU64,
    write_calls: AtomicU64,
    write_pages: AtomicU64,
    write_ns: AtomicU64,
}

impl BenchDisk {
    pub fn new(page_size: usize, device: Arc<Device>) -> Arc<Self> {
        Arc::new(BenchDisk {
            inner: InMemoryDisk::new(page_size),
            device,
            read_calls: AtomicU64::new(0),
            read_pages: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            write_calls: AtomicU64::new(0),
            write_pages: AtomicU64::new(0),
            write_ns: AtomicU64::new(0),
        })
    }

    pub fn counts(&self) -> DiskCounts {
        DiskCounts {
            read_calls: self.read_calls.load(Ordering::Relaxed),
            read_pages: self.read_pages.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
            write_pages: self.write_pages.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
        }
    }

    /// One device call: the store operation, the charge, the counters
    /// and (when tracing) the span.
    fn call(&self, kind: Kind, pages: usize, op: impl FnOnce() -> Result<()>) -> Result<()> {
        let start = self.device.enter();
        let span = self.device.log.begin_at(kind, start);
        let result = op();
        if self.device.charging.load(Ordering::Relaxed) {
            std::thread::sleep(CHARGE);
        }
        let end = self.device.exit();
        self.device.log.end_at(span, end);
        let (calls, npages, ns) = match kind {
            Kind::DeviceRead => (&self.read_calls, &self.read_pages, &self.read_ns),
            _ => (&self.write_calls, &self.write_pages, &self.write_ns),
        };
        calls.fetch_add(1, Ordering::Relaxed);
        npages.fetch_add(pages as u64, Ordering::Relaxed);
        ns.fetch_add(end - start, Ordering::Relaxed);
        result
    }
}

impl DiskManager for BenchDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
        self.call(Kind::DeviceRead, 1, || self.inner.read(id, buf))
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.call(Kind::DeviceWrite, 1, || self.inner.write(id, page))
    }

    fn write_many(&self, pages: &[(PageId, &Page)]) -> Result<()> {
        self.call(Kind::DeviceWrite, pages.len(), || self.inner.write_many(pages))
    }

    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> Result<()> {
        let n = pages.len();
        self.call(Kind::DeviceRead, n, || self.inner.read_many(pages))
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

    #[test]
    fn a_batch_is_charged_once_and_counted_by_page() {
        let log = Arc::new(SpanLog::new(16));
        let device = Device::new(Arc::clone(&log));
        device.set_charging(true);
        let disk = BenchDisk::new(4096, Arc::clone(&device));
        let ids: Vec<PageId> = (0..4).map(|_| disk.allocate().unwrap()).collect();
        let page = Page::new(4096);
        let batch: Vec<(PageId, &Page)> = ids.iter().map(|&id| (id, &page)).collect();
        disk.write_many(&batch).unwrap();
        disk.write(ids[0], &page).unwrap();
        let mut bufs: Vec<Page> = (0..4).map(|_| Page::new(4096)).collect();
        let mut reads: Vec<(PageId, &mut Page)> =
            ids.iter().copied().zip(bufs.iter_mut()).collect();
        log.set_on(true);
        disk.read_many(&mut reads).unwrap();
        let c = disk.counts();
        assert_eq!((c.write_calls, c.write_pages), (2, 5));
        assert_eq!((c.read_calls, c.read_pages), (1, 4));
        assert!(
            c.read_ns >= CHARGE.as_nanos() as u64 && c.write_ns >= 2 * CHARGE.as_nanos() as u64
        );
        assert!(device.busy_ns() >= 3 * CHARGE.as_nanos() as u64);
        assert_eq!(device.take_in_flight_max(), 1);
        let spans = log.spans();
        assert_eq!(spans.len(), 1, "only the call made while tracing is a span");
        assert_eq!(spans[0].kind, "device.read");
    }
}

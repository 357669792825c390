//! Write-behind: the bounded queue of evicted-but-unflushed pages, its
//! background flusher, and the drain `flush_all` and drop stand on.

use crate::disk::DiskManager;
use crate::error::Result;
use crate::lockrank;
use crate::page::{Page, PageId};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Queue slots the background flusher claims per drain pass; the batch
/// rides one [`DiskManager::write_many`] call, so disks with a bulk
/// path pay one round-trip for up to this many pages.
const WB_DRAIN_BATCH: usize = 16;

/// One evicted-but-unflushed page in the write-behind store.
struct WbSlot {
    /// The most recently evicted bytes for this page (authoritative
    /// until flushed or until the page is re-faulted into a frame).
    page: Page,
    /// Bumped on every supersede, so a completing write can tell
    /// whether it flushed the latest bytes.
    gen: u64,
    /// `Some(gen)` while a consumer is writing that generation to disk.
    flushing: Option<u64>,
    /// A write of these bytes failed; kept out of the flusher's rotation
    /// (retried by `flush_all`, a supersede, or the drop drain).
    failed: bool,
}

struct WbState {
    slots: HashMap<PageId, WbSlot>,
    /// Flush order; may hold stale ids (slots cancelled or already
    /// being flushed) which consumers simply skip.
    order: VecDeque<PageId>,
    /// Active `flush_all` barriers. While nonzero, evictions of pages
    /// with no existing slot write synchronously instead of enqueuing —
    /// a new slot created after the barrier's drain would silently
    /// survive the "everything is durable now" promise. Pages that
    /// *have* a slot still supersede in place (per-page ordering goes
    /// through the slot machinery, and the drain loop runs until the
    /// queue is empty).
    barriers: u32,
    shutdown: bool,
}

/// Bounded queue of dirty evictees plus the flusher protocol shared by
/// the background thread, `flush_all`, and drop.
pub(super) struct WriteBehind {
    disk: Arc<dyn DiskManager>,
    state: Mutex<WbState>,
    /// Signals the flusher thread that work (or shutdown) arrived.
    work_cv: Condvar,
    /// Signals drainers that an in-flight write completed.
    done_cv: Condvar,
    pub(super) capacity: usize,
    pub(super) enqueued: AtomicU64,
    pub(super) flushed: AtomicU64,
    /// Dirty evictions that bypassed the queue for a synchronous write
    /// (queue full or barrier active); see
    /// [`crate::stats::PoolStats::wb_sync_fallbacks`].
    pub(super) sync_fallbacks: AtomicU64,
}

/// A claimed flush job: these bytes of this generation, written outside
/// the lock.
type WbJob = (PageId, Page, u64);

impl WriteBehind {
    pub(super) fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Self {
        WriteBehind {
            disk,
            state: Mutex::with_rank(
                lockrank::POOL_WRITE_BEHIND,
                WbState {
                    slots: HashMap::new(),
                    order: VecDeque::new(),
                    barriers: 0,
                    shutdown: false,
                },
            ),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            capacity,
            enqueued: AtomicU64::new(0),
            flushed: AtomicU64::new(0),
            sync_fallbacks: AtomicU64::new(0),
        }
    }

    /// Hands a dirty victim's bytes to the queue. Falls back to a
    /// synchronous write when the queue is full or a flush barrier is
    /// active (either way only possible for a page with no existing
    /// slot, so write ordering stays per-page serial). Called with the
    /// victim's shard map lock held.
    pub(super) fn enqueue(&self, pid: PageId, page: &Page) -> Result<()> {
        // Copy the page before taking the wb mutex: every shard's
        // evictions funnel through this one lock, and a page-sized
        // memcpy under it would re-couple the evictions the shard
        // striping decoupled. Under the lock only pointers move.
        let copy = page.clone();
        let mut st = self.state.lock();
        if let Some(slot) = st.slots.get_mut(&pid) {
            // Supersede: newest bytes win, no extra capacity.
            slot.page = copy;
            slot.gen += 1;
            if slot.flushing.is_none() && slot.failed {
                // Was parked as failed (not in rotation): requeue.
                slot.failed = false;
                st.order.push_back(pid);
            }
        } else if st.barriers == 0 && st.slots.len() < self.capacity {
            st.slots.insert(pid, WbSlot { page: copy, gen: 0, flushing: None, failed: false });
            st.order.push_back(pid);
        } else {
            // Queue full (or a flush barrier is draining it) and no
            // slot to supersede: the old synchronous path. Safe
            // precisely because no slot exists for `pid` — nothing can
            // write staler bytes after us. This runs under the victim
            // shard's map lock (pre-write-behind cost, and deliberate:
            // released earlier, a concurrent fault of the victim would
            // read stale disk bytes, and parking them in a fresh slot
            // instead would let them slip past an active barrier's
            // drain). It stalls the stripe only on this rare fallback,
            // and `wb_sync_fallbacks` counts each occurrence so the
            // regime is observable (bumped before the blocking write,
            // so a monitor sees the stall as it happens).
            self.sync_fallbacks.fetch_add(1, Ordering::Relaxed);
            drop(st);
            return self.disk.write(pid, page);
        }
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.work_cv.notify_one();
        Ok(())
    }

    /// Enters a flush barrier: until the matching
    /// [`WriteBehind::end_barrier`], no *new* slots are created (see
    /// [`WbState::barriers`]), so a concurrent dirty eviction cannot
    /// slip an unflushed page past `flush_all`'s drain.
    pub(super) fn begin_barrier(&self) {
        self.state.lock().barriers += 1;
    }

    /// Leaves a flush barrier.
    pub(super) fn end_barrier(&self) {
        self.state.lock().barriers -= 1;
    }

    /// Serves a fault from the store: copies the queued (newer-than-disk)
    /// bytes into `dst` and cancels the pending write when possible —
    /// the re-loaded frame re-enters memory dirty and becomes the single
    /// authority for these bytes. Returns false when the page has no
    /// queued bytes (fault must read the disk).
    pub(super) fn serve_fault(&self, pid: PageId, dst: &mut Page) -> bool {
        let mut st = self.state.lock();
        let Some(slot) = st.slots.get(&pid) else { return false };
        dst.bytes_mut().copy_from_slice(slot.page.bytes());
        if slot.flushing.is_none() {
            // Not mid-write: cancel outright (stale `order` entries are
            // skipped by consumers). If a write is in flight, completion
            // will retire the slot; the frame's dirty bit keeps the
            // bytes safe either way.
            st.slots.remove(&pid);
        }
        true
    }

    /// Claims up to `max` flushable jobs in queue order, marking each
    /// slot in-flight — so page ids within the batch are distinct and
    /// no other consumer can double-write them. One
    /// [`DiskManager::write_many`] call then amortizes device
    /// round-trips across the whole claim. The clone under the lock is
    /// deliberate: the slot must keep its bytes visible for
    /// [`WriteBehind::serve_fault`] while the writer needs a copy a
    /// concurrent supersede cannot swap out from under it — and unlike
    /// `enqueue`, only flusher-side consumers pay it.
    fn pop_jobs(st: &mut WbState, max: usize) -> Vec<WbJob> {
        let mut jobs = Vec::new();
        while jobs.len() < max {
            let Some(pid) = st.order.pop_front() else { break };
            if let Some(slot) = st.slots.get_mut(&pid) {
                if slot.flushing.is_none() && !slot.failed {
                    slot.flushing = Some(slot.gen);
                    jobs.push((pid, slot.page.clone(), slot.gen));
                }
            }
        }
        jobs
    }

    /// Writes a claimed batch through [`DiskManager::write_many`] with
    /// unwind insurance: a `DiskManager` implementation that panics
    /// mid-write must not leave a slot marked `flushing` forever —
    /// `drain` waits on exactly that marker and would hang every future
    /// `flush_all`. On unwind every claimed slot is parked as failed
    /// (bytes kept) and drainers are woken; the next `flush_all`
    /// retries them and surfaces whatever happens then. On a
    /// batch-level error the caller fails every job the same way — the
    /// disk makes no claim about which pages landed, and re-flushing a
    /// page that did land is idempotent (`complete` with the slot's
    /// claimed gen retries or retires each correctly).
    fn write_jobs(&self, jobs: &[WbJob]) -> Result<()> {
        struct Unwedge<'a> {
            wb: &'a WriteBehind,
            jobs: &'a [WbJob],
            armed: bool,
        }
        impl Drop for Unwedge<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut st = self.wb.state.lock();
                for (pid, _, _) in self.jobs {
                    if let Some(slot) = st.slots.get_mut(pid) {
                        slot.flushing = None;
                        slot.failed = true;
                    }
                }
                drop(st);
                self.wb.done_cv.notify_all();
            }
        }
        let mut guard = Unwedge { wb: self, jobs, armed: true };
        let pages: Vec<(PageId, &Page)> = jobs.iter().map(|(pid, page, _)| (*pid, page)).collect();
        let res = self.disk.write_many(&pages);
        guard.armed = false;
        res
    }

    /// Retires a completed write. A slot superseded mid-write rejoins
    /// the rotation; a failed write parks the slot (bytes kept) for
    /// `flush_all`, a supersede, or the drop drain to retry.
    fn complete(&self, st: &mut WbState, pid: PageId, gen: u64, res: Result<()>) {
        if res.is_ok() {
            self.flushed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(slot) = st.slots.get_mut(&pid) {
            slot.flushing = None;
            if slot.gen == gen {
                match res {
                    Ok(()) => {
                        st.slots.remove(&pid);
                    }
                    Err(_) => {
                        slot.failed = true;
                    }
                }
            } else {
                // Superseded while we wrote: newer bytes need a pass
                // (even if our stale write failed).
                st.order.push_back(pid);
                self.work_cv.notify_one();
            }
        }
        // else: cancelled by a re-fault; the frame owns the bytes now.
        self.done_cv.notify_all();
    }

    /// The background flusher: drains claimed jobs in batches of up to
    /// [`WB_DRAIN_BATCH`] through [`DiskManager::write_many`] (one
    /// device round-trip per batch on disks that override it), parks
    /// when idle, exits once shutdown is signalled *and* the rotation
    /// is empty. A panicking `DiskManager` write is caught so the
    /// thread survives — dying here would silently disable write-behind
    /// for the pool's remaining lifetime (`write_jobs`'s guard has
    /// already parked every claimed slot as failed by the time the
    /// catch sees the unwind, so there is no completion left to run).
    pub(super) fn run(wb: Arc<WriteBehind>) {
        let mut st = wb.state.lock();
        loop {
            let jobs = Self::pop_jobs(&mut st, WB_DRAIN_BATCH);
            if !jobs.is_empty() {
                drop(st);
                let res =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wb.write_jobs(&jobs)));
                st = wb.state.lock();
                if let Ok(res) = res {
                    // One verdict for the whole batch: on error every
                    // job parks as failed (the disk makes no per-page
                    // claim); on success each slot retires or rejoins
                    // per its own generation.
                    for (pid, _, gen) in &jobs {
                        wb.complete(&mut st, *pid, *gen, res.clone());
                    }
                }
                continue;
            }
            if st.shutdown {
                return;
            }
            wb.work_cv.wait(&mut st);
        }
    }

    /// Drains the queue to disk, helping the flusher rather than merely
    /// waiting on it, one job per claim. Parked-as-failed slots get one
    /// synchronous retry; the first persistent failure aborts with its
    /// error (bytes stay queued, so a later drain can succeed).
    pub(super) fn drain(&self) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            let mut jobs = Self::pop_jobs(&mut st, 1);
            let retrying = jobs.is_empty();
            if retrying {
                if st.slots.values().any(|s| s.flushing.is_some()) {
                    self.done_cv.wait(&mut st);
                    continue;
                }
                // Only parked failures remain. Put one back into the
                // rotation and claim it, so flush_all keeps the old
                // contract: error out but lose nothing.
                let Some((&pid, slot)) = st.slots.iter_mut().next() else { return Ok(()) };
                slot.failed = false;
                st.order.push_back(pid);
                jobs = Self::pop_jobs(&mut st, 1);
            }
            drop(st);
            let res = self.write_jobs(&jobs);
            st = self.state.lock();
            for (pid, _, gen) in &jobs {
                self.complete(&mut st, *pid, *gen, res.clone());
            }
            if retrying {
                res?;
            }
        }
    }

    /// Tells the flusher to exit once its rotation is empty.
    pub(super) fn shut_down(&self) {
        self.state.lock().shutdown = true;
        self.work_cv.notify_all();
    }

    /// The pool's drop-time last resort, once the flusher has exited:
    /// one final synchronous attempt per slot still parked as failed.
    /// Errors are swallowed; the error-visible barrier is `flush_all`.
    pub(super) fn write_leftovers(&self) {
        let mut st = self.state.lock();
        for (pid, slot) in st.slots.drain() {
            let _ = self.disk.write(pid, &slot.page);
        }
    }

    /// Queue depth right now.
    pub(super) fn pending(&self) -> u64 {
        self.state.lock().slots.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::tests::{pool, sharded};
    use crate::buffer::{BufferPool, PoolOptions};
    use crate::disk::InMemoryDisk;
    use crate::stats::IoStats;
    use std::sync::atomic::AtomicBool;

    /// The one write-gated test double behind every "freeze the
    /// flusher mid-write" scenario: writes (point and batched) block
    /// while the gate is held, each call counts as one attempt, and
    /// batch sizes are recorded (a point write records size 1).
    struct GatedWriteDisk {
        inner: InMemoryDisk,
        held: Mutex<bool>,
        cv: Condvar,
        write_attempts: AtomicU64,
        batch_sizes: Mutex<Vec<usize>>,
    }

    impl GatedWriteDisk {
        fn new(page_size: usize, held: bool) -> Self {
            GatedWriteDisk {
                inner: InMemoryDisk::new(page_size),
                held: Mutex::new(held),
                cv: Condvar::new(),
                write_attempts: AtomicU64::new(0),
                batch_sizes: Mutex::new(Vec::new()),
            }
        }

        fn release(&self) {
            *self.held.lock() = false;
            self.cv.notify_all();
        }

        fn gate(&self, batch: usize) {
            self.write_attempts.fetch_add(1, Ordering::Relaxed);
            self.batch_sizes.lock().push(batch);
            let mut held = self.held.lock();
            while *held {
                self.cv.wait(&mut held);
            }
        }
    }

    impl DiskManager for GatedWriteDisk {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn allocate(&self) -> Result<PageId> {
            self.inner.allocate()
        }
        fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
            self.inner.read(id, buf)
        }
        fn write(&self, id: PageId, page: &Page) -> Result<()> {
            self.gate(1);
            self.inner.write(id, page)
        }
        fn write_many(&self, pages: &[(PageId, &Page)]) -> Result<()> {
            self.gate(pages.len());
            for (id, page) in pages {
                self.inner.write(*id, page)?;
            }
            Ok(())
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

    #[test]
    fn write_behind_serves_refault_and_flushes() {
        // A dirty evictee parks in the write-behind queue; a re-fault
        // must see the queued (newer-than-disk) bytes, and flush_all
        // must land them on disk.
        let (pool, disk) = pool(2);
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 77).unwrap();
        pool.evict_page(a).unwrap();
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 77);
        pool.flush_all().unwrap();
        let mut raw = Page::new(256);
        disk.read(a, &mut raw).unwrap();
        assert_eq!(raw.bytes()[0], 77, "flush_all must drain write-behind");
        let s = pool.stats();
        assert!(s.wb_enqueued >= 1, "dirty eviction must enqueue: {s:?}");
        assert_eq!(s.wb_pending, 0, "drained queue must be empty");
    }

    #[test]
    fn write_behind_disabled_writes_synchronously() {
        let disk = Arc::new(InMemoryDisk::new(256));
        let pool = BufferPool::with_pool_options(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            2,
            PoolOptions { shards: 1, write_behind: 0, ..PoolOptions::default() },
        );
        assert_eq!(pool.write_behind(), 0);
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 9).unwrap();
        pool.evict_page(a).unwrap();
        // Synchronous mode: the bytes are on disk the moment the victim
        // is reclaimed.
        let mut raw = Page::new(256);
        disk.read(a, &mut raw).unwrap();
        assert_eq!(raw.bytes()[0], 9);
        let s = pool.stats();
        assert_eq!(s.wb_enqueued, 0);
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn drop_drains_write_behind() {
        let disk = Arc::new(InMemoryDisk::new(256));
        let a;
        {
            let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 2);
            a = pool.new_page().unwrap();
            pool.with_page_mut(a, |p| p.bytes_mut()[0] = 33).unwrap();
            pool.evict_page(a).unwrap();
            // No flush_all: drop itself is the durability barrier for
            // already-evicted pages.
        }
        let mut raw = Page::new(256);
        disk.read(a, &mut raw).unwrap();
        assert_eq!(raw.bytes()[0], 33, "drop must drain the write-behind queue");
    }

    #[test]
    fn flusher_drains_queue_in_batches_through_write_many() {
        // Writes gated from the start: evictions provably pile up in
        // the queue while the flusher is frozen mid-write, so the next
        // claim must come out as one multi-page batch.
        const PAGES: usize = 8;
        let disk = Arc::new(GatedWriteDisk::new(256, true));
        let pool = Arc::new(sharded(Arc::clone(&disk) as Arc<dyn DiskManager>, 16, 1));
        let ids: Vec<PageId> = (0..PAGES).map(|_| pool.new_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.with_page_mut(*id, |p| p.bytes_mut()[0] = i as u8).unwrap();
        }
        // With writes gated, the flusher's first claim blocks mid-batch
        // and the rest of the evictions pile up behind it.
        for id in &ids {
            pool.evict_page(*id).unwrap();
        }
        disk.release();
        while pool.stats().wb_pending > 0 {
            std::thread::yield_now();
        }
        let sizes = disk.batch_sizes.lock().clone();
        assert_eq!(sizes.iter().sum::<usize>(), PAGES, "every queued page flushed: {sizes:?}");
        assert!(
            sizes.iter().any(|&s| s >= 2),
            "the flusher must drain in multi-page write_many batches, got {sizes:?}"
        );
        for (i, id) in ids.iter().enumerate() {
            let mut raw = Page::new(256);
            disk.inner.read(*id, &mut raw).unwrap();
            assert_eq!(raw.bytes()[0], i as u8, "page {i} lost in the batched drain");
        }
    }

    #[test]
    fn wb_sync_fallback_is_counted() {
        // Writes gated, so the one queue slot provably stays occupied
        // while a second eviction arrives.
        let disk = Arc::new(GatedWriteDisk::new(256, true));
        // Queue depth 1: the second distinct dirty eviction must fall
        // back to a synchronous write — the documented stall regime —
        // and the new counter must make it observable.
        let pool = Arc::new(BufferPool::with_pool_options(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            4,
            PoolOptions { shards: 1, write_behind: 1, ..PoolOptions::default() },
        ));
        let a = pool.new_page().unwrap();
        let b = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 1).unwrap();
        pool.with_page_mut(b, |p| p.bytes_mut()[0] = 2).unwrap();
        pool.evict_page(a).unwrap(); // fills the one-slot queue
        assert_eq!(pool.stats().wb_sync_fallbacks, 0);
        let evictor = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.evict_page(b))
        };
        // The counter bumps *before* the blocking write, so the stall
        // is visible while it happens.
        while pool.stats().wb_sync_fallbacks < 1 {
            std::thread::yield_now();
        }
        disk.release();
        evictor.join().unwrap().unwrap();
        pool.flush_all().unwrap();
        let s = pool.stats();
        assert_eq!(s.wb_sync_fallbacks, 1, "exactly one eviction fell back: {s:?}");
        assert_eq!(s.wb_enqueued, 1, "the fallback must not also enqueue");
        let mut raw = Page::new(256);
        disk.inner.read(b, &mut raw).unwrap();
        assert_eq!(raw.bytes()[0], 2, "the fallback write landed");
        pool.reset_stats();
        assert_eq!(pool.stats().wb_sync_fallbacks, 0, "reset covers the new counter");
    }

    #[test]
    fn panicking_write_behind_flush_does_not_wedge_flush_all() {
        use crate::stats::IoStats;

        /// Disk whose next write panics (once), modeling a broken
        /// `DiskManager` implementation under the background flusher.
        struct PanicOnceDisk {
            inner: InMemoryDisk,
            panic_next: AtomicBool,
        }
        impl DiskManager for PanicOnceDisk {
            fn page_size(&self) -> usize {
                self.inner.page_size()
            }
            fn allocate(&self) -> Result<PageId> {
                self.inner.allocate()
            }
            fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
                self.inner.read(id, buf)
            }
            fn write(&self, id: PageId, page: &Page) -> Result<()> {
                if self.panic_next.swap(false, Ordering::Relaxed) {
                    panic!("injected write panic");
                }
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

        let disk = Arc::new(PanicOnceDisk {
            inner: InMemoryDisk::new(256),
            panic_next: AtomicBool::new(true),
        });
        let pool = sharded(Arc::clone(&disk) as Arc<dyn DiskManager>, 2, 1);
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 5).unwrap();
        pool.evict_page(a).unwrap(); // enqueued; the flusher's write panics
        while disk.panic_next.load(Ordering::Relaxed) {
            std::thread::yield_now(); // let the flusher consume the panic
        }
        // Without the write-path unwind guard the slot would stay
        // marked in-flight forever and this drain would hang; with it
        // the slot parks as failed and flush_all retries synchronously.
        pool.flush_all().unwrap();
        let mut raw = Page::new(256);
        disk.inner.read(a, &mut raw).unwrap();
        assert_eq!(raw.bytes()[0], 5, "parked bytes survive the panic and flush");
        assert_eq!(pool.stats().wb_pending, 0);

        // The flusher thread must have survived the panic: a fresh
        // dirty eviction drains in the *background*, no flush_all.
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 6).unwrap();
        pool.evict_page(a).unwrap();
        while pool.stats().wb_pending > 0 {
            std::thread::yield_now();
        }
        disk.inner.read(a, &mut raw).unwrap();
        assert_eq!(raw.bytes()[0], 6, "write-behind still functions after the panic");
    }

    #[test]
    fn flush_barrier_holds_against_concurrent_dirty_evictions() {
        // Writes gated from the start, with attempt counting, so the
        // test can freeze the flusher mid-write and provably interleave
        // an eviction with an active flush barrier.
        let disk = Arc::new(GatedWriteDisk::new(256, true));
        let pool = Arc::new(sharded(Arc::clone(&disk) as Arc<dyn DiskManager>, 4, 1));
        let a = pool.new_page().unwrap();
        let b = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 1).unwrap();
        pool.evict_page(a).unwrap(); // slot for `a`; flusher blocks writing it
        while disk.write_attempts.load(Ordering::Relaxed) < 1 {
            std::thread::yield_now();
        }
        pool.with_page_mut(b, |p| p.bytes_mut()[0] = 2).unwrap(); // resident dirty

        // flush_all enters its barrier, then parks in drain() behind
        // the flusher's gated write of `a`.
        let flusher = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.flush_all())
        };
        while pool.wb.as_ref().unwrap().state.lock().barriers == 0 {
            std::thread::yield_now();
        }

        // The race under test: a dirty eviction *during* the barrier
        // must write synchronously — a fresh queue slot here would
        // slip behind the drain and break the durability promise.
        let evictor = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.evict_page(b))
        };
        while disk.write_attempts.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        assert_eq!(pool.stats().wb_enqueued, 1, "barrier-time eviction must not enqueue");

        disk.release();
        flusher.join().unwrap().unwrap();
        evictor.join().unwrap().unwrap();

        // Everything dirty at (or during) the barrier is on the disk.
        let mut raw = Page::new(256);
        disk.inner.read(a, &mut raw).unwrap();
        assert_eq!(raw.bytes()[0], 1);
        disk.inner.read(b, &mut raw).unwrap();
        assert_eq!(raw.bytes()[0], 2);
        assert_eq!(pool.stats().wb_pending, 0);
    }

    #[test]
    fn churned_queue_lands_the_last_write_of_every_page() {
        // The flusher and `flush_all`'s drain race over one shallow
        // queue while a 4-frame pool churns 32 pages through repeated
        // dirty evictions. The gen-stamped `flushing` claim means a
        // superseded write can never land over a newer one, so the
        // final disk image must equal the last value written to every
        // page.
        let disk = Arc::new(InMemoryDisk::new(256));
        let pool = BufferPool::with_pool_options(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            4,
            PoolOptions { shards: 1, write_behind: 8, ..PoolOptions::default() },
        );
        let ids: Vec<PageId> = (0..32).map(|_| pool.new_page().unwrap()).collect();
        for round in 0..=3u8 {
            for (i, id) in ids.iter().enumerate() {
                pool.with_page_mut(*id, |p| p.bytes_mut()[0] = (i as u8).wrapping_add(round))
                    .unwrap();
            }
        }
        pool.flush_all().unwrap();
        let mut buf = Page::new(256);
        for (i, id) in ids.iter().enumerate() {
            disk.read(*id, &mut buf).unwrap();
            assert_eq!(buf.bytes()[0], (i as u8).wrapping_add(3), "page {i} holds its last write");
        }
    }
}

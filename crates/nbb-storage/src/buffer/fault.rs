//! The pool's one fault machine. Every miss — a point access is a batch
//! of one — is carried by a [`Reservation`] through three steps:
//!
//! * **reserve**: one map acquisition per shard (ascending, never two
//!   held together) pins the hits, joins the loads already in flight,
//!   and for each absent page takes a frame (pinned, mapped to nothing)
//!   and installs its `Loading` entry;
//! * **load**: no map held — write-behind store, then **one**
//!   [`crate::disk::DiskManager::read_many`] for whatever the store did
//!   not serve, spanning every shard of the batch: the one place a page
//!   enters memory from a device;
//! * **publish**: one map acquisition per shard turns each reserved
//!   frame into a resident page (or frees it), then the parked waiters
//!   are resolved, then this batch parks on the loads it joined.
//!
//! The guarantees are per page: concurrent requesters join that page's
//! own [`InFlight`] and are pre-granted their pin at publish, a failed
//! page frees its — by then possibly clobbered — frame and poisons only
//! its own waiters, a failed victim write-back leaves the victim
//! resident and dirty, and a panic anywhere between reserve and publish
//! unwinds through [`Reservation`]'s `Drop` like a failed read.

use super::shard::{Frame, Residency, Shard, ShardMap};
use super::BufferPool;
use crate::error::{Result, StorageError};
use crate::lockrank;
use crate::page::{Page, PageId};
use parking_lot::{Condvar, Mutex, RwLockWriteGuard};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One page's state of an in-flight load, parked on by co-waiters.
pub(super) struct InFlight {
    state: Mutex<LoadState>,
    cv: Condvar,
    /// Waiters that joined this load and were promised a pin. Only
    /// mutated under the shard map lock; final once the `Loading` entry
    /// leaves the table, which is when the loader reads it.
    joiners: AtomicU32,
}

enum LoadState {
    Pending,
    Ready(Arc<Frame>),
    Failed(StorageError),
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            state: Mutex::with_rank(lockrank::POOL_INFLIGHT, LoadState::Pending),
            cv: Condvar::new(),
            joiners: AtomicU32::new(0),
        }
    }

    /// Parks until the load resolves; returns the published frame (pin
    /// already granted by the loader) or the load's error.
    fn wait(&self) -> Result<Arc<Frame>> {
        let mut st = self.state.lock();
        loop {
            match &*st {
                LoadState::Pending => self.cv.wait(&mut st),
                LoadState::Ready(frame) => return Ok(Arc::clone(frame)),
                LoadState::Failed(e) => return Err(e.clone()),
            }
        }
    }

    /// Resolves the load and wakes every parked waiter.
    fn resolve(&self, outcome: Result<Arc<Frame>>) {
        let mut st = self.state.lock();
        *st = match outcome {
            Ok(frame) => LoadState::Ready(frame),
            Err(e) => LoadState::Failed(e),
        };
        self.cv.notify_all();
    }

    /// Waits until the load resolves, without claiming a pin or caring
    /// about the outcome. `flush_all` uses this to chase loads that
    /// were in flight when its sweep passed.
    pub(super) fn await_resolved(&self) {
        let mut st = self.state.lock();
        while matches!(*st, LoadState::Pending) {
            self.cv.wait(&mut st);
        }
    }
}

/// One reserved miss: its frame is pinned (no victim scan takes it) and
/// mapped to nothing, its `Loading` entry is in the shard's table — so
/// the load runs with the shard unlocked, neighbors proceed, and
/// same-page requesters park on the entry instead of re-reading.
struct Reserved<'p> {
    /// Position in the caller's `ids` and `slots`.
    pos: usize,
    id: PageId,
    /// Index of the owning shard, and of the frame within it.
    shard: usize,
    frame: usize,
    inflight: Arc<InFlight>,
    /// The frame's write latch while the page rides the disk batch;
    /// `None` before `load` and once the write-behind store has filled
    /// the frame.
    latch: Option<RwLockWriteGuard<'p, Page>>,
    /// Served from the write-behind store: newer than the disk, so the
    /// page re-enters memory dirty.
    dirty: bool,
    loaded: Result<()>,
}

impl Reserved<'_> {
    /// Gives the frame back — unpinned, mapped to nothing, on the free
    /// list — and takes the `Loading` entry out of the table. Caller
    /// holds the shard's map lock.
    fn release(&self, shard: &Shard, map: &mut ShardMap) {
        let frame = &shard.frames[self.frame];
        frame.dirty.store(false, Ordering::Release);
        frame.pin.store(0, Ordering::Release);
        map.table.remove(&self.id);
        map.free.push(self.frame);
    }
}

/// The misses of one batch between reserve and publish, and its own
/// unwind guard: a `DiskManager` implementation that panics
/// mid-`read_many` must not strand `Loading` entries and their reserved
/// (pinned, so never a victim) frames — that would hang every future
/// requester of the pages forever. Dropped with misses unpublished, it
/// frees their frames and poisons their waiters exactly like a failed
/// read.
struct Reservation<'p> {
    pool: &'p BufferPool,
    /// Contiguous by shard, shards ascending (reservation order).
    misses: Vec<Reserved<'p>>,
    /// `misses[..published]` have left their `Loading` state under
    /// their shard's map; an unwind owes the rest.
    published: usize,
    /// `(position, load)` per page found mid-flight. Parked on last, so
    /// a duplicate id in one batch joins its own first occurrence.
    joins: Vec<(usize, Arc<InFlight>)>,
}

impl<'p> Reservation<'p> {
    /// Visits each shard `ids` touches once: a resident page is pinned
    /// into its slot (hit bookkeeping), a page mid-load is joined, an
    /// absent page is reserved. A page whose shard has no victim, or
    /// whose victim's write-back failed, gets that error in its slot
    /// and the rest of the batch proceeds.
    fn reserve(pool: &'p BufferPool, ids: &[PageId], slots: &mut [Result<Arc<Frame>>]) -> Self {
        let mut batch = Reservation { pool, misses: Vec::new(), published: 0, joins: Vec::new() };
        for run in pool.by_shard(ids).chunk_by(|a, b| a.0 == b.0) {
            let si = run[0].0;
            let shard = &pool.shards[si];
            // rank-exempt: pool entry point, re-enterable from user
            // closures holding frame latches; see `pin`. One shard map
            // at a time, ascending — never two at once.
            let mut map = shard.map.lock_unordered();
            for &(_, pos) in run {
                let id = ids[pos];
                match map.table.get(&id) {
                    Some(&Residency::Resident(idx)) => {
                        let frame = &shard.frames[idx];
                        shard.touch(frame);
                        slots[pos] = Ok(Arc::clone(frame));
                    }
                    Some(Residency::Loading(inflight)) => {
                        inflight.joiners.fetch_add(1, Ordering::Relaxed);
                        shard.stats.misses.fetch_add(1, Ordering::Relaxed);
                        shard.stats.fault_joins.fetch_add(1, Ordering::Relaxed);
                        batch.joins.push((pos, Arc::clone(inflight)));
                    }
                    None => match pool.take_frame(shard, &mut map) {
                        Ok(idx) => {
                            shard.frames[idx].pin.store(1, Ordering::Release);
                            let inflight = Arc::new(InFlight::new());
                            map.table.insert(id, Residency::Loading(Arc::clone(&inflight)));
                            shard.stats.misses.fetch_add(1, Ordering::Relaxed);
                            shard.stats.faults.fetch_add(1, Ordering::Relaxed);
                            batch.misses.push(Reserved {
                                pos,
                                id,
                                shard: si,
                                frame: idx,
                                inflight,
                                latch: None,
                                dirty: false,
                                loaded: Ok(()),
                            });
                        }
                        Err(e) => slots[pos] = Err(e),
                    },
                }
            }
        }
        batch
    }

    /// Fills every reserved frame, each under a fresh residency stamp
    /// (`Page::restamp`): the write-behind store may hold newer bytes
    /// than the disk and serves those pages itself; the rest keep their
    /// latch and ride the disk batch. (Frame latches are a multi rank,
    /// and a just-reserved frame — pinned, mapped to nothing — has no
    /// other suitor.)
    fn load(&mut self) {
        let pool = self.pool;
        for m in &mut self.misses {
            let mut page = pool.shards[m.shard].frames[m.frame].data.write();
            page.restamp(true);
            if pool.wb.as_ref().is_some_and(|wb| wb.serve_fault(m.id, &mut page)) {
                m.dirty = true;
            } else {
                m.latch = Some(page);
            }
        }
        // One device round-trip for the whole batch: the batch count
        // lands on the first page's shard, each page on its own
        // (aggregation sums the shards, so the pool-level ratio stays
        // pages-per-round-trip).
        let mut batch: Vec<(PageId, &mut Page)> = Vec::with_capacity(self.misses.len());
        for m in &mut self.misses {
            let Some(page) = m.latch.as_deref_mut() else { continue };
            let stats = &pool.shards[m.shard].stats;
            if batch.is_empty() {
                stats.read_batches.fetch_add(1, Ordering::Relaxed);
            }
            stats.read_pages.fetch_add(1, Ordering::Relaxed);
            batch.push((m.id, page));
        }
        if batch.is_empty() {
            return;
        }
        let wide = batch.len() > 1;
        let read = pool.disk.read_many(&mut batch);
        drop(batch);
        for m in &mut self.misses {
            let Some(mut page) = m.latch.take() else { continue };
            if let Err(e) = &read {
                m.loaded = if wide {
                    // A wide batch's error makes no claim about which
                    // pages landed; re-read each one (idempotent by the
                    // `read_many` contract) so only the genuinely
                    // failing pages poison their entries.
                    pool.disk.read(m.id, &mut page)
                } else {
                    // A one-page batch's error already names its page:
                    // poison that entry's waiters (a retry here could
                    // heal the read behind their backs and hand the
                    // error to no one).
                    Err(e.clone())
                };
            }
        }
    }

    /// Publishes every miss under its shard's map, fills the caller's
    /// slots, resolves the parked waiters once the maps are dropped,
    /// and only then parks on this batch's own joins.
    fn publish(&mut self, slots: &mut [Result<Arc<Frame>>]) {
        let pool = self.pool;
        for run in self.misses.chunk_by(|a, b| a.shard == b.shard) {
            let shard = &pool.shards[run[0].shard];
            // rank-exempt: publish step of a fault that may itself be
            // nested under the caller's outer frame latches; see `pin`.
            // One shard map at a time, ascending.
            let mut map = shard.map.lock_unordered();
            for m in run {
                let frame = &shard.frames[m.frame];
                // Only this batch resolves these entries, so the joiner
                // counts are final once the entries leave the table.
                let joiners = m.inflight.joiners.load(Ordering::Relaxed);
                match &m.loaded {
                    Ok(()) => {
                        frame.dirty.store(m.dirty, Ordering::Release);
                        // One pin for the caller plus one pre-granted
                        // to each parked waiter: none can lose the
                        // frame to eviction between wake-up and use.
                        frame.pin.store(1 + joiners, Ordering::Release);
                        // A load is not a reference: a page earns its
                        // second chance by a touch after it was placed.
                        frame.refbit.store(false, Ordering::Relaxed);
                        map.table.insert(m.id, Residency::Resident(m.frame));
                        map.resident[m.frame] = Some(m.id);
                        map.admit(m.frame, m.id);
                        slots[m.pos] = Ok(Arc::clone(frame));
                    }
                    Err(e) => {
                        // The failed read may have clobbered the frame
                        // bytes: free it, and poison every parked
                        // waiter below.
                        m.release(shard, &mut map);
                        slots[m.pos] = Err(e.clone());
                    }
                }
                self.published += 1;
            }
        }
        for m in &self.misses {
            m.inflight.resolve(slots[m.pos].clone());
        }
        for (pos, inflight) in self.joins.drain(..) {
            slots[pos] = inflight.wait();
        }
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        let stranded = &mut self.misses[self.published..];
        // Latches first, then the reservations.
        for m in stranded.iter_mut() {
            m.latch = None;
        }
        for run in stranded.chunk_by(|a, b| a.shard == b.shard) {
            let shard = &self.pool.shards[run[0].shard];
            // rank-exempt: unwinds out of a (possibly nested) fault, so
            // the caller may still hold outer frame latches; see `pin`.
            // One shard map at a time, ascending.
            let mut map = shard.map.lock_unordered();
            for m in run {
                m.release(shard, &mut map);
            }
        }
        for m in stranded.iter() {
            m.inflight.resolve(Err(StorageError::Io(format!(
                "page {} load panicked in DiskManager::read_many",
                m.id
            ))));
        }
    }
}

impl BufferPool {
    /// Pins `id` into a frame of its shard. A hit is served inline —
    /// one map probe, no allocation; everything else (a page mid-load,
    /// a true miss) is a demand fault of one page through
    /// [`BufferPool::fault_batch`].
    pub(super) fn pin(&self, id: PageId) -> Result<Arc<Frame>> {
        let shard = self.shard_of(id);
        {
            // rank-exempt: every pool entry point funnels through here,
            // and user closures re-enter the pool while holding frame
            // latches (nested `with_page` on distinct pages — latch
            // coupling). The map-under-frame acquisition cannot
            // deadlock because the only *blocking* frame latches taken
            // under a map lock target unpinned victims
            // (`BufferPool::evict`), and a closure-held frame is pinned
            // by definition. (`flush_all`'s sweep used to be the one
            // map-holder latching pinned frames; it now snapshots under
            // the map and latches after dropping it —
            // `flush_frame_revalidated`.)
            let map = shard.map.lock_unordered();
            if let Some(&Residency::Resident(idx)) = map.table.get(&id) {
                let frame = &shard.frames[idx];
                shard.touch(frame);
                return Ok(Arc::clone(frame));
            }
        }
        self.fault_batch(&[id]).pop().unwrap_or(Err(StorageError::BufferPoolExhausted))
    }

    /// Demand-faults a batch of pages — any mix of shards — and returns
    /// one slot per input position: the page's frame, pinned for the
    /// caller (who owes one `unpin`), or that page's own error.
    /// [`StorageError::BufferPoolExhausted`] means the shard had no
    /// victim while the batch held its reservations; see
    /// [`BufferPool::fault_each`]. Keeping the disk batch pool-wide is
    /// what lets adjacent page ids — which stripe one-per-shard — still
    /// coalesce into a single device round-trip.
    fn fault_batch(&self, ids: &[PageId]) -> Vec<Result<Arc<Frame>>> {
        // Every position is overwritten by `reserve` or `publish`.
        let mut slots: Vec<_> =
            ids.iter().map(|_| Err(StorageError::BufferPoolExhausted)).collect();
        let mut batch = Reservation::reserve(self, ids, &mut slots);
        batch.load();
        batch.publish(&mut slots);
        slots
    }

    /// Faults `ids` as one batch and runs `visit(position, frame)` on
    /// each page, unpinning it afterwards. A page the batch could not
    /// reserve a frame for is retried alone through [`BufferPool::pin`]
    /// — by then the batch's own pins are draining, and `pin` reports
    /// `BufferPoolExhausted` if it still cannot. Every page is faulted
    /// whatever its siblings do; the first error is returned, and
    /// `visit` stops being called once there is one.
    pub(super) fn fault_each(
        &self,
        ids: &[PageId],
        mut visit: impl FnMut(usize, &Frame),
    ) -> Result<()> {
        let mut first_err = None;
        for (pos, slot) in self.fault_batch(ids).into_iter().enumerate() {
            let slot = match slot {
                Err(StorageError::BufferPoolExhausted) => self.pin(ids[pos]),
                slot => slot,
            };
            match slot {
                Ok(frame) => {
                    if first_err.is_none() {
                        visit(pos, &frame);
                    }
                    Self::unpin(&frame);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Chunk bound for pool-level batch faults: even if every id in a
    /// chunk lands in the same shard, the group never pins more than
    /// half that shard's frames at once (N point calls hold at most one
    /// pin each; the bound keeps the batch within what any shard can
    /// always absorb).
    pub(super) fn batch_chunk(&self) -> usize {
        let min = self.shards.iter().map(|s| s.frames.len()).min().unwrap_or(1);
        (min / 2).max(1)
    }

    /// Demand-faults every page in `ids` in batched groups — the
    /// eager form of [`BufferPool::with_page_batch`] for callers that
    /// want residency, not bytes. Each bounded chunk reserves its
    /// misses per shard (ascending order, one map acquisition each)
    /// and rides **one** [`crate::disk::DiskManager::read_many`]
    /// spanning the whole chunk, so adjacent ids coalesce even though
    /// they stripe across shards. Pages land resident and unpinned, on
    /// probation unless a recent eviction left their id in the ghost.
    /// Returns the first per-page error (remaining pages are still
    /// faulted — per-page independence, as everywhere in the batch
    /// path).
    pub fn fault_many(&self, ids: &[PageId]) -> Result<()> {
        let mut first_err = None;
        for part in ids.chunks(self.batch_chunk()) {
            if let Err(e) = self.fault_each(part, |_, _| ()) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use crate::buffer::tests::sharded;
    use crate::buffer::BufferPool;
    use crate::disk::{DiskManager, InMemoryDisk};
    use crate::page::PageId;
    use std::sync::Arc;

    /// Writes `n` pages with recognizable content through one pool,
    /// flushes, and returns a **cold** pool over the same disk plus the
    /// page ids — the setup every batch-read test starts from.
    fn cold_pool(cap: usize, n: usize) -> (Arc<BufferPool>, Arc<InMemoryDisk>, Vec<PageId>) {
        let disk = Arc::new(InMemoryDisk::new(256));
        let warm = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, cap.max(n));
        let mut ids = Vec::new();
        for i in 0..n {
            let (id, ()) = warm.new_page_with(|p| p.bytes_mut()[0] = i as u8 + 1).unwrap();
            ids.push(id);
        }
        warm.flush_all().unwrap();
        drop(warm);
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, cap));
        (pool, disk, ids)
    }

    #[test]
    fn batch_reads_over_mixed_residency_and_group_lock_work() {
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(sharded(disk, 32, 4));
        let ids: Vec<_> = (0..24).map(|_| pool.new_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.with_page_mut(*id, |p| p.bytes_mut()[0] = i as u8).unwrap();
        }
        // Mixed residency: evict half, then batch-read everything plus
        // duplicates, out of order.
        for id in ids.iter().step_by(2) {
            pool.evict_page(*id).unwrap();
        }
        let mut asked: Vec<PageId> = ids.iter().rev().copied().collect();
        asked.push(ids[5]);
        asked.push(ids[5]);
        let got = pool.with_page_batch(&asked, |_, p| p.bytes()[0]).unwrap();
        for (pos, id) in asked.iter().enumerate() {
            let want = ids.iter().position(|x| x == id).unwrap() as u8;
            assert_eq!(got[pos], want, "position {pos}");
        }
        // Closed form: the 24 seeding writes each missed once; of the
        // 26 batch members the 12 evicted pages miss and fault while
        // the 12 residents and both duplicates of the resident `ids[5]`
        // hit.
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.faults), (14, 24 + 12, 24 + 12));
    }

    #[test]
    fn batch_on_tiny_pool_behaves_like_point_calls() {
        // 2 frames, 1 shard: more batch members than frames must still
        // succeed (pins drain before misses fault).
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
        let pool = sharded(disk, 2, 1);
        let ids: Vec<_> = (0..10).map(|_| pool.new_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.with_page_mut(*id, |p| p.bytes_mut()[0] = i as u8).unwrap();
        }
        let got = pool.with_page_batch(&ids, |_, p| p.bytes()[0]).unwrap();
        assert_eq!(got, (0..10).map(|i| i as u8).collect::<Vec<_>>());
    }

    #[test]
    fn fault_many_batches_reads_and_leaves_pages_resident() {
        let (pool, disk, ids) = cold_pool(8, 4);
        disk.reset_stats();
        pool.fault_many(&ids).unwrap();
        let s = pool.stats();
        assert_eq!(s.faults, 4);
        assert_eq!(s.read_batches, 1);
        assert_eq!(s.read_pages, 4);
        for (i, &id) in ids.iter().enumerate() {
            assert!(pool.contains(id));
            assert_eq!(pool.with_page(id, |p| p.bytes()[0]).unwrap(), i as u8 + 1);
        }
        // No pin leaked: every page can be forced out.
        for &id in &ids {
            pool.evict_page(id).unwrap();
        }
        // A second fault_many over resident pages is all hits.
        pool.fault_many(&ids).unwrap();
        pool.reset_stats();
        pool.fault_many(&ids).unwrap();
        let s = pool.stats();
        assert_eq!(s.hits, 4);
        assert_eq!(s.read_batches, 0);
    }

    #[test]
    fn with_page_batch_faults_misses_in_one_read_batch() {
        let (pool, disk, ids) = cold_pool(8, 4);
        // Warm half the batch so the group mixes hits and misses.
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap();
        disk.reset_stats();
        pool.reset_stats();
        let got = pool.with_page_batch(&ids, |_, p| p.bytes()[0]).unwrap();
        assert_eq!(got, vec![1, 2, 3, 4]);
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.faults, 2);
        assert_eq!(s.read_batches, 1, "both misses rode one read_many");
        assert_eq!(s.read_pages, 2);
        assert_eq!(disk.stats().reads, 2);
    }

    #[test]
    fn with_page_batch_coalesces_misses_across_shards() {
        // 4 shards × 16 frames; pages 0..8 stripe over every shard, so
        // a per-shard fault pass would pay 4 read batches. The miss
        // pass must collect across shards: one read_many total (8 ≤
        // batch_chunk = 16/2, so the whole group is one chunk).
        let disk = Arc::new(InMemoryDisk::new(256));
        let warm = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 64);
        let ids: Vec<PageId> = (0..8)
            .map(|i| warm.new_page_with(|p| p.bytes_mut()[0] = i as u8 + 1).unwrap().0)
            .collect();
        warm.flush_all().unwrap();
        drop(warm);
        let pool = sharded(Arc::clone(&disk) as Arc<dyn DiskManager>, 64, 4);
        assert!(
            (0..4).all(|s| ids.iter().any(|id| id.0 % 4 == s)),
            "test premise: the batch touches every shard"
        );
        disk.reset_stats();
        let got = pool.with_page_batch(&ids, |_, p| p.bytes()[0]).unwrap();
        assert_eq!(got, (1..=8).collect::<Vec<u8>>());
        let s = pool.stats();
        assert_eq!(s.faults, 8);
        assert_eq!(s.read_batches, 1, "cross-shard misses must share one read_many");
        assert_eq!(s.read_pages, 8);
    }
}

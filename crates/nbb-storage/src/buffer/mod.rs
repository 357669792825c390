//! Buffer pool: fixed set of frames over a [`DiskManager`], split into
//! lock-striped shards with per-shard **2Q replacement**, an
//! I/O-in-progress **frame state machine** on the fault path, and
//! **write-behind** eviction.
//!
//! # Frame state machine (overlapped faults)
//!
//! A shard's residency table maps each page to `Resident` or `Loading`:
//!
//! ```text
//!            miss: reserve frame,            load finishes:
//!            release shard lock              publish + wake waiters
//!   absent ────────────────────▶ Loading ────────────────────▶ Resident
//!      ▲                            │                             │
//!      │       load fails:          │                             │
//!      │       free frame,          │                             │
//!      │       poison waiters       │                             │
//!      │◀───────────────────────────┘                             │
//!      │◀─────────────────────────────────────────────────────────┘
//!                  evicted (dirty bytes to write-behind first)
//! ```
//!
//! One implementation (`fault_batch` in `fault.rs`) runs this machine
//! for every fault: a point access that misses is a batch of one. The
//! shard map mutex is held only to *transition* between states, never across a
//! [`DiskManager::read_many`]. A miss installs a `Loading` entry,
//! reserves its frame (pinned, so no victim scan takes it), drops the
//! shard lock, performs the load, then re-locks to publish. The
//! consequences, which `tests/overlapped_io.rs` pins with gated disks
//! and `point_cold`'s `pool.fault_joins_per_kreq` measures:
//!
//! * Requesters for **other** pages in the same shard proceed
//!   immediately — one stripe sustains frames-many in-flight faults
//!   instead of one.
//! * Concurrent requesters for the **same** page park on the in-flight
//!   load (a condvar on the `Loading` entry) instead of issuing
//!   duplicate reads; the loader pre-grants each parked waiter its pin
//!   when it publishes, so a waiter can never find the page evicted
//!   between wake-up and use. Exactly one disk read happens no matter
//!   how many threads miss together ([`PoolStats::fault_joins`] counts
//!   the coalesced ones).
//! * A failed read poisons only its own `Loading` entry: the frame goes
//!   back to the free list unpinned, every parked waiter gets the
//!   error, and a later retry faults afresh. No zombie frames.
//!
//! ## Where things live
//!
//! * `mod.rs` is the pool's public face; `shard.rs` one stripe (frames,
//!   residency table, 2Q replacement, eviction); `fault.rs` the fault
//!   machine; `write_behind.rs` the store below a frame, with its
//!   background flusher.
//! * A batch of misses is one `Reservation` carried through **reserve**
//!   (one map acquisition per shard, ascending) → **load** (no map held:
//!   write-behind store, then **one** [`DiskManager::read_many`] for
//!   the rest, spanning shards) → **publish** (one map acquisition per
//!   shard, then resolve waiters, then park on joins).
//! * So a cold scan pays one device round-trip per batch, not per page
//!   ([`PoolStats::read_batches`] / [`PoolStats::read_pages`]; a point
//!   fault is a batch of one), and every guarantee above holds per
//!   page: a wide read's error falls back to per-page reads, so only
//!   the failing page poisons its entry.
//!
//! # Write-behind eviction
//!
//! Evicting a dirty victim no longer pays a synchronous
//! [`DiskManager::write`]: the victim's bytes are memcpy'd into a
//! bounded write-behind queue and a background flusher thread writes
//! them out, so victim reclaim costs a page copy instead of a device
//! wait. Correctness hinges on the queue being part of the storage
//! hierarchy: a fault checks the queue before the disk (queued bytes
//! are newer), and a page re-faulted from the queue re-enters memory
//! *dirty* with its pending write cancelled, so the frame is always the
//! single authority for unflushed bytes. [`BufferPool::flush_all`]
//! drains the queue before flushing resident pages — the durability
//! barrier `Database::persist`/`close` rely on — and dropping the pool
//! drains it too. A full queue falls back to the old synchronous write,
//! so memory stays bounded. `write_behind = 0` disables the queue and
//! the flusher thread entirely.
//!
//! # Index-cache contract
//!
//! Two properties are load-bearing for the paper's index cache (§2.1.1):
//!
//! 1. **Non-dirtying writes.** [`BufferPool::with_page_cache_write`]
//!    mutates the in-memory frame *without* setting the dirty bit. If the
//!    frame is evicted, the modification is silently lost — which is
//!    exactly the contract index-cache stores require ("cache
//!    modifications do not dirty the page", so caching never adds I/O).
//! 2. **Try-latch access.** The same method gives up immediately if the
//!    frame latch is contended (§2.1.3: "we can give up a write operation
//!    if the latch is not immediately available").
//! 3. **Residency stamps.** A page gets a new process-unique
//!    [`Page::stamp`] whenever it enters a frame (`Reservation::load`)
//!    and at every exclusive writer latch, including
//!    [`BufferPool::with_page_mut_clean`], the blocking latch that does
//!    not dirty. Entering a frame also clears [`Page::marked`]: a
//!    reloaded image may be older than memory-only writes to it.
//!
//! # Sharding
//!
//! The pool is partitioned into `shards` independent stripes, each with
//! its own frame table, free list, replacement state, and statistics. A
//! page id maps to exactly one shard (`page_id % shards`), so concurrent
//! accesses to distinct pages contend only when they collide on a
//! stripe. Frames are divided as evenly as possible across shards, and a
//! shard can only evict among its own frames. [`BufferPool::new`]
//! therefore caps the default shard count so each shard keeps at least
//! [`MIN_FRAMES_PER_SHARD`] frames; [`BufferPool::with_pool_options`]
//! gives callers exact control.
//!
//! Each shard replaces by 2Q (`shard.rs`). A page's first residency is
//! **probation**, a FIFO capped at a quarter of the shard in which hits
//! are ignored, because the touches that come with a first use are
//! correlated, not reuse: a range leaf is faulted by `fault_many` and
//! read by its cursor a moment later, a heap page serves the rows of
//! one request, and a scrambled-Zipf tail page is touched once. A
//! clock that references every page it loads lets such a page outlive
//! two sweeps while pages in real use are read again. A page leaving
//! probation leaves its id in a **ghost** of half the shard's size; a
//! miss on a ghost id — a re-reference *after* probation — puts the
//! page in the **protected** set, where a second-chance sweep evicts
//! what has not been touched since it last passed. A hit stays one map
//! probe, a pin and a relaxed store, and all of it lives under the
//! shard map.
//!
//! # Lock order
//!
//! The pool's locks sit at ranks 60–90 of the workspace lock-order
//! lattice (`CONCURRENCY.md` at the repo root), checked at runtime on
//! every debug test run. The pool is also the lattice's one deliberate
//! exception: nested `with_page` acquires frame → map while the
//! fault/evict paths acquire map → frame, so the entry-point map
//! acquisitions are `lock_unordered` with deadlock-freedom resting on
//! the pin protocol — blocking frame latches taken under a map only
//! ever target unpinned victims, and closure-held frames are pinned.
//! `CONCURRENCY.md` §"The frame/map exemption" carries the full
//! argument. (`flush_all`'s sweep, once the one map-holder that
//! latched pinned frames, now snapshots residency under the map and
//! latches after dropping it.)

mod fault;
mod shard;
mod write_behind;

use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId};
use crate::stats::PoolStats;
use fault::InFlight;
use shard::{Frame, Residency, Shard};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use write_behind::WriteBehind;

/// Default shard count for pools large enough to support it.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// Minimum frames per shard before [`BufferPool::new`] reduces the
/// default shard count. Keeps replacement meaningful (a one-frame
/// shard degenerates to direct replacement) and leaves headroom for
/// nested pins of pages that happen to collide on a shard.
pub const MIN_FRAMES_PER_SHARD: usize = 16;

/// Default write-behind queue depth (evicted-but-unflushed pages the
/// pool will buffer before eviction falls back to synchronous writes).
pub const DEFAULT_WRITE_BEHIND: usize = 64;

/// Fixed-capacity page cache over a shared disk, striped into shards,
/// with overlapped faults and write-behind eviction.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    shards: Box<[Shard]>,
    wb: Option<Arc<WriteBehind>>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

/// Construction knobs for [`BufferPool::with_pool_options`]. `Default`
/// reproduces [`BufferPool::new`]'s behavior except for the shard clamp
/// (callers of `new` get [`clamp_shards`] applied first).
#[derive(Clone, Debug)]
pub struct PoolOptions {
    /// Lock-striped shard count, clamped to `[1, capacity]`.
    pub shards: usize,
    /// Write-behind queue depth; 0 disables the queue and its flusher
    /// thread — every dirty eviction pays a synchronous
    /// [`DiskManager::write`], the pre-write-behind behavior, which
    /// benches use as the baseline.
    pub write_behind: usize,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions { shards: DEFAULT_POOL_SHARDS, write_behind: DEFAULT_WRITE_BEHIND }
    }
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `disk` with an
    /// automatically sized shard count ([`DEFAULT_POOL_SHARDS`], reduced
    /// so every shard keeps at least [`MIN_FRAMES_PER_SHARD`] frames)
    /// and the default write-behind depth.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Self {
        let shards = clamp_shards(capacity, DEFAULT_POOL_SHARDS);
        Self::with_pool_options(disk, capacity, PoolOptions { shards, ..PoolOptions::default() })
    }

    /// Full-control constructor: exact shard count (clamped to
    /// `[1, capacity]`; frames are distributed as evenly as possible and
    /// a shard only evicts among its own frames) and write-behind queue
    /// depth — see [`PoolOptions`].
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_pool_options(
        disk: Arc<dyn DiskManager>,
        capacity: usize,
        opts: PoolOptions,
    ) -> Self {
        let PoolOptions { shards, write_behind } = opts;
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let nshards = shards.clamp(1, capacity);
        let page_size = disk.page_size();
        let shards = (0..nshards)
            .map(|i| {
                Shard::new(capacity / nshards + usize::from(i < capacity % nshards), page_size)
            })
            .collect();
        let wb =
            (write_behind > 0).then(|| Arc::new(WriteBehind::new(Arc::clone(&disk), write_behind)));
        let flusher = wb.as_ref().map(|wb| {
            let wb = Arc::clone(wb);
            std::thread::Builder::new()
                .name("nbb-wb-flusher".into())
                .spawn(move || WriteBehind::run(wb))
                // nbb-lint: allow(unwrap, thread spawn at pool construction; OS exhaustion is fatal)
                .expect("spawn write-behind flusher")
        });
        BufferPool { disk, shards, wb, flusher }
    }

    /// Number of frames across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.frames.len()).sum()
    }

    /// Number of lock-striped shards (≥ 1).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Configured write-behind queue depth (0 = disabled: dirty
    /// evictions write synchronously).
    pub fn write_behind(&self) -> usize {
        self.wb.as_ref().map_or(0, |wb| wb.capacity)
    }

    /// The disk this pool fronts.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Allocates a fresh page on disk and returns its id (not yet resident).
    pub fn new_page(&self) -> Result<PageId> {
        self.disk.allocate()
    }

    /// Allocates a fresh page, loads it, and runs `init` on it (dirtying).
    pub fn new_page_with<R>(&self, init: impl FnOnce(&mut Page) -> R) -> Result<(PageId, R)> {
        let id = self.disk.allocate()?;
        let r = self.with_page_mut(id, init)?;
        Ok((id, r))
    }

    /// Runs `f` with shared access to page `id`, pinning it for the duration.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let frame = self.pin(id)?;
        let out = {
            let guard = frame.data.read();
            f(&guard)
        };
        Self::unpin(&frame);
        Ok(out)
    }

    /// Runs `f` with exclusive access to page `id`, marking the frame
    /// dirty. The page gets a new [`Page::stamp`] first.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        self.latched(id, true, f)
    }

    /// [`BufferPool::with_page_mut`] that leaves the dirty bit alone:
    /// what `f` writes reaches a device only if something else dirties
    /// the frame first. For memory-only state that readers must see
    /// change under the latch, such as an index cache kept exact.
    pub fn with_page_mut_clean<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        self.latched(id, false, f)
    }

    fn latched<R>(&self, id: PageId, dirty: bool, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        let frame = self.pin(id)?;
        let out = {
            let mut guard = frame.data.write();
            if dirty {
                frame.dirty.store(true, Ordering::Release);
            }
            guard.restamp(false);
            f(&mut guard)
        };
        Self::unpin(&frame);
        Ok(out)
    }

    /// Runs `f` with shared access to each page in `ids`, amortizing
    /// lock acquisitions across the batch: ids are grouped per shard and
    /// every resident member of a group is pinned under **one** shard
    /// map lock, instead of one acquisition per page as N
    /// [`BufferPool::with_page`] calls would take. Non-resident pages —
    /// including pages another thread is still loading — are collected
    /// across **all** shards and faulted in bounded chunks, each chunk
    /// riding one [`DiskManager::read_many`] no matter how its pages
    /// stripe over shards: a batch whose misses land on four shards pays
    /// one device round trip, not four.
    ///
    /// `f` receives `(position_in_ids, &Page)` and may be called in any
    /// order; the returned vector is indexed like `ids`. Duplicate ids
    /// are pinned once per occurrence and are safe.
    ///
    /// Hit/miss counters advance exactly as they would for point calls.
    pub fn with_page_batch<R>(
        &self,
        ids: &[PageId],
        mut f: impl FnMut(usize, &Page) -> R,
    ) -> Result<Vec<R>> {
        let mut out: Vec<Option<R>> = ids.iter().map(|_| None).collect();
        // Misses from every shard, deferred past the hit pass so a
        // cross-shard group still coalesces into one device round trip
        // per chunk (the per-shard loop below only pins residents).
        let mut missed: Vec<usize> = Vec::new();
        for group in self.by_shard(ids).chunk_by(|a, b| a.0 == b.0) {
            let shard = &self.shards[group[0].0];
            // Pin the group's resident pages in bounded chunks: one
            // map-lock acquisition pins up to half the shard's frames,
            // so a batch never holds enough simultaneous pins to starve
            // a concurrent faulter of victims (N point calls hold at
            // most one pin; the chunk bound keeps that property within
            // a factor the shard can always absorb).
            let chunk = (shard.frames.len() / 2).max(1);
            let mut pinned: Vec<(usize, Arc<Frame>)> = Vec::with_capacity(chunk);
            for part in group.chunks(chunk) {
                {
                    // rank-exempt: pool entry point, re-enterable from
                    // user closures holding frame latches; see `pin`.
                    let map = shard.map.lock_unordered();
                    for &(_, i) in part {
                        if let Some(&Residency::Resident(idx)) = map.table.get(&ids[i]) {
                            let frame = &shard.frames[idx];
                            shard.touch(frame);
                            pinned.push((i, Arc::clone(frame)));
                        } else {
                            // Absent or Loading: collected for the
                            // batch fault pass below.
                            missed.push(i);
                        }
                    }
                }
                // Drain the hit pins before faulting the misses, so
                // batch pins never shrink the evictable set a miss may
                // need (a tiny single-shard pool must behave exactly
                // like N point calls would).
                for (i, frame) in pinned.drain(..) {
                    out[i] = Some(f(i, &frame.data.read()));
                    Self::unpin(&frame);
                }
            }
        }
        // Fault the misses of every shard as chunked groups: each chunk
        // reserves its absent pages in one map acquisition per shard,
        // the disk leftovers ride one `read_many` **spanning shards**,
        // and mid-flight loads are joined — the serial per-page fallback
        // only remains for pages the group could not reserve a frame
        // for. The chunk bound keeps simultaneous reservations within
        // what the smallest shard can always absorb (see
        // [`BufferPool::batch_chunk`]).
        for part in missed.chunks(self.batch_chunk()) {
            let part_ids: Vec<PageId> = part.iter().map(|&i| ids[i]).collect();
            self.fault_each(&part_ids, |k, frame| {
                out[part[k]] = Some(f(part[k], &frame.data.read()));
            })?;
        }
        // nbb-lint: allow(unwrap, the hit and miss passes cover every index)
        Ok(out.into_iter().map(|r| r.expect("every id visited")).collect())
    }

    /// Runs `f` with exclusive access *without* dirtying the frame or
    /// advancing its stamp, and only if the frame latch is immediately
    /// available.
    ///
    /// Returns `Ok(None)` when the latch was contended — the caller is
    /// expected to simply skip its (cache) write, never to retry in a loop.
    pub fn with_page_cache_write<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<Option<R>> {
        let frame = self.pin(id)?;
        let out = frame.data.try_write().map(|mut guard| f(&mut guard));
        Self::unpin(&frame);
        Ok(out)
    }

    /// True if page `id` is currently resident (a page mid-load is not
    /// yet resident).
    pub fn contains(&self, id: PageId) -> bool {
        // rank-exempt: read-only probe, callable from user closures
        // holding frame latches; acquires nothing under the map.
        matches!(
            self.shard_of(id).map.lock_unordered().table.get(&id),
            Some(Residency::Resident(_))
        )
    }

    /// Forces page `id` out of the pool (handing it to write-behind iff
    /// dirty). Like any victim, a page on probation leaves its id in the
    /// ghost, so its next fault promotes it.
    ///
    /// Used by tests and harnesses to simulate memory pressure; a no-op
    /// if the page is not resident. Fails if the page is pinned or mid-load.
    pub fn evict_page(&self, id: PageId) -> Result<()> {
        let shard = self.shard_of(id);
        // rank-exempt: pool entry point, re-enterable from user
        // closures holding frame latches; the victim latch taken below
        // is pin==0-guarded, so it can never block on such a closure.
        let mut map = shard.map.lock_unordered();
        let idx = match map.table.get(&id) {
            None => return Ok(()),
            Some(Residency::Loading(_)) => return Err(StorageError::BufferPoolExhausted),
            Some(&Residency::Resident(idx)) => idx,
        };
        if shard.frames[idx].pin.load(Ordering::Acquire) != 0 {
            return Err(StorageError::BufferPoolExhausted);
        }
        self.evict(shard, &mut map, idx, id)?;
        map.free.push(idx);
        Ok(())
    }

    /// Writes back every dirty page: drains the write-behind queue
    /// first (evicted pages must not land *after* resident ones — a
    /// queued stale write racing a fresh flush would clobber it), then
    /// synchronously flushes resident dirty frames. This is the
    /// durability barrier `persist`/`close`/drop build on, and it holds
    /// against concurrent readers: while the barrier is active,
    /// evictions of pages with no queued slot write synchronously (no
    /// new slot can slip in behind the drain), and the sweep chases
    /// loads that were in flight when it passed — a page re-faulted
    /// from the queue re-enters memory dirty, and the sweep must not
    /// miss it mid-publish.
    pub fn flush_all(&self) -> Result<()> {
        if let Some(wb) = &self.wb {
            wb.begin_barrier();
        }
        let result = self.flush_all_locked_out();
        if let Some(wb) = &self.wb {
            wb.end_barrier();
        }
        result
    }

    /// The body of [`BufferPool::flush_all`], run with the write-behind
    /// barrier held.
    fn flush_all_locked_out(&self) -> Result<()> {
        if let Some(wb) = &self.wb {
            wb.drain()?;
        }
        for shard in self.shards.iter() {
            let mut resident: Vec<(PageId, usize)> = Vec::new();
            let mut loading: Vec<(PageId, Arc<InFlight>)> = Vec::new();
            {
                let map = shard.map.lock();
                for (idx, res) in map.resident.iter().enumerate() {
                    if let Some(pid) = res {
                        resident.push((*pid, idx));
                    }
                }
                for (pid, entry) in map.table.iter() {
                    if let Residency::Loading(inflight) = entry {
                        loading.push((*pid, Arc::clone(inflight)));
                    }
                }
            }
            // Map lock dropped: latching a pinned frame below can block
            // behind an arbitrarily long page writer without stalling
            // every pin/unpin on the shard (the old sweep latched under
            // the map — the hazard CONCURRENCY.md used to carve out).
            for (pid, idx) in resident {
                self.flush_frame_revalidated(shard, idx, pid)?;
            }
            // A load serviced from the write-behind store cancels its
            // queue slot and publishes a *dirty* frame; if it was
            // mid-flight when the resident pass ran, neither the drain
            // nor the pass saw those bytes. Wait the loads out (store
            // serves are a memcpy; disk serves publish clean frames and
            // merely cost the wait) and flush whatever landed dirty.
            for (pid, inflight) in loading {
                inflight.await_resolved();
                let target = {
                    let map = shard.map.lock();
                    match map.table.get(&pid) {
                        Some(&Residency::Resident(idx)) => Some(idx),
                        _ => None,
                    }
                };
                if let Some(idx) = target {
                    self.flush_frame_revalidated(shard, idx, pid)?;
                }
            }
        }
        Ok(())
    }

    /// Flushes frame `idx` iff it is dirty *and still holds `pid`*,
    /// without holding the shard map across the frame latch. The read
    /// latch is taken first; residency is then re-checked under a
    /// non-blocking map probe, because between snapshotting `(pid, idx)`
    /// and latching, an eviction may have recycled the frame for
    /// another page. That race is benign for durability — the
    /// write-behind barrier is up, so a concurrent evictor writes the
    /// departing dirty page synchronously itself — but writing the
    /// frame's *new* tenant under the old `pid` would corrupt the disk,
    /// hence the revalidation.
    fn flush_frame_revalidated(&self, shard: &Shard, idx: usize, pid: PageId) -> Result<()> {
        let frame = &shard.frames[idx];
        if !frame.dirty.load(Ordering::Acquire) {
            return Ok(());
        }
        let guard = frame.data.read();
        {
            // rank-exempt: frame(65) -> map(60) residency probe; read-only
            // and never blocks a map-holder (see CONCURRENCY.md §frame/map
            // exemption — same shape as unpin's bounded publish step).
            let map = shard.map.lock_unordered();
            if map.resident[idx] != Some(pid) {
                return Ok(());
            }
        }
        // Residency re-confirmed while we hold the read latch: loaders
        // need the write latch to recycle this frame, so it stays `pid`'s
        // until `guard` drops. Same protocol as `write_back_if_dirty`.
        self.disk.write(pid, &guard)?;
        frame.dirty.store(false, Ordering::Release);
        shard.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Hit/miss/eviction/fault/write-behind counters, aggregated across
    /// shards.
    pub fn stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for s in self.shards.iter() {
            out.hits += s.stats.hits.load(Ordering::Relaxed);
            out.misses += s.stats.misses.load(Ordering::Relaxed);
            out.evictions += s.stats.evictions.load(Ordering::Relaxed);
            out.writebacks += s.stats.writebacks.load(Ordering::Relaxed);
            out.faults += s.stats.faults.load(Ordering::Relaxed);
            out.fault_joins += s.stats.fault_joins.load(Ordering::Relaxed);
            out.read_batches += s.stats.read_batches.load(Ordering::Relaxed);
            out.read_pages += s.stats.read_pages.load(Ordering::Relaxed);
        }
        if let Some(wb) = &self.wb {
            out.wb_enqueued = wb.enqueued.load(Ordering::Relaxed);
            out.wb_flushed = wb.flushed.load(Ordering::Relaxed);
            out.wb_sync_fallbacks = wb.sync_fallbacks.load(Ordering::Relaxed);
            out.wb_pending = wb.pending();
        }
        out
    }

    /// Zeroes the counters (the `wb_pending` gauge reflects live queue
    /// depth and is not a counter).
    pub fn reset_stats(&self) {
        for s in self.shards.iter() {
            s.stats.hits.store(0, Ordering::Relaxed);
            s.stats.misses.store(0, Ordering::Relaxed);
            s.stats.evictions.store(0, Ordering::Relaxed);
            s.stats.writebacks.store(0, Ordering::Relaxed);
            s.stats.faults.store(0, Ordering::Relaxed);
            s.stats.fault_joins.store(0, Ordering::Relaxed);
            s.stats.read_batches.store(0, Ordering::Relaxed);
            s.stats.read_pages.store(0, Ordering::Relaxed);
        }
        if let Some(wb) = &self.wb {
            wb.enqueued.store(0, Ordering::Relaxed);
            wb.flushed.store(0, Ordering::Relaxed);
            wb.sync_fallbacks.store(0, Ordering::Relaxed);
        }
    }
}

impl Drop for BufferPool {
    /// Drains the write-behind queue before the pool disappears:
    /// evicted-dirty pages were already written by eviction time under
    /// the old synchronous scheme, so write-behind must guarantee they
    /// reach the disk by drop at the latest. (Resident dirty frames are
    /// — as before — the caller's to flush via
    /// [`BufferPool::flush_all`].) Errors are swallowed; the
    /// error-visible barrier is `flush_all`.
    fn drop(&mut self) {
        let Some(wb) = &self.wb else { return };
        wb.shut_down();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        // The flusher drained everything flushable; give parked
        // failures one last synchronous attempt.
        wb.write_leftovers();
    }
}

/// Clamps a requested shard count so every shard keeps at least
/// [`MIN_FRAMES_PER_SHARD`] frames (never below one shard). This is the
/// one place the headroom policy lives — [`BufferPool::new`] applies it
/// to [`DEFAULT_POOL_SHARDS`], and `nbb-core`'s `DbConfig` applies it
/// to its `pool_shards` knob.
pub fn clamp_shards(capacity: usize, requested: usize) -> usize {
    requested.clamp(1, (capacity / MIN_FRAMES_PER_SHARD).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use parking_lot::{Condvar, Mutex};
    use std::sync::atomic::AtomicBool;

    pub(super) fn pool(cap: usize) -> (Arc<BufferPool>, Arc<InMemoryDisk>) {
        let disk = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, cap));
        (pool, disk)
    }

    /// A pool striped into exactly `shards` shards, other knobs default.
    pub(super) fn sharded(disk: Arc<dyn DiskManager>, cap: usize, shards: usize) -> BufferPool {
        BufferPool::with_pool_options(disk, cap, PoolOptions { shards, ..PoolOptions::default() })
    }

    #[test]
    fn read_your_writes() {
        let (pool, _) = pool(4);
        let id = pool.new_page().unwrap();
        pool.with_page_mut(id, |p| p.bytes_mut()[0] = 42).unwrap();
        let v = pool.with_page(id, |p| p.bytes()[0]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn dirty_pages_survive_eviction() {
        let (pool, _) = pool(2);
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 7).unwrap();
        // Evict `a` by touching other pages.
        for _ in 0..4 {
            let x = pool.new_page().unwrap();
            pool.with_page(x, |_| ()).unwrap();
        }
        assert!(!pool.contains(a));
        let v = pool.with_page(a, |p| p.bytes()[0]).unwrap();
        assert_eq!(v, 7, "dirty page must survive eviction (write-behind or disk)");
        assert!(pool.stats().writebacks >= 1);
    }

    #[test]
    fn cache_writes_are_lost_on_eviction() {
        // The paper's key semantics: non-dirtying writes vanish when the
        // frame is reclaimed, so index-cache stores never cost I/O.
        let (pool, _) = pool(2);
        let a = pool.new_page().unwrap();
        pool.with_page_cache_write(a, |p| p.bytes_mut()[0] = 99).unwrap().unwrap();
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 99);
        for _ in 0..4 {
            let x = pool.new_page().unwrap();
            pool.with_page(x, |_| ()).unwrap();
        }
        let v = pool.with_page(a, |p| p.bytes()[0]).unwrap();
        assert_eq!(v, 0, "non-dirty write must be dropped on eviction");
        assert_eq!(pool.stats().writebacks, 0);
    }

    #[test]
    fn mixed_dirty_then_cache_write_is_durable_for_dirty_part() {
        let (pool, _) = pool(2);
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 1).unwrap();
        pool.with_page_cache_write(a, |p| p.bytes_mut()[1] = 2).unwrap().unwrap();
        // Cache write happened after the dirtying write while still
        // resident, so it piggybacks on the dirty flag — both persist.
        // (This mirrors real systems: non-dirtying writes make no
        // guarantee either way; they only promise not to *add* I/O.)
        for _ in 0..4 {
            let x = pool.new_page().unwrap();
            pool.with_page(x, |_| ()).unwrap();
        }
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 1);
    }

    #[test]
    fn a_clean_writer_latch_is_lost_on_eviction() {
        let (pool, _) = pool(2);
        let a = pool.new_page().unwrap();
        pool.with_page_mut_clean(a, |p| p.bytes_mut()[0] = 5).unwrap();
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 5);
        pool.evict_page(a).unwrap();
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 0);
        assert_eq!(pool.stats().writebacks, 0, "it dirtied nothing");
    }

    #[test]
    fn writer_latches_restamp_and_every_load_starts_an_unmarked_residency() {
        let (pool, _) = pool(2);
        let a = pool.new_page().unwrap();
        let seen = |pool: &BufferPool| pool.with_page(a, |p| (p.stamp(), p.marked())).unwrap();
        let (s0, _) = seen(&pool);
        pool.with_page_cache_write(a, |p| p.mark()).unwrap().unwrap();
        assert_eq!(seen(&pool), (s0, true), "a try-latch cache write is no writer");
        pool.with_page_mut_clean(a, |_| ()).unwrap();
        let (s1, marked) = seen(&pool);
        assert!(s1 != s0 && marked, "a writer latch restamps and keeps the mark");
        pool.with_page_mut(a, |_| ()).unwrap();
        let (s2, marked) = seen(&pool);
        assert!(s2 != s1 && marked);
        // Dirty, so the eviction hands it to write-behind (or the disk),
        // and the reload is a new residency either way.
        pool.evict_page(a).unwrap();
        let (s3, marked) = seen(&pool);
        assert!(s3 != s2 && !marked, "a reload starts unmarked under a new stamp");
    }

    #[test]
    fn hit_and_miss_counters() {
        let (pool, _) = pool(2);
        let a = pool.new_page().unwrap();
        pool.with_page(a, |_| ()).unwrap(); // miss
        pool.with_page(a, |_| ()).unwrap(); // hit
        pool.with_page(a, |_| ()).unwrap(); // hit
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.faults, 1, "an uncontended miss is one started fault");
        assert_eq!(s.fault_joins, 0);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn evict_page_forces_out() {
        let (pool, _) = pool(4);
        let a = pool.new_page().unwrap();
        pool.with_page(a, |_| ()).unwrap();
        assert!(pool.contains(a));
        pool.evict_page(a).unwrap();
        assert!(!pool.contains(a));
        // evicting a non-resident page is a no-op
        pool.evict_page(a).unwrap();
    }

    #[test]
    fn pool_survives_working_set_larger_than_capacity() {
        let (pool, _) = pool(3);
        let ids: Vec<_> = (0..20).map(|_| pool.new_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.with_page_mut(*id, |p| p.bytes_mut()[0] = i as u8).unwrap();
        }
        for (i, id) in ids.iter().enumerate() {
            let v = pool.with_page(*id, |p| p.bytes()[0]).unwrap();
            assert_eq!(v, i as u8);
        }
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let (pool, disk) = pool(4);
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[5] = 55).unwrap();
        pool.flush_all().unwrap();
        let mut raw = Page::new(256);
        disk.read(a, &mut raw).unwrap();
        assert_eq!(raw.bytes()[5], 55);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let (pool, _) = pool(8);
        let ids: Vec<_> = (0..8).map(|_| pool.new_page().unwrap()).collect();
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let id = ids[(t * 3 + i) % ids.len()];
                    if i % 3 == 0 {
                        pool.with_page_mut(id, |p| p.bytes_mut()[t] = p.bytes()[t].wrapping_add(1))
                            .unwrap();
                    } else {
                        pool.with_page(id, |p| p.bytes()[t]).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn try_cache_write_gives_up_under_contention() {
        use std::sync::mpsc;
        let (pool, _) = pool(4);
        let id = pool.new_page().unwrap();
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let p2 = Arc::clone(&pool);
        let holder = std::thread::spawn(move || {
            p2.with_page_mut(id, |_| {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            })
            .unwrap();
        });
        started_rx.recv().unwrap();
        // Frame write-latch is held by the other thread: cache write skips.
        let r = pool.with_page_cache_write(id, |p| p.bytes_mut()[0] = 1).unwrap();
        assert!(r.is_none(), "cache write should give up under contention");
        release_tx.send(()).unwrap();
        holder.join().unwrap();
    }

    #[test]
    fn flush_all_sweep_does_not_hold_the_map_across_frame_latches() {
        // Regression for the CONCURRENCY.md sweep caveat: a flush
        // blocked behind a long page writer must not stall unrelated
        // pins on the same shard (the old sweep latched under the shard
        // map, so every pin/unpin queued behind the stuck writer).
        let disk = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(sharded(Arc::clone(&disk) as Arc<dyn DiskManager>, 4, 1));
        let a = pool.new_page().unwrap();
        let b = pool.new_page().unwrap();
        pool.with_page_mut(b, |p| p.bytes_mut()[0] = 7).unwrap();

        let gate = Arc::new((Mutex::new(true), Condvar::new()));
        let entered = Arc::new(AtomicBool::new(false));
        let writer = {
            let (pool, gate, entered) =
                (Arc::clone(&pool), Arc::clone(&gate), Arc::clone(&entered));
            std::thread::spawn(move || {
                pool.with_page_mut(a, |p| {
                    p.bytes_mut()[0] = 9;
                    entered.store(true, Ordering::Release);
                    let mut held = gate.0.lock();
                    while *held {
                        gate.1.wait(&mut held);
                    }
                })
                .unwrap();
            })
        };
        while !entered.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Frame `a` (snapshot order: index 0) is dirty and write-latched,
        // so the sweep parks on its read latch with the map *dropped*.
        let flusher = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.flush_all().unwrap())
        };
        // An unrelated pin on the same shard must still go through
        // while the sweep is parked.
        let pinned = Arc::new(AtomicBool::new(false));
        let pin_thread = {
            let (pool, pinned) = (Arc::clone(&pool), Arc::clone(&pinned));
            std::thread::spawn(move || {
                assert_eq!(pool.with_page(b, |p| p.bytes()[0]).unwrap(), 7);
                pinned.store(true, Ordering::Release);
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !pinned.load(Ordering::Acquire) {
            assert!(
                std::time::Instant::now() < deadline,
                "pin stalled behind the flush sweep: the map is being held across a frame latch"
            );
            std::thread::yield_now();
        }
        {
            let mut held = gate.0.lock();
            *held = false;
            gate.1.notify_all();
        }
        writer.join().unwrap();
        flusher.join().unwrap();
        pin_thread.join().unwrap();
        let mut buf = Page::new(256);
        disk.read(a, &mut buf).unwrap();
        assert_eq!(buf.bytes()[0], 9, "the sweep flushed the writer's bytes once it got the latch");
    }
}

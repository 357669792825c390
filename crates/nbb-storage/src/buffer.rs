//! Buffer pool: fixed set of frames over a [`DiskManager`], split into
//! lock-striped shards with per-shard clock eviction, an
//! I/O-in-progress **frame state machine** on the fault path,
//! **write-behind** eviction, and an optional **compressed frame tier**
//! that holds cold victims at a fraction of their raw size.
//!
//! # Frame state machine (overlapped faults, compressed demotions)
//!
//! A shard's residency table maps each page to `Resident` or `Loading`;
//! the pool-global compressed tier adds a third place a page's bytes
//! can live. Together:
//!
//! ```text
//!            miss: reserve frame,            load finishes:
//!            release shard lock              publish + wake waiters
//!   absent ────────────────────▶ Loading ────────────────────▶ Resident
//!      ▲                            │  ▲                          │
//!      │       load fails:          │  │ decompress fault:        │ evicted:
//!      │       free frame,          │  │ tier entry claimed,      │ demotion
//!      │       poison waiters       │  │ no disk read             │ enqueued
//!      │◀───────────────────────────┘  │                          ▼
//!      │                               └───────────────────── Compressed
//!      │◀─────────────────────────────────────────────────────────┘
//!                    budget eviction, or claimed by a fault
//! ```
//!
//! One implementation (`fault_batch`) runs this machine for every
//! fault: a point access that misses is a batch of one. The shard map
//! mutex is held only to *transition* between states, never across a
//! [`DiskManager::read_many`]. A miss installs a `Loading` entry,
//! reserves its frame (pinned, so the clock skips it), drops the shard
//! lock, performs the load, then re-locks to publish. The consequences,
//! which the concurrency benches measure:
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
//! ## Batch faults (`fault_many` / `prefetch`)
//!
//! For N pages at once, misses are grouped per shard, and each shard
//! group reserves its frames and installs all its `Loading` entries
//! under **one** map acquisition, drops the lock, then issues **one**
//! [`DiskManager::read_many`] for every page the write-behind store and
//! compressed tier couldn't serve — so a cold scan pays one device
//! round-trip per batch instead of one per page
//! ([`PoolStats::read_batches`] / [`PoolStats::read_pages`] meter the
//! coalescing; a point fault counts as a batch of one page). Every
//! guarantee above holds per page: concurrent requesters join the
//! individual `InFlight`s, and a failed page poisons only its own
//! entry (an error from a multi-page read falls back to per-page reads
//! so siblings still publish). Speculative batches (`prefetch`) publish
//! their frames *unpinned, unreferenced, and flagged*: a frame nobody
//! touched yet is the clock's first-choice victim, so speculation can
//! never evict the working set — it only ever spends frames that were
//! idle ([`PoolStats::prefetch_issued`]/`prefetch_hits`/
//! `prefetch_wasted` meter the speculation).
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
//! # Compressed frame tier
//!
//! With a nonzero `compressed_budget_bytes`, eviction stops discarding
//! cold-but-warm pages outright: after the victim's dirty bytes are
//! safe (write-behind copy or synchronous write — durability ordering
//! is untouched), the victim is **demoted**: its bytes are queued for a
//! background compressor thread, which encodes them with
//! [`nbb_encoding::pagecodec`] (frame-of-reference + bitpack with a
//! raw fallback when the ratio is poor) and admits the result to a
//! budget-bounded store. The same frame budget then effectively caches
//! budget ÷ ratio more pages. Three properties keep it off every hot
//! path:
//!
//! * **Reclaim never stalls.** Demotion is a page memcpy into a bounded
//!   queue; if the queue is full the page is simply evicted the old
//!   way. Compression itself runs on the `nbb-compressor` thread.
//! * **A decompress fault is a cheap load.** The fault path checks
//!   write-behind (newer bytes win), then the compressed tier, then the
//!   disk. A tier hit rides the *same* `Loading` state machine —
//!   co-waiters park and get pre-granted pins, a failed decompress
//!   poisons only its own waiters — but the "I/O" is an in-memory
//!   decode ([`PoolStats::compressed_hits`] /
//!   [`PoolStats::decompress_stalls`] meter it).
//! * **Entries are always redundant.** A page is only demoted after its
//!   bytes are clean (on disk or in the write-behind queue), and any
//!   load publishing the page invalidates its tier entry and any
//!   pending demotion job. A corrupt or evicted entry therefore costs a
//!   disk read, never data. Budget overruns evict the oldest entries
//!   ([`PoolStats::compressed_evictions`]).
//!
//! `compressed_budget_bytes = 0` (the default everywhere) disables the
//! tier, the compressor thread, and every new code path — eviction
//! behaves bit-for-bit as before.
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
//!
//! # Sharding
//!
//! The pool is partitioned into `shards` independent stripes, each with
//! its own frame table, free list, clock hand, and statistics. A page id
//! maps to exactly one shard (`page_id % shards`), so concurrent
//! accesses to distinct pages contend only when they collide on a
//! stripe. Frames are divided as evenly as possible across shards, and a
//! shard can only evict among its own frames. [`BufferPool::new`]
//! therefore caps the default shard count so each shard keeps at least
//! [`MIN_FRAMES_PER_SHARD`] frames; [`BufferPool::with_pool_options`]
//! gives callers exact control.
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

use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::lockrank;
use crate::page::{Page, PageId};
use crate::stats::PoolStats;
use nbb_encoding::pagecodec;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default shard count for pools large enough to support it.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// Minimum frames per shard before [`BufferPool::new`] reduces the
/// default shard count. Keeps clock eviction meaningful (a one-frame
/// shard degenerates to direct replacement) and leaves headroom for
/// nested pins of pages that happen to collide on a shard.
pub const MIN_FRAMES_PER_SHARD: usize = 16;

/// Default write-behind queue depth (evicted-but-unflushed pages the
/// pool will buffer before eviction falls back to synchronous writes).
pub const DEFAULT_WRITE_BEHIND: usize = 64;

/// Queue slots the background flusher claims per drain pass; the batch
/// rides one [`DiskManager::write_many`] call, so disks with a bulk
/// path pay one round-trip for up to this many pages.
const WB_DRAIN_BATCH: usize = 16;

/// Demotions the compressed tier will queue ahead of its compressor
/// thread. A full queue turns further demotions into plain evictions
/// (the tier trades hit rate, never reclaim latency).
const CT_QUEUE_DEPTH: usize = 64;

struct Frame {
    data: RwLock<Page>,
    pin: AtomicU32,
    dirty: AtomicBool,
    refbit: AtomicBool,
    /// Published by a speculative [`BufferPool::prefetch`] and not yet
    /// touched by any requester. Such frames are the clock's
    /// first-choice victims; the flag is cleared (under the shard map
    /// lock) on the first demand access, which is also when
    /// `prefetch_hits` counts the speculation as paid off.
    prefetched: AtomicBool,
}

/// One page's state of an in-flight load, parked on by co-waiters.
struct InFlight {
    state: Mutex<LoadState>,
    cv: Condvar,
    /// Waiters that joined this load and were promised a pin. Only
    /// mutated under the shard map lock; final once the `Loading` entry
    /// leaves the table, which is when the loader reads it.
    joiners: AtomicU32,
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
    fn resolve(&self, outcome: std::result::Result<Arc<Frame>, StorageError>) {
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
    fn await_resolved(&self) {
        let mut st = self.state.lock();
        while matches!(*st, LoadState::Pending) {
            self.cv.wait(&mut st);
        }
    }
}

/// Unwind insurance for the loader, covering every `Loading` entry a
/// fault reserved: a `DiskManager` implementation that panics
/// mid-`read_many` must not strand those entries and their reserved
/// (pinned, clock-invisible) frames — that would hang every future
/// requester of the pages forever. Entries are cleared once the batch
/// publishes; while any remain, dropping this guard frees their frames
/// and poisons their waiters exactly like a failed read.
struct BatchAbortGuard<'a> {
    shards: &'a [Shard],
    /// `(page, shard index, frame index, its Loading entry)`, grouped
    /// contiguously by shard in ascending order (reservation order).
    entries: Vec<(PageId, usize, usize, Arc<InFlight>)>,
}

impl Drop for BatchAbortGuard<'_> {
    fn drop(&mut self) {
        if self.entries.is_empty() {
            return;
        }
        let mut k = 0;
        while k < self.entries.len() {
            let si = self.entries[k].1;
            let shard = &self.shards[si];
            // rank-exempt: unwinds out of a (possibly nested) fault,
            // so the caller may still hold outer frame latches; see
            // `pin`. One shard map at a time, ascending.
            let mut map = shard.map.lock_unordered();
            while k < self.entries.len() && self.entries[k].1 == si {
                let (id, _, idx, _) = &self.entries[k];
                let frame = &shard.frames[*idx];
                frame.dirty.store(false, Ordering::Release);
                frame.pin.store(0, Ordering::Release);
                frame.prefetched.store(false, Ordering::Relaxed);
                map.table.remove(id);
                map.free.push(*idx);
                k += 1;
            }
        }
        for (id, _, _, inflight) in &self.entries {
            inflight.resolve(Err(StorageError::Io(format!(
                "page {id} load panicked in DiskManager::read_many"
            ))));
        }
    }
}

/// Per-position outcome of one `BufferPool::fault_batch` call.
enum BatchSlot {
    /// Demand-faulted (or joined mid-flight) and pinned for the caller;
    /// the caller owes one `unpin`.
    Pinned(Arc<Frame>),
    /// This page's load failed. Sibling pages in the batch are
    /// unaffected — each slot carries its own verdict.
    Failed(StorageError),
    /// Nothing was done for this page: the shard had no victim to
    /// reserve (demand callers retry it alone through `pin`, which
    /// reports `BufferPoolExhausted` if it still cannot), or the page
    /// was already resident/loading in a speculative batch.
    Skipped,
}

/// A published batch entry's `InFlight` and its outcome, resolved after
/// the shard map drops.
type Resolution = (Arc<InFlight>, std::result::Result<Arc<Frame>, StorageError>);

enum LoadState {
    Pending,
    Ready(Arc<Frame>),
    Failed(StorageError),
}

/// Residency of one page within its shard.
enum Residency {
    /// Loaded into the local frame at this index.
    Resident(usize),
    /// A load is in flight; requesters park here instead of re-reading.
    Loading(Arc<InFlight>),
}

/// Mutable residency state of one shard, behind the shard's mutex.
struct ShardMap {
    /// page id -> residency state
    table: HashMap<PageId, Residency>,
    /// local frame index -> published page (None = free or loading)
    resident: Vec<Option<PageId>>,
    /// Stack of free local frame indexes (avoids O(n) scans on miss).
    free: Vec<usize>,
    clock_hand: usize,
}

/// Per-shard counters. Relaxed atomics on their own cache line so the
/// hot path never contends with stats collection or a neighbor shard.
#[repr(align(64))]
#[derive(Default)]
struct ShardStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    faults: AtomicU64,
    fault_joins: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
    read_batches: AtomicU64,
    read_pages: AtomicU64,
}

struct Shard {
    frames: Vec<Arc<Frame>>,
    map: Mutex<ShardMap>,
    stats: ShardStats,
}

// ---------------------------------------------------------------------
// Write-behind
// ---------------------------------------------------------------------

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
struct WriteBehind {
    disk: Arc<dyn DiskManager>,
    state: Mutex<WbState>,
    /// Signals the flusher thread that work (or shutdown) arrived.
    work_cv: Condvar,
    /// Signals drainers that an in-flight write completed.
    done_cv: Condvar,
    capacity: usize,
    enqueued: AtomicU64,
    flushed: AtomicU64,
    /// Dirty evictions that bypassed the queue for a synchronous write
    /// (queue full or barrier active); see
    /// [`crate::stats::PoolStats::wb_sync_fallbacks`].
    sync_fallbacks: AtomicU64,
}

/// A claimed flush job: these bytes of this generation, written outside
/// the lock.
type WbJob = (PageId, Page, u64);

impl WriteBehind {
    fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Self {
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
    fn enqueue(&self, pid: PageId, page: &Page) -> Result<()> {
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
    fn begin_barrier(&self) {
        self.state.lock().barriers += 1;
    }

    /// Leaves a flush barrier.
    fn end_barrier(&self) {
        self.state.lock().barriers -= 1;
    }

    /// Serves a fault from the store: copies the queued (newer-than-disk)
    /// bytes into `dst` and cancels the pending write when possible —
    /// the re-loaded frame re-enters memory dirty and becomes the single
    /// authority for these bytes. Returns false when the page has no
    /// queued bytes (fault must read the disk).
    fn serve_fault(&self, pid: PageId, dst: &mut Page) -> bool {
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

    /// Claims the next flushable job, marking its slot in-flight. The
    /// clone under the lock is deliberate: the slot must keep its bytes
    /// visible for [`WriteBehind::serve_fault`] while the writer needs
    /// a copy a concurrent supersede cannot swap out from under it —
    /// and unlike `enqueue`, only flusher-side consumers pay it.
    fn pop_job(st: &mut WbState) -> Option<WbJob> {
        while let Some(pid) = st.order.pop_front() {
            if let Some(slot) = st.slots.get_mut(&pid) {
                if slot.flushing.is_none() && !slot.failed {
                    slot.flushing = Some(slot.gen);
                    return Some((pid, slot.page.clone(), slot.gen));
                }
            }
        }
        None
    }

    /// Claims up to `max` flushable jobs in queue order (each slot
    /// marked in-flight, so page ids within the batch are distinct and
    /// no other consumer can double-write them). The background flusher
    /// drains through this so one [`DiskManager::write_many`] call
    /// amortizes device round-trips across the whole claim.
    fn pop_jobs(st: &mut WbState, max: usize) -> Vec<WbJob> {
        let mut jobs = Vec::new();
        while jobs.len() < max {
            match Self::pop_job(st) {
                Some(job) => jobs.push(job),
                None => break,
            }
        }
        jobs
    }

    /// Writes a claimed job with unwind insurance: a `DiskManager`
    /// implementation that panics mid-`write` must not leave the slot
    /// marked `flushing` forever — `drain` waits on exactly that marker
    /// and would hang every future `flush_all`. On unwind the slot is
    /// parked as failed (bytes kept) and drainers are woken; the next
    /// `flush_all` retries it and surfaces whatever happens then.
    fn write_job(&self, pid: PageId, page: &Page) -> Result<()> {
        struct Unwedge<'a> {
            wb: &'a WriteBehind,
            pid: PageId,
            armed: bool,
        }
        impl Drop for Unwedge<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut st = self.wb.state.lock();
                if let Some(slot) = st.slots.get_mut(&self.pid) {
                    slot.flushing = None;
                    slot.failed = true;
                }
                drop(st);
                self.wb.done_cv.notify_all();
            }
        }
        let mut guard = Unwedge { wb: self, pid, armed: true };
        let res = self.disk.write(pid, page);
        guard.armed = false;
        res
    }

    /// Writes a claimed batch through [`DiskManager::write_many`], with
    /// the same unwind insurance as [`WriteBehind::write_job`] extended
    /// to every slot in the batch: a panicking disk parks each claimed
    /// slot as failed (bytes kept) and wakes drainers, so no
    /// `flushing` marker is ever stranded. On a batch-level error the
    /// caller fails every job the same way — the disk makes no claim
    /// about which pages landed, and re-flushing a page that did land
    /// is idempotent (`complete` with the slot's claimed gen retries or
    /// retires each correctly).
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
    fn run(wb: Arc<WriteBehind>) {
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
    /// waiting on it. Parked-as-failed slots get one synchronous retry;
    /// the first persistent failure aborts with its error (bytes stay
    /// queued, so a later drain can succeed).
    fn drain(&self) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            if let Some((pid, page, gen)) = Self::pop_job(&mut st) {
                drop(st);
                let res = self.write_job(pid, &page);
                st = self.state.lock();
                self.complete(&mut st, pid, gen, res);
                continue;
            }
            if st.slots.values().any(|s| s.flushing.is_some()) {
                self.done_cv.wait(&mut st);
                continue;
            }
            // Only parked failures remain. Retry them here so flush_all
            // keeps the old contract: error out but lose nothing.
            let Some(pid) = st.slots.keys().next().copied() else { return Ok(()) };
            // nbb-lint: allow(unwrap, key taken from the map one line up, lock still held)
            let slot = st.slots.get_mut(&pid).expect("key just observed");
            let (page, gen) = (slot.page.clone(), slot.gen);
            slot.flushing = Some(gen);
            slot.failed = false;
            drop(st);
            let res = self.write_job(pid, &page);
            st = self.state.lock();
            let err = res.as_ref().err().cloned();
            self.complete(&mut st, pid, gen, res);
            if let Some(e) = err {
                return Err(e);
            }
        }
    }

    /// Queue depth right now.
    fn pending(&self) -> u64 {
        self.state.lock().slots.len() as u64
    }
}

// ---------------------------------------------------------------------
// Compressed frame tier
// ---------------------------------------------------------------------

/// A pending demotion: these bytes of this page, claimed by the
/// compressor under this job token.
type CtJob = (PageId, Page, u64);

/// Mutable state of the compressed tier, behind its mutex.
struct CtState {
    /// Admitted entries: page id → encoded bytes.
    entries: HashMap<PageId, Vec<u8>>,
    /// Admission order; budget eviction pops the oldest. May hold stale
    /// ids (entries since claimed or invalidated), which are skipped.
    order: VecDeque<PageId>,
    /// Stored bytes across `entries` (the budget meters encoded size).
    bytes: usize,
    /// Live demotion jobs: page id → token. A token survives from
    /// enqueue until the compressor finishes; a load publishing the
    /// page removes it, which cancels the job's admission (the frame's
    /// bytes are newer than the snapshot the job carries).
    jobs: HashMap<PageId, u64>,
    /// Demotions awaiting the compressor, oldest first.
    queue: VecDeque<CtJob>,
    next_token: u64,
    /// Jobs popped from `queue` and being encoded right now.
    inflight: usize,
    shutdown: bool,
    /// Test hook: while held, the compressor parks and decompress
    /// serves block (see [`BufferPool::set_compression_gate`]).
    gate_held: bool,
}

/// Bounded store of compressed cold pages plus the background
/// compressor protocol. Lock order: shard map lock → tier lock (same
/// rank as the write-behind lock; the two are never nested).
struct CompressedTier {
    state: Mutex<CtState>,
    /// Signals the compressor that work, shutdown, or a gate release
    /// arrived (decompress serves waiting out the gate park here too).
    work_cv: Condvar,
    /// Signals drainers that a job completed.
    done_cv: Condvar,
    /// Stored-bytes bound for `entries`. Atomic so the tuner can resize
    /// it at runtime ([`CompressedTier::set_budget`]); `admit` reads it
    /// once per admission.
    budget: AtomicUsize,
    hits: AtomicU64,
    evictions: AtomicU64,
    stalls: AtomicU64,
    ratio_num: AtomicU64,
    ratio_den: AtomicU64,
}

impl CompressedTier {
    fn new(budget: usize) -> Self {
        CompressedTier {
            state: Mutex::with_rank(
                lockrank::POOL_COMPRESSED_TIER,
                CtState {
                    entries: HashMap::new(),
                    order: VecDeque::new(),
                    bytes: 0,
                    jobs: HashMap::new(),
                    queue: VecDeque::new(),
                    next_token: 0,
                    inflight: 0,
                    shutdown: false,
                    gate_held: false,
                },
            ),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            budget: AtomicUsize::new(budget),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            ratio_num: AtomicU64::new(0),
            ratio_den: AtomicU64::new(0),
        }
    }

    /// Hands an evicted (already clean) page to the compressor. Never
    /// blocks: a full queue means the demotion is simply skipped and
    /// the eviction proceeds as if the tier did not exist. Called with
    /// the victim's shard map lock held; `page` is cloned by the caller
    /// before this lock for the same reason `WriteBehind::enqueue`
    /// clones early.
    fn enqueue_demotion(&self, pid: PageId, page: Page) {
        let mut st = self.state.lock();
        if st.shutdown || st.queue.len() >= CT_QUEUE_DEPTH {
            return;
        }
        // A page is demoted only while resident, and becoming resident
        // invalidated any older entry or job for it (see
        // `invalidate`), so this insert never collides.
        debug_assert!(!st.jobs.contains_key(&pid) && !st.entries.contains_key(&pid));
        let token = st.next_token;
        st.next_token += 1;
        st.jobs.insert(pid, token);
        st.queue.push_back((pid, page, token));
        self.work_cv.notify_one();
    }

    /// Claims the stored bytes for `pid`, removing the entry — the
    /// caller is about to publish the page resident, which supersedes
    /// it. Returns `None` when the tier holds nothing for the page.
    /// Blocks while the test gate is held (the caller sits in its
    /// `Loading` entry, so co-requesters park rather than spin).
    fn claim(&self, pid: PageId) -> Option<Vec<u8>> {
        let mut st = self.state.lock();
        // The gate only blocks serves the tier would actually answer;
        // a fault for a page the tier does not hold proceeds to the
        // disk unhindered even while the gate is held.
        while st.gate_held && st.entries.contains_key(&pid) {
            self.work_cv.wait(&mut st);
        }
        let enc = st.entries.remove(&pid)?;
        st.bytes -= enc.len();
        Some(enc)
    }

    /// Drops any stored entry and cancels any pending demotion job for
    /// `pid`. Every load calls this at publish time: the resident frame
    /// is now the authority, and a job queued before the page's last
    /// absence would admit stale bytes.
    fn invalidate(&self, pid: PageId) {
        let mut st = self.state.lock();
        if let Some(enc) = st.entries.remove(&pid) {
            st.bytes -= enc.len();
        }
        st.jobs.remove(&pid);
    }

    /// Admits a finished encoding, evicting oldest entries until it
    /// fits the budget. Called by the compressor with the state lock
    /// held and the job's token already validated and retired.
    fn admit(&self, st: &mut CtState, pid: PageId, raw_len: usize, enc: Vec<u8>) {
        let budget = self.budget.load(Ordering::Relaxed);
        if enc.len() > budget {
            return;
        }
        while st.bytes + enc.len() > budget {
            let Some(old) = st.order.pop_front() else { break };
            if let Some(gone) = st.entries.remove(&old) {
                st.bytes -= gone.len();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.ratio_num.fetch_add(raw_len as u64, Ordering::Relaxed);
        self.ratio_den.fetch_add(enc.len() as u64, Ordering::Relaxed);
        st.bytes += enc.len();
        st.entries.insert(pid, enc);
        st.order.push_back(pid);
    }

    /// The compressor thread: pops demotions, encodes them off-lock,
    /// and admits results whose job token is still live. Parks when
    /// idle or while the test gate is held; exits on shutdown.
    fn run(ct: Arc<CompressedTier>) {
        let mut st = ct.state.lock();
        loop {
            if st.gate_held && !st.shutdown {
                ct.work_cv.wait(&mut st);
                continue;
            }
            if let Some((pid, page, token)) = st.queue.pop_front() {
                st.inflight += 1;
                drop(st);
                let enc = pagecodec::compress(page.bytes());
                st = ct.state.lock();
                if st.jobs.get(&pid) == Some(&token) {
                    st.jobs.remove(&pid);
                    ct.admit(&mut st, pid, page.bytes().len(), enc);
                }
                st.inflight -= 1;
                ct.done_cv.notify_all();
                continue;
            }
            if st.shutdown {
                return;
            }
            ct.work_cv.wait(&mut st);
        }
    }

    /// Waits until every queued and in-flight demotion has been
    /// processed. `flush_all` runs this so a barrier leaves no
    /// compression limbo behind (deterministic for tests; the entries
    /// themselves are cache, not durability state). Waits forever if
    /// the test gate is held — release the gate first.
    fn drain(&self) {
        let mut st = self.state.lock();
        while !st.queue.is_empty() || st.inflight > 0 {
            self.done_cv.wait(&mut st);
        }
    }

    /// Resizes the stored-bytes budget at runtime (the tuner's resize
    /// hook). Shrinking evicts oldest entries until the store fits;
    /// growing takes effect at the next admission. Entries are cache,
    /// never durability state, so eviction here is always safe.
    fn set_budget(&self, bytes: usize) {
        self.budget.store(bytes, Ordering::Relaxed);
        let mut st = self.state.lock();
        while st.bytes > bytes {
            let Some(old) = st.order.pop_front() else { break };
            if let Some(gone) = st.entries.remove(&old) {
                st.bytes -= gone.len();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Gauges: entries held and stored bytes right now.
    fn occupancy(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.entries.len() as u64, st.bytes as u64)
    }
}

/// Fixed-capacity page cache over a shared disk, striped into shards,
/// with overlapped faults, write-behind eviction, and an optional
/// compressed frame tier.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    shards: Box<[Shard]>,
    wb: Option<Arc<WriteBehind>>,
    flushers: Vec<std::thread::JoinHandle<()>>,
    ct: Option<Arc<CompressedTier>>,
    compressor: Option<std::thread::JoinHandle<()>>,
}

/// Construction knobs for [`BufferPool::with_pool_options`]. `Default`
/// reproduces [`BufferPool::new`]'s behavior except for the shard clamp
/// (callers of `new` get [`clamp_shards`] applied first).
#[derive(Clone, Debug)]
pub struct PoolOptions {
    /// Lock-striped shard count, clamped to `[1, capacity]`.
    pub shards: usize,
    /// Write-behind queue depth; 0 disables the queue and its flusher
    /// threads — every dirty eviction pays a synchronous
    /// [`DiskManager::write`], the pre-write-behind behavior, which
    /// benches use as the baseline.
    pub write_behind: usize,
    /// Number of write-behind drainer threads (min 1 when the queue is
    /// enabled). Per-page ordering is held by the gen-stamped
    /// `flushing` claim in [`WbSlot`], so drainers never race on a
    /// page: `pop_jobs` hands each slot to exactly one thread.
    pub flusher_threads: usize,
    /// Bound on the *stored* (encoded) bytes the compressed frame tier
    /// may hold; 0 disables the tier and its compressor thread.
    pub compressed_budget_bytes: usize,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            shards: DEFAULT_POOL_SHARDS,
            write_behind: DEFAULT_WRITE_BEHIND,
            flusher_threads: 1,
            compressed_budget_bytes: 0,
        }
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
    /// a shard only evicts among its own frames), write-behind queue
    /// depth and drainer count, and compressed-tier budget — see
    /// [`PoolOptions`].
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_pool_options(
        disk: Arc<dyn DiskManager>,
        capacity: usize,
        opts: PoolOptions,
    ) -> Self {
        let PoolOptions { shards, write_behind, flusher_threads, compressed_budget_bytes } = opts;
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let nshards = shards.clamp(1, capacity);
        let page_size = disk.page_size();
        let shards = (0..nshards)
            .map(|i| {
                let n = capacity / nshards + usize::from(i < capacity % nshards);
                let frames = (0..n)
                    .map(|_| {
                        Arc::new(Frame {
                            data: RwLock::with_rank(lockrank::POOL_FRAME, Page::new(page_size)),
                            pin: AtomicU32::new(0),
                            dirty: AtomicBool::new(false),
                            refbit: AtomicBool::new(false),
                            prefetched: AtomicBool::new(false),
                        })
                    })
                    .collect();
                Shard {
                    frames,
                    map: Mutex::with_rank(
                        lockrank::POOL_SHARD_MAP,
                        ShardMap {
                            table: HashMap::new(),
                            resident: vec![None; n],
                            // Pop order: lowest index first, matching the old
                            // pool's first-free-frame scan.
                            free: (0..n).rev().collect(),
                            clock_hand: 0,
                        },
                    ),
                    stats: ShardStats::default(),
                }
            })
            .collect();
        let wb =
            (write_behind > 0).then(|| Arc::new(WriteBehind::new(Arc::clone(&disk), write_behind)));
        let flushers = match &wb {
            Some(wb) => (0..flusher_threads.max(1))
                .map(|i| {
                    let wb = Arc::clone(wb);
                    std::thread::Builder::new()
                        .name(format!("nbb-wb-flusher-{i}"))
                        .spawn(move || WriteBehind::run(wb))
                        // nbb-lint: allow(unwrap, thread spawn at pool construction; OS exhaustion is fatal)
                        .expect("spawn write-behind flusher")
                })
                .collect(),
            None => Vec::new(),
        };
        let ct = (compressed_budget_bytes > 0)
            .then(|| Arc::new(CompressedTier::new(compressed_budget_bytes)));
        let compressor = ct.as_ref().map(|ct| {
            let ct = Arc::clone(ct);
            std::thread::Builder::new()
                .name("nbb-compressor".into())
                .spawn(move || CompressedTier::run(ct))
                // nbb-lint: allow(unwrap, thread spawn at pool construction; OS exhaustion is fatal)
                .expect("spawn compressor")
        });
        BufferPool { disk, shards, wb, flushers, ct, compressor }
    }

    /// Shard owning `id`.
    #[inline]
    fn shard_of(&self, id: PageId) -> &Shard {
        &self.shards[(id.0 % self.shards.len() as u64) as usize]
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

    /// Number of write-behind drainer threads (0 when the queue is
    /// disabled).
    pub fn flusher_threads(&self) -> usize {
        self.flushers.len()
    }

    /// Configured compressed-tier budget in stored bytes (0 = the tier
    /// is disabled and evicted pages are simply dropped).
    pub fn compressed_budget(&self) -> usize {
        self.ct.as_ref().map_or(0, |ct| ct.budget.load(Ordering::Relaxed))
    }

    /// Resizes the compressed tier's stored-bytes budget at runtime
    /// (the tuner's resize hook). Shrinking evicts oldest entries until
    /// the store fits. Returns `false` when the tier is disabled —
    /// whether the tier (and its compressor thread) exists is fixed at
    /// construction; this only moves the byte bound.
    pub fn set_compressed_budget(&self, bytes: usize) -> bool {
        match &self.ct {
            Some(ct) => {
                ct.set_budget(bytes);
                true
            }
            None => false,
        }
    }

    /// Test hook: while `held`, the compressor thread parks and faults
    /// served from the compressed tier block before decompressing —
    /// used by tests and harnesses to observe demotions queue up or to
    /// pile co-requesters onto one in-flight decompress fault. Release
    /// the gate before calling [`BufferPool::flush_all`] (its drain
    /// waits for the compressor). No-op when the tier is disabled.
    pub fn set_compression_gate(&self, held: bool) {
        let Some(ct) = &self.ct else { return };
        let mut st = ct.state.lock();
        st.gate_held = held;
        drop(st);
        if !held {
            ct.work_cv.notify_all();
        }
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

    /// Runs `f` with exclusive access to page `id`, marking the frame dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        let frame = self.pin(id)?;
        let out = {
            let mut guard = frame.data.write();
            frame.dirty.store(true, Ordering::Release);
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
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, id) in ids.iter().enumerate() {
            by_shard[(id.0 % self.shards.len() as u64) as usize].push(i);
        }
        let mut out: Vec<Option<R>> = ids.iter().map(|_| None).collect();
        // Misses from every shard, deferred past the hit pass so a
        // cross-shard group still coalesces into one device round trip
        // per chunk (the per-shard loop below only pins residents).
        let mut missed: Vec<usize> = Vec::new();
        for (si, group) in by_shard.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &self.shards[si];
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
                    for &i in part {
                        if let Some(&Residency::Resident(idx)) = map.table.get(&ids[i]) {
                            let frame = &shard.frames[idx];
                            Self::touch_resident(shard, frame);
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
            let mut first_err: Option<StorageError> = None;
            for (slot, &i) in self.fault_batch(&part_ids, false).into_iter().zip(part) {
                match slot {
                    BatchSlot::Pinned(frame) => {
                        // Keep draining pins after an error so no
                        // sibling frame leaks a pin count.
                        if first_err.is_none() {
                            out[i] = Some(f(i, &frame.data.read()));
                        }
                        Self::unpin(&frame);
                    }
                    BatchSlot::Failed(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                    BatchSlot::Skipped => {
                        if first_err.is_none() {
                            match self.pin(ids[i]) {
                                Ok(frame) => {
                                    out[i] = Some(f(i, &frame.data.read()));
                                    Self::unpin(&frame);
                                }
                                Err(e) => first_err = Some(e),
                            }
                        }
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        // nbb-lint: allow(unwrap, the hit and miss passes cover every index)
        Ok(out.into_iter().map(|r| r.expect("every id visited")).collect())
    }

    /// Chunk bound for pool-level batch faults: even if every id in a
    /// chunk lands in the same shard, the group never pins more than
    /// half that shard's frames at once (N point calls hold at most one
    /// pin each; the bound keeps the batch within what any shard can
    /// always absorb).
    fn batch_chunk(&self) -> usize {
        let min = self.shards.iter().map(|s| s.frames.len()).min().unwrap_or(1);
        (min / 2).max(1)
    }

    /// Demand-faults every page in `ids` in batched groups — the
    /// eager form of [`BufferPool::with_page_batch`] for callers that
    /// want residency, not bytes. Each bounded chunk reserves its
    /// misses per shard (ascending order, one map acquisition each)
    /// and rides **one** [`DiskManager::read_many`] spanning the whole
    /// chunk, so adjacent ids coalesce even though they stripe across
    /// shards. Pages land resident, referenced, and unpinned. Returns
    /// the first per-page error (remaining pages are still faulted —
    /// per-page independence, as everywhere in the batch path).
    pub fn fault_many(&self, ids: &[PageId]) -> Result<()> {
        let mut first_err: Option<StorageError> = None;
        for part in ids.chunks(self.batch_chunk()) {
            for (slot, id) in self.fault_batch(part, false).into_iter().zip(part) {
                match slot {
                    BatchSlot::Pinned(frame) => Self::unpin(&frame),
                    BatchSlot::Failed(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                    BatchSlot::Skipped => match self.pin(*id) {
                        Ok(frame) => Self::unpin(&frame),
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    },
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Speculatively loads `ids` into spare frames. No engine path
    /// calls it today (range cursors fault the leaves they are sure to
    /// need with [`BufferPool::fault_many`]). Best-effort and silent:
    /// pages already resident, already loading, unreservable, or
    /// failing their read are simply skipped (the caller demand-faults
    /// them as usual). Loaded frames are published unpinned, unreferenced, and
    /// flagged `prefetched`, making them the clock's **first-choice
    /// victims**: speculation can never push out the demand-paged
    /// working set. Counters: `prefetch_issued` now, `prefetch_hits` /
    /// `prefetch_wasted` when each page's verdict lands.
    pub fn prefetch(&self, ids: &[PageId]) {
        for part in ids.chunks(self.batch_chunk()) {
            let _ = self.fault_batch(part, true);
        }
    }

    /// Runs `f` with exclusive access *without* dirtying the frame, and
    /// only if the frame latch is immediately available.
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
    /// dirty).
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
        let frame = &shard.frames[idx];
        if frame.pin.load(Ordering::Acquire) != 0 {
            return Err(StorageError::BufferPoolExhausted);
        }
        self.retire_victim(shard, frame, id)?;
        self.demote_victim(frame, id);
        Self::settle_evicted(shard, frame);
        map.table.remove(&id);
        map.resident[idx] = None;
        map.free.push(idx);
        shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
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
        if let Some(ct) = &self.ct {
            // Nothing here is durability state (entries are redundant
            // with the disk/queue by construction), but the barrier
            // promises a quiesced pool: no compression limbo survives
            // it, so post-flush observers see settled tier gauges.
            ct.drain();
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
            out.prefetch_issued += s.stats.prefetch_issued.load(Ordering::Relaxed);
            out.prefetch_hits += s.stats.prefetch_hits.load(Ordering::Relaxed);
            out.prefetch_wasted += s.stats.prefetch_wasted.load(Ordering::Relaxed);
            out.read_batches += s.stats.read_batches.load(Ordering::Relaxed);
            out.read_pages += s.stats.read_pages.load(Ordering::Relaxed);
        }
        if let Some(wb) = &self.wb {
            out.wb_enqueued = wb.enqueued.load(Ordering::Relaxed);
            out.wb_flushed = wb.flushed.load(Ordering::Relaxed);
            out.wb_sync_fallbacks = wb.sync_fallbacks.load(Ordering::Relaxed);
            out.wb_pending = wb.pending();
        }
        if let Some(ct) = &self.ct {
            out.compressed_hits = ct.hits.load(Ordering::Relaxed);
            out.compressed_evictions = ct.evictions.load(Ordering::Relaxed);
            out.decompress_stalls = ct.stalls.load(Ordering::Relaxed);
            out.compressed_ratio_num = ct.ratio_num.load(Ordering::Relaxed);
            out.compressed_ratio_den = ct.ratio_den.load(Ordering::Relaxed);
            let (pages, bytes) = ct.occupancy();
            out.compressed_pages = pages;
            out.compressed_bytes = bytes;
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
            s.stats.prefetch_issued.store(0, Ordering::Relaxed);
            s.stats.prefetch_hits.store(0, Ordering::Relaxed);
            s.stats.prefetch_wasted.store(0, Ordering::Relaxed);
            s.stats.read_batches.store(0, Ordering::Relaxed);
            s.stats.read_pages.store(0, Ordering::Relaxed);
        }
        if let Some(wb) = &self.wb {
            wb.enqueued.store(0, Ordering::Relaxed);
            wb.flushed.store(0, Ordering::Relaxed);
            wb.sync_fallbacks.store(0, Ordering::Relaxed);
        }
        if let Some(ct) = &self.ct {
            ct.hits.store(0, Ordering::Relaxed);
            ct.evictions.store(0, Ordering::Relaxed);
            ct.stalls.store(0, Ordering::Relaxed);
            ct.ratio_num.store(0, Ordering::Relaxed);
            ct.ratio_den.store(0, Ordering::Relaxed);
        }
    }

    /// Takes a dirty victim off the eviction path: enqueues its bytes to
    /// write-behind (a memcpy) instead of a synchronous device write.
    /// Falls back to the synchronous write when write-behind is disabled
    /// or full. On error the victim stays dirty and resident.
    fn retire_victim(&self, shard: &Shard, frame: &Frame, pid: PageId) -> Result<()> {
        if !frame.dirty.load(Ordering::Acquire) {
            return Ok(());
        }
        let guard = frame.data.read();
        match &self.wb {
            Some(wb) => wb.enqueue(pid, &guard)?,
            None => self.disk.write(pid, &guard)?,
        }
        frame.dirty.store(false, Ordering::Release);
        shard.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Offers a just-retired (clean) victim to the compressed tier.
    /// Runs strictly after [`BufferPool::retire_victim`], so a dirty
    /// victim's bytes are already on disk or in the write-behind queue
    /// — the tier entry is pure cache and durability ordering is
    /// untouched. Infallible and non-blocking: at worst the demotion
    /// is skipped (full queue) and the eviction proceeds as always.
    fn demote_victim(&self, frame: &Frame, pid: PageId) {
        let Some(ct) = &self.ct else { return };
        // Clone outside the tier lock (the `WriteBehind::enqueue`
        // argument: under the shared lock only pointers should move).
        let copy = frame.data.read().clone();
        ct.enqueue_demotion(pid, copy);
    }

    /// Hit-path bookkeeping shared by the point and batch paths: pin,
    /// reference, count the hit, and settle a pending prefetch verdict
    /// (first demand touch of a speculative frame = `prefetch_hits`).
    /// Caller holds the shard map lock.
    #[inline]
    fn touch_resident(shard: &Shard, frame: &Frame) {
        frame.pin.fetch_add(1, Ordering::AcqRel);
        frame.refbit.store(true, Ordering::Relaxed);
        if frame.prefetched.load(Ordering::Relaxed) {
            frame.prefetched.store(false, Ordering::Relaxed);
            shard.stats.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        }
        shard.stats.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Eviction-path prefetch verdict: a speculative frame evicted
    /// before anyone touched it was wasted speculation. Caller holds the
    /// shard map lock.
    #[inline]
    fn settle_evicted(shard: &Shard, frame: &Frame) {
        if frame.prefetched.swap(false, Ordering::Relaxed) {
            shard.stats.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pins `id` into a frame of its shard. A hit is served inline —
    /// one map probe, no allocation; everything else (a page mid-load,
    /// a true miss) is a demand fault of one page through
    /// [`BufferPool::fault_batch`], the pool's single fault state
    /// machine.
    fn pin(&self, id: PageId) -> Result<Arc<Frame>> {
        let shard = self.shard_of(id);
        {
            // rank-exempt: every pool entry point funnels through here,
            // and user closures re-enter the pool while holding frame
            // latches (nested `with_page` on distinct pages — latch
            // coupling). The map-under-frame acquisition cannot
            // deadlock because the only *blocking* frame latches taken
            // under a map lock target unpinned victims
            // (`retire_victim`/`demote_victim`), and a closure-held
            // frame is pinned by definition. (`flush_all`'s sweep used
            // to be the one map-holder latching pinned frames; it now
            // snapshots under the map and latches after dropping it —
            // `flush_frame_revalidated`.)
            let map = shard.map.lock_unordered();
            if let Some(&Residency::Resident(idx)) = map.table.get(&id) {
                let frame = &shard.frames[idx];
                Self::touch_resident(shard, frame);
                return Ok(Arc::clone(frame));
            }
        }
        match self.fault_batch(&[id], false).pop() {
            Some(BatchSlot::Pinned(frame)) => Ok(frame),
            Some(BatchSlot::Failed(e)) => Err(e),
            // The shard had no victim to reserve.
            Some(BatchSlot::Skipped) | None => Err(StorageError::BufferPoolExhausted),
        }
    }

    /// The pool's one fault state machine: point faults
    /// ([`BufferPool::pin`], a batch of one), batch faults, speculative
    /// prefetches and decompress faults all run here. Faults a batch of
    /// pages — any mix of shards — with **one** map acquisition *per
    /// shard* to reserve the misses (shards visited in ascending order,
    /// never held together), **one** `read_many` spanning the whole
    /// batch for the pages no memory tier could serve, and one map
    /// acquisition per shard to publish. Keeping the disk batch
    /// pool-wide is what lets adjacent page ids — which stripe
    /// one-per-shard — still coalesce into a single device round-trip.
    /// The guarantees are per page: the first requester of an absent
    /// page becomes its loader (frame reserved pinned, `Loading`
    /// installed, **shard map released across the read**), concurrent
    /// requesters join that page's own `InFlight` and are pre-granted
    /// their pin at publish, a failed page frees its — by then possibly
    /// clobbered — frame and poisons only its own waiters, a failed
    /// victim write-back leaves the victim resident and dirty, and a
    /// panicking disk unwinds through [`BatchAbortGuard`] like a failed
    /// read.
    ///
    /// Demand mode (`speculative == false`) returns one [`BatchSlot`]
    /// per input position; already-resident pages are pinned (hit
    /// bookkeeping), mid-load pages are joined (the waits run *after*
    /// this batch publishes, so a batch can never deadlock on its own
    /// duplicates). Speculative mode touches nothing already resident
    /// or loading, publishes loaded frames unpinned with the
    /// `prefetched` flag set (first-choice victims), and reports
    /// nothing — every slot comes back `Skipped`.
    fn fault_batch(&self, ids: &[PageId], speculative: bool) -> Vec<BatchSlot> {
        let mut slots: Vec<BatchSlot> = ids.iter().map(|_| BatchSlot::Skipped).collect();
        let nshards = self.shards.len();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        for (pos, id) in ids.iter().enumerate() {
            by_shard[(id.0 % nshards as u64) as usize].push(pos);
        }
        // (position, page, shard index, frame index, its Loading entry)
        // per reserved miss, contiguous by shard in ascending order.
        let mut reserved: Vec<(usize, PageId, usize, usize, Arc<InFlight>)> = Vec::new();
        // (position, in-flight load) per mid-flight join; parked on last.
        let mut joins: Vec<(usize, Arc<InFlight>)> = Vec::new();
        for (si, group) in by_shard.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &self.shards[si];
            // rank-exempt: pool entry point, re-enterable from user
            // closures holding frame latches; see `pin`. One shard map
            // at a time, ascending — never two at once.
            let mut map = shard.map.lock_unordered();
            for &pos in group {
                let id = ids[pos];
                match map.table.get(&id) {
                    Some(&Residency::Resident(idx)) => {
                        if !speculative {
                            let frame = &shard.frames[idx];
                            Self::touch_resident(shard, frame);
                            slots[pos] = BatchSlot::Pinned(Arc::clone(frame));
                        }
                    }
                    Some(Residency::Loading(inflight)) => {
                        if !speculative {
                            let inflight = Arc::clone(inflight);
                            inflight.joiners.fetch_add(1, Ordering::Relaxed);
                            shard.stats.misses.fetch_add(1, Ordering::Relaxed);
                            shard.stats.fault_joins.fetch_add(1, Ordering::Relaxed);
                            joins.push((pos, inflight));
                        }
                    }
                    None => {
                        // A shard out of victims degrades gracefully:
                        // this page is skipped, the rest of the batch
                        // proceeds.
                        let Ok(idx) = Self::find_victim(shard, &mut map) else {
                            continue;
                        };
                        let frame = &shard.frames[idx];
                        if let Some(old) = map.resident[idx] {
                            match self.retire_victim(shard, frame, old) {
                                Ok(()) => {}
                                // Victim stays resident and dirty.
                                Err(e) => {
                                    if !speculative {
                                        slots[pos] = BatchSlot::Failed(e);
                                    }
                                    continue;
                                }
                            }
                            self.demote_victim(frame, old);
                            Self::settle_evicted(shard, frame);
                            map.table.remove(&old);
                            map.resident[idx] = None;
                            shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        // Reserve the frame: pinned (the clock skips
                        // it) but mapped to nothing, so the load runs
                        // with the shard unlocked — neighbors proceed
                        // and same-page requesters park on the entry
                        // instead of re-reading.
                        frame.pin.store(1, Ordering::Release);
                        let inflight = Arc::new(InFlight::new());
                        map.table.insert(id, Residency::Loading(Arc::clone(&inflight)));
                        shard.stats.misses.fetch_add(1, Ordering::Relaxed);
                        shard.stats.faults.fetch_add(1, Ordering::Relaxed);
                        if speculative {
                            shard.stats.prefetch_issued.fetch_add(1, Ordering::Relaxed);
                        }
                        reserved.push((pos, id, si, idx, inflight));
                    }
                }
            }
        }

        if !reserved.is_empty() {
            // Armed before the frame latches below so an unwind drops
            // the latches first, then frees the reservations.
            let mut abort = BatchAbortGuard {
                shards: &self.shards,
                entries: reserved
                    .iter()
                    .map(|(_, id, si, idx, inf)| (*id, *si, *idx, Arc::clone(inf)))
                    .collect(),
            };

            // Latch every reserved frame at once (frame latches are a
            // multi rank, and a just-reserved frame — pinned, mapped to
            // nothing — has no other suitor), then walk the storage
            // hierarchy per page: the write-behind store may hold newer
            // bytes than the disk (a page re-faulted from it re-enters
            // memory dirty); below it, the compressed tier serves the
            // load as an in-memory decode; only the leftovers ride the
            // disk batch.
            enum Serve {
                Loaded { dirty: bool, decompressed: bool },
                NeedsDisk,
                Failed(StorageError),
            }
            let mut guards: Vec<_> = reserved
                .iter()
                .map(|(_, _, si, idx, _)| self.shards[*si].frames[*idx].data.write())
                .collect();
            let mut serves: Vec<Serve> = Vec::with_capacity(reserved.len());
            for (k, (_, id, _, _, _)) in reserved.iter().enumerate() {
                let guard = &mut guards[k];
                if let Some(wb) = &self.wb {
                    if wb.serve_fault(*id, guard) {
                        serves.push(Serve::Loaded { dirty: true, decompressed: false });
                        continue;
                    }
                }
                match self.ct.as_ref().and_then(|ct| ct.claim(*id)) {
                    Some(enc) => match pagecodec::decompress(&enc, guard.bytes_mut()) {
                        Ok(()) => serves.push(Serve::Loaded { dirty: false, decompressed: true }),
                        // The entry was already claimed off the tier, so
                        // the retry this poisons everyone into will read
                        // the disk — a corrupt entry heals, never wedges.
                        Err(e) => serves.push(Serve::Failed(StorageError::Io(format!(
                            "decompress page {id}: {e}"
                        )))),
                    },
                    None => serves.push(Serve::NeedsDisk),
                }
            }
            let mut batch_ks: Vec<usize> = Vec::new();
            {
                let mut batch: Vec<(PageId, &mut Page)> = Vec::new();
                for (k, guard) in guards.iter_mut().enumerate() {
                    if matches!(serves[k], Serve::NeedsDisk) {
                        batch.push((reserved[k].1, &mut **guard));
                        batch_ks.push(k);
                    }
                }
                if !batch.is_empty() {
                    // One device round-trip for the whole batch: the
                    // batch count lands on the first page's shard, each
                    // page on its own (aggregation sums the shards, so
                    // the pool-level ratio stays pages-per-round-trip).
                    self.shards[reserved[batch_ks[0]].2]
                        .stats
                        .read_batches
                        .fetch_add(1, Ordering::Relaxed);
                    for &k in &batch_ks {
                        self.shards[reserved[k].2].stats.read_pages.fetch_add(1, Ordering::Relaxed);
                    }
                    let res = self.disk.read_many(&mut batch);
                    drop(batch);
                    match res {
                        Ok(()) => {
                            for &k in &batch_ks {
                                serves[k] = Serve::Loaded { dirty: false, decompressed: false };
                            }
                        }
                        // A one-page batch's error already names
                        // its page: poison that entry's waiters (a
                        // retry here could heal the read behind their
                        // backs and hand the error to no one).
                        Err(e) if batch_ks.len() == 1 => serves[batch_ks[0]] = Serve::Failed(e),
                        // A wider batch error makes no claim about which
                        // pages landed; re-read each one (idempotent by
                        // the `read_many` contract) so only the genuinely
                        // failing pages poison their entries.
                        Err(_) => {
                            for &k in &batch_ks {
                                serves[k] = match self.disk.read(reserved[k].1, &mut guards[k]) {
                                    Ok(()) => Serve::Loaded { dirty: false, decompressed: false },
                                    Err(e) => Serve::Failed(e),
                                };
                            }
                        }
                    }
                }
            }
            drop(guards);

            let mut resolutions: Vec<Resolution> = Vec::with_capacity(reserved.len());
            // Publish shard by shard in reservation (ascending) order;
            // `reserved` is contiguous per shard, so each run is one
            // map acquisition. Guard entries parallel `reserved` — the
            // published prefix is drained before the shard's map drops,
            // so an unwind can never double-free a published frame.
            let mut iter = reserved.into_iter().zip(serves).peekable();
            while let Some(((_, _, next_si, _, _), _)) = iter.peek() {
                let si = *next_si;
                let shard = &self.shards[si];
                // rank-exempt: publish step of a fault that may
                // itself be nested under the caller's outer frame
                // latches; see `pin`. One shard map at a time,
                // ascending.
                let mut map = shard.map.lock_unordered();
                let mut published = 0usize;
                loop {
                    match iter.peek() {
                        Some(((_, _, s, _, _), _)) if *s == si => {}
                        _ => break,
                    }
                    let Some(((pos, id, _, idx, inflight), serve)) = iter.next() else {
                        break;
                    };
                    published += 1;
                    let frame = &shard.frames[idx];
                    // Only this batch resolves these entries, so the
                    // joiner counts are final once the entries leave
                    // the table.
                    let joiners = inflight.joiners.load(Ordering::Relaxed);
                    match serve {
                        Serve::Loaded { dirty, decompressed } => {
                            if let Some(ct) = &self.ct {
                                // The frame is the authority now: drop
                                // any stored entry (wb- and disk-served
                                // loads may shadow a staler one) and
                                // cancel any demotion job queued before
                                // this page's last absence.
                                ct.invalidate(id);
                                if decompressed {
                                    ct.hits.fetch_add(1, Ordering::Relaxed);
                                    ct.stalls.fetch_add(u64::from(joiners), Ordering::Relaxed);
                                }
                            }
                            frame.dirty.store(dirty, Ordering::Release);
                            if speculative {
                                // No requester yet: published unpinned (bar
                                // pins pre-granted to mid-flight joiners),
                                // unreferenced, and flagged first-choice
                                // victim. A joiner *is* a requester — the
                                // speculation already paid off.
                                frame.pin.store(joiners, Ordering::Release);
                                if joiners > 0 {
                                    frame.refbit.store(true, Ordering::Relaxed);
                                    frame.prefetched.store(false, Ordering::Relaxed);
                                    shard.stats.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    frame.refbit.store(false, Ordering::Relaxed);
                                    frame.prefetched.store(true, Ordering::Relaxed);
                                }
                            } else {
                                // One pin for the caller plus one
                                // pre-granted to each parked waiter:
                                // none can lose the frame to eviction
                                // between wake-up and use.
                                frame.pin.store(1 + joiners, Ordering::Release);
                                frame.refbit.store(true, Ordering::Relaxed);
                                frame.prefetched.store(false, Ordering::Relaxed);
                            }
                            map.table.insert(id, Residency::Resident(idx));
                            map.resident[idx] = Some(id);
                            if !speculative {
                                slots[pos] = BatchSlot::Pinned(Arc::clone(frame));
                            }
                            resolutions.push((inflight, Ok(Arc::clone(frame))));
                        }
                        Serve::Failed(e) => {
                            // The failed read may have clobbered the
                            // frame bytes; free the frame (unpinned,
                            // mapped to nothing) and poison every
                            // parked waiter with the error.
                            frame.dirty.store(false, Ordering::Release);
                            frame.pin.store(0, Ordering::Release);
                            frame.prefetched.store(false, Ordering::Relaxed);
                            map.table.remove(&id);
                            map.free.push(idx);
                            if !speculative {
                                slots[pos] = BatchSlot::Failed(e.clone());
                            }
                            resolutions.push((inflight, Err(e)));
                        }
                        // nbb-lint: allow(unwrap, every NeedsDisk was rewritten by the batch or fallback reads)
                        Serve::NeedsDisk => unreachable!("NeedsDisk survived the disk pass"),
                    }
                }
                abort.entries.drain(..published);
                drop(map);
            }
            for (inflight, outcome) in resolutions {
                inflight.resolve(outcome);
            }
        }

        // Park on the joins only now that our own batch has published —
        // a duplicate id in one batch joins its own first occurrence.
        for (pos, inflight) in joins {
            slots[pos] = match inflight.wait() {
                Ok(frame) => BatchSlot::Pinned(frame),
                Err(e) => BatchSlot::Failed(e),
            };
        }
        slots
    }

    #[inline]
    fn unpin(frame: &Frame) {
        frame.pin.fetch_sub(1, Ordering::AcqRel);
    }

    /// Clock (second-chance) victim selection over the shard's unpinned
    /// frames; free frames are taken from the free list first, then
    /// untouched prefetched frames, then the clock sweep. Frames
    /// reserved by an in-flight load are pinned, so the clock never
    /// steals them.
    fn find_victim(shard: &Shard, map: &mut ShardMap) -> Result<usize> {
        if let Some(idx) = map.free.pop() {
            return Ok(idx);
        }
        // Speculation goes first: a prefetched frame nobody touched is
        // reclaimed before the clock disturbs the demand-paged set, so
        // speculation can never evict working-set pages to make room
        // for more speculation. (Flag transitions all happen under the
        // shard map lock, so the scan is race-free.)
        for (idx, frame) in shard.frames.iter().enumerate() {
            if frame.prefetched.load(Ordering::Relaxed) && frame.pin.load(Ordering::Acquire) == 0 {
                return Ok(idx);
            }
        }
        let n = shard.frames.len();
        // Two sweeps: the first clears reference bits, the second takes
        // the first unpinned frame. 2n+1 steps bound the scan.
        for _ in 0..(2 * n + 1) {
            let idx = map.clock_hand;
            map.clock_hand = (map.clock_hand + 1) % n;
            let frame = &shard.frames[idx];
            if frame.pin.load(Ordering::Acquire) != 0 {
                continue;
            }
            if frame.refbit.swap(false, Ordering::Relaxed) {
                continue;
            }
            return Ok(idx);
        }
        Err(StorageError::BufferPoolExhausted)
    }
}

impl Drop for BufferPool {
    /// Drains the write-behind queue before the pool disappears:
    /// evicted-dirty pages were already written by eviction time under
    /// the old synchronous scheme, so write-behind must guarantee they
    /// reach the disk by drop at the latest. (Resident dirty frames are
    /// — as before — the caller's to flush via
    /// [`BufferPool::flush_all`].) Errors are swallowed; the
    /// error-visible barrier is `flush_all`. The compressor thread is
    /// simply shut down and joined — its store is cache, nothing to
    /// persist (a shutdown flag also unjams a worker parked on a test
    /// gate someone forgot to release).
    fn drop(&mut self) {
        if let Some(ct) = &self.ct {
            {
                let mut st = ct.state.lock();
                st.shutdown = true;
                ct.work_cv.notify_all();
            }
            if let Some(h) = self.compressor.take() {
                let _ = h.join();
            }
        }
        let Some(wb) = &self.wb else { return };
        {
            let mut st = wb.state.lock();
            st.shutdown = true;
            wb.work_cv.notify_all();
        }
        for h in self.flushers.drain(..) {
            let _ = h.join();
        }
        // The flushers drained everything flushable; give parked
        // failures one last synchronous attempt.
        let mut st = wb.state.lock();
        let remaining: Vec<PageId> = st.slots.keys().copied().collect();
        for pid in remaining {
            // nbb-lint: allow(unwrap, key taken from the same locked map one line up)
            let slot = st.slots.remove(&pid).expect("key just listed");
            let _ = wb.disk.write(pid, &slot.page);
        }
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
    use crate::stats::IoStats;

    fn pool(cap: usize) -> (Arc<BufferPool>, Arc<InMemoryDisk>) {
        let disk = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, cap));
        (pool, disk)
    }

    /// A pool striped into exactly `shards` shards, other knobs default.
    fn sharded(disk: Arc<dyn DiskManager>, cap: usize, shards: usize) -> BufferPool {
        BufferPool::with_pool_options(disk, cap, PoolOptions { shards, ..PoolOptions::default() })
    }

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

    // -----------------------------------------------------------------
    // Sharding
    // -----------------------------------------------------------------

    #[test]
    fn default_shard_count_scales_with_capacity() {
        let (small, _) = pool(4);
        assert_eq!(small.shards(), 1, "tiny pools stay single-shard");
        let (mid, _) = pool(32);
        assert_eq!(mid.shards(), 2);
        let (big, _) = pool(1024);
        assert_eq!(big.shards(), DEFAULT_POOL_SHARDS);
        assert_eq!(big.capacity(), 1024);
    }

    #[test]
    fn explicit_shard_count_is_honored_and_clamped() {
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
        let p = sharded(Arc::clone(&disk), 64, 4);
        assert_eq!(p.shards(), 4);
        assert_eq!(p.capacity(), 64);
        let p = sharded(Arc::clone(&disk), 3, 100);
        assert_eq!(p.shards(), 3, "shards clamp to capacity");
        assert_eq!(p.capacity(), 3);
        let p = sharded(disk, 16, 0);
        assert_eq!(p.shards(), 1, "zero shards clamps to one");
    }

    #[test]
    fn uneven_capacity_distributes_all_frames() {
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
        let p = sharded(disk, 13, 4);
        assert_eq!(p.shards(), 4);
        assert_eq!(p.capacity(), 13, "every frame must land in some shard");
    }

    #[test]
    fn sharded_pool_full_workout_matches_disk_truth() {
        // Working set ≫ capacity on a many-sharded pool: every page must
        // still read back its own bytes through eviction and reload.
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(sharded(disk, 8, 4));
        let ids: Vec<_> = (0..64).map(|_| pool.new_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.with_page_mut(*id, |p| p.bytes_mut()[3] = i as u8).unwrap();
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(pool.with_page(*id, |p| p.bytes()[3]).unwrap(), i as u8);
        }
        let s = pool.stats();
        assert!(s.misses >= 64, "first touch of each page must miss");
        assert!(s.evictions > 0);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(sharded(disk, 16, 4));
        let ids: Vec<_> = (0..16).map(|_| pool.new_page().unwrap()).collect();
        for id in &ids {
            pool.with_page(*id, |_| ()).unwrap(); // 16 misses
        }
        for id in &ids {
            pool.with_page(*id, |_| ()).unwrap(); // 16 hits
        }
        let s = pool.stats();
        assert_eq!(s.misses, 16);
        assert_eq!(s.hits, 16);
        assert_eq!(s.faults, 16);
        pool.reset_stats();
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn shards_do_not_share_frames() {
        // A page storm on one shard must not evict the other shard's
        // residents: page ids congruent mod 2 stay in their stripe.
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(sharded(disk, 4, 2));
        let ids: Vec<_> = (0..12).map(|_| pool.new_page().unwrap()).collect();
        // Pin nothing; touch one even page, then storm odd pages.
        pool.with_page(ids[0], |_| ()).unwrap();
        for id in ids.iter().filter(|id| id.0 % 2 == 1) {
            pool.with_page(*id, |_| ()).unwrap();
        }
        assert!(pool.contains(ids[0]), "odd-page storm evicted an even-shard resident");
    }

    #[test]
    fn failed_read_leaves_pool_consistent() {
        use crate::stats::IoStats;
        use std::sync::atomic::AtomicBool;

        /// Disk whose reads can be switched to fail, for error-path tests.
        struct FlakyDisk {
            inner: InMemoryDisk,
            fail_reads: AtomicBool,
        }
        impl DiskManager for FlakyDisk {
            fn page_size(&self) -> usize {
                self.inner.page_size()
            }
            fn allocate(&self) -> Result<PageId> {
                self.inner.allocate()
            }
            fn read(&self, id: PageId, buf: &mut Page) -> Result<()> {
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

        let disk = Arc::new(FlakyDisk {
            inner: InMemoryDisk::new(256),
            fail_reads: AtomicBool::new(false),
        });
        let pool = sharded(Arc::clone(&disk) as Arc<dyn DiskManager>, 2, 1);
        // Fill both frames, one dirty.
        let a = pool.new_page().unwrap();
        let b = pool.new_page().unwrap();
        let c = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 11).unwrap();
        pool.with_page(b, |_| ()).unwrap();
        // Inject failures: faulting `c` must error without corrupting
        // the map — and must not lose `a`'s dirty data.
        disk.fail_reads.store(true, Ordering::Relaxed);
        assert!(pool.with_page(c, |_| ()).is_err());
        disk.fail_reads.store(false, Ordering::Relaxed);
        // Everything still readable with the right contents.
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 11);
        pool.with_page(b, |_| ()).unwrap();
        pool.with_page(c, |_| ()).unwrap();
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 11, "dirty page lost");
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
    fn concurrent_threads_on_distinct_shards() {
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(sharded(disk, 64, 8));
        let ids: Vec<_> = (0..64).map(|_| pool.new_page().unwrap()).collect();
        let mut handles = Vec::new();
        for t in 0..8usize {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2000usize {
                    let id = ids[(i * 7 + t * 13) % ids.len()];
                    if i % 5 == 0 {
                        pool.with_page_mut(id, |p| {
                            p.bytes_mut()[t] = p.bytes()[t].wrapping_add(1);
                        })
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
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 8 * 2000);
        assert_eq!(s.misses, s.faults + s.fault_joins, "every miss loads or parks");
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

    // -----------------------------------------------------------------
    // Compressed frame tier
    // -----------------------------------------------------------------

    /// Pool with the compressed tier on (write-behind off, so disk-read
    /// accounting in these tests is exact).
    fn cpool(cap: usize, budget: usize) -> (Arc<BufferPool>, Arc<InMemoryDisk>) {
        let disk = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(BufferPool::with_pool_options(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            cap,
            PoolOptions {
                shards: 1,
                write_behind: 0,
                compressed_budget_bytes: budget,
                ..PoolOptions::default()
            },
        ));
        (pool, disk)
    }

    #[test]
    fn demoted_page_refaults_without_a_disk_read() {
        let (pool, disk) = cpool(2, 4096);
        assert_eq!(pool.compressed_budget(), 4096);
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[3] = 9).unwrap();
        pool.evict_page(a).unwrap();
        // The barrier drains the compressor, so the demotion is settled.
        pool.flush_all().unwrap();
        let s = pool.stats();
        assert_eq!(s.compressed_pages, 1, "demotion admitted");
        assert!(s.compressed_bytes > 0 && s.compressed_bytes < 256, "mostly-zero page shrank");
        assert!(s.compression_ratio() > 1.0);

        disk.reset_stats();
        assert_eq!(pool.with_page(a, |p| p.bytes()[3]).unwrap(), 9);
        let s = pool.stats();
        assert_eq!(disk.stats().reads, 0, "fault served by decompression, not the disk");
        assert_eq!(s.compressed_hits, 1);
        assert_eq!(s.compressed_pages, 0, "the entry was claimed by the fault");
    }

    #[test]
    fn budget_evicts_oldest_entries() {
        // Zero-ish 256-byte pages encode to ~25 bytes; a 60-byte budget
        // holds two, so the third admission evicts the oldest.
        let (pool, _) = cpool(2, 60);
        let ids: Vec<PageId> = (0..3).map(|_| pool.new_page().unwrap()).collect();
        for id in &ids {
            pool.with_page(*id, |_| ()).unwrap();
            pool.evict_page(*id).unwrap();
        }
        pool.flush_all().unwrap();
        let s = pool.stats();
        assert!(s.compressed_evictions >= 1, "third entry must push one out");
        assert!(s.compressed_bytes <= 60, "stored bytes respect the budget");
        assert_eq!(s.compressed_pages, 2);
    }

    #[test]
    fn zero_budget_disables_the_tier_exactly() {
        let (pool, disk) = cpool(2, 0);
        assert_eq!(pool.compressed_budget(), 0);
        pool.set_compression_gate(true); // must be a no-op
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 5).unwrap();
        pool.evict_page(a).unwrap();
        pool.flush_all().unwrap();
        disk.reset_stats();
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 5);
        assert_eq!(disk.stats().reads, 1, "re-fault reads the disk, as always");
        let s = pool.stats();
        assert_eq!(
            (s.compressed_hits, s.compressed_pages, s.compressed_bytes, s.compressed_ratio_den),
            (0, 0, 0, 0),
            "no tier counter may move with the tier disabled"
        );
    }

    #[test]
    fn poisoned_decompress_heals_on_retry() {
        let (pool, disk) = cpool(2, 4096);
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[7] = 42).unwrap();
        pool.evict_page(a).unwrap();
        pool.flush_all().unwrap();
        // Corrupt the stored entry in place: the next fault's decode
        // must fail (poisoning that load), and because the claim already
        // removed the entry, the retry falls through to the disk.
        {
            let ct = pool.ct.as_ref().unwrap();
            let mut st = ct.state.lock();
            let enc = st.entries.get_mut(&a).expect("entry admitted");
            enc[0] ^= 0xFF; // break the codec magic
        }
        let err = pool.with_page(a, |_| ()).unwrap_err();
        assert!(format!("{err}").contains("decompress"), "fault surfaces the decode error: {err}");
        disk.reset_stats();
        assert_eq!(pool.with_page(a, |p| p.bytes()[7]).unwrap(), 42, "retry heals from disk");
        assert_eq!(disk.stats().reads, 1);
        assert_eq!(pool.stats().compressed_hits, 0, "a poisoned decode is not a hit");
    }

    #[test]
    fn publish_cancels_stale_demotion_jobs() {
        // Gate the compressor, evict (job queued, not yet compressed),
        // re-fault and re-dirty the page, then let the compressor run:
        // the job's token died at publish, so its stale snapshot must
        // not be admitted over the newer truth.
        let (pool, _) = cpool(2, 4096);
        let a = pool.new_page().unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 1).unwrap();
        pool.set_compression_gate(true);
        pool.evict_page(a).unwrap();
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 2).unwrap();
        pool.set_compression_gate(false);
        pool.flush_all().unwrap();
        let s = pool.stats();
        assert_eq!(s.compressed_pages, 0, "cancelled job must not admit stale bytes");
        // And the tier still works afterwards: a fresh demotion of the
        // new bytes round-trips.
        pool.evict_page(a).unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().compressed_pages, 1);
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 2);
    }

    #[test]
    fn incompressible_pages_are_stored_raw_not_inflated() {
        let (pool, _) = cpool(2, 4096);
        let a = pool.new_page().unwrap();
        // LCG noise fills the page; the codec's gate must fall back to
        // raw storage (256 + 12 header bytes), never more.
        pool.with_page_mut(a, |p| {
            let mut x = 0x243F_6A88_85A3_08D3u64;
            for b in p.bytes_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *b = (x >> 56) as u8;
            }
        })
        .unwrap();
        pool.evict_page(a).unwrap();
        pool.flush_all().unwrap();
        let s = pool.stats();
        assert_eq!(s.compressed_pages, 1);
        assert_eq!(s.compressed_bytes, 256 + 12, "raw fallback pays only the header");
        assert!(s.compression_ratio() < 1.0, "honest ratio accounting for a raw entry");
    }

    #[test]
    fn runtime_compressed_budget_resize_evicts_to_fit() {
        // Three zero-ish entries (~25 stored bytes each) fit a 4 KiB
        // budget; shrinking to 60 bytes must evict down to two, and
        // growing back re-opens admission for future demotions.
        let (pool, _) = cpool(2, 4096);
        let ids: Vec<PageId> = (0..3).map(|_| pool.new_page().unwrap()).collect();
        for id in &ids {
            pool.with_page(*id, |_| ()).unwrap();
            pool.evict_page(*id).unwrap();
        }
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().compressed_pages, 3);

        assert!(pool.set_compressed_budget(60), "tier present: resize applies");
        assert_eq!(pool.compressed_budget(), 60);
        let s = pool.stats();
        assert!(s.compressed_bytes <= 60, "shrink evicted down to the new budget");
        assert_eq!(s.compressed_pages, 2, "oldest entry went first");

        assert!(pool.set_compressed_budget(4096));
        let d = pool.new_page().unwrap();
        pool.with_page(d, |_| ()).unwrap();
        pool.evict_page(d).unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().compressed_pages, 3, "regrown budget admits again");

        let plain_disk = Arc::new(InMemoryDisk::new(256));
        let plain = BufferPool::new(plain_disk as Arc<dyn DiskManager>, 2);
        assert!(!plain.set_compressed_budget(1024), "no tier at construction: resize is a no-op");
        assert_eq!(plain.compressed_budget(), 0);
    }

    #[test]
    fn multiple_flusher_threads_drain_the_queue_correctly() {
        // Four drainers race over one queue while a 4-frame pool churns
        // 32 pages through repeated dirty evictions. The gen-stamped
        // `flushing` claim means a superseded write can never land over
        // a newer one, so the final disk image must equal the last
        // value written to every page.
        let disk = Arc::new(InMemoryDisk::new(256));
        let pool = BufferPool::with_pool_options(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            4,
            PoolOptions {
                shards: 1,
                write_behind: 8,
                flusher_threads: 4,
                compressed_budget_bytes: 0,
            },
        );
        assert_eq!(pool.flusher_threads(), 4);
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
    fn prefetch_loads_in_one_batch_and_publishes_unpinned() {
        let (pool, disk, ids) = cold_pool(8, 4);
        disk.reset_stats();
        pool.prefetch(&ids);
        for &id in &ids {
            assert!(pool.contains(id), "prefetched page {id} should be resident");
        }
        assert_eq!(disk.stats().reads, 4, "per-page read accounting preserved");
        let s = pool.stats();
        assert_eq!(s.prefetch_issued, 4);
        assert_eq!(s.faults, 4, "prefetches run the full fault machinery");
        assert_eq!(s.read_batches, 1, "one read_many for the whole group");
        assert_eq!(s.read_pages, 4);
        assert_eq!(s.prefetch_hits, 0);
        // Unpinned: a forced eviction succeeds immediately.
        pool.evict_page(ids[0]).unwrap();
        assert_eq!(pool.stats().prefetch_wasted, 1, "evicted untouched = wasted speculation");
        // A demand touch settles the verdict the other way.
        let got = pool.with_page(ids[1], |p| p.bytes()[0]).unwrap();
        assert_eq!(got, 2);
        let s = pool.stats();
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.hits, 1, "the demand touch was an ordinary hit");
    }

    #[test]
    fn prefetch_skips_resident_and_loading_pages() {
        let (pool, disk, ids) = cold_pool(8, 3);
        pool.fault_many(&ids).unwrap();
        disk.reset_stats();
        pool.prefetch(&ids);
        assert_eq!(disk.stats().reads, 0, "nothing to do: all resident");
        assert_eq!(pool.stats().prefetch_issued, 0);
    }

    #[test]
    fn prefetched_frames_are_first_choice_victims() {
        // Four frames: three demand-paged, one speculative. The next
        // miss must reclaim the speculative one, not touch the working
        // set.
        let (pool, _disk, ids) = cold_pool(4, 5);
        let (hot, spec, fresh) = (&ids[0..3], ids[3], ids[4]);
        for &id in hot {
            pool.with_page(id, |_| ()).unwrap();
        }
        pool.prefetch(&[spec]);
        assert!(pool.contains(spec));
        pool.with_page(fresh, |_| ()).unwrap();
        assert!(!pool.contains(spec), "speculative frame must be the first victim");
        for &id in hot {
            assert!(pool.contains(id), "demand-paged working set survived");
        }
        assert_eq!(pool.stats().prefetch_wasted, 1);
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
        assert_eq!(s.prefetch_issued, 0, "demand faults are not speculation");
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

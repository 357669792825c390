//! One lock stripe of the pool: its frames, residency table, free list,
//! 2Q replacement state (Johnson & Shasha, VLDB '94: a probation FIFO,
//! ghost ids, a protected set under a second-chance sweep; why a first
//! touch is probation is in `mod.rs` §Sharding) and counters, plus
//! victim selection and eviction over them.

use super::fault::InFlight;
use super::BufferPool;
use crate::error::{Result, StorageError};
use crate::lockrank;
use crate::page::{Page, PageId};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Once the shard is full, probation holds at most a quarter of its
/// frames: its oldest page is the victim while it holds more.
const PROBATION_SHARE: usize = 4;

/// The ghost remembers the ids of at most half a shard's frames' worth
/// of pages evicted off probation.
const GHOST_SHARE: usize = 2;

pub(super) struct Frame {
    pub(super) data: RwLock<Page>,
    pub(super) pin: AtomicU32,
    pub(super) dirty: AtomicBool,
    pub(super) refbit: AtomicBool,
}

/// Residency of one page within its shard.
pub(super) enum Residency {
    /// Loaded into the local frame at this index.
    Resident(usize),
    /// A load is in flight; requesters park here instead of re-reading.
    Loading(Arc<InFlight>),
}

/// Mutable residency state of one shard, behind the shard's mutex.
pub(super) struct ShardMap {
    /// page id -> residency state
    pub(super) table: HashMap<PageId, Residency>,
    /// local frame index -> published page (None = free or loading)
    pub(super) resident: Vec<Option<PageId>>,
    /// Stack of free local frame indexes (avoids O(n) scans on miss).
    pub(super) free: Vec<usize>,
    /// Frames holding a page on its first residency, oldest first.
    probation: VecDeque<usize>,
    /// local frame index -> its page was re-referenced after probation
    protected: Vec<bool>,
    /// Ids of the pages last evicted off probation, oldest first, and
    /// the same ids as a set. Both are allocated once, full size.
    ghost: VecDeque<PageId>,
    ghosts: HashSet<PageId>,
    /// Second-chance hand over the protected frames.
    clock_hand: usize,
}

impl ShardMap {
    /// Places page `id`, just loaded into frame `idx`: a page whose id
    /// the ghost remembers joins the protected set, any other page
    /// probation's tail.
    pub(super) fn admit(&mut self, idx: usize, id: PageId) {
        if self.ghosts.remove(&id) {
            self.ghost.retain(|&g| g != id);
            self.protected[idx] = true;
        } else {
            self.probation.push_back(idx);
        }
    }

    /// Takes frame `idx`, whose page `id` is leaving, out of the
    /// replacement state; a page leaving probation leaves its id in the
    /// ghost, dropping the oldest id when the ghost is full.
    fn retire(&mut self, idx: usize, id: PageId) {
        if std::mem::take(&mut self.protected[idx]) {
            return;
        }
        self.probation.retain(|&f| f != idx);
        if self.ghost.len() == ghost_cap(self.resident.len()) {
            if let Some(old) = self.ghost.pop_front() {
                self.ghosts.remove(&old);
            }
        }
        self.ghost.push_back(id);
        self.ghosts.insert(id);
    }
}

fn ghost_cap(frames: usize) -> usize {
    (frames / GHOST_SHARE).max(1)
}

/// Per-shard counters. Relaxed atomics on their own cache line so the
/// hot path never contends with stats collection or a neighbor shard.
#[repr(align(64))]
#[derive(Default)]
pub(super) struct ShardStats {
    pub(super) hits: AtomicU64,
    pub(super) misses: AtomicU64,
    pub(super) evictions: AtomicU64,
    pub(super) writebacks: AtomicU64,
    pub(super) faults: AtomicU64,
    pub(super) fault_joins: AtomicU64,
    pub(super) read_batches: AtomicU64,
    pub(super) read_pages: AtomicU64,
}

pub(super) struct Shard {
    pub(super) frames: Vec<Arc<Frame>>,
    pub(super) map: Mutex<ShardMap>,
    pub(super) stats: ShardStats,
}

impl Shard {
    /// A shard of `n` free frames of `page_size` bytes.
    pub(super) fn new(n: usize, page_size: usize) -> Self {
        let frames = (0..n)
            .map(|_| {
                Arc::new(Frame {
                    data: RwLock::with_rank(lockrank::POOL_FRAME, Page::new(page_size)),
                    pin: AtomicU32::new(0),
                    dirty: AtomicBool::new(false),
                    refbit: AtomicBool::new(false),
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
                    probation: VecDeque::with_capacity(n),
                    protected: vec![false; n],
                    ghost: VecDeque::with_capacity(ghost_cap(n)),
                    // Twice the ids it will hold: a set that never
                    // exceeds half its capacity rehashes its deletion
                    // markers in place instead of growing.
                    ghosts: HashSet::with_capacity(2 * ghost_cap(n)),
                    clock_hand: 0,
                },
            ),
            stats: ShardStats::default(),
        }
    }

    /// Hit-path bookkeeping shared by the point and batch paths: pin,
    /// reference, count the hit. The reference bit is read only on a
    /// protected frame; on probation a hit is just a hit. Caller holds
    /// the shard map lock.
    #[inline]
    pub(super) fn touch(&self, frame: &Frame) {
        frame.pin.fetch_add(1, Ordering::AcqRel);
        frame.refbit.store(true, Ordering::Relaxed);
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// 2Q victim selection; free frames are taken from the free list
    /// first. While probation holds more than its share of the shard,
    /// the victim is its oldest unpinned page; otherwise it is the
    /// second-chance sweep's pick among the protected frames. Each side
    /// falls back to the other before the shard is exhausted. Both skip
    /// pinned frames, so neither steals a frame reserved by an
    /// in-flight load or held by a caller.
    fn find_victim(&self, map: &mut ShardMap) -> Result<usize> {
        if let Some(idx) = map.free.pop() {
            return Ok(idx);
        }
        let victim = if map.probation.len() > (self.frames.len() / PROBATION_SHARE).max(1) {
            self.oldest_on_probation(map).or_else(|| self.sweep_protected(map))
        } else {
            self.sweep_protected(map).or_else(|| self.oldest_on_probation(map))
        };
        victim.ok_or(StorageError::BufferPoolExhausted)
    }

    fn oldest_on_probation(&self, map: &ShardMap) -> Option<usize> {
        map.probation.iter().copied().find(|&idx| self.frames[idx].pin.load(Ordering::Acquire) == 0)
    }

    /// Second chance over the protected frames: the first sweep clears
    /// reference bits, the second takes the first unpinned frame; 2n+1
    /// steps bound the scan.
    fn sweep_protected(&self, map: &mut ShardMap) -> Option<usize> {
        let n = self.frames.len();
        for _ in 0..(2 * n + 1) {
            let idx = map.clock_hand;
            map.clock_hand = (idx + 1) % n;
            let frame = &self.frames[idx];
            if !map.protected[idx] || frame.pin.load(Ordering::Acquire) != 0 {
                continue;
            }
            if frame.refbit.swap(false, Ordering::Relaxed) {
                continue;
            }
            return Some(idx);
        }
        None
    }
}

impl BufferPool {
    /// Index of the shard owning `id`.
    #[inline]
    pub(super) fn shard_index(&self, id: PageId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    /// Shard owning `id`.
    #[inline]
    pub(super) fn shard_of(&self, id: PageId) -> &Shard {
        &self.shards[self.shard_index(id)]
    }

    /// `(shard, position)` of every id, sorted: each shard's positions
    /// are one contiguous run, shards ascending, so a batch takes one
    /// map acquisition per shard it touches.
    pub(super) fn by_shard(&self, ids: &[PageId]) -> Vec<(usize, usize)> {
        let mut order: Vec<(usize, usize)> =
            ids.iter().enumerate().map(|(pos, id)| (self.shard_index(*id), pos)).collect();
        order.sort_unstable();
        order
    }

    #[inline]
    pub(super) fn unpin(frame: &Frame) {
        frame.pin.fetch_sub(1, Ordering::AcqRel);
    }

    /// A frame for a page about to load: off the free list, else a
    /// victim evicted on the spot. The frame comes back unpinned
    /// and mapped to nothing. Caller holds the shard map lock.
    pub(super) fn take_frame(&self, shard: &Shard, map: &mut ShardMap) -> Result<usize> {
        let idx = shard.find_victim(map)?;
        if let Some(old) = map.resident[idx] {
            self.evict(shard, map, idx, old)?;
        }
        Ok(idx)
    }

    /// Evicts unpinned resident page `old` from frame `idx`, leaving
    /// the frame mapped to nothing (the caller reserves it or frees
    /// it). Caller holds the shard map lock.
    ///
    /// A dirty victim comes off the eviction path first: its bytes are
    /// enqueued to write-behind (a memcpy) instead of a synchronous
    /// device write, falling back to the synchronous write when
    /// write-behind is disabled or full. On error the victim stays
    /// dirty and resident.
    pub(super) fn evict(
        &self,
        shard: &Shard,
        map: &mut ShardMap,
        idx: usize,
        old: PageId,
    ) -> Result<()> {
        let frame = &shard.frames[idx];
        if frame.dirty.load(Ordering::Acquire) {
            let guard = frame.data.read();
            match &self.wb {
                Some(wb) => wb.enqueue(old, &guard)?,
                None => self.disk.write(old, &guard)?,
            }
            frame.dirty.store(false, Ordering::Release);
            shard.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        map.table.remove(&old);
        map.resident[idx] = None;
        map.retire(idx, old);
        shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::buffer::tests::{pool, sharded};
    use crate::buffer::DEFAULT_POOL_SHARDS;
    use crate::disk::{DiskManager, InMemoryDisk};
    use crate::stats::PoolStats;
    use std::sync::Arc;

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
}

//! The compressed frame tier: a budget-bounded store of cold victims'
//! encoded bytes, the background compressor that fills it, and the
//! claim a decompress fault makes on it.

use crate::lockrank;
use crate::page::{Page, PageId};
use nbb_encoding::pagecodec;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Demotions the compressed tier will queue ahead of its compressor
/// thread. A full queue turns further demotions into plain evictions
/// (the tier trades hit rate, never reclaim latency).
const CT_QUEUE_DEPTH: usize = 64;

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
    /// serves block (see [`super::BufferPool::set_compression_gate`]).
    gate_held: bool,
}

/// Bounded store of compressed cold pages plus the background
/// compressor protocol. Lock order: shard map lock → tier lock (same
/// rank as the write-behind lock; the two are never nested).
pub(super) struct CompressedTier {
    state: Mutex<CtState>,
    /// Signals the compressor that work, shutdown, or a gate release
    /// arrived (decompress serves waiting out the gate park here too).
    work_cv: Condvar,
    /// Signals drainers that a job completed.
    done_cv: Condvar,
    /// Stored-bytes bound for `entries`, fixed at construction.
    pub(super) budget: usize,
    pub(super) hits: AtomicU64,
    pub(super) evictions: AtomicU64,
    pub(super) stalls: AtomicU64,
    pub(super) ratio_num: AtomicU64,
    pub(super) ratio_den: AtomicU64,
}

impl CompressedTier {
    pub(super) fn new(budget: usize) -> Self {
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
            budget,
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
    pub(super) fn enqueue_demotion(&self, pid: PageId, page: Page) {
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
    pub(super) fn claim(&self, pid: PageId) -> Option<Vec<u8>> {
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
    pub(super) fn invalidate(&self, pid: PageId) {
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
        if enc.len() > self.budget {
            return;
        }
        while st.bytes + enc.len() > self.budget {
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
    pub(super) fn run(ct: Arc<CompressedTier>) {
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
    pub(super) fn drain(&self) {
        let mut st = self.state.lock();
        while !st.queue.is_empty() || st.inflight > 0 {
            self.done_cv.wait(&mut st);
        }
    }

    /// Sets or releases the test gate (see `CtState::gate_held`).
    pub(super) fn set_gate(&self, held: bool) {
        self.state.lock().gate_held = held;
        if !held {
            self.work_cv.notify_all();
        }
    }

    /// Tells the compressor to exit (also unjams a worker parked on a
    /// test gate someone forgot to release).
    pub(super) fn shut_down(&self) {
        self.state.lock().shutdown = true;
        self.work_cv.notify_all();
    }

    /// Gauges: entries held and stored bytes right now.
    pub(super) fn occupancy(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.entries.len() as u64, st.bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use crate::buffer::{BufferPool, PoolOptions};
    use crate::disk::{DiskManager, InMemoryDisk};
    use crate::page::PageId;
    use std::sync::Arc;

    /// Pool with the compressed tier on (write-behind off, so disk-read
    /// accounting in these tests is exact).
    fn cpool(cap: usize, budget: usize) -> (Arc<BufferPool>, Arc<InMemoryDisk>) {
        let disk = Arc::new(InMemoryDisk::new(256));
        let pool = Arc::new(BufferPool::with_pool_options(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            cap,
            PoolOptions { shards: 1, write_behind: 0, compressed_budget_bytes: budget },
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
}

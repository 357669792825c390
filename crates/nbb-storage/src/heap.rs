//! Heap files: unordered tuple storage over slotted pages.
//!
//! Placement is *append-oriented* (new tuples go to the tail page), which
//! is exactly the strategy whose locality waste §3.1 analyses: a row
//! lands where it was loaded, and hot rows sit one or two to a page
//! among cold ones.
//!
//! A row whose current bytes the caller already knows is overwritten
//! through [`HeapFile::overwrite`]: when its page is out of the pool,
//! the new bytes wait below it as a slot patch
//! ([`BufferPool::patch`]) instead of the page being read for a
//! 64-byte write. Two primitives move rows. [`HeapFile::swap`]
//! interchanges two equal-width rows under both page latches; a table
//! uses it to gather the rows its updates touch onto a few hot pages
//! without holes, forwarding or new pages. [`HeapFile::relocate`] is the
//! paper's own ("relocates hot tuples by deleting then appending them to
//! the end of the table"): it appends the copy before it deletes the
//! original.
//!
//! **Every page but the last is full.** A batch that finds the tail
//! full links the next page under the directory's write lock, or adopts
//! the one a racing batch linked first ([`HeapFile::append_many`]), so
//! appends never strand a half-empty page behind the tail, and an
//! appended row costs the space of a loaded one. ("Full" is as seen by
//! the tuple that did not fit; deletes later open holes that appends do
//! not revisit.)
//!
//! Batched reads are one visitor, [`HeapFile::read_many`]: tuples are
//! seen in place under their page's pin, each distinct page pinned
//! once; [`HeapFile::get_many`] is that visitor collecting copies.

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::lockrank;
use crate::page::PageId;
use crate::rid::RecordId;
use crate::slotted::{SlottedPage, SlottedPageRef};
use parking_lot::RwLock;
use std::sync::Arc;

/// An unordered collection of tuples with stable [`RecordId`]s.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    pages: RwLock<Vec<PageId>>,
}

impl HeapFile {
    /// Creates an empty heap file on `pool`.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let first = new_slotted_page(&pool)?;
        Ok(HeapFile { pool, pages: RwLock::with_rank(lockrank::HEAP_DIRECTORY, vec![first]) })
    }

    /// Reattaches a heap persisted on `pool`'s disk from its page list
    /// (the caller's catalog records [`HeapFile::page_ids`] at shutdown).
    /// Every page is validated as a slotted page.
    pub fn attach(pool: Arc<BufferPool>, pages: Vec<PageId>) -> Result<Self> {
        if pages.is_empty() {
            return Self::create(pool);
        }
        for pid in &pages {
            pool.with_page(*pid, |p| SlottedPageRef::attach(p).map(|_| ()))??;
        }
        Ok(HeapFile { pool, pages: RwLock::with_rank(lockrank::HEAP_DIRECTORY, pages) })
    }

    /// The page after `full`, which a batch found with no room: the page
    /// a racing batch already linked after it, or else a new page linked
    /// now. The directory's write lock is held across the allocation so
    /// that two batches finding one tail full link one page, not two
    /// (`BufferPool::new_page_with` reads nothing, so the lock never
    /// waits on a device read).
    fn grow_past(&self, full: PageId) -> Result<PageId> {
        let mut pages = self.pages.write();
        // nbb-lint: allow(unwrap, `full` was read from this directory, which never shrinks)
        let at = pages.iter().rposition(|&p| p == full).expect("full is a heap page");
        if let Some(&next) = pages.get(at + 1) {
            return Ok(next);
        }
        let id = new_slotted_page(&self.pool)?;
        pages.push(id);
        Ok(id)
    }

    /// The buffer pool this heap lives on.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Page ids belonging to this heap, in allocation (append) order.
    pub fn page_ids(&self) -> Vec<PageId> {
        self.pages.read().clone()
    }

    /// Number of pages in the heap.
    pub fn page_count(&self) -> usize {
        self.pages.read().len()
    }

    /// Appends a tuple, returning its address: [`HeapFile::append_many`]
    /// of one.
    pub fn insert(&self, tuple: &[u8]) -> Result<RecordId> {
        let mut rids = self.append_many(&[tuple])?;
        // nbb-lint: allow(unwrap, append_many returns one rid per input tuple)
        Ok(rids.pop().expect("one tuple in, one rid out"))
    }

    /// Appends a batch of tuples, returning their addresses indexed
    /// like `tuples`.
    ///
    /// The write-side analogue of [`HeapFile::get_many`]: instead of one
    /// pin + one page latch + one slotted-page parse per tuple, the
    /// batch fills each tail page under a **single** exclusive page
    /// access — N appends cost one latch round-trip per *page touched*
    /// (≈ N·width/page_size pages), not per tuple. The tail is read
    /// once; a page with no room for the next tuple is followed by
    /// `grow_past`, which links at most one page after it however many
    /// batches race for it. So every page but the last was full when
    /// the page after it was linked (for one tuple width: holds as many
    /// rows as one page can), and concurrent appenders cost the same
    /// space as one.
    ///
    /// A structurally unstorable tuple (empty, or larger than any page
    /// can hold) fails the batch at that tuple; earlier tuples remain
    /// appended, exactly as the equivalent insert loop would leave them.
    pub fn append_many<T: AsRef<[u8]>>(&self, tuples: &[T]) -> Result<Vec<RecordId>> {
        let mut out = Vec::with_capacity(tuples.len());
        // nbb-lint: allow(unwrap, heaps are created with one page and never shrink)
        let mut tail = *self.pages.read().last().expect("heap always has >= 1 page");
        while out.len() < tuples.len() {
            let done = out.len();
            let slots = self.pool.with_page_mut(tail, |p| -> Result<Vec<u16>> {
                let mut sp = SlottedPage::attach(p)?;
                let mut slots = Vec::new();
                for t in &tuples[done..] {
                    match sp.insert(t.as_ref()) {
                        Ok(slot) => slots.push(slot),
                        // Full page: the rest of the batch continues on
                        // the page after it. (An empty page never reports
                        // PageFull — a tuple too big for any page errors
                        // as TupleTooLarge below — so every growth makes
                        // progress.)
                        Err(StorageError::PageFull { .. }) => break,
                        // Oversized/empty tuples fail on every page;
                        // retrying them on a fresh tail would loop.
                        Err(e) => return Err(e),
                    }
                }
                Ok(slots)
            })??;
            out.extend(slots.into_iter().map(|slot| RecordId::new(tail, slot)));
            if out.len() < tuples.len() {
                tail = self.grow_past(tail)?;
            }
        }
        Ok(out)
    }

    /// Copies the tuple at `rid` out of the page.
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>> {
        self.with_tuple(rid, |t| t.to_vec())
    }

    /// Runs `f` over the tuple bytes at `rid` without copying.
    pub fn with_tuple<R>(&self, rid: RecordId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.pool.with_page(rid.page, |p| {
            let sp = SlottedPageRef::attach(p)?;
            let t = sp
                .get(rid.slot)
                .map_err(|_| StorageError::InvalidSlot { page: rid.page.0, slot: rid.slot })?;
            Ok(f(t))
        })?
    }

    /// Visits many tuples at once without copying them: `visit(i, bytes)`
    /// runs under the page pin for every `rids[i]` whose slot is live,
    /// each position exactly once, in no promised order. Positions are
    /// grouped per page by a sort, and every distinct page is pinned once
    /// through the pool's batched path
    /// ([`BufferPool::with_page_batch`]): N rids on one page cost one
    /// pin and one slotted-page parse, and the batch's misses share
    /// device round trips.
    ///
    /// A rid whose slot is no longer live is simply not visited (batch
    /// readers tolerate racing deletes the same way index→heap chases
    /// do); other errors propagate. `visit` runs with a frame latch
    /// held, so it must not call back into the engine.
    pub fn read_many(&self, rids: &[RecordId], mut visit: impl FnMut(usize, &[u8])) -> Result<()> {
        let mut order: Vec<usize> = (0..rids.len()).collect();
        order.sort_unstable_by_key(|&i| (rids[i].page, i));
        // Distinct pages, and where each one's positions start in `order`.
        let mut pages: Vec<PageId> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        for (at, &i) in order.iter().enumerate() {
            if pages.last() != Some(&rids[i].page) {
                pages.push(rids[i].page);
                starts.push(at);
            }
        }
        starts.push(order.len());
        let visited = self.pool.with_page_batch(&pages, |pi, p| -> Result<()> {
            let sp = SlottedPageRef::attach(p)?;
            for &i in &order[starts[pi]..starts[pi + 1]] {
                if let Ok(tuple) = sp.get(rids[i].slot) {
                    visit(i, tuple);
                }
            }
            Ok(())
        })?;
        visited.into_iter().collect()
    }

    /// Fetches many tuples at once: [`HeapFile::read_many`] collecting
    /// copies. Results are indexed like `rids`; a rid whose slot is no
    /// longer live reads as `None`.
    pub fn get_many(&self, rids: &[RecordId]) -> Result<Vec<Option<Vec<u8>>>> {
        let mut out: Vec<Option<Vec<u8>>> = vec![None; rids.len()];
        self.read_many(rids, |i, tuple| out[i] = Some(tuple.to_vec()))?;
        Ok(out)
    }

    /// Deletes the tuple at `rid`.
    pub fn delete(&self, rid: RecordId) -> Result<()> {
        self.pool.with_page_mut(rid.page, |p| {
            let mut sp = SlottedPage::attach(p)?;
            sp.delete(rid.slot)
                .map_err(|_| StorageError::InvalidSlot { page: rid.page.0, slot: rid.slot })
        })?
    }

    /// Overwrites the tuple at `rid`, which holds `expect`, with `new`
    /// of the same width (same RID afterwards). When the page is out of
    /// the pool the write waits below it as a slot patch
    /// ([`BufferPool::patch`]) and no page is read; otherwise the frame
    /// is written, joining the page's load if one is in flight, or the
    /// page is faulted as for any write when the store refuses. A slot
    /// found holding anything but `expect` (or `new`) is
    /// [`StorageError::InvalidSlot`] and left as it was; a patch finds
    /// out only when it is applied, and is dropped.
    pub fn overwrite(&self, rid: RecordId, expect: &[u8], new: &[u8]) -> Result<()> {
        if self.pool.patch(rid.page, rid.slot, expect, new) {
            return Ok(());
        }
        self.pool.with_page_mut(rid.page, |p| {
            if SlottedPage::attach(p)?.patch(rid.slot, expect, new) {
                Ok(())
            } else {
                Err(StorageError::InvalidSlot { page: rid.page.0, slot: rid.slot })
            }
        })?
    }

    /// Interchanges two rows of one width in one step: `tuple` goes into
    /// `hot`'s slot, and the row `hot` held moves into `row`'s slot,
    /// which holds `old`.
    ///
    /// `expect` is what the caller read at `hot`. When `hot` holds
    /// anything else by the time it is latched, when `row`'s slot holds
    /// anything but `old`, or when the two share a page or the widths
    /// differ, nothing is written and this returns `Ok(false)`. An
    /// error (a frame or a device read for either pin) also leaves
    /// both slots as they were.
    ///
    /// When `row`'s page is out of the pool, its side is the slot patch
    /// `(old → expect)` of [`HeapFile::overwrite`], handed over while
    /// `hot`'s frame is write-latched and checked, and only `hot`'s page
    /// is latched (a patch checks `old` only when it is applied, and is
    /// dropped if the slot holds anything else). Otherwise both frames
    /// are write-latched, in page-id order, before either slot is
    /// written. Either way no reader ever sees one slot written and the
    /// other not, and two swaps latching the same pages cannot
    /// deadlock: under a frame latch a swap takes only the other page's
    /// shard map and the store, never its latch, out of order.
    pub fn swap(
        &self,
        row: RecordId,
        tuple: &[u8],
        old: &[u8],
        hot: RecordId,
        expect: &[u8],
    ) -> Result<bool> {
        if row.page == hot.page || tuple.len() != expect.len() || old.len() != expect.len() {
            return Ok(false);
        }
        let patched = self.pool.with_page_mut(hot.page, |h| -> Result<Option<bool>> {
            let mut hot_page = SlottedPage::attach(h)?;
            if hot_page.get(hot.slot).ok() != Some(expect) {
                return Ok(Some(false));
            }
            if !self.pool.patch(row.page, row.slot, old, expect) {
                return Ok(None);
            }
            hot_page.update(hot.slot, tuple)?;
            Ok(Some(true))
        })??;
        if let Some(swapped) = patched {
            return Ok(swapped);
        }
        let (first, second) = if row.page < hot.page { (row, hot) } else { (hot, row) };
        self.pool.with_page_mut(first.page, |a| {
            self.pool.with_page_mut(second.page, |b| -> Result<bool> {
                let (at_row, at_hot) = if first == row { (a, b) } else { (b, a) };
                let mut hot_page = SlottedPage::attach(at_hot)?;
                if hot_page.get(hot.slot).ok() != Some(expect) {
                    return Ok(false);
                }
                let mut row_page = SlottedPage::attach(at_row)?;
                if row_page.get(row.slot).ok() != Some(old) {
                    return Ok(false);
                }
                // Equal widths: both writes are in place and cannot fail.
                hot_page.update(hot.slot, tuple)?;
                row_page.update(row.slot, expect)?;
                Ok(true)
            })?
        })?
    }

    /// Moves a tuple to the tail of the heap (append, then delete),
    /// returning its new address. This is the paper's clustering
    /// primitive. The copy lands before the original goes, so a failed
    /// append (no frame, a device error) leaves the tuple where every
    /// index still names it.
    pub fn relocate(&self, rid: RecordId) -> Result<RecordId> {
        let bytes = self.get(rid)?;
        let moved = self.insert(&bytes)?;
        self.delete(rid)?;
        Ok(moved)
    }

    /// Visits every live tuple as `(rid, bytes)` in page order. The
    /// callback returns `true` to keep walking; returning `false` stops
    /// the scan immediately, without touching the remaining pages.
    pub fn scan(&self, mut f: impl FnMut(RecordId, &[u8]) -> bool) -> Result<()> {
        for pid in self.page_ids() {
            let keep_going = self.pool.with_page(pid, |p| -> Result<bool> {
                let sp = SlottedPageRef::attach(p)?;
                for (slot, tuple) in sp.iter() {
                    if !f(RecordId::new(pid, slot), tuple) {
                        return Ok(false);
                    }
                }
                Ok(true)
            })??;
            if !keep_going {
                break;
            }
        }
        Ok(())
    }

    /// Total live tuples across all pages.
    pub fn live_tuple_count(&self) -> Result<usize> {
        let mut n = 0;
        for pid in self.page_ids() {
            n += self
                .pool
                .with_page(pid, |p| SlottedPageRef::attach(p).map(|sp| sp.live_count()))??;
        }
        Ok(n)
    }

    /// Mean fill factor across the heap's pages — the §3.1 utilization
    /// metric ("heap pages that contain as little as 2% of frequently
    /// queried data").
    pub fn avg_fill_factor(&self) -> Result<f64> {
        let pages = self.page_ids();
        if pages.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        for pid in &pages {
            total += self
                .pool
                .with_page(*pid, |p| SlottedPageRef::attach(p).map(|sp| sp.fill_factor()))??;
        }
        Ok(total / pages.len() as f64)
    }
}

/// Allocates an empty slotted page on `pool`.
fn new_slotted_page(pool: &BufferPool) -> Result<PageId> {
    let (id, ()) = pool.new_page_with(|p| {
        SlottedPage::init(p);
    })?;
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskManager, InMemoryDisk};

    fn heap() -> HeapFile {
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(512));
        let pool = Arc::new(BufferPool::new(disk, 16));
        HeapFile::create(pool).unwrap()
    }

    #[test]
    fn insert_get_round_trip() {
        let h = heap();
        let rid = h.insert(b"tuple-one").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"tuple-one");
    }

    #[test]
    fn spills_to_new_pages() {
        let h = heap();
        let mut rids = Vec::new();
        for i in 0..100u32 {
            rids.push(h.insert(&i.to_le_bytes()).unwrap());
        }
        assert!(h.page_count() > 1, "100 tuples should not fit one 512B page");
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap(), (i as u32).to_le_bytes());
        }
        assert_eq!(h.live_tuple_count().unwrap(), 100);
    }

    #[test]
    fn delete_then_get_fails() {
        let h = heap();
        let rid = h.insert(b"x").unwrap();
        h.delete(rid).unwrap();
        assert!(h.get(rid).is_err());
        assert_eq!(h.live_tuple_count().unwrap(), 0);
    }

    #[test]
    fn overwrite_in_place_preserves_rid() {
        let h = heap();
        let rid = h.insert(b"aaaaaaaa").unwrap();
        h.overwrite(rid, b"aaaaaaaa", b"bbbbbbbb").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"bbbbbbbb");
        // A stale expectation, or another width, writes nothing.
        assert!(h.overwrite(rid, b"aaaaaaaa", b"cccccccc").is_err());
        assert!(h.overwrite(rid, b"bbbbbbbb", b"cc").is_err());
        assert_eq!(h.get(rid).unwrap(), b"bbbbbbbb");
    }

    #[test]
    fn relocate_moves_to_tail() {
        let h = heap();
        let first = h.insert(b"hot-tuple").unwrap();
        for i in 0..80u32 {
            h.insert(&i.to_le_bytes()).unwrap();
        }
        let moved = h.relocate(first).unwrap();
        assert_ne!(first, moved);
        assert!(moved.page >= first.page);
        assert_eq!(h.get(moved).unwrap(), b"hot-tuple");
        assert!(h.get(first).is_err(), "old rid must be dead");
    }

    #[test]
    fn swap_interchanges_two_rows_and_checks_the_hot_slot() {
        let h = heap();
        let rids: Vec<RecordId> =
            (0..100u32).map(|i| h.insert(&i.to_le_bytes()).unwrap()).collect();
        let (row, hot) = (rids[0], rids[99]);
        assert_ne!(row.page, hot.page, "premise: two pages");
        let (old, cold) = (0u32.to_le_bytes(), 99u32.to_le_bytes());
        // A stale expectation at either slot writes nothing.
        assert!(!h.swap(row, b"new!", &old, hot, &7u32.to_le_bytes()).unwrap());
        assert!(!h.swap(row, b"new!", &7u32.to_le_bytes(), hot, &cold).unwrap());
        assert_eq!(h.get(row).unwrap(), old);
        assert_eq!(h.get(hot).unwrap(), cold);
        assert!(h.swap(row, b"new!", &old, hot, &cold).unwrap());
        assert_eq!(h.get(hot).unwrap(), b"new!");
        assert_eq!(h.get(row).unwrap(), cold, "the cold row took the old slot");
        assert_eq!(h.live_tuple_count().unwrap(), 100, "no row gained or lost");
        // Same page, or a width that would not fit in place: refused.
        assert!(!h.swap(rids[0], b"x!!!", &old, rids[1], &1u32.to_le_bytes()).unwrap());
        assert!(!h.swap(row, b"wider", &cold, hot, b"new!").unwrap());
        assert_eq!(h.get(hot).unwrap(), b"new!");
    }

    #[test]
    fn a_swap_whose_row_page_is_out_of_the_pool_patches_that_side() {
        let h = heap();
        let rids: Vec<RecordId> =
            (0..100u32).map(|i| h.insert(&i.to_le_bytes()).unwrap()).collect();
        let (row, hot) = (rids[0], rids[99]);
        let (old, cold) = (0u32.to_le_bytes(), 99u32.to_le_bytes());
        h.pool().flush_all().unwrap();
        h.pool().evict_page(row.page).unwrap();
        let reads = h.pool().disk().stats().reads;
        assert!(h.swap(row, b"new!", &old, hot, &cold).unwrap());
        assert_eq!(h.pool().disk().stats().reads, reads, "the row's page was not read");
        assert!(!h.pool().contains(row.page));
        assert_eq!(h.pool().stats().patches_deferred, 1);
        assert_eq!(h.get(hot).unwrap(), b"new!");
        assert_eq!(h.get(row).unwrap(), cold, "the load applied the row's side");
        assert_eq!(h.live_tuple_count().unwrap(), 100);
    }

    #[test]
    fn scan_visits_everything_once() {
        let h = heap();
        let mut expect = std::collections::HashSet::new();
        for i in 0..50u32 {
            let rid = h.insert(&i.to_le_bytes()).unwrap();
            expect.insert(rid);
        }
        let mut seen = std::collections::HashSet::new();
        h.scan(|rid, _| {
            assert!(seen.insert(rid), "duplicate rid {rid}");
            true
        })
        .unwrap();
        assert_eq!(seen, expect);
    }

    #[test]
    fn scan_early_exit_stops_the_walk() {
        let h = heap();
        for i in 0..100u32 {
            h.insert(&i.to_le_bytes()).unwrap();
        }
        let mut visited = 0;
        h.scan(|_, _| {
            visited += 1;
            visited < 7
        })
        .unwrap();
        assert_eq!(visited, 7, "scan must stop as soon as the callback says so");
    }

    #[test]
    fn get_many_matches_point_gets() {
        let h = heap();
        let mut rids = Vec::new();
        for i in 0..150u32 {
            rids.push(h.insert(&i.to_le_bytes()).unwrap());
        }
        // Delete a few so the batch sees dead slots.
        h.delete(rids[10]).unwrap();
        h.delete(rids[77]).unwrap();
        // Unsorted, with duplicates.
        let asked: Vec<RecordId> =
            vec![rids[140], rids[3], rids[10], rids[3], rids[77], rids[0], rids[149]];
        let got = h.get_many(&asked).unwrap();
        assert_eq!(got.len(), asked.len());
        for (i, rid) in asked.iter().enumerate() {
            assert_eq!(got[i], h.get(*rid).ok(), "position {i}");
        }
    }

    #[test]
    fn read_many_visits_each_live_position_exactly_once() {
        let h = heap();
        let rids: Vec<RecordId> =
            (0..150u32).map(|i| h.insert(&i.to_le_bytes()).unwrap()).collect();
        h.delete(rids[10]).unwrap();
        h.delete(rids[77]).unwrap();
        // Unsorted across pages, duplicated rids, dead slots.
        let ask = [140usize, 3, 10, 3, 77, 0, 149, 140, 75, 76];
        let asked: Vec<RecordId> = ask.iter().map(|&i| rids[i]).collect();
        assert!(asked.windows(2).any(|w| w[0].page > w[1].page), "premise: unsorted pages");
        let mut visits = vec![0u32; asked.len()];
        h.read_many(&asked, |pos, bytes| {
            assert_eq!(bytes, (ask[pos] as u32).to_le_bytes(), "position {pos} sees its own row");
            visits[pos] += 1;
        })
        .unwrap();
        let want: Vec<u32> = ask.iter().map(|&i| u32::from(i != 10 && i != 77)).collect();
        assert_eq!(visits, want, "live positions once each, dead slots never");
        h.read_many(&[], |_, _| panic!("nothing to visit")).unwrap();
    }

    #[test]
    fn get_many_under_memory_pressure() {
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(512));
        let pool = Arc::new(BufferPool::new(disk, 2));
        let h = HeapFile::create(pool).unwrap();
        let rids: Vec<RecordId> =
            (0..200u32).map(|i| h.insert(&i.to_le_bytes()).unwrap()).collect();
        let got = h.get_many(&rids).unwrap();
        for (i, t) in got.iter().enumerate() {
            assert_eq!(t.as_deref(), Some(&(i as u32).to_le_bytes()[..]));
        }
    }

    #[test]
    fn append_many_matches_insert_loop() {
        let h = heap();
        let tuples: Vec<Vec<u8>> = (0..150u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let rids = h.append_many(&tuples).unwrap();
        assert_eq!(rids.len(), tuples.len());
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap(), tuples[i], "position {i}");
        }
        assert!(h.page_count() > 1, "batch must spill across pages");
        assert_eq!(h.live_tuple_count().unwrap(), 150);
        // Appends continue on the same heap, mixing freely with singles.
        let solo = h.insert(b"solo").unwrap();
        let more = h.append_many(&[b"x".to_vec(), b"y".to_vec()]).unwrap();
        assert_eq!(h.get(solo).unwrap(), b"solo");
        assert_eq!(h.get(more[1]).unwrap(), b"y");
    }

    #[test]
    fn append_many_empty_batch_is_noop() {
        let h = heap();
        let rids = h.append_many(&Vec::<Vec<u8>>::new()).unwrap();
        assert!(rids.is_empty());
        assert_eq!(h.live_tuple_count().unwrap(), 0);
    }

    #[test]
    fn append_many_oversized_tuple_fails_after_earlier_appends() {
        let h = heap();
        let batch: Vec<Vec<u8>> = vec![b"ok-1".to_vec(), vec![1u8; 1000], b"ok-2".to_vec()];
        assert!(matches!(h.append_many(&batch), Err(StorageError::TupleTooLarge { .. })));
        // The tuple before the oversized one landed, like a loop would.
        assert_eq!(h.live_tuple_count().unwrap(), 1);
        let rid = h.insert(b"still-usable").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"still-usable");
    }

    #[test]
    fn avg_fill_factor_rises_with_content() {
        let h = heap();
        let empty = h.avg_fill_factor().unwrap();
        for i in 0..40u64 {
            h.insert(&i.to_le_bytes()).unwrap();
        }
        let filled = h.avg_fill_factor().unwrap();
        assert!(filled > empty);
    }

    #[test]
    fn works_under_memory_pressure() {
        // Pool smaller than the heap: every op may trigger eviction.
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(512));
        let pool = Arc::new(BufferPool::new(disk, 2));
        let h = HeapFile::create(pool).unwrap();
        let mut rids = Vec::new();
        for i in 0..200u32 {
            rids.push(h.insert(&i.to_le_bytes()).unwrap());
        }
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap(), (i as u32).to_le_bytes());
        }
    }

    #[test]
    fn oversized_tuple_errors_cleanly() {
        let h = heap();
        let big = vec![1u8; 1000];
        assert!(matches!(h.insert(&big), Err(StorageError::TupleTooLarge { .. })));
        // heap still usable
        let rid = h.insert(b"ok").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"ok");
    }
}

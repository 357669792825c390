//! Swap on update: hot rows gather as updates touch them (§3.1's
//! clustering, done online, in place and without a background thread).
//!
//! Appended rows sit where they were loaded, so a hot row shares its
//! heap page with cold ones and the pool pays a whole page for it. An
//! update cannot avoid its row's page: whatever the leaf cache holds, it
//! reads the row there and writes it back. So the table keeps a *hot
//! set* of heap pages, and an update that has just faulted its row's
//! page P, when P is not in the set, swaps the row with a cold row of a
//! resident hot page H: the new tuple goes into H's slot, and the cold
//! row moves into the row's old slot on P ([`HeapFile::swap`]). Tuples
//! are fixed-width per table, so the two slots interchange: no holes, no
//! forwarding, no new pages, and the heap's size cannot move.
//!
//! * **The set** fills with the first pages updates fault, up to half
//!   the heap pool's frames, and keeps them. One reference bit per slot
//!   (sized from the tuple width) says an update touched the row since
//!   the clock last passed; only updates set bits, because a reader's
//!   hot row is one the leaf cache answers. The clock that picks the
//!   cold row skips every hot page the pool has evicted.
//! * **Intents.** The swapper *tries* the cold row's key on every index
//!   and the updated row's keys on every index but the one the update
//!   came through (whose intents the update already holds). If any is
//!   held, the update falls back to its in-place overwrite. A swapper
//!   never parks, so it adds no edge to any wait cycle.
//! * **Repointing.** Both rows' entries are repointed in the plan's own
//!   `insert_many`: an overwritten pointer drops its leaf-cache entry
//!   under the leaf latch, and the latch's new stamp refuses a populate
//!   that raced the swap. The swapper holds both rows' intents from
//!   before its heap swap until every index is repointed, which is what
//!   lets a reader that chased a stale pointer retry exactly once
//!   ([`Table::fetch_verified`]).
//!
//! [`HeapFile::swap`]: nbb_storage::heap::HeapFile::swap

use super::write::RowChange;
use super::{Index, Table};
use nbb_btree::IntentGuard;
use nbb_storage::lockrank;
use nbb_storage::rid::RecordId;
use nbb_storage::PageId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A table's hot heap pages, their reference bits and the clock.
pub(super) struct HotSet {
    /// Most pages the set holds: half the heap pool's frames.
    bound: usize,
    /// Reference bits per page: the most rows a heap page holds.
    slots: usize,
    clock: Mutex<Clock>,
    swaps: AtomicU64,
}

#[derive(Default)]
struct Clock {
    pages: Vec<PageId>,
    at: HashMap<PageId, usize>,
    /// The reference bit of slot `s` of page `p` is bit `p * slots + s`.
    bits: Vec<u64>,
    /// The next bit the clock looks at.
    hand: usize,
}

impl HotSet {
    /// A set of at most half of `heap_frames` pages whose rows take
    /// `slots` slots a page.
    pub(super) fn new(heap_frames: usize, slots: usize) -> Self {
        HotSet {
            bound: heap_frames / 2,
            slots,
            clock: Mutex::with_rank(lockrank::TABLE_HOT_SET, Clock::default()),
            swaps: AtomicU64::new(0),
        }
    }

    /// Whether updates can swap at all: a pool of one frame leaves no
    /// room for a hot page beside the page an update faults.
    pub(super) fn enabled(&self) -> bool {
        self.bound > 0 && self.slots > 0
    }

    /// Rows swapped onto a hot page so far.
    pub(super) fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// One plan's updated rows, each with whether its update faulted
    /// the row's page: a row on a hot page sets its bit; a faulted page
    /// joins the set while there is room; once the set is full, a
    /// faulted row is handed the hot slot it should swap into, its bit
    /// already set so that no other swapper picks it. Indexed like
    /// `rows`; `resident` says whether the pool holds a page.
    fn place(
        &self,
        rows: &[(RecordId, bool)],
        resident: impl Fn(PageId) -> bool,
    ) -> Vec<Option<RecordId>> {
        let mut clock = self.clock.lock();
        let mut place = |(rid, faulted): (RecordId, bool)| {
            let page = match clock.at.get(&rid.page).copied() {
                Some(page) => page,
                None if !faulted => return None,
                None if clock.pages.len() == self.bound => {
                    return clock.victim(self.slots, &resident);
                }
                None => {
                    let page = clock.pages.len();
                    clock.at.insert(rid.page, page);
                    clock.pages.push(rid.page);
                    clock.bits.resize(((page + 1) * self.slots).div_ceil(64), 0);
                    page
                }
            };
            let slot = usize::from(rid.slot);
            if slot < self.slots {
                let at = page * self.slots + slot;
                clock.bits[at / 64] |= 1 << (at % 64);
            }
            None
        };
        rows.iter().map(|&row| place(row)).collect()
    }
}

impl Clock {
    /// The first slot, from the hand on, whose bit is clear, on a page
    /// the pool holds; every set bit passed on the way is cleared, and
    /// the slot found is set. At most one turn: `None` when every
    /// resident slot was touched since the last.
    fn victim(&mut self, slots: usize, resident: impl Fn(PageId) -> bool) -> Option<RecordId> {
        let total = self.pages.len() * slots;
        let (mut checked, mut steps) = (None, 0);
        while steps <= total && total > 0 {
            let (page, slot) = (self.hand / slots, self.hand % slots);
            if checked != Some(page) {
                checked = Some(page);
                if !resident(self.pages[page]) {
                    steps += slots - slot;
                    self.hand = (page + 1) % self.pages.len() * slots;
                    continue;
                }
            }
            let at = self.hand;
            steps += 1;
            self.hand = (at + 1) % total;
            // A set bit is cleared as the hand passes; a clear one is
            // set and taken.
            self.bits[at / 64] ^= 1 << (at % 64);
            if self.bits[at / 64] & 1 << (at % 64) != 0 {
                return Some(RecordId::new(self.pages[page], slot as u16));
            }
        }
        None
    }
}

impl Table {
    /// The swap step of [`Table::apply`], before the in-place
    /// overwrites: every updated row of `plan` (resolved through `via`)
    /// that the hot set hands a slot is swapped there when every intent
    /// the swap needs is free, and its change records the move — `rid`
    /// names the hot slot and `cold` the row that took its old one.
    /// Returns the intents the swaps took, which the caller holds until
    /// every index is repointed. A row that does not swap is left to
    /// the in-place path.
    pub(super) fn gather_hot<'i>(
        &self,
        via: &Index,
        indexes: &'i [Arc<Index>],
        plan: &mut [RowChange<'_>],
    ) -> Vec<IntentGuard<'i>> {
        let updates: Vec<usize> =
            (0..plan.len()).filter(|&i| plan[i].old.is_some() && plan[i].new.is_some()).collect();
        if updates.is_empty() || !self.hot.enabled() {
            return Vec::new();
        }
        let rows: Vec<(RecordId, bool)> =
            updates.iter().map(|&i| (plan[i].rid, plan[i].faulted)).collect();
        let pool = self.heap.pool();
        let picks = self.hot.place(&rows, |page| pool.contains(page));
        let mut held = Vec::new();
        for (&i, hot) in updates.iter().zip(picks) {
            let Some(hot) = hot else { continue };
            // A slot freed since the clock's last turn is no row to swap.
            let Ok(cold) = self.heap.get(hot) else { continue };
            let Some(guards) = self.swap_intents(via, indexes, plan, i, (hot, &cold)) else {
                continue;
            };
            let c = &plan[i];
            let Some(new) = c.new else { continue };
            // Not swapped (the hot slot changed, or a pin failed): the
            // in-place overwrite runs instead and reports its own errors.
            if !self.heap.swap(c.rid, new, hot, &cold).unwrap_or(false) {
                continue;
            }
            held.extend(guards);
            let c = &mut plan[i];
            c.cold = Some((c.rid, cold));
            c.rid = hot;
            self.hot.swaps.fetch_add(1, Ordering::Relaxed);
        }
        held
    }

    /// The intents swapping `plan[i]` with `cold`, read at `hot`, needs,
    /// every one tried and none waited for: `cold`'s key on every index,
    /// and the updated row's old and new keys on every index but `via`.
    /// `None` when one is held, when `cold` shares a key with any row of
    /// the plan (an index batch must not name one key twice), or when
    /// an index does not name `hot` for `cold`'s key: `insert_many`
    /// takes no intents and appends before it indexes, so a row it has
    /// appended may not be indexed yet, and must not move.
    fn swap_intents<'i>(
        &self,
        via: &Index,
        indexes: &'i [Arc<Index>],
        plan: &[RowChange<'_>],
        i: usize,
        (hot, cold): (RecordId, &[u8]),
    ) -> Option<Vec<IntentGuard<'i>>> {
        let mut guards = Vec::new();
        for idx in indexes {
            let key = &idx.spec.key;
            let cold_key = key.extract(cold);
            let mut tuples = plan.iter().flat_map(|c| c.old.as_deref().into_iter().chain(c.new));
            if tuples.any(|t| key.extract(t) == cold_key) {
                return None;
            }
            let intents = idx.tree.intents();
            guards.push(intents.try_acquire(cold_key)?);
            if idx.tree.get(cold_key).ok()? != Some(hot.to_u64()) {
                return None;
            }
            if !std::ptr::eq(idx.as_ref(), via) {
                let (old, new) = (plan[i].old.as_deref()?, plan[i].new?);
                guards.push(intents.try_acquire(key.extract(new))?);
                if key.extract(old) != key.extract(new) {
                    guards.push(intents.try_acquire(key.extract(old))?);
                }
            }
        }
        Some(guards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(page: u64, slot: u16) -> RecordId {
        RecordId::new(PageId(page), slot)
    }

    #[test]
    fn the_set_fills_with_faulted_pages_then_hands_out_cold_slots() {
        let hot = HotSet::new(4, 3); // two pages of three slots
        let all = |_| true;
        // Unfaulted rows on unknown pages are left alone.
        assert_eq!(hot.place(&[(rid(9, 0), false)], all), vec![None]);
        assert_eq!(hot.place(&[(rid(1, 0), true), (rid(2, 2), true)], all), vec![None, None]);
        // Full: a faulted row gets the first clear bit, page 1 slot 1.
        assert_eq!(hot.place(&[(rid(3, 0), true)], all), vec![Some(rid(1, 1))]);
        // A touch on a hot page sets its bit; the hand moves on.
        assert_eq!(hot.place(&[(rid(1, 2), false)], all), vec![None]);
        assert_eq!(hot.place(&[(rid(3, 1), true)], all), vec![Some(rid(2, 0))]);
        assert_eq!(hot.place(&[(rid(3, 1), true)], all), vec![Some(rid(2, 1))]);
        // Page 2 slot 2 is set (its admission): cleared and passed.
        // Page 1 slot 0 was cleared by the first pick: taken.
        assert_eq!(hot.place(&[(rid(3, 1), true)], all), vec![Some(rid(1, 0))]);
    }

    #[test]
    fn the_clock_skips_evicted_pages_and_gives_up_after_one_turn() {
        let hot = HotSet::new(4, 2);
        hot.place(&[(rid(1, 0), true), (rid(2, 0), true)], |_| true);
        let only_2 = |p: PageId| p == PageId(2);
        assert_eq!(hot.place(&[(rid(5, 0), true)], only_2), vec![Some(rid(2, 1))]);
        assert_eq!(hot.place(&[(rid(5, 0), true)], only_2), vec![Some(rid(2, 0))]);
        assert_eq!(hot.place(&[(rid(5, 0), true)], |_| false), vec![None], "nothing resident");
        // A one-frame pool has no room for a hot page.
        assert!(!HotSet::new(1, 60).enabled());
    }
}

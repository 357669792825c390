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
//!   the heap pool's frames, and keeps them. Once it is full, a clock
//!   hand over the set's slots hands each faulting update the slot it
//!   points at, skipping every hot page the pool has evicted, and moves
//!   one slot on.
//! * **Admission by frequency** (TinyLFU, as the leaf cache admits its
//!   entries: [`nbb_btree::cache::Sketch`]). Every updated row is
//!   counted in the set's sketch by the key of the index the update
//!   came through (updates through two indexes split a row's count);
//!   the sketch has 16 counters per hot slot, is allocated by the first
//!   update, and halves as the clock's update count passes its sample.
//!   A faulting update reads [`ADMISSION_SAMPLE`] slots of the hot page
//!   it was handed, from its slot on, in one batched read and with no
//!   lock held, skipping empty slots, and swaps only when its row is
//!   strictly more frequent than the least frequent row sampled (ties
//!   go to the slot nearest the hand), which it displaces; otherwise
//!   it overwrites in place. A swap costs the moved rows their
//!   leaf-cache entries, so refusing the swaps that would displace a
//!   row updated as often is what keeps the hot pages hot: on the
//!   benchmark's `write_mix` replay it swaps 64 rows per thousand
//!   requests where swapping every faulting update swapped 330, and the
//!   heap reads 0.58 pages per request where it read 0.67.
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
use nbb_btree::cache::{Sketch, ADMISSION_SAMPLE};
use nbb_btree::IntentGuard;
use nbb_storage::lockrank;
use nbb_storage::rid::RecordId;
use nbb_storage::PageId;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A table's hot heap pages, the clock over them and the sketch that
/// admits rows to them.
pub(super) struct HotSet {
    /// Most pages the set holds: half the heap pool's frames.
    bound: usize,
    /// The most rows a heap page holds.
    slots: usize,
    clock: Mutex<Clock>,
    /// Recent updates per row, by the key each came through.
    sketch: Sketch,
    swaps: AtomicU64,
}

#[derive(Default)]
struct Clock {
    pages: Vec<PageId>,
    members: HashSet<PageId>,
    /// The next slot the clock looks at: slot `s` of `pages[p]` is
    /// `p * slots + s`.
    hand: usize,
    /// Rows recorded in the sketch: paces its halvings.
    updates: u64,
}

/// What an admission's sample read calls for each live sampled slot:
/// its position in the sample and the row it holds.
type Visit<'v> = dyn FnMut(usize, &[u8]) + 'v;

/// The sketch id of a row updated through a key: the key's bytes,
/// hashed.
fn key_id(key: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(key);
    h.finish()
}

impl HotSet {
    /// A set of at most half of `heap_frames` pages whose rows take
    /// `slots` slots a page; its sketch has 16 counters per hot slot
    /// (the leaf cache's rule per entry), allocated by the first update.
    pub(super) fn new(heap_frames: usize, slots: usize) -> Self {
        let bound = heap_frames / 2;
        HotSet {
            bound,
            slots,
            clock: Mutex::with_rank(lockrank::TABLE_HOT_SET, Clock::default()),
            sketch: Sketch::new(bound.saturating_mul(slots).saturating_mul(16)),
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
    /// the row's page: a faulted page joins the set while there is
    /// room; once the set is full, a faulted row on a page outside it
    /// is handed the first hot slot, from the hand on, on a page the
    /// pool holds (`resident`), or `None` after one turn finds none: the
    /// slot its admission samples from. Indexed like `rows`. Every row
    /// counts towards the sketch's halvings.
    fn place(
        &self,
        rows: &[(RecordId, bool)],
        resident: impl Fn(PageId) -> bool,
    ) -> Vec<Option<RecordId>> {
        let mut clock = self.clock.lock();
        let before = clock.updates;
        clock.updates += rows.len() as u64;
        let picks = rows
            .iter()
            .map(|&(rid, faulted)| {
                if !faulted || clock.members.contains(&rid.page) {
                    None
                } else if clock.pages.len() < self.bound {
                    clock.members.insert(rid.page);
                    clock.pages.push(rid.page);
                    None
                } else {
                    clock.victim(self.slots, &resident)
                }
            })
            .collect();
        drop(clock);
        self.sketch.age(before, rows.len() as u64);
        picks
    }

    /// The slot `id`'s row should swap into, and the row it holds: the
    /// least frequent of the [`ADMISSION_SAMPLE`] slots of `from`'s page
    /// read from `from` on (wrapping within the page), empty ones
    /// skipped and ties going to the first, if `id` is strictly more
    /// frequent. `None` when it is not, or when every sampled slot is
    /// empty. `read` visits the live ones of the slots it is given by
    /// position, as [`HeapFile::read_many`] does; `key_id` names a
    /// sampled row in the sketch.
    ///
    /// [`HeapFile::read_many`]: nbb_storage::heap::HeapFile::read_many
    fn coldest(
        &self,
        from: RecordId,
        id: u64,
        read: impl FnOnce(&[RecordId], &mut Visit<'_>),
        key_id: impl Fn(&[u8]) -> u64,
    ) -> Option<(RecordId, Vec<u8>)> {
        let start = usize::from(from.slot);
        let sample: Vec<RecordId> = (0..ADMISSION_SAMPLE.min(self.slots))
            .map(|k| RecordId::new(from.page, ((start + k) % self.slots) as u16))
            .collect();
        let (mut least, mut cold): (Option<(u8, usize)>, Vec<u8>) = (None, Vec::new());
        read(&sample, &mut |k, tuple| {
            let freq = self.sketch.estimate(key_id(tuple));
            if least.is_none_or(|(f, _)| freq < f) {
                least = Some((freq, k));
                cold.clear();
                cold.extend_from_slice(tuple);
            }
        });
        let (freq, k) = least?;
        (self.sketch.estimate(id) > freq).then(|| (sample[k], cold))
    }
}

impl Clock {
    /// The first slot from the hand on whose page the pool holds; the
    /// hand moves one slot past it. At most one turn: `None` when no
    /// hot page is resident.
    fn victim(&mut self, slots: usize, resident: impl Fn(PageId) -> bool) -> Option<RecordId> {
        let n = self.pages.len();
        let page = self.hand / slots;
        let step = (0..n).find(|&step| resident(self.pages[(page + step) % n]))?;
        // A page skipped is skipped whole: the hand starts the next at
        // its first slot.
        let at = if step == 0 { self.hand } else { (page + step) % n * slots };
        self.hand = (at + 1) % (n * slots);
        Some(RecordId::new(self.pages[at / slots], (at % slots) as u16))
    }
}

impl Table {
    /// The swap step of [`Table::apply`], before the in-place
    /// overwrites: every updated row of `plan` (resolved through `via`)
    /// is counted in the hot set's sketch; one that faulted its page is
    /// swapped onto the hot page the set hands it when it is more
    /// frequent than the row it would displace there and every intent
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
        let key = &via.spec.key;
        let id_of = |tuple: &[u8]| key_id(key.extract(tuple));
        let ids: Vec<u64> = updates.iter().map(|&i| plan[i].new.map_or(0, id_of)).collect();
        for &id in &ids {
            self.hot.sketch.record(id);
        }
        let rows: Vec<(RecordId, bool)> =
            updates.iter().map(|&i| (plan[i].rid, plan[i].faulted)).collect();
        let pool = self.heap.pool();
        let picks = self.hot.place(&rows, |page| pool.contains(page));
        let mut held = Vec::new();
        for ((&i, id), from) in updates.iter().zip(ids).zip(picks) {
            let Some(from) = from else { continue };
            // A failed read leaves the row to the in-place path, which
            // reports its own errors.
            let read = |rids: &[RecordId], visit: &mut Visit<'_>| {
                let _ = self.heap.read_many(rids, visit);
            };
            let Some((hot, cold)) = self.hot.coldest(from, id, read, id_of) else { continue };
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

    /// A hot page whose slot `s` holds a row whose tuple is its sketch
    /// id `rows[s]` (`None`: an empty slot), read as
    /// [`HeapFile::read_many`] reads: live slots only, by position.
    ///
    /// [`HeapFile::read_many`]: nbb_storage::heap::HeapFile::read_many
    fn page_of(rows: &[Option<u64>]) -> impl FnOnce(&[RecordId], &mut Visit<'_>) + '_ {
        move |rids, visit| {
            for (k, r) in rids.iter().enumerate() {
                if let Some(Some(id)) = rows.get(usize::from(r.slot)) {
                    visit(k, &id.to_le_bytes());
                }
            }
        }
    }

    fn id_of(tuple: &[u8]) -> u64 {
        u64::from_le_bytes(tuple.try_into().unwrap())
    }

    /// A set of one-slot-per-sample pages whose sketch has recorded
    /// each `(id, times)`.
    fn recorded(counts: &[(u64, usize)]) -> HotSet {
        let hot = HotSet::new(64, ADMISSION_SAMPLE);
        for &(id, times) in counts {
            for _ in 0..times {
                hot.sketch.record(id);
            }
        }
        for &(id, times) in counts {
            assert_eq!(usize::from(hot.sketch.estimate(id)), times, "premise: no collision");
        }
        hot
    }

    #[test]
    fn the_set_fills_with_faulted_pages_then_hands_out_slots_in_turn() {
        let hot = HotSet::new(4, 3); // two pages of three slots
        let all = |_| true;
        // Unfaulted rows on pages outside the set are left alone.
        assert_eq!(hot.place(&[(rid(9, 0), false)], all), vec![None]);
        assert_eq!(hot.place(&[(rid(1, 0), true), (rid(2, 2), true)], all), vec![None, None]);
        // Full: each faulted row is handed the slot at the hand, which
        // moves one slot on.
        let faults = [(rid(3, 0), true), (rid(4, 0), true), (rid(3, 1), true)];
        assert_eq!(
            hot.place(&faults, all),
            vec![Some(rid(1, 0)), Some(rid(1, 1)), Some(rid(1, 2))]
        );
        // A row on a hot page, faulted or not, is handed none, and the
        // hand does not move for it.
        assert_eq!(hot.place(&[(rid(2, 1), true), (rid(1, 0), false)], all), vec![None, None]);
        assert_eq!(hot.place(&[(rid(5, 0), true)], all), vec![Some(rid(2, 0))]);
        hot.place(&[(rid(5, 0), true), (rid(5, 0), true)], all);
        assert_eq!(hot.place(&[(rid(5, 0), true)], all), vec![Some(rid(1, 0))], "a full turn");
    }

    #[test]
    fn the_clock_skips_evicted_pages_and_gives_up_after_one_turn() {
        let hot = HotSet::new(6, 2); // three pages of two slots
        hot.place(&[(rid(1, 0), true), (rid(2, 0), true), (rid(3, 0), true)], |_| true);
        let only_2 = |p: PageId| p == PageId(2);
        // Page 1 is skipped whole, and so is page 3 after page 2's
        // second slot.
        assert_eq!(hot.place(&[(rid(5, 0), true)], only_2), vec![Some(rid(2, 0))]);
        assert_eq!(hot.place(&[(rid(5, 0), true)], only_2), vec![Some(rid(2, 1))]);
        assert_eq!(hot.place(&[(rid(5, 0), true)], only_2), vec![Some(rid(2, 0))]);
        assert_eq!(hot.place(&[(rid(5, 0), true)], |_| false), vec![None], "nothing resident");
        // A one-frame pool has no room for a hot page.
        assert!(!HotSet::new(1, 60).enabled());
    }

    #[test]
    fn updates_pace_the_sketchs_halvings() {
        let hot = HotSet::new(4, 3); // the sketch's least: 128 counters
        let sample = 10 * 128 / 4;
        for _ in 0..6 {
            hot.sketch.record(7);
        }
        hot.place(&vec![(rid(9, 0), false); sample - 1], |_| true);
        assert_eq!(hot.sketch.estimate(7), 6);
        hot.place(&[(rid(9, 0), false)], |_| true);
        assert_eq!(hot.sketch.estimate(7), 3, "the update that reaches the sample halves");
    }

    #[test]
    fn a_swap_is_refused_when_the_row_is_no_more_frequent() {
        let rows: Vec<Option<u64>> = (101..=108).map(Some).collect();
        let mut counts: Vec<(u64, usize)> = (101..=108).map(|id| (id, 2)).collect();
        counts.push((200, 2));
        let hot = recorded(&counts);
        assert_eq!(hot.coldest(rid(7, 0), 200, page_of(&rows), id_of), None, "a tie");
        let hot = recorded(&counts[..8]);
        assert_eq!(hot.coldest(rid(7, 0), 200, page_of(&rows), id_of), None, "less frequent");
    }

    #[test]
    fn a_swap_is_taken_when_the_row_is_more_frequent() {
        let rows: Vec<Option<u64>> = (101..=108).map(Some).collect();
        let mut counts: Vec<(u64, usize)> = (101..=108).map(|id| (id, 3)).collect();
        counts[4].1 = 1; // slot 4's row is the least frequent
        counts.push((200, 2));
        let hot = recorded(&counts);
        let taken = hot.coldest(rid(7, 0), 200, page_of(&rows), id_of);
        assert_eq!(taken, Some((rid(7, 4), 105u64.to_le_bytes().to_vec())));
    }

    #[test]
    fn empty_sampled_slots_are_skipped() {
        // Slots 0, 3 and 6 are empty: counted as never updated, they
        // would let a row updated once displace rows updated twice.
        let rows: Vec<Option<u64>> = (0..8).map(|s| (s % 3 != 0).then_some(100 + s)).collect();
        let mut counts: Vec<(u64, usize)> = rows.iter().flatten().map(|&id| (id, 2)).collect();
        counts.push((200, 2));
        let hot = recorded(&counts);
        assert_eq!(hot.coldest(rid(7, 0), 200, page_of(&rows), id_of), None);
        hot.sketch.record(200);
        let taken = hot.coldest(rid(7, 0), 200, page_of(&rows), id_of);
        assert_eq!(taken, Some((rid(7, 1), 101u64.to_le_bytes().to_vec())), "the first live slot");
        let taken = hot.coldest(rid(7, 5), 200, page_of(&rows), id_of);
        assert_eq!(taken, Some((rid(7, 5), 105u64.to_le_bytes().to_vec())), "from the hand on");
        // A page of empty slots has no row to swap with.
        assert_eq!(hot.coldest(rid(7, 0), 200, page_of(&[None; 8]), id_of), None);
    }
}

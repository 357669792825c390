//! The index cache (§2.1): recycling B+Tree free space as a tuple cache.
//!
//! The free region of a leaf (Figure 1) is carved into *slots* whose
//! start offsets are absolute multiples of the cache entry size, so slot
//! addresses are stable as the key/directory regions grow and shrink. A
//! slot is **usable** only while it lies entirely inside the free region;
//! region growth silently kills peripheral slots ("key inserts freely
//! overwrite the periphery of the cache space").
//!
//! Each entry is `tuple_id (u64, nonzero) ‖ payload (fixed width)`. A
//! zeroed slot is empty — which is why every byte entering the free
//! region is zeroed by the node layer. The cache never looks inside a
//! payload; the table layer (`nbb-core`) decides what it holds. When
//! the entry fits a half-full leaf many times over, the payload is
//! **every non-key byte of the tuple**: the key already lives in the
//! leaf, so one entry answers a full-row read (key bytes put back at
//! their offset) as well as any projection (fields sliced out). A
//! wider tuple's entry holds only the projected fields.
//!
//! Placement policy (§2.1.1):
//! * slots are ranked by distance from the stable point
//!   `S = K/(K+D)·P` ([`crate::node::stable_point`]) and grouped into
//!   *buckets* of `N` slots (rings of `N/2` on each side);
//! * a new item goes to a uniformly random free slot, or — when none is
//!   free — evicts a random item from the outermost occupied bucket;
//! * on a hit, the item is swapped with a random slot of the adjacent
//!   bucket closer to `S`, so hot items migrate to the most stable
//!   region and are overwritten last.
//!
//! Promotion stays because it was measured to pay where the paper says
//! it should: where key inserts eat the free region around a skewed
//! read stream. On a 200,000-key tree at 0.68 fill, with one random-key
//! insert per scrambled-Zipf 4-key read, it lifts the hit ratio from
//! 0.652 to 0.708 (`tests/promotion_replay.rs` pins it); at 0.5 fill
//! with two inserts per read, from 0.728 to 0.760. The benchmark's
//! workloads insert only at the right edge, and there it buys ≤ 0.010.
//!
//! A leaf's cache is **trusted by its residency alone**: it is read
//! only while the page's mark ([`nbb_storage::page::Page::marked`]) is
//! up, and only a populate's reset raises it. Cache writes never dirty
//! a frame, so a page read back from a device may hold entries older
//! than the memory that was evicted; every load clears the mark, and
//! the first populate of a residency zeroes the cache before storing.
//! A restart is such a load, so no index-wide epoch is kept: §2.1.2's
//! `CSNidx`, stamped into each page, guarded nothing the mark does not.
//!
//! Consistency is kept **at the writer**, not by §2.1.2's lazy
//! predicate log: every row change already resolves through the index
//! it must fix, so it fixes the one entry it stales under that leaf's
//! latch. A deleted key zeroes the leaf's free region (the node layer);
//! an overwritten pointer drops its old tuple's entry
//! ([`CacheViewMut::remove`]); a row whose entry payload changed is
//! written through ([`CacheViewMut::refresh`]) under a blocking latch
//! that does not dirty the frame but advances its residency stamp, so a
//! populate whose lookup saw the older stamp is refused. The log's
//! measured price on the benchmark's `write_mix`: it overflowed every
//! ≈ 40 requests, dropping every leaf, and each match zeroed a whole
//! leaf — a 0.03 hit ratio against 0.86 on the read-only workload.

use crate::node::{stable_point, Node};
use nbb_storage::page::Page;
use rand::Rng;

/// Cache entry header: the identifying tuple id.
pub const CACHE_ID_SIZE: usize = 8;

/// Configuration of a tree's index cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Bytes of cached field data per entry (the paper's example: 4
    /// fields totalling 17 bytes → 25-byte items).
    pub payload_size: usize,
    /// Slots per bucket (`N`). Must be ≥ 2.
    pub bucket_slots: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { payload_size: 17, bucket_slots: 8 }
    }
}

impl CacheConfig {
    /// Total bytes per cache entry (id + payload).
    #[inline]
    pub fn entry_size(&self) -> usize {
        CACHE_ID_SIZE + self.payload_size
    }

    /// Validates invariants; panics with a clear message otherwise.
    pub fn validate(&self) {
        assert!(self.payload_size > 0, "cache payload must be non-empty");
        assert!(self.bucket_slots >= 2, "bucket_slots must be >= 2");
    }
}

/// Result of a cache store attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Entry written into a free slot.
    Stored,
    /// Entry written over a random victim in the peripheral bucket.
    StoredEvicting,
    /// No usable slot exists (free region smaller than one slot).
    NoRoom,
}

/// A uniformly drawn one of `slots`, or `None` when there are none:
/// one pass counts them and one finds the drawn one, so a store
/// collects nothing.
fn pick<R: Rng>(slots: impl Iterator<Item = usize> + Clone, rng: &mut R) -> Option<usize> {
    let n = slots.clone().count();
    if n == 0 {
        return None;
    }
    slots.into_iter().nth(rng.gen_range(0..n))
}

/// Read-only cache view over a leaf page.
pub struct CacheView<'a> {
    page: &'a Page,
    entry: usize,
    free_low: usize,
    free_high: usize,
    s_slot: usize,
    half_bucket: usize,
}

impl<'a> CacheView<'a> {
    /// Builds a view; `key_size` is the tree's key width, `cfg` the
    /// tree's cache configuration.
    pub fn new(page: &'a Page, key_size: usize, cfg: &CacheConfig) -> Self {
        let node = Node::new(page, key_size);
        let entry = cfg.entry_size();
        let s = stable_point(page.size(), key_size);
        CacheView {
            free_low: node.free_low(),
            free_high: node.free_high(),
            page,
            entry,
            s_slot: s / entry,
            half_bucket: (cfg.bucket_slots / 2).max(1),
        }
    }

    /// Usable slot index range `[first, last)`: every aligned slot the
    /// free region holds; empty when it cannot hold a single one.
    #[inline]
    pub fn slot_range(&self) -> (usize, usize) {
        let first = self.free_low.div_ceil(self.entry);
        let last = self.free_high / self.entry;
        (first, last.max(first))
    }

    /// Number of usable slots.
    pub fn capacity(&self) -> usize {
        let (a, b) = self.slot_range();
        b - a
    }

    #[inline]
    fn offset(&self, slot: usize) -> usize {
        slot * self.entry
    }

    /// Tuple id stored in `slot` (0 = empty).
    #[inline]
    pub fn tuple_id_at(&self, slot: usize) -> u64 {
        self.page.read_u64(self.offset(slot))
    }

    /// Payload bytes of `slot`.
    #[inline]
    pub fn payload_at(&self, slot: usize) -> &'a [u8] {
        let off = self.offset(slot) + CACHE_ID_SIZE;
        &self.page.bytes()[off..off + self.entry - CACHE_ID_SIZE]
    }

    /// Bucket (ring) index of `slot`: 0 is the innermost, most stable.
    #[inline]
    pub fn bucket_of(&self, slot: usize) -> usize {
        self.s_slot.abs_diff(slot) / self.half_bucket
    }

    /// Scans for `tuple_id`, returning its slot and payload.
    pub fn probe(&self, tuple_id: u64) -> Option<(usize, &'a [u8])> {
        debug_assert_ne!(tuple_id, 0);
        let (first, last) = self.slot_range();
        for slot in first..last {
            if self.tuple_id_at(slot) == tuple_id {
                return Some((slot, self.payload_at(slot)));
            }
        }
        None
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        let (first, last) = self.slot_range();
        (first..last).filter(|&s| self.tuple_id_at(s) != 0).count()
    }

    /// All `(tuple_id, payload)` entries, for diagnostics.
    pub fn entries(&self) -> Vec<(u64, &'a [u8])> {
        let (first, last) = self.slot_range();
        (first..last)
            .filter(|&s| self.tuple_id_at(s) != 0)
            .map(|s| (self.tuple_id_at(s), self.payload_at(s)))
            .collect()
    }
}

/// Mutable cache view over a leaf page.
pub struct CacheViewMut<'a> {
    page: &'a mut Page,
    entry: usize,
    free_low: usize,
    free_high: usize,
    s_slot: usize,
    half_bucket: usize,
}

impl<'a> CacheViewMut<'a> {
    /// Builds a mutable view (same parameters as [`CacheView::new`]).
    pub fn new(page: &'a mut Page, key_size: usize, cfg: &CacheConfig) -> Self {
        let node = Node::new(page, key_size);
        let (free_low, free_high) = (node.free_low(), node.free_high());
        let entry = cfg.entry_size();
        let s = stable_point(page.size(), key_size);
        CacheViewMut {
            free_low,
            free_high,
            page,
            entry,
            s_slot: s / entry,
            half_bucket: (cfg.bucket_slots / 2).max(1),
        }
    }

    fn ro(&self) -> CacheView<'_> {
        CacheView {
            page: self.page,
            entry: self.entry,
            free_low: self.free_low,
            free_high: self.free_high,
            s_slot: self.s_slot,
            half_bucket: self.half_bucket,
        }
    }

    #[inline]
    fn offset(&self, slot: usize) -> usize {
        slot * self.entry
    }

    fn write_entry(&mut self, slot: usize, tuple_id: u64, payload: &[u8]) {
        debug_assert_eq!(payload.len(), self.entry - CACHE_ID_SIZE);
        let off = self.offset(slot);
        self.page.write_u64(off, tuple_id);
        self.page.bytes_mut()[off + CACHE_ID_SIZE..off + self.entry].copy_from_slice(payload);
    }

    /// Write-through: if `tuple_id` is cached, its payload becomes
    /// `payload` in place. Never stores an entry that is not there.
    pub fn refresh(&mut self, tuple_id: u64, payload: &[u8]) -> bool {
        let Some((slot, _)) = self.ro().probe(tuple_id) else { return false };
        self.write_entry(slot, tuple_id, payload);
        true
    }

    /// Drops `tuple_id`'s entry, if cached.
    pub fn remove(&mut self, tuple_id: u64) -> bool {
        let Some((slot, _)) = self.ro().probe(tuple_id) else { return false };
        let off = self.offset(slot);
        self.page.bytes_mut()[off..off + self.entry].fill(0);
        true
    }

    /// Stores `tuple_id → payload` per the paper's placement policy:
    /// a random free slot, else evict a random item in the outermost
    /// occupied bucket. If `tuple_id` is already cached, its payload is
    /// refreshed in place.
    pub fn store<R: Rng>(&mut self, tuple_id: u64, payload: &[u8], rng: &mut R) -> StoreOutcome {
        debug_assert_ne!(tuple_id, 0, "tuple id 0 is the empty sentinel");
        let (first, last) = self.ro().slot_range();
        if first == last {
            return StoreOutcome::NoRoom;
        }
        if self.refresh(tuple_id, payload) {
            return StoreOutcome::Stored;
        }
        let view = self.ro();
        let free = pick((first..last).filter(|&s| view.tuple_id_at(s) == 0), rng);
        if let Some(slot) = free {
            self.write_entry(slot, tuple_id, payload);
            return StoreOutcome::Stored;
        }
        // Evict from the outermost (peripheral) occupied bucket.
        let view = self.ro();
        let max_bucket = (first..last).map(|s| view.bucket_of(s)).max().unwrap_or(0);
        let Some(slot) = pick((first..last).filter(|&s| view.bucket_of(s) == max_bucket), rng)
        else {
            return StoreOutcome::NoRoom;
        };
        self.write_entry(slot, tuple_id, payload);
        StoreOutcome::StoredEvicting
    }

    /// On-hit promotion: swaps `slot` with a random slot in the adjacent
    /// bucket closer to `S`. Re-verifies that `slot` still holds
    /// `tuple_id` (the caller found it under a read latch and re-acquired
    /// a write latch; the cache may have changed in between).
    ///
    /// Returns the slot now holding the entry, or `None` if verification
    /// failed or the entry is already in the innermost bucket.
    pub fn promote<R: Rng>(&mut self, slot: usize, tuple_id: u64, rng: &mut R) -> Option<usize> {
        let (first, last) = self.ro().slot_range();
        if slot < first || slot >= last || self.ro().tuple_id_at(slot) != tuple_id {
            return None;
        }
        let b = self.ro().bucket_of(slot);
        if b == 0 {
            return Some(slot);
        }
        // Candidate slots: ring b-1, i.e. |d| in [(b-1)*h, b*h).
        let h = self.half_bucket;
        let lo_d = (b - 1) * h;
        let hi_d = b * h;
        let mut candidates: Vec<usize> = Vec::with_capacity(2 * h);
        for d in lo_d..hi_d {
            if let Some(s) = self.s_slot.checked_sub(d) {
                if s >= first && s < last {
                    candidates.push(s);
                }
            }
            let s = self.s_slot + d;
            if d != 0 && s >= first && s < last {
                candidates.push(s);
            }
        }
        candidates.retain(|&s| s != slot);
        if candidates.is_empty() {
            return Some(slot);
        }
        let target = candidates[rng.gen_range(0..candidates.len())];
        self.swap_slots(slot, target);
        Some(target)
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        debug_assert_ne!(a, b);
        let (oa, ob) = (self.offset(a), self.offset(b));
        let (lo, hi) = if oa < ob { (oa, ob) } else { (ob, oa) };
        let (left, right) = self.page.bytes_mut().split_at_mut(hi);
        left[lo..lo + self.entry].swap_with_slice(&mut right[..self.entry]);
    }

    /// Zeroes every slot the free region can hold: the reset a leaf's
    /// first populate of a residency performs.
    pub fn zero(&mut self) {
        let (first, last) = self.ro().slot_range();
        if first < last {
            let (a, b) = (self.offset(first), self.offset(last));
            self.page.bytes_mut()[a..b].fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeMut};
    use nbb_storage::page::Page;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const KS: usize = 8;

    fn cfg() -> CacheConfig {
        CacheConfig { payload_size: 16, bucket_slots: 8 }
    }

    fn empty_leaf() -> Page {
        let mut p = Page::new(4096);
        NodeMut::init_leaf(&mut p, KS);
        p
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn payload(tag: u8) -> Vec<u8> {
        vec![tag; 16]
    }

    #[test]
    fn store_and_probe_round_trip() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        assert_eq!(m.store(10, &payload(1), &mut r), StoreOutcome::Stored);
        assert_eq!(m.store(20, &payload(2), &mut r), StoreOutcome::Stored);
        let v = CacheView::new(&p, KS, &c);
        assert_eq!(v.probe(10).unwrap().1, &payload(1)[..]);
        assert_eq!(v.probe(20).unwrap().1, &payload(2)[..]);
        assert!(v.probe(30).is_none());
        assert_eq!(v.occupied(), 2);
    }

    #[test]
    fn store_refreshes_existing_id() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        m.store(10, &payload(1), &mut r);
        m.store(10, &payload(9), &mut r);
        let v = CacheView::new(&p, KS, &c);
        assert_eq!(v.occupied(), 1, "no duplicate entries");
        assert_eq!(v.probe(10).unwrap().1, &payload(9)[..]);
    }

    #[test]
    fn full_cache_evicts_peripheral_items() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let cap = CacheView::new(&p, KS, &c).capacity();
        assert!(cap > 10, "4 KiB empty leaf should have many slots, got {cap}");
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        for id in 1..=cap as u64 {
            assert_ne!(m.store(id, &payload(id as u8), &mut r), StoreOutcome::NoRoom);
        }
        assert_eq!(CacheView::new(&p, KS, &c).occupied(), cap);
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        let out = m.store(10_000, &payload(99), &mut r);
        assert_eq!(out, StoreOutcome::StoredEvicting);
        let v = CacheView::new(&p, KS, &c);
        assert_eq!(v.occupied(), cap, "eviction replaces, never grows");
        // the victim came from the outermost bucket
        let (slot, _) = v.probe(10_000).unwrap();
        let max_bucket =
            (v.slot_range().0..v.slot_range().1).map(|s| v.bucket_of(s)).max().unwrap();
        assert_eq!(v.bucket_of(slot), max_bucket);
    }

    #[test]
    fn promote_moves_toward_stable_point() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        m.store(7, &payload(7), &mut r);
        let (mut slot, _) = CacheView::new(&p, KS, &c).probe(7).unwrap();
        // Promote repeatedly: bucket index must be non-increasing and
        // reach 0 within capacity steps.
        let mut prev_bucket = CacheView::new(&p, KS, &c).bucket_of(slot);
        for _ in 0..200 {
            let mut m = CacheViewMut::new(&mut p, KS, &c);
            slot = m.promote(slot, 7, &mut r).unwrap();
            let b = CacheView::new(&p, KS, &c).bucket_of(slot);
            assert!(b <= prev_bucket, "bucket went outward: {prev_bucket} -> {b}");
            prev_bucket = b;
            if b == 0 {
                break;
            }
        }
        assert_eq!(prev_bucket, 0, "hot item should reach the innermost bucket");
        assert_eq!(CacheView::new(&p, KS, &c).probe(7).unwrap().0, slot);
    }

    #[test]
    fn promote_verifies_tuple_id() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        m.store(7, &payload(7), &mut r);
        let (slot, _) = CacheView::new(&p, KS, &c).probe(7).unwrap();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        assert!(m.promote(slot, 8, &mut r).is_none(), "wrong id must fail");
    }

    #[test]
    fn swap_preserves_both_entries() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        // Fill the cache so a promotion almost surely swaps two live entries.
        let cap = CacheView::new(&p, KS, &c).capacity();
        let mut m2 = CacheViewMut::new(&mut p, KS, &c);
        for id in 1..=cap as u64 {
            m2.store(id, &payload((id % 250) as u8), &mut r);
        }
        let v = CacheView::new(&p, KS, &c);
        let (slot, _) = v.probe(1).unwrap();
        let before: std::collections::HashMap<u64, Vec<u8>> =
            v.entries().into_iter().map(|(id, pl)| (id, pl.to_vec())).collect();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        m.promote(slot, 1, &mut r);
        let v = CacheView::new(&p, KS, &c);
        let after: std::collections::HashMap<u64, Vec<u8>> =
            v.entries().into_iter().map(|(id, pl)| (id, pl.to_vec())).collect();
        assert_eq!(before, after, "promotion must not lose or corrupt entries");
    }

    #[test]
    fn refresh_and_remove_touch_only_a_cached_entry() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        m.store(10, &payload(1), &mut r);
        assert!(m.refresh(10, &payload(2)));
        assert!(!m.refresh(20, &payload(3)), "write-through never inserts");
        assert!(!m.remove(20));
        let v = CacheView::new(&p, KS, &c);
        assert_eq!(v.probe(10).unwrap().1, &payload(2)[..]);
        assert!(v.probe(20).is_none());
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        assert!(m.remove(10));
        assert_eq!(CacheView::new(&p, KS, &c).occupied(), 0);
    }

    #[test]
    fn zero_empties_cache() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        for id in 1..=5u64 {
            m.store(id, &payload(id as u8), &mut r);
        }
        m.zero();
        assert_eq!(CacheView::new(&p, KS, &c).occupied(), 0);
    }

    #[test]
    fn key_growth_kills_peripheral_slots_only() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let cap0 = CacheView::new(&p, KS, &c).capacity();
        {
            let mut m = CacheViewMut::new(&mut p, KS, &c);
            for id in 1..=cap0 as u64 {
                m.store(id, &payload(1), &mut r);
            }
        }
        // Insert keys: the key region grows into the low end of the cache.
        {
            let mut n = NodeMut::new(&mut p, KS);
            for v in 0..40u64 {
                n.insert(&v.to_be_bytes(), v);
            }
        }
        let v = CacheView::new(&p, KS, &c);
        let cap1 = v.capacity();
        assert!(cap1 < cap0, "capacity must shrink: {cap0} -> {cap1}");
        // All surviving entries still verify: ids in range, payload intact.
        for (id, pl) in v.entries() {
            assert!(id >= 1 && id <= cap0 as u64);
            assert_eq!(pl, &payload(1)[..]);
        }
        // And probing never reads a partially-overwritten slot: the node
        // owns [header, free_low); no slot may start below it.
        let node = Node::new(&p, KS);
        let (first, _) = v.slot_range();
        assert!(first * c.entry_size() >= node.free_low());
    }

    #[test]
    fn no_room_when_leaf_nearly_full() {
        let mut p = Page::new(1024);
        NodeMut::init_leaf(&mut p, KS);
        {
            let mut n = NodeMut::new(&mut p, KS);
            let cap = n.as_ref().capacity();
            for v in 0..cap as u64 {
                n.insert(&v.to_be_bytes(), v);
            }
        }
        let c = cfg();
        let mut r = rng();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        assert_eq!(m.store(1, &payload(1), &mut r), StoreOutcome::NoRoom);
        assert_eq!(CacheView::new(&p, KS, &c).capacity(), 0);
    }

    #[test]
    fn slot_alignment_is_absolute() {
        // Paper: "the start of each slot is a multiple of [the entry size]".
        let p = empty_leaf();
        let c = cfg();
        let v = CacheView::new(&p, KS, &c);
        let (first, last) = v.slot_range();
        for s in first..last {
            assert_eq!((s * c.entry_size()) % c.entry_size(), 0);
        }
        // First slot does not overlap the key region, last does not
        // overlap the directory.
        let node = Node::new(&p, KS);
        assert!(first * c.entry_size() >= node.free_low());
        assert!(last * c.entry_size() <= node.free_high());
    }

    #[test]
    fn config_validation() {
        cfg().validate();
        let bad = CacheConfig { payload_size: 0, ..cfg() };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
        let bad = CacheConfig { bucket_slots: 1, ..cfg() };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
    }
}

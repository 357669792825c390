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
//! Placement (§2.1.1, with admission by frequency in place of the
//! paper's promotion):
//! * a new entry goes to a uniformly random free slot;
//! * in a full leaf it must earn a slot: the tree's access-frequency
//!   sketch (TinyLFU, `sketch.rs`) estimates it and
//!   [`ADMISSION_SAMPLE`] occupied slots sampled from a start its id
//!   picks, and it overwrites the least frequent of them only if it is
//!   strictly more frequent — ties go to the slot farther from the
//!   stable point `S = K/(K+D)·P` ([`crate::node::stable_point`]),
//!   the slot key inserts would take first;
//! * a hit changes nothing in the leaf; the sketch counts it.
//!
//! The decision is made under the reader's shared pin
//! ([`CacheView::admit`]) and travels to the populate in the entry's
//! token, so a refused miss takes no exclusive latch, and neither does
//! a hit: the paper's on-hit swap toward `S` was the only exclusive
//! latch a hit took, and admission keeps hot entries better without
//! it. On the paper's case — key inserts eating a leaf's free region
//! around a skewed read stream (`tests/promotion_replay.rs`) — the hit
//! ratio was 0.708 with promotion and 0.652 with neither mechanism;
//! admission without promotion reads 0.713. On the benchmark's
//! `point_cold` stream (`nbb-core`'s `tests/admission_replay.rs`) it
//! lifts the hit ratio from 0.864 to 0.878, and on `project_hot` it
//! stores and evicts 0.54 entries per request where random eviction
//! stored 8.55.
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

mod sketch;

pub use sketch::Sketch;

use crate::node::{stable_point, Node};
use nbb_storage::page::Page;
use rand::Rng;

/// Cache entry header: the identifying tuple id.
pub const CACHE_ID_SIZE: usize = 8;

/// Occupied slots a full leaf's admission compares a candidate with.
pub const ADMISSION_SAMPLE: usize = 8;

/// Configuration of a tree's index cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Bytes of cached field data per entry (the paper's example: 4
    /// fields totalling 17 bytes → 25-byte items).
    pub payload_size: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { payload_size: 17 }
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
    }
}

/// What a populate may do with one missed entry: decided by
/// [`CacheView::admit`] under the reader's shared pin, re-checked by
/// [`CacheViewMut::store`] under the populate's latch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Not admitted: a populate skips the entry without latching.
    Refused,
    /// Store into a free slot, if one is still free.
    Free,
    /// Overwrite `slot`, if it still holds `tuple_id`.
    Evict {
        /// The victim's slot.
        slot: usize,
        /// The victim's tuple id, as sampled.
        tuple_id: u64,
    },
}

/// Result of a cache store attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Entry written into a free slot, or refreshed in place.
    Stored,
    /// Entry written over its admitted victim.
    StoredEvicting,
    /// No usable slot exists (free region smaller than one slot).
    NoRoom,
    /// The admission no longer holds: the refused entry, a free slot
    /// another store took, or a victim that left its slot.
    Refused,
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

    /// Distance of `slot` from the stable point, in slots: key inserts
    /// take the slots farthest from it first.
    #[inline]
    pub fn distance(&self, slot: usize) -> usize {
        self.s_slot.abs_diff(slot)
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

    /// Decides whether missed `tuple_id`, estimated `freq` lookups, may
    /// enter this cache. A free slot admits it. Otherwise the first
    /// [`ADMISSION_SAMPLE`] occupied slots from a start its id picks
    /// are estimated by `freq_of`, and the least frequent of them —
    /// farthest from `S` among equals — is its victim if `freq` is
    /// strictly greater. Two misses of one leaf may be told the same
    /// free slot or victim; the store refuses the second.
    pub fn admit(&self, tuple_id: u64, freq: u8, freq_of: impl Fn(u64) -> u8) -> Admission {
        let (first, last) = self.slot_range();
        let n = last - first;
        if n > self.occupied() {
            return Admission::Free;
        }
        if n == 0 {
            return Admission::Refused;
        }
        let start = (tuple_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n;
        let victim = (0..n)
            .map(|i| first + (start + i) % n)
            .map(|slot| (slot, self.tuple_id_at(slot)))
            .filter(|&(_, id)| id != 0)
            .take(ADMISSION_SAMPLE)
            .map(|(slot, id)| (freq_of(id), std::cmp::Reverse(self.distance(slot)), slot, id))
            .min();
        match victim {
            Some((f, _, slot, id)) if freq > f => Admission::Evict { slot, tuple_id: id },
            _ => Admission::Refused,
        }
    }
}

/// Mutable cache view over a leaf page.
pub struct CacheViewMut<'a> {
    page: &'a mut Page,
    entry: usize,
    free_low: usize,
    free_high: usize,
    s_slot: usize,
}

impl<'a> CacheViewMut<'a> {
    /// Builds a mutable view (same parameters as [`CacheView::new`]).
    pub fn new(page: &'a mut Page, key_size: usize, cfg: &CacheConfig) -> Self {
        let node = Node::new(page, key_size);
        let (free_low, free_high) = (node.free_low(), node.free_high());
        let entry = cfg.entry_size();
        let s = stable_point(page.size(), key_size);
        CacheViewMut { free_low, free_high, page, entry, s_slot: s / entry }
    }

    fn ro(&self) -> CacheView<'_> {
        CacheView {
            page: self.page,
            entry: self.entry,
            free_low: self.free_low,
            free_high: self.free_high,
            s_slot: self.s_slot,
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

    /// Stores `tuple_id → payload` as `admission` allows: into a
    /// uniformly random free slot, or over the admitted victim if it
    /// still holds the entry it was chosen for. If an admitted
    /// `tuple_id` is already cached, its payload is refreshed in place.
    pub fn store<R: Rng>(
        &mut self,
        tuple_id: u64,
        payload: &[u8],
        admission: Admission,
        rng: &mut R,
    ) -> StoreOutcome {
        debug_assert_ne!(tuple_id, 0, "tuple id 0 is the empty sentinel");
        let (first, last) = self.ro().slot_range();
        if first == last {
            return StoreOutcome::NoRoom;
        }
        if admission == Admission::Refused {
            return StoreOutcome::Refused;
        }
        if self.refresh(tuple_id, payload) {
            return StoreOutcome::Stored;
        }
        let view = self.ro();
        let (slot, outcome) = match admission {
            Admission::Evict { slot, tuple_id: victim } => {
                if !(first..last).contains(&slot) || view.tuple_id_at(slot) != victim {
                    return StoreOutcome::Refused;
                }
                (slot, StoreOutcome::StoredEvicting)
            }
            _ => match pick((first..last).filter(|&s| view.tuple_id_at(s) == 0), rng) {
                Some(slot) => (slot, StoreOutcome::Stored),
                None => return StoreOutcome::Refused,
            },
        };
        self.write_entry(slot, tuple_id, payload);
        outcome
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
        CacheConfig { payload_size: 16 }
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
        assert_eq!(m.store(10, &payload(1), Admission::Free, &mut r), StoreOutcome::Stored);
        assert_eq!(m.store(20, &payload(2), Admission::Free, &mut r), StoreOutcome::Stored);
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
        m.store(10, &payload(1), Admission::Free, &mut r);
        m.store(10, &payload(9), Admission::Free, &mut r);
        let v = CacheView::new(&p, KS, &c);
        assert_eq!(v.occupied(), 1, "no duplicate entries");
        assert_eq!(v.probe(10).unwrap().1, &payload(9)[..]);
    }

    /// A cache filled with ids `1..=cap`, every slot occupied.
    fn full_leaf() -> Page {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let cap = CacheView::new(&p, KS, &c).capacity();
        assert!(cap > 2 * ADMISSION_SAMPLE, "4 KiB empty leaf should have many slots, got {cap}");
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        for id in 1..=cap as u64 {
            assert_eq!(
                m.store(id, &payload(id as u8), Admission::Free, &mut r),
                StoreOutcome::Stored
            );
        }
        assert_eq!(CacheView::new(&p, KS, &c).occupied(), cap);
        p
    }

    /// A leaf whose keys leave between 3 and [`ADMISSION_SAMPLE`]
    /// slots, all occupied: every admission samples every slot.
    fn small_full_leaf() -> Page {
        let mut p = empty_leaf();
        let c = cfg();
        let mut key = 0u64;
        while CacheView::new(&p, KS, &c).capacity() > ADMISSION_SAMPLE {
            NodeMut::new(&mut p, KS).insert(&key.to_be_bytes(), key);
            key += 1;
        }
        let cap = CacheView::new(&p, KS, &c).capacity();
        assert!(cap >= 3, "{cap} slots left");
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        for id in 1..=cap as u64 {
            m.store(id, &payload(id as u8), Admission::Free, &mut rng());
        }
        assert_eq!(CacheView::new(&p, KS, &c).occupied(), cap);
        p
    }

    #[test]
    fn full_cache_evicts_peripheral_items() {
        // Every estimate ties: the victim is the slot farthest from S,
        // and the store overwrites exactly it.
        let mut p = small_full_leaf();
        let c = cfg();
        let v = CacheView::new(&p, KS, &c);
        let (first, last) = v.slot_range();
        let farthest = (first..last).map(|s| v.distance(s)).max().unwrap();
        let admission = v.admit(10_000, 2, |_| 1);
        let Admission::Evict { slot, tuple_id } = admission else {
            panic!("a more frequent candidate must be admitted: {admission:?}")
        };
        assert_eq!(v.distance(slot), farthest, "victim slot {slot} is not peripheral");
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        let out = m.store(10_000, &payload(99), admission, &mut rng());
        assert_eq!(out, StoreOutcome::StoredEvicting);
        let v = CacheView::new(&p, KS, &c);
        assert_eq!(v.occupied(), last - first, "eviction replaces, never grows");
        assert_eq!(v.probe(10_000).unwrap().0, slot);
        assert!(v.probe(tuple_id).is_none());
    }

    #[test]
    fn a_tie_evicts_the_slot_farther_from_s() {
        let p = small_full_leaf();
        let v = CacheView::new(&p, KS, &cfg());
        let (first, last) = v.slot_range();
        let mut pairs = 0;
        for a in first..last {
            for b in first..last {
                if v.distance(a) >= v.distance(b) {
                    continue;
                }
                // `a` and `b` share the least estimate; `b` lies farther.
                let low = [v.tuple_id_at(a), v.tuple_id_at(b)];
                let freq_of = |id: u64| if low.contains(&id) { 2 } else { 9 };
                let got = v.admit(7_777, 3, freq_of);
                assert_eq!(got, Admission::Evict { slot: b, tuple_id: low[1] }, "{a} vs {b}");
                pairs += 1;
            }
        }
        assert!(pairs > 0);
    }

    #[test]
    fn admission_refuses_a_candidate_no_more_frequent_than_its_victim() {
        let p = full_leaf();
        let v = CacheView::new(&p, KS, &cfg());
        for cand in 1..100u64 {
            for freq in 0..=5u8 {
                let got = v.admit(cand, freq, |_| 5);
                assert_eq!(got, Admission::Refused, "candidate {cand} at {freq} against 5");
            }
            let got = v.admit(cand, 6, |_| 5);
            assert!(matches!(got, Admission::Evict { .. }), "6 against 5: {got:?}");
        }
        // One cold slot among the sample is the victim whatever its
        // distance.
        let cold = v.tuple_id_at(v.slot_range().0 + 3);
        let mut hit_cold = 0;
        for cand in 1..200u64 {
            let freq_of = |id: u64| if id == cold { 0 } else { 7 };
            match v.admit(cand, 1, freq_of) {
                Admission::Evict { tuple_id, .. } => {
                    assert_eq!(tuple_id, cold);
                    hit_cold += 1;
                }
                Admission::Refused => {} // the cold slot was not sampled
                Admission::Free => panic!("a full leaf has no free slot"),
            }
        }
        assert!(hit_cold > 0, "no sample held the cold slot");
    }

    #[test]
    fn admission_always_takes_a_free_slot() {
        let mut p = full_leaf();
        let c = cfg();
        let mut r = rng();
        let (first, _) = CacheView::new(&p, KS, &c).slot_range();
        // Free two slots: even a never-seen candidate is admitted while
        // one is left, and the stores fill them.
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        assert!(m.remove(1) && m.remove(2));
        for id in [500, 501] {
            assert_eq!(CacheView::new(&p, KS, &c).admit(id, 0, |_| 15), Admission::Free);
            let mut m = CacheViewMut::new(&mut p, KS, &c);
            assert_eq!(m.store(id, &payload(5), Admission::Free, &mut r), StoreOutcome::Stored);
        }
        assert_eq!(CacheView::new(&p, KS, &c).admit(502, 0, |_| 15), Admission::Refused);
        // A free slot another store took is not made by evicting, and a
        // victim that left its slot is not overwritten.
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        assert_eq!(m.store(502, &payload(5), Admission::Free, &mut r), StoreOutcome::Refused);
        let stale = Admission::Evict { slot: first, tuple_id: 123_456 };
        assert_eq!(m.store(503, &payload(5), stale, &mut r), StoreOutcome::Refused);
        assert_eq!(m.store(503, &payload(5), Admission::Refused, &mut r), StoreOutcome::Refused);
        let v = CacheView::new(&p, KS, &c);
        assert!(v.probe(502).is_none() && v.probe(503).is_none());
    }

    #[test]
    fn refresh_and_remove_touch_only_a_cached_entry() {
        let mut p = empty_leaf();
        let c = cfg();
        let mut r = rng();
        let mut m = CacheViewMut::new(&mut p, KS, &c);
        m.store(10, &payload(1), Admission::Free, &mut r);
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
            m.store(id, &payload(id as u8), Admission::Free, &mut r);
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
                m.store(id, &payload(1), Admission::Free, &mut r);
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
        assert_eq!(m.store(1, &payload(1), Admission::Free, &mut r), StoreOutcome::NoRoom);
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
        let bad = CacheConfig { payload_size: 0 };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
    }
}

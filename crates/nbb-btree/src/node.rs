//! B+Tree node layout — the paper's Figure 1, byte for byte.
//!
//! ```text
//! 0                40                free_low      free_high        P-8   P
//! +----------------+-----------------+--------------+---------------+----+
//! | fixed header   | key entries ... | FREE SPACE   | directory ... |foot|
//! |                | (grow upward →) | (the cache)  | (← grow down) |    |
//! +----------------+-----------------+--------------+---------------+----+
//! ```
//!
//! * **Key entries** are fixed-size `key ‖ value(u64)` records written in
//!   arrival order starting at byte 40; `free_low` is one past the last.
//! * **Directory** is an array of `u16` offsets in *sorted key order*,
//!   growing downward from the footer; `free_high` is its low end.
//! * The bytes in `[free_low, free_high)` are the page's free space —
//!   the region §2.1 recycles as a tuple cache.
//!
//! ### Zeroing discipline (cache correctness)
//!
//! A cache slot is identified by a nonzero tuple id at its start, so any
//! byte that *enters* the free region must be zero. Operations that grow
//! the free region (delete, compaction, node rebuild) therefore zero the
//! whole free region, conservatively dropping that page's cache.
//! Operations that shrink it (key/directory growth) overwrite cache
//! periphery freely — exactly the paper's contract.
//!
//! Header fields (little-endian):
//!
//! | off | size | field |
//! |-----|------|-------|
//! | 0   | 2    | magic (0xB17E) |
//! | 2   | 2    | level (0 = leaf) |
//! | 4   | 2    | nkeys |
//! | 6   | 2    | dead key-entry bytes (compaction credit) |
//! | 8   | 2    | free_low |
//! | 10  | 2    | free_high |
//! | 12  | 12   | reserved: zero, never written |
//! | 24  | 8    | next leaf PageId (u64::MAX = none) |
//! | 32  | 8    | aux: internal → leftmost child; leaf → unused (0) |
//!
//! Bytes 12..24 are zero on every page this version formats and are
//! never read, so a file whose leaves still carry the retired §2.1.2
//! cache epoch (a `u64` once kept at 16..24) opens unchanged. They are
//! the room a page checksum can take without moving an offset.

use nbb_storage::error::StorageError;
use nbb_storage::page::{Page, PageId};

/// Fixed header size (Figure 1's "Fixed Size Header").
pub const NODE_HEADER_SIZE: usize = 40;
/// Fixed footer size (Figure 1's "Fixed Size Footer").
pub const NODE_FOOTER_SIZE: usize = 8;

const MAGIC: u16 = 0xB17E;
const OFF_MAGIC: usize = 0;
const OFF_LEVEL: usize = 2;
const OFF_NKEYS: usize = 4;
const OFF_DEAD: usize = 6;
const OFF_FREE_LOW: usize = 8;
const OFF_FREE_HIGH: usize = 10;
const OFF_NEXT: usize = 24;
const OFF_AUX: usize = 32;

/// Directory pointer size — the paper's `D`.
pub const DIR_ENTRY_SIZE: usize = 2;

/// Outcome of a node-local insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Key added.
    Inserted,
    /// Key already present; value overwritten.
    Updated,
    /// No room even after compaction; caller must split.
    NeedSplit,
}

/// Read-only view of a B+Tree node.
#[derive(Clone, Copy)]
pub struct Node<'a> {
    page: &'a Page,
    key_size: usize,
}

/// Mutable view of a B+Tree node.
pub struct NodeMut<'a> {
    page: &'a mut Page,
    key_size: usize,
}

impl<'a> Node<'a> {
    /// Wraps `page`; panics in debug builds if the magic is wrong.
    pub fn new(page: &'a Page, key_size: usize) -> Self {
        debug_assert_eq!(page.read_u16(OFF_MAGIC), MAGIC, "not a btree node");
        Node { page, key_size }
    }

    /// [`Node::new`] for page `id` fresh from a device, whose bytes are
    /// outside input: a real check in every profile, `Corrupt` naming
    /// the page when the magic is wrong.
    pub(crate) fn checked(
        page: &'a Page,
        id: PageId,
        key_size: usize,
    ) -> Result<Self, StorageError> {
        match page.read_u16(OFF_MAGIC) {
            MAGIC => Ok(Node { page, key_size }),
            found => Err(StorageError::Corrupt(format!(
                "page {id} is not a B+Tree node (magic {found:#06x}, expected {MAGIC:#06x})"
            ))),
        }
    }

    /// Bytes per key entry: key plus an 8-byte value/child pointer.
    #[inline]
    pub fn entry_size(&self) -> usize {
        self.key_size + 8
    }

    /// Tree level; 0 is a leaf.
    #[inline]
    pub fn level(&self) -> u16 {
        self.page.read_u16(OFF_LEVEL)
    }

    /// True for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level() == 0
    }

    /// Number of keys in the node.
    #[inline]
    pub fn nkeys(&self) -> usize {
        self.page.read_u16(OFF_NKEYS) as usize
    }

    /// Start of the free region.
    #[inline]
    pub fn free_low(&self) -> usize {
        self.page.read_u16(OFF_FREE_LOW) as usize
    }

    /// End of the free region.
    #[inline]
    pub fn free_high(&self) -> usize {
        self.page.read_u16(OFF_FREE_HIGH) as usize
    }

    /// Dead (deleted, uncompacted) key-entry bytes.
    #[inline]
    pub fn dead_bytes(&self) -> usize {
        self.page.read_u16(OFF_DEAD) as usize
    }

    /// Next-leaf pointer.
    #[inline]
    pub fn next_leaf(&self) -> PageId {
        PageId(self.page.read_u64(OFF_NEXT))
    }

    /// Leftmost child (internal nodes).
    #[inline]
    pub fn leftmost_child(&self) -> PageId {
        debug_assert!(!self.is_leaf());
        PageId(self.page.read_u64(OFF_AUX))
    }

    fn dir_base(&self) -> usize {
        self.page.size() - NODE_FOOTER_SIZE
    }

    #[inline]
    fn dir_offset(&self, i: usize) -> usize {
        self.dir_base() - DIR_ENTRY_SIZE * (i + 1)
    }

    #[inline]
    fn entry_offset(&self, i: usize) -> usize {
        self.page.read_u16(self.dir_offset(i)) as usize
    }

    /// Key at sorted position `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> &'a [u8] {
        let off = self.entry_offset(i);
        &self.page.bytes()[off..off + self.key_size]
    }

    /// Value (leaf payload or right-child page id) at sorted position `i`.
    #[inline]
    pub fn value_at(&self, i: usize) -> u64 {
        let off = self.entry_offset(i);
        self.page.read_u64(off + self.key_size)
    }

    /// Binary search: `Ok(i)` exact match, `Err(i)` insertion point.
    pub fn search(&self, key: &[u8]) -> Result<usize, usize> {
        debug_assert_eq!(key.len(), self.key_size);
        let mut lo = 0usize;
        let mut hi = self.nkeys();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key_at(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Child page covering `key` (internal nodes): the rightmost
    /// separator ≤ `key` wins; below the first separator, the leftmost
    /// child.
    pub fn child_for(&self, key: &[u8]) -> PageId {
        debug_assert!(!self.is_leaf());
        match self.search(key) {
            Ok(i) => PageId(self.value_at(i)),
            Err(0) => self.leftmost_child(),
            Err(i) => PageId(self.value_at(i - 1)),
        }
    }

    /// First (smallest) key, if any.
    pub fn first_key(&self) -> Option<&'a [u8]> {
        (self.nkeys() > 0).then(|| self.key_at(0))
    }

    /// Last (largest) key, if any.
    pub fn last_key(&self) -> Option<&'a [u8]> {
        let n = self.nkeys();
        (n > 0).then(|| self.key_at(n - 1))
    }

    /// Copies out all `(key, value)` entries in sorted order.
    pub fn entries(&self) -> Vec<(Vec<u8>, u64)> {
        (0..self.nkeys()).map(|i| (self.key_at(i).to_vec(), self.value_at(i))).collect()
    }

    /// Maximum number of entries a node of this page/key size can hold.
    pub fn capacity(&self) -> usize {
        node_capacity(self.page.size(), self.key_size)
    }

    /// Live-content fill factor: header+footer+live entries+directory
    /// over page size.
    pub fn fill_factor(&self) -> f64 {
        let used = NODE_HEADER_SIZE
            + NODE_FOOTER_SIZE
            + self.nkeys() * (self.entry_size() + DIR_ENTRY_SIZE);
        used as f64 / self.page.size() as f64
    }

    /// Free bytes between the key region and the directory — the cache
    /// area of Figure 1.
    pub fn free_bytes(&self) -> usize {
        self.free_high().saturating_sub(self.free_low())
    }

    /// The underlying page.
    pub fn page(&self) -> &'a Page {
        self.page
    }
}

impl<'a> NodeMut<'a> {
    /// Wraps `page` mutably; panics in debug builds on magic mismatch.
    pub fn new(page: &'a mut Page, key_size: usize) -> Self {
        debug_assert_eq!(page.read_u16(OFF_MAGIC), MAGIC, "not a btree node");
        NodeMut { page, key_size }
    }

    /// Formats `page` as an empty leaf.
    pub fn init_leaf(page: &'a mut Page, key_size: usize) -> Self {
        Self::init(page, key_size, 0)
    }

    /// Formats `page` as an empty internal node at `level` ≥ 1 with the
    /// given leftmost child.
    pub fn init_internal(
        page: &'a mut Page,
        key_size: usize,
        level: u16,
        leftmost: PageId,
    ) -> Self {
        assert!(level >= 1, "internal nodes live at level >= 1");
        let n = Self::init(page, key_size, level);
        n.page.write_u64(OFF_AUX, leftmost.0);
        n
    }

    fn init(page: &'a mut Page, key_size: usize, level: u16) -> Self {
        let size = page.size();
        assert!(size <= 65536, "btree pages limited to 64 KiB (u16 offsets)");
        assert!(
            node_capacity(size, key_size) >= 2,
            "page size {size} cannot hold 2 entries of key size {key_size}"
        );
        page.clear();
        page.write_u16(OFF_MAGIC, MAGIC);
        page.write_u16(OFF_LEVEL, level);
        page.write_u16(OFF_NKEYS, 0);
        page.write_u16(OFF_DEAD, 0);
        page.write_u16(OFF_FREE_LOW, NODE_HEADER_SIZE as u16);
        page.write_u16(OFF_FREE_HIGH, (size - NODE_FOOTER_SIZE) as u16);
        page.write_u64(OFF_NEXT, u64::MAX);
        // Footer: magic marker (Figure 1's fixed-size footer).
        page.write_u16(size - NODE_FOOTER_SIZE, MAGIC);
        NodeMut { page, key_size }
    }

    /// Read-only view of this node.
    pub fn as_ref(&self) -> Node<'_> {
        Node { page: self.page, key_size: self.key_size }
    }

    /// Sets the next-leaf pointer.
    pub fn set_next_leaf(&mut self, next: PageId) {
        self.page.write_u64(OFF_NEXT, next.0);
    }

    /// Zeroes the entire free region, dropping any cached entries.
    pub fn zero_free_region(&mut self) {
        let (lo, hi) = (self.as_ref().free_low(), self.as_ref().free_high());
        if lo < hi {
            self.page.bytes_mut()[lo..hi].fill(0);
        }
    }

    /// Inserts or updates `key → value`.
    pub fn insert(&mut self, key: &[u8], value: u64) -> InsertOutcome {
        debug_assert_eq!(key.len(), self.key_size);
        let view = self.as_ref();
        let pos = match view.search(key) {
            Ok(i) => {
                let off = view.entry_offset(i);
                let ks = self.key_size;
                self.page.write_u64(off + ks, value);
                return InsertOutcome::Updated;
            }
            Err(i) => i,
        };
        let entry = self.as_ref().entry_size();
        let need = entry + DIR_ENTRY_SIZE;
        if self.as_ref().free_bytes() < need {
            if self.as_ref().dead_bytes() + self.as_ref().free_bytes() >= need {
                self.compact();
            } else {
                return InsertOutcome::NeedSplit;
            }
        }
        // Write the entry at free_low.
        let off = self.as_ref().free_low();
        self.page.bytes_mut()[off..off + self.key_size].copy_from_slice(key);
        self.page.write_u64(off + self.key_size, value);
        self.page.write_u16(OFF_FREE_LOW, (off + entry) as u16);
        // Grow the directory and shift positions >= pos down by one cell.
        let n = self.as_ref().nkeys();
        let dir_base = self.as_ref().dir_base();
        let old_low = dir_base - DIR_ENTRY_SIZE * n; // == free_high
        let new_low = old_low - DIR_ENTRY_SIZE;
        let move_from = old_low;
        let move_to = new_low;
        let move_len = DIR_ENTRY_SIZE * (n - pos);
        self.page.bytes_mut().copy_within(move_from..move_from + move_len, move_to);
        self.page.write_u16(OFF_FREE_HIGH, new_low as u16);
        self.page.write_u16(dir_base - DIR_ENTRY_SIZE * (pos + 1), off as u16);
        self.page.write_u16(OFF_NKEYS, (n + 1) as u16);
        InsertOutcome::Inserted
    }

    /// Removes `key`; returns its value if present.
    ///
    /// The freed directory cell and the (conservatively whole) free
    /// region are zeroed — see the module docs' zeroing discipline.
    pub fn delete(&mut self, key: &[u8]) -> Option<u64> {
        let view = self.as_ref();
        let pos = view.search(key).ok()?;
        let value = view.value_at(pos);
        let n = view.nkeys();
        let entry = view.entry_size();
        let dir_base = view.dir_base();
        let old_low = dir_base - DIR_ENTRY_SIZE * n;
        // Shift directory cells for positions > pos up by one.
        let move_len = DIR_ENTRY_SIZE * (n - 1 - pos);
        self.page.bytes_mut().copy_within(old_low..old_low + move_len, old_low + DIR_ENTRY_SIZE);
        let new_low = old_low + DIR_ENTRY_SIZE;
        self.page.write_u16(OFF_FREE_HIGH, new_low as u16);
        self.page.write_u16(OFF_NKEYS, (n - 1) as u16);
        let dead = self.as_ref().dead_bytes() + entry;
        self.page.write_u16(OFF_DEAD, dead as u16);
        self.zero_free_region();
        Some(value)
    }

    /// Rewrites the key region so live entries are contiguous, reclaiming
    /// dead bytes. Zeroes the (now larger) free region.
    pub fn compact(&mut self) {
        let entries = self.as_ref().entries();
        let level = self.as_ref().level();
        let next = self.as_ref().next_leaf();
        let aux = self.page.read_u64(OFF_AUX);
        let ks = self.key_size;
        let mut fresh = NodeMut::init(self.page, ks, level);
        fresh.page.write_u64(OFF_AUX, aux);
        fresh.set_next_leaf(next);
        for (k, v) in &entries {
            let r = fresh.append_sorted(k, *v);
            debug_assert_eq!(r, InsertOutcome::Inserted);
        }
    }

    /// Appends `key → value` known to sort after every existing key
    /// (bulk-load fast path; falls back to [`insert`](Self::insert) cost
    /// shape otherwise via debug assert).
    pub fn append_sorted(&mut self, key: &[u8], value: u64) -> InsertOutcome {
        debug_assert!(
            self.as_ref().last_key().is_none_or(|last| last < key),
            "append_sorted requires strictly ascending keys"
        );
        let entry = self.as_ref().entry_size();
        let need = entry + DIR_ENTRY_SIZE;
        if self.as_ref().free_bytes() < need {
            return InsertOutcome::NeedSplit;
        }
        let off = self.as_ref().free_low();
        self.page.bytes_mut()[off..off + self.key_size].copy_from_slice(key);
        self.page.write_u64(off + self.key_size, value);
        self.page.write_u16(OFF_FREE_LOW, (off + entry) as u16);
        let n = self.as_ref().nkeys();
        let dir_base = self.as_ref().dir_base();
        let new_low = dir_base - DIR_ENTRY_SIZE * (n + 1);
        self.page.write_u16(new_low, off as u16);
        self.page.write_u16(OFF_FREE_HIGH, new_low as u16);
        self.page.write_u16(OFF_NKEYS, (n + 1) as u16);
        InsertOutcome::Inserted
    }

    /// Rebuilds this node to contain exactly `entries` (sorted),
    /// preserving level/next/aux. Used by splits.
    pub fn rebuild_with(&mut self, entries: &[(Vec<u8>, u64)]) {
        let level = self.as_ref().level();
        let next = self.as_ref().next_leaf();
        let aux = self.page.read_u64(OFF_AUX);
        let ks = self.key_size;
        let mut fresh = NodeMut::init(self.page, ks, level);
        fresh.page.write_u64(OFF_AUX, aux);
        fresh.set_next_leaf(next);
        for (k, v) in entries {
            let r = fresh.append_sorted(k, *v);
            debug_assert_eq!(r, InsertOutcome::Inserted);
        }
    }

    /// Sets the leftmost child (internal nodes).
    pub fn set_leftmost_child(&mut self, child: PageId) {
        debug_assert!(!self.as_ref().is_leaf());
        self.page.write_u64(OFF_AUX, child.0);
    }

    /// Direct mutable access to the underlying page (cache writes).
    pub fn page_mut(&mut self) -> &mut Page {
        self.page
    }
}

/// Maximum entries a node with the given page and key size can hold.
pub fn node_capacity(page_size: usize, key_size: usize) -> usize {
    let usable = page_size - NODE_HEADER_SIZE - NODE_FOOTER_SIZE;
    usable / (key_size + 8 + DIR_ENTRY_SIZE)
}

/// The paper's stable cache location `S = K/(K+D) · P`, adjusted for the
/// fixed header and footer: the byte offset where a full page's key
/// region would meet its directory. `K` here is the full key-entry size
/// (key plus 8-byte pointer) since that is what grows from the low end.
pub fn stable_point(page_size: usize, key_size: usize) -> usize {
    let k = key_size + 8;
    let usable = page_size - NODE_HEADER_SIZE - NODE_FOOTER_SIZE;
    NODE_HEADER_SIZE + usable * k / (k + DIR_ENTRY_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbb_storage::page::Page;

    const KS: usize = 8;

    fn leaf_page() -> Page {
        let mut p = Page::new(1024);
        NodeMut::init_leaf(&mut p, KS);
        p
    }

    fn k(v: u64) -> [u8; 8] {
        v.to_be_bytes()
    }

    #[test]
    fn init_leaves_empty_node() {
        let p = leaf_page();
        let n = Node::new(&p, KS);
        assert!(n.is_leaf());
        assert_eq!(n.nkeys(), 0);
        assert_eq!(n.free_low(), NODE_HEADER_SIZE);
        assert_eq!(n.free_high(), 1024 - NODE_FOOTER_SIZE);
        assert!(!n.next_leaf().is_valid());
    }

    #[test]
    fn insert_maintains_sorted_order() {
        let mut p = leaf_page();
        let mut n = NodeMut::new(&mut p, KS);
        for v in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            assert_eq!(n.insert(&k(v), v * 10), InsertOutcome::Inserted);
        }
        let view = n.as_ref();
        assert_eq!(view.nkeys(), 10);
        for i in 0..10 {
            assert_eq!(view.key_at(i), &k(i as u64));
            assert_eq!(view.value_at(i), i as u64 * 10);
        }
    }

    #[test]
    fn search_finds_and_points() {
        let mut p = leaf_page();
        let mut n = NodeMut::new(&mut p, KS);
        for v in [10u64, 20, 30] {
            n.insert(&k(v), v);
        }
        let view = n.as_ref();
        assert_eq!(view.search(&k(20)), Ok(1));
        assert_eq!(view.search(&k(5)), Err(0));
        assert_eq!(view.search(&k(25)), Err(2));
        assert_eq!(view.search(&k(35)), Err(3));
    }

    #[test]
    fn update_existing_key_overwrites_value() {
        let mut p = leaf_page();
        let mut n = NodeMut::new(&mut p, KS);
        n.insert(&k(1), 100);
        assert_eq!(n.insert(&k(1), 200), InsertOutcome::Updated);
        assert_eq!(n.as_ref().nkeys(), 1);
        assert_eq!(n.as_ref().value_at(0), 200);
    }

    #[test]
    fn fills_to_capacity_then_needs_split() {
        let mut p = leaf_page();
        let mut n = NodeMut::new(&mut p, KS);
        let cap = n.as_ref().capacity();
        for v in 0..cap as u64 {
            assert_eq!(n.insert(&k(v), v), InsertOutcome::Inserted, "entry {v}");
        }
        assert_eq!(n.insert(&k(cap as u64), 0), InsertOutcome::NeedSplit);
        // capacity formula matches reality
        assert_eq!(n.as_ref().nkeys(), cap);
    }

    #[test]
    fn delete_returns_value_and_zeroes_free_region() {
        let mut p = leaf_page();
        let mut n = NodeMut::new(&mut p, KS);
        for v in 0..10u64 {
            n.insert(&k(v), v + 100);
        }
        assert_eq!(n.delete(&k(4)), Some(104));
        assert_eq!(n.delete(&k(4)), None);
        let view = n.as_ref();
        assert_eq!(view.nkeys(), 9);
        assert_eq!(view.search(&k(4)), Err(4));
        // free region fully zeroed
        let (lo, hi) = (view.free_low(), view.free_high());
        assert!(p.bytes()[lo..hi].iter().all(|&b| b == 0));
    }

    #[test]
    fn compaction_reclaims_dead_bytes() {
        let mut p = leaf_page();
        let mut n = NodeMut::new(&mut p, KS);
        let cap = n.as_ref().capacity();
        for v in 0..cap as u64 {
            n.insert(&k(v), v);
        }
        // Delete one mid-node entry: its key bytes become dead (only the
        // 2-byte directory cell returns to free space), so the next
        // insert cannot fit without compaction.
        n.delete(&k(7));
        assert!(n.as_ref().dead_bytes() > 0);
        assert!(n.as_ref().free_bytes() < n.as_ref().entry_size() + DIR_ENTRY_SIZE);
        assert_eq!(n.insert(&k(cap as u64 + 1), 7), InsertOutcome::Inserted);
        assert_eq!(n.as_ref().dead_bytes(), 0, "compaction should have run");
        // survivors intact
        for v in 0..cap as u64 {
            if v != 7 {
                assert!(n.as_ref().search(&k(v)).is_ok(), "lost key {v}");
            }
        }
        assert!(n.as_ref().search(&k(cap as u64 + 1)).is_ok());
    }

    #[test]
    fn rebuild_with_keeps_metadata() {
        let mut p = leaf_page();
        {
            let mut n = NodeMut::new(&mut p, KS);
            n.set_next_leaf(PageId(77));
            for v in 0..6u64 {
                n.insert(&k(v), v);
            }
        }
        let entries: Vec<_> = Node::new(&p, KS).entries().into_iter().take(3).collect();
        let mut n = NodeMut::new(&mut p, KS);
        n.rebuild_with(&entries);
        let view = n.as_ref();
        assert_eq!(view.nkeys(), 3);
        assert_eq!(view.next_leaf(), PageId(77));
        // everything outside entries+header+dir is zero
        let (lo, hi) = (view.free_low(), view.free_high());
        assert!(p.bytes()[lo..hi].iter().all(|&b| b == 0));
    }

    #[test]
    fn internal_node_routing() {
        let mut p = Page::new(1024);
        let mut n = NodeMut::init_internal(&mut p, KS, 1, PageId(100));
        n.insert(&k(10), 110); // keys >= 10 -> page 110
        n.insert(&k(20), 120); // keys >= 20 -> page 120
        let view = n.as_ref();
        assert!(!view.is_leaf());
        assert_eq!(view.child_for(&k(5)), PageId(100));
        assert_eq!(view.child_for(&k(10)), PageId(110));
        assert_eq!(view.child_for(&k(15)), PageId(110));
        assert_eq!(view.child_for(&k(20)), PageId(120));
        assert_eq!(view.child_for(&k(99)), PageId(120));
    }

    #[test]
    fn stable_point_matches_paper_formula() {
        // With negligible header/footer, S ≈ K/(K+D) × P.
        let p = 8192;
        let ks = 17; // entry = 25
        let s = stable_point(p, ks);
        let k_eff = (ks + 8) as f64;
        let approx = k_eff / (k_eff + DIR_ENTRY_SIZE as f64) * p as f64;
        assert!((s as f64 - approx).abs() < 64.0, "S={s} approx={approx}");
    }

    #[test]
    fn geometry_regions_never_overlap_under_churn() {
        let mut p = leaf_page();
        let mut n = NodeMut::new(&mut p, KS);
        let mut present = std::collections::BTreeSet::new();
        let mut x = 1u64;
        for step in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = x % 200;
            if step % 3 == 2 {
                n.delete(&k(v));
                present.remove(&v);
            } else if n.insert(&k(v), v) != InsertOutcome::NeedSplit {
                present.insert(v);
            }
            let view = n.as_ref();
            assert!(view.free_low() <= view.free_high(), "regions crossed");
            assert_eq!(view.nkeys(), present.len());
        }
        for v in &present {
            assert!(n.as_ref().search(&k(*v)).is_ok());
        }
    }

    #[test]
    fn append_sorted_matches_insert_semantics() {
        let mut p = leaf_page();
        let mut n = NodeMut::new(&mut p, KS);
        for v in 0..20u64 {
            assert_eq!(n.append_sorted(&k(v), v * 2), InsertOutcome::Inserted);
        }
        let view = n.as_ref();
        for i in 0..20 {
            assert_eq!(view.key_at(i), &k(i as u64));
            assert_eq!(view.value_at(i), i as u64 * 2);
        }
    }

    #[test]
    fn capacity_formula() {
        // 1024-byte page, 8-byte keys: (1024-48)/(8+8+2) = 54 entries
        assert_eq!(node_capacity(1024, 8), 54);
    }
}

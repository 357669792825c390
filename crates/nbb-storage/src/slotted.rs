//! Slotted data pages: variable-length tuple storage with a slot directory.
//!
//! Layout (all offsets little-endian, page size ≤ 64 KiB):
//!
//! ```text
//! 0      2      4        6       8         10        16
//! +------+------+--------+-------+---------+---------+----------------+
//! |magic |nslots|freelow |freehi |livecount|reserved | slot directory |
//! +------+------+--------+-------+---------+---------+----------------+
//! | ... free space ...                                                |
//! +-------------------------------------------------------------------+
//! | tuple data (grows downward from the end of the page)              |
//! +-------------------------------------------------------------------+
//! ```
//!
//! Each slot directory entry is 4 bytes: `(offset: u16, len: u16)`. An
//! entry with `offset == 0` is a dead (deleted) slot; slot indices are
//! stable across deletes so [`RecordId`](crate::rid::RecordId)s stay valid.
//!
//! This is the structure whose *fill factor* the paper audits: the bytes
//! between the end of the slot directory and the start of tuple data are
//! allocated but hold nothing.

use crate::error::{Result, StorageError};
use crate::page::Page;

const MAGIC: u16 = 0x5B50; // "[P"
const OFF_MAGIC: usize = 0;
const OFF_NSLOTS: usize = 2;
const OFF_FREE_LOW: usize = 4;
const OFF_FREE_HIGH: usize = 6;
const OFF_LIVE: usize = 8;
/// Size of the fixed page header.
pub const SLOTTED_HEADER_SIZE: usize = 16;
const SLOT_ENTRY_SIZE: usize = 4;

/// Mutable view over a [`Page`] interpreted as a slotted data page.
pub struct SlottedPage<'a> {
    page: &'a mut Page,
}

/// Read-only view over a [`Page`] interpreted as a slotted data page.
pub struct SlottedPageRef<'a> {
    page: &'a Page,
}

impl<'a> SlottedPage<'a> {
    /// Initializes `page` as an empty slotted page, erasing prior content.
    pub fn init(page: &'a mut Page) -> Self {
        page.clear();
        let size = page.size();
        page.write_u16(OFF_MAGIC, MAGIC);
        page.write_u16(OFF_NSLOTS, 0);
        page.write_u16(OFF_FREE_LOW, SLOTTED_HEADER_SIZE as u16);
        page.write_u16(OFF_FREE_HIGH, size as u16 - 1); // inclusive-exclusive below
        page.write_u16(OFF_LIVE, 0);
        // free_high is stored minus one so 65536-byte pages fit in u16;
        // we restrict pages to <= 64 KiB - 1 effective bytes instead: use
        // size-1 and treat data end as free_high+1.
        SlottedPage { page }
    }

    /// The most slots a `page_size`-byte page holds when every tuple is
    /// `tuple_len` bytes: one directory entry and the tuple each.
    pub fn capacity(page_size: usize, tuple_len: usize) -> usize {
        (page_size - SLOTTED_HEADER_SIZE) / (tuple_len + SLOT_ENTRY_SIZE)
    }

    /// Wraps an already-initialized slotted page.
    pub fn attach(page: &'a mut Page) -> Result<Self> {
        if page.read_u16(OFF_MAGIC) != MAGIC {
            return Err(StorageError::Corrupt("slotted page magic mismatch".into()));
        }
        Ok(SlottedPage { page })
    }

    fn nslots(&self) -> u16 {
        self.page.read_u16(OFF_NSLOTS)
    }

    fn free_low(&self) -> usize {
        self.page.read_u16(OFF_FREE_LOW) as usize
    }

    fn free_high(&self) -> usize {
        self.page.read_u16(OFF_FREE_HIGH) as usize + 1
    }

    fn set_free_low(&mut self, v: usize) {
        self.page.write_u16(OFF_FREE_LOW, v as u16);
    }

    fn set_free_high(&mut self, v: usize) {
        self.page.write_u16(OFF_FREE_HIGH, (v - 1) as u16);
    }

    fn slot_entry(&self, slot: u16) -> (usize, usize) {
        let base = SLOTTED_HEADER_SIZE + slot as usize * SLOT_ENTRY_SIZE;
        (self.page.read_u16(base) as usize, self.page.read_u16(base + 2) as usize)
    }

    fn set_slot_entry(&mut self, slot: u16, off: usize, len: usize) {
        let base = SLOTTED_HEADER_SIZE + slot as usize * SLOT_ENTRY_SIZE;
        self.page.write_u16(base, off as u16);
        self.page.write_u16(base + 2, len as u16);
    }

    /// Number of live (non-deleted) tuples.
    pub fn live_count(&self) -> usize {
        self.page.read_u16(OFF_LIVE) as usize
    }

    /// Contiguous free bytes available for one more insert (accounting for
    /// the new slot directory entry the insert may need).
    pub fn free_space(&self) -> usize {
        let gap = self.free_high().saturating_sub(self.free_low());
        gap.saturating_sub(SLOT_ENTRY_SIZE)
    }

    /// Fraction of the page occupied by live tuple bytes plus live
    /// directory entries plus the header — the "fill factor" the paper
    /// reports (68% typical for B+Trees, as low as 2% for Wikipedia's
    /// revision heap pages under hot/cold mixing).
    pub fn fill_factor(&self) -> f64 {
        let mut used = SLOTTED_HEADER_SIZE;
        for s in 0..self.nslots() {
            let (off, len) = self.slot_entry(s);
            used += SLOT_ENTRY_SIZE;
            if off != 0 {
                used += len;
            }
        }
        used as f64 / self.page.size() as f64
    }

    /// Inserts a tuple, returning its slot. Reuses dead slots when possible.
    pub fn insert(&mut self, tuple: &[u8]) -> Result<u16> {
        if tuple.is_empty() {
            return Err(StorageError::Corrupt("empty tuples are not storable".into()));
        }
        let max = self.page.size() - SLOTTED_HEADER_SIZE - SLOT_ENTRY_SIZE;
        if tuple.len() > max {
            return Err(StorageError::TupleTooLarge { size: tuple.len(), max });
        }
        // Find a dead slot to reuse, else we need a new directory
        // entry. `live == nslots` means no slot is dead, so the common
        // append-only shape (fresh tail pages filled by `append_many`)
        // skips the scan entirely instead of re-walking the directory
        // on every insert.
        let nslots = self.nslots();
        let mut reuse: Option<u16> = None;
        if self.live_count() < usize::from(nslots) {
            for s in 0..nslots {
                if self.slot_entry(s).0 == 0 {
                    reuse = Some(s);
                    break;
                }
            }
        }
        let dir_growth = if reuse.is_some() { 0 } else { SLOT_ENTRY_SIZE };
        let gap = self.free_high().saturating_sub(self.free_low());
        if gap < tuple.len() + dir_growth {
            return Err(StorageError::PageFull {
                needed: tuple.len() + dir_growth,
                available: gap,
            });
        }
        let data_start = self.free_high() - tuple.len();
        self.page.bytes_mut()[data_start..data_start + tuple.len()].copy_from_slice(tuple);
        self.set_free_high(data_start);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = nslots;
                self.page.write_u16(OFF_NSLOTS, nslots + 1);
                self.set_free_low(self.free_low() + SLOT_ENTRY_SIZE);
                s
            }
        };
        self.set_slot_entry(slot, data_start, tuple.len());
        let live = self.live_count() + 1;
        self.page.write_u16(OFF_LIVE, live as u16);
        Ok(slot)
    }

    /// Deletes the tuple in `slot`. The slot becomes dead and reusable;
    /// the tuple bytes are reclaimed only at the next [`compact`](Self::compact).
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        self.check_live(slot)?;
        self.set_slot_entry(slot, 0, 0);
        let live = self.live_count() - 1;
        self.page.write_u16(OFF_LIVE, live as u16);
        Ok(())
    }

    /// Overwrites the tuple in `slot`. Same-or-smaller sizes update in
    /// place; growth requires enough free space for a fresh copy.
    pub fn update(&mut self, slot: u16, tuple: &[u8]) -> Result<()> {
        self.check_live(slot)?;
        let (off, len) = self.slot_entry(slot);
        if tuple.len() <= len {
            self.page.bytes_mut()[off..off + tuple.len()].copy_from_slice(tuple);
            self.set_slot_entry(slot, off, tuple.len());
            return Ok(());
        }
        let gap = self.free_high().saturating_sub(self.free_low());
        if gap < tuple.len() {
            return Err(StorageError::PageFull { needed: tuple.len(), available: gap });
        }
        let data_start = self.free_high() - tuple.len();
        self.page.bytes_mut()[data_start..data_start + tuple.len()].copy_from_slice(tuple);
        self.set_free_high(data_start);
        self.set_slot_entry(slot, data_start, tuple.len());
        Ok(())
    }

    /// Overwrites the tuple in `slot` with `new`, of its width, only
    /// while the slot holds `expect`: true when the slot holds `new`
    /// afterwards, written now or found there (a patch applied twice is
    /// applied once). A dead slot, another width or other bytes leave
    /// the page as it was.
    pub fn patch(&mut self, slot: u16, expect: &[u8], new: &[u8]) -> bool {
        let Ok(held) = self.get(slot) else { return false };
        if held == new {
            return true;
        }
        if held != expect || new.len() != expect.len() {
            return false;
        }
        let (off, len) = self.slot_entry(slot);
        self.page.bytes_mut()[off..off + len].copy_from_slice(new);
        true
    }

    /// Rewrites the tuple region so all live tuples are contiguous,
    /// reclaiming space from deleted and superseded tuples. Slot indices
    /// are preserved.
    pub fn compact(&mut self) {
        let nslots = self.nslots();
        let mut live: Vec<(u16, Vec<u8>)> = Vec::with_capacity(self.live_count());
        for s in 0..nslots {
            let (off, len) = self.slot_entry(s);
            if off != 0 {
                live.push((s, self.page.bytes()[off..off + len].to_vec()));
            }
        }
        let mut high = self.page.size();
        for (s, bytes) in &live {
            high -= bytes.len();
            self.page.bytes_mut()[high..high + bytes.len()].copy_from_slice(bytes);
            self.set_slot_entry(*s, high, bytes.len());
        }
        self.set_free_high(high);
    }

    fn check_live(&self, slot: u16) -> Result<()> {
        if slot >= self.nslots() || self.slot_entry(slot).0 == 0 {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        Ok(())
    }

    /// Read-only accessor for the tuple in `slot`.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        self.check_live(slot)?;
        let (off, len) = self.slot_entry(slot);
        Ok(&self.page.bytes()[off..off + len])
    }

    /// Iterates `(slot, tuple)` over live tuples in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        let n = self.nslots();
        (0..n).filter_map(move |s| {
            let (off, len) = self.slot_entry(s);
            (off != 0).then(|| (s, &self.page.bytes()[off..off + len]))
        })
    }
}

impl<'a> SlottedPageRef<'a> {
    /// Wraps an already-initialized slotted page read-only.
    pub fn attach(page: &'a Page) -> Result<Self> {
        if page.read_u16(OFF_MAGIC) != MAGIC {
            return Err(StorageError::Corrupt("slotted page magic mismatch".into()));
        }
        Ok(SlottedPageRef { page })
    }

    fn nslots(&self) -> u16 {
        self.page.read_u16(OFF_NSLOTS)
    }

    fn slot_entry(&self, slot: u16) -> (usize, usize) {
        let base = SLOTTED_HEADER_SIZE + slot as usize * SLOT_ENTRY_SIZE;
        (self.page.read_u16(base) as usize, self.page.read_u16(base + 2) as usize)
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        self.page.read_u16(OFF_LIVE) as usize
    }

    /// Fraction of the page occupied by live content (see
    /// [`SlottedPage::fill_factor`]).
    pub fn fill_factor(&self) -> f64 {
        let mut used = SLOTTED_HEADER_SIZE;
        for s in 0..self.nslots() {
            let (off, len) = self.slot_entry(s);
            used += SLOT_ENTRY_SIZE;
            if off != 0 {
                used += len;
            }
        }
        used as f64 / self.page.size() as f64
    }

    /// Read-only accessor for the tuple in `slot`.
    pub fn get(&self, slot: u16) -> Result<&'a [u8]> {
        if slot >= self.nslots() || self.slot_entry(slot).0 == 0 {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        let (off, len) = self.slot_entry(slot);
        Ok(&self.page.bytes()[off..off + len])
    }

    /// Iterates `(slot, tuple)` over live tuples in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        let n = self.nslots();
        (0..n).filter_map(move |s| {
            let (off, len) = self.slot_entry(s);
            (off != 0).then(|| (s, &self.page.bytes()[off..off + len]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Page {
        Page::new(1024)
    }

    #[test]
    fn insert_and_get_round_trip() {
        let mut p = page();
        let mut sp = SlottedPage::init(&mut p);
        let a = sp.insert(b"hello").unwrap();
        let b = sp.insert(b"world!").unwrap();
        assert_eq!(sp.get(a).unwrap(), b"hello");
        assert_eq!(sp.get(b).unwrap(), b"world!");
        assert_eq!(sp.live_count(), 2);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = page();
        let mut sp = SlottedPage::init(&mut p);
        let a = sp.insert(b"aaaa").unwrap();
        let _b = sp.insert(b"bbbb").unwrap();
        sp.delete(a).unwrap();
        assert!(sp.get(a).is_err());
        let c = sp.insert(b"cccc").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
        assert_eq!(sp.get(c).unwrap(), b"cccc");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = page();
        let mut sp = SlottedPage::init(&mut p);
        let a = sp.insert(b"0123456789").unwrap();
        sp.update(a, b"xy").unwrap();
        assert_eq!(sp.get(a).unwrap(), b"xy");
        sp.update(a, b"a-much-longer-tuple-value").unwrap();
        assert_eq!(sp.get(a).unwrap(), b"a-much-longer-tuple-value");
    }

    #[test]
    fn page_full_reported() {
        let mut p = Page::new(128);
        let mut sp = SlottedPage::init(&mut p);
        // fill with 16-byte tuples until full
        let mut n = 0;
        while sp.insert(&[7u8; 16]).is_ok() {
            n += 1;
        }
        assert!(n >= 4, "expected a few inserts to fit, got {n}");
        match sp.insert(&[7u8; 16]) {
            Err(StorageError::PageFull { .. }) => {}
            other => panic!("expected PageFull, got {other:?}"),
        }
    }

    #[test]
    fn tuple_too_large_rejected() {
        let mut p = page();
        let mut sp = SlottedPage::init(&mut p);
        let big = vec![1u8; 2000];
        assert!(matches!(sp.insert(&big), Err(StorageError::TupleTooLarge { .. })));
    }

    #[test]
    fn compact_reclaims_dead_bytes() {
        let mut p = page();
        let mut sp = SlottedPage::init(&mut p);
        let mut slots = Vec::new();
        for i in 0..10 {
            slots.push(sp.insert(&[i as u8; 50]).unwrap());
        }
        let before = sp.free_space();
        for s in slots.iter().step_by(2) {
            sp.delete(*s).unwrap();
        }
        sp.compact();
        let after = sp.free_space();
        assert!(after >= before + 5 * 50 - SLOT_ENTRY_SIZE, "before={before} after={after}");
        // survivors intact
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(sp.get(*s).unwrap(), &[i as u8; 50][..]);
            }
        }
    }

    #[test]
    fn fill_factor_tracks_occupancy() {
        let mut p = page();
        let mut sp = SlottedPage::init(&mut p);
        let empty = sp.fill_factor();
        assert!(empty < 0.05);
        for _ in 0..8 {
            sp.insert(&[9u8; 100]).unwrap();
        }
        let full = sp.fill_factor();
        assert!(full > 0.8, "fill factor {full}");
    }

    #[test]
    fn iter_yields_live_tuples_in_slot_order() {
        let mut p = page();
        let mut sp = SlottedPage::init(&mut p);
        let a = sp.insert(b"a").unwrap();
        let b = sp.insert(b"b").unwrap();
        let c = sp.insert(b"c").unwrap();
        sp.delete(b).unwrap();
        let got: Vec<_> = sp.iter().map(|(s, t)| (s, t.to_vec())).collect();
        assert_eq!(got, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    #[test]
    fn attach_rejects_uninitialized_page() {
        let mut p = page();
        assert!(SlottedPage::attach(&mut p).is_err());
        let p2 = page();
        assert!(SlottedPageRef::attach(&p2).is_err());
    }

    #[test]
    fn readonly_view_matches_mutable_view() {
        let mut p = page();
        {
            let mut sp = SlottedPage::init(&mut p);
            sp.insert(b"alpha").unwrap();
            sp.insert(b"beta").unwrap();
        }
        let r = SlottedPageRef::attach(&p).unwrap();
        assert_eq!(r.live_count(), 2);
        assert_eq!(r.get(0).unwrap(), b"alpha");
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn empty_tuple_rejected() {
        let mut p = page();
        let mut sp = SlottedPage::init(&mut p);
        assert!(sp.insert(b"").is_err());
    }
}

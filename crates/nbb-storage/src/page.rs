//! Raw page buffers and page identifiers.
//!
//! A [`Page`] is a fixed-size, heap-allocated byte buffer. All higher-level
//! structures (slotted data pages, B+Tree nodes) are *views* over a `Page`.
//! The default page size is 8 KiB, matching common OLTP engines; every
//! consumer takes the page size from the buffer itself so non-default sizes
//! work throughout the stack.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default page size in bytes (8 KiB).
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Identifier of a page within a single backing store.
///
/// Page ids are dense, starting at 0, in allocation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel used in on-page headers for "no page" (e.g. absent sibling).
    pub const INVALID: PageId = PageId(u64::MAX);

    /// Returns true unless this is the [`PageId::INVALID`] sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Residency stamps: each value is handed out once per process.
static STAMPS: AtomicU64 = AtomicU64::new(1);

/// A fixed-size page buffer.
///
/// Pages are always zero-initialized on creation; a zeroed buffer is the
/// canonical "empty" state every structural view must tolerate. Beside
/// its bytes a page carries a residency stamp and mark: memory only,
/// never in [`Page::bytes`], never on a device.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8]>,
    stamp: u64,
    marked: bool,
}

impl Page {
    /// Allocates a zeroed page of `size` bytes.
    ///
    /// # Panics
    /// Panics if `size < 128`: no on-page structure fits below that.
    pub fn new(size: usize) -> Self {
        assert!(size >= 128, "page size {size} too small (minimum 128)");
        Page { data: vec![0u8; size].into_boxed_slice(), stamp: 0, marked: false }
    }

    /// Builds a page from an existing buffer (e.g. read from disk).
    pub fn from_bytes(data: Box<[u8]>) -> Self {
        assert!(data.len() >= 128, "page size {} too small", data.len());
        Page { data, stamp: 0, marked: false }
    }

    /// Size of this page in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the full buffer.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the full buffer.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// The residency stamp: process-unique, given by the buffer pool
    /// whenever the page enters a frame and anew at every exclusive
    /// writer latch, so two reads that see one stamp saw one residency
    /// with no writer latch between them. 0 outside a pool.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Whether this residency was marked ([`Page::mark`]): false on
    /// entering a frame, kept by writer latches. A user raises it once
    /// its memory-only state on the page (an index cache) is in order.
    #[inline]
    pub fn marked(&self) -> bool {
        self.marked
    }

    /// Raises [`Page::marked`]; not a new stamp.
    #[inline]
    pub fn mark(&mut self) {
        self.marked = true;
    }

    /// A new stamp; with `fresh` (the page just entered a frame) the
    /// mark is cleared too.
    pub(crate) fn restamp(&mut self, fresh: bool) {
        self.stamp = STAMPS.fetch_add(1, Ordering::Relaxed);
        self.marked &= !fresh;
    }

    /// Zeroes the whole buffer.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }

    /// Reads a little-endian `u16` at `off`.
    #[inline]
    pub fn read_u16(&self, off: usize) -> u16 {
        // nbb-lint: allow(unwrap, slice is exactly the integer's width)
        u16::from_le_bytes(self.data[off..off + 2].try_into().unwrap())
    }

    /// Writes a little-endian `u16` at `off`.
    #[inline]
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `off`.
    #[inline]
    pub fn read_u32(&self, off: usize) -> u32 {
        // nbb-lint: allow(unwrap, slice is exactly the integer's width)
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap())
    }

    /// Writes a little-endian `u32` at `off`.
    #[inline]
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `off`.
    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        // nbb-lint: allow(unwrap, slice is exactly the integer's width)
        u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap())
    }

    /// Writes a little-endian `u64` at `off`.
    #[inline]
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let live = self.data.iter().filter(|&&b| b != 0).count();
        write!(f, "Page({} bytes, {} nonzero)", self.data.len(), live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_zeroed() {
        let p = Page::new(512);
        assert_eq!(p.size(), 512);
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_pages() {
        let _ = Page::new(64);
    }

    #[test]
    fn integer_round_trips() {
        let mut p = Page::new(256);
        p.write_u16(0, 0xBEEF);
        p.write_u32(10, 0xDEAD_BEEF);
        p.write_u64(100, u64::MAX - 3);
        assert_eq!(p.read_u16(0), 0xBEEF);
        assert_eq!(p.read_u32(10), 0xDEAD_BEEF);
        assert_eq!(p.read_u64(100), u64::MAX - 3);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut p = Page::new(256);
        p.bytes_mut().fill(0xFF);
        p.clear();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn invalid_page_id_sentinel() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(PageId(42).to_string(), "P42");
    }

    #[test]
    fn stamps_are_unique_and_a_restamp_keeps_the_mark() {
        let mut p = Page::new(256);
        p.restamp(true);
        let first = p.stamp();
        p.mark();
        p.restamp(false);
        assert_ne!(p.stamp(), first);
        assert!(p.marked(), "a writer latch keeps the residency's mark");
        p.restamp(true);
        assert!(!p.marked(), "a new residency starts unmarked");
        assert!(p.stamp() > first);
    }

    #[test]
    fn from_bytes_preserves_content() {
        let buf = vec![7u8; 256].into_boxed_slice();
        let p = Page::from_bytes(buf);
        assert!(p.bytes().iter().all(|&b| b == 7));
    }
}

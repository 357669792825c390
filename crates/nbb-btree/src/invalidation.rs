//! What remains of §2.1.2: the index-wide epoch `CSNidx`, and the rule
//! that says when a leaf's cache may be trusted.
//!
//! The paper keeps the cache consistent lazily — a predicate per
//! updated tuple, matched against a leaf's key range when the leaf is
//! next read. This crate keeps it exact at the writer instead (see
//! [`crate::cache`]), so no per-tuple state is left here. What is left:
//!
//! 1. `CSNp ≤ CSNidx` for every page, and incrementing `CSNidx` drops
//!    every page cache at once ([`InvalidationState::invalidate_all`]);
//! 2. a page's cache is trusted **only if** `CSNp == CSNidx` *and* a
//!    populate reset it during the page's current residency in the
//!    buffer pool ([`nbb_storage::page::Page::marked`]). Cache writes
//!    never dirty a frame, so a page read back from a device may hold
//!    entries older than the memory that was evicted; the mark is
//!    cleared on every load, and only a reset raises it again.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared invalidation state for one index: the `CSNidx` epoch.
#[derive(Debug, Default)]
pub struct InvalidationState {
    csn_idx: AtomicU64,
}

impl InvalidationState {
    /// Current `CSNidx`.
    #[inline]
    pub fn csn(&self) -> u64 {
        self.csn_idx.load(Ordering::Acquire)
    }

    /// Invalidates the entire index cache (`CSNidx += 1`), e.g. after a
    /// simulated crash.
    pub fn invalidate_all(&self) {
        self.csn_idx.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether a leaf whose header carries `page_csn`, and whose
    /// residency is `marked` or not, has a cache that may be read.
    #[inline]
    pub fn trusts(&self, page_csn: u64, marked: bool) -> bool {
        marked && page_csn == self.csn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_validates_matching_csn() {
        let inv = InvalidationState::default();
        assert!(inv.trusts(inv.csn(), true));
    }

    #[test]
    fn csn_mismatch_invalidates_without_zero() {
        // A stale epoch only withholds trust; the bytes are reset
        // lazily, by the leaf's next populate.
        let inv = InvalidationState::default();
        inv.invalidate_all();
        assert!(!inv.trusts(inv.csn() - 1, true));
    }

    #[test]
    fn invalidate_all_bumps_and_clears() {
        let inv = InvalidationState::default();
        let before = inv.csn();
        assert!(inv.trusts(before, true));
        inv.invalidate_all();
        assert_eq!(inv.csn(), before + 1);
        assert!(!inv.trusts(before, true), "every cache stamped before the bump is dropped");
    }

    #[test]
    fn an_unmarked_residency_is_never_trusted() {
        // A page fresh from a device: its header may carry the current
        // epoch (written back after a populate), but its entries may
        // predate writes that were kept only in memory.
        let inv = InvalidationState::default();
        assert!(!inv.trusts(inv.csn(), false));
    }
}

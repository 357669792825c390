//! Covering-index baseline (§2.1): the alternative the paper argues
//! against.
//!
//! A covering index appends the projected fields to every entry so
//! queries never touch the heap — at the cost of storing *cold* tuples'
//! fields too, bloating the index. Here the covered fields are appended
//! to the key bytes (they ride along in every node, which is precisely
//! the paper's space complaint), and lookups match on the search-key
//! prefix via a short range scan.
//!
//! `nbb-bench/ablations` compares this baseline against the index cache
//! on identical workloads: equal read paths, very different memory
//! footprints.

use crate::tree::{BTree, BTreeOptions, RangeBuf};
use nbb_storage::buffer::BufferPool;
use nbb_storage::error::Result;
use std::ops::Bound;
use std::sync::Arc;

/// A B+Tree whose entries carry `field_size` bytes of covered columns
/// after the `key_size`-byte search key.
pub struct CoveringIndex {
    tree: BTree,
    key_size: usize,
    field_size: usize,
}

impl CoveringIndex {
    /// Creates an empty covering index.
    pub fn create(pool: Arc<BufferPool>, key_size: usize, field_size: usize) -> Result<Self> {
        assert!(field_size > 0, "covering index needs covered fields");
        let tree = BTree::create(pool, key_size + field_size, BTreeOptions::default())?;
        Ok(CoveringIndex { tree, key_size, field_size })
    }

    /// Bulk-loads from ascending `(key, fields, value)` triples at `fill`.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        key_size: usize,
        field_size: usize,
        entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>, u64)>,
        fill: f64,
    ) -> Result<Self> {
        assert!(field_size > 0, "covering index needs covered fields");
        let composite = entries.into_iter().map(|(key, fields, value)| {
            assert_eq!(key.len(), key_size);
            assert_eq!(fields.len(), field_size);
            let mut k = key;
            k.extend_from_slice(&fields);
            (k, value)
        });
        let tree = BTree::bulk_load(
            pool,
            key_size + field_size,
            BTreeOptions::default(),
            composite,
            fill,
        )?;
        Ok(CoveringIndex { tree, key_size, field_size })
    }

    /// Inserts `key` with its covered `fields` and `value`.
    pub fn insert(&self, key: &[u8], fields: &[u8], value: u64) -> Result<()> {
        debug_assert_eq!(key.len(), self.key_size);
        debug_assert_eq!(fields.len(), self.field_size);
        let mut k = Vec::with_capacity(self.key_size + self.field_size);
        k.extend_from_slice(key);
        k.extend_from_slice(fields);
        self.tree.insert(&k, value)?;
        Ok(())
    }

    /// Index-only lookup: returns `(covered fields, value)` for the first
    /// entry whose search-key prefix equals `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<(Vec<u8>, u64)>> {
        debug_assert_eq!(key.len(), self.key_size);
        let mut probe = vec![0u8; self.key_size + self.field_size];
        probe[..self.key_size].copy_from_slice(key);
        // The first entry >= probe decides.
        let mut first = RangeBuf::default();
        self.tree.range_chunk(Bound::Included(&probe), Bound::Unbounded, 1, false, &mut first)?;
        let found = first.values.first().filter(|_| &first.keys[..self.key_size] == key);
        Ok(found.map(|v| (first.keys[self.key_size..].to_vec(), *v)))
    }

    /// Deletes the entry for `key` (first matching prefix).
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        let Some((fields, _)) = self.get(key)? else { return Ok(false) };
        let mut k = Vec::with_capacity(self.key_size + self.field_size);
        k.extend_from_slice(key);
        k.extend_from_slice(&fields);
        Ok(self.tree.delete(&k)?.is_some())
    }

    /// The underlying tree, for stats (leaf pages, fill, memory).
    pub fn tree(&self) -> &BTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbb_storage::disk::{DiskManager, InMemoryDisk};

    fn pool() -> Arc<BufferPool> {
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        Arc::new(BufferPool::new(disk, 64))
    }

    #[test]
    fn insert_and_covered_get() {
        let ci = CoveringIndex::create(pool(), 8, 4).unwrap();
        ci.insert(&7u64.to_be_bytes(), b"abcd", 70).unwrap();
        ci.insert(&9u64.to_be_bytes(), b"wxyz", 90).unwrap();
        let (fields, v) = ci.get(&7u64.to_be_bytes()).unwrap().unwrap();
        assert_eq!(fields, b"abcd");
        assert_eq!(v, 70);
        assert!(ci.get(&8u64.to_be_bytes()).unwrap().is_none());
    }

    #[test]
    fn bulk_load_and_lookup_many() {
        let entries = (0..500u64).map(|i| (i.to_be_bytes().to_vec(), vec![i as u8; 16], i * 2));
        let ci = CoveringIndex::bulk_load(pool(), 8, 16, entries, 0.68).unwrap();
        for i in (0..500u64).step_by(37) {
            let (fields, v) = ci.get(&i.to_be_bytes()).unwrap().unwrap();
            assert_eq!(fields, vec![i as u8; 16]);
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn delete_removes_entry() {
        let ci = CoveringIndex::create(pool(), 8, 4).unwrap();
        ci.insert(&1u64.to_be_bytes(), b"aaaa", 1).unwrap();
        assert!(ci.delete(&1u64.to_be_bytes()).unwrap());
        assert!(ci.get(&1u64.to_be_bytes()).unwrap().is_none());
        assert!(!ci.delete(&1u64.to_be_bytes()).unwrap());
    }

    #[test]
    fn covering_bloats_index_relative_to_plain() {
        use crate::tree::BTreeOptions;
        // Same 1000 keys; covering index carries 24 extra bytes per entry.
        let p1 = pool();
        let plain = BTree::bulk_load(
            Arc::clone(&p1),
            8,
            BTreeOptions::default(),
            (0..1000u64).map(|i| (i.to_be_bytes().to_vec(), i)),
            0.68,
        )
        .unwrap();
        let ci = CoveringIndex::bulk_load(
            pool(),
            8,
            24,
            (0..1000u64).map(|i| (i.to_be_bytes().to_vec(), vec![0u8; 24], i)),
            0.68,
        )
        .unwrap();
        let plain_pages = plain.index_stats().unwrap().leaf_pages;
        let covering_pages = ci.tree().index_stats().unwrap().leaf_pages;
        assert!(
            covering_pages > plain_pages * 2,
            "covering {covering_pages} pages vs plain {plain_pages}"
        );
    }
}

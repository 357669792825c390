//! # nbb-btree — B+Tree with the *No Bits Left Behind* index cache
//!
//! A disk-style B+Tree whose leaf pages follow the paper's Figure 1
//! exactly: a fixed header, key entries growing up from the low end, a
//! directory of sorted offsets growing down from the high end, and the
//! free space in the middle recycled as a **tuple cache**:
//!
//! * [`node`] — the on-page layout and its zeroing discipline;
//! * [`cache`] — cache slots, admission by access frequency (a
//!   TinyLFU sketch in place of §2.1.1's swap toward `S`, where
//!   `S = K/(K+D)·P` is the most stable byte of the page and now only
//!   breaks ties between victims), and the rule for trusting a leaf's
//!   cache (what remains of §2.1.2);
//! * [`tree`] — the tree operations plus the cache protocol:
//!   [`tree::BTree::lookup_cached`] (probe, count, and admit a miss),
//!   [`tree::BTree::cache_populate`] (store after heap fetch),
//!   [`tree::BTree::cache_refresh_many`] (write-through on a heap
//!   update);
//! * [`covering`] — the covering-index baseline §2.1 argues against;
//! * [`key`] — order-preserving fixed-width key codecs.
//!
//! ## Consistency at the writer
//!
//! Unlike the paper's lazy predicate log (§2.1.2), the writer keeps the
//! cache exact under the leaf latch it takes anyway: every row change
//! here already resolves through the index it must fix, and laziness
//! cost a 0.03 hit ratio on the benchmark's `write_mix`. See [`cache`].
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use nbb_storage::{BufferPool, InMemoryDisk, DiskManager};
//! use nbb_btree::{BTree, BTreeOptions, CacheConfig};
//!
//! let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(8192));
//! let pool = Arc::new(BufferPool::new(disk, 128));
//! let opts = BTreeOptions {
//!     cache: Some(CacheConfig { payload_size: 16, ..CacheConfig::default() }),
//!     ..Default::default()
//! };
//! let tree = BTree::create(pool, 8, opts).unwrap();
//!
//! // Index a tuple pointer, miss once, populate, then hit.
//! tree.insert(&42u64.to_be_bytes(), 1000).unwrap();
//! let m = tree.lookup_cached(&42u64.to_be_bytes()).unwrap();
//! assert_eq!(m.value, Some(1000));
//! assert!(m.payload.is_none(), "first access misses");
//! tree.cache_populate(m.leaf, &42u64.to_be_bytes(), &[7u8; 16], m.token).unwrap();
//! let h = tree.lookup_cached(&42u64.to_be_bytes()).unwrap();
//! assert_eq!(h.payload.as_deref(), Some(&[7u8; 16][..]));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod covering;
pub mod intents;
pub mod key;
pub mod node;
pub mod tree;

pub use cache::{Admission, CacheConfig, CacheView, CacheViewMut, StoreOutcome};
pub use covering::CoveringIndex;
pub use intents::{IntentGuard, KeyIntents, DEFAULT_INTENT_STRIPES};
pub use node::{node_capacity, stable_point, InsertOutcome, Node, NodeMut};
pub use tree::{
    BTree, BTreeOptions, CacheStats, CachedLookup, IndexStats, InvToken, RangeBuf, RangeChunk,
    WriteStats,
};

//! # nbb-storage — storage substrate for *No Bits Left Behind*
//!
//! The page-level machinery every technique in the paper manipulates:
//!
//! * [`page`] — raw fixed-size page buffers and [`page::PageId`]s.
//! * [`slotted`] — slotted data pages with a slot directory and a
//!   measurable *fill factor* (the paper's "unused space" metric).
//! * [`heap`] — append-oriented heap files with stable [`rid::RecordId`]s
//!   and the relocation primitive §3.1 clusters with.
//! * [`disk`] — in-memory and file-backed disks with I/O accounting
//!   ([`stats::IoStats`]), plus `disk::FaultDisk`, the one scripted
//!   test disk (gates, injected failures and panics, a call log, an
//!   optional latency per call), compiled only under the `fault-disk`
//!   feature that test builds enable.
//! * [`buffer`] — a lock-striped buffer pool replacing by 2Q's lists
//!   sized by ARC's rule: page ids hash to independent shards (own
//!   frame table, free list, probation FIFO, protected set, a ghost of
//!   evicted ids for each, cache-line-padded atomic counters), so
//!   concurrent accesses to distinct pages rarely contend, and a
//!   faulted page's first touches buy it only a spell on probation — a
//!   re-reference after that is what keeps a page resident. Faults run
//!   through an
//!   I/O-in-progress frame state machine: the shard lock is released
//!   across the disk read (one implementation serves point accesses
//!   and batches alike — a point miss is a batch of one),
//!   same-page requesters park on the in-flight load instead of
//!   duplicating it, and dirty evictions hand their bytes to a
//!   write-behind queue drained by a background flusher — so one stripe
//!   overlaps frames-many faults and victim reclaim never waits on the
//!   device.
//!   [`buffer::BufferPool::with_page_cache_write`] provides the paper's
//!   §2.1.1 contract: page writes that never dirty the frame and give up
//!   under latch contention, so index caching adds zero I/O.
//!
//! Everything is synchronous and internally synchronized; a single
//! [`buffer::BufferPool`] can be shared by heaps and B+Trees across
//! threads. Readers of distinct pages proceed in parallel up to shard
//! collisions, and a shard's faults overlap up to its frame count.

#![warn(missing_docs)]

pub mod buffer;
pub mod disk;
pub mod error;
pub mod heap;
pub mod lockrank;
pub mod page;
pub mod rid;
pub mod slotted;
pub mod stats;

pub use buffer::{
    clamp_shards, BufferPool, PoolOptions, DEFAULT_POOL_SHARDS, DEFAULT_WRITE_BEHIND,
    MIN_FRAMES_PER_SHARD,
};
#[cfg(any(test, feature = "fault-disk"))]
pub use disk::FaultDisk;
pub use disk::{DiskManager, DiskModel, FileDisk, InMemoryDisk};
pub use error::{Result, StorageError};
pub use heap::HeapFile;
pub use page::{Page, PageId, DEFAULT_PAGE_SIZE};
pub use rid::RecordId;
pub use slotted::{SlottedPage, SlottedPageRef};
pub use stats::{IoStats, PoolStats};

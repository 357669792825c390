//! # nbb — *No Bits Left Behind* (CIDR 2011) in Rust
//!
//! A from-scratch reproduction of Wu, Curino & Madden's CIDR 2011 vision
//! paper: reclaiming the three classes of waste in database systems.
//!
//! | Waste class | Technique | Entry point |
//! |-------------|-----------|-------------|
//! | Unused space (§2) | B+Tree index caches in leaf free space | [`btree::BTree::lookup_cached`] |
//! | Locality (§3) | Hot rows swapped onto hot pages by the updates that touch them; vertical partitioning | [`core::query::IndexRef::update_many`], [`partition::VerticalTable`] |
//! | Encoding (§4) | Schema-as-hint optimization, semantic IDs | [`encoding::analyze_table`], [`encoding::SemanticIdLayout`] |
//!
//! The crates re-exported here are usable independently:
//!
//! * [`storage`] — pages, heaps, disks (with latency models), and a
//!   **lock-striped buffer pool**: page ids hash to independent shards,
//!   each with its own frame table, free list, replacement state (2Q's
//!   probation FIFO and second-chance sweep over protected frames, a
//!   ghost of evicted ids for each, and ARC's adaptive probation
//!   target) and padded atomic counters, so concurrent
//!   readers contend only on stripe collisions;
//! * [`btree`] — the Figure-1 B+Tree with the index cache; one
//!   tree-level `RwLock` (whose value is the root) lets lookups share
//!   the read side while splits hold the write side;
//! * [`encoding`] — §4 codecs, analyzer, semantic ids;
//! * [`partition`] — §3.2 vertical splits: cost model, optimizer,
//!   store;
//! * [`workload`] — zipfian samplers and the synthetic Wikipedia;
//! * [`core`] — the table/database facade (with the `pool_shards` knob),
//!   §3.1's swap on update (an update that faults a cold heap page moves
//!   its row onto a resident hot page) and the waste audit.
//!
//! ## Concurrency model
//!
//! Read paths are designed to run in parallel: `IndexRef::project`
//! takes a tree-level read lock, descends to a leaf, and touches pages
//! through per-shard pool mutexes and per-frame latches; index→heap
//! pointer chases re-verify the fetched tuple's key so racing deletes
//! read as "gone" instead of serving foreign bytes, and a chase that
//! finds another key looks once more under its key's write intent,
//! because an update may have swapped the row onto a hot page. Range cursors
//! (`IndexRef::range(..).limit(n)`) refill by row budget, and a group
//! of them (`IndexRef::range_pages`, what the server makes of queued
//! `Range` requests) refills together: each refill batch-faults the
//! union of the leaves its cursors are sure to consume and batch-reads
//! the heap rows behind them into flat arenas — no per-row allocation,
//! no tree lock across either read.
//! Write paths are concurrent too: disjoint-key writers crab down to
//! their leaf's frame latch (only splits escalate to the exclusive
//! structure lock), and **same-key writers serialize through key-level
//! write intents** —
//! each put/update/delete installs an intent on the keys it addresses
//! and racing writers park on it with a pre-granted handoff, making
//! per-key writes through one index linearizable end to end. The
//! `tests/concurrent_access.rs` stress test pins down the
//! reader/writer contract (no lost write-through, cache answers always
//! match the heap), and `tests/same_key_storms.rs` pins the writer
//! contract (zero aborted ops, one winner per racing delete, a
//! consistent final row).
//!
//! See `examples/quickstart.rs` for a 5-minute tour, the `nbb-bench`
//! crate for the binaries that regenerate every figure in the paper,
//! and `benchmark/` for the end-to-end workloads that measure the
//! engine layer by layer over the wire.

pub use nbb_btree as btree;
pub use nbb_core as core;
pub use nbb_encoding as encoding;
pub use nbb_partition as partition;
pub use nbb_storage as storage;
pub use nbb_workload as workload;

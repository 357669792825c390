//! The workspace-wide lock-order lattice.
//!
//! Every blocking lock in the engine crates (`nbb-storage`,
//! `nbb-btree`, `nbb-core`) is constructed with one of these ranks via
//! [`parking_lot::Mutex::with_rank`] / [`parking_lot::RwLock::with_rank`].
//! In debug builds the shim keeps a thread-local stack of held ranks
//! and panics — naming both locks — on any acquisition that does not
//! strictly ascend this order, so the whole test suite doubles as a
//! lock-order model check. In release builds the ranks are compiled
//! out entirely.
//!
//! The lattice, lowest (acquire first) to highest (acquire last):
//!
//! | level | rank                     | guards                                        |
//! |------:|--------------------------|-----------------------------------------------|
//! |     1 | [`SERVER_LIFECYCLE`]     | `nbb-server` thread registry + shutdown flag   |
//! |     2 | [`SERVER_CONNS`]         | `nbb-server` connection table                  |
//! |     3 | [`SERVER_WORK_QUEUE`]    | `nbb-server` shared work queue                 |
//! |     4 | [`SERVER_CONN_RESP`]     | `nbb-server` per-connection response queue     |
//! |    10 | [`DB_TABLES`]            | `Database.tables` registry                     |
//! |    15 | [`TABLE_INDEXES`]        | `Table.indexes` registry                       |
//! |    20 | [`INTENT_STRIPE`]        | `KeyIntents` stripe maps                       |
//! |    25 | [`INTENT_SLOT`]          | per-key `IntentSlot` state                     |
//! |    30 | [`TREE_STRUCTURE`]       | B+tree structure lock (`BTree.root`)           |
//! |    40 | [`TABLE_HOT_SET`]        | a table's hot set of heap pages and its clock  |
//! |    50 | [`HEAP_DIRECTORY`]       | `HeapFile` page-id directory                   |
//! |    60 | [`POOL_SHARD_MAP`]       | buffer-pool shard residency maps               |
//! |    65 | [`POOL_FRAME`]           | per-frame page latches (multi: latch coupling) |
//! |    67 | [`POOL_INFLIGHT`]        | per-fault `InFlight` coalescing state          |
//! |    70 | [`POOL_WRITE_BEHIND`]    | write-behind queue state                       |
//! |    90 | [`DISK_IO`]              | disk backends (multi: wrapper disks may nest)  |
//!
//! The server band (1–4) sits *below* every engine rank because server
//! threads call into the engine — a worker that still held a server
//! lock while executing a batched op would need that lock to order
//! before `DB_TABLES` and everything above it. (By design workers drop all
//! server locks before touching the `Database`; the band makes the
//! checker prove it.) The client band ([`CLIENT_PENDING`] 6,
//! [`CLIENT_WRITE`] 7) is standalone: client threads never take engine
//! locks, the numbering only keeps the two client locks ordered with
//! respect to each other.
//!
//! The leaf cache takes no lock of its own: a writer fixes the entries
//! it stales under the leaf's frame latch, a page's residency stamp
//! (advanced by every exclusive writer latch, renewed by every load) is
//! how a populate learns a writer came between, and placement draws
//! from a generator local to the write. See `CONCURRENCY.md` at the
//! repo root for the full walk-through of every path.
//!
//! The constants live here (not in the `parking_lot` shim) because
//! `nbb-storage` is the lowest engine crate every other engine crate
//! already depends on; the shim provides only the mechanism.

pub use parking_lot::Rank;

/// `nbb-server`'s lifecycle state: the worker/acceptor thread registry
/// and the shutdown flag. First lock a shutdown caller takes, released
/// before joining any thread.
pub const SERVER_LIFECYCLE: Rank = Rank::new(1, "server.lifecycle");

/// `nbb-server`'s connection table. Held briefly to register /
/// deregister a connection; shutdown waits on its condvar for the
/// table to drain.
pub const SERVER_CONNS: Rank = Rank::new(2, "server.conns");

/// `nbb-server`'s shared work queue feeding the worker pool. Workers
/// release it before executing a job against the `Database`.
pub const SERVER_WORK_QUEUE: Rank = Rank::new(3, "server.work_queue");

/// `nbb-server`'s per-connection response queue (the backpressure
/// point: readers park on its slot condvar when the queue is full).
/// Highest server rank — nothing else is acquired under it, and engine
/// calls never happen while it is held.
pub const SERVER_CONN_RESP: Rank = Rank::new(4, "server.conn_resp");

/// `nbb-client`'s pending-request map (id → completed response slot).
/// Client band: client threads never take engine locks; this orders
/// only against [`CLIENT_WRITE`].
pub const CLIENT_PENDING: Rank = Rank::new(6, "client.pending");

/// `nbb-client`'s socket write lock. Above [`CLIENT_PENDING`] in
/// number but acquired with the pending map already *released* — the
/// send path must never hold the pending map across a blocking socket
/// write (see `CONCURRENCY.md`).
pub const CLIENT_WRITE: Rank = Rank::new(7, "client.write");

/// `Database.tables`: the table registry. Held briefly for lookup /
/// create; `create_table` and `reopen` hold the write side across
/// table construction, which reaches every rank below.
pub const DB_TABLES: Rank = Rank::new(10, "db.tables");

/// `Table.indexes`: the per-table index registry. The read side is
/// held across multi-index maintenance loops (tree inserts/deletes),
/// so everything the tree touches must rank above it.
pub const TABLE_INDEXES: Rank = Rank::new(15, "table.indexes");

/// `KeyIntents` stripe maps. Intents order strictly before tree and
/// pool locks: writers stage all key intents *before* descending.
/// Releasing an intent re-locks its stripe, so holding any higher rank
/// while dropping an `IntentGuard` is flagged too.
pub const INTENT_STRIPE: Rank = Rank::new(20, "btree.intent_stripe");

/// Per-key `IntentSlot` state, locked nested inside its stripe during
/// install/handoff and alone while parked on the slot condvar.
pub const INTENT_SLOT: Rank = Rank::new(25, "btree.intent_slot");

/// The B+tree structure lock (`BTree.root`): read side for crabbing
/// descents, write side for escalated splits.
pub const TREE_STRUCTURE: Rank = Rank::new(30, "btree.structure");

/// A table's hot set: the heap pages updates gather hot rows onto, the
/// clock that hands a faulting update a hot slot, and the update count
/// that paces the set's frequency sketch (the sketch itself is
/// lock-free). Held for the clock's steps and residency probes only:
/// never across a device read, a tree call, an intent or a heap latch
/// (an admission samples its hot page after releasing it). Above the
/// tree and intent ranks because a writer takes it holding neither,
/// below the heap and the pool because its residency probes reach the
/// shard maps.
pub const TABLE_HOT_SET: Rank = Rank::new(40, "table.hot_set");

/// `HeapFile`'s directory of allocated page ids. Read guards are
/// transient (a clone or a load, never held across a pool call). The
/// write side is held across exactly one pool call, the
/// `BufferPool::new_page_with` of a heap growth, so that appenders
/// racing for a full tail link one page; that allocation reads nothing,
/// and only a dirty victim's synchronous write (write-behind off or
/// full) can reach a device under it. Ranks below the pool, so the
/// acquisitions under it ascend: 50 → 60/65/70 (→ 90).
pub const HEAP_DIRECTORY: Rank = Rank::new(50, "heap.directory");

/// Buffer-pool shard residency maps. Dropped across disk reads on the
/// fault path; held across frame-latch acquisition when publishing,
/// retiring, and in the sync write fallback.
pub const POOL_SHARD_MAP: Rank = Rank::new(60, "pool.shard_map");

/// Per-frame page latches. Loaders hold the write side across
/// write-behind serves and disk reads.
///
/// `multi`: user closures run under a frame latch and may re-enter the
/// pool for a *distinct* page (nested `with_page` — latch coupling),
/// so one thread legitimately holds several frame latches at once.
/// Same-page re-entry would self-deadlock regardless of ranks; the
/// pin protocol, not the lattice, is what keeps coupling safe (see
/// `CONCURRENCY.md` §frame/map exemption).
pub const POOL_FRAME: Rank = Rank::new_multi(65, "pool.frame");

/// Per-fault `InFlight` coalescing state (loser threads park here
/// while one loader faults the page in). Above [`POOL_FRAME`] because
/// a nested fault parks on — and a nested loader resolves — the slot
/// while the caller's outer frame latch is still held.
pub const POOL_INFLIGHT: Rank = Rank::new(67, "pool.inflight");

/// Write-behind queue state (bounded queue, flusher handshake,
/// drain/serve-fault barriers).
pub const POOL_WRITE_BEHIND: Rank = Rank::new(70, "pool.write_behind");

/// Disk backends: `InMemoryDisk`'s page vector and `FileDisk`'s
/// non-unix positional-I/O lock. Terminal — nothing is ever acquired
/// under a disk lock — and `multi` because wrapper disks (latency /
/// fault injection) delegate to an inner disk's lock of the same rank.
pub const DISK_IO: Rank = Rank::new_multi(90, "disk.io");

// The checker itself is unit-tested in the `parking_lot` shim; these
// tests pin the *engine's* lattice — the constants above, by name —
// so a rank renumbering that breaks the documented order fails here.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use parking_lot::{Mutex, RwLock};

    #[test]
    fn full_lattice_descends_in_order() {
        let lifecycle = Mutex::with_rank(SERVER_LIFECYCLE, ());
        let conns = Mutex::with_rank(SERVER_CONNS, ());
        let work = Mutex::with_rank(SERVER_WORK_QUEUE, ());
        let resp = Mutex::with_rank(SERVER_CONN_RESP, ());
        let tables = RwLock::with_rank(DB_TABLES, ());
        let stripe = Mutex::with_rank(INTENT_STRIPE, ());
        let slot = Mutex::with_rank(INTENT_SLOT, ());
        let root = RwLock::with_rank(TREE_STRUCTURE, ());
        let dir = RwLock::with_rank(HEAP_DIRECTORY, ());
        let map = Mutex::with_rank(POOL_SHARD_MAP, ());
        let frame = RwLock::with_rank(POOL_FRAME, ());
        let disk = Mutex::with_rank(DISK_IO, ());

        let _s1 = lifecycle.lock();
        let _s2 = conns.lock();
        let _s3 = work.lock();
        let _s4 = resp.lock();
        let _a = tables.read();
        let _b = stripe.lock();
        let _c = slot.lock();
        let _d = root.read();
        let _f = dir.write();
        let _g = map.lock();
        let _h = frame.write();
        let _i = disk.lock();
        assert_eq!(parking_lot::held_rank_count(), 12);
    }

    #[test]
    #[should_panic(
        expected = "acquiring 'server.conn_resp' (rank 4) while holding 'db.tables' (rank 10)"
    )]
    fn engine_locks_never_nest_server_locks() {
        // The server band sits below the engine: a thread inside an
        // engine lock must never reach back into server state.
        let tables = RwLock::with_rank(DB_TABLES, ());
        let resp = Mutex::with_rank(SERVER_CONN_RESP, ());
        let _held = tables.read();
        let _boom = resp.lock();
    }

    #[test]
    #[should_panic(expected = "acquiring 'db.tables' (rank 10) while holding 'disk.io' (rank 90)")]
    fn inverted_acquisition_panics_naming_both_locks() {
        let disk = Mutex::with_rank(DISK_IO, ());
        let tables = RwLock::with_rank(DB_TABLES, ());
        let _held = disk.lock();
        let _boom = tables.write();
    }

    #[test]
    #[should_panic(expected = "acquiring 'pool.shard_map' (rank 60) while holding 'pool.frame'")]
    fn frame_to_map_nesting_requires_the_exemption() {
        // The pin()-path direction: a plain `lock()` under a frame
        // latch must trip the checker — only `lock_unordered()` (with
        // its written justification) may take this edge.
        let frame = RwLock::with_rank(POOL_FRAME, ());
        let map = Mutex::with_rank(POOL_SHARD_MAP, ());
        let _latch = frame.read();
        let _boom = map.lock();
    }

    #[test]
    fn multi_ranks_permit_same_level_nesting() {
        // Latch coupling (nested with_page on distinct pages) and
        // wrapper disks delegating to inner disks are legal.
        let outer = RwLock::with_rank(POOL_FRAME, ());
        let inner = RwLock::with_rank(POOL_FRAME, ());
        let _o = outer.write();
        let _i = inner.read();
        let wrapper = Mutex::with_rank(DISK_IO, ());
        let inner_disk = Mutex::with_rank(DISK_IO, ());
        let _w = wrapper.lock();
        let _d = inner_disk.lock();
    }
}

//! The B+Tree: search/insert/delete/scan plus the §2.1 index-cache
//! protocol (probe on lookup, populate on miss, promote on hit,
//! predicate-driven invalidation).
//!
//! Concurrency model: one tree-level `RwLock<PageId>` guards the tree's
//! *shape* and holds the current root as its value, plus a striped
//! per-leaf latch table for writers. Read-only operations (`get`,
//! `lookup_cached`, `scan_from`, `range_chunk`, `leaf_for`, `leaves_after`, the
//! stats walks) take the read side — they never block each other, and
//! with the sharded buffer pool they proceed in parallel down to the
//! frame latches.
//!
//! Range scans are driven from outside, one call per leaf:
//! [`BTree::range_chunk`] re-descends by key each time (so a cursor
//! survives splits between calls), appends the leaf's entries to the
//! caller's [`RangeBuf`] — no per-entry allocation, no cache probe
//! unless asked — and reports the leaf's total key count;
//! [`BTree::leaf_for`] and [`BTree::leaves_after`] name the first leaf
//! and the ones that follow off the level-1 parent without reading
//! them, so a group of cursors can fault exactly the leaves it will
//! walk in one batched read — the tree holds no lock between these
//! calls, and none across that read.
//!
//! Writers crab: they descend under the structure lock's **read** side
//! (the shape cannot change underfoot while any read guard is held),
//! latch the destination leaf in [`LeafLatches`], and mutate it
//! leaf-locally — so inserts and deletes on disjoint leaves proceed in
//! parallel, matching the sharded buffer pool. Only a structural
//! modification escalates: a full leaf makes the writer drop its leaf
//! latch and read guard, take the structure lock's **write** side
//! (excluding every reader and fast-path writer), and re-descend to
//! split — deletes never restructure (underflow is left for the index
//! cache to recycle), so they never escalate.
//!
//! All of that is one function, the leaf-run walker in `tree/write.rs`
//! (the write path is that file, read top to bottom):
//! [`BTree::insert_many`], [`BTree::delete_many`] and
//! [`BTree::update_value`] hand it their keys in sorted order and a
//! per-key leaf op; it takes the structure lock's read side (released
//! every few dozen runs, so a huge batch cannot starve an escalating
//! writer),
//! and per run of keys one leaf owns pays one descent, one leaf latch —
//! the only place one is taken — and one exclusive page access. An op
//! that finds its leaf full hands that one key to the escalated insert
//! and the walk resumes behind it. Every single-key operation — `get`,
//! `lookup_cached`, `insert`, `delete` — is a wrapper over its
//! multi-key form with a batch of one.
//!
//! Alongside the leaf latches the tree carries a [`KeyIntents`] table
//! ([`BTree::intents`]): key-level **write intents** for the multi-step
//! logical writes layered above the tree (resolve a key, mutate the
//! heap, maintain every index). The tree's own entry points do not take
//! intents — a single leaf mutation is already atomic under its latch —
//! but the table layer installs an intent on every key a write batch
//! addresses *before* descending, and racing same-key writers park on
//! it with a pre-granted handoff, exactly like buffer-pool requesters
//! parking on an in-flight load. That makes per-key put/update/delete
//! linearizable end to end without adding any cost to disjoint-key
//! writers; [`WriteStats::intent_parks`] / `intent_handoffs` meter the
//! contention.
//!
//! Page-level physical latching is delegated to the buffer pool's frame
//! locks (every leaf mutation is a single
//! [`nbb_storage::BufferPool::with_page_mut`] closure, so readers always
//! observe a leaf between two whole operations). Cache writes use the
//! pool's try-latch, non-dirtying access
//! ([`nbb_storage::BufferPool::with_page_cache_write`]) and are simply
//! skipped under contention, per §2.1.3.
//!
//! The pool's fault path is an I/O-in-progress state machine: a request
//! for a page another thread is still loading *parks on that frame*
//! (off every tree lock — a parked reader holds at most the structure
//! lock's read side, which the loader never needs), and faults for
//! distinct pages in one pool stripe overlap. Tree code needs no
//! special cases for these `Loading` frames — `get_many`'s per-leaf
//! batches and the write paths' leaf-run accesses simply come back with
//! the page once it publishes — but it can rely on cold batched reads
//! not serializing per stripe, and on a storm of descents through the
//! same cold interior page costing one disk read.
//!
//! Every lock above sits in the workspace lock-order lattice
//! (`CONCURRENCY.md` at the repo root): structure at rank 30, leaf
//! latches at 40 — deliberately *not* re-entrant, so the rank checker
//! enforces the one-leaf-latch-at-a-time crabbing promise — and the
//! tree's frame-nested state (invalidation log, promotion RNG) above
//! the pool's frame rank. Debug test runs verify the whole order at
//! runtime; `cargo run -p nbb-lint` verifies no lock escapes it.

use crate::cache::{CacheConfig, CacheView, CacheViewMut, StoreOutcome, CACHE_CAP_UNLIMITED};
use crate::intents::{KeyIntents, DEFAULT_INTENT_STRIPES};
use crate::invalidation::{InvalidateOutcome, InvalidationState};
use crate::node::{node_capacity, InsertOutcome, Node, NodeMut};
use nbb_storage::buffer::BufferPool;
use nbb_storage::error::{Result, StorageError};
use nbb_storage::lockrank;
use nbb_storage::page::PageId;
use parking_lot::{Mutex, MutexGuard, RwLock};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::ops::{Bound, ControlFlow};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

mod write;

/// Stripes in the per-leaf latch table. Collisions between distinct
/// leaves only cost parallelism, never correctness, so a modest fixed
/// count suffices — it bounds writer fan-out the way pool shards bound
/// reader fan-out.
const LEAF_LATCH_STRIPES: usize = 64;

/// Striped per-leaf write latches (the "per-leaf latching" ROADMAP
/// item). A writer holds the latch of the one leaf it mutates for the
/// duration of its leaf-local work; writers on other leaves proceed in
/// parallel. Readers never touch these — the buffer pool's frame
/// latches give them consistent per-page views. Deadlock discipline: a
/// thread holds at most one leaf latch at a time, acquired only while
/// holding the structure lock's read side (never its write side), so
/// the only lock order is structure → leaf → frame.
struct LeafLatches {
    stripes: Box<[Mutex<()>]>,
}

impl LeafLatches {
    fn new() -> Self {
        LeafLatches {
            stripes: (0..LEAF_LATCH_STRIPES)
                .map(|_| Mutex::with_rank(lockrank::LEAF_LATCH, ()))
                .collect(),
        }
    }

    fn lock(&self, leaf: PageId) -> MutexGuard<'_, ()> {
        self.stripes[(leaf.0 % self.stripes.len() as u64) as usize].lock()
    }
}

/// Tree construction options.
#[derive(Debug, Clone, Default)]
pub struct BTreeOptions {
    /// Enable the index cache with this configuration.
    pub cache: Option<CacheConfig>,
    /// Seed for the cache's randomized placement (fixed default for
    /// reproducibility).
    pub cache_seed: u64,
}

/// Aggregated index-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached lookups attempted (key found in the index).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to go to the heap.
    pub misses: u64,
    /// Entries stored by [`BTree::cache_populate`].
    pub populates: u64,
    /// Stores that overwrote a peripheral victim.
    pub evictions: u64,
    /// On-hit swaps toward the stable point.
    pub promotions: u64,
    /// Cache writes abandoned because the page latch was contended.
    pub latch_giveups: u64,
    /// Page caches zeroed by predicate matches.
    pub zeroings: u64,
    /// Populates skipped because an invalidation raced the heap read.
    pub stale_skips: u64,
}

impl CacheStats {
    /// Cache hit rate over attempted lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Aggregated write-path counters: how much descent and latch work the
/// multi-key write ops amortized. A loop of N single-key calls shows as
/// N batches of one key; one [`BTree::insert_many`] of N keys shows as
/// **one** batch whose `keys / leaf_groups` ratio is the amortization
/// factor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Logical write batches executed (one per `insert_many` /
    /// `delete_many` call; single-key wrappers count as batches of one).
    pub batches: u64,
    /// Keys across those batches.
    pub keys: u64,
    /// Leaf groups processed — one descent plus one leaf-latch
    /// acquisition each.
    pub leaf_groups: u64,
    /// Runs that hit a full leaf and escalated to the exclusive
    /// structure lock (where splits happen).
    pub escalations: u64,
    /// Writers that found their key's write intent held by another
    /// writer and parked on it ([`BTree::intents`]) — same-key write
    /// contention made visible.
    pub intent_parks: u64,
    /// Intent releases that handed the key directly to a parked waiter
    /// (the pre-granted continuation) instead of retiring the intent.
    pub intent_handoffs: u64,
}

impl WriteStats {
    /// Mean keys amortized per descent/latch acquisition (1.0 = no
    /// amortization, i.e. pure single-key traffic).
    pub fn keys_per_leaf_group(&self) -> f64 {
        if self.leaf_groups == 0 {
            0.0
        } else {
            self.keys as f64 / self.leaf_groups as f64
        }
    }
}

#[derive(Default)]
struct WriteStatsAtomic {
    batches: AtomicU64,
    keys: AtomicU64,
    leaf_groups: AtomicU64,
    escalations: AtomicU64,
}

#[derive(Default)]
struct CacheStatsAtomic {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    populates: AtomicU64,
    evictions: AtomicU64,
    promotions: AtomicU64,
    latch_giveups: AtomicU64,
    zeroings: AtomicU64,
    stale_skips: AtomicU64,
}

/// Consistency token captured at lookup time; [`BTree::cache_populate`]
/// refuses to store a payload if any invalidation happened after it was
/// issued (the heap value read in between may be stale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvToken {
    csn: u64,
    newest_seq: u64,
}

/// Result of a cache-aware point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedLookup {
    /// The value stored for the key (tuple pointer), if the key exists.
    pub value: Option<u64>,
    /// The cached payload, present on a cache hit.
    pub payload: Option<Vec<u8>>,
    /// The leaf that owns the key — pass to [`BTree::cache_populate`].
    pub leaf: PageId,
    /// Consistency token for populating after a heap fetch.
    pub token: InvToken,
}

/// Caller-owned row buffers [`BTree::range_chunk`] appends to, so a
/// scan allocates per refill, not per row: entry `i`'s key is
/// `keys[i * key_size..][..key_size]`, its value (tuple pointer)
/// `values[i]`.
#[derive(Debug, Clone, Default)]
pub struct RangeBuf {
    /// The index keys, `key_size` bytes each.
    pub keys: Vec<u8>,
    /// The stored values.
    pub values: Vec<u64>,
    /// Probing scans only: one `payload_size` slot per entry — the
    /// cached fields from leaf free space where `cached[i]`, zeros
    /// (for the caller to fill) elsewhere.
    pub payloads: Vec<u8>,
    /// Probing scans only: whether entry `i`'s slot holds a cached,
    /// valid payload.
    pub cached: Vec<bool>,
}

impl RangeBuf {
    /// Empties every buffer, keeping the allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.payloads.clear();
        self.cached.clear();
    }
}

/// One leaf's worth of an ordered range scan (see
/// [`BTree::range_chunk`]).
#[derive(Debug, Clone, Copy)]
pub struct RangeChunk {
    /// In-range entries appended to the caller's [`RangeBuf`],
    /// ascending by key. Zero only when `exhausted`.
    pub len: usize,
    /// The leaf the entries came from — pass to
    /// [`BTree::cache_populate`] together with `token` after a heap
    /// chase, so scans warm the cache like point lookups do.
    pub leaf: PageId,
    /// Consistency token issued before the leaf was read.
    pub token: InvToken,
    /// Keys the leaf holds in total, in range or not — the divisor for
    /// "how many more leaves does a row budget span" (`len` undercounts
    /// a leaf the scan entered part-way).
    pub leaf_keys: usize,
    /// True once the scan passed the upper bound or the leaf chain
    /// ended; no further chunk will yield entries. Never true for a
    /// chunk cut at `max`: the cut is only made in front of an in-range
    /// entry.
    pub exhausted: bool,
}

/// A disk-style B+Tree with fixed-width keys and `u64` values.
pub struct BTree {
    pool: Arc<BufferPool>,
    key_size: usize,
    /// The structure lock. Guards the tree's shape (splits, root swaps)
    /// and carries the current root page id as its value, so readers
    /// snapshot the root and protect the shape with a single shared
    /// acquisition.
    root: RwLock<PageId>,
    /// Per-leaf write latches; see the module docs' crabbing discipline.
    latches: LeafLatches,
    /// Key-level write intents for the logical write paths layered
    /// above the tree; see [`BTree::intents`].
    intents: KeyIntents,
    opts: BTreeOptions,
    inv: InvalidationState,
    rng: Mutex<SmallRng>,
    stats: CacheStatsAtomic,
    wstats: WriteStatsAtomic,
    /// Per-leaf cache-space target in bytes ([`CACHE_CAP_UNLIMITED`] =
    /// every free-region slot is usable). Set at runtime by the tuner
    /// via [`BTree::set_cache_space_target`] and honored lazily: each
    /// cache view built after the store reads the new value, so the cap
    /// takes effect at the next leaf touch with no stop-the-world
    /// rewrite.
    cache_cap: AtomicUsize,
}

impl BTree {
    /// A tree over `pool` with its root at `root`: fresh latch and intent
    /// tables, invalidation epoch and counters.
    fn rooted_at(pool: Arc<BufferPool>, key_size: usize, root: PageId, opts: BTreeOptions) -> Self {
        let threshold = opts.cache.map(|c| c.log_threshold).unwrap_or(64);
        BTree {
            pool,
            key_size,
            latches: LeafLatches::new(),
            intents: KeyIntents::new(DEFAULT_INTENT_STRIPES),
            root: RwLock::with_rank(lockrank::TREE_STRUCTURE, root),
            inv: InvalidationState::new(threshold),
            rng: Mutex::with_rank(
                lockrank::TREE_RNG,
                SmallRng::seed_from_u64(opts.cache_seed ^ 0x006e_6262_7472_6565),
            ),
            opts,
            stats: CacheStatsAtomic::default(),
            wstats: WriteStatsAtomic::default(),
            cache_cap: AtomicUsize::new(CACHE_CAP_UNLIMITED),
        }
    }

    /// Creates an empty tree.
    pub fn create(pool: Arc<BufferPool>, key_size: usize, opts: BTreeOptions) -> Result<Self> {
        assert!(key_size >= 1, "key size must be positive");
        if let Some(c) = &opts.cache {
            c.validate();
        }
        let page_size = pool.disk().page_size();
        assert!(
            node_capacity(page_size, key_size) >= 4,
            "page size {page_size} too small for key size {key_size}"
        );
        let (root, ()) = pool.new_page_with(|p| {
            NodeMut::init_leaf(p, key_size);
        })?;
        Ok(Self::rooted_at(pool, key_size, root, opts))
    }

    /// Reattaches a tree persisted on `pool`'s disk, rooted at `root`
    /// (the caller's catalog records the root page id and key size).
    ///
    /// This is the restart/recovery path (§2.1.2): the reopened tree
    /// starts a fresh CSN epoch, so any cache bytes that survived on
    /// disk are invalid until repopulated — "to support full index
    /// invalidation … we can efficiently invalidate the entire cache by
    /// incrementing CSNidx".
    pub fn open(
        pool: Arc<BufferPool>,
        key_size: usize,
        root: PageId,
        opts: BTreeOptions,
    ) -> Result<Self> {
        assert!(key_size >= 1, "key size must be positive");
        if let Some(c) = &opts.cache {
            c.validate();
        }
        // The root comes off a device: it must carry the node magic.
        // (Every leaf is checked the same way by the chain walk below.)
        pool.with_page(root, |p| Node::checked(p, root, key_size).map(|_| ()))??;
        let tree = Self::rooted_at(pool, key_size, root, opts);
        // Fresh epoch strictly above every persisted CSNp, so cache
        // bytes surviving on disk can never false-validate.
        let mut max_csn = 0u64;
        tree.for_each_leaf(|n| max_csn = max_csn.max(n.csn()))?;
        tree.inv.advance_epoch_beyond(max_csn);
        Ok(tree)
    }

    /// The current root page id (persist it in a catalog to reopen the
    /// tree later with [`BTree::open`]).
    pub fn root_page(&self) -> PageId {
        *self.root.read()
    }

    /// Bulk-loads a tree from strictly ascending `(key, value)` pairs,
    /// filling each node to `fill` of capacity (the paper's fill-factor
    /// knob: 0.68 typical, 1.0 compacted, 0.45 churned).
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        key_size: usize,
        opts: BTreeOptions,
        entries: impl IntoIterator<Item = (Vec<u8>, u64)>,
        fill: f64,
    ) -> Result<Self> {
        assert!((0.0..=1.0).contains(&fill), "fill must be in (0, 1]");
        if let Some(c) = &opts.cache {
            c.validate();
        }
        let page_size = pool.disk().page_size();
        let cap = node_capacity(page_size, key_size);
        assert!(cap >= 4, "page size {page_size} too small for key size {key_size}");
        let per_node = ((cap as f64 * fill) as usize).clamp(1, cap);

        // Level 0: leaves.
        let mut level_nodes: Vec<(Vec<u8>, PageId)> = Vec::new();
        let mut current: Option<PageId> = None;
        let mut count_in_node = 0usize;
        let mut prev_key: Option<Vec<u8>> = None;
        let mut prev_leaf: Option<PageId> = None;
        for (key, value) in entries {
            assert_eq!(key.len(), key_size, "bulk_load key width mismatch");
            if let Some(pk) = &prev_key {
                assert!(*pk < key, "bulk_load requires strictly ascending keys");
            }
            prev_key = Some(key.clone());
            if current.is_none() || count_in_node >= per_node {
                let (pid, ()) = pool.new_page_with(|p| {
                    NodeMut::init_leaf(p, key_size);
                })?;
                if let Some(prev) = prev_leaf {
                    pool.with_page_mut(prev, |p| {
                        NodeMut::new(p, key_size).set_next_leaf(pid);
                    })?;
                }
                prev_leaf = Some(pid);
                level_nodes.push((key.clone(), pid));
                current = Some(pid);
                count_in_node = 0;
            }
            // nbb-lint: allow(unwrap, current is seeded before the first iteration)
            let pid = current.expect("set above");
            pool.with_page_mut(pid, |p| {
                let r = NodeMut::new(p, key_size).append_sorted(&key, value);
                debug_assert_eq!(r, InsertOutcome::Inserted);
            })?;
            count_in_node += 1;
        }
        if level_nodes.is_empty() {
            return Self::create(pool, key_size, opts);
        }

        // Upper levels.
        let mut level = 1u16;
        while level_nodes.len() > 1 {
            let group = per_node.max(2);
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            for chunk in level_nodes.chunks(group + 1) {
                let leftmost = chunk[0].1;
                let (pid, ()) = pool.new_page_with(|p| {
                    NodeMut::init_internal(p, key_size, level, leftmost);
                })?;
                for (sep, child) in &chunk[1..] {
                    pool.with_page_mut(pid, |p| {
                        let r = NodeMut::new(p, key_size).append_sorted(sep, child.0);
                        debug_assert_eq!(r, InsertOutcome::Inserted);
                    })?;
                }
                next_level.push((chunk[0].0.clone(), pid));
            }
            level_nodes = next_level;
            level += 1;
        }

        Ok(Self::rooted_at(pool, key_size, level_nodes[0].1, opts))
    }

    /// Key width in bytes.
    pub fn key_size(&self) -> usize {
        self.key_size
    }

    /// The buffer pool backing this tree.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Cache configuration, if caching is enabled.
    pub fn cache_config(&self) -> Option<&CacheConfig> {
        self.opts.cache.as_ref()
    }

    /// Sets the per-leaf cache-space target in bytes (`None` =
    /// unlimited, the default: every free-region slot is usable). The
    /// tuner's runtime-resize hook. Honored **lazily** at the next
    /// leaf touch — each cache view built afterwards clamps its usable
    /// slots to a window of this many bytes around the stable point —
    /// so no leaf is rewritten eagerly. Shrinking strands entries
    /// outside the window (harmless: they are unreachable, and
    /// invalidation still zeroes the full natural range); growing
    /// re-exposes only slots that invalidation kept honest.
    pub fn set_cache_space_target(&self, bytes_per_leaf: Option<usize>) {
        self.cache_cap.store(bytes_per_leaf.unwrap_or(CACHE_CAP_UNLIMITED), Ordering::Relaxed);
    }

    /// The per-leaf cache-space target, if one was set.
    pub fn cache_space_target(&self) -> Option<usize> {
        match self.cache_cap.load(Ordering::Relaxed) {
            CACHE_CAP_UNLIMITED => None,
            b => Some(b),
        }
    }

    /// The cap every cache view is built with.
    #[inline]
    fn cache_cap_bytes(&self) -> usize {
        self.cache_cap.load(Ordering::Relaxed)
    }

    fn check_key(&self, key: &[u8]) -> Result<()> {
        if key.len() != self.key_size {
            return Err(StorageError::Corrupt(format!(
                "key width {} does not match index width {}",
                key.len(),
                self.key_size
            )));
        }
        Ok(())
    }

    /// Checks every key's width and returns the batch's positions in
    /// key order — what every batched op walks, so keys of one leaf are
    /// neighbours. The sort is stable: equal keys keep their input order.
    fn sorted_positions<'k>(
        &self,
        n: usize,
        key_of: impl Fn(usize) -> &'k [u8],
    ) -> Result<Vec<usize>> {
        for pos in 0..n {
            self.check_key(key_of(pos))?;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| key_of(a).cmp(key_of(b)));
        Ok(order)
    }

    /// Descends from `root` to the leaf owning `key`. The caller must
    /// hold the structure lock (either side) so the path cannot change
    /// underfoot.
    fn find_leaf(&self, root: PageId, key: &[u8]) -> Result<PageId> {
        let mut cur = root;
        loop {
            let next = self.pool.with_page(cur, |p| {
                let n = Node::new(p, self.key_size);
                if n.is_leaf() {
                    None
                } else {
                    Some(n.child_for(key))
                }
            })?;
            match next {
                Some(child) => cur = child,
                None => return Ok(cur),
            }
        }
    }

    /// Point lookup without cache interaction. Thin wrapper over a
    /// one-key [`BTree::get_many`].
    pub fn get(&self, key: &[u8]) -> Result<Option<u64>> {
        Ok(self.get_many(&[key])?.pop().flatten())
    }

    /// Batched point lookup; results are indexed like `keys`.
    ///
    /// The whole batch shares **one** structure-lock acquisition and is
    /// processed in sorted key order, so every key that resolves in the
    /// same leaf shares a single page visit: N lookups over a hot key
    /// set cost roughly one descent per *distinct leaf* instead of N
    /// full root-to-leaf descents with N lock round-trips.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<Option<u64>>> {
        let order = self.sorted_positions(keys.len(), |i| keys[i].as_ref())?;
        let mut out: Vec<Option<u64>> = vec![None; keys.len()];
        let root = self.root.read();
        let mut i = 0;
        while i < order.len() {
            let leaf = self.find_leaf(*root, keys[order[i]].as_ref())?;
            let consumed = self.pool.with_page(leaf, |p| {
                let n = Node::new(p, self.key_size);
                let mut c = 0;
                while i + c < order.len() {
                    let key = keys[order[i + c]].as_ref();
                    match n.search(key) {
                        Ok(j) => out[order[i + c]] = Some(n.value_at(j)),
                        // Past the last key: only the key that was
                        // routed here (c == 0) is definitively absent;
                        // later keys may belong to a sibling, so the
                        // outer loop re-descends for them.
                        Err(j) if j >= n.nkeys() => {
                            if c == 0 {
                                c = 1;
                            }
                            break;
                        }
                        Err(_) => {} // strictly inside the leaf: absent
                    }
                    c += 1;
                }
                c
            })?;
            i += consumed;
        }
        Ok(out)
    }

    /// Visits `(key, value)` pairs in ascending key order starting at the
    /// first key ≥ `start`; stops when `f` returns false.
    pub fn scan_from(&self, start: &[u8], mut f: impl FnMut(&[u8], u64) -> bool) -> Result<()> {
        self.check_key(start)?;
        let root = self.root.read();
        let mut leaf = self.find_leaf(*root, start)?;
        let mut first_page = true;
        loop {
            let (cont, next) = self.pool.with_page(leaf, |p| {
                let n = Node::new(p, self.key_size);
                let from = if first_page {
                    match n.search(start) {
                        Ok(i) | Err(i) => i,
                    }
                } else {
                    0
                };
                for i in from..n.nkeys() {
                    if !f(n.key_at(i), n.value_at(i)) {
                        return (false, PageId::INVALID);
                    }
                }
                (true, n.next_leaf())
            })?;
            if !cont || !next.is_valid() {
                return Ok(());
            }
            first_page = false;
            leaf = next;
        }
    }

    /// Reads one ordered chunk of a range scan: appends to `out` the
    /// entries of the first leaf intersecting `(lower, upper)`, at most
    /// `max` (≥ 1) of them. With `probe`, each entry is also looked up
    /// in the leaf's §2.1 cache and gets a payload slot; a full-tuple
    /// scan, which chases every row anyway, passes `false` and touches
    /// neither the cache nor its counters.
    ///
    /// The structure lock is held only for the duration of this call —
    /// a cursor that advances its lower bound past the last returned
    /// key between calls observes a consistent, ascending sequence even
    /// when leaves split mid-iteration, because each refill re-descends
    /// by *key*, never by a remembered sibling pointer.
    ///
    /// Leaves that contribute nothing (all keys below `lower`) are
    /// skipped via the sibling chain under the same lock acquisition.
    /// `exhausted` is true once `upper` was passed or the leaf chain
    /// ended. Cache hits are **not** promoted: a scan touching every
    /// entry carries no per-key popularity signal, so it must not churn
    /// the stable point that point lookups organize.
    pub fn range_chunk(
        &self,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        max: usize,
        probe: bool,
        out: &mut RangeBuf,
    ) -> Result<RangeChunk> {
        for b in [&lower, &upper] {
            if let Bound::Included(k) | Bound::Excluded(k) = b {
                self.check_key(k)?;
            }
        }
        let cfg = self.opts.cache.filter(|_| probe);
        let (max, slot) = (max.max(1), cfg.map_or(0, |c| c.payload_size));
        let root = self.root.read();
        let mut leaf = match lower {
            Bound::Included(k) | Bound::Excluded(k) => self.find_leaf(*root, k)?,
            Bound::Unbounded => self.first_leaf_from(*root)?,
        };
        loop {
            let token = InvToken { csn: self.inv.csn(), newest_seq: self.inv.newest_seq() };
            let (len, hits, verdict, ended, next, leaf_keys) = self.pool.with_page(leaf, |p| {
                let n = Node::new(p, self.key_size);
                let verdict = cfg.map(|_| {
                    let range = n.first_key().zip(n.last_key());
                    self.inv.check_page(n.csn(), n.log_watermark(), range)
                });
                let view = cfg
                    .as_ref()
                    .filter(|_| verdict.is_some_and(|v| v.cache_valid))
                    .map(|c| CacheView::new_capped(p, self.key_size, c, self.cache_cap_bytes()));
                let from = match lower {
                    Bound::Included(k) => match n.search(k) {
                        Ok(i) | Err(i) => i,
                    },
                    Bound::Excluded(k) => match n.search(k) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    },
                    Bound::Unbounded => 0,
                };
                let (mut len, mut hits) = (0usize, 0u64);
                // `None` = the leaf ran out; `Some(past_upper)` = the
                // walk stopped in front of an entry.
                let mut ended = None;
                for i in from..n.nkeys() {
                    let key = n.key_at(i);
                    let in_range = match upper {
                        Bound::Included(u) => key <= u,
                        Bound::Excluded(u) => key < u,
                        Bound::Unbounded => true,
                    };
                    if !in_range || len == max {
                        ended = Some(!in_range);
                        break;
                    }
                    let value = n.value_at(i);
                    out.keys.extend_from_slice(key);
                    out.values.push(value);
                    if probe {
                        let hit = view.as_ref().and_then(|vw| vw.probe(Self::tuple_id(value)));
                        match hit {
                            Some((_, payload)) => out.payloads.extend_from_slice(payload),
                            None => out.payloads.resize(out.payloads.len() + slot, 0),
                        }
                        out.cached.push(hit.is_some());
                        hits += u64::from(hit.is_some());
                    }
                    len += 1;
                }
                (len, hits, verdict, ended, n.next_leaf(), n.nkeys())
            })?;
            if let Some(verdict) = &verdict {
                self.apply_verdict(leaf, verdict)?;
            }
            if cfg.is_some() {
                self.stats.lookups.fetch_add(len as u64, Ordering::Relaxed);
                self.stats.hits.fetch_add(hits, Ordering::Relaxed);
                self.stats.misses.fetch_add(len as u64 - hits, Ordering::Relaxed);
            }
            let exhausted = ended.unwrap_or(!next.is_valid());
            if len > 0 || exhausted {
                return Ok(RangeChunk { len, leaf, token, leaf_keys, exhausted });
            }
            leaf = next;
        }
    }

    /// Runs `f` over the node that routes `key` (`None` = the leftmost
    /// path) to its leaf — the level-1 node, or the root when the root
    /// is a leaf — under the structure read lock, reading no leaf.
    fn with_leaf_parent<R>(
        &self,
        key: Option<&[u8]>,
        f: impl Fn(PageId, Node<'_>) -> R,
    ) -> Result<R> {
        let root = self.root.read();
        let mut cur = *root;
        loop {
            let step = self.pool.with_page(cur, |p| {
                let n = Node::new(p, self.key_size);
                match (n.level(), key) {
                    (0 | 1, _) => ControlFlow::Break(f(cur, n)),
                    (_, Some(key)) => ControlFlow::Continue(n.child_for(key)),
                    (_, None) => ControlFlow::Continue(n.leftmost_child()),
                }
            })?;
            match step {
                ControlFlow::Break(r) => return Ok(r),
                ControlFlow::Continue(child) => cur = child,
            }
        }
    }

    /// The leaf a scan from `lower` reads first, named off its level-1
    /// parent **without reading it**, so a cursor — or a group of them —
    /// can fault first leaves in one batched read before walking them
    /// with [`BTree::range_chunk`]. Like [`BTree::leaves_after`], the id
    /// is exact when read and at worst one unneeded read once stale.
    pub fn leaf_for(&self, lower: Bound<&[u8]>) -> Result<PageId> {
        let key = match lower {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        };
        key.map_or(Ok(()), |k| self.check_key(k))?;
        self.with_leaf_parent(key, |id, n| match key {
            _ if n.is_leaf() => id,
            Some(k) => n.child_for(k),
            None => n.leftmost_child(),
        })
    }

    /// Up to `k` leaves that follow the leaf owning `key`, in key order
    /// — what a range cursor batch-faults before walking them with
    /// [`BTree::range_chunk`].
    ///
    /// The ids are **exact**, not guessed: they are read off the
    /// level-1 node that routes `key`, under the structure read lock,
    /// stopping at the first child whose separator lies past `upper`
    /// (a scan bounded there never visits it). The list never crosses
    /// that parent — near its last child it yields fewer than `k` ids,
    /// possibly none, and the cursor asks again from the next leaf it
    /// reads. A tree whose root is a leaf has nothing to follow. The
    /// ids may go stale once the lock is released (a split adds a leaf
    /// between two of them); a stale id still names a live leaf, so
    /// faulting it is at worst one unneeded read, and the walk itself
    /// goes by key.
    pub fn leaves_after(&self, key: &[u8], upper: Bound<&[u8]>, k: usize) -> Result<Vec<PageId>> {
        self.check_key(key)?;
        self.with_leaf_parent(Some(key), |_, n| {
            if n.is_leaf() {
                return Vec::new();
            }
            // Child `i` holds the keys from separator `i` up; the
            // leftmost child sits before child 0.
            let from = match n.search(key) {
                Ok(i) => i + 1,
                Err(i) => i,
            };
            let within = |i: &usize| match upper {
                Bound::Included(u) => n.key_at(*i) <= u,
                Bound::Excluded(u) => n.key_at(*i) < u,
                Bound::Unbounded => true,
            };
            (from..n.nkeys()).take(k).take_while(within).map(|i| PageId(n.value_at(i))).collect()
        })
    }

    /// Number of keys in the tree (walks every leaf).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0usize;
        self.for_each_leaf(|node| n += node.nkeys())?;
        Ok(n)
    }

    /// True when the tree holds no keys.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    // ---------------------------------------------------------------
    // Index cache protocol (§2.1)
    // ---------------------------------------------------------------

    /// Cache id for an index value: values are tuple pointers, and 0 is
    /// reserved for "empty slot", so ids are `value + 1`.
    #[inline]
    fn tuple_id(value: u64) -> u64 {
        value.wrapping_add(1)
    }

    /// Cache-aware point lookup. On a hit, `payload` carries the cached
    /// fields and the entry is promoted toward the stable point. On a
    /// miss, fetch the tuple from the heap and call
    /// [`BTree::cache_populate`] with the returned leaf and token. Thin
    /// wrapper over a one-key [`BTree::lookup_cached_many`].
    pub fn lookup_cached(&self, key: &[u8]) -> Result<CachedLookup> {
        let mut r = self.lookup_cached_many(&[key])?;
        // nbb-lint: allow(unwrap, lookup_cached_many returns one result per input key)
        Ok(r.pop().expect("one key in, one result out"))
    }

    /// Batched cache-aware point lookup; results are indexed like
    /// `keys`.
    ///
    /// Like [`BTree::get_many`], the batch shares one structure-lock
    /// acquisition and one page visit per distinct leaf — and on top of
    /// that, cache work is amortized per leaf instead of per key: the
    /// invalidation verdict is checked once per leaf, and every cache
    /// hit in a leaf is promoted under a **single** try-latch
    /// acquisition (N hot hits in one leaf cost one latch round-trip,
    /// not N).
    ///
    /// Each returned [`CachedLookup`] is populate-ready: misses carry
    /// the owning leaf and a consistency token for
    /// [`BTree::cache_populate`].
    pub fn lookup_cached_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<CachedLookup>> {
        let order = self.sorted_positions(keys.len(), |i| keys[i].as_ref())?;
        let mut out: Vec<Option<CachedLookup>> = (0..keys.len()).map(|_| None).collect();
        let cfg = self.opts.cache;
        let root = self.root.read();
        let mut i = 0;
        while i < order.len() {
            let token = InvToken { csn: self.inv.csn(), newest_seq: self.inv.newest_seq() };
            let leaf = self.find_leaf(*root, keys[order[i]].as_ref())?;

            /// One batch key resolved in the leaf, with its cache probe.
            struct Found {
                pos: usize,
                value: u64,
                probe: Option<(usize, Vec<u8>)>,
            }
            struct Group {
                consumed: usize,
                found: Vec<Found>,
                absent: Vec<usize>,
                verdict: Option<crate::invalidation::PageVerdict>,
            }
            let g = self.pool.with_page(leaf, |p| {
                let n = Node::new(p, self.key_size);
                let verdict = cfg.map(|_| {
                    let range = n.first_key().zip(n.last_key());
                    self.inv.check_page(n.csn(), n.log_watermark(), range)
                });
                let cache_valid = verdict.is_some_and(|v| v.cache_valid);
                let view = cfg
                    .as_ref()
                    .map(|c| CacheView::new_capped(p, self.key_size, c, self.cache_cap_bytes()));
                let mut g = Group { consumed: 0, found: Vec::new(), absent: Vec::new(), verdict };
                while i + g.consumed < order.len() {
                    let pos = order[i + g.consumed];
                    match n.search(keys[pos].as_ref()) {
                        Ok(j) => {
                            let v = n.value_at(j);
                            let probe = if cache_valid {
                                view.as_ref().and_then(|vw| {
                                    vw.probe(Self::tuple_id(v)).map(|(s, pl)| (s, pl.to_vec()))
                                })
                            } else {
                                None
                            };
                            g.found.push(Found { pos, value: v, probe });
                        }
                        Err(j) if j >= n.nkeys() => {
                            if g.consumed == 0 {
                                g.absent.push(pos);
                                g.consumed = 1;
                            }
                            break;
                        }
                        Err(_) => g.absent.push(pos),
                    }
                    g.consumed += 1;
                }
                g
            })?;

            if let Some(verdict) = &g.verdict {
                self.apply_verdict(leaf, verdict)?;
            }

            let hits: Vec<(usize, u64)> = g
                .found
                .iter()
                .filter_map(|f| f.probe.as_ref().map(|(slot, _)| (*slot, f.value)))
                .collect();
            // Stats only meter the cache protocol: a cache-less tree
            // records nothing.
            if cfg.is_some() {
                self.stats.lookups.fetch_add(g.found.len() as u64, Ordering::Relaxed);
                self.stats.hits.fetch_add(hits.len() as u64, Ordering::Relaxed);
                self.stats.misses.fetch_add((g.found.len() - hits.len()) as u64, Ordering::Relaxed);
            }
            if !hits.is_empty() {
                // All of this leaf's promotions ride one latch attempt.
                let promoted = self.pool.with_page_cache_write(leaf, |p| {
                    // nbb-lint: allow(unwrap, hits are only collected when a cache config exists)
                    let cfg = cfg.as_ref().expect("hits imply cache config");
                    let mut rng = self.rng.lock();
                    let mut n = NodeMut::new(p, self.key_size);
                    let mut done = 0u64;
                    for (slot, v) in &hits {
                        // promote re-verifies the slot still holds the
                        // entry, so earlier swaps cannot misdirect it.
                        if CacheViewMut::new_capped(
                            n.page_mut(),
                            self.key_size,
                            cfg,
                            self.cache_cap_bytes(),
                        )
                        .promote(*slot, Self::tuple_id(*v), &mut *rng)
                        .is_some()
                        {
                            done += 1;
                        }
                    }
                    done
                })?;
                match promoted {
                    Some(done) => {
                        self.stats.promotions.fetch_add(done, Ordering::Relaxed);
                    }
                    None => {
                        self.stats.latch_giveups.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }

            for f in g.found {
                out[f.pos] = Some(CachedLookup {
                    value: Some(f.value),
                    payload: f.probe.map(|(_, pl)| pl),
                    leaf,
                    token,
                });
            }
            for pos in g.absent {
                out[pos] = Some(CachedLookup { value: None, payload: None, leaf, token });
            }
            i += g.consumed;
        }
        // nbb-lint: allow(unwrap, the group loop visits every key exactly once)
        Ok(out.into_iter().map(|c| c.expect("every key visited")).collect())
    }

    /// Performs the cache bookkeeping a leaf-read verdict demands:
    /// zeroes the page cache on a predicate match, and advances the
    /// predicate-log watermark so pending entries are not rescanned.
    /// Both writes use the non-dirtying try-latch path and are simply
    /// skipped under contention (§2.1.3).
    fn apply_verdict(
        &self,
        leaf: PageId,
        verdict: &crate::invalidation::PageVerdict,
    ) -> Result<()> {
        let Some(cfg) = self.opts.cache else { return Ok(()) };
        if verdict.must_zero {
            self.stats.zeroings.fetch_add(1, Ordering::Relaxed);
            let wm = verdict.advance_watermark_to;
            let wrote = self.pool.with_page_cache_write(leaf, |p| {
                let mut n = NodeMut::new(p, self.key_size);
                if let Some(wm) = wm {
                    if wm > n.as_ref().log_watermark() {
                        n.set_log_watermark(wm);
                    }
                }
                CacheViewMut::new_capped(n.page_mut(), self.key_size, &cfg, self.cache_cap_bytes())
                    .zero();
            })?;
            if wrote.is_none() {
                self.stats.latch_giveups.fetch_add(1, Ordering::Relaxed);
            }
        } else if let Some(wm) = verdict.advance_watermark_to {
            let wrote = self.pool.with_page_cache_write(leaf, |p| {
                let mut n = NodeMut::new(p, self.key_size);
                if wm > n.as_ref().log_watermark() {
                    n.set_log_watermark(wm);
                }
            })?;
            if wrote.is_none() {
                self.stats.latch_giveups.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Stores the payload fetched from the heap after a cache miss.
    ///
    /// `leaf`, `value` and `token` come from the preceding
    /// [`BTree::lookup_cached`]. The store is skipped (returning `false`)
    /// if any invalidation occurred since the token was issued, if the
    /// latch is contended, or if the leaf has no cache room.
    pub fn cache_populate(
        &self,
        leaf: PageId,
        value: u64,
        payload: &[u8],
        token: InvToken,
    ) -> Result<bool> {
        let Some(cfg) = self.opts.cache else { return Ok(false) };
        if payload.len() != cfg.payload_size {
            return Err(StorageError::Corrupt(format!(
                "cache payload width {} != configured {}",
                payload.len(),
                cfg.payload_size
            )));
        }
        let _root = self.root.read();
        // Any invalidation after the token means the heap read may be
        // stale; skip rather than risk caching old bytes.
        if self.inv.csn() != token.csn || self.inv.newest_seq() != token.newest_seq {
            self.stats.stale_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        let stored = self.pool.with_page_cache_write(leaf, |p| {
            // Re-check the token under the latch: invalidations serialize
            // with this closure via the predicate log's own lock, and the
            // page cannot be probed while we hold the write latch.
            if self.inv.csn() != token.csn || self.inv.newest_seq() != token.newest_seq {
                return StoreOutcome::NoRoom;
            }
            let mut n = NodeMut::new(p, self.key_size);
            if !n.as_ref().is_leaf() {
                return StoreOutcome::NoRoom;
            }
            if n.as_ref().csn() != token.csn {
                // Stale epoch: lazily reset this page's cache.
                let wm = self.inv.newest_seq();
                n.set_csn(token.csn);
                n.set_log_watermark(wm);
                CacheViewMut::new_capped(n.page_mut(), self.key_size, &cfg, self.cache_cap_bytes())
                    .zero();
            }
            let mut rng = self.rng.lock();
            CacheViewMut::new_capped(n.page_mut(), self.key_size, &cfg, self.cache_cap_bytes())
                .store(Self::tuple_id(value), payload, &mut *rng)
        })?;
        match stored {
            Some(StoreOutcome::Stored) => {
                self.stats.populates.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Some(StoreOutcome::StoredEvicting) => {
                self.stats.populates.fetch_add(1, Ordering::Relaxed);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Some(StoreOutcome::NoRoom) => Ok(false),
            None => {
                self.stats.latch_giveups.fetch_add(1, Ordering::Relaxed);
                Ok(false)
            }
        }
    }

    /// Logs an invalidation for a tuple whose cached fields changed in
    /// the heap (§2.1.2). `value` is the index pointer for `key`.
    pub fn invalidate(&self, key: &[u8], value: u64) -> Result<InvalidateOutcome> {
        self.check_key(key)?;
        Ok(self.inv.invalidate(key, Self::tuple_id(value)))
    }

    /// Invalidates every page cache at once (`CSNidx += 1`) — the crash
    /// recovery path.
    pub fn invalidate_all_caches(&self) {
        self.inv.invalidate_all();
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.stats.lookups.load(Ordering::Relaxed),
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            populates: self.stats.populates.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            promotions: self.stats.promotions.load(Ordering::Relaxed),
            latch_giveups: self.stats.latch_giveups.load(Ordering::Relaxed),
            zeroings: self.stats.zeroings.load(Ordering::Relaxed),
            stale_skips: self.stats.stale_skips.load(Ordering::Relaxed),
        }
    }

    /// Write-path counters (batches, keys, leaf groups, escalations,
    /// and the intent table's same-key contention).
    pub fn write_stats(&self) -> WriteStats {
        WriteStats {
            batches: self.wstats.batches.load(Ordering::Relaxed),
            keys: self.wstats.keys.load(Ordering::Relaxed),
            leaf_groups: self.wstats.leaf_groups.load(Ordering::Relaxed),
            escalations: self.wstats.escalations.load(Ordering::Relaxed),
            intent_parks: self.intents.parks(),
            intent_handoffs: self.intents.handoffs(),
        }
    }

    /// The tree's key-level write-intent table.
    ///
    /// Logical writers layered above the tree (the table's
    /// put/update/delete paths) install an intent on every key they
    /// address — via [`KeyIntents::acquire_many`], *before* any page is
    /// touched — so racing same-key writers serialize by parking on the
    /// in-flight intent with a pre-granted handoff. Readers never touch
    /// this table; disjoint-key writers pass through a stripe-map
    /// lookup and nothing more. Intents rank strictly before tree and
    /// pool locks in the lattice (`CONCURRENCY.md`), so holding one
    /// across a tree operation is deadlock-free.
    pub fn intents(&self) -> &KeyIntents {
        &self.intents
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> Result<usize> {
        let root = self.root.read();
        let mut h = 1;
        let mut cur = *root;
        loop {
            let next = self.pool.with_page(cur, |p| {
                let n = Node::new(p, self.key_size);
                if n.is_leaf() {
                    None
                } else {
                    Some(n.leftmost_child())
                }
            })?;
            match next {
                Some(c) => {
                    h += 1;
                    cur = c;
                }
                None => return Ok(h),
            }
        }
    }

    /// Leftmost leaf page.
    pub fn first_leaf(&self) -> Result<PageId> {
        let root = self.root.read();
        self.first_leaf_from(*root)
    }

    /// Leftmost-leaf descent; the caller holds the structure lock.
    fn first_leaf_from(&self, root: PageId) -> Result<PageId> {
        let mut cur = root;
        loop {
            let next = self.pool.with_page(cur, |p| {
                let n = Node::new(p, self.key_size);
                if n.is_leaf() {
                    None
                } else {
                    Some(n.leftmost_child())
                }
            })?;
            match next {
                Some(c) => cur = c,
                None => return Ok(cur),
            }
        }
    }

    /// Visits every leaf under the structure lock's read side.
    fn for_each_leaf(&self, f: impl FnMut(Node<'_>)) -> Result<()> {
        let root = self.root.read();
        self.for_each_leaf_from(*root, f)
    }

    /// Leaf-chain walk; the caller holds the structure lock. Every page
    /// visited must carry the node magic: a sibling pointer into an
    /// unformatted page is `Corrupt`, not a zeroed "leaf" whose own
    /// sibling pointer is page 0 again.
    fn for_each_leaf_from(&self, root: PageId, mut f: impl FnMut(Node<'_>)) -> Result<()> {
        let mut leaf = self.first_leaf_from(root)?;
        loop {
            let next = self.pool.with_page(leaf, |p| {
                Node::checked(p, leaf, self.key_size).map(|n| {
                    f(n);
                    n.next_leaf()
                })
            })??;
            if !next.is_valid() {
                return Ok(());
            }
            leaf = next;
        }
    }

    /// Aggregate index statistics: leaves, total keys, mean fill factor,
    /// total/occupied cache slots.
    pub fn index_stats(&self) -> Result<IndexStats> {
        let mut s = IndexStats::default();
        let cfg = self.opts.cache;
        let cap_bytes = self.cache_cap_bytes();
        self.for_each_leaf(|n| {
            s.leaf_pages += 1;
            s.keys += n.nkeys();
            s.fill_sum += n.fill_factor();
            s.free_bytes += n.free_bytes();
            if let Some(cfg) = cfg.as_ref() {
                let v = CacheView::new_from_node_capped(&n, cfg, cap_bytes);
                s.cache_slots += v.capacity();
                s.cache_occupied += v.occupied();
            }
        })?;
        Ok(s)
    }

    /// Verifies structural invariants; returns a description of the first
    /// violation. Intended for tests.
    pub fn check_invariants(&self) -> Result<std::result::Result<(), String>> {
        let guard = self.root.read();
        let root = *guard;
        let mut leaf_depth: Option<usize> = None;
        let r = self.check_node(root, None, None, 0, &mut leaf_depth)?;
        if r.is_err() {
            return Ok(r);
        }
        // Leaf chain must be ascending and cover all leaves.
        let mut prev_last: Option<Vec<u8>> = None;
        let mut chain_ok = Ok(());
        self.for_each_leaf_from(root, |n| {
            if chain_ok.is_err() {
                return;
            }
            if let (Some(prev), Some(first)) = (&prev_last, n.first_key()) {
                if prev.as_slice() >= first {
                    chain_ok = Err(format!("leaf chain out of order: {:?} >= {:?}", prev, first));
                }
            }
            if let Some(last) = n.last_key() {
                prev_last = Some(last.to_vec());
            }
        })?;
        Ok(chain_ok)
    }

    #[allow(clippy::type_complexity)]
    fn check_node(
        &self,
        page: PageId,
        lower: Option<&[u8]>,
        upper: Option<&[u8]>,
        depth: usize,
        leaf_depth: &mut Option<usize>,
    ) -> Result<std::result::Result<(), String>> {
        let (entries, is_leaf, leftmost) = self.pool.with_page(page, |p| {
            let n = Node::new(p, self.key_size);
            let lm = if n.is_leaf() { None } else { Some(n.leftmost_child()) };
            (n.entries(), n.is_leaf(), lm)
        })?;
        for w in entries.windows(2) {
            if w[0].0 >= w[1].0 {
                return Ok(Err(format!("{page}: keys not strictly ascending")));
            }
        }
        if let Some(lo) = lower {
            if let Some((k, _)) = entries.first() {
                if k.as_slice() < lo {
                    return Ok(Err(format!("{page}: key below lower bound")));
                }
            }
        }
        if let Some(hi) = upper {
            if let Some((k, _)) = entries.last() {
                if k.as_slice() >= hi {
                    return Ok(Err(format!("{page}: key at/above upper bound")));
                }
            }
        }
        if is_leaf {
            match leaf_depth {
                Some(d) if *d != depth => {
                    return Ok(Err(format!("{page}: leaf depth {depth} != {d}")))
                }
                None => *leaf_depth = Some(depth),
                _ => {}
            }
            return Ok(Ok(()));
        }
        // Internal: recurse with refined bounds.
        // nbb-lint: allow(unwrap, internal nodes always store a leftmost child)
        let lm = leftmost.expect("internal node has leftmost");
        let first_sep = entries.first().map(|(k, _)| k.as_slice());
        let r = self.check_node(lm, lower, first_sep, depth + 1, leaf_depth)?;
        if r.is_err() {
            return Ok(r);
        }
        for (i, (sep, child)) in entries.iter().enumerate() {
            let next_sep = entries.get(i + 1).map(|(k, _)| k.as_slice());
            let r = self.check_node(
                PageId(*child),
                Some(sep.as_slice()),
                next_sep,
                depth + 1,
                leaf_depth,
            )?;
            if r.is_err() {
                return Ok(r);
            }
        }
        Ok(Ok(()))
    }
}

/// Aggregate statistics over a tree's leaves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexStats {
    /// Number of leaf pages.
    pub leaf_pages: usize,
    /// Total keys across leaves.
    pub keys: usize,
    /// Sum of per-leaf fill factors (divide by `leaf_pages` for the mean).
    pub fill_sum: f64,
    /// Total free bytes across leaves — the recyclable cache area.
    pub free_bytes: usize,
    /// Total usable cache slots.
    pub cache_slots: usize,
    /// Occupied cache slots.
    pub cache_occupied: usize,
}

impl IndexStats {
    /// Mean leaf fill factor.
    pub fn avg_fill(&self) -> f64 {
        if self.leaf_pages == 0 {
            0.0
        } else {
            self.fill_sum / self.leaf_pages as f64
        }
    }
}

impl<'a> CacheView<'a> {
    /// Builds a cache view from an existing node view (avoids re-parsing
    /// the header in aggregate walks).
    pub fn new_from_node(node: &Node<'a>, cfg: &CacheConfig) -> Self {
        CacheView::new(node.page(), node.key_size_of(), cfg)
    }

    /// [`CacheView::new_from_node`] with a cache-space cap (see
    /// [`CacheView::new_capped`]).
    pub fn new_from_node_capped(node: &Node<'a>, cfg: &CacheConfig, cap_bytes: usize) -> Self {
        CacheView::new_capped(node.page(), node.key_size_of(), cfg, cap_bytes)
    }
}

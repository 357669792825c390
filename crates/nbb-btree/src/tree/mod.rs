//! The B+Tree: search/insert/delete/scan plus the §2.1 index-cache
//! protocol (probe and count on lookup, admit by frequency and populate
//! on miss, write-through at the writer's leaf latch).
//!
//! Concurrency model, in full: **structure lock → frame latch**. One
//! tree-level `RwLock<PageId>` guards the tree's *shape* and holds the
//! current root as its value; below it the only page-level lock is the
//! buffer pool's per-frame latch, taken by `with_page` (shared),
//! `with_page_mut` (exclusive), `with_page_mut_clean` (exclusive,
//! non-dirtying: the cache write-through) and `with_page_cache_write`
//! (exclusive, try-only, non-dirtying: a populate is simply skipped
//! under contention, per §2.1.3). A cache hit takes only the shared
//! pin, and so does a miss the frequency sketch refuses. The tree has
//! no latch table of its own: the frame latch of a leaf *is* its leaf
//! latch, and the page's residency stamp, which every exclusive writer
//! latch advances, is how a populate learns a writer came between its
//! lookup and its store.
//!
//! The read path is `tree/read.rs`, read top to bottom. Every read-only
//! operation takes the structure lock's read side — readers never block
//! each other, and with the sharded buffer pool they proceed in
//! parallel down to the frame latches. Range scans are driven from
//! outside, one [`BTree::range_chunk`] per leaf, re-descending by key
//! each time so a cursor survives splits between calls; the tree holds
//! no lock between those calls, nor across the batched leaf fault that
//! [`BTree::leaf_for`] and [`BTree::leaves_after`] let a cursor issue.
//!
//! The write path is `tree/write.rs`, read top to bottom. Writers crab:
//! [`BTree::insert_many`], [`BTree::delete_many`] and
//! [`BTree::update_value`] hand the one leaf-run walker their keys in
//! sorted order; it descends under the structure lock's **read** side
//! (the shape cannot change underfoot while any read guard is held) and
//! mutates the destination leaf inside **one**
//! [`nbb_storage::BufferPool::with_page_mut`] closure per run of keys.
//! That leaf's frame write latch, held for the closure's whole length,
//! is the entire leaf-local critical section: two writers of one leaf
//! take turns there, readers observe the leaf between two whole runs,
//! and writers of disjoint leaves proceed in parallel. Only a split
//! escalates: a full leaf makes the writer leave the closure, drop its
//! read guard, take the structure lock's **write** side (excluding
//! every reader and fast-path writer) and re-descend — deletes never
//! restructure (underflow is left for the index cache to recycle), so
//! they never escalate. Every single-key operation — `get`,
//! `lookup_cached`, `insert`, `delete` — is a wrapper over its
//! multi-key form with a batch of one.
//!
//! The tree also carries a [`KeyIntents`] table ([`BTree::intents`]):
//! key-level write intents for the multi-step logical writes layered
//! above it. The tree's own entry points take none — a single leaf
//! mutation is already atomic under its frame latch — but the table
//! layer installs one on every key a write batch addresses *before*
//! descending, which makes per-key put/update/delete linearizable end
//! to end at no cost to disjoint-key writers.
//!
//! A request for a page another thread is still loading parks on that
//! frame, holding at most the structure lock's read side, which the
//! loader never needs; tree code has no special case for it.
//!
//! Every lock above sits in the workspace lock-order lattice
//! (`CONCURRENCY.md` at the repo root): intents at ranks 20 and 25,
//! structure at rank 30; no tree-level lock is taken under a frame
//! latch. Debug test runs verify the whole order at runtime; `cargo run
//! -p nbb-lint` verifies no lock escapes it.

use crate::cache::{Admission, CacheConfig, CacheViewMut, Sketch, StoreOutcome};
use crate::intents::{KeyIntents, DEFAULT_INTENT_STRIPES};
use crate::node::{node_capacity, InsertOutcome, Node, NodeMut};
use nbb_storage::buffer::BufferPool;
use nbb_storage::error::{Result, StorageError};
use nbb_storage::lockrank;
use nbb_storage::page::PageId;
use parking_lot::RwLock;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod read;
mod write;

pub use read::{CachedLookup, RangeBuf, RangeChunk};

/// Tree construction options.
#[derive(Debug, Clone, Default)]
pub struct BTreeOptions {
    /// Enable the index cache with this configuration.
    pub cache: Option<CacheConfig>,
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
    /// Entries stored by [`BTree::cache_populate_many`].
    pub populates: u64,
    /// Stores that overwrote their admitted victim.
    pub evictions: u64,
    /// Cache writes abandoned because the page latch was contended.
    pub latch_giveups: u64,
    /// Entries rewritten in place by [`BTree::cache_refresh_many`]
    /// (write-through of a changed row).
    pub refreshes: u64,
    /// Populated entries refused because their leaf moved since the
    /// lookup — a writer latch or a reload changed its stamp: the heap
    /// read may be stale.
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
    /// Leaf groups processed — one descent plus one exclusive page
    /// access (the leaf's frame write latch, taken once) each.
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
    latch_giveups: AtomicU64,
    refreshes: AtomicU64,
    stale_skips: AtomicU64,
}

/// Consistency token captured when a leaf is read:
/// [`BTree::cache_populate_many`] refuses to store a payload if the
/// leaf's residency stamp moved since it was issued (a writer latched
/// it, or it was evicted and read back) — the heap value read in
/// between may be stale. A point lookup's miss also carries its
/// admission, decided under the reader's pin; a range chunk's token
/// admits into free slots only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvToken {
    stamp: u64,
    admit: Admission,
}

impl InvToken {
    /// Whether a populate with this token may store anything: false for
    /// a miss the frequency sketch refused, so its caller can skip
    /// fetching its payload for the cache.
    pub fn admits(&self) -> bool {
        self.admit != Admission::Refused
    }
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
    /// Key-level write intents for the logical write paths layered
    /// above the tree; see [`BTree::intents`].
    intents: KeyIntents,
    opts: BTreeOptions,
    /// The cache's access-frequency sketch (a cached tree only; its
    /// table is allocated by the first probed lookup).
    sketch: Option<Sketch>,
    stats: CacheStatsAtomic,
    wstats: WriteStatsAtomic,
}

impl BTree {
    /// A tree over `pool` with its root at `root`: fresh intent table
    /// and counters.
    fn rooted_at(pool: Arc<BufferPool>, key_size: usize, root: PageId, opts: BTreeOptions) -> Self {
        let page_size = pool.disk().page_size();
        let sketch =
            opts.cache.map(|c| Sketch::for_cache(pool.capacity(), page_size, c.entry_size()));
        BTree {
            sketch,
            pool,
            key_size,
            intents: KeyIntents::new(DEFAULT_INTENT_STRIPES),
            root: RwLock::with_rank(lockrank::TREE_STRUCTURE, root),
            opts,
            stats: CacheStatsAtomic::default(),
            wstats: WriteStatsAtomic::default(),
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
    /// This is the restart/recovery path (§2.1.2): cache bytes that
    /// survived on disk are never trusted, because every leaf read back
    /// from a device starts a residency no populate has reset yet (see
    /// [`crate::cache`]).
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
        // The root comes off a device: it must carry the node magic,
        // and so must every leaf, which the chain walk checks.
        pool.with_page(root, |p| Node::checked(p, root, key_size).map(|_| ()))??;
        let tree = Self::rooted_at(pool, key_size, root, opts);
        tree.for_each_leaf(root, |_| ())?;
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
        assert!(fill > 0.0 && fill <= 1.0, "fill must be in (0, 1]");
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

    // ---------------------------------------------------------------
    // Index cache protocol (§2.1)
    // ---------------------------------------------------------------

    /// Cache id for an index value: values are tuple pointers, and 0 is
    /// reserved for "empty slot", so ids are `value + 1`.
    #[inline]
    fn tuple_id(value: u64) -> u64 {
        value.wrapping_add(1)
    }

    /// Stores the payload fetched from the heap after a cache miss.
    /// Thin wrapper over a one-entry [`BTree::cache_populate_many`];
    /// returns whether the entry was stored.
    pub fn cache_populate(
        &self,
        leaf: PageId,
        value: u64,
        payload: &[u8],
        token: InvToken,
    ) -> Result<bool> {
        Ok(self.cache_populate_many(&[(leaf, token, value, payload)])? == 1)
    }

    /// Stores the payloads fetched from the heap after cache misses,
    /// `(leaf, token, value, payload)` each: `leaf` and `token` as the
    /// preceding [`BTree::lookup_cached_with`] or [`BTree::range_chunk`]
    /// reported them, `value` the key's pointer. Returns how many were
    /// stored.
    ///
    /// Each entry is stored as its token's admission allows: into a
    /// free slot, or over the victim the lookup chose if that slot
    /// still holds it. An entry whose admission was refused is skipped
    /// without a latch, and so is a run of nothing else.
    ///
    /// Consecutive entries of one leaf and stamp form a **run**, and a
    /// caller that lists its misses in key order has one run per leaf.
    /// The batch takes the structure lock's read side once; each run
    /// takes its leaf's try-latch once. A run is refused whole if its
    /// leaf's stamp moved since the token was issued (a writer latched
    /// the leaf, so the heap read may be stale; or the page was
    /// reloaded); it is skipped whole if the latch is contended. The
    /// first populate of a residency resets the leaf's cache before
    /// storing — only then is it trusted. A free slot is drawn from
    /// `placement_rng` seeded by the leaf and the run's first tuple.
    pub fn cache_populate_many(&self, entries: &[(PageId, InvToken, u64, &[u8])]) -> Result<usize> {
        let Some(cfg) = self.opts.cache else { return Ok(0) };
        if let Some((.., payload)) = entries.iter().find(|e| e.3.len() != cfg.payload_size) {
            return Err(StorageError::Corrupt(format!(
                "cache payload width {} != configured {}",
                payload.len(),
                cfg.payload_size
            )));
        }
        if entries.is_empty() {
            return Ok(0);
        }
        let _root = self.root.read();
        let mut stored = 0;
        for run in entries.chunk_by(|a, b| (a.0, a.1.stamp) == (b.0, b.1.stamp)) {
            let admitted = run.iter().filter(|e| e.1.admits()).count() as u64;
            if admitted == 0 {
                continue;
            }
            let (leaf, stamp) = (run[0].0, run[0].1.stamp);
            let outcome = self.pool.with_page_cache_write(leaf, |p| {
                // Checked under the latch, so no writer can come
                // between the check and the store.
                if p.stamp() != stamp {
                    return None;
                }
                if !p.marked() {
                    // First populate of this residency: what the free
                    // space holds may predate writes that were kept
                    // only in memory. The reset's mark is no writer
                    // latch: other tokens stay good.
                    CacheViewMut::new(p, self.key_size, &cfg).zero();
                    p.mark();
                }
                let mut rng = placement_rng(leaf, Self::tuple_id(run[0].2));
                let mut cache = CacheViewMut::new(p, self.key_size, &cfg);
                let (mut stored, mut evicted) = (0u64, 0u64);
                for &(_, token, value, payload) in run {
                    match cache.store(Self::tuple_id(value), payload, token.admit, &mut rng) {
                        StoreOutcome::Stored => stored += 1,
                        StoreOutcome::StoredEvicting => {
                            (stored, evicted) = (stored + 1, evicted + 1)
                        }
                        StoreOutcome::NoRoom | StoreOutcome::Refused => {}
                    }
                }
                Some((stored, evicted))
            })?;
            match outcome {
                Some(Some((s, e))) => {
                    self.stats.populates.fetch_add(s, Ordering::Relaxed);
                    self.stats.evictions.fetch_add(e, Ordering::Relaxed);
                    stored += s as usize;
                }
                Some(None) => {
                    self.stats.stale_skips.fetch_add(admitted, Ordering::Relaxed);
                }
                None => {
                    self.stats.latch_giveups.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(stored)
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.stats.lookups.load(Ordering::Relaxed),
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            populates: self.stats.populates.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            latch_giveups: self.stats.latch_giveups.load(Ordering::Relaxed),
            refreshes: self.stats.refreshes.load(Ordering::Relaxed),
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
        self.for_each_leaf(root, |n| {
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

/// The generator one cache write places with: seeded from `leaf` and
/// `salt` (what the write is about) by a splitmix-style hash, so where
/// an entry lands depends on the page and its contents alone, never on
/// how threads interleave on a shared generator.
fn placement_rng(leaf: PageId, salt: u64) -> SmallRng {
    let mut z = leaf
        .0
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    SmallRng::seed_from_u64(z ^ (z >> 31))
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

//! Tables: fixed-width tuples on a heap, with cached secondary indexes.
//!
//! A [`Table`] composes the substrates into the paper's system: a heap
//! file for tuples, any number of B+Tree indexes whose leaf free space
//! caches hot tuples (§2.1) — every non-key byte when the row is narrow
//! enough, else the projected fields — and the bookkeeping that keeps
//! caches consistent under updates (§2.1.2).
//!
//! Field geometry is declared, not parsed: a [`FieldSpec`] names a byte
//! range of the fixed-width tuple; an [`IndexSpec`] says which range is
//! the key and which ranges a projection returns. The paper's
//! `name_title` example: key = (namespace, title), 4 projected fields
//! (17 bytes, 25-byte cache items when only they are cached).
//! Declarations are validated at [`Table::create_index`]; geometry can
//! also be derived from a typed schema via [`crate::row::RowSchema`].
//!
//! Queries flow through handles: [`Table::index`] resolves an index
//! name once to a [`crate::query::IndexRef`], whose point, batched
//! (`get_many` / `project_many` / `put_many` / ...) and range-cursor
//! operations skip the per-call name lookup and amortize lock work.
//! Every one of them — a range cursor's refill included — reaches the
//! heap through the same batched, key-verifying chase: a visitor that
//! sees each verified tuple in place under its page's pin, which the
//! point paths collect into `Vec`s and range refills copy into arenas.
//! Writes are one path too (`table/write.rs`, read top to bottom):
//! [`Table::insert_many`] and the `put_many` / `update_many` /
//! `delete_many` family are *planners* — each validates its input,
//! takes its write intents, resolves the rows it addresses and
//! describes the batch as one row-change plan (insert = no old tuple,
//! delete = no new one, update = both) — and one private `apply` does
//! everything a plan owes the heap and every index: the duplicate-key
//! check before anything mutates (a named error), the heap appends one
//! page latch per tail page, the in-place overwrites and frees, and
//! per index one leaf-grouped `delete_many`, one `insert_many` and one
//! leaf-cache write-through (`cache_refresh_many`, §2.1.2's duty done
//! at the writer) — writers on disjoint keys proceed in
//! parallel, each under its own leaf's frame latch. Every single-key operation on a
//! handle is its batched form with a batch of one.
//!
//! # Same-key writers: key-level write intents
//!
//! A logical write (resolve the key through its index, mutate the heap
//! row, maintain every index) spans several page operations, so two
//! writers racing the *same* key used to interleave mid-sequence; the
//! write paths carried tolerance workarounds (a racing deleter dropped
//! just its row, writer-side `InvalidSlot`s read as "lost the race").
//! Those workarounds are gone. Every put/update/delete path now
//! installs a **write intent** ([`nbb_btree::KeyIntents`], owned by the
//! accessed index's tree) on each key it addresses — including the keys
//! a key-changing update will write — *before* resolving anything, and
//! racing same-key writers park on the in-flight intent with a
//! pre-granted handoff (the buffer pool's in-flight-load pattern).
//! Per-key put/update/delete through one index is therefore
//! **linearizable end to end**: one racing deleter wins (`true`), the
//! others observe a completed delete (`false`), and nothing is ever
//! silently dropped mid-batch. Readers take no intents on their way:
//! index→heap chases keep their re-verification, and only a chase that
//! lands on a slot holding another key, or none, takes that key's
//! intent and looks once more, because an update may have swapped the
//! row onto a hot page (`table/hot.rs`, `Table::fetch_verified`).
//!
//! The guarantee is scoped to writers that address a row **through the
//! same index**. Concurrent writers reaching one row through different
//! indexes of a multi-index table are not coordinated; if such a race
//! destroys a resolved slot, the write surfaces
//! [`StorageError::Corrupt`] naming the violated intent instead of
//! silently dropping the row. `inserts` of already-present keys remain
//! the caller's contract violation, as before.

use nbb_btree::cache::CACHE_ID_SIZE;
use nbb_btree::node::{NODE_FOOTER_SIZE, NODE_HEADER_SIZE};
use nbb_btree::{BTree, BTreeOptions, CacheConfig, InvToken};
use nbb_storage::error::{Result, StorageError};
use nbb_storage::heap::HeapFile;
use nbb_storage::lockrank;
use nbb_storage::rid::RecordId;
use nbb_storage::slotted::SlottedPage;
use nbb_storage::{BufferPool, PageId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod hot;
mod write;

/// A byte range within the fixed-width tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Byte offset within the tuple.
    pub offset: usize,
    /// Field width in bytes.
    pub len: usize,
}

impl FieldSpec {
    /// Shorthand constructor.
    pub fn new(offset: usize, len: usize) -> Self {
        FieldSpec { offset, len }
    }

    fn extract<'a>(&self, tuple: &'a [u8]) -> &'a [u8] {
        &tuple[self.offset..self.offset + self.len]
    }
}

/// Declaration of a secondary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Index name (unique within the table).
    pub name: String,
    /// Which tuple bytes form the key (must be unique per tuple for
    /// point lookups to be meaningful).
    pub key: FieldSpec,
    /// What a projection returns: these fields, concatenated. Empty =
    /// caching disabled. Non-empty turns on the §2.1 leaf cache, whose
    /// entry holds every non-key byte of the tuple when that fits a
    /// half-full leaf many times over (then a full-row read hits it
    /// too), and only these fields otherwise.
    pub cached_fields: Vec<FieldSpec>,
}

impl IndexSpec {
    /// A plain (uncached) index on `key`.
    pub fn plain(name: &str, key: FieldSpec) -> Self {
        IndexSpec { name: name.to_string(), key, cached_fields: Vec::new() }
    }

    /// A cached index on `key`, caching `fields` (§2.1).
    pub fn cached(name: &str, key: FieldSpec, fields: Vec<FieldSpec>) -> Self {
        IndexSpec { name: name.to_string(), key, cached_fields: fields }
    }

    /// Width of a projection: the cached fields' total.
    pub fn payload_size(&self) -> usize {
        self.cached_fields.iter().map(|f| f.len).sum()
    }
}

/// The positions an index resolved, each with the heap address its
/// pointer names.
fn resolved(ptrs: impl IntoIterator<Item = Option<u64>>) -> (Vec<usize>, Vec<RecordId>) {
    let chased = |(i, ptr): (usize, Option<u64>)| Some((i, RecordId::from_u64(ptr?)));
    ptrs.into_iter().enumerate().filter_map(chased).unzip()
}

/// Fewest entries a half-full leaf's free space must hold for an
/// index to cache whole rows; a wider tuple keeps projection entries.
const WHOLE_ROW_MIN_SLOTS: usize = 16;

/// What a batched point read returns per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// The full tuple.
    Row,
    /// The cached fields, concatenated: a [`Projection`]'s payload.
    Projection,
}

/// One key's answer to a batched point read, and whether the leaf cache
/// gave it.
type Answer = (Vec<u8>, bool);

/// A key a batched point read chases to the heap: its position, its
/// pointer, and — when the read probed the cache and the miss was
/// admitted — the leaf and token a populate needs.
type Chase = (usize, u64, Option<(PageId, InvToken)>);

pub(crate) struct Index {
    pub(crate) spec: IndexSpec,
    pub(crate) tree: BTree,
    /// The leaf-cache entry is every non-key byte of the tuple, so it
    /// answers full-row reads too; otherwise it is the projection.
    whole_rows: bool,
}

impl Index {
    /// Builds an index over the tree `tree` makes from the options this
    /// derives — the one place an index's leaf-cache entry is chosen,
    /// from what the catalog already stores (`spec`, the tuple width)
    /// and the index pool's page size. A cached index's entry is
    /// `tuple_id ‖ every non-key byte` when a half-full leaf's free
    /// space holds [`WHOLE_ROW_MIN_SLOTS`] of them, and
    /// `tuple_id ‖ cached_fields` otherwise.
    fn build(
        spec: IndexSpec,
        tuple_width: usize,
        page_size: usize,
        tree: impl FnOnce(BTreeOptions) -> Result<BTree>,
    ) -> Result<Self> {
        let row = tuple_width - spec.key.len;
        let half_free = (page_size - NODE_HEADER_SIZE - NODE_FOOTER_SIZE) / 2;
        let whole_rows = !spec.cached_fields.is_empty()
            && half_free / (CACHE_ID_SIZE + row) >= WHOLE_ROW_MIN_SLOTS;
        let cache = (!spec.cached_fields.is_empty()).then(|| CacheConfig {
            payload_size: if whole_rows { row } else { spec.payload_size() },
        });
        let tree = tree(BTreeOptions { cache })?;
        Ok(Index { spec, tree, whole_rows })
    }

    /// Width of a leaf-cache entry's payload (0 for an uncached index).
    pub(crate) fn entry_size(&self) -> usize {
        self.tree.cache_config().map_or(0, |c| c.payload_size)
    }

    /// Whether a `shape` read consults the leaf cache: a projection
    /// whenever the index caches, a full row only when entries are
    /// whole rows.
    fn probes(&self, shape: Shape) -> bool {
        match shape {
            Shape::Row => self.whole_rows,
            Shape::Projection => self.tree.cache_config().is_some(),
        }
    }

    pub(crate) fn extract_payload(&self, tuple: &[u8]) -> Vec<u8> {
        let mut out = vec![0; self.entry_size()];
        self.write_payload(tuple, &mut out);
        out
    }

    /// Writes `tuple`'s leaf-cache entry payload into `out`, an
    /// [`Index::entry_size`]-byte slot: every non-key byte in tuple
    /// order for whole rows, the projection otherwise.
    pub(crate) fn write_payload(&self, tuple: &[u8], out: &mut [u8]) {
        if self.whole_rows {
            let key = self.spec.key;
            out[..key.offset].copy_from_slice(&tuple[..key.offset]);
            out[key.offset..].copy_from_slice(&tuple[key.offset + key.len..]);
        } else {
            self.write_projection(tuple, false, out);
        }
    }

    /// Writes the projection of `src` into `out`, a
    /// [`IndexSpec::payload_size`]-byte slot. `src` is a tuple, or with
    /// `entry` a leaf-cache entry payload: a whole-row entry lacks the
    /// key bytes, so a field past the key sits `key.len` lower in it.
    pub(crate) fn write_projection(&self, src: &[u8], entry: bool, out: &mut [u8]) {
        if entry && !self.whole_rows {
            out.copy_from_slice(src);
            return;
        }
        let key = self.spec.key;
        let mut at = 0;
        for f in &self.spec.cached_fields {
            let from = if entry && f.offset > key.offset { f.offset - key.len } else { f.offset };
            out[at..at + f.len].copy_from_slice(&src[from..from + f.len]);
            at += f.len;
        }
    }

    /// The `shape` answer for `key` from `src`: a verified heap tuple,
    /// or with `entry` the key's leaf-cache entry payload, from which a
    /// full row is rebuilt by putting the key back at its offset.
    fn answer(&self, shape: Shape, key: &[u8], src: &[u8], entry: bool) -> Vec<u8> {
        match shape {
            Shape::Row if entry => {
                let at = self.spec.key.offset;
                let mut row = Vec::with_capacity(src.len() + key.len());
                row.extend_from_slice(&src[..at]);
                row.extend_from_slice(key);
                row.extend_from_slice(&src[at..]);
                row
            }
            Shape::Row => src.to_vec(),
            Shape::Projection => {
                let mut out = vec![0; self.spec.payload_size()];
                self.write_projection(src, entry, &mut out);
                out
            }
        }
    }
}

/// Result of a cache-aware projection query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// The concatenated cached fields.
    pub payload: Vec<u8>,
    /// True when answered from the index cache without touching the heap.
    pub index_only: bool,
}

/// Per-table access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Rows (of point queries and range cursors) answered entirely from
    /// an index cache.
    pub index_only_answers: u64,
    /// Rows chased to the heap: one per key of a point query or row of
    /// a range-cursor refill that needed its tuple.
    pub heap_fetches: u64,
    /// Tuples inserted.
    pub inserts: u64,
    /// Tuples updated.
    pub updates: u64,
    /// Tuples deleted.
    pub deletes: u64,
    /// Logical write batches executed: one per plan. A multi-op
    /// ([`Table::insert_many`], `update_many`, `delete_many`,
    /// `put_many` — both of its legs) counts as **one** batch here while
    /// still counting each tuple above, so
    /// `inserts / write_batches` is the visible amortization factor —
    /// a loop of N single-tuple calls shows as N batches of one.
    pub write_batches: u64,
    /// Page loads started by the heap + index pools under this table
    /// (every cold-page fault, however many threads wanted it).
    pub pool_faults: u64,
    /// Requests that parked on another thread's in-flight load instead
    /// of issuing a duplicate read — overlap the fault state machine
    /// recovered for free.
    pub pool_fault_joins: u64,
    /// Dirty evictees flushed to disk by the pools' background
    /// write-behind flushers (writes taken off the eviction path).
    pub pool_wb_flushed: u64,
    /// Evicted-but-unflushed pages queued in the pools' write-behind
    /// stores right now (a gauge).
    pub pool_wb_pending: u64,
    /// Batched disk reads issued by the pools' batch-fault path (one
    /// per `read_many` call, however many pages it carried).
    pub pool_read_batches: u64,
    /// Pages carried by those batched reads;
    /// `pool_read_pages / pool_read_batches` is the achieved read
    /// coalescing factor.
    pub pool_read_pages: u64,
    /// Writers that found their key's write intent held by a racing
    /// same-key writer and parked on it, summed over this table's
    /// indexes — the contention the intent table absorbs.
    pub intent_parks: u64,
    /// Intent releases that handed the key directly to a parked waiter
    /// (pre-granted continuation), summed over this table's indexes.
    pub intent_handoffs: u64,
    /// Updated rows that swapped onto a hot heap page instead of being
    /// overwritten in place (`table/hot.rs`).
    pub swaps: u64,
}

/// A fixed-width-tuple table with cached secondary indexes.
pub struct Table {
    name: String,
    tuple_width: usize,
    heap: HeapFile,
    hot: hot::HotSet,
    indexes: RwLock<HashMap<String, Arc<Index>>>,
    index_pool: Arc<BufferPool>,
    index_only_answers: AtomicU64,
    heap_fetches: AtomicU64,
    inserts: AtomicU64,
    updates: AtomicU64,
    deletes: AtomicU64,
    write_batches: AtomicU64,
}

impl Table {
    /// Creates a table of `tuple_width`-byte tuples.
    ///
    /// `heap_pool` backs the data pages, `index_pool` the index pages —
    /// separating them lets experiments give indexes dedicated RAM, the
    /// knob behind Figure 3's `Partition` result.
    pub fn create(
        name: &str,
        tuple_width: usize,
        heap_pool: Arc<BufferPool>,
        index_pool: Arc<BufferPool>,
    ) -> Result<Self> {
        Self::attach(name, tuple_width, HeapFile::create(heap_pool)?, index_pool, Vec::new())
    }

    /// Reattaches a persisted table: an existing heap plus indexes
    /// reopened from their catalog entries `(spec, root page)`. No
    /// backfill happens — the trees already contain the entries.
    pub fn attach(
        name: &str,
        tuple_width: usize,
        heap: HeapFile,
        index_pool: Arc<BufferPool>,
        indexes: Vec<(IndexSpec, nbb_storage::PageId)>,
    ) -> Result<Self> {
        assert!(tuple_width > 0, "tuple width must be positive");
        let heap_pool = heap.pool();
        let slots = SlottedPage::capacity(heap_pool.disk().page_size(), tuple_width);
        let t = Table {
            name: name.to_string(),
            tuple_width,
            hot: hot::HotSet::new(heap_pool.capacity(), slots),
            heap,
            indexes: RwLock::with_rank(lockrank::TABLE_INDEXES, HashMap::new()),
            index_pool,
            index_only_answers: AtomicU64::new(0),
            heap_fetches: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            write_batches: AtomicU64::new(0),
        };
        let page_size = t.index_pool.disk().page_size();
        for (spec, root) in indexes {
            t.check_spec(&spec)?;
            let (pool, key_len) = (Arc::clone(&t.index_pool), spec.key.len);
            let index = Index::build(spec, tuple_width, page_size, |opts| {
                BTree::open(pool, key_len, root, opts)
            })?;
            t.indexes.write().insert(index.spec.name.clone(), Arc::new(index));
        }
        Ok(t)
    }

    /// Every index's declaration and current root page — the catalog
    /// entry needed to [`Table::attach`] later.
    pub fn index_specs(&self) -> Vec<(IndexSpec, nbb_storage::PageId)> {
        let mut v: Vec<(IndexSpec, nbb_storage::PageId)> =
            self.indexes.read().values().map(|i| (i.spec.clone(), i.tree.root_page())).collect();
        v.sort_by(|a, b| a.0.name.cmp(&b.0.name));
        v
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fixed tuple width in bytes.
    pub fn tuple_width(&self) -> usize {
        self.tuple_width
    }

    /// The underlying heap.
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// The buffer pool backing this table's indexes. Its shard count
    /// (see [`BufferPool::shards`]) bounds how many index readers can
    /// proceed without contending on a pool stripe.
    pub fn index_pool(&self) -> &Arc<BufferPool> {
        &self.index_pool
    }

    /// Fill factor used when backfilling an index over existing tuples.
    ///
    /// Matches the ~50% fill that incremental mid-point splits converge
    /// to, but applies it uniformly — with N ascending inserts the
    /// rightmost leaf ends nearly full, leaving the newest (usually
    /// hottest) key range with almost no recyclable cache space.
    const BACKFILL_FILL: f64 = 0.5;

    /// Declares an index. Existing tuples are indexed immediately: via a
    /// single-pass [`BTree::bulk_load`] when the extracted keys are
    /// unique, falling back to one-by-one inserts for duplicate keys.
    pub fn create_index(&self, spec: IndexSpec) -> Result<()> {
        self.check_spec(&spec)?;
        let key = spec.key;
        let mut pending = Vec::new();
        self.heap.scan(|rid, tuple| {
            pending.push((key.extract(tuple).to_vec(), rid));
            true
        })?;
        pending.sort_by(|a, b| a.0.cmp(&b.0));
        let unique = pending.windows(2).all(|w| w[0].0 < w[1].0);
        let pool = Arc::clone(&self.index_pool);
        let page_size = pool.disk().page_size();
        let index = Index::build(spec, self.tuple_width, page_size, |opts| {
            if !pending.is_empty() && unique {
                let entries = pending.into_iter().map(|(k, rid)| (k, rid.to_u64()));
                return BTree::bulk_load(pool, key.len, opts, entries, Self::BACKFILL_FILL);
            }
            let tree = BTree::create(pool, key.len, opts)?;
            for (k, rid) in pending {
                tree.insert(&k, rid.to_u64())?;
            }
            Ok(tree)
        })?;
        self.indexes.write().insert(index.spec.name.clone(), Arc::new(index));
        Ok(())
    }

    /// Validates an index declaration against the tuple geometry,
    /// returning [`StorageError::InvalidIndexSpec`] (instead of
    /// panicking or silently mis-slicing later) when a field range is
    /// empty, exceeds `tuple_width`, or a cached field overlaps the key
    /// bytes it would merely duplicate.
    fn check_spec(&self, spec: &IndexSpec) -> Result<()> {
        let err =
            |reason: String| StorageError::InvalidIndexSpec { index: spec.name.clone(), reason };
        let check = |what: &str, f: &FieldSpec| -> Result<()> {
            if f.len == 0 {
                return Err(err(format!("{what} at offset {} is empty", f.offset)));
            }
            if f.offset + f.len > self.tuple_width {
                return Err(err(format!(
                    "{what} bytes {}..{} exceed tuple width {}",
                    f.offset,
                    f.offset + f.len,
                    self.tuple_width
                )));
            }
            Ok(())
        };
        check("key", &spec.key)?;
        for f in &spec.cached_fields {
            check("cached field", f)?;
            let key = &spec.key;
            if f.offset < key.offset + key.len && key.offset < f.offset + f.len {
                return Err(err(format!(
                    "cached field bytes {}..{} overlap the key bytes {}..{} \
                     (key bytes already live in the leaf; caching them wastes slots)",
                    f.offset,
                    f.offset + f.len,
                    key.offset,
                    key.offset + key.len
                )));
            }
        }
        Ok(())
    }

    pub(crate) fn find_index(&self, name: &str) -> Result<Arc<Index>> {
        self.indexes
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::Corrupt(format!("no index named {name}")))
    }

    /// Resolves an index name to a cheap, clonable handle
    /// ([`crate::query::IndexRef`]). The name lookup and its
    /// `RwLock<HashMap>` acquisition happen **once**, here; every
    /// subsequent operation through the handle goes straight to the
    /// tree. Resolve once, query many times:
    ///
    /// ```ignore
    /// let by_id = table.index("by_id")?;
    /// for key in keys {
    ///     by_id.get(key)?;          // no name lookup, no map lock
    /// }
    /// ```
    pub fn index(&self, name: &str) -> Result<crate::query::IndexRef<'_>> {
        Ok(crate::query::IndexRef::new(self, self.find_index(name)?))
    }

    pub(crate) fn check_tuple(&self, tuple: &[u8]) -> Result<()> {
        if tuple.len() != self.tuple_width {
            return Err(StorageError::Corrupt(format!(
                "tuple width {} != declared {}",
                tuple.len(),
                self.tuple_width
            )));
        }
        Ok(())
    }

    /// The one index→heap chase: reads the tuples at `rids` through one
    /// batched heap read and hands `visit(i, tuple)` every tuple that
    /// still carries `key_of(i)` — in place, under the heap page's pin,
    /// so `visit` copies what it keeps and calls nothing. A slot freed,
    /// swapped or recycled for a different key between the index read
    /// and the heap read is not visited. What that means is the
    /// caller's call:
    /// readers ([`Table::fetch_verified`]) look once more under the
    /// key's intent, writers ([`Table::resolve_for_write`]) report an
    /// intent violation.
    fn chase<'k>(
        &self,
        idx: &Index,
        rids: &[RecordId],
        key_of: impl Fn(usize) -> &'k [u8],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<()> {
        self.heap.read_many(rids, |i, tuple| {
            if idx.spec.key.extract(tuple) == key_of(i) {
                visit(i, tuple);
            }
        })
    }

    /// Reader side of [`Table::chase`] (point reads, projections and
    /// range refills): `visit(i, rid, tuple)` sees each key's tuple
    /// with the address it was found at. Visited tuples carry their
    /// key, so callers may cache fields extracted from them.
    ///
    /// A chase whose slot holds another key, or none, means the row was
    /// deleted **or moved**: a concurrent delete, or an update that
    /// swapped the row onto a hot page (`table/hot.rs`), came between
    /// the index read and the heap read. Those keys, and only those,
    /// take their write intents on `idx`, are resolved through the
    /// index again and chased once more, and the intents are released.
    /// A swapper holds both rows' intents from before its heap swap
    /// until it has repointed them, so the second chase finds the row
    /// where the index now names it, or the key is truly gone (the
    /// delete happened first). Every chase that matches on the first
    /// try — all of them, when nothing writes — takes no intent, so
    /// readers of a table no one updates never wait.
    pub(crate) fn fetch_verified<'k>(
        &self,
        idx: &Index,
        rids: &[RecordId],
        key_of: impl Fn(usize) -> &'k [u8],
        mut visit: impl FnMut(usize, RecordId, &[u8]),
    ) -> Result<()> {
        // Count every heap access, not just verified ones — a chase
        // that lands on a recycled or freed slot still did the I/O.
        self.heap_fetches.fetch_add(rids.len() as u64, Ordering::Relaxed);
        // Which keys were found: on the stack for a point read's few.
        let (mut few, mut many) = ([false; 16], Vec::new());
        let seen: &mut [bool] = if rids.len() <= few.len() {
            &mut few[..rids.len()]
        } else {
            many.resize(rids.len(), false);
            &mut many
        };
        self.chase(idx, rids, &key_of, |i, tuple| {
            seen[i] = true;
            visit(i, rids[i], tuple);
        })?;
        if seen.iter().all(|&found| found) {
            return Ok(());
        }
        self.chase_again(idx, seen, key_of, visit)
    }

    /// The slow path of [`Table::fetch_verified`]: the keys not `seen`
    /// are resolved and chased once more under their intents.
    #[cold]
    #[inline(never)]
    fn chase_again<'k>(
        &self,
        idx: &Index,
        seen: &[bool],
        key_of: impl Fn(usize) -> &'k [u8],
        mut visit: impl FnMut(usize, RecordId, &[u8]),
    ) -> Result<()> {
        let lost: Vec<usize> = (0..seen.len()).filter(|&i| !seen[i]).collect();
        let keys: Vec<&[u8]> = lost.iter().map(|&i| key_of(i)).collect();
        let _intents = idx.tree.intents().acquire_many(&keys);
        let (at, moved) = resolved(idx.tree.get_many(&keys)?);
        self.heap_fetches.fetch_add(moved.len() as u64, Ordering::Relaxed);
        self.chase(idx, &moved, |j| keys[at[j]], |j, tuple| visit(lost[at[j]], moved[j], tuple))
    }

    /// Batched full-tuple lookup; see
    /// [`crate::query::IndexRef::get_many`], which this implements.
    pub(crate) fn get_many_with<K: AsRef<[u8]>>(
        &self,
        idx: &Index,
        keys: &[K],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let rows = self.read_many(idx, keys, Shape::Row)?;
        Ok(rows.into_iter().map(|r| r.map(|(row, _)| row)).collect())
    }

    /// Batched projection; see
    /// [`crate::query::IndexRef::project_many`], which this implements.
    pub(crate) fn project_many_with<K: AsRef<[u8]>>(
        &self,
        idx: &Index,
        keys: &[K],
    ) -> Result<Vec<Option<Projection>>> {
        let answers = self.read_many(idx, keys, Shape::Projection)?;
        let projection = |(payload, index_only)| Projection { payload, index_only };
        Ok(answers.into_iter().map(|a| a.map(projection)).collect())
    }

    /// The one batched point read, parameterised by what it returns:
    /// per key, its `shape` answer and whether the leaf cache gave it
    /// (indexed like `keys`; `None` = absent).
    ///
    /// When a `shape` read can be answered from the index's entries,
    /// [`BTree::lookup_cached_with`] finds the hits and each answer is
    /// built straight from its leaf — a full row puts the key back at
    /// its offset, a projection slices its fields out; every hit counts
    /// in [`TableStats::index_only_answers`]. The misses are chased in
    /// one [`Table::fetch_verified`] heap read, and those the leaf
    /// admitted are then populated through one
    /// [`BTree::cache_populate_many`], one run per leaf.
    /// Any other read is [`BTree::get_many`] and the chase.
    fn read_many<K: AsRef<[u8]>>(
        &self,
        idx: &Index,
        keys: &[K],
        shape: Shape,
    ) -> Result<Vec<Option<Answer>>> {
        let mut out: Vec<Option<Answer>> = vec![None; keys.len()];
        let mut chased: Vec<Chase> = Vec::new();
        let probe = idx.probes(shape);
        if probe {
            let mut served = 0u64;
            idx.tree.lookup_cached_with(keys, |pos, leaf, token, value, entry| {
                match (value, entry) {
                    (Some(_), Some(entry)) => {
                        let key = keys[pos].as_ref();
                        out[pos] = Some((idx.answer(shape, key, entry, true), true));
                        served += 1;
                    }
                    (Some(ptr), None) => {
                        chased.push((pos, ptr, token.admits().then_some((leaf, token))))
                    }
                    (None, _) => {}
                }
            })?;
            self.index_only_answers.fetch_add(served, Ordering::Relaxed);
        } else {
            let ptrs = idx.tree.get_many(keys)?.into_iter().enumerate();
            chased.extend(ptrs.filter_map(|(pos, ptr)| Some((pos, ptr?, None))));
        }
        let rids: Vec<RecordId> = chased.iter().map(|c| RecordId::from_u64(c.1)).collect();
        let w = if probe { idx.entry_size() } else { 0 };
        let mut entries = vec![0u8; chased.len() * w];
        let key_of = |j: usize| keys[chased[j].0].as_ref();
        self.fetch_verified(idx, &rids, key_of, |j, _, tuple| {
            out[chased[j].0] = Some((idx.answer(shape, key_of(j), tuple, false), false));
            if chased[j].2.is_some() {
                idx.write_payload(tuple, &mut entries[j * w..][..w]);
            }
        })?;
        // Every chased key whose tuple verified warms its leaf.
        let warm: Vec<(PageId, InvToken, u64, &[u8])> = (chased.iter().enumerate())
            .filter(|(_, c)| out[c.0].is_some())
            .filter_map(|(j, &(_, ptr, home))| {
                home.map(|(l, t)| (l, t, ptr, &entries[j * w..][..w]))
            })
            .collect();
        idx.tree.cache_populate_many(&warm)?;
        Ok(out)
    }

    /// Visits every live tuple. The callback returns `true` to keep
    /// walking; returning `false` stops the scan without touching the
    /// remaining heap pages (e.g. sampling scans stop after N rows
    /// instead of paying for the whole table).
    ///
    /// The walk goes page by page with no intents, so a scan concurrent
    /// with updates may see a row that a swap moves (`table/hot.rs`)
    /// twice, or not at all. Its callers tolerate that: the waste
    /// report samples, and the others (tests, the quickstart) scan a
    /// table no one is writing.
    pub fn scan(&self, f: impl FnMut(RecordId, &[u8]) -> bool) -> Result<()> {
        self.heap.scan(f)
    }

    /// Records `rows` answered entirely from an index cache (used by
    /// the range cursors, whose hits bypass [`Table::read_many`]).
    pub(crate) fn note_index_only_answers(&self, rows: u64) {
        self.index_only_answers.fetch_add(rows, Ordering::Relaxed);
    }

    /// Access counters. The `pool_*` fields aggregate the heap and
    /// index buffer pools beneath this table, so overlapped-fault and
    /// write-behind behaviour stays metered next to the logical
    /// counters it amortizes. Note a pool may be shared across tables;
    /// these meter the pools, not this table exclusively.
    pub fn stats(&self) -> TableStats {
        let heap_pool = self.heap.pool().stats();
        let index_pool = self.index_pool.stats();
        let (mut intent_parks, mut intent_handoffs) = (0u64, 0u64);
        for idx in self.indexes.read().values() {
            let w = idx.tree.write_stats();
            intent_parks += w.intent_parks;
            intent_handoffs += w.intent_handoffs;
        }
        TableStats {
            index_only_answers: self.index_only_answers.load(Ordering::Relaxed),
            heap_fetches: self.heap_fetches.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            write_batches: self.write_batches.load(Ordering::Relaxed),
            pool_faults: heap_pool.faults + index_pool.faults,
            pool_fault_joins: heap_pool.fault_joins + index_pool.fault_joins,
            pool_wb_flushed: heap_pool.wb_flushed + index_pool.wb_flushed,
            pool_wb_pending: heap_pool.wb_pending + index_pool.wb_pending,
            pool_read_batches: heap_pool.read_batches + index_pool.read_batches,
            pool_read_pages: heap_pool.read_pages + index_pool.read_pages,
            intent_parks,
            intent_handoffs,
            swaps: self.hot.swaps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbb_storage::{DiskManager, InMemoryDisk};

    fn pools() -> (Arc<BufferPool>, Arc<BufferPool>) {
        let d1: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        let d2: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        (Arc::new(BufferPool::new(d1, 128)), Arc::new(BufferPool::new(d2, 128)))
    }

    /// 32-byte tuple: id(8) | group(8) | value(8) | blob(8)
    fn tuple(id: u64, group: u64, value: u64) -> Vec<u8> {
        let mut t = Vec::with_capacity(32);
        t.extend_from_slice(&id.to_be_bytes());
        t.extend_from_slice(&group.to_be_bytes());
        t.extend_from_slice(&value.to_le_bytes());
        t.extend_from_slice(&[0xAB; 8]);
        t
    }

    fn table_with_cached_index() -> Table {
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        t.create_index(IndexSpec::cached(
            "by_id",
            FieldSpec::new(0, 8),
            vec![FieldSpec::new(16, 8)], // cache `value`
        ))
        .unwrap();
        t
    }

    #[test]
    fn insert_and_lookup() {
        let t = table_with_cached_index();
        t.insert(&tuple(1, 10, 100)).unwrap();
        t.insert(&tuple(2, 20, 200)).unwrap();
        let got = t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().unwrap();
        assert_eq!(got, tuple(1, 10, 100));
        assert!(t.index("by_id").unwrap().get(&3u64.to_be_bytes()).unwrap().is_none());
    }

    #[test]
    fn projection_becomes_index_only_on_second_access() {
        let t = table_with_cached_index();
        t.insert(&tuple(1, 10, 100)).unwrap();
        let p1 = t.index("by_id").unwrap().project(&1u64.to_be_bytes()).unwrap().unwrap();
        assert!(!p1.index_only, "first access must fetch the heap");
        assert_eq!(p1.payload, 100u64.to_le_bytes());
        let p2 = t.index("by_id").unwrap().project(&1u64.to_be_bytes()).unwrap().unwrap();
        assert!(p2.index_only, "second access must be answered by the cache");
        assert_eq!(p2.payload, 100u64.to_le_bytes());
        let s = t.stats();
        assert_eq!(s.heap_fetches, 1);
        assert_eq!(s.index_only_answers, 1);
    }

    #[test]
    fn update_invalidates_cached_projection() {
        let t = table_with_cached_index();
        t.insert(&tuple(1, 10, 100)).unwrap();
        // warm the cache
        t.index("by_id").unwrap().project(&1u64.to_be_bytes()).unwrap();
        t.index("by_id").unwrap().project(&1u64.to_be_bytes()).unwrap();
        // update the cached field
        assert!(t.index("by_id").unwrap().update(&1u64.to_be_bytes(), &tuple(1, 10, 999)).unwrap());
        let p = t.index("by_id").unwrap().project(&1u64.to_be_bytes()).unwrap().unwrap();
        assert_eq!(p.payload, 999u64.to_le_bytes(), "must never serve the stale 100");
        assert!(p.index_only, "the update wrote its bytes through to the entry");
    }

    #[test]
    fn any_non_key_byte_change_is_written_through_to_the_cached_row() {
        let t = table_with_cached_index();
        t.insert(&tuple(1, 10, 100)).unwrap();
        let by_id = t.index("by_id").unwrap();
        let key = 1u64.to_be_bytes();
        let mut row = tuple(1, 10, 100);
        // Every byte past the key — the uncached `group` and blob too —
        // now lives in the cached entry.
        for at in 8..32 {
            by_id.get(&key).unwrap();
            let before = t.stats();
            assert_eq!(by_id.get(&key).unwrap().unwrap(), row, "byte {at}: warm hit");
            assert_eq!(t.stats().index_only_answers, before.index_only_answers + 1);
            row[at] ^= 0x5A;
            assert!(by_id.update(&key, &row).unwrap());
            let before = t.stats();
            assert_eq!(by_id.get(&key).unwrap().unwrap(), row, "byte {at}: the new bytes");
            assert_eq!(t.stats().heap_fetches, before.heap_fetches, "byte {at}: from the cache");
            assert_eq!(t.stats().index_only_answers, before.index_only_answers + 1);
        }
    }

    #[test]
    fn identical_tuple_update_keeps_cache_warm() {
        let t = table_with_cached_index();
        t.insert(&tuple(1, 10, 100)).unwrap();
        let by_id = t.index("by_id").unwrap();
        let key = 1u64.to_be_bytes();
        by_id.get(&key).unwrap();
        assert!(by_id.project(&key).unwrap().unwrap().index_only);
        assert!(by_id.update(&key, &tuple(1, 10, 100)).unwrap());
        let before = t.stats();
        assert_eq!(by_id.get(&key).unwrap().unwrap(), tuple(1, 10, 100));
        let p = by_id.project(&key).unwrap().unwrap();
        assert!(p.index_only, "an update that changes no byte must not invalidate");
        assert_eq!(p.payload, 100u64.to_le_bytes());
        let after = t.stats();
        assert_eq!(after.heap_fetches, before.heap_fetches);
        assert_eq!(after.index_only_answers, before.index_only_answers + 2);
    }

    /// 32-byte tuple with the key in the middle: a(8) | key(8) | b(8) | c(8).
    fn keyed_at_8(key: u64) -> Vec<u8> {
        let mut t = Vec::with_capacity(32);
        t.extend_from_slice(&(key * 3).to_le_bytes());
        t.extend_from_slice(&key.to_be_bytes());
        t.extend_from_slice(&(key ^ 0xF0F0).to_le_bytes());
        t.extend_from_slice(&[key as u8; 8]);
        t
    }

    #[test]
    fn a_key_mid_tuple_round_trips_byte_identically_from_a_hit() {
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        let rows: Vec<Vec<u8>> = (1..=300u64).map(keyed_at_8).collect();
        t.insert_many(&rows).unwrap();
        // Backfilled at half fill: 40 free slots a leaf, more than the
        // keys asked of any one of them.
        let fields = vec![FieldSpec::new(24, 8), FieldSpec::new(0, 4)];
        t.create_index(IndexSpec::cached("mid", FieldSpec::new(8, 8), fields)).unwrap();
        let mid = t.index("mid").unwrap();
        assert_eq!(mid.tree().cache_config().unwrap().payload_size, 24, "whole rows");
        let keys: Vec<[u8; 8]> = (1..=300u64).step_by(7).map(u64::to_be_bytes).collect();
        let cold = mid.get_many(&keys).unwrap();
        let before = t.stats();
        let warm = mid.get_many(&keys).unwrap();
        assert_eq!(t.stats().heap_fetches, before.heap_fetches, "every row from the cache");
        assert_eq!(t.stats().index_only_answers, before.index_only_answers + keys.len() as u64);
        for ((key, cold), warm) in keys.iter().zip(cold).zip(warm) {
            let want = keyed_at_8(u64::from_be_bytes(*key));
            assert_eq!(cold.unwrap(), want);
            assert_eq!(warm.unwrap(), want, "a hit rebuilds the row byte for byte");
        }
    }

    #[test]
    fn project_many_from_whole_row_entries_equals_the_concatenated_fields() {
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        // Out of tuple order, one field each side of the key.
        let fields = vec![FieldSpec::new(28, 4), FieldSpec::new(2, 5), FieldSpec::new(16, 8)];
        t.insert_many(&(1..=200u64).map(keyed_at_8).collect::<Vec<_>>()).unwrap();
        t.create_index(IndexSpec::cached("mid", FieldSpec::new(8, 8), fields.clone())).unwrap();
        let mid = t.index("mid").unwrap();
        let keys: Vec<[u8; 8]> = (1..=200u64).step_by(5).map(u64::to_be_bytes).collect();
        mid.get_many(&keys).unwrap(); // warms whole-row entries
        for (key, p) in keys.iter().zip(mid.project_many(&keys).unwrap()) {
            let row = keyed_at_8(u64::from_be_bytes(*key));
            let want: Vec<u8> =
                fields.iter().flat_map(|f| row[f.offset..f.offset + f.len].to_vec()).collect();
            let p = p.unwrap();
            assert!(p.index_only, "served from the entry a get populated");
            assert_eq!(p.payload, want);
        }
    }

    #[test]
    fn a_tuple_too_wide_for_whole_rows_keeps_projection_entries() {
        let (hp, ip) = pools();
        // A half-full 4 KiB leaf frees 2,024 bytes: 16 entries of 126 B
        // fit (8 B id + 118 non-key bytes), 16 of 127 B do not.
        for (width, entry) in [(126, 118), (127, 8)] {
            let t = Table::create("t", width, Arc::clone(&hp), Arc::clone(&ip)).unwrap();
            let spec = IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]);
            t.create_index(spec).unwrap();
            let pk = t.index("pk").unwrap();
            assert_eq!(pk.tree().cache_config().unwrap().payload_size, entry, "width {width}");
        }
        let t = Table::create("wide", 200, hp, ip).unwrap();
        let spec = IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]);
        t.create_index(spec).unwrap();
        let row = |k: u64| {
            let mut r = vec![k as u8; 200];
            r[..8].copy_from_slice(&k.to_be_bytes());
            r
        };
        t.insert_many(&(0..100u64).map(row).collect::<Vec<_>>()).unwrap();
        let pk = t.index("pk").unwrap();
        let keys: Vec<[u8; 8]> = (0..100u64).map(u64::to_be_bytes).collect();
        pk.project_many(&keys).unwrap();
        let before = (t.stats(), pk.tree().cache_stats().lookups);
        for _ in 0..3 {
            for (k, got) in keys.iter().zip(pk.get_many(&keys).unwrap()) {
                assert_eq!(got.unwrap(), row(u64::from_be_bytes(*k)));
            }
        }
        let after = t.stats();
        assert_eq!(after.index_only_answers, before.0.index_only_answers, "never index-only");
        assert_eq!(after.heap_fetches, before.0.heap_fetches + 300, "every row from the heap");
        assert_eq!(pk.tree().cache_stats().lookups, before.1, "and the cache is not probed");
        assert!(pk.project_many(&keys).unwrap().iter().all(|p| p.as_ref().unwrap().index_only));
    }

    #[test]
    fn delete_then_rid_reuse_never_serves_stale_cache() {
        let t = table_with_cached_index();
        t.insert(&tuple(1, 10, 100)).unwrap();
        t.index("by_id").unwrap().project(&1u64.to_be_bytes()).unwrap();
        t.index("by_id").unwrap().project(&1u64.to_be_bytes()).unwrap();
        assert!(t.index("by_id").unwrap().delete(&1u64.to_be_bytes()).unwrap());
        assert!(t.index("by_id").unwrap().project(&1u64.to_be_bytes()).unwrap().is_none());
        // New tuple reuses the heap slot (same rid) with a new id.
        t.insert(&tuple(2, 20, 222)).unwrap();
        let p = t.index("by_id").unwrap().project(&2u64.to_be_bytes()).unwrap().unwrap();
        assert_eq!(p.payload, 222u64.to_le_bytes());
        assert!(t.index("by_id").unwrap().project(&1u64.to_be_bytes()).unwrap().is_none());
    }

    #[test]
    fn multiple_indexes_stay_consistent() {
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        t.create_index(IndexSpec::cached(
            "by_id",
            FieldSpec::new(0, 8),
            vec![FieldSpec::new(16, 8)],
        ))
        .unwrap();
        t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();
        t.insert(&tuple(1, 10, 100)).unwrap();
        assert_eq!(
            t.index("by_group").unwrap().get(&10u64.to_be_bytes()).unwrap().unwrap(),
            tuple(1, 10, 100)
        );
        // Key change on the group index via an update through by_id.
        t.index("by_id").unwrap().update(&1u64.to_be_bytes(), &tuple(1, 33, 100)).unwrap();
        assert!(t.index("by_group").unwrap().get(&10u64.to_be_bytes()).unwrap().is_none());
        assert_eq!(
            t.index("by_group").unwrap().get(&33u64.to_be_bytes()).unwrap().unwrap(),
            tuple(1, 33, 100)
        );
    }

    #[test]
    fn backfill_indexes_existing_tuples() {
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        for i in 0..200u64 {
            t.insert(&tuple(i, i % 5, i * 2)).unwrap();
        }
        t.create_index(IndexSpec::plain("late", FieldSpec::new(0, 8))).unwrap();
        for i in (0..200u64).step_by(17) {
            assert_eq!(
                t.index("late").unwrap().get(&i.to_be_bytes()).unwrap().unwrap(),
                tuple(i, i % 5, i * 2)
            );
        }
    }

    #[test]
    fn relocate_patches_indexes() {
        let t = table_with_cached_index();
        let rid = t.insert(&tuple(1, 10, 100)).unwrap();
        // Enough tuples that the heap spans several pages and the tail
        // is a different page from `rid`'s.
        for i in 2..400u64 {
            t.insert(&tuple(i, 0, 0)).unwrap();
        }
        let new_rid = t.relocate(rid).unwrap();
        assert_ne!(rid, new_rid);
        assert_eq!(
            t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().unwrap(),
            tuple(1, 10, 100)
        );
    }

    #[test]
    fn bad_specs_rejected() {
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        assert!(t.create_index(IndexSpec::plain("oob", FieldSpec::new(30, 8))).is_err());
        assert!(t.insert(&[0u8; 10]).is_err());
        assert!(t.index("nope").is_err());
    }

    #[test]
    fn insert_many_round_trips_and_counts_one_batch() {
        let t = table_with_cached_index();
        let tuples: Vec<Vec<u8>> = (0..500u64).map(|i| tuple(i, i % 7, i * 3)).collect();
        let rids = t.insert_many(&tuples).unwrap();
        assert_eq!(rids.len(), 500);
        for i in (0..500u64).step_by(41) {
            assert_eq!(
                t.index("by_id").unwrap().get(&i.to_be_bytes()).unwrap().unwrap(),
                tuple(i, i % 7, i * 3)
            );
        }
        let s = t.stats();
        assert_eq!(s.inserts, 500, "every tuple counted");
        assert_eq!(s.write_batches, 1, "one logical batch, not 500");
    }

    #[test]
    fn insert_many_duplicate_key_rejected_before_any_mutation() {
        let t = table_with_cached_index();
        let batch = vec![tuple(1, 0, 10), tuple(2, 0, 20), tuple(1, 0, 99)];
        let err = t.insert_many(&batch).unwrap_err();
        assert!(
            matches!(err, StorageError::DuplicateKeyInBatch { .. }),
            "want the named duplicate error, got {err:?}"
        );
        // Nothing was applied: no heap rows, no index entries, no stats.
        assert_eq!(t.heap().live_tuple_count().unwrap(), 0);
        assert!(t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().is_none());
        assert_eq!(t.stats().inserts, 0);
        assert_eq!(t.stats().write_batches, 0);
    }

    #[test]
    fn update_many_applies_all_and_reports_absentees() {
        let t = table_with_cached_index();
        t.insert_many(&(0..50u64).map(|i| tuple(i, 0, i)).collect::<Vec<_>>()).unwrap();
        let idx = t.find_index("by_id").unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> =
            (40..60u64).map(|i| (i.to_be_bytes().to_vec(), tuple(i, 1, i + 1000))).collect();
        let applied = t.update_many_with(&idx, &pairs).unwrap();
        for (j, i) in (40..60u64).enumerate() {
            assert_eq!(applied[j], i < 50, "key {i}");
        }
        assert_eq!(
            t.index("by_id").unwrap().get(&43u64.to_be_bytes()).unwrap().unwrap(),
            tuple(43, 1, 1043)
        );
        assert!(t.index("by_id").unwrap().get(&55u64.to_be_bytes()).unwrap().is_none());
        assert_eq!(t.stats().updates, 10);
        // 1 insert batch + 1 update batch.
        assert_eq!(t.stats().write_batches, 2);
    }

    #[test]
    fn update_many_key_rotation_is_deterministic() {
        // a→b while b→c in ONE batch: per-index deletes apply before
        // inserts, so both rows survive under their new keys — a loop
        // of single updates would order-dependently lose one.
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        t.create_index(IndexSpec::plain("by_id", FieldSpec::new(0, 8))).unwrap();
        t.insert(&tuple(1, 0, 100)).unwrap();
        t.insert(&tuple(2, 0, 200)).unwrap();
        let idx = t.find_index("by_id").unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (1u64.to_be_bytes().to_vec(), tuple(2, 0, 100)), // 1 → 2
            (2u64.to_be_bytes().to_vec(), tuple(3, 0, 200)), // 2 → 3
        ];
        assert_eq!(t.update_many_with(&idx, &pairs).unwrap(), vec![true, true]);
        assert!(t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().is_none());
        assert_eq!(
            t.index("by_id").unwrap().get(&2u64.to_be_bytes()).unwrap().unwrap(),
            tuple(2, 0, 100)
        );
        assert_eq!(
            t.index("by_id").unwrap().get(&3u64.to_be_bytes()).unwrap().unwrap(),
            tuple(3, 0, 200)
        );
    }

    #[test]
    fn update_many_duplicate_key_rejected() {
        let t = table_with_cached_index();
        t.insert(&tuple(1, 0, 100)).unwrap();
        let idx = t.find_index("by_id").unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (1u64.to_be_bytes().to_vec(), tuple(1, 0, 111)),
            (1u64.to_be_bytes().to_vec(), tuple(1, 0, 222)),
        ];
        assert!(matches!(
            t.update_many_with(&idx, &pairs),
            Err(StorageError::DuplicateKeyInBatch { .. })
        ));
        assert_eq!(
            t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().unwrap(),
            tuple(1, 0, 100),
            "rejected batch must not touch the row"
        );
    }

    #[test]
    fn update_many_new_key_collision_rejected_before_mutation() {
        // Distinct input keys whose NEW tuples collide on a secondary
        // index's key: must fail whole with the named error before any
        // heap or index mutation (mid-batch failure would strand the
        // secondary index with neither the old nor the new entries).
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        t.create_index(IndexSpec::plain("by_id", FieldSpec::new(0, 8))).unwrap();
        t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();
        t.insert(&tuple(1, 10, 100)).unwrap();
        t.insert(&tuple(2, 20, 200)).unwrap();
        let idx = t.find_index("by_id").unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (1u64.to_be_bytes().to_vec(), tuple(1, 30, 100)), // group 10 → 30
            (2u64.to_be_bytes().to_vec(), tuple(2, 30, 200)), // group 20 → 30: collision
        ];
        let err = t.update_many_with(&idx, &pairs).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKeyInBatch { .. }), "got {err:?}");
        // Nothing moved: heap rows and both index views are intact.
        assert_eq!(
            t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().unwrap(),
            tuple(1, 10, 100)
        );
        assert_eq!(
            t.index("by_id").unwrap().get(&2u64.to_be_bytes()).unwrap().unwrap(),
            tuple(2, 20, 200)
        );
        assert!(t.index("by_group").unwrap().get(&10u64.to_be_bytes()).unwrap().is_some());
        assert!(t.index("by_group").unwrap().get(&20u64.to_be_bytes()).unwrap().is_some());
        assert!(t.index("by_group").unwrap().get(&30u64.to_be_bytes()).unwrap().is_none());
        assert_eq!(t.stats().updates, 0);
    }

    #[test]
    fn update_many_changed_key_colliding_with_kept_key_rejected() {
        // Row 1 moves its id to 2 while row 2 keeps id 2 in the same
        // batch: the planned insert would silently overwrite row 2's
        // entry, so the batch must be rejected whole.
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        t.create_index(IndexSpec::plain("by_id", FieldSpec::new(0, 8))).unwrap();
        t.insert(&tuple(1, 10, 100)).unwrap();
        t.insert(&tuple(2, 20, 200)).unwrap();
        let idx = t.find_index("by_id").unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (1u64.to_be_bytes().to_vec(), tuple(2, 10, 100)), // id 1 → 2
            (2u64.to_be_bytes().to_vec(), tuple(2, 99, 200)), // id stays 2
        ];
        let err = t.update_many_with(&idx, &pairs).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKeyInBatch { .. }), "got {err:?}");
        assert_eq!(
            t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().unwrap(),
            tuple(1, 10, 100)
        );
        assert_eq!(
            t.index("by_id").unwrap().get(&2u64.to_be_bytes()).unwrap().unwrap(),
            tuple(2, 20, 200)
        );
        // Kept keys sharing a secondary value stay legal: updating two
        // rows that already share a group must not be flagged.
        t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();
        t.index("by_id").unwrap().update(&1u64.to_be_bytes(), &tuple(1, 7, 1)).unwrap();
        t.index("by_id").unwrap().update(&2u64.to_be_bytes(), &tuple(2, 7, 2)).unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (1u64.to_be_bytes().to_vec(), tuple(1, 7, 11)),
            (2u64.to_be_bytes().to_vec(), tuple(2, 7, 22)),
        ];
        assert_eq!(t.update_many_with(&idx, &pairs).unwrap(), vec![true, true]);
    }

    #[test]
    fn put_many_fresh_secondary_collision_rejected_before_updates() {
        // Two FRESH tuples colliding on a secondary index must fail the
        // whole put batch before its update leg mutates anything.
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        t.create_index(IndexSpec::plain("by_id", FieldSpec::new(0, 8))).unwrap();
        t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();
        t.insert(&tuple(1, 10, 100)).unwrap();
        let idx = t.find_index("by_id").unwrap();
        let batch = vec![
            tuple(1, 10, 999), // update leg
            tuple(50, 77, 0),  // fresh, group 77
            tuple(51, 77, 0),  // fresh, group 77: collision
        ];
        let err = t.put_many_with(&idx, &batch).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKeyInBatch { .. }), "got {err:?}");
        assert_eq!(
            t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().unwrap(),
            tuple(1, 10, 100),
            "update leg must not have run"
        );
        assert_eq!(t.heap().live_tuple_count().unwrap(), 1);
    }

    #[test]
    fn put_many_cross_leg_secondary_collision_rejected() {
        // An updated row and a fresh tuple landing on the same
        // secondary key (one per leg) must fail the whole batch before
        // anything mutates — the legs would otherwise silently
        // overwrite each other's index entry.
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        t.create_index(IndexSpec::plain("by_id", FieldSpec::new(0, 8))).unwrap();
        t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();
        t.insert(&tuple(1, 10, 100)).unwrap();
        let idx = t.find_index("by_id").unwrap();
        let batch = vec![
            tuple(1, 77, 0), // update leg: group 10 → 77
            tuple(2, 77, 0), // insert leg: group 77 — cross-leg collision
        ];
        let err = t.put_many_with(&idx, &batch).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKeyInBatch { .. }), "got {err:?}");
        assert_eq!(
            t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().unwrap(),
            tuple(1, 10, 100)
        );
        assert!(t.index("by_group").unwrap().get(&10u64.to_be_bytes()).unwrap().is_some());
        assert!(t.index("by_group").unwrap().get(&77u64.to_be_bytes()).unwrap().is_none());
        assert_eq!(t.heap().live_tuple_count().unwrap(), 1);
        // A kept-key + fresh-tuple collision is also the batch's doing
        // and must be rejected: fresh group 10 vs row 1 keeping 10.
        let batch = vec![tuple(1, 10, 5), tuple(3, 10, 0)];
        assert!(matches!(
            t.put_many_with(&idx, &batch),
            Err(StorageError::DuplicateKeyInBatch { .. })
        ));
        // Disjoint legs still work.
        let batch = vec![tuple(1, 11, 5), tuple(3, 12, 0)];
        let rids = t.put_many_with(&idx, &batch).unwrap();
        assert_eq!(rids.len(), 2);
        assert_eq!(
            t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().unwrap(),
            tuple(1, 11, 5)
        );
        assert_eq!(
            t.index("by_id").unwrap().get(&3u64.to_be_bytes()).unwrap().unwrap(),
            tuple(3, 12, 0)
        );
    }

    #[test]
    fn delete_many_handles_absent_and_duplicate_keys() {
        let t = table_with_cached_index();
        t.insert_many(&(0..20u64).map(|i| tuple(i, 0, i)).collect::<Vec<_>>()).unwrap();
        let idx = t.find_index("by_id").unwrap();
        let keys: Vec<Vec<u8>> = vec![
            3u64.to_be_bytes().to_vec(),
            99u64.to_be_bytes().to_vec(), // absent
            7u64.to_be_bytes().to_vec(),
            3u64.to_be_bytes().to_vec(), // duplicate: idempotent
        ];
        let gone = t.delete_many_with(&idx, &keys).unwrap();
        assert_eq!(gone, vec![true, false, true, false]);
        assert!(t.index("by_id").unwrap().get(&3u64.to_be_bytes()).unwrap().is_none());
        assert!(t.index("by_id").unwrap().get(&7u64.to_be_bytes()).unwrap().is_none());
        assert_eq!(t.heap().live_tuple_count().unwrap(), 18);
        assert_eq!(t.stats().deletes, 2);
    }

    #[test]
    fn delete_many_maintains_secondary_indexes() {
        let (hp, ip) = pools();
        let t = Table::create("t", 32, hp, ip).unwrap();
        t.create_index(IndexSpec::plain("by_id", FieldSpec::new(0, 8))).unwrap();
        t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();
        t.insert_many(&(0..10u64).map(|i| tuple(i, 100 + i, 0)).collect::<Vec<_>>()).unwrap();
        let idx = t.find_index("by_id").unwrap();
        let keys: Vec<Vec<u8>> = (0..5u64).map(|i| i.to_be_bytes().to_vec()).collect();
        assert!(t.delete_many_with(&idx, &keys).unwrap().iter().all(|&b| b));
        for i in 0..10u64 {
            let via_group = t.index("by_group").unwrap().get(&(100 + i).to_be_bytes()).unwrap();
            assert_eq!(via_group.is_some(), i >= 5, "group key {}", 100 + i);
        }
    }

    #[test]
    fn put_many_upserts_by_index_key() {
        let t = table_with_cached_index();
        t.insert_many(&(0..10u64).map(|i| tuple(i, 0, i)).collect::<Vec<_>>()).unwrap();
        let idx = t.find_index("by_id").unwrap();
        // 5..15: half updates in place, half fresh inserts.
        let tuples: Vec<Vec<u8>> = (5..15u64).map(|i| tuple(i, 9, i + 500)).collect();
        let rids = t.put_many_with(&idx, &tuples).unwrap();
        assert_eq!(rids.len(), 10);
        for i in 0..15u64 {
            let got = t.index("by_id").unwrap().get(&i.to_be_bytes()).unwrap().unwrap();
            let want = if i < 5 { tuple(i, 0, i) } else { tuple(i, 9, i + 500) };
            assert_eq!(got, want, "key {i}");
        }
        assert_eq!(t.heap().live_tuple_count().unwrap(), 15, "updates must not re-insert");
        assert_eq!(t.stats().inserts, 15);
        assert_eq!(t.stats().updates, 5);
    }

    #[test]
    fn uncoordinated_slot_destruction_surfaces_intent_violation() {
        // Simulate the documented uncoordinated case: something frees a
        // heap slot without maintaining the indexes (here: a raw heap
        // delete standing in for a cross-index writer). A write that
        // resolves that key under its intent must surface the named
        // violation — and must do so before mutating anything, so the
        // batch's other rows are untouched rather than half-applied.
        let t = table_with_cached_index();
        let rid = t.insert(&tuple(1, 0, 100)).unwrap();
        t.insert(&tuple(2, 0, 200)).unwrap();
        t.heap().delete(rid).unwrap(); // bypasses index maintenance
        let idx = t.find_index("by_id").unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (1u64.to_be_bytes().to_vec(), tuple(1, 0, 111)),
            (2u64.to_be_bytes().to_vec(), tuple(2, 0, 222)),
        ];
        let err = t.update_many_with(&idx, &pairs).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(msg) if msg.contains("write intent")),
            "want the named intent violation, got {err:?}"
        );
        assert_eq!(
            t.index("by_id").unwrap().get(&2u64.to_be_bytes()).unwrap().unwrap(),
            tuple(2, 0, 200),
            "the violation must surface before any other row mutates"
        );
        // Same shape through delete_many; readers still tolerate the
        // dangling entry (key 1 simply reads as absent).
        let keys: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.clone()).collect();
        let err = t.delete_many_with(&idx, &keys).unwrap_err();
        assert!(matches!(&err, StorageError::Corrupt(msg) if msg.contains("write intent")));
        assert!(t.index("by_id").unwrap().get(&1u64.to_be_bytes()).unwrap().is_none());
    }

    #[test]
    fn stress_mixed_workload_against_model() {
        use std::collections::HashMap;
        let t = table_with_cached_index();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut x = 42u64;
        for step in 0..8000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = x % 300;
            match x % 7 {
                0 => {
                    if model.contains_key(&id) {
                        let v = x % 10_000;
                        t.index("by_id")
                            .unwrap()
                            .update(&id.to_be_bytes(), &tuple(id, 0, v))
                            .unwrap();
                        model.insert(id, v);
                    }
                }
                1 => {
                    let existed = t.index("by_id").unwrap().delete(&id.to_be_bytes()).unwrap();
                    assert_eq!(existed, model.remove(&id).is_some(), "step {step}");
                }
                2 => {
                    model.entry(id).or_insert_with(|| {
                        let v = x % 10_000;
                        t.insert(&tuple(id, 0, v)).unwrap();
                        v
                    });
                }
                _ => {
                    let got = t.index("by_id").unwrap().project(&id.to_be_bytes()).unwrap();
                    match (got, model.get(&id)) {
                        (Some(p), Some(v)) => {
                            assert_eq!(p.payload, v.to_le_bytes(), "step {step} id {id}")
                        }
                        (None, None) => {}
                        (g, m) => panic!("step {step} id {id}: {g:?} vs {m:?}"),
                    }
                }
            }
        }
        let s = t.stats();
        assert!(s.index_only_answers > 0, "cache must contribute: {s:?}");
    }
}

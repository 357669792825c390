//! Handle-based query surface: index handles, batched execution, and
//! ordered range cursors.
//!
//! Every query goes through a handle, in the spirit of the paper's
//! thesis that no spare capacity — lock budgets included — should go
//! unused:
//!
//! * [`IndexRef`] — a cheap, clonable handle from [`Table::index`]. The
//!   name resolves once, through the table's `RwLock<HashMap>`; every
//!   operation on the handle goes straight to the tree. The point
//!   operations (`get`/`project`/`put`/`update`/`delete`) are their
//!   batched forms with a batch of one.
//! * [`IndexRef::get_many`] / [`IndexRef::project_many`] — N lookups
//!   share one tree-structure-lock acquisition, one page visit per
//!   distinct leaf, and one buffer-pool lock acquisition per pool shard
//!   on the heap side, instead of N of each.
//! * [`IndexRef::put_many`] / [`IndexRef::update_many`] /
//!   [`IndexRef::delete_many`] — the write-side analogues: N mutations
//!   validate up front, install key-level **write intents** on every
//!   addressed key (racing same-key writers park and resume via
//!   pre-granted handoff, so per-key writes through one index are
//!   linearizable end to end), share batched pointer resolution and
//!   heap access, and apply index maintenance through the tree's
//!   sorted, leaf-grouped multi-key ops (one descent + one per-leaf
//!   latch per destination leaf).
//! * [`Batch`] / [`Table::execute`] — heterogeneous point ops (reads
//!   **and** writes) grouped per index and executed through the
//!   batched paths; see [`Batch`] for the write-before-read ordering
//!   contract.
//! * [`IndexRef::range`] / [`IndexRef::range_projected`] — ordered
//!   cursors over the B+Tree's leaves. The projected cursor serves
//!   cached fields straight from leaf free space (§2.1) and falls back
//!   to heap chases with the usual key re-verification; refills
//!   re-descend by key, so cursors survive leaf splits mid-iteration.
//!   Cursors refill by **row budget** — what is left of
//!   [`RangeCursor::limit`], or a budget that doubles per refill when
//!   the caller set none: a refill faults the leaves it is sure to
//!   consume in one batched read (their ids read off the parent node)
//!   and fetches every buffered row's heap page in one more, so a page
//!   of N rows costs a handful of device round trips instead of one per
//!   leaf and per heap page, and reads no page a row-at-a-time walk
//!   would not read.

use crate::table::{Index, IndexSpec, Projection, Table};
use nbb_btree::{BTree, InvToken, RangeEntry};
use nbb_storage::error::{Result, StorageError};
use nbb_storage::rid::RecordId;
use nbb_storage::PageId;
use std::collections::{HashMap, VecDeque};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A resolved handle to one of a table's indexes.
///
/// Obtained from [`Table::index`]; clonable and cheap (an `Arc` bump),
/// so hot loops can keep their own copy. The handle borrows the table
/// (`IndexRef<'t>`), so sharing across threads means scoped threads
/// (`std::thread::scope`) or having each worker resolve its own handle
/// from the shared `Arc<Table>` — resolution is a single map read. All
/// index operations on the handle skip the per-call name lookup and
/// its map lock. The handle stays valid for the life of the table;
/// operations keep working even if the index is later re-created under
/// the same name (they address the tree the handle was resolved to).
pub struct IndexRef<'t> {
    table: &'t Table,
    idx: Arc<Index>,
}

impl Clone for IndexRef<'_> {
    fn clone(&self) -> Self {
        IndexRef { table: self.table, idx: Arc::clone(&self.idx) }
    }
}

impl<'t> IndexRef<'t> {
    pub(crate) fn new(table: &'t Table, idx: Arc<Index>) -> Self {
        IndexRef { table, idx }
    }

    /// The index declaration.
    pub fn spec(&self) -> &IndexSpec {
        &self.idx.spec
    }

    /// The index name.
    pub fn name(&self) -> &str {
        &self.idx.spec.name
    }

    /// The underlying B+Tree (stats, fill factors).
    pub fn tree(&self) -> &BTree {
        &self.idx.tree
    }

    /// The table this handle belongs to.
    pub fn table(&self) -> &'t Table {
        self.table
    }

    /// Full-tuple point lookup (index → heap, with key re-verification).
    /// Thin wrapper over a one-key [`IndexRef::get_many`].
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.get_many(&[key])?.pop().flatten())
    }

    /// Projection over the cached fields (§2.1's hot path): answered
    /// from leaf free space when the cache holds the entry, otherwise
    /// heap fetch + populate. Thin wrapper over a one-key
    /// [`IndexRef::project_many`].
    pub fn project(&self, key: &[u8]) -> Result<Option<Projection>> {
        Ok(self.project_many(&[key])?.pop().flatten())
    }

    /// Updates the tuple whose key is `key` to `tuple`, maintaining
    /// every index of the table (§2.1.2 consistency duties: indexes
    /// whose cached fields changed get an invalidation predicate,
    /// indexes whose key bytes changed get a delete+insert). Thin
    /// wrapper over a one-pair [`IndexRef::update_many`].
    pub fn update(&self, key: &[u8], tuple: &[u8]) -> Result<bool> {
        Ok(self.update_many(&[(key, tuple)])?.pop().unwrap_or(false))
    }

    /// Deletes the tuple whose key is `key` from the table and all its
    /// indexes. Thin wrapper over a one-key [`IndexRef::delete_many`].
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        Ok(self.delete_many(&[key])?.pop().unwrap_or(false))
    }

    /// Batched full-tuple lookup; results are indexed like `keys`.
    ///
    /// Keys are sorted and grouped so the whole batch takes one
    /// tree-structure-lock acquisition and one page visit per distinct
    /// leaf, and the heap chases behind the index hits are grouped per
    /// page and per buffer-pool shard
    /// ([`nbb_storage::BufferPool::with_page_batch`]) — N lookups over
    /// a hot key set cost far fewer lock acquisitions than N
    /// [`IndexRef::get`] calls.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<Option<Vec<u8>>>> {
        self.table.get_many_with(&self.idx, keys)
    }

    /// Batched projection; results are indexed like `keys`.
    ///
    /// Same grouping as [`IndexRef::get_many`], plus per-leaf cache
    /// amortization: one invalidation-verdict check and one promotion
    /// latch acquisition per leaf rather than per key. Cache misses
    /// fetch the heap in one batched read and populate the cache.
    pub fn project_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<Option<Projection>>> {
        self.table.project_many_with(&self.idx, keys)
    }

    /// Upserts a tuple by this index's key: updates the existing row in
    /// place when the key is present, inserts a fresh row otherwise.
    /// Returns the tuple's landing address. Thin wrapper over a
    /// one-tuple [`IndexRef::put_many`].
    pub fn put(&self, tuple: &[u8]) -> Result<RecordId> {
        let mut rids = self.put_many(std::slice::from_ref(&tuple))?;
        // nbb-lint: allow(unwrap, put_many returns one rid per input tuple)
        Ok(rids.pop().expect("one tuple in, one rid out"))
    }

    /// Batched upsert by this index's key; landing addresses are
    /// indexed like `tuples`.
    ///
    /// The batch validates up front (tuple widths, and duplicate keys
    /// are rejected whole with
    /// [`nbb_storage::error::StorageError::DuplicateKeyInBatch`]), then
    /// resolves every key in one batched tree pass, updates present
    /// rows in place, and appends the rest through the leaf-grouped
    /// insert path — every index pays one descent and one per-leaf
    /// latch per destination leaf, not per tuple.
    pub fn put_many<T: AsRef<[u8]>>(&self, tuples: &[T]) -> Result<Vec<RecordId>> {
        self.table.put_many_with(&self.idx, tuples)
    }

    /// Batched key-based update; results (whether each key existed) are
    /// indexed like `pairs`. See [`IndexRef::update`] for the per-pair
    /// semantics and [`IndexRef::put_many`] for the batching/validation
    /// contract; key rotations within one batch (a→b, b→c) resolve
    /// deterministically because each index applies its deletes before
    /// its inserts.
    pub fn update_many<K: AsRef<[u8]>, T: AsRef<[u8]>>(
        &self,
        pairs: &[(K, T)],
    ) -> Result<Vec<bool>> {
        self.table.update_many_with(&self.idx, pairs)
    }

    /// Batched key-based delete; results (whether each key existed) are
    /// indexed like `keys`. One batched tree pass resolves the
    /// pointers, one batched heap read fetches the doomed rows, and
    /// every index drops its entries through the leaf-grouped
    /// `delete_many`. Write intents serialize racing same-key deleters:
    /// exactly one wins (`true`), the rest observe its completed delete
    /// (`false`). Duplicate keys are idempotent (first one wins).
    pub fn delete_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<bool>> {
        self.table.delete_many_with(&self.idx, keys)
    }

    /// Ordered full-tuple cursor over `range` (key order ascending).
    /// Bounds are key byte strings: `&lo[..]..&hi[..]`, `lo..=hi` over
    /// `Vec<u8>`, etc.
    ///
    /// Each row is re-verified against its index key when its refill
    /// reads it, so rows deleted by a racing writer are skipped, exactly
    /// like point lookups; a row already buffered is yielded as it was
    /// read. Refills re-descend by key: leaves may split mid-iteration
    /// without disturbing the cursor. A caller that wants a bounded
    /// number of rows should say so with [`RangeCursor::limit`].
    pub fn range<K: AsRef<[u8]> + ?Sized, R: RangeBounds<K>>(&self, range: R) -> RangeCursor<'t> {
        RangeCursor { inner: RangeState::new(self.table, Arc::clone(&self.idx), range, false) }
    }

    /// Full-table ordered cursor: [`IndexRef::range`] over all keys.
    pub fn range_all(&self) -> RangeCursor<'t> {
        self.range::<[u8], _>(..)
    }

    /// Ordered projection cursor over `range`: yields the cached fields
    /// of every row in the range, served from leaf free space when the
    /// §2.1 cache holds them (no heap touch), with heap chases — which
    /// also populate the cache — only for the cold entries.
    pub fn range_projected<K: AsRef<[u8]> + ?Sized, R: RangeBounds<K>>(
        &self,
        range: R,
    ) -> ProjectedRangeCursor<'t> {
        ProjectedRangeCursor {
            inner: RangeState::new(self.table, Arc::clone(&self.idx), range, true),
        }
    }

    /// Full-table ordered projection cursor:
    /// [`IndexRef::range_projected`] over all keys.
    pub fn range_projected_all(&self) -> ProjectedRangeCursor<'t> {
        self.range_projected::<[u8], _>(..)
    }
}

/// Converts a borrowed bound into an owned one.
fn owned_bound<K: AsRef<[u8]> + ?Sized>(b: Bound<&K>) -> Bound<Vec<u8>> {
    match b {
        Bound::Included(k) => Bound::Included(k.as_ref().to_vec()),
        Bound::Excluded(k) => Bound::Excluded(k.as_ref().to_vec()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn borrow_bound(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    match b {
        Bound::Included(k) => Bound::Included(&k[..]),
        Bound::Excluded(k) => Bound::Excluded(&k[..]),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Most rows one refill buffers, whatever the caller asked for. A
/// `limit` is request data (the wire carries a `u32`), so this is what
/// keeps `limit = u32::MAX` from buffering a table or queueing an
/// unbounded batch of page faults; a longer scan simply refills again.
const REFILL_ROWS_MAX: usize = 1024;

/// One buffered row, resolved and ready to yield: `body` is the tuple
/// for [`RangeCursor`] and the cached-field payload for
/// [`ProjectedRangeCursor`].
struct Resolved {
    key: Vec<u8>,
    rid: RecordId,
    body: Vec<u8>,
    index_only: bool,
}

/// Shared cursor state: the resolved rows of the last refill plus the
/// resume bound.
struct RangeState<'t> {
    table: &'t Table,
    idx: Arc<Index>,
    lower: Bound<Vec<u8>>,
    upper: Bound<Vec<u8>>,
    /// Projection cursor: cached payloads answer without a heap chase,
    /// chased rows populate the cache of the leaf they came from.
    projected: bool,
    /// Rows a `.limit(n)` cursor still owes; `None` = unlimited.
    limit: Option<usize>,
    /// Row budget of an unlimited cursor's next refill: 0 reads one
    /// leaf, and every refill doubles what the last one buffered.
    grow: usize,
    buf: VecDeque<Resolved>,
    exhausted: bool,
    failed: bool,
}

impl<'t> RangeState<'t> {
    fn new<K: AsRef<[u8]> + ?Sized, R: RangeBounds<K>>(
        table: &'t Table,
        idx: Arc<Index>,
        range: R,
        projected: bool,
    ) -> Self {
        RangeState {
            table,
            idx,
            lower: owned_bound(range.start_bound()),
            upper: owned_bound(range.end_bound()),
            projected,
            limit: None,
            grow: 0,
            buf: VecDeque::new(),
            exhausted: false,
            failed: false,
        }
    }

    /// Buffers the next rows of the range, up to a **row budget**: what
    /// is left of the limit, or the unlimited cursor's doubling budget,
    /// clamped by [`REFILL_ROWS_MAX`]. Costs at most one multi-leaf
    /// index fault per level-1 parent and one batched heap read.
    ///
    /// Index phase: read a leaf; while the budget is not met, ask the
    /// tree for the leaves that follow, fault them in one
    /// `fault_many`, and walk them. Each leaf is still read by
    /// [`BTree::range_chunk`] re-descending from the last buffered key
    /// (never by a remembered page id), which is what keeps the cursor
    /// split-safe; after the batch fault those descents are pool hits.
    /// Heap phase, with no tree lock held: every buffered entry that
    /// needs its tuple is chased through one
    /// [`Table::fetch_verified_many`]. Rows a racing delete removed in
    /// between are dropped; the caller refills if that left it short.
    fn refill(&mut self) -> Result<()> {
        let tree = &self.idx.tree;
        let want = self.limit.unwrap_or(self.grow).min(REFILL_ROWS_MAX);
        let mut entries: Vec<(RangeEntry, PageId, InvToken)> = Vec::new();
        let mut faulted_ahead = 0usize;
        loop {
            let mut chunk =
                tree.range_chunk(borrow_bound(&self.lower), borrow_bound(&self.upper))?;
            self.exhausted = chunk.exhausted;
            // A limited cursor stops at its limit inside the leaf: the
            // entries past it would cost heap pages nobody asked for.
            if self.limit.is_some() && entries.len() + chunk.entries.len() > want {
                chunk.entries.truncate(want - entries.len());
                self.exhausted = false;
            }
            let Some(last) = chunk.entries.last() else { break };
            self.lower = Bound::Excluded(last.key.clone());
            entries.extend(chunk.entries.into_iter().map(|e| (e, chunk.leaf, chunk.token)));
            if self.exhausted || entries.len() >= want {
                break;
            }
            faulted_ahead = faulted_ahead.saturating_sub(1);
            // Once the leaves faulted ahead are walked, fault ahead
            // again: only the leaves this refill is sure to consume
            // whole, sized from the leaf's *total* key count. Its
            // in-range count would be wrong exactly where it matters: a
            // scan enters its first leaf part-way, and dividing by that
            // fraction over-reads several leaves.
            let sure = (want - entries.len()) / chunk.leaf_keys.max(1);
            if faulted_ahead == 0 && sure > 0 {
                let (last, ..) = &entries[entries.len() - 1];
                let ahead = tree.leaves_after(&last.key, borrow_bound(&self.upper), sure)?;
                tree.pool().fault_many(&ahead)?;
                faulted_ahead = ahead.len();
            }
        }
        self.grow = 2 * entries.len().max(1);

        let keys: Vec<&[u8]> = entries.iter().map(|(e, ..)| e.key.as_slice()).collect();
        let chased = |e: &RangeEntry| !self.projected || e.payload.is_none();
        let ptrs = entries.iter().map(|(e, ..)| chased(e).then_some(e.value));
        let tuples = self.table.fetch_verified_many(&self.idx, &keys, ptrs)?;
        for ((e, leaf, token), tuple) in entries.into_iter().zip(tuples) {
            let (body, index_only) = match (tuple, e.payload) {
                (Some(tuple), _) if !self.projected => (tuple, false),
                (Some(tuple), _) => {
                    let payload = self.idx.extract_payload(&tuple);
                    tree.cache_populate(leaf, e.value, &payload, token)?;
                    (payload, false)
                }
                (None, Some(payload)) if self.projected => (payload, true),
                // Deleted between the leaf read and the heap read.
                (None, _) => continue,
            };
            let rid = RecordId::from_u64(e.value);
            self.buf.push_back(Resolved { key: e.key, rid, body, index_only });
        }
        Ok(())
    }

    /// Next resolved row within the range and the limit, refilling as
    /// needed.
    fn next_row(&mut self) -> Option<Result<Resolved>> {
        loop {
            if self.failed || self.limit == Some(0) {
                return None;
            }
            if let Some(row) = self.buf.pop_front() {
                if let Some(left) = &mut self.limit {
                    *left -= 1;
                }
                return Some(Ok(row));
            }
            if self.exhausted {
                return None;
            }
            if let Err(e) = self.refill() {
                self.failed = true;
                return Some(Err(e));
            }
        }
    }
}

/// One row yielded by [`IndexRef::range`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeRow {
    /// The index key.
    pub key: Vec<u8>,
    /// The tuple's heap address.
    pub rid: RecordId,
    /// The full tuple bytes.
    pub tuple: Vec<u8>,
}

/// Ordered full-tuple cursor; see [`IndexRef::range`].
pub struct RangeCursor<'t> {
    inner: RangeState<'t>,
}

impl RangeCursor<'_> {
    /// Yields at most `rows` rows. Say so before iterating: the cursor
    /// then buffers and reads exactly the leaves and heap pages those
    /// rows live on, in batches sized by what is left of the limit,
    /// instead of growing its batches leaf by leaf.
    pub fn limit(mut self, rows: usize) -> Self {
        self.inner.limit = Some(rows);
        self
    }
}

impl Iterator for RangeCursor<'_> {
    type Item = Result<RangeRow>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.inner.next_row()?.map(|r| RangeRow { key: r.key, rid: r.rid, tuple: r.body }))
    }
}

/// One row yielded by [`IndexRef::range_projected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectedRow {
    /// The index key.
    pub key: Vec<u8>,
    /// The tuple's heap address.
    pub rid: RecordId,
    /// The cached-field projection; `index_only` is true when it was
    /// served from leaf free space without touching the heap.
    pub projection: Projection,
}

/// Ordered projection cursor; see [`IndexRef::range_projected`].
pub struct ProjectedRangeCursor<'t> {
    inner: RangeState<'t>,
}

impl ProjectedRangeCursor<'_> {
    /// Yields at most `rows` rows; see [`RangeCursor::limit`].
    pub fn limit(mut self, rows: usize) -> Self {
        self.inner.limit = Some(rows);
        self
    }
}

impl Iterator for ProjectedRangeCursor<'_> {
    type Item = Result<ProjectedRow>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.inner.next_row()?.map(|r| {
            if r.index_only {
                self.inner.table.note_index_only_answer();
            }
            let projection = Projection { payload: r.body, index_only: r.index_only };
            ProjectedRow { key: r.key, rid: r.rid, projection }
        }))
    }
}

/// One operation of a [`Batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum BatchOp {
    /// Full-tuple lookup through the named index.
    Get { index: String, key: Vec<u8> },
    /// Cached-field projection through the named index.
    Project { index: String, key: Vec<u8> },
    /// Upsert of a tuple by the named index's key.
    Put { index: String, tuple: Vec<u8> },
    /// Key-based in-place update through the named index.
    Update { index: String, key: Vec<u8>, tuple: Vec<u8> },
    /// Key-based delete through the named index.
    Delete { index: String, key: Vec<u8> },
}

/// A heterogeneous batch of point operations — reads **and** writes —
/// executed by [`Table::execute`] with per-index grouping so each
/// group rides the batched paths ([`IndexRef::get_many`] /
/// [`IndexRef::project_many`] on the read side, [`IndexRef::put_many`]
/// / [`IndexRef::update_many`] / [`IndexRef::delete_many`] on the
/// write side).
///
/// # Mixed read/write semantics
///
/// A batch is **not** a transaction and does not replay its ops in
/// queue order. Instead the ops are grouped by kind and applied in a
/// fixed, documented order: all `put`s, then all `update`s, then all
/// `delete`s, then all reads. Consequences:
///
/// * reads in a batch observe **all** of the same batch's writes (a
///   `get` of a key the batch `put` returns the new tuple; a `get` of
///   a key the batch `delete`d returns `None`);
/// * `put` is an **upsert** through its named index, exactly like
///   [`IndexRef::put`]: present keys update their row in place,
///   absent keys insert fresh rows;
/// * within one kind, grouping per index preserves no cross-index
///   ordering — don't encode cross-op dependencies beyond the
///   kind-order above;
/// * index names and tuple widths are validated up front, before any
///   page is touched; duplicate keys within one write group surface
///   [`nbb_storage::error::StorageError::DuplicateKeyInBatch`] before
///   *that group* mutates anything — but a group that fails after
///   earlier groups ran leaves those earlier groups applied (e.g. a
///   duplicate in the update group does not roll back the puts),
///   exactly like the equivalent loop of single-key calls.
///
/// ```ignore
/// let results = table.execute(
///     Batch::new()
///         .put("by_id", &new_row)
///         .update("by_id", &7u64.to_be_bytes(), &changed_row)
///         .delete("by_id", &9u64.to_be_bytes())
///         .get("by_id", &7u64.to_be_bytes()),   // sees the update
/// )?;
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    ops: Vec<BatchOp>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Appends a full-tuple lookup of `key` through `index`.
    pub fn get(mut self, index: &str, key: &[u8]) -> Self {
        self.ops.push(BatchOp::Get { index: index.to_string(), key: key.to_vec() });
        self
    }

    /// Appends a cached-field projection of `key` through `index`.
    pub fn project(mut self, index: &str, key: &[u8]) -> Self {
        self.ops.push(BatchOp::Project { index: index.to_string(), key: key.to_vec() });
        self
    }

    /// Appends an upsert of `tuple` through `index` (present keys
    /// update in place, absent keys insert; every index maintained).
    pub fn put(mut self, index: &str, tuple: &[u8]) -> Self {
        self.ops.push(BatchOp::Put { index: index.to_string(), tuple: tuple.to_vec() });
        self
    }

    /// Appends an in-place update of the row whose `index` key is
    /// `key` to `tuple`.
    pub fn update(mut self, index: &str, key: &[u8], tuple: &[u8]) -> Self {
        self.ops.push(BatchOp::Update {
            index: index.to_string(),
            key: key.to_vec(),
            tuple: tuple.to_vec(),
        });
        self
    }

    /// Appends a delete of the row whose `index` key is `key`.
    pub fn delete(mut self, index: &str, key: &[u8]) -> Self {
        self.ops.push(BatchOp::Delete { index: index.to_string(), key: key.to_vec() });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One result of [`Table::execute`], in batch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutput {
    /// Result of a [`Batch::get`] op.
    Tuple(Option<Vec<u8>>),
    /// Result of a [`Batch::project`] op.
    Projection(Option<Projection>),
    /// Result of a [`Batch::put`] op: where the tuple landed.
    Put(RecordId),
    /// Result of a [`Batch::update`] op: whether the key existed.
    Updated(bool),
    /// Result of a [`Batch::delete`] op: whether the key existed.
    Deleted(bool),
}

impl BatchOutput {
    /// The tuple of a `get` op; `None` for other op kinds.
    pub fn tuple(&self) -> Option<&[u8]> {
        match self {
            BatchOutput::Tuple(Some(t)) => Some(t),
            _ => None,
        }
    }

    /// The projection of a `project` op; `None` for other op kinds.
    pub fn projection(&self) -> Option<&Projection> {
        match self {
            BatchOutput::Projection(Some(p)) => Some(p),
            _ => None,
        }
    }

    /// The landing address of a `put` op; `None` for other op kinds.
    pub fn rid(&self) -> Option<RecordId> {
        match self {
            BatchOutput::Put(rid) => Some(*rid),
            _ => None,
        }
    }

    /// Whether an `update`/`delete` op found its key; `None` for other
    /// op kinds.
    pub fn applied(&self) -> Option<bool> {
        match self {
            BatchOutput::Updated(b) | BatchOutput::Deleted(b) => Some(*b),
            _ => None,
        }
    }
}

impl Table {
    /// Executes a [`Batch`]: operations are grouped per `(index, kind)`
    /// — resolving each index name exactly once — and each group runs
    /// through the batched sorted-key paths, so a batch of N point ops
    /// costs one structure-lock acquisition and one leaf visit per
    /// distinct leaf per group instead of N full descents. Write groups
    /// apply before read groups in the documented put → update →
    /// delete → read order (see [`Batch`]); everything is validated —
    /// index names, tuple widths — before any group touches a page.
    /// Results come back in the batch's op order.
    pub fn execute(&self, batch: Batch) -> Result<Vec<BatchOutput>> {
        // ---- Validate up front ------------------------------------
        let mut handles: HashMap<&str, Arc<Index>> = HashMap::new();
        for op in &batch.ops {
            let (index, tuple) = match op {
                BatchOp::Get { index, .. }
                | BatchOp::Project { index, .. }
                | BatchOp::Delete { index, .. } => (index, None),
                BatchOp::Put { index, tuple } | BatchOp::Update { index, tuple, .. } => {
                    (index, Some(tuple))
                }
            };
            if !handles.contains_key(index.as_str()) {
                handles.insert(index, self.find_index(index)?);
            }
            if let Some(tuple) = tuple {
                self.check_tuple(tuple)?;
            }
        }
        let mut out: Vec<Option<BatchOutput>> = batch.ops.iter().map(|_| None).collect();

        // ---- Writes: puts, then updates, then deletes -------------
        let mut put_groups: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut update_groups: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut delete_groups: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, op) in batch.ops.iter().enumerate() {
            match op {
                BatchOp::Put { index, .. } => put_groups.entry(index).or_default().push(i),
                BatchOp::Update { index, .. } => update_groups.entry(index).or_default().push(i),
                BatchOp::Delete { index, .. } => delete_groups.entry(index).or_default().push(i),
                _ => {}
            }
        }
        for (index, positions) in put_groups {
            let idx = &handles[index];
            let tuples: Vec<&[u8]> = positions
                .iter()
                .map(|&i| match &batch.ops[i] {
                    BatchOp::Put { tuple, .. } => tuple.as_slice(),
                    _ => unreachable!("grouped as put"),
                })
                .collect();
            for (&i, rid) in positions.iter().zip(self.put_many_with(idx, &tuples)?) {
                out[i] = Some(BatchOutput::Put(rid));
            }
        }
        for (index, positions) in update_groups {
            let idx = &handles[index];
            let pairs: Vec<(&[u8], &[u8])> = positions
                .iter()
                .map(|&i| match &batch.ops[i] {
                    BatchOp::Update { key, tuple, .. } => (key.as_slice(), tuple.as_slice()),
                    _ => unreachable!("grouped as update"),
                })
                .collect();
            for (&i, applied) in positions.iter().zip(self.update_many_with(idx, &pairs)?) {
                out[i] = Some(BatchOutput::Updated(applied));
            }
        }
        for (index, positions) in delete_groups {
            let idx = &handles[index];
            let keys: Vec<&[u8]> = positions
                .iter()
                .map(|&i| match &batch.ops[i] {
                    BatchOp::Delete { key, .. } => key.as_slice(),
                    _ => unreachable!("grouped as delete"),
                })
                .collect();
            for (&i, applied) in positions.iter().zip(self.delete_many_with(idx, &keys)?) {
                out[i] = Some(BatchOutput::Deleted(applied));
            }
        }

        // ---- Reads: they observe this batch's writes --------------
        let mut read_groups: HashMap<(&str, bool), Vec<usize>> = HashMap::new();
        for (i, op) in batch.ops.iter().enumerate() {
            match op {
                BatchOp::Get { index, .. } => {
                    read_groups.entry((index, false)).or_default().push(i)
                }
                BatchOp::Project { index, .. } => {
                    read_groups.entry((index, true)).or_default().push(i)
                }
                _ => {}
            }
        }
        for ((index, is_projection), positions) in read_groups {
            let idx = &handles[index];
            let keys: Vec<&[u8]> = positions
                .iter()
                .map(|&i| match &batch.ops[i] {
                    BatchOp::Get { key, .. } | BatchOp::Project { key, .. } => key.as_slice(),
                    _ => unreachable!("grouped as read"),
                })
                .collect();
            if is_projection {
                for (&i, p) in positions.iter().zip(self.project_many_with(idx, &keys)?) {
                    out[i] = Some(BatchOutput::Projection(p));
                }
            } else {
                for (&i, t) in positions.iter().zip(self.get_many_with(idx, &keys)?) {
                    out[i] = Some(BatchOutput::Tuple(t));
                }
            }
        }
        out.into_iter()
            .map(|r| r.ok_or_else(|| StorageError::Corrupt("batch op not executed".into())))
            .collect()
    }
}

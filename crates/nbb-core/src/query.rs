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
//! * [`IndexRef::range`] / [`IndexRef::range_projected`] — ordered
//!   cursors over the B+Tree's leaves. The projected cursor serves
//!   cached fields straight from leaf free space (§2.1) and falls back
//!   to heap chases with the usual key re-verification; refills
//!   re-descend by key, so cursors survive leaf splits mid-iteration.
//!   Cursors refill by **row budget** — what is left of
//!   [`RangeCursor::limit`], or a budget that doubles per refill when
//!   the caller set none — and a refill is a **group refill**: every
//!   cursor in the group (a lone cursor is the group of one) names the
//!   leaves it is sure to read, the union rides one batched fault, and
//!   every row's heap page one batched read, so N queued pages cost
//!   the device round trips of one and read exactly the pages they
//!   would read alone. Rows are not objects: a refill buffers keys and
//!   bodies in flat **arenas**, written once (leaf → arena, pinned heap
//!   page → arena); [`IndexRef::range_pages`] lends them out as slices
//!   and only the iterators' owned `RangeRow`s copy them.

use crate::table::{Index, IndexSpec, Projection, Table};
use nbb_btree::{node_capacity, BTree, InvToken, RangeBuf};
use nbb_storage::error::Result;
use nbb_storage::rid::RecordId;
use nbb_storage::PageId;
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

    /// Full-tuple point lookup: from the leaf cache when it holds the
    /// row, otherwise index → heap with key re-verification. Thin
    /// wrapper over a one-key [`IndexRef::get_many`].
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
    /// whose cached bytes changed get them written through to the
    /// leaf cache, indexes whose key bytes changed get a
    /// delete+insert). Thin
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
    ///
    /// When the index's leaf-cache entries are whole rows (a cached
    /// index over tuples narrow enough, see [`IndexSpec::cached_fields`])
    /// a key the cache holds is answered from its leaf without touching
    /// the heap: the entry's non-key bytes with the key put back at its
    /// offset, counted in `index_only_answers`. Misses are chased in one
    /// batched heap read and warm the cache of their leaf. Any other
    /// index goes to the heap for every key.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<Option<Vec<u8>>>> {
        self.table.get_many_with(&self.idx, keys)
    }

    /// Batched projection — each key's `cached_fields`, concatenated;
    /// results are indexed like `keys`.
    ///
    /// The same batched read as [`IndexRef::get_many`], answering with
    /// the fields sliced out of the leaf-cache entry (whole-row or
    /// projection) on a hit, with per-leaf cache amortization: one
    /// cache-trust check per leaf rather than per key, and no latch but
    /// the leaf's shared pin. Cache misses fetch the heap in one batched
    /// read, and those the leaf admits populate it, one latch per leaf.
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

    /// One page per `(lower, upper, limit)` spec, all filled by the same
    /// group refills: the specs' leaf faults and heap reads are merged,
    /// so N queued pages cost about the device round trips of one while
    /// reading exactly the union of the pages each reads alone. A page
    /// holds the rows [`IndexRef::range`] yields under that limit, lent
    /// out as slices (nothing is allocated per row), and knows whether
    /// a row lies beyond it.
    pub fn range_pages(&self, specs: &[PageSpec<'_>]) -> Result<Vec<RangePage<'t>>> {
        self.pages(specs, false)
    }

    /// [`IndexRef::range_pages`] for [`IndexRef::range_projected`]: the
    /// bodies are cached-field payloads ([`RangePage::index_only`]).
    pub fn range_projected_pages(&self, specs: &[PageSpec<'_>]) -> Result<Vec<RangePage<'t>>> {
        self.pages(specs, true)
    }

    fn pages(&self, specs: &[PageSpec<'_>], projected: bool) -> Result<Vec<RangePage<'t>>> {
        let state = |&(lo, hi, limit): &PageSpec<'_>| {
            let idx = Arc::clone(&self.idx);
            let mut state = RangeState::new::<[u8], _>(self.table, idx, (lo, hi), projected);
            // One row past the page makes `more` authoritative, and
            // sizes the refills for the page and the probe together.
            state.limit = Some(limit.saturating_add(1));
            state
        };
        let mut group: Vec<RangeState<'t>> = specs.iter().map(state).collect();
        let short = |c: &RangeState<'_>| c.limit.is_some_and(|l| l > c.rows.values.len());
        while group.iter().any(|c| !c.exhausted && short(c)) {
            refill(&mut group)?;
        }
        let page = |(state, &(.., limit)): (RangeState<'t>, &PageSpec<'_>)| {
            let len = state.rows.values.len().min(limit);
            let served = state.rows.cached.iter().take(len).filter(|c| **c).count();
            self.table.note_index_only_answers(served as u64);
            RangePage { state, len }
        };
        Ok(group.into_iter().zip(specs).map(page).collect())
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
/// keeps `limit = u32::MAX` from queueing an unbounded batch of page
/// faults; a longer scan simply refills again.
const REFILL_ROWS_MAX: usize = 1024;

/// Shared cursor state: the rows buffered so far as flat arenas — no
/// per-row object — the resume bound, and the cursor's share of the
/// refill in progress.
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
    /// The buffered rows, every one resolved: keys and pointers at a
    /// fixed stride, and for a projection cursor each row's leaf-cache
    /// entry too (`payloads`, with `cached` = answered index-only).
    rows: RangeBuf,
    /// The bodies, one per buffered row: `tuple_width` bytes of a full
    /// tuple, or a projection cursor's cached fields (sliced out of
    /// `rows.payloads`, which holds each row's leaf-cache entry).
    bodies: Vec<u8>,
    /// Buffered rows already yielded.
    next: usize,
    exhausted: bool,
    failed: bool,
    /// This refill: the first row it buffers and its row budget.
    start: usize,
    want: usize,
    /// `(end row, leaf, token)` of every chunk it walked, so chased
    /// rows populate the cache of their own leaf.
    chunks: Vec<(usize, PageId, InvToken)>,
    /// Leaves named this round and not yet walked, and the total keys
    /// of the last leaf walked — the divisor that sizes the next round
    /// (see [`refill`]).
    ahead: usize,
    leaf_keys: usize,
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
            rows: RangeBuf::default(),
            bodies: Vec::new(),
            next: 0,
            exhausted: false,
            failed: false,
            start: 0,
            want: 0,
            chunks: Vec::new(),
            ahead: 0,
            leaf_keys: 0,
        }
    }

    /// Bytes per buffered body: the tuple, or the cached-field payload.
    fn body_width(&self) -> usize {
        if self.projected {
            self.idx.spec.payload_size()
        } else {
            self.table.tuple_width()
        }
    }

    /// Key and body of buffered row `i`, borrowed from the arenas.
    fn row(&self, i: usize) -> (&[u8], &[u8]) {
        let (kw, bw) = (self.idx.tree.key_size(), self.body_width());
        (&self.rows.keys[i * kw..][..kw], &self.bodies[i * bw..][..bw])
    }

    /// Starts a refill: sets its **row budget** — what is left of the
    /// limit, or the unlimited cursor's doubling budget, clamped by
    /// [`REFILL_ROWS_MAX`] — reusing the arenas once they are drained.
    fn begin(&mut self) {
        if self.next == self.rows.values.len() {
            self.rows.clear();
            self.bodies.clear();
            self.next = 0;
        }
        self.start = self.rows.values.len();
        let owed =
            self.limit.map_or(self.grow.max(1), |l| l.saturating_sub(self.start - self.next));
        self.want = owed.min(REFILL_ROWS_MAX);
        self.chunks.clear();
    }

    /// Rows this refill has yet to read from the index.
    fn owes(&self) -> usize {
        let read = self.rows.values.len() - self.start;
        if self.exhausted {
            0
        } else {
            self.want.saturating_sub(read)
        }
    }

    /// Walks the leaves the last round named for this cursor (one leaf
    /// when it named none). Each leaf is read by [`BTree::range_chunk`]
    /// re-descending from the last buffered key (never by a remembered
    /// page id), which is what keeps the cursor split-safe; after the
    /// round's batch fault those descents are pool hits.
    fn walk(&mut self) -> Result<()> {
        let tree = &self.idx.tree;
        loop {
            // A limited cursor stops at its limit inside the leaf: the
            // entries past it would cost heap pages nobody asked for.
            let max = if self.limit.is_some() { self.owes() } else { usize::MAX };
            let (lower, upper) = (borrow_bound(&self.lower), borrow_bound(&self.upper));
            let chunk = tree.range_chunk(lower, upper, max, self.projected, &mut self.rows)?;
            (self.exhausted, self.leaf_keys) = (chunk.exhausted, chunk.leaf_keys);
            if chunk.len > 0 {
                let last = &self.rows.keys[self.rows.keys.len() - tree.key_size()..];
                self.lower = Bound::Excluded(last.to_vec());
                self.chunks.push((self.rows.values.len(), chunk.leaf, chunk.token));
            }
            self.ahead = self.ahead.saturating_sub(1);
            if self.owes() == 0 || self.ahead == 0 {
                return Ok(());
            }
        }
    }

    /// Removes the buffered rows at `dead` (ascending): the ones a
    /// racing delete took between the leaf read and the heap read.
    fn drop_rows(&mut self, dead: &[usize]) {
        fn retain<T>(arena: &mut Vec<T>, width: usize, dead: &[usize]) {
            let mut at = 0;
            arena.retain(|_| {
                at += 1;
                dead.binary_search(&((at - 1) / width)).is_err()
            });
        }
        let (kw, bw, ew) = (self.idx.tree.key_size(), self.body_width(), self.idx.entry_size());
        retain(&mut self.rows.keys, kw, dead);
        retain(&mut self.rows.values, 1, dead);
        retain(&mut self.rows.cached, 1, dead);
        // Empty for a full-tuple cursor.
        retain(&mut self.rows.payloads, ew, dead);
        retain(&mut self.bodies, bw, dead);
    }

    /// Next row to yield — its position in the arenas — within the
    /// range and the limit, refilling as needed.
    fn next_row(&mut self) -> Option<Result<usize>> {
        loop {
            if self.failed || self.limit == Some(0) {
                return None;
            }
            if self.next < self.rows.values.len() {
                if let Some(left) = &mut self.limit {
                    *left -= 1;
                }
                self.next += 1;
                return Some(Ok(self.next - 1));
            }
            if self.exhausted {
                return None;
            }
            if let Err(e) = refill(std::slice::from_mut(self)) {
                self.failed = true;
                return Some(Err(e));
            }
        }
    }
}

/// Buffers the next rows of every unfinished cursor in `group` — all
/// cursors of one kind over one index; a lone cursor is the group of
/// one — each up to its own row budget, sharing the device round trips
/// over exactly the union of the pages each would read alone.
///
/// Index phase, round by round: every cursor still owing rows names
/// the leaves it reads next without reading them — first
/// [`BTree::leaf_for`] its lower bound, then the
/// [`BTree::leaves_after`] that finish its budget, `ceil(owes / d)` of
/// them. The divisor `d` is the last leaf's *total* key count (a scan
/// enters its first leaf part-way; dividing by that in-range fraction
/// would over-read several leaves), floored at half a node: a split or
/// a bulk load leaves no leaf sparser, and a leaf that deletes thinned
/// (leaves never merge) must not size a run of a whole parent's
/// leaves. When the leaves ahead are as full as the last one, that
/// names exactly the leaves the rows live on, so a fresh page costs its
/// first leaf, the rest in one batch, then the heap; a sparser leaf or
/// the end of a level-1 parent's children adds a round. The union
/// rides ONE `fault_many`, and each cursor walks its leaves by key.
/// Heap phase: every row that needs its tuple is chased through ONE
/// [`Table::fetch_verified`], which writes the bodies straight into
/// the arenas (and the new address of a row a swap moved). No tree
/// lock is held across either read. Rows a racing delete removed in
/// between are dropped; the caller refills if that left it short.
fn refill(group: &mut [RangeState<'_>]) -> Result<()> {
    let Some(first) = group.first() else { return Ok(()) };
    let (table, idx, projected) = (first.table, Arc::clone(&first.idx), first.projected);
    let (tree, kw, bw) = (&idx.tree, idx.tree.key_size(), first.body_width());
    let half_node = node_capacity(tree.pool().disk().page_size(), kw) / 2;
    group.iter_mut().for_each(RangeState::begin);
    while group.iter().any(|c| c.owes() > 0) {
        let mut leaves: Vec<PageId> = Vec::new();
        for c in group.iter_mut().filter(|c| c.owes() > 0) {
            let named = leaves.len();
            match &c.lower {
                Bound::Excluded(last) if !c.chunks.is_empty() => {
                    let rest = c.owes().div_ceil(c.leaf_keys.max(half_node));
                    leaves.extend(tree.leaves_after(last, borrow_bound(&c.upper), rest)?);
                }
                lower => leaves.push(tree.leaf_for(borrow_bound(lower))?),
            }
            c.ahead = leaves.len() - named;
        }
        leaves.sort_unstable();
        leaves.dedup();
        tree.pool().fault_many(&leaves)?;
        for c in group.iter_mut().filter(|c| c.owes() > 0) {
            c.walk()?;
        }
    }

    // Every cursor's rows that need their tuple, as (cursor, row). A
    // full-tuple cursor's bodies are the tuples; a projection cursor
    // chases into its rows' entry slots and slices bodies out below.
    let ew = idx.entry_size();
    let mut chased: Vec<(usize, usize)> = Vec::new();
    for (ci, c) in group.iter_mut().enumerate() {
        let n = c.rows.values.len();
        c.grow = 2 * (n - c.start).max(1);
        c.bodies.resize(n * bw, 0);
        chased.extend((c.start..n).filter(|&r| !(projected && c.rows.cached[r])).map(|r| (ci, r)));
    }
    let rid = |&(ci, r): &(usize, usize)| RecordId::from_u64(group[ci].rows.values[r]);
    let rids: Vec<RecordId> = chased.iter().map(rid).collect();
    let mut live = vec![false; chased.len()];
    let w = if projected { ew } else { bw };
    let (keys, mut slots): (Vec<&[u8]>, Vec<&mut Vec<u8>>) = group
        .iter_mut()
        .map(|c| (&c.rows.keys[..], if projected { &mut c.rows.payloads } else { &mut c.bodies }))
        .unzip();
    let key_of = |j: usize| &keys[chased[j].0][chased[j].1 * kw..][..kw];
    let mut moved: Vec<(usize, RecordId)> = Vec::new();
    table.fetch_verified(&idx, &rids, key_of, |j, at, tuple| {
        let slot = &mut slots[chased[j].0][chased[j].1 * w..][..w];
        if projected {
            idx.write_payload(tuple, slot);
        } else {
            slot.copy_from_slice(tuple);
        }
        live[j] = true;
        if at != rids[j] {
            moved.push((j, at));
        }
    })?;
    for (j, at) in moved {
        let (ci, r) = chased[j];
        group[ci].rows.values[r] = at.to_u64();
    }

    // Chased rows warm the cache of the leaf they came from, the whole
    // group in one batched populate; rows a racing delete took are
    // dropped.
    let (mut warm, mut dead) = (Vec::new(), Vec::new());
    let mut chased = chased.iter().zip(&live).peekable();
    for (ci, c) in group.iter().enumerate() {
        let mut chunks = c.chunks.iter().peekable();
        while let Some((&(_, r), &live)) = chased.next_if(|((of, _), _)| *of == ci) {
            while chunks.next_if(|(end, ..)| *end <= r).is_some() {}
            match chunks.peek() {
                _ if !live => dead.push((ci, r)),
                Some(&&(_, leaf, token)) if projected => {
                    let key = &c.rows.keys[r * kw..][..kw];
                    warm.push((leaf, token, key, &c.rows.payloads[r * ew..][..ew]));
                }
                _ => {}
            }
        }
    }
    tree.cache_populate_many(&warm)?;
    for (ci, c) in group.iter_mut().enumerate() {
        if projected {
            for r in c.start..c.rows.values.len() {
                let entry = &c.rows.payloads[r * ew..][..ew];
                idx.write_projection(entry, true, &mut c.bodies[r * bw..][..bw]);
            }
        }
        let mine: Vec<usize> = dead.iter().filter(|d| d.0 == ci).map(|d| d.1).collect();
        if !mine.is_empty() {
            c.drop_rows(&mine);
        }
    }
    Ok(())
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
        Some(self.inner.next_row()?.map(|i| {
            let (key, tuple) = self.inner.row(i);
            let rid = RecordId::from_u64(self.inner.rows.values[i]);
            RangeRow { key: key.to_vec(), rid, tuple: tuple.to_vec() }
        }))
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
        Some(self.inner.next_row()?.map(|i| {
            let (key, payload) = self.inner.row(i);
            let index_only = self.inner.rows.cached[i];
            self.inner.table.note_index_only_answers(u64::from(index_only));
            let projection = Projection { payload: payload.to_vec(), index_only };
            let rid = RecordId::from_u64(self.inner.rows.values[i]);
            ProjectedRow { key: key.to_vec(), rid, projection }
        }))
    }
}

/// One spec of [`IndexRef::range_pages`]: `(lower, upper, limit)`.
pub type PageSpec<'a> = (Bound<&'a [u8]>, Bound<&'a [u8]>, usize);

/// One page of [`IndexRef::range_pages`] /
/// [`IndexRef::range_projected_pages`]: up to `limit` rows in key
/// order, borrowed from the arena their refills filled.
pub struct RangePage<'t> {
    state: RangeState<'t>,
    len: usize,
}

impl RangePage<'_> {
    /// The page's rows as `(key, body)`: the body is the full tuple,
    /// or for a projected page the cached-field payload.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (&[u8], &[u8])> + DoubleEndedIterator + '_ {
        (0..self.len).map(|i| self.state.row(i))
    }

    /// Whether row `i` of a projected page was served from leaf free
    /// space without touching the heap.
    pub fn index_only(&self, i: usize) -> bool {
        self.state.rows.cached[i]
    }

    /// Whether rows remain in the range past this page.
    pub fn more(&self) -> bool {
        self.state.rows.values.len() > self.len
    }
}

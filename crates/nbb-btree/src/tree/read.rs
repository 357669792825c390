//! The B+Tree's read path, top to bottom: the public lookups, range
//! reads and leaf walks, then the four private pieces all of them are
//! callers of — the leaf-group reader, the one function that pins a
//! leaf for reading (with its §2.1 cache preamble), the one sibling
//! hop, and the one root-to-level descent (which the write path's
//! `locate_run` calls too). `impl BTree` continued from the parent
//! module, whose docs give the locking these functions run under:
//! every public entry point here takes the structure lock's read side
//! once and holds no other tree lock.

use super::{BTree, IndexStats, InvToken};
use crate::cache::{Admission, CacheView, Sketch};
use crate::node::Node;
use nbb_storage::error::{Result, StorageError};
use nbb_storage::page::PageId;
use std::ops::Bound;
use std::sync::atomic::Ordering;

/// Result of a cache-aware point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedLookup {
    /// The value stored for the key (tuple pointer), if the key exists.
    pub value: Option<u64>,
    /// The cached payload, present on a cache hit.
    pub payload: Option<Vec<u8>>,
    /// The leaf that owns the key — pass to [`BTree::cache_populate_many`].
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
    /// cache entry's payload from leaf free space where `cached[i]`,
    /// zeros (for the caller to fill) elsewhere.
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
    /// [`BTree::cache_populate_many`] together with `token` after a heap
    /// chase, so scans warm the cache like point lookups do.
    pub leaf: PageId,
    /// Consistency token: the leaf as it was read.
    pub token: InvToken,
    /// Keys the leaf holds in total, in range or not — the divisor for
    /// "how many more leaves does a row budget span" (`len` undercounts
    /// a leaf the scan entered part-way). This is the leaf's true count;
    /// a caller sizing a batch from it floors it at half a node, which
    /// only a leaf thinned by deletes falls below.
    pub leaf_keys: usize,
    /// True once the scan passed the upper bound or the leaf chain
    /// ended; no further chunk will yield entries. Never true for a
    /// chunk cut at `max`: the cut is only made in front of an in-range
    /// entry.
    pub exhausted: bool,
}

/// How a leaf read treats the leaf's §2.1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// Leaves the cache and its counters alone.
    Off,
    /// Reads a trusted cache, and counts and admits nothing: a writer
    /// resolving the rows it is about to change.
    Peek,
    /// Reads a trusted cache and feeds the counters; a point lookup also
    /// counts its key in the sketch and decides a miss's admission.
    Count,
}

/// One leaf under a shared pin, as [`BTree::read_leaf`] hands it to
/// its visitor.
struct LeafView<'a> {
    /// Consistency token: the page's stamp under this pin, admitting
    /// into free slots only.
    token: InvToken,
    node: Node<'a>,
    /// The leaf's §2.1 cache — absent when the read did not ask to
    /// probe, the tree has no cache, or the leaf's cache is not trusted
    /// (no populate reset it in this residency).
    cache: Option<CacheView<'a>>,
    /// The tree's frequency sketch, when the read counts on a cached
    /// tree.
    sketch: Option<&'a Sketch>,
    /// Probes asked of this view, and how many the cache answered.
    asked: u64,
    hits: u64,
}

impl<'a> LeafView<'a> {
    /// Looks the key at directory cell `cell` up in the leaf's cache:
    /// its payload on a hit.
    fn probe(&mut self, cell: u16) -> Option<&'a [u8]> {
        self.asked += 1;
        let hit = self.cache.as_ref()?.probe(cell);
        self.hits += u64::from(hit.is_some());
        hit.map(|(_, payload)| payload)
    }

    /// A point lookup's probe of the key at `cell`: counts the tuple its
    /// pointer names in the sketch, probes, and on a miss decides its
    /// admission here, under the shared pin, into the token a populate
    /// must bring back. A sampled victim is estimated by the pointer its
    /// tag's key entry holds. A leaf whose cache is not trusted admits
    /// into a free slot: its first populate frees them all.
    fn lookup(&mut self, cell: u16) -> (Option<&'a [u8]>, InvToken) {
        let Some(sketch) = self.sketch else {
            return (self.probe(cell), InvToken { admit: Admission::Refused, ..self.token });
        };
        let node = self.node;
        let freq_of = |cell: u16| sketch.estimate(BTree::tuple_id(node.value_at_cell(cell)));
        sketch.record(BTree::tuple_id(node.value_at_cell(cell)));
        let hit = self.probe(cell);
        let admit = match (&self.cache, hit) {
            (_, Some(_)) => Admission::Refused,
            (None, None) => Admission::Free,
            (Some(cache), None) => cache.admit(cell, freq_of(cell), freq_of),
        };
        (hit, InvToken { admit, ..self.token })
    }
}

/// The key a bound routes by (`None` = the leftmost path).
fn bound_key(bound: Bound<&[u8]>) -> Option<&[u8]> {
    match bound {
        Bound::Included(k) | Bound::Excluded(k) => Some(k),
        Bound::Unbounded => None,
    }
}

impl BTree {
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
    /// full root-to-leaf descents with N lock round-trips. This is the
    /// leaf-group reader with the cache left alone.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<Option<u64>>> {
        let key_of = |pos: usize| keys[pos].as_ref();
        let order = self.sorted_positions(keys.len(), key_of)?;
        let mut out: Vec<Option<u64>> = vec![None; keys.len()];
        self.read_groups(&order, key_of, Probe::Off, |pos, _, _, value, _| out[pos] = value)?;
        Ok(out)
    }

    /// Cache-aware point lookup. On a hit, `payload` carries the cached
    /// fields. On a miss whose token [admits](InvToken::admits), fetch
    /// the tuple from the heap and call [`BTree::cache_populate_many`]
    /// with the returned leaf and token. Thin wrapper over a one-key
    /// [`BTree::lookup_cached_many`].
    pub fn lookup_cached(&self, key: &[u8]) -> Result<CachedLookup> {
        let mut r = self.lookup_cached_many(&[key])?;
        // nbb-lint: allow(unwrap, lookup_cached_many returns one result per input key)
        Ok(r.pop().expect("one key in, one result out"))
    }

    /// Batched cache-aware point lookup; results are indexed like
    /// `keys`. A thin wrapper over [`BTree::lookup_cached_with`] that
    /// copies every hit's payload into its [`CachedLookup`].
    pub fn lookup_cached_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<CachedLookup>> {
        // The reader answers every position exactly once.
        let unanswered = CachedLookup {
            value: None,
            payload: None,
            leaf: PageId::INVALID,
            token: InvToken { stamp: 0, admit: Admission::Refused },
        };
        let mut out = vec![unanswered; keys.len()];
        self.lookup_cached_with(keys, |pos, leaf, token, value, payload| {
            out[pos] = CachedLookup { value, payload: payload.map(<[u8]>::to_vec), leaf, token };
        })?;
        Ok(out)
    }

    /// Batched cache-aware point lookup that lends each answer instead
    /// of collecting it: `visit(pos, leaf, token, value, payload)` is
    /// called once per position of `keys` — `value` its pointer if the
    /// key is in the index, `payload` the cached entry on a hit,
    /// borrowed from the leaf — so a caller builds what it returns
    /// straight from the page. `visit` runs under the leaf's shared pin
    /// and must not call back into the tree or its pool.
    ///
    /// The leaf-group reader with the cache in view: like
    /// [`BTree::get_many`], the batch shares one structure-lock
    /// acquisition and one page visit per distinct leaf, and the cache's
    /// trust is checked once per leaf. Every key found is counted in the
    /// tree's frequency sketch, hit or miss, and everything happens
    /// under the leaf's **shared** pin: a hit takes no other latch, and
    /// a miss's admission — a free slot, or a less frequent victim
    /// ([`crate::cache::CacheView::admit`]) — is decided here and
    /// carried in its token. Positions are visited in key order, so the
    /// misses of one leaf are neighbours: `(leaf, token, value,
    /// payload)` for each admitted one, once its tuple is fetched, is a
    /// run of [`BTree::cache_populate_many`].
    pub fn lookup_cached_with<K: AsRef<[u8]>>(
        &self,
        keys: &[K],
        visit: impl FnMut(usize, PageId, InvToken, Option<u64>, Option<&[u8]>),
    ) -> Result<()> {
        let key_of = |pos: usize| keys[pos].as_ref();
        let order = self.sorted_positions(keys.len(), key_of)?;
        self.read_groups(&order, key_of, Probe::Count, visit)
    }

    /// A writer's batched point lookup: `visit(pos, value, payload)` is
    /// called once per position of `keys`, as
    /// [`BTree::lookup_cached_with`] calls its visitor — `payload` the
    /// cached entry, borrowed from the leaf under its shared pin, when
    /// the leaf's cache is trusted and holds the key — but the read
    /// records nothing in the frequency sketch or the cache counters
    /// and decides no admission: a row is popular when it is read, and
    /// the writer populates nothing. `visit` must not call back into
    /// the tree or its pool.
    pub fn peek_cached_with<K: AsRef<[u8]>>(
        &self,
        keys: &[K],
        mut visit: impl FnMut(usize, Option<u64>, Option<&[u8]>),
    ) -> Result<()> {
        let key_of = |pos: usize| keys[pos].as_ref();
        let order = self.sorted_positions(keys.len(), key_of)?;
        self.read_groups(&order, key_of, Probe::Peek, |pos, _, _, value, payload| {
            visit(pos, value, payload)
        })
    }

    /// Visits `(key, value)` pairs in ascending key order starting at the
    /// first key ≥ `start`; stops when `f` returns false.
    ///
    /// A loop over [`BTree::range_chunk`], one leaf per step: `f` runs
    /// with no tree lock and no page pinned, and under concurrent
    /// writers the scan sees what a range cursor sees — each leaf as of
    /// the moment it was read, the sequence ascending across splits.
    pub fn scan_from(&self, start: &[u8], mut f: impl FnMut(&[u8], u64) -> bool) -> Result<()> {
        let mut buf = RangeBuf::default();
        let mut from = start.to_vec();
        let mut first = true;
        loop {
            let lower = if first { Bound::Included(&from[..]) } else { Bound::Excluded(&from[..]) };
            let chunk = self.range_chunk(lower, Bound::Unbounded, usize::MAX, false, &mut buf)?;
            for (key, &value) in buf.keys.chunks_exact(self.key_size).zip(&buf.values) {
                if !f(key, value) {
                    return Ok(());
                }
            }
            if chunk.exhausted {
                return Ok(());
            }
            from.copy_from_slice(&buf.keys[buf.keys.len() - self.key_size..]);
            first = false;
            buf.clear();
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
    /// ended. A probing scan records nothing in the frequency sketch: a
    /// scan touching every entry carries no per-key popularity signal.
    /// So its token admits into free slots only, never over an entry
    /// the point lookups' frequencies placed.
    pub fn range_chunk(
        &self,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        max: usize,
        probe: bool,
        out: &mut RangeBuf,
    ) -> Result<RangeChunk> {
        for key in [lower, upper].into_iter().filter_map(bound_key) {
            self.check_key(key)?;
        }
        let slot = self.opts.cache.filter(|_| probe).map_or(0, |c| c.payload_size);
        let max = max.max(1);
        let root = self.root.read();
        let mut leaf = self.descend(*root, bound_key(lower), 0, None)?;
        let mut hops = None;
        loop {
            let mode = if probe { Probe::Count } else { Probe::Off };
            let ((len, ended, leaf_keys, token), next) = self.read_leaf(leaf, mode, |view| {
                let n = view.node;
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
                let mut len = 0usize;
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
                    out.keys.extend_from_slice(key);
                    out.values.push(n.value_at(i));
                    if probe {
                        let hit = view.probe(n.cell_at(i));
                        match hit {
                            Some(payload) => out.payloads.extend_from_slice(payload),
                            None => out.payloads.resize(out.payloads.len() + slot, 0),
                        }
                        out.cached.push(hit.is_some());
                    }
                    len += 1;
                }
                (len, ended, n.nkeys(), view.token)
            })?;
            let exhausted = ended.unwrap_or(!next.is_valid());
            if len > 0 || exhausted {
                return Ok(RangeChunk { len, leaf, token, leaf_keys, exhausted });
            }
            leaf = self.hop(leaf, next, &mut hops)?;
        }
    }

    /// The leaf a scan from `lower` reads first, named off its level-1
    /// parent **without reading it**, so a cursor — or a group of them —
    /// can fault first leaves in one batched read before walking them
    /// with [`BTree::range_chunk`]. Like [`BTree::leaves_after`], the id
    /// is exact when read and at worst one unneeded read once stale.
    pub fn leaf_for(&self, lower: Bound<&[u8]>) -> Result<PageId> {
        let key = bound_key(lower);
        key.map_or(Ok(()), |k| self.check_key(k))?;
        let root = self.root.read();
        self.descend(*root, key, 0, None)
    }

    /// Up to `k` leaves that follow the leaf owning `key`, in key order
    /// — what a range cursor batch-faults before walking them with
    /// [`BTree::range_chunk`]. A cursor asks for as many as finish its
    /// row budget (the budget over [`RangeChunk::leaf_keys`] floored at
    /// half a node, rounded up), so on a chain of equal leaves one call
    /// names every leaf it still reads under this parent.
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
        let root = self.root.read();
        let parent = self.descend(*root, Some(key), 1, None)?;
        self.pool.with_page(parent, |p| {
            let n = Node::new(p, self.key_size);
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
        let mut keys = 0usize;
        let root = self.root.read();
        self.for_each_leaf(*root, |n| keys += n.nkeys())?;
        Ok(keys)
    }

    /// True when the tree holds no keys.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (1 = root is a leaf): the root's level, plus one.
    pub fn height(&self) -> Result<usize> {
        let root = self.root.read();
        self.pool.with_page(*root, |p| Node::new(p, self.key_size).level() as usize + 1)
    }

    /// Aggregate index statistics: leaves, total keys, mean fill factor,
    /// total/occupied cache slots.
    pub fn index_stats(&self) -> Result<IndexStats> {
        let mut s = IndexStats::default();
        let cfg = self.opts.cache;
        let root = self.root.read();
        self.for_each_leaf(*root, |n| {
            s.leaf_pages += 1;
            s.keys += n.nkeys();
            s.fill_sum += n.fill_factor();
            s.free_bytes += n.free_bytes();
            if let Some(cfg) = cfg.as_ref() {
                let v = CacheView::new(n.page(), self.key_size, cfg);
                s.cache_slots += v.capacity();
                s.cache_occupied += v.occupied();
            }
        })?;
        Ok(s)
    }

    /// Visits every leaf in chain order; the caller holds the structure
    /// lock (either side) over `root`.
    pub(super) fn for_each_leaf(&self, root: PageId, mut f: impl FnMut(Node<'_>)) -> Result<()> {
        let mut leaf = self.descend(root, None, 0, None)?;
        let mut hops = None;
        loop {
            let ((), next) = self.read_leaf(leaf, Probe::Off, |view| f(view.node))?;
            if !next.is_valid() {
                return Ok(());
            }
            leaf = self.hop(leaf, next, &mut hops)?;
        }
    }

    // ---------------------------------------------------------------
    // The four pieces everything above is made of
    // ---------------------------------------------------------------

    /// The leaf-group reader: resolves a batch's keys leaf by leaf
    /// under one structure-lock acquisition. `order` holds the batch's
    /// positions sorted by key (`key_of` maps a position to its key).
    /// Per run of keys one leaf answers: one descent names the leaf, one
    /// [`BTree::read_leaf`] pins it, and `answer(pos, leaf, token,
    /// value, payload)` is called once per key — `value` its pointer if
    /// it is in the index; unless `probe` is off, `payload` its cached
    /// fields if the leaf's cache holds them, and when it counts,
    /// `token` the admission of a miss.
    fn read_groups<'k>(
        &self,
        order: &[usize],
        key_of: impl Fn(usize) -> &'k [u8],
        probe: Probe,
        mut answer: impl FnMut(usize, PageId, InvToken, Option<u64>, Option<&[u8]>),
    ) -> Result<()> {
        let root = self.root.read();
        let mut i = 0;
        while i < order.len() {
            let leaf = self.descend(*root, Some(key_of(order[i])), 0, None)?;
            let (consumed, _) = self.read_leaf(leaf, probe, |view| {
                let n = view.node;
                let mut c = 0;
                while i + c < order.len() {
                    let pos = order[i + c];
                    let cell = match n.search(key_of(pos)) {
                        Ok(j) => Some(n.cell_at(j)),
                        // Past the last key: only the key that was
                        // routed here (c == 0) is definitively absent;
                        // later keys may belong to a sibling, so the
                        // outer loop re-descends for them.
                        Err(j) if j >= n.nkeys() && c > 0 => break,
                        Err(_) => None,
                    };
                    let (hit, token) = cell.map_or((None, view.token), |c| view.lookup(c));
                    answer(pos, leaf, token, cell.map(|c| n.value_at_cell(c)), hit);
                    c += 1;
                }
                c
            })?;
            i += consumed;
        }
        Ok(())
    }

    /// Reads one leaf: the only function that pins a leaf for reading,
    /// so the only place the per-leaf §2.1 cache preamble is written.
    /// `leaf` came off a parent node or a sibling pointer — device bytes
    /// either way — so the page must carry the node magic and be a
    /// leaf, or the read is `Corrupt` naming it.
    ///
    /// Unless `probe` is off, on a cached tree the visitor's
    /// [`LeafView`] carries the cache view if the leaf's cache is
    /// trusted; when it counts, the view carries the sketch too, and
    /// once the pin is released the counters are fed what the visitor
    /// probed. Otherwise neither cache nor counters are touched. Either
    /// way the view's token holds the page's stamp, as read under the
    /// pin.
    /// Returns the visitor's result and the leaf's successor on the
    /// chain.
    fn read_leaf<R>(
        &self,
        leaf: PageId,
        probe: Probe,
        visit: impl FnOnce(&mut LeafView<'_>) -> R,
    ) -> Result<(R, PageId)> {
        let cfg = self.opts.cache.filter(|_| probe != Probe::Off);
        let sketch = self.sketch.as_ref().filter(|_| probe == Probe::Count);
        let (out, next, asked, hits) = self.pool.with_page(leaf, |p| {
            let node = Node::checked(p, leaf, self.key_size)?;
            if !node.is_leaf() {
                return Err(StorageError::Corrupt(format!(
                    "page {leaf} was reached as a leaf but is a level-{} node",
                    node.level()
                )));
            }
            let cache =
                cfg.as_ref().filter(|_| p.marked()).map(|c| CacheView::new(p, self.key_size, c));
            let token = InvToken { stamp: p.stamp(), admit: Admission::Free };
            let mut view = LeafView { token, node, cache, sketch, asked: 0, hits: 0 };
            let out = visit(&mut view);
            Ok((out, node.next_leaf(), view.asked, view.hits))
        })??;
        if let Some(sketch) = sketch {
            // Stats only meter the cache protocol: a cache-less tree,
            // or a read that did not probe, records nothing. The same
            // count paces the sketch's halvings.
            sketch.age(self.stats.lookups.fetch_add(asked, Ordering::Relaxed), asked);
            self.stats.hits.fetch_add(hits, Ordering::Relaxed);
            self.stats.misses.fetch_add(asked - hits, Ordering::Relaxed);
        }
        Ok((out, next))
    }

    /// The one sibling hop: follows `next`, the successor
    /// [`BTree::read_leaf`] reported for `from`. A chain of distinct
    /// pages is shorter than the device, so `hops` — one walk's budget,
    /// `None` until its first hop — starts at the device's page count,
    /// and a walk that outruns it is going round a cycle of well-formed
    /// leaves no magic check can see: `Corrupt` naming the page whose
    /// link was followed last, which is on the cycle.
    fn hop(&self, from: PageId, next: PageId, hops: &mut Option<u64>) -> Result<PageId> {
        let left = hops.get_or_insert_with(|| self.pool.disk().num_pages());
        if *left == 0 {
            return Err(StorageError::Corrupt(format!(
                "the leaf chain does not end: following the sibling link of page {from} makes \
                 more hops than the device has pages, so the chain cycles"
            )));
        }
        *left -= 1;
        Ok(next)
    }

    /// The one descent: names the node at `level` on the path to `key`
    /// (`None` = the leftmost path) **off its parent**, so that node
    /// itself is not pinned — a leaf is never pinned once to learn it
    /// is a leaf and again to read it. A tree no taller than `level`
    /// answers with its root. With `bound`, also collects the tightest
    /// separator above the path taken: every key strictly below it
    /// routes to the returned node (left untouched on the rightmost
    /// path); a child's bound is always ≤ its ancestors', so the
    /// innermost one wins. The caller holds the structure lock (either
    /// side), so the path cannot change underfoot.
    pub(super) fn descend(
        &self,
        root: PageId,
        key: Option<&[u8]>,
        level: u16,
        mut bound: Option<&mut Option<Vec<u8>>>,
    ) -> Result<PageId> {
        let mut cur = root;
        loop {
            let (next, arrived) = self.pool.with_page(cur, |p| {
                let n = Node::new(p, self.key_size);
                if n.level() <= level {
                    return (cur, true);
                }
                // Child `i` holds the keys from separator `i` up; the
                // leftmost child sits before separator 0.
                let above = key.map_or(0, |key| match n.search(key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                });
                if let (Some(bound), true) = (bound.as_deref_mut(), above < n.nkeys()) {
                    *bound = Some(n.key_at(above).to_vec());
                }
                let child =
                    if above == 0 { n.leftmost_child() } else { PageId(n.value_at(above - 1)) };
                (child, n.level() == level + 1)
            })?;
            if arrived {
                return Ok(next);
            }
            cur = next;
        }
    }
}

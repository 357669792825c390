//! The B+Tree's write path, top to bottom: the public multi-key ops and
//! the cache write-through, the one leaf-run walker all four are
//! callers of, and the escalated insert — the only place the tree's
//! shape changes. `impl BTree` continued from the parent module, whose
//! docs give the crabbing discipline this file carries out. Every leaf
//! closure keeps the leaf's §2.1 cache exact (the `cache` module docs).

use super::BTree;
use crate::cache::CacheViewMut;
use crate::node::{InsertOutcome, Node, NodeMut};
use nbb_storage::error::{Result, StorageError};
use nbb_storage::page::{Page, PageId};
use std::sync::atomic::Ordering;

/// Leaf runs the walker processes per structure-lock read acquisition.
/// Releasing and reacquiring the guard at this cadence bounds how long
/// a large batch can hold off an escalating writer (and the readers
/// queued behind it under a fair lock), at the cost of one extra lock
/// round-trip per RUNS_PER_GUARD leaves.
const RUNS_PER_GUARD: usize = 64;

/// What a per-key leaf op did to its key's entry, as far as the walker
/// must know.
enum LeafWrite {
    /// Nothing was overwritten: the entry is new (`None`), was removed
    /// (its value), or was never there (`None`).
    Done(Option<u64>),
    /// The key's pointer was overwritten; this is the old one. The
    /// walker drops the key's cache entry in the same closure.
    Replaced(u64),
    /// The leaf has no room for a new entry carrying this value: the
    /// walker hands the key to [`BTree::insert_escalated`].
    Full(u64),
}

impl BTree {
    /// Inserts `key → value`; returns the previous value when
    /// overwriting. Thin wrapper over a one-entry
    /// [`BTree::insert_many`].
    pub fn insert(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        let mut r = self.insert_many(&[(key, value)])?;
        // nbb-lint: allow(unwrap, insert_many returns one result per input entry)
        Ok(r.pop().expect("one entry in, one result out"))
    }

    /// Inserts a batch of `(key, value)` entries; results (the previous
    /// value when overwriting) are indexed like `entries`.
    ///
    /// The write analogue of [`BTree::get_many`], through the leaf-run
    /// walker: one descent and one exclusive page access per **distinct
    /// leaf** instead of per key.
    /// A run that fills its leaf escalates just that key to the
    /// structure lock's write side (splitting as needed) and resumes
    /// the fast path for the rest of the batch.
    ///
    /// Duplicate keys within one batch are rejected whole with
    /// [`StorageError::DuplicateKeyInBatch`] **before** any mutation:
    /// inside a single batch there is no meaningful "last writer", so
    /// the ambiguity is surfaced instead of silently resolved.
    pub fn insert_many<K: AsRef<[u8]>>(&self, entries: &[(K, u64)]) -> Result<Vec<Option<u64>>> {
        let key_of = |pos: usize| entries[pos].0.as_ref();
        let order = self.sorted_positions(entries.len(), key_of)?;
        if let Some(w) = order.windows(2).find(|w| key_of(w[0]) == key_of(w[1])) {
            return Err(StorageError::duplicate_key(key_of(w[0])));
        }
        self.write_runs(&order, key_of, true, |n, pos| {
            let (key, value) = (key_of(pos), entries[pos].1);
            let old = n.as_ref().search(key).ok().map(|j| n.as_ref().value_at(j));
            match n.insert(key, value) {
                InsertOutcome::NeedSplit => LeafWrite::Full(value),
                _ => old.map_or(LeafWrite::Done(None), LeafWrite::Replaced),
            }
        })
    }

    /// Removes `key`; returns its value if it was present. Thin wrapper
    /// over a one-key [`BTree::delete_many`].
    ///
    /// Underflowing nodes are left as-is (no merging) — the unused space
    /// this leaves behind is precisely what the index cache recycles.
    pub fn delete(&self, key: &[u8]) -> Result<Option<u64>> {
        let mut r = self.delete_many(&[key])?;
        // nbb-lint: allow(unwrap, delete_many returns one result per input key)
        Ok(r.pop().expect("one key in, one result out"))
    }

    /// Removes a batch of keys; results (each key's value if it was
    /// present) are indexed like `keys`.
    ///
    /// Same leaf grouping as [`BTree::insert_many`]. Deletes never
    /// restructure the tree (underflow is left for the index cache to
    /// recycle), so the leaf op never reports a full leaf and the batch
    /// never escalates — deleters on disjoint leaves proceed in
    /// parallel. Duplicate keys are permitted and idempotent: the first
    /// occurrence (in input order) removes the entry and later ones
    /// read as absent, matching the equivalent loop of single deletes.
    pub fn delete_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<Option<u64>>> {
        let key_of = |pos: usize| keys[pos].as_ref();
        let order = self.sorted_positions(keys.len(), key_of)?;
        self.write_runs(&order, key_of, true, |n, pos| LeafWrite::Done(n.delete(key_of(pos))))
    }

    /// Updates the value of an existing key; returns false if absent
    /// (an absent key is never created). The key's cache entry is
    /// dropped.
    pub fn update_value(&self, key: &[u8], value: u64) -> Result<bool> {
        self.check_key(key)?;
        let old = self.write_runs(
            &[0],
            |_| key,
            true,
            |n, _| match n.as_ref().search(key) {
                Ok(j) => {
                    let old = n.as_ref().value_at(j);
                    let r = n.insert(key, value);
                    debug_assert_eq!(r, InsertOutcome::Updated);
                    LeafWrite::Replaced(old)
                }
                Err(_) => LeafWrite::Done(None),
            },
        )?;
        Ok(old[0].is_some())
    }

    /// The cache write-through, after the heap changed rows whose keys
    /// stayed put: `(key, value, payload)` each, `value` the key's
    /// pointer. The key's cached entry, found through its directory
    /// cell, gets `payload` in place while the key still names `value`;
    /// nothing absent is stored. Returns how many entries were
    /// rewritten. Each leaf is latched by `with_page_mut_clean`, entry
    /// or not: its new stamp refuses a populate whose heap read may
    /// predate the change, and it dirties nothing. Not a write batch in
    /// [`super::WriteStats`].
    pub fn cache_refresh_many<K: AsRef<[u8]>, P: AsRef<[u8]>>(
        &self,
        entries: &[(K, u64, P)],
    ) -> Result<usize> {
        let Some(cfg) = self.opts.cache else { return Ok(0) };
        let width = |e: &(K, u64, P)| e.2.as_ref().len();
        if let Some(e) = entries.iter().find(|e| width(e) != cfg.payload_size) {
            return Err(StorageError::Corrupt(format!(
                "cache payload width {} != configured {}",
                width(e),
                cfg.payload_size
            )));
        }
        let key_of = |pos: usize| entries[pos].0.as_ref();
        let order = self.sorted_positions(entries.len(), key_of)?;
        let refreshed = self.write_runs(&order, key_of, false, |n, pos| {
            let (key, value, payload) = &entries[pos];
            let node = n.as_ref();
            let cell = node.cell_of(key.as_ref()).filter(|&c| node.value_at_cell(c) == *value);
            let refreshed = cell.is_some_and(|cell| {
                CacheViewMut::new(n.page_mut(), self.key_size, &cfg).refresh(cell, payload.as_ref())
            });
            LeafWrite::Done(refreshed.then_some(*value))
        })?;
        let refreshed = refreshed.iter().flatten().count();
        self.stats.refreshes.fetch_add(refreshed as u64, Ordering::Relaxed);
        Ok(refreshed)
    }

    /// The leaf-run walker: every leaf mutation outside a split goes
    /// through here.
    ///
    /// `order` holds the batch's positions sorted by key (`key_of` maps
    /// a position to its key). The walker crabs under the structure
    /// lock's read side, releasing it every [`RUNS_PER_GUARD`] runs so
    /// an arbitrarily large batch cannot stall an escalating writer for
    /// its whole length. Per run: one descent names the leaf and how
    /// many of the remaining keys it owns ([`BTree::locate_run`]), and
    /// `leaf_op` is applied to each key of the run inside **one**
    /// `with_page_mut` closure, whose frame write latch is the whole
    /// leaf-local critical section (module docs). A key whose op
    /// reports [`LeafWrite::Full`] ends the run: with the page and the
    /// guard released it is inserted under the exclusive structure lock
    /// ([`BTree::insert_escalated`]), and the walk resumes after it.
    /// Returns each key's previous value, indexed by position; a
    /// non-empty `dirty` call is one batch in [`super::WriteStats`].
    /// Without `dirty` (the write-through) each leaf is taken by
    /// `with_page_mut_clean`, nothing is counted, and no key is `Full`.
    fn write_runs<'k>(
        &self,
        order: &[usize],
        key_of: impl Fn(usize) -> &'k [u8],
        dirty: bool,
        leaf_op: impl Fn(&mut NodeMut<'_>, usize) -> LeafWrite,
    ) -> Result<Vec<Option<u64>>> {
        if order.is_empty() {
            return Ok(Vec::new());
        }
        if dirty {
            self.wstats.batches.fetch_add(1, Ordering::Relaxed);
            self.wstats.keys.fetch_add(order.len() as u64, Ordering::Relaxed);
        }
        let mut out: Vec<Option<u64>> = vec![None; order.len()];
        let mut i = 0;
        while i < order.len() {
            let mut full = None;
            {
                let root = self.root.read();
                let mut runs = 0;
                while i < order.len() && runs < RUNS_PER_GUARD && full.is_none() {
                    runs += 1;
                    let (leaf, run) = self.locate_run(*root, &key_of, &order[i..])?;
                    let body = |p: &mut Page| {
                        let mut n = NodeMut::new(p, self.key_size);
                        let mut verdicts = Vec::with_capacity(run);
                        for &pos in &order[i..i + run] {
                            let verdict = leaf_op(&mut n, pos);
                            if let LeafWrite::Replaced(_) = verdict {
                                self.forget(&mut n, key_of(pos));
                            }
                            let full = matches!(verdict, LeafWrite::Full(_));
                            verdicts.push(verdict);
                            if full {
                                break;
                            }
                        }
                        verdicts
                    };
                    let verdicts = if dirty {
                        self.wstats.leaf_groups.fetch_add(1, Ordering::Relaxed);
                        self.pool.with_page_mut(leaf, body)?
                    } else {
                        self.pool.with_page_mut_clean(leaf, body)?
                    };
                    for verdict in verdicts {
                        let pos = order[i];
                        match verdict {
                            LeafWrite::Done(old) => out[pos] = old,
                            LeafWrite::Replaced(old) => out[pos] = Some(old),
                            LeafWrite::Full(value) => {
                                full = Some(value);
                                break;
                            }
                        }
                        i += 1;
                    }
                }
            }
            if let Some(value) = full {
                let pos = order[i];
                out[pos] = self.insert_escalated(key_of(pos), value)?;
                i += 1;
            }
        }
        Ok(out)
    }

    /// Drops the cache entry of `key`, whose pointer was just
    /// overwritten in `n`: the entry, named by the key's directory cell,
    /// describes the row the key named before.
    fn forget(&self, n: &mut NodeMut<'_>, key: &[u8]) {
        if let (Some(cfg), Some(cell)) = (&self.opts.cache, n.as_ref().cell_of(key)) {
            CacheViewMut::new(n.page_mut(), self.key_size, cfg).remove(cell);
        }
    }

    /// Descends to the leaf owning the first key of `tail` (the sorted
    /// remainder of a batch's order vector; `key_of` maps an order
    /// entry to its key) and returns how many of `tail`'s leading keys
    /// that leaf owns: those strictly below the tightest separator the
    /// descent passed (all of them on the rightmost path) — what lets a
    /// whole sorted run be consumed per descent without guessing at
    /// leaf boundaries. Single-key tails skip the bound bookkeeping.
    fn locate_run<'k>(
        &self,
        root: PageId,
        key_of: impl Fn(usize) -> &'k [u8],
        tail: &[usize],
    ) -> Result<(PageId, usize)> {
        let mut upper = None;
        let bound = (tail.len() > 1).then_some(&mut upper);
        let leaf = self.descend(root, Some(key_of(tail[0])), 0, bound)?;
        let run = upper.map_or(tail.len(), |ub| {
            1 + tail[1..].iter().take_while(|&&pos| key_of(pos) < ub.as_slice()).count()
        });
        Ok((leaf, run))
    }

    /// Escalated insert: takes the structure lock's write side (every
    /// reader and fast-path writer drains first), re-descends, and
    /// splits whatever is full along the way — the only place the
    /// tree's shape changes.
    fn insert_escalated(&self, key: &[u8], value: u64) -> Result<Option<u64>> {
        self.wstats.escalations.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.root.write();
        let root = *guard;
        let (old, split) = self.insert_rec(root, key, value)?;
        if let Some((sep, right)) = split {
            let level = self.pool.with_page(root, |p| Node::new(p, self.key_size).level())?;
            let (new_root, ()) = self.pool.new_page_with(|p| {
                let mut n = NodeMut::init_internal(p, self.key_size, level + 1, root);
                let r = n.insert(&sep, right.0);
                debug_assert_eq!(r, InsertOutcome::Inserted);
            })?;
            *guard = new_root;
        }
        Ok(old)
    }

    /// Recursive insert; returns `(old_value, Some((separator, new_right)))`
    /// when `page` split.
    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &self,
        page: PageId,
        key: &[u8],
        value: u64,
    ) -> Result<(Option<u64>, Option<(Vec<u8>, PageId)>)> {
        let is_leaf = self.pool.with_page(page, |p| Node::new(p, self.key_size).is_leaf())?;
        if is_leaf {
            let (outcome, old) = self.pool.with_page_mut(page, |p| {
                let mut n = NodeMut::new(p, self.key_size);
                let old = n.as_ref().search(key).ok().map(|i| n.as_ref().value_at(i));
                let outcome = n.insert(key, value);
                if old.is_some() {
                    self.forget(&mut n, key);
                }
                (outcome, old)
            })?;
            if outcome != InsertOutcome::NeedSplit {
                return Ok((old, None));
            }
            let (sep, right) = self.split_page(page)?;
            let target = if key >= sep.as_slice() { right } else { page };
            let outcome = self
                .pool
                .with_page_mut(target, |p| NodeMut::new(p, self.key_size).insert(key, value))?;
            assert_ne!(outcome, InsertOutcome::NeedSplit, "post-split insert must fit");
            return Ok((None, Some((sep, right))));
        }
        let child = self.pool.with_page(page, |p| Node::new(p, self.key_size).child_for(key))?;
        let (old, child_split) = self.insert_rec(child, key, value)?;
        let Some((csep, cright)) = child_split else {
            return Ok((old, None));
        };
        let outcome = self
            .pool
            .with_page_mut(page, |p| NodeMut::new(p, self.key_size).insert(&csep, cright.0))?;
        if outcome != InsertOutcome::NeedSplit {
            return Ok((old, None));
        }
        let (sep, right) = self.split_page(page)?;
        let target = if csep.as_slice() >= sep.as_slice() { right } else { page };
        let outcome = self
            .pool
            .with_page_mut(target, |p| NodeMut::new(p, self.key_size).insert(&csep, cright.0))?;
        assert_ne!(outcome, InsertOutcome::NeedSplit, "post-split insert must fit");
        Ok((old, Some((sep, right))))
    }

    /// Splits `page` in half, returning `(separator, new_right_page)`.
    fn split_page(&self, page: PageId) -> Result<(Vec<u8>, PageId)> {
        let (entries, level, next) = self.pool.with_page(page, |p| {
            let n = Node::new(p, self.key_size);
            (n.entries(), n.level(), n.next_leaf())
        })?;
        let n = entries.len();
        debug_assert!(n >= 2, "cannot split a node with < 2 entries");
        let mid = n / 2;
        let is_leaf = level == 0;
        let (sep, left_entries, right_entries, right_leftmost) = if is_leaf {
            (entries[mid].0.clone(), &entries[..mid], &entries[mid..], None)
        } else {
            (entries[mid].0.clone(), &entries[..mid], &entries[mid + 1..], Some(entries[mid].1))
        };
        let (right, ()) = self.pool.new_page_with(|p| {
            let mut node = if is_leaf {
                NodeMut::init_leaf(p, self.key_size)
            } else {
                // nbb-lint: allow(unwrap, internal levels always carry a right-leftmost child)
                NodeMut::init_internal(p, self.key_size, level, PageId(right_leftmost.unwrap()))
            };
            for (k, v) in right_entries {
                let r = node.append_sorted(k, *v);
                debug_assert_eq!(r, InsertOutcome::Inserted);
            }
            if is_leaf {
                node.set_next_leaf(next);
            }
        })?;
        self.pool.with_page_mut(page, |p| {
            let mut node = NodeMut::new(p, self.key_size);
            node.rebuild_with(left_entries);
            if is_leaf {
                node.set_next_leaf(right);
            }
        })?;
        Ok((sep, right))
    }
}

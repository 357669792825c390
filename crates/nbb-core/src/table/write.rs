//! The table's write path, top to bottom: the four planners
//! (`insert_many`, `update_many_with`, `delete_many_with`,
//! `put_many_with`) each validate their input, take their write
//! intents, resolve the rows they address and describe the batch as a
//! plan of [`RowChange`]s; [`Table::apply`] is the one function that
//! knows what a row change owes the heap and every index. `impl Table`
//! continued from the parent module, whose docs explain the intents.

use super::{resolved, Index, Table};
use nbb_storage::error::{Result, StorageError};
use nbb_storage::rid::RecordId;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Sorts `keys` in place and rejects the batch when any two collide
/// ([`StorageError::DuplicateKeyInBatch`]).
fn reject_duplicate_keys(keys: &mut [&[u8]]) -> Result<()> {
    keys.sort_unstable();
    if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
        return Err(StorageError::duplicate_key(w[0]));
    }
    Ok(())
}

/// Error for an index→heap chase that came up empty **while the key's
/// write intent was held**: with same-key writers serialized, a pointer
/// the index resolved under the intent must land on a live heap tuple
/// carrying that key. The one way to get here is a writer addressing
/// the same row through a *different* index (uncoordinated by design,
/// see the module docs) — surfaced loudly instead of silently dropping
/// the row, which is what the pre-intent tolerance branches did.
fn intent_violation(index: &str, key: &[u8]) -> StorageError {
    use std::fmt::Write;
    let mut hex = String::with_capacity(key.len() * 2);
    for b in key {
        let _ = write!(hex, "{b:02x}");
    }
    StorageError::Corrupt(format!(
        "index {index} resolved key 0x{hex} to a freed or recycled heap slot while its \
         write intent was held; writers racing on one row must address it through the \
         same index to coordinate"
    ))
}

/// One row of a write plan: an insert has no `old`, a delete no `new`,
/// an update both.
struct RowChange<'a> {
    /// The row's position in the caller's batch.
    pos: usize,
    /// Where the row lives; for an insert, filled in by
    /// [`Table::apply`] once the tuple is appended.
    rid: RecordId,
    /// The tuple the row holds now, read under the key's write intent.
    old: Option<Vec<u8>>,
    /// The tuple the row will hold, borrowed from the caller's batch.
    new: Option<&'a [u8]>,
}

impl<'a> RowChange<'a> {
    fn insert(pos: usize, tuple: &'a [u8]) -> Self {
        RowChange { pos, rid: RecordId::from_u64(0), old: None, new: Some(tuple) }
    }

    /// The tuple to append, when this change is an insert.
    fn fresh(&self) -> Option<&'a [u8]> {
        self.new.filter(|_| self.old.is_none())
    }
}

impl Table {
    /// Inserts a tuple, maintaining every index. Thin wrapper over a
    /// one-tuple [`Table::insert_many`].
    pub fn insert(&self, tuple: &[u8]) -> Result<RecordId> {
        let mut rids = self.insert_many(std::slice::from_ref(&tuple))?;
        // nbb-lint: allow(unwrap, insert_many returns one rid per input tuple)
        Ok(rids.pop().expect("one tuple in, one rid out"))
    }

    /// Inserts a batch of tuples, returning their heap addresses
    /// indexed like `tuples`, maintaining every index.
    ///
    /// Plans one insert per tuple once every tuple's width is checked —
    /// no intents, nothing to resolve: inserting an already-present key
    /// is the caller's contract violation. The private `Table::apply`
    /// does the rest: two tuples colliding on any index's key bytes
    /// reject the batch whole with [`StorageError::DuplicateKeyInBatch`]
    /// before any page is touched; the appends ride one page latch per
    /// tail page and each index takes its entries as one leaf-grouped
    /// [`nbb_btree::BTree::insert_many`]. One logical write batch in
    /// [`Table::stats`].
    pub fn insert_many<T: AsRef<[u8]>>(&self, tuples: &[T]) -> Result<Vec<RecordId>> {
        for t in tuples {
            self.check_tuple(t.as_ref())?;
        }
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        let mut plan: Vec<RowChange<'_>> =
            tuples.iter().enumerate().map(|(pos, t)| RowChange::insert(pos, t.as_ref())).collect();
        self.apply(None, &mut plan)?;
        Ok(plan.iter().map(|c| c.rid).collect())
    }

    /// Batched key-based update; see
    /// [`crate::query::IndexRef::update_many`], which this implements.
    ///
    /// Plans one update per pair whose key the index holds; absent
    /// keys report `false`. Duplicate *input* keys are rejected whole
    /// with [`StorageError::DuplicateKeyInBatch`] (two updates to one
    /// key in one batch have no defined order). Before resolving
    /// anything the batch installs **write intents** on every key it
    /// addresses on this index — the input keys plus the keys the new
    /// tuples carry (a key-changing update writes both) — so racing
    /// same-key writers park and the whole resolve → [`Table::apply`]
    /// sequence is exclusive per key: an update serialized behind a
    /// deleter observes the completed delete and reports `false`; one
    /// serialized ahead of it lands first.
    pub(crate) fn update_many_with<K: AsRef<[u8]>, T: AsRef<[u8]>>(
        &self,
        idx: &Index,
        pairs: &[(K, T)],
    ) -> Result<Vec<bool>> {
        for (_, t) in pairs {
            self.check_tuple(t.as_ref())?;
        }
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let keys: Vec<&[u8]> = pairs.iter().map(|(k, _)| k.as_ref()).collect();
        reject_duplicate_keys(&mut keys.clone())?;
        let mut intent_keys = keys.clone();
        intent_keys.extend(pairs.iter().map(|(_, t)| idx.spec.key.extract(t.as_ref())));
        let _intents = idx.tree.intents().acquire_many(&intent_keys);
        let mut plan = self.resolve_for_write(idx, &keys)?;
        for c in &mut plan {
            c.new = Some(pairs[c.pos].1.as_ref());
        }
        self.apply(Some(idx), &mut plan)?;
        let mut out = vec![false; pairs.len()];
        for c in &plan {
            out[c.pos] = true;
        }
        Ok(out)
    }

    /// Batched key-based delete; see
    /// [`crate::query::IndexRef::delete_many`], which this implements.
    ///
    /// Plans one delete per distinct row the keys resolve to; absent
    /// keys report `false`, and duplicate keys are idempotent (the
    /// first occurrence deletes the row, later ones report `false`,
    /// matching the equivalent loop). Write intents on every addressed
    /// key serialize racing same-key deleters end to end: exactly one
    /// wins (`true`) and the rest observe its completed delete
    /// (`false`, via the index reading absent). [`Table::apply`] drops
    /// the index entries, then frees the slots.
    pub(crate) fn delete_many_with<K: AsRef<[u8]>>(
        &self,
        idx: &Index,
        keys: &[K],
    ) -> Result<Vec<bool>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // `acquire_many` dedupes, so a key listed twice parks no one on
        // itself.
        let _intents = idx.tree.intents().acquire_many(keys);
        let mut plan = self.resolve_for_write(idx, keys)?;
        let mut seen = std::collections::HashSet::new();
        plan.retain(|c| seen.insert(c.rid.to_u64()));
        self.apply(Some(idx), &mut plan)?;
        let mut out = vec![false; keys.len()];
        for c in &plan {
            out[c.pos] = true;
        }
        Ok(out)
    }

    /// Batched upsert through one index; see
    /// [`crate::query::IndexRef::put_many`], which this implements.
    ///
    /// Each tuple's key (as declared by `idx`) decides its change: a
    /// key the index holds plans an update of that row in place
    /// (keeping its RID), an absent key plans an insert — one plan,
    /// one [`Table::apply`], one write batch in [`Table::stats`].
    /// Write intents on every key make the whole decision-and-apply
    /// sequence exclusive per key — a put serialized behind a racing
    /// same-key deleter observes the completed delete and inserts
    /// fresh. Every tuple lands; returns each tuple's landing address,
    /// indexed like `tuples`. Duplicate keys on this index surface
    /// [`StorageError::DuplicateKeyInBatch`] before anything mutates.
    pub(crate) fn put_many_with<T: AsRef<[u8]>>(
        &self,
        idx: &Index,
        tuples: &[T],
    ) -> Result<Vec<RecordId>> {
        for t in tuples {
            self.check_tuple(t.as_ref())?;
        }
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        let keys: Vec<&[u8]> = tuples.iter().map(|t| idx.spec.key.extract(t.as_ref())).collect();
        reject_duplicate_keys(&mut keys.clone())?;
        // A put's addressed key is the key its tuple carries, so this
        // is the full write set on this index.
        let _intents = idx.tree.intents().acquire_many(&keys);
        let mut plan: Vec<RowChange<'_>> =
            tuples.iter().enumerate().map(|(pos, t)| RowChange::insert(pos, t.as_ref())).collect();
        for held in self.resolve_for_write(idx, &keys)? {
            let c = &mut plan[held.pos];
            (c.rid, c.old) = (held.rid, held.old);
        }
        self.apply(Some(idx), &mut plan)?;
        Ok(plan.iter().map(|c| c.rid).collect())
    }

    /// Writer side of [`Table::chase`]: resolves `keys` through `idx`
    /// and returns the row every key the index holds names — position,
    /// address and current tuple, no `new` yet — in position order.
    /// Callers hold the keys' write intents, so same-key writers are
    /// parked and every pointer the index resolves must chase to a
    /// live tuple still carrying its key; one that does not is an
    /// [`intent_violation`].
    fn resolve_for_write<'a, K: AsRef<[u8]>>(
        &self,
        idx: &Index,
        keys: &[K],
    ) -> Result<Vec<RowChange<'a>>> {
        let (at, rids) = resolved(idx.tree.get_many(keys)?);
        let mut tuples: Vec<Option<Vec<u8>>> = vec![None; rids.len()];
        let key_of = |j: usize| keys[at[j]].as_ref();
        self.chase(idx, &rids, key_of, |j, tuple| tuples[j] = Some(tuple.to_vec()))?;
        (at.iter().zip(rids).zip(tuples))
            .map(|((&pos, rid), tuple)| match tuple {
                Some(_) => Ok(RowChange { pos, rid, old: tuple, new: None }),
                None => Err(intent_violation(&idx.spec.name, keys[pos].as_ref())),
            })
            .collect()
    }

    /// Carries out a write plan: everything that happens to the heap
    /// and to every index once the caller holds its intents and has
    /// resolved its rows (`via` is the index it resolved them through;
    /// `None` for a plan of inserts only). On `Ok`, every row of the
    /// plan landed and every insert's `rid` is filled in.
    ///
    /// 1. **Collision check, before anything mutates.** On every
    ///    index, a key this plan writes — a fresh row's, or the new key
    ///    of an update that changes it — must collide with no other
    ///    written key and with no key an update keeps in place:
    ///    otherwise two rows would silently overwrite one another's
    ///    entry (or the tree would reject the batch half-way, stranding
    ///    an index with neither). Kept keys colliding with each other
    ///    are a pre-existing non-unique-index state, not this plan's
    ///    doing, and stay legal.
    /// 2. **Heap.** Fresh tuples are appended, borrowed, one page latch
    ///    per tail page ([`HeapFile::append_many`]) — heap before
    ///    index, so no entry ever names a slot that is not there yet;
    ///    updated rows are overwritten in place (RIDs stay stable).
    /// 3. **Indexes**, each through the B+Tree's sorted, leaf-grouped
    ///    multi-key ops: one `delete_many` (old keys of changed and
    ///    deleted rows), then one `insert_many` (new keys of changed
    ///    and fresh rows) — deletes first, so key rotations within a
    ///    plan (a→b, b→c) resolve deterministically — then one
    ///    leaf-cache write-through (`cache_refresh_many`) for every
    ///    kept key whose entry payload changed. The leaf cache needs
    ///    nothing else: a deleted key's leaf zeroes its cache, and an
    ///    overwritten pointer's entry is dropped in the same leaf latch.
    /// 4. **Heap frees**, after every index dropped its entry.
    ///
    /// With same-key writers parked on the intents, nothing coordinated
    /// can free a resolved slot mid-plan — but an *uncoordinated*
    /// cross-index writer (or `relocate`) still can, and a page fault
    /// under any row can fail. Every such per-row heap error is
    /// reported — the first one wins, an `InvalidSlot` named as the
    /// [`intent_violation`] it is — but only **after** the plan
    /// finishes: aborting mid-loop would strand already-overwritten
    /// rows with no write-through (a cached projection would answer
    /// the old value forever) and stale secondary entries, or
    /// rows whose index entries are already dropped as unreachable live
    /// tuples — torn state for rows that were not even part of the
    /// failure. A row whose overwrite failed owes the indexes nothing
    /// and leaves the plan; a row whose free failed through a racing
    /// destroyer is simply gone either way.
    ///
    /// [`HeapFile::append_many`]: nbb_storage::heap::HeapFile::append_many
    fn apply(&self, via: Option<&Index>, plan: &mut Vec<RowChange<'_>>) -> Result<()> {
        let indexes: Vec<Arc<Index>> = self.indexes.read().values().cloned().collect();
        for idx in &indexes {
            let key = &idx.spec.key;
            let (mut written, mut kept): (Vec<&[u8]>, Vec<&[u8]>) = Default::default();
            for c in plan.iter() {
                let Some(new_key) = c.new.map(|t| key.extract(t)) else { continue };
                match &c.old {
                    Some(old) if key.extract(old) == new_key => kept.push(new_key),
                    _ => written.push(new_key),
                }
            }
            reject_duplicate_keys(&mut written)?;
            kept.sort_unstable();
            if let Some(k) = written.iter().find(|k| kept.binary_search(k).is_ok()) {
                return Err(StorageError::duplicate_key(k));
            }
        }

        let fresh: Vec<&[u8]> = plan.iter().filter_map(RowChange::fresh).collect();
        let appended = self.heap.append_many(&fresh)?;
        for (c, rid) in plan.iter_mut().filter(|c| c.fresh().is_some()).zip(appended) {
            c.rid = rid;
        }
        let mut first_err: Option<StorageError> = None;
        let row_error = |e: StorageError, old: &[u8]| match (e, via) {
            (StorageError::InvalidSlot { .. }, Some(idx)) => {
                intent_violation(&idx.spec.name, idx.spec.key.extract(old))
            }
            (e, _) => e,
        };
        plan.retain(|c| match (&c.old, c.new) {
            (Some(old), Some(new)) => match self.heap.update(c.rid, new) {
                Ok(()) => true,
                Err(e) => {
                    first_err.get_or_insert_with(|| row_error(e, old));
                    false
                }
            },
            _ => true,
        });

        for idx in &indexes {
            let key = &idx.spec.key;
            let cached = idx.tree.cache_config().is_some();
            let mut dels: Vec<&[u8]> = Vec::new();
            let mut inss: Vec<(&[u8], u64)> = Vec::new();
            let mut refreshed: Vec<(&[u8], u64, Vec<u8>)> = Vec::new();
            for c in plan.iter() {
                let ptr = c.rid.to_u64();
                match (c.old.as_deref(), c.new) {
                    (None, Some(new)) => inss.push((key.extract(new), ptr)),
                    (Some(old), None) => dels.push(key.extract(old)),
                    (Some(old), Some(new)) if key.extract(old) != key.extract(new) => {
                        dels.push(key.extract(old));
                        inss.push((key.extract(new), ptr));
                    }
                    (Some(old), Some(new)) if cached => {
                        let payload = idx.extract_payload(new);
                        if idx.extract_payload(old) != payload {
                            refreshed.push((key.extract(new), ptr, payload));
                        }
                    }
                    _ => {}
                }
            }
            idx.tree.delete_many(&dels)?;
            idx.tree.insert_many(&inss)?;
            idx.tree.cache_refresh_many(&refreshed)?;
        }

        let (mut updates, mut deletes) = (0u64, 0u64);
        for c in plan.iter() {
            match (&c.old, c.new) {
                (Some(old), None) => match self.heap.delete(c.rid) {
                    Ok(()) => deletes += 1,
                    Err(e) => {
                        first_err.get_or_insert_with(|| row_error(e, old));
                    }
                },
                (Some(_), Some(_)) => updates += 1,
                _ => {}
            }
        }
        self.inserts.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        self.updates.fetch_add(updates, Ordering::Relaxed);
        self.deletes.fetch_add(deletes, Ordering::Relaxed);
        self.write_batches.fetch_add(1, Ordering::Relaxed);
        first_err.map_or(Ok(()), Err)
    }

    /// Relocates the tuple at `rid` to the heap tail (the §3.1
    /// clustering primitive), patching every index.
    pub fn relocate(&self, rid: RecordId) -> Result<RecordId> {
        let tuple = self.heap.get(rid)?;
        let new_rid = self.heap.relocate(rid)?;
        for idx in self.indexes.read().values() {
            let k = idx.spec.key.extract(&tuple);
            idx.tree.update_value(k, new_rid.to_u64())?;
        }
        Ok(new_rid)
    }
}

//! Key-level **write intents**: the same-key coordination structure a
//! page latch cannot provide.
//!
//! A leaf's frame latch serializes *page-local* work (every leaf
//! mutation of [`super::tree::BTree`] is one `with_page_mut` closure), so
//! two writers mutating one leaf take turns — but a logical table write
//! (resolve the key through the index, read/mutate the heap row, then
//! maintain every index) spans several page operations with windows in
//! between. Two writers racing the *same key* through that sequence used
//! to interleave badly enough that the table layer carried tolerance
//! workarounds ("a racing deleter drops just its row", tolerated
//! `InvalidSlot`s). [`KeyIntents`] replaces those with a coordination
//! structure, reusing the buffer pool's in-flight-load pattern:
//!
//! * The first writer on key K **installs an intent** (a slot in a
//!   striped hash table keyed by the key bytes) and proceeds.
//! * A racing same-key writer finds the slot and **parks on it** (a
//!   condvar wait), exactly like a buffer-pool requester parking on a
//!   `Loading` frame.
//! * On release, the holder **hands the intent off directly** to one
//!   parked waiter (a pre-granted continuation, mirroring the pool's
//!   pre-granted pins): the waiter wakes already owning the key and can
//!   never lose it to a third writer sneaking through the map, so every
//!   parked writer runs exactly once, in some serial order.
//!
//! Writers on distinct keys only ever contend on a stripe mutex for the
//! few instructions of a map lookup, so disjoint-key throughput is
//! unaffected. Contention is metered: [`KeyIntents::parks`] counts
//! acquisitions that found the key held, [`KeyIntents::handoffs`] counts
//! releases that passed ownership to a waiter — both surface in
//! [`super::tree::WriteStats`].
//!
//! Deadlock discipline: the stripe and slot locks sit at ranks 20/25 of
//! the workspace lock lattice — strictly before every tree and pool
//! lock — and [`KeyIntents::acquire_many`] sorts and deduplicates each
//! writer's key set before any page is touched. A thread that already
//! holds intents and wants more out of that order (a table swapping a
//! row onto a hot page) uses [`KeyIntents::try_acquire`], which never
//! parks. Readers acquire only after a chase found their row moved,
//! holding nothing else. `CONCURRENCY.md` at the
//! repo root documents the full lattice, the handoff pattern, and the
//! rank checker that enforces both on every debug test run.

use nbb_storage::lockrank;
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stripe count of every tree's intent table. Collisions only cost
/// parallelism (two distinct keys on one stripe briefly share a map
/// mutex), never correctness.
pub const DEFAULT_INTENT_STRIPES: usize = 64;

/// One in-flight write intent; racing same-key writers park here.
struct IntentSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Default)]
struct SlotState {
    /// Writers parked on this key, each owed one future grant.
    waiters: u32,
    /// Pre-granted handoffs not yet claimed by a woken waiter. At most
    /// one is ever outstanding: only the current owner's release mints
    /// a grant, and the grantee owns the key from that instant (even
    /// before it wakes).
    grants: u32,
}

impl IntentSlot {
    fn new() -> Self {
        IntentSlot {
            state: Mutex::with_rank(lockrank::INTENT_SLOT, SlotState::default()),
            cv: Condvar::new(),
        }
    }
}

/// One stripe's map: installed intents, keyed by the key bytes.
type StripeMap = HashMap<Vec<u8>, Arc<IntentSlot>>;

/// Striped table of per-key write intents; see the module docs.
///
/// Owned by a [`super::tree::BTree`] and acquired by the table layer's write paths before they resolve a
/// key, so the whole index→heap→index sequence is exclusive per key.
pub struct KeyIntents {
    stripes: Box<[Mutex<StripeMap>]>,
    parks: AtomicU64,
    handoffs: AtomicU64,
}

impl KeyIntents {
    /// Creates an intent table with `stripes` (≥ 1) stripes. Trees use
    /// [`DEFAULT_INTENT_STRIPES`]; the parameter exists so this
    /// module's tests can run the degenerate one-stripe table.
    pub fn new(stripes: usize) -> Self {
        assert!(stripes >= 1, "an intent table needs at least one stripe");
        KeyIntents {
            stripes: (0..stripes)
                .map(|_| Mutex::with_rank(lockrank::INTENT_STRIPE, HashMap::new()))
                .collect(),
            parks: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
        }
    }

    #[inline]
    fn stripe_of(&self, key: &[u8]) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.stripes.len() as u64) as usize
    }

    /// Installs (or waits for) the write intent on `key`, returning a
    /// guard that holds it until dropped. If another writer holds the
    /// key, this parks until that writer's release hands the intent
    /// over — the caller resumes already owning the key.
    ///
    /// A thread must never hold two intents for the same key (it would
    /// park on itself); multi-key callers go through
    /// [`KeyIntents::acquire_many`], which sorts and deduplicates.
    pub fn acquire(&self, key: &[u8]) -> IntentGuard<'_> {
        let stripe = &self.stripes[self.stripe_of(key)];
        let slot = {
            let mut map = stripe.lock();
            match map.get(key) {
                None => {
                    map.insert(key.to_vec(), Arc::new(IntentSlot::new()));
                    return IntentGuard { intents: self, key: key.to_vec() };
                }
                Some(slot) => {
                    let slot = Arc::clone(slot);
                    // Register under the stripe lock, so a concurrent
                    // release cannot miss us and retire the slot.
                    slot.state.lock().waiters += 1;
                    slot
                }
            }
        };
        self.parks.fetch_add(1, Ordering::Relaxed);
        let mut st = slot.state.lock();
        while st.grants == 0 {
            slot.cv.wait(&mut st);
        }
        st.grants -= 1;
        drop(st);
        IntentGuard { intents: self, key: key.to_vec() }
    }

    /// Installs the write intent on `key` only if no one holds it:
    /// `None` when the key is held, by another writer or by the caller
    /// itself. Never parks, so a caller holding other intents can try
    /// any key in any order without risking a deadlock; it is not
    /// counted in [`KeyIntents::parks`].
    pub fn try_acquire(&self, key: &[u8]) -> Option<IntentGuard<'_>> {
        let mut map = self.stripes[self.stripe_of(key)].lock();
        if map.contains_key(key) {
            return None;
        }
        map.insert(key.to_vec(), Arc::new(IntentSlot::new()));
        Some(IntentGuard { intents: self, key: key.to_vec() })
    }

    /// Acquires the intents for every distinct key in `keys`, in sorted
    /// key order (the global acquisition order that makes overlapping
    /// batches collide without cycling). Duplicates are acquired once.
    /// The returned guards release on drop, in any order.
    pub fn acquire_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Vec<IntentGuard<'_>> {
        let mut sorted: Vec<&[u8]> = keys.iter().map(AsRef::as_ref).collect();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.into_iter().map(|k| self.acquire(k)).collect()
    }

    /// Releases the intent on `key`: hands it to one parked waiter when
    /// any exists (the pre-granted continuation), otherwise retires the
    /// slot. Called by [`IntentGuard::drop`].
    fn release(&self, key: &[u8]) {
        let mut map = self.stripes[self.stripe_of(key)].lock();
        // nbb-lint: allow(unwrap, release only runs from a guard whose acquire installed the slot)
        let slot = Arc::clone(map.get(key).expect("released intent must be installed"));
        let mut st = slot.state.lock();
        if st.waiters > 0 {
            st.waiters -= 1;
            st.grants += 1;
            self.handoffs.fetch_add(1, Ordering::Relaxed);
            drop(st);
            drop(map);
            slot.cv.notify_one();
        } else {
            drop(st);
            map.remove(key);
        }
    }

    /// Acquisitions that found the key held and parked.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Releases that handed the intent directly to a parked waiter.
    pub fn handoffs(&self) -> u64 {
        self.handoffs.load(Ordering::Relaxed)
    }

    /// True when no intent is installed (every writer finished). Test
    /// and assertion hook: a nonempty idle table means a leaked guard.
    pub fn is_idle(&self) -> bool {
        self.stripes.iter().all(|s| s.lock().is_empty())
    }
}

/// Holds the write intent on one key; releases (or hands off) on drop.
pub struct IntentGuard<'a> {
    intents: &'a KeyIntents,
    key: Vec<u8>,
}

impl IntentGuard<'_> {
    /// The key this intent covers.
    pub fn key(&self) -> &[u8] {
        &self.key
    }
}

impl Drop for IntentGuard<'_> {
    fn drop(&mut self) {
        self.intents.release(&self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn uncontended_acquire_installs_and_retires() {
        let intents = KeyIntents::new(4);
        {
            let g = intents.acquire(b"k");
            assert_eq!(g.key(), b"k");
            assert!(!intents.is_idle());
        }
        assert!(intents.is_idle(), "released intent must retire its slot");
        assert_eq!(intents.parks(), 0);
        assert_eq!(intents.handoffs(), 0);
    }

    #[test]
    fn acquire_many_sorts_and_dedupes() {
        let intents = KeyIntents::new(1);
        let keys: Vec<&[u8]> = vec![b"b", b"a", b"b", b"a"];
        let guards = intents.acquire_many(&keys);
        assert_eq!(guards.len(), 2, "duplicates must be acquired once");
        drop(guards);
        assert!(intents.is_idle());
    }

    #[test]
    fn racing_writer_parks_and_receives_the_handoff() {
        let intents = Arc::new(KeyIntents::new(2));
        let holder = intents.acquire(b"hot");
        let entered = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let waiter = {
                let intents = Arc::clone(&intents);
                let entered = Arc::clone(&entered);
                s.spawn(move || {
                    let _g = intents.acquire(b"hot");
                    entered.fetch_add(1, Ordering::SeqCst);
                })
            };
            while intents.parks() < 1 {
                std::thread::yield_now();
            }
            assert_eq!(entered.load(Ordering::SeqCst), 0, "waiter must be parked");
            drop(holder);
            waiter.join().unwrap();
        });
        assert_eq!(entered.load(Ordering::SeqCst), 1);
        assert_eq!(intents.parks(), 1);
        assert_eq!(intents.handoffs(), 1, "release must hand off, not just drop");
        assert!(intents.is_idle());
    }

    #[test]
    fn storm_on_one_key_serializes_every_writer() {
        // N threads x R rounds on one key through a single-stripe
        // table: a plain (non-atomic) counter under the intent must
        // never lose an increment, proving mutual exclusion, and every
        // thread must finish, proving the handoff chain never strands a
        // waiter.
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        let intents = Arc::new(KeyIntents::new(1));
        let counter = Arc::new(Mutex::new(0usize)); // mutex only to satisfy Sync; never contended under the intent
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let intents = Arc::clone(&intents);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        let _g = intents.acquire(b"contended");
                        let mut c = counter.try_lock().expect("intent must exclude writers");
                        *c += 1;
                    }
                });
            }
        });
        assert_eq!(*counter.lock(), THREADS * ROUNDS);
        assert!(intents.is_idle());
        assert_eq!(intents.parks(), intents.handoffs(), "every park resolves via a handoff");
    }

    #[test]
    fn try_acquire_refuses_a_held_key_and_never_parks() {
        let intents = KeyIntents::new(1);
        let held = intents.acquire(b"k");
        assert!(intents.try_acquire(b"k").is_none(), "held by this thread");
        let other = intents.try_acquire(b"j").expect("a free key installs");
        assert!(intents.try_acquire(b"j").is_none(), "held by a try");
        drop(held);
        let again = intents.try_acquire(b"k").expect("released, so free");
        drop((again, other));
        assert!(intents.is_idle());
        assert_eq!((intents.parks(), intents.handoffs()), (0, 0));
    }

    #[test]
    fn distinct_keys_do_not_interact() {
        let intents = KeyIntents::new(4);
        let _a = intents.acquire(b"a");
        let _b = intents.acquire(b"b"); // must not park
        assert_eq!(intents.parks(), 0);
    }
}

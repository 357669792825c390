//! The overlapped-I/O contract, end to end: same-page fault storms
//! coalesce onto one disk read, poisoned loads propagate to every
//! parked waiter (and heal on retry), distinct cold faults in a single
//! stripe overlap instead of serializing, and dirty-victim reclaim no
//! longer pays a synchronous device write.
//!
//! Exact-count assertions (one read per storm, every waiter poisoned)
//! use a [`FaultDisk`] read gate, which holds reads until the test has *observed*
//! every co-waiter parked via [`nbb_storage::PoolStats::fault_joins`] —
//! no sleep window to lose a race against a loaded host. The two
//! timing assertions left are the acceptance criteria themselves, and
//! they lean on a [`FaultDisk`] latency *sleeping*: parked threads need no
//! CPU, so even a one-core host overlaps the waits with several-fold
//! margin.

use nbb_storage::disk::{DiskManager, DiskModel, FaultDisk, InMemoryDisk};
use nbb_storage::error::StorageError;
use nbb_storage::{BufferPool, Page, PageId, PoolOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Page counts of the read calls that reached `disk`, in order.
fn batch_sizes(disk: &FaultDisk) -> Vec<usize> {
    disk.read_log().iter().map(Vec::len).collect()
}

/// A single-stripe pool of `frames` frames over `disk`, so every page
/// in a test shares one shard map.
fn one_shard_pool(disk: Arc<dyn DiskManager>, frames: usize) -> Arc<BufferPool> {
    let opts = PoolOptions { shards: 1, ..PoolOptions::default() };
    Arc::new(BufferPool::with_pool_options(disk, frames, opts))
}

/// Spins until the pool reports `joins` co-waiters parked on in-flight
/// loads. Joiners register before they park, so once this returns the
/// storm has fully coalesced.
fn await_joins(pool: &BufferPool, joins: u64) {
    while pool.stats().fault_joins < joins {
        std::thread::yield_now();
    }
}

#[test]
fn same_page_fault_storm_issues_exactly_one_read() {
    const THREADS: usize = 8;
    let disk = Arc::new(FaultDisk::new(512));
    let pool = one_shard_pool(disk.clone(), 8);
    let id = pool.new_page().unwrap();
    let mut page = Page::new(512);
    page.bytes_mut()[0] = 123;
    disk.write(id, &page).unwrap();
    disk.reset_stats();

    // All threads miss on the same cold page: one becomes the loader
    // (blocked at the read gate), the rest must park on the in-flight
    // load. The gate only opens once every other thread is provably
    // parked, so the exactly-one-read assertion cannot race.
    disk.hold_reads();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let v = pool.with_page(id, |p| p.bytes()[0]).unwrap();
                assert_eq!(v, 123, "waiter observed the loaded page");
            });
        }
        await_joins(&pool, (THREADS - 1) as u64);
        disk.release_reads();
    });

    assert_eq!(disk.stats().reads, 1, "N concurrent missers, one disk read");
    assert_eq!(disk.read_log().len(), 1);
    let s = pool.stats();
    assert_eq!(s.faults, 1);
    assert_eq!(s.fault_joins, (THREADS - 1) as u64, "everyone else joined the in-flight load");
    assert_eq!(s.misses, THREADS as u64);
}

#[test]
fn poisoned_load_fails_every_waiter_then_retry_succeeds() {
    const THREADS: usize = 6;
    let disk = Arc::new(FaultDisk::new(512));
    let pool = one_shard_pool(disk.clone(), 8);
    let id = pool.new_page().unwrap();
    let mut page = Page::new(512);
    page.bytes_mut()[0] = 77;
    disk.write(id, &page).unwrap();

    // Poison lands only after every co-waiter is parked on the load.
    disk.fail_reads_of(Some(id));
    disk.hold_reads();
    let errors = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let pool = Arc::clone(&pool);
            let errors = &errors;
            s.spawn(move || match pool.with_page(id, |p| p.bytes()[0]) {
                Err(StorageError::Io(msg)) => {
                    assert!(msg.contains("injected"), "waiters get the load's error: {msg}");
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                other => panic!("expected the injected I/O error, got {other:?}"),
            });
        }
        await_joins(&pool, (THREADS - 1) as u64);
        disk.release_reads();
    });
    assert_eq!(
        errors.load(Ordering::Relaxed),
        THREADS as u64,
        "the poisoned load must propagate to every parked waiter"
    );
    assert_eq!(disk.read_log().len(), 1, "the storm still coalesced onto one (failed) read");

    // The failed load must not leave a zombie frame pinned: the next
    // attempt faults afresh and succeeds.
    disk.fail_reads_of(None);
    assert_eq!(pool.with_page(id, |p| p.bytes()[0]).unwrap(), 77);
    assert_eq!(disk.read_log().len(), 2, "retry faulted afresh");
}

#[test]
fn once_failing_single_page_read_poisons_its_joiners_and_retry_reads_again() {
    // A one-page fault is a `read_many` batch of one. Its error already
    // names the page, so the pool must hand it to the loader and every
    // parked joiner — not quietly re-read the page (the multi-page
    // fallback), which on a disk that fails once would heal the load
    // behind the waiters' backs.
    const THREADS: usize = 5;
    let disk = Arc::new(FaultDisk::new(512));
    let pool = one_shard_pool(disk.clone(), 8);
    let id = seed_cold_pages(&disk, 1)[0];

    disk.fail_nth_read(id, 1);
    disk.hold_reads();
    let errors = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| match pool.with_page(id, |p| p.bytes()[0]) {
                Err(StorageError::Io(_)) => errors.fetch_add(1, Ordering::Relaxed),
                other => panic!("expected the injected I/O error, got {other:?}"),
            });
        }
        await_joins(&pool, (THREADS - 1) as u64);
        disk.release_reads();
    });
    assert_eq!(errors.load(Ordering::Relaxed), THREADS as u64, "loader and every joiner poisoned");
    assert_eq!(disk.read_log().len(), 1, "no hidden second read");
    assert!(!pool.contains(id));

    assert_eq!(pool.with_page(id, |p| p.bytes()[0]).unwrap(), 1, "the retry faults afresh");
    assert_eq!(disk.read_log().len(), 2, "exactly two device reads in all");
    assert_eq!(batch_sizes(&disk), &[1, 1]);
}

#[test]
fn distinct_cold_faults_overlap_within_one_stripe() {
    const K: usize = 8;
    const READ_MS: u64 = 50;
    // Single shard: before the fault state machine, these K faults
    // serialized behind the one shard mutex at ~K × read latency.
    let disk = Arc::new(FaultDisk::with_latency(
        512,
        DiskModel { read_ns: READ_MS * 1_000_000, write_ns: 0 },
    ));
    let pool = one_shard_pool(disk.clone(), 16);
    assert_eq!(pool.shards(), 1);
    let ids: Vec<PageId> = (0..K).map(|_| pool.new_page().unwrap()).collect();
    for (i, id) in ids.iter().enumerate() {
        let mut page = Page::new(512);
        page.bytes_mut()[0] = i as u8;
        disk.write(*id, &page).unwrap();
    }
    disk.reset_stats();

    let barrier = Arc::new(Barrier::new(K));
    let start = Instant::now();
    std::thread::scope(|s| {
        for (i, id) in ids.iter().enumerate() {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            let id = *id;
            s.spawn(move || {
                barrier.wait();
                let v = pool.with_page(id, |p| p.bytes()[0]).unwrap();
                assert_eq!(v, i as u8);
            });
        }
    });
    let wall = start.elapsed();

    assert_eq!(disk.stats().reads, K as u64, "every page cold-faulted once");
    let serialized = Duration::from_millis(READ_MS * K as u64);
    let speedup = serialized.as_secs_f64() / wall.as_secs_f64();
    // Acceptance bar: ≥ 3× at k=8 (expected ~K× — the waits are sleeps,
    // so even a loaded one-core host overlaps them; the bar leaves
    // ~130ms of scheduling slack against a ~50ms expected wall).
    assert!(
        speedup >= 3.0,
        "k={K} distinct cold faults must overlap in one stripe: \
         {wall:?} wall vs {serialized:?} serialized ({speedup:.1}x, need >= 3x)"
    );
    let s = pool.stats();
    assert_eq!(s.faults, K as u64);
    assert_eq!(s.fault_joins, 0, "distinct pages never park on each other");
}

#[test]
fn dirty_victim_reclaim_skips_the_synchronous_write() {
    const PAGES: u64 = 16;
    const WRITE_MS: u64 = 10;
    let model = DiskModel { read_ns: 0, write_ns: WRITE_MS * 1_000_000 };

    // One timed pass of a working set that overflows a 4-frame pool,
    // dirtying every page: each fault must reclaim a dirty victim.
    let run = |write_behind: usize| -> (Duration, u64) {
        let disk = Arc::new(FaultDisk::with_latency(512, model));
        let pool = BufferPool::with_pool_options(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            4,
            PoolOptions { shards: 1, write_behind },
        );
        let ids: Vec<PageId> = (0..PAGES).map(|_| pool.new_page().unwrap()).collect();
        let start = Instant::now();
        for (i, id) in ids.iter().enumerate() {
            pool.with_page_mut(*id, |p| p.bytes_mut()[0] = i as u8).unwrap();
        }
        let reclaim = start.elapsed();
        // Untimed barrier: correctness must be identical in both modes.
        pool.flush_all().unwrap();
        for (i, id) in ids.iter().enumerate() {
            let mut page = Page::new(512);
            disk.read(*id, &mut page).unwrap();
            assert_eq!(page.bytes()[0], i as u8, "mode wb={write_behind}: page {i} lost");
        }
        (reclaim, pool.stats().writebacks)
    };

    let (sync_time, sync_wb) = run(0);
    let (wb_time, wb_wb) = run(64);
    assert_eq!(sync_wb, wb_wb, "both modes hand off the same dirty victims");
    assert!(sync_wb >= PAGES - 4, "working set must actually churn dirty victims");
    // The bar: write-behind reclaim is a memcpy, not a device wait.
    // Synchronous mode pays >= 12 × 10ms in the timed loop; write-behind
    // is expected around a millisecond.
    assert!(
        wb_time.as_secs_f64() * 3.0 < sync_time.as_secs_f64(),
        "dirty eviction must not pay a synchronous write: \
         wb {wb_time:?} vs sync {sync_time:?}"
    );
}

#[test]
fn fault_storm_over_write_behind_store_skips_the_disk() {
    // A dirty page parked in the write-behind queue is re-faulted by a
    // storm of readers: bytes come from the store (no disk read), and
    // the page re-enters memory dirty so nothing is ever lost. The
    // write gate keeps the flusher from retiring the queue entry early,
    // so "served from the store" is deterministic.
    let disk = Arc::new(FaultDisk::new(512));
    let pool = one_shard_pool(disk.clone(), 4);
    let id = pool.new_page().unwrap();
    pool.with_page_mut(id, |p| p.bytes_mut()[0] = 55).unwrap();
    disk.hold_writes();
    pool.evict_page(id).unwrap();
    disk.reset_stats();
    let barrier = Arc::new(Barrier::new(4));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                assert_eq!(pool.with_page(id, |p| p.bytes()[0]).unwrap(), 55);
            });
        }
    });
    assert_eq!(disk.stats().reads, 0, "write-behind store served the fault");
    disk.release_writes();
    pool.flush_all().unwrap();
    let mut page = Page::new(512);
    disk.read(id, &mut page).unwrap();
    assert_eq!(page.bytes()[0], 55);
}

#[test]
fn panicking_load_poisons_waiters_and_frees_the_frame() {
    // A DiskManager implementation that panics mid-read must unwind
    // like a failed read: the Loading entry is removed, the reserved
    // frame goes back to the free list unpinned, and every parked
    // waiter gets an error instead of hanging forever.
    const THREADS: usize = 4;
    let disk = Arc::new(FaultDisk::new(512));
    let pool = one_shard_pool(disk.clone(), 8);
    let id = pool.new_page().unwrap();
    let mut page = Page::new(512);
    page.bytes_mut()[0] = 44;
    disk.write(id, &page).unwrap();

    disk.panic_next_read();
    disk.hold_reads();
    // Any of the threads may become the loader (and die with the
    // panic); the others must all surface the poison as an error.
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.with_page(id, |p| p.bytes()[0]))
        })
        .collect();
    await_joins(&pool, (THREADS - 1) as u64);
    disk.release_reads();

    let mut panicked = 0;
    let mut poisoned = 0;
    for h in handles {
        match h.join() {
            Err(_) => panicked += 1, // the loader re-raises the disk's panic
            Ok(Err(StorageError::Io(msg))) => {
                assert!(msg.contains("panicked"), "waiter error names the panic: {msg}");
                poisoned += 1;
            }
            Ok(other) => panic!("expected panic or poison, got {other:?}"),
        }
    }
    assert_eq!(panicked, 1, "exactly one thread was the loader");
    assert_eq!(poisoned, THREADS - 1, "every waiter was poisoned, none hung");

    // No zombie frame: the page faults afresh and succeeds, and the
    // whole pool is still usable (all frames reachable).
    assert_eq!(pool.with_page(id, |p| p.bytes()[0]).unwrap(), 44);
    for _ in 0..16 {
        let p2 = pool.new_page().unwrap();
        pool.with_page(p2, |_| ()).unwrap();
    }
}

/// Allocates `n` cold pages on `disk` with recognizable content
/// (`id + 1` at byte 0), without warming the pool.
fn seed_cold_pages(disk: &FaultDisk, n: usize) -> Vec<PageId> {
    (0..n)
        .map(|i| {
            let id = disk.allocate().unwrap();
            let mut page = Page::new(disk.page_size());
            page.bytes_mut()[0] = i as u8 + 1;
            disk.write(id, &page).unwrap();
            id
        })
        .collect()
}

#[test]
fn failing_page_in_batch_poisons_only_its_own_entry() {
    let disk = Arc::new(FaultDisk::new(512));
    let pool = one_shard_pool(disk.clone(), 8);
    let ids = seed_cold_pages(&disk, 4);
    let bad = ids[2];
    disk.fail_reads_of(Some(bad));

    // The whole batch rides one read_many, which fails as a unit; the
    // pool's per-page fallback must then land every sibling and pin
    // the failure on the one genuinely bad page.
    let err = pool.fault_many(&ids).unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "the bad page's error surfaces: {err:?}");
    // One batch, then the per-page fallback's four point reads.
    assert_eq!(batch_sizes(&disk), &[4, 1, 1, 1, 1], "one batch carried all four pages");
    for &id in &ids {
        if id == bad {
            assert!(!pool.contains(id), "the failed page must not publish");
        } else {
            assert!(pool.contains(id), "sibling {id} must publish despite the batch error");
        }
    }
    let s = pool.stats();
    assert_eq!(s.read_batches, 1);
    assert_eq!(s.read_pages, 4);

    // Retry heals: no zombie Loading entry, no leaked frame.
    disk.fail_reads_of(None);
    assert_eq!(pool.with_page(bad, |p| p.bytes()[0]).unwrap(), 3);
}

#[test]
fn batch_fault_failure_poisons_only_its_own_parked_joiners() {
    let disk = Arc::new(FaultDisk::new(512));
    let pool = one_shard_pool(disk.clone(), 8);
    let ids = seed_cold_pages(&disk, 2);
    let (good, bad) = (ids[0], ids[1]);
    disk.fail_reads_of(Some(bad));
    disk.hold_reads();

    // The batch thread reserves both Loading entries, then blocks at
    // the read gate inside read_many.
    let batcher = {
        let pool = Arc::clone(&pool);
        let ids = ids.clone();
        std::thread::spawn(move || pool.fault_many(&ids))
    };
    // One joiner per page parks on the batch's in-flight entries; the
    // gate only opens once both are provably parked.
    let join_good = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || pool.with_page(good, |p| p.bytes()[0]))
    };
    let join_bad = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || pool.with_page(bad, |p| p.bytes()[0]))
    };
    await_joins(&pool, 2);
    disk.release_reads();

    assert!(batcher.join().unwrap().is_err(), "the batch surfaces the bad page's error");
    assert_eq!(join_good.join().unwrap().unwrap(), 1, "the good page's joiner got its bytes");
    let err = join_bad.join().unwrap().unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "the bad page's joiner was poisoned: {err:?}");
    let s = pool.stats();
    assert_eq!(s.fault_joins, 2, "both joiners parked instead of re-reading");
    assert!(pool.contains(good));
    assert!(!pool.contains(bad));

    // Retry heals the poisoned page.
    disk.fail_reads_of(None);
    assert_eq!(pool.with_page(bad, |p| p.bytes()[0]).unwrap(), 2);
}

/// Runs `f` with every page of `held` pinned at once (nested
/// `with_page` closures) — the only way to prove no frame is missing.
fn with_all_pinned<R>(pool: &BufferPool, held: &[PageId], f: impl FnOnce() -> R) -> R {
    match held.split_first() {
        None => f(),
        Some((first, rest)) => pool.with_page(*first, |_| with_all_pinned(pool, rest, f)).unwrap(),
    }
}

#[test]
fn panicking_batch_load_across_shards_frees_every_frame_and_poisons_every_joiner() {
    // One batch whose misses sit in four different shards dies in its
    // single read_many: every shard must get its reserved frame back
    // and every page's parked joiner must be poisoned, none left
    // hanging on a Loading entry nobody will resolve.
    const SHARDS: usize = 4;
    let disk = Arc::new(FaultDisk::new(512));
    let opts = PoolOptions { shards: SHARDS, ..PoolOptions::default() };
    let pool = Arc::new(BufferPool::with_pool_options(disk.clone(), 32, opts));
    let ids = seed_cold_pages(&disk, SHARDS);
    let mut shards: Vec<u64> = ids.iter().map(|id| id.0 % SHARDS as u64).collect();
    shards.sort_unstable();
    shards.dedup();
    assert_eq!(shards.len(), SHARDS, "test premise: one miss per shard");

    disk.panic_next_read();
    disk.hold_reads();
    let batcher = {
        let (pool, ids) = (Arc::clone(&pool), ids.clone());
        std::thread::spawn(move || pool.fault_many(&ids))
    };
    // At the gate inside read_many, so every page is reserved: whoever
    // asks for one now joins the batch instead of loading it.
    while disk.read_log().is_empty() {
        std::thread::yield_now();
    }
    let joiners: Vec<_> = ids
        .iter()
        .map(|&id| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.with_page(id, |p| p.bytes()[0]))
        })
        .collect();
    await_joins(&pool, SHARDS as u64);
    disk.release_reads();

    assert!(batcher.join().is_err(), "the loader re-raises the disk's panic");
    for j in joiners {
        match j.join().unwrap() {
            Err(StorageError::Io(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected a poisoned joiner, got {other:?}"),
        }
    }
    assert_eq!(batch_sizes(&disk), &[SHARDS], "one read_many spanned the shards");
    assert!(ids.iter().all(|&id| !pool.contains(id)), "no page was published");

    // Every frame of every shard is back: `capacity()` distinct pages,
    // spread evenly over the shards, can all be pinned at once.
    let fresh = seed_cold_pages(&disk, pool.capacity());
    let pinned = with_all_pinned(&pool, &fresh, || fresh.iter().all(|&id| pool.contains(id)));
    assert!(pinned, "a reserved frame leaked: some shard could not hold its share");
    assert_eq!(pool.with_page(ids[0], |p| p.bytes()[0]).unwrap(), 1, "the page faults afresh");
}

#[test]
fn batch_that_runs_out_of_victims_midway_still_returns_every_page() {
    // One shard of 8 frames, so a batch chunk is 4 pages. Six pages
    // pinned by the caller leave two victims: a batch of four cold
    // pages reserves two frames and finds none for the other two, which
    // are retried alone once the batch's own pins drain. The batch must
    // return all four pages and count exactly what four point calls do.
    let cold = || {
        let p = one_shard_pool(Arc::new(InMemoryDisk::new(256)), 8);
        let ids: Vec<PageId> =
            (0..10u8).map(|i| p.new_page_with(|pg| pg.bytes_mut()[0] = i).unwrap().0).collect();
        p.flush_all().unwrap();
        for &id in &ids {
            p.evict_page(id).unwrap();
        }
        p.reset_stats();
        (p, ids)
    };
    let want: Vec<u8> = (6..10).collect();

    let (p, ids) = cold();
    let got =
        with_all_pinned(&p, &ids[..6], || p.with_page_batch(&ids[6..], |_, pg| pg.bytes()[0]));
    assert_eq!(got.unwrap(), want, "with_page_batch");
    let batch = p.stats();

    let (p, ids) = cold();
    with_all_pinned(&p, &ids[..6], || p.fault_many(&ids[6..])).unwrap();
    let got: Vec<u8> =
        ids[6..].iter().map(|&id| p.with_page(id, |pg| pg.bytes()[0]).unwrap()).collect();
    assert_eq!(got, want, "fault_many");
    let fault = p.stats();

    let (p, ids) = cold();
    let got = with_all_pinned(&p, &ids[..6], || {
        ids[6..].iter().map(|&id| p.with_page(id, |pg| pg.bytes()[0]).unwrap()).collect::<Vec<u8>>()
    });
    assert_eq!(got, want, "point calls");
    let point = p.stats();

    assert_eq!((point.hits, point.misses), (0, 10), "six held pages and four cold ones");
    assert_eq!((batch.hits, batch.misses), (point.hits, point.misses));
    // fault_many's pages were read back afterwards: two still resident,
    // two evicted by the retries — the same four accesses either way.
    assert_eq!(fault.hits + fault.misses, point.hits + point.misses + 4);
}

//! The compressed frame tier, end to end: a same-page fault storm
//! landing on a compressed entry coalesces onto **one** decompression
//! with zero disk reads, the `flush_all` barrier drains the compressor
//! queue deterministically, dropping a pool with a gated compressor
//! never hangs, and the tier stays consistent under a concurrent
//! evict/refault grind.
//!
//! Determinism comes from [`BufferPool::set_compression_gate`] (the
//! tier's analogue of `tests/overlapped_io.rs`'s GateDisk): while held,
//! the compressor parks and tier-served faults block mid-serve, so the
//! test can *observe* every co-waiter parked via
//! [`nbb_storage::PoolStats::fault_joins`] before releasing the gate —
//! no sleep windows.

use nbb_storage::disk::{DiskManager, InMemoryDisk};
use nbb_storage::{BufferPool, PageId, PoolOptions};
use std::sync::{Arc, Barrier};

/// Tier-enabled pool over an [`InMemoryDisk`]; write-behind is off so
/// disk-read assertions are exact.
fn cpool(cap: usize, budget: usize) -> (Arc<BufferPool>, Arc<InMemoryDisk>) {
    let disk = Arc::new(InMemoryDisk::new(256));
    let pool = Arc::new(BufferPool::with_pool_options(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        cap,
        PoolOptions { shards: 1, write_behind: 0, compressed_budget_bytes: budget },
    ));
    (pool, disk)
}

/// Spins until the pool reports `joins` co-waiters parked on in-flight
/// loads (joiners register before they park).
fn await_joins(pool: &BufferPool, joins: u64) {
    while pool.stats().fault_joins < joins {
        std::thread::yield_now();
    }
}

/// Faults `id` once and demotes it into the tier, returning with the
/// demotion fully admitted (the flush barrier drains the compressor).
fn demote(pool: &BufferPool, id: PageId) {
    pool.with_page(id, |_| ()).unwrap();
    pool.evict_page(id).unwrap();
    pool.flush_all().unwrap();
}

#[test]
fn storm_on_compressed_entry_is_one_decompress_and_zero_disk_reads() {
    const THREADS: usize = 8;
    let (pool, disk) = cpool(8, 4096);
    let id = pool.new_page().unwrap();
    pool.with_page_mut(id, |p| p.bytes_mut()[1] = 77).unwrap();
    demote(&pool, id);
    assert_eq!(pool.stats().compressed_pages, 1);
    pool.reset_stats();
    disk.reset_stats();

    // Gate the tier: the storm's loader blocks *inside* its serve, so
    // every other thread provably parks on the Loading entry first.
    pool.set_compression_gate(true);
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                pool.with_page(id, |p| p.bytes()[1]).unwrap()
            })
        })
        .collect();
    barrier.wait();
    await_joins(&pool, THREADS as u64 - 1);
    pool.set_compression_gate(false);
    for w in workers {
        assert_eq!(w.join().unwrap(), 77, "every storm member sees the decompressed bytes");
    }

    let s = pool.stats();
    assert_eq!(disk.stats().reads, 0, "the tier served the storm; the disk saw nothing");
    assert_eq!(s.faults, 1, "one load for the whole storm");
    assert_eq!(s.fault_joins, THREADS as u64 - 1);
    assert_eq!(s.compressed_hits, 1, "one decompression, not one per thread");
    assert_eq!(s.decompress_stalls, THREADS as u64 - 1, "the joiners all stalled on it");
    assert_eq!(s.compressed_pages, 0, "the entry was claimed");
    assert!(s.effective_hit_rate() > s.hit_rate(), "the tier hit shows up as disk avoidance");
}

#[test]
fn flush_barrier_drains_the_compressor_queue() {
    const PAGES: u64 = 4;
    let (pool, _) = cpool(8, 16 * 1024);
    let ids: Vec<PageId> = (0..PAGES).map(|_| pool.new_page().unwrap()).collect();
    for id in &ids {
        pool.with_page(*id, |_| ()).unwrap();
    }
    // Freeze the compressor, then demote everything: the jobs pile up
    // unprocessed, so any entry count observed now would be racy — the
    // barrier is what makes it settle.
    pool.set_compression_gate(true);
    for id in &ids {
        pool.evict_page(*id).unwrap();
    }
    assert_eq!(pool.stats().compressed_pages, 0, "gated compressor admitted nothing yet");
    pool.set_compression_gate(false);
    pool.flush_all().unwrap();
    let s = pool.stats();
    assert_eq!(s.compressed_pages, PAGES, "the barrier drained every queued demotion");
    assert!(s.compression_ratio() > 1.0, "zeroed pages compress");
}

#[test]
fn dropping_a_pool_with_a_gated_compressor_does_not_hang() {
    let (pool, _) = cpool(4, 4096);
    let id = pool.new_page().unwrap();
    pool.with_page(id, |_| ()).unwrap();
    pool.set_compression_gate(true);
    pool.evict_page(id).unwrap(); // job queued behind the gate
    drop(pool); // shutdown must unjam the parked worker and join it
}

#[test]
fn evict_refault_grind_stays_consistent() {
    // Readers hammer pages whose content encodes their identity while
    // an evictor forces demotions under them: every read must see the
    // right bytes whether it was a frame hit, a decompression, or a
    // disk fault — and the pool must settle cleanly.
    const PAGES: u64 = 8;
    const READERS: usize = 2;
    const ROUNDS: usize = 1500;
    let (pool, _) = cpool(4, 8 * 1024);
    let ids: Vec<PageId> = (0..PAGES).map(|_| pool.new_page().unwrap()).collect();
    for (i, id) in ids.iter().enumerate() {
        pool.with_page_mut(*id, |p| p.bytes_mut()[0] = i as u8).unwrap();
    }
    std::thread::scope(|s| {
        for r in 0..READERS {
            let pool = &pool;
            let ids = &ids;
            s.spawn(move || {
                let mut x = 0x9E37_79B9u64.wrapping_add(r as u64);
                for _ in 0..ROUNDS {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let i = (x % PAGES) as usize;
                    let got = pool.with_page(ids[i], |p| p.bytes()[0]).unwrap();
                    assert_eq!(got, i as u8, "page {i} served wrong bytes");
                }
            });
        }
        let pool = &pool;
        let ids = &ids;
        s.spawn(move || {
            let mut x = 0xDEAD_BEEFu64;
            for _ in 0..ROUNDS {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Pinned or mid-load pages refuse eviction; that's fine.
                let _ = pool.evict_page(ids[(x % PAGES) as usize]);
            }
        });
    });
    // The grind races its readers against the background compressor —
    // on a fast machine every demotion job is cancelled by a refault
    // publish before the worker runs, the queue silts up with those
    // tombstoned jobs (a full queue makes later demotions no-ops), and
    // the storm can end with nothing resident and the tier empty.
    // Settle deterministically instead of asserting on that race:
    // fault everything back in (checking the bytes), drain the storm's
    // job backlog behind the flush barrier, demote the residents onto
    // the now-empty queue, drain again so the demotions are admitted,
    // then refault — those reads *must* be tier serves, and must still
    // carry the right bytes.
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(pool.with_page(*id, |p| p.bytes()[0]).unwrap(), i as u8);
    }
    pool.flush_all().unwrap();
    for id in &ids {
        pool.evict_page(*id).unwrap();
    }
    pool.flush_all().unwrap();
    assert!(pool.stats().compressed_pages > 0, "settled demotions were admitted");
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(pool.with_page(*id, |p| p.bytes()[0]).unwrap(), i as u8);
    }
    let s = pool.stats();
    assert!(s.compressed_hits > 0, "settled refaults must be served by the tier");
}

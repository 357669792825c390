//! The pool's replacement policy, through the public API only: 2Q's
//! lists over each shard's frames, sized by ARC's rule. A faulted
//! page's first residency is probation — a FIFO in which touches count
//! for nothing — and only a re-reference *after* probation (a miss on
//! an id the probation ghost still remembers) promotes it to the
//! protected set, where a second-chance sweep keeps what is used. Such
//! a miss also raises probation's target share of the shard, and a
//! miss on an id the sweep evicted lowers it, so a warm shard stops
//! handing its pages to one-touch faults. An allocated page skips
//! probation: it is protected from the start.
//!
//! The last test replays the benchmark's `point_cold` request stream
//! against a heap-sized pool and pins its misses against what the clock
//! pool made of the same stream.

use nbb_storage::{BufferPool, DiskManager, InMemoryDisk, PageId, PoolOptions};
use std::sync::Arc;

/// A one-shard pool of `frames` frames over `pages` fresh pages.
fn one_shard(frames: usize, pages: usize) -> (BufferPool, Vec<PageId>) {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
    let pool = BufferPool::with_pool_options(
        disk,
        frames,
        PoolOptions { shards: 1, ..PoolOptions::default() },
    );
    let ids = (0..pages).map(|_| pool.new_page().unwrap()).collect();
    (pool, ids)
}

fn touch(pool: &BufferPool, id: PageId) {
    pool.with_page(id, |_| ()).unwrap();
}

/// Frames of the one-shard pools below.
const FRAMES: usize = 16;

#[test]
fn a_page_re_referenced_after_probation_survives_a_one_touch_scan() {
    let (pool, ids) = one_shard(FRAMES, 1 + FRAMES + 4 * FRAMES);
    let (&p, others) = ids.split_first().unwrap();
    touch(&pool, p);
    // The shard fills behind `p`; the next load takes probation's
    // oldest page, and its id is left in the ghost.
    for &q in &others[..FRAMES] {
        touch(&pool, q);
    }
    assert!(!pool.contains(p), "p left probation first");
    touch(&pool, p);
    let misses = pool.stats().misses;
    for &q in &others[FRAMES..] {
        touch(&pool, q);
        assert!(pool.contains(p), "a protected page lost to a one-touch scan");
    }
    assert_eq!(pool.stats().misses, misses + 4 * FRAMES as u64, "every scanned page missed once");
}

#[test]
fn touches_on_probation_do_not_protect_a_page() {
    let (pool, ids) = one_shard(FRAMES, 2 + FRAMES);
    let (&p, others) = ids.split_first().unwrap();
    let (&y, q) = others.split_last().unwrap();
    touch(&pool, p);
    // Correlated references: `p` is touched again and again while its
    // first residency lasts. It still leaves in FIFO order — the load
    // after the shard fills up takes it, ahead of every untouched page.
    for &qi in &q[..FRAMES - 1] {
        for _ in 0..3 {
            touch(&pool, p);
        }
        touch(&pool, qi);
        assert!(pool.contains(p));
    }
    touch(&pool, p);
    touch(&pool, q[FRAMES - 1]);
    assert!(!pool.contains(p), "probation's oldest page must go first, however often it was hit");
    assert!(q.iter().all(|&qi| pool.contains(qi)));
    // Its next miss finds its id in the ghost and promotes it (the
    // victim is `q[0]`, now probation's oldest).
    let misses = pool.stats().misses;
    touch(&pool, p);
    assert_eq!(pool.stats().misses, misses + 1);
    // Promote eleven more the same way — out, then back in while the
    // ghost remembers them — until probation is down to its quarter of
    // the shard and the next victim is the sweep's pick.
    for &qi in &q[1..12] {
        pool.evict_page(qi).unwrap();
        touch(&pool, qi);
    }
    // A promotion is not a reference either: every protected page but
    // `q[6]` is touched after it, so `q[6]` is the one to go.
    for &page in std::iter::once(&p).chain(&q[1..12]) {
        if page != q[6] {
            touch(&pool, page);
        }
    }
    touch(&pool, y);
    assert!(!pool.contains(q[6]), "the protected page untouched since its promotion goes first");
    assert!(pool.contains(p), "a protected page touched since its promotion stays");
    assert!(q.iter().filter(|&&qi| qi != q[0] && qi != q[6]).all(|&qi| pool.contains(qi)));
}

/// Misses on the warm pages of
/// `a_warm_shard_keeps_its_pages_against_one_touch_faults` at the commit
/// before the adaptive target, when probation kept a fixed quarter of
/// the shard (measured with this same test).
const PARENT_WARM_MISSES: u64 = 1_444;

#[test]
fn a_warm_shard_keeps_its_pages_against_one_touch_faults() {
    const WARM: usize = 64;
    const WARM_UP: usize = 100;
    const ROUNDS: usize = 300;
    // Every page is on the disk before the pool exists, so the pool
    // faults them all in; none is allocated through it.
    let disk = Arc::new(InMemoryDisk::new(256));
    let ids: Vec<PageId> = (0..WARM + WARM_UP + ROUNDS).map(|_| disk.allocate().unwrap()).collect();
    let (warm, once) = ids.split_at(WARM);
    let pool = BufferPool::with_pool_options(
        disk,
        WARM,
        PoolOptions { shards: 1, ..PoolOptions::default() },
    );
    // Each round touches the warm pages at random (xorshift64), then
    // faults one page that is never used again.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut warm_misses = 0;
    for (round, &page) in once.iter().enumerate() {
        let misses = pool.stats().misses;
        for _ in 0..WARM {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            touch(&pool, warm[(state % WARM as u64) as usize]);
        }
        if round >= WARM_UP {
            warm_misses += pool.stats().misses - misses;
        }
        touch(&pool, page);
    }
    println!("warm shard: {warm_misses} warm misses in {ROUNDS} rounds (fixed quarter: {PARENT_WARM_MISSES})");
    assert!(
        warm_misses * 4 <= PARENT_WARM_MISSES,
        "{warm_misses} warm misses; at most 25 % of the fixed quarter's {PARENT_WARM_MISSES} allowed"
    );
}

#[test]
fn an_allocated_page_in_use_survives_probation() {
    let (pool, once) = one_shard(FRAMES, 4 * FRAMES);
    let (a, ()) = pool.new_page_with(|_| ()).unwrap();
    // The creator keeps writing its page while one-touch faults stream
    // through the shard; a quarter of them would fill probation.
    for (i, &q) in once.iter().enumerate() {
        touch(&pool, q);
        if i % 4 == 3 {
            assert!(pool.contains(a), "the allocated page was evicted after {} faults", i + 1);
            pool.with_page_mut(a, |p| p.bytes_mut()[0] = i as u8).unwrap();
        }
    }
    assert_eq!(pool.stats().misses, 4 * FRAMES as u64, "only the one-touch pages missed");
}

/// The benchmark's `point_cold` shape: 200,000 rows at 60 per heap page,
/// a heap pool of 10 % of its 3,343 pages at the default shard count,
/// and requests of 4 distinct keys drawn from a scrambled Zipf — the
/// draw copied from the benchmark's generator, seeded as its connection 0.
mod point_cold {
    use nbb_storage::PageId;

    pub const HEAP_PAGES: usize = 3_343;
    pub const HEAP_FRAMES: usize = 335;
    const ROWS: u64 = 200_000;
    const ROWS_PER_PAGE: u64 = 60;
    const THETA: f64 = 0.99;
    const STRIDE: u64 = 123_457;

    fn mix(a: u64, b: u64) -> u64 {
        let mut z = a
            .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x632B_E59B_D9B4_E019);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An xorshift64* state, the Zipf constants of Gray et al. over the
    /// rows, and the rotation of the rank → key scramble.
    pub struct Stream {
        state: u64,
        zetan: f64,
        eta: f64,
        half_pow: f64,
        offset: u64,
    }

    impl Stream {
        pub fn new(seed: u64) -> Self {
            let name = b"point_cold".iter().fold(0, |h, &b| mix(h, u64::from(b)));
            let zetan: f64 = (1..=ROWS).map(|i| 1.0 / (i as f64).powf(THETA)).sum();
            let half_pow = 0.5f64.powf(THETA);
            Stream {
                state: mix(mix(seed, mix(name, 0)), 0x5851_F42D_4C95_7F2D) | 1,
                zetan,
                eta: (1.0 - (2.0 / ROWS as f64).powf(1.0 - THETA))
                    / (1.0 - (1.0 + half_pow) / zetan),
                half_pow,
                offset: mix(seed, 0x00C0_FFEE) % ROWS,
            }
        }

        fn key(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            let rank = if u * self.zetan < 1.0 {
                0
            } else if u * self.zetan < 1.0 + self.half_pow {
                1
            } else {
                let r = ROWS as f64 * (self.eta * u - self.eta + 1.0).powf(1.0 / (1.0 - THETA));
                (r as u64).min(ROWS - 1)
            };
            (rank * STRIDE + self.offset) % ROWS
        }

        /// The heap pages of one `GetMany`'s 4 distinct keys, as
        /// `HeapFile::read_many` hands them to the pool: each once, in
        /// page order.
        pub fn pages(&mut self, out: &mut Vec<PageId>) {
            let mut keys = Vec::with_capacity(4);
            while keys.len() < 4 {
                let k = self.key();
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            out.clear();
            out.extend(keys.iter().map(|k| PageId(k / ROWS_PER_PAGE)));
            out.sort_unstable();
            out.dedup();
        }
    }
}

/// Misses of `point_cold_shape_misses_at_most_88_percent_of_the_clock`
/// at the commit before 2Q, when the pool was a per-shard clock that
/// set the reference bit on every load (measured with this same test).
const PARENT_MISSES: u64 = 105_467;

#[test]
fn point_cold_shape_misses_at_most_88_percent_of_the_clock() {
    use point_cold::*;
    let disk = Arc::new(InMemoryDisk::new(4096));
    for _ in 0..HEAP_PAGES {
        disk.allocate().unwrap();
    }
    let pool = BufferPool::new(disk, HEAP_FRAMES);
    assert_eq!(pool.shards(), nbb_storage::DEFAULT_POOL_SHARDS);
    let mut stream = Stream::new(1);
    let mut pages = Vec::with_capacity(4);
    for _ in 0..50_000 {
        stream.pages(&mut pages);
        pool.with_page_batch(&pages, |_, _| ()).unwrap();
    }
    let misses = pool.stats().misses;
    println!("point_cold shape: {misses} misses (clock: {PARENT_MISSES})");
    assert!(
        misses * 100 <= PARENT_MISSES * 88,
        "{misses} misses; at most 88 % of the clock's {PARENT_MISSES} allowed"
    );
}

//! The paper's case for on-hit promotion (§2.1.1), replayed against
//! the admission that replaced it: key inserts eat a leaf's free region
//! from its edges while a skewed read stream keeps hitting a few
//! entries, so an entry that is hot must stay cached while the region
//! shrinks past the cold ones.
//!
//! The tree holds 200,000 keys bulk-loaded at 0.68 fill, with the
//! cache's 56-byte payloads in leaf free space (58-byte entries with
//! their 2-byte tag, as on the benchmark's whole-row geometry). Each request is one insert of a
//! uniformly random new key, which lands in a random leaf, followed by
//! one cached read of 4 distinct loaded keys drawn by scrambled Zipf
//! (θ 0.99). A miss populates the leaf as a reader would, with the
//! tuple's bytes; every hit's payload is checked against those bytes.
//! Of 60,000 requests the first fifth warms up, and the rest pin the
//! hit ratio.
//!
//! Measured on this replay with 64-byte entries (an 8-byte tuple id): a
//! hit ratio of 0.708 with the paper's on-hit promotion and random
//! eviction, 0.652 with neither, and 0.713 with admission by frequency
//! and no promotion — what the leaf cache does now, and 0.718 once
//! entries are named by a tag. The floor sits above promotion's ratio,
//! between it and admission's, so the mechanism that retired promotion
//! must keep doing its job. (The test keeps the name it had while
//! promotion did it.)

use nbb_btree::{BTree, BTreeOptions, CacheConfig, CacheStats};
use nbb_storage::{BufferPool, DiskManager, InMemoryDisk};
use nbb_workload::zipf::ScrambledZipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const ROWS: u64 = 200_000;
/// Loaded key `i` is `i << GAP`, leaving room for inserts between.
const GAP: u32 = 20;
const PAYLOAD: usize = 56;
const FILL: f64 = 0.68;
const REQUESTS: usize = 60_000;
const WARMUP: usize = REQUESTS / 5;
/// Under admission's 0.718, at the level promotion reached.
const FLOOR: f64 = 0.70;

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The heap's bytes for the tuple behind index value `value`.
fn payload(value: u64) -> [u8; PAYLOAD] {
    let mut p = [0u8; PAYLOAD];
    for (i, word) in p.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&mix(value, i as u64).to_le_bytes());
    }
    p
}

/// Replays the request stream drawn from `seed`; returns the cache's
/// counters at the end of the warm-up and at the end of the replay.
fn replay(seed: u64) -> (CacheStats, CacheStats) {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let pool = Arc::new(BufferPool::new(disk, 4_096));
    let opts = BTreeOptions { cache: Some(CacheConfig { payload_size: PAYLOAD }) };
    let loaded = (0..ROWS).map(|i| ((i << GAP).to_be_bytes().to_vec(), i));
    let tree = BTree::bulk_load(pool, 8, opts, loaded, FILL).unwrap();
    let zipf = ScrambledZipf::new(ROWS, 0.99, seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut warm = CacheStats::default();
    for i in 0..REQUESTS {
        if i == WARMUP {
            warm = tree.cache_stats();
        }
        tree.insert(&rng.gen_range(0..ROWS << GAP).to_be_bytes(), ROWS + i as u64).unwrap();
        let mut keys: Vec<u64> = Vec::with_capacity(4);
        while keys.len() < 4 {
            let key = zipf.sample(&mut rng) << GAP;
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys.sort_unstable();
        let keys: Vec<[u8; 8]> = keys.iter().map(|k| k.to_be_bytes()).collect();
        // Misses in key order: one populate run per leaf.
        let mut misses = Vec::new();
        for (key, m) in keys.iter().zip(tree.lookup_cached_many(&keys).unwrap()) {
            let value = m.value.expect("a loaded key stays in the index");
            match m.payload {
                Some(p) => assert_eq!(p, payload(value), "request {i}, key {key:?}"),
                None => misses.push((m.leaf, m.token, key, payload(value))),
            }
        }
        let runs: Vec<_> = misses.iter().map(|(l, t, k, p)| (*l, *t, &k[..], &p[..])).collect();
        tree.cache_populate_many(&runs).unwrap();
    }
    (warm, tree.cache_stats())
}

#[test]
fn promotion_keeps_hot_entries_ahead_of_key_inserts() {
    let (warm, s) = replay(1);
    let lookups = s.lookups - warm.lookups;
    assert_eq!(lookups, 4 * (REQUESTS - WARMUP) as u64);
    let ratio = (s.hits - warm.hits) as f64 / lookups as f64;
    println!("admission replay: hit ratio {ratio:.4} (floor {FLOOR}), at the end {s:?}");
    assert!(ratio >= FLOOR, "hit ratio {ratio:.4} fell below {FLOOR}: {s:?}");
}

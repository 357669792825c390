//! The access-frequency sketch a cached tree admits leaf-cache entries
//! by (TinyLFU: Einziger, Friedman and Manes, *ACM Transactions on
//! Storage* 2017).
//!
//! A count-min sketch of 4-bit saturating counters, laid out as
//! Caffeine lays its own: a key's four counters all sit in one 64-byte
//! block, one in each of four word pairs, so recording a lookup touches
//! one cache line and writes nothing once its counters are saturated.
//! Every lookup a cached reader probes is recorded by tuple id, hit or
//! miss; each time the tree's lookup count crosses a multiple of the
//! sample (ten lookups per key the sketch can tell apart), every
//! counter is halved, so the estimate follows recent frequency.
//!
//! Only relaxed loads and stores: no lock, no lock rank and no
//! read-modify-write. Two racing updates of one word may land as one,
//! and an increment racing a halving may undo it for that word; either
//! costs placement quality, never correctness.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters one word holds.
const PER_WORD: usize = 16;
/// Words per block: 64 bytes, one cache line.
const WORDS: usize = 8;
/// Counters one block holds.
const PER_BLOCK: usize = PER_WORD * WORDS;
/// Counters a key has.
const DEPTH: usize = 4;
/// A counter's ceiling.
pub(crate) const MAX_COUNT: u8 = 15;
/// Lookups per key-worth of counters between two halvings.
const SAMPLE_PER_KEY: u64 = 10;

/// One cache line of counters.
#[derive(Default)]
#[repr(align(64))]
struct Block([AtomicU64; WORDS]);

/// A count-min sketch of recent access frequency by tuple id.
pub(crate) struct Sketch {
    blocks: Box<[Block]>,
    /// Lookups between two halvings.
    sample: u64,
}

/// The splitmix64 finalizer: every bit of `x` reaches every bit out.
fn spread(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Sketch {
    /// A sketch of at least `counters` counters (rounded up to a power
    /// of two, and to one block at the least).
    pub(crate) fn new(counters: usize) -> Self {
        let counters = counters.max(PER_BLOCK).next_power_of_two();
        let blocks = (0..counters / PER_BLOCK).map(|_| Block::default()).collect();
        Sketch { blocks, sample: SAMPLE_PER_KEY * (counters / DEPTH) as u64 }
    }

    /// The sketch a leaf cache of `entry`-byte entries over a pool of
    /// `frames` pages of `page_size` bytes is sized to: 16 counters per
    /// entry a half-full leaf holds, in every frame.
    pub(crate) fn for_cache(frames: usize, page_size: usize, entry: usize) -> Self {
        use crate::node::{NODE_FOOTER_SIZE, NODE_HEADER_SIZE};
        let half_free = page_size.saturating_sub(NODE_HEADER_SIZE + NODE_FOOTER_SIZE) / 2;
        let per_leaf = (half_free / entry).max(1);
        Self::new(frames.saturating_mul(per_leaf).saturating_mul(16))
    }

    /// Counters this sketch holds.
    #[cfg(test)]
    pub(crate) fn counters(&self) -> usize {
        self.blocks.len() * PER_BLOCK
    }

    /// Lookups between two halvings.
    #[cfg(test)]
    pub(crate) fn sample(&self) -> u64 {
        self.sample
    }

    /// `id`'s four counters, as `(word, shift)` within its block.
    fn slots(&self, id: u64) -> (&Block, [(usize, u32); DEPTH]) {
        let h = spread(id);
        let block = &self.blocks[h as usize & (self.blocks.len() - 1)];
        let at = |i: usize| {
            let b = (h >> (32 + 8 * i)) as usize;
            (2 * i + (b & 1), 4 * ((b >> 1) & 15) as u32)
        };
        (block, [at(0), at(1), at(2), at(3)])
    }

    /// Counts one lookup of `id`.
    pub(crate) fn record(&self, id: u64) {
        let (block, slots) = self.slots(id);
        for (word, shift) in slots {
            let w = &block.0[word];
            let old = w.load(Ordering::Relaxed);
            if (old >> shift) & 15 < u64::from(MAX_COUNT) {
                // A load and a store, no read-modify-write: a racing
                // update of this word is lost, never carried over.
                w.store(old + (1 << shift), Ordering::Relaxed);
            }
        }
    }

    /// `id`'s estimated lookups since the halvings wore them down: the
    /// least of its four counters. With no halving between and no
    /// racing update lost, it is never below the true count (up to 15).
    pub(crate) fn estimate(&self, id: u64) -> u8 {
        let (block, slots) = self.slots(id);
        let count =
            |(word, shift): (usize, u32)| (block.0[word].load(Ordering::Relaxed) >> shift) & 15;
        slots.into_iter().map(count).min().unwrap_or(0) as u8
    }

    /// Called with the tree's lookup count as it was before `added`
    /// more: halves every counter when the count crosses a multiple of
    /// the sample.
    pub(crate) fn age(&self, before: u64, added: u64) {
        if (before + added) / self.sample != before / self.sample {
            for w in self.blocks.iter().flat_map(|b| &b.0) {
                let v = w.load(Ordering::Relaxed);
                w.store((v >> 1) & 0x7777_7777_7777_7777, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn sizing_rounds_up_to_a_power_of_two_of_whole_blocks() {
        assert_eq!(Sketch::new(1).counters(), PER_BLOCK);
        assert_eq!(Sketch::new(1000).counters(), 1024);
        assert_eq!(Sketch::new(1024).sample(), 10 * 256);
        // The benchmark's geometry: 1,800 index frames of 4 KiB, 64-byte
        // whole-row entries (31 in a half-full leaf): 1M counters, 512 KB.
        let s = Sketch::for_cache(1_800, 4096, 64);
        assert_eq!((s.counters(), s.blocks.len() * 64), (1 << 20, 512 << 10));
    }

    #[test]
    fn an_estimate_never_undercounts_before_a_halving() {
        let s = Sketch::new(1024);
        let mut truth: HashMap<u64, u8> = HashMap::new();
        let mut x = 7u64;
        for _ in 0..3_000 {
            x = spread(x);
            // 600 ids over 1,024 counters: collisions abound.
            let id = x % 600 + 1;
            s.record(id);
            let t = truth.entry(id).or_insert(0);
            *t = (*t + 1).min(MAX_COUNT);
        }
        for (&id, &t) in &truth {
            assert!(s.estimate(id) >= t, "id {id}: estimate {} < true {t}", s.estimate(id));
        }
    }

    #[test]
    fn counters_saturate_at_fifteen() {
        let s = Sketch::new(1 << 16);
        for n in 1..=40u8 {
            s.record(42);
            assert_eq!(s.estimate(42), n.min(MAX_COUNT));
        }
        // A saturated counter never carries into its neighbour: the
        // table holds four counters at 15 and nothing else.
        let nibbles = |w: u64| (0..16).map(|i| (w >> (4 * i)) & 15).sum::<u64>();
        let total: u64 =
            s.blocks.iter().flat_map(|b| &b.0).map(|w| nibbles(w.load(Ordering::Relaxed))).sum();
        assert_eq!(total, 4 * u64::from(MAX_COUNT));
    }

    #[test]
    fn a_halving_happens_exactly_at_the_sample_boundary() {
        let s = Sketch::new(1024);
        let sample = s.sample();
        for _ in 0..12 {
            s.record(9);
        }
        s.age(0, sample - 1);
        assert_eq!(s.estimate(9), 12, "one lookup short of the boundary");
        s.age(sample - 1, 1);
        assert_eq!(s.estimate(9), 6, "the lookup that reaches the boundary halves");
        s.age(sample, sample - 1);
        assert_eq!(s.estimate(9), 6);
        // A batch that jumps the next boundary halves once.
        s.age(2 * sample - 3, 7);
        assert_eq!(s.estimate(9), 3);
    }
}

//! The access-frequency sketch a cached tree admits leaf-cache entries
//! by (TinyLFU: Einziger, Friedman and Manes, *ACM Transactions on
//! Storage* 2017), and `nbb-core`'s hot set admits updated rows by.
//!
//! A count-min sketch of 4-bit saturating counters, laid out as
//! Caffeine lays its own: a key's four counters all sit in one 64-byte
//! block, one in each of four word pairs, so recording a lookup touches
//! one cache line and writes nothing once its counters are saturated.
//! The tree records every lookup a cached reader probes by tuple id,
//! hit or miss; each time the tree's lookup count crosses a multiple of
//! the sample (ten lookups per key the sketch can tell apart), every
//! counter is halved, so the estimate follows recent frequency.
//!
//! The table is allocated by the first record: a sketch nothing
//! records into (a cached index that is only built and persisted, a
//! table that is never updated) costs no memory, estimates 0 and has
//! nothing to halve.
//!
//! Only relaxed loads and stores: no lock, no lock rank and no
//! read-modify-write. Two racing updates of one word may land as one,
//! and an increment racing a halving may undo it for that word; either
//! costs placement quality, never correctness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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

/// A count-min sketch of recent access frequency by `u64` id.
pub struct Sketch {
    /// The counters, allocated by the first record.
    blocks: OnceLock<Box<[Block]>>,
    /// Counters the table holds once allocated: a power of two.
    counters: usize,
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
    /// of two, and to one block at the least). Nothing is allocated
    /// until the first [`Sketch::record`].
    pub fn new(counters: usize) -> Self {
        let counters = counters.max(PER_BLOCK).next_power_of_two();
        Sketch {
            blocks: OnceLock::new(),
            counters,
            sample: SAMPLE_PER_KEY * (counters / DEPTH) as u64,
        }
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
        self.counters
    }

    /// Lookups between two halvings.
    #[cfg(test)]
    pub(crate) fn sample(&self) -> u64 {
        self.sample
    }

    /// `id`'s four counters, as `(word, shift)` within its block of
    /// `blocks`.
    fn slots(blocks: &[Block], id: u64) -> (&Block, [(usize, u32); DEPTH]) {
        let h = spread(id);
        let block = &blocks[h as usize & (blocks.len() - 1)];
        let at = |i: usize| {
            let b = (h >> (32 + 8 * i)) as usize;
            (2 * i + (b & 1), 4 * ((b >> 1) & 15) as u32)
        };
        (block, [at(0), at(1), at(2), at(3)])
    }

    /// Counts one lookup of `id`; the first record allocates the table.
    pub fn record(&self, id: u64) {
        let blocks = self
            .blocks
            .get_or_init(|| (0..self.counters / PER_BLOCK).map(|_| Block::default()).collect());
        let (block, slots) = Self::slots(blocks, id);
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
    /// 0 before the first record.
    pub fn estimate(&self, id: u64) -> u8 {
        let Some(blocks) = self.blocks.get() else { return 0 };
        let (block, slots) = Self::slots(blocks, id);
        let count =
            |(word, shift): (usize, u32)| (block.0[word].load(Ordering::Relaxed) >> shift) & 15;
        slots.into_iter().map(count).min().unwrap_or(0) as u8
    }

    /// Called with the owner's lookup count as it was before `added`
    /// more: halves every counter when the count crosses a multiple of
    /// the sample. Nothing to halve before the first record.
    pub fn age(&self, before: u64, added: u64) {
        let Some(blocks) = self.blocks.get() else { return };
        if (before + added) / self.sample != before / self.sample {
            for w in blocks.iter().flat_map(|b| &b.0) {
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
        assert_eq!(s.counters(), 1 << 20);
        assert!(s.blocks.get().is_none(), "nothing allocated before a record");
        s.record(1);
        assert_eq!(s.blocks.get().map_or(0, |b| b.len() * 64), 512 << 10);
    }

    #[test]
    fn an_unrecorded_sketch_estimates_zero_and_halves_nothing() {
        let s = Sketch::new(1024);
        assert_eq!(s.estimate(7), 0);
        s.age(0, 3 * s.sample());
        assert!(s.blocks.get().is_none(), "neither allocates");
        s.record(7);
        assert_eq!(s.estimate(7), 1);
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
        let blocks = s.blocks.get().expect("recorded");
        let total: u64 =
            blocks.iter().flat_map(|b| &b.0).map(|w| nibbles(w.load(Ordering::Relaxed))).sum();
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

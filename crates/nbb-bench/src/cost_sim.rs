//! The Figure 2(b)/2(c) microbenchmark harness.
//!
//! Faithful to §2.1.4: "We assume that the index is fully in memory, and
//! simulate the index and buffer pool using large in-memory arrays. An
//! index cache miss must access a random page in the buffer pool, and a
//! buffer pool miss must read a page from an on-disk file."
//!
//! The *index* side uses real `nbb-btree` leaf pages and the real cache
//! probe (so the measured overhead is the implementation's, not a
//! model's); the buffer pool is an array of real slotted pages; the
//! "disk" is a large in-memory array whose reads are charged a
//! [`DiskModel`] latency on top of an actual page copy. Hit rates are
//! controlled exactly (Bernoulli draws), as the paper's axes require.
//!
//! Each point reports measured CPU ns/lookup and simulated I/O
//! ns/lookup; their sum is the cost the figures plot.

use nbb_btree::cache::{CacheConfig, CacheView, CacheViewMut};
use nbb_btree::node::{Node, NodeMut};
use nbb_storage::buffer::BufferPool;
use nbb_storage::disk::{DiskManager, DiskModel, InMemoryDisk};
use nbb_storage::page::{Page, PageId};
use nbb_storage::slotted::{SlottedPage, SlottedPageRef};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Shared configuration for the Figure 2(b)/(c) harness.
#[derive(Debug, Clone)]
pub struct CostSimConfig {
    /// Page size (bytes) for index leaves, buffer pool pages, and disk
    /// transfer units.
    pub page_size: usize,
    /// Number of real index leaf pages materialized.
    pub n_leaves: usize,
    /// Index key width (the paper's name_title key is 32 bytes).
    pub key_size: usize,
    /// Cached payload width (17 → 19-byte entries with the 2-byte tag;
    /// the paper's items, with an 8-byte tuple id, take 25).
    pub payload: usize,
    /// Buffer-pool array size in pages.
    pub bp_pages: usize,
    /// Disk latency model charged on buffer-pool misses.
    pub disk: DiskModel,
    /// Lookups per measured point.
    pub lookups: usize,
}

impl Default for CostSimConfig {
    fn default() -> Self {
        CostSimConfig {
            page_size: 8192,
            n_leaves: 64,
            key_size: 32,
            payload: 17,
            bp_pages: 2048,
            disk: DiskModel::default(),
            lookups: 100_000,
        }
    }
}

/// One measured point of Figure 2(b)/(c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPoint {
    /// Controlled index-cache hit rate (x axis).
    pub cache_hit_rate: f64,
    /// Controlled buffer-pool hit rate (line parameter).
    pub bp_hit_rate: f64,
    /// Measured CPU nanoseconds per lookup.
    pub cpu_ns: f64,
    /// Simulated disk nanoseconds per lookup.
    pub io_ns: f64,
}

impl CostPoint {
    /// Total cost in milliseconds per lookup (the figure's y axis).
    pub fn total_ms(&self) -> f64 {
        (self.cpu_ns + self.io_ns) / 1e6
    }

    /// Total cost in microseconds per lookup (Figure 2(c)'s axis).
    pub fn total_us(&self) -> f64 {
        (self.cpu_ns + self.io_ns) / 1e3
    }
}

/// The materialized arrays behind one harness run.
pub struct CostSim {
    cfg: CostSimConfig,
    cache_cfg: CacheConfig,
    /// Real index leaves, caches fully populated.
    leaves: Vec<Page>,
    /// Tags cached per leaf (probe targets for forced hits).
    cached_tags: Vec<Vec<u16>>,
    /// Buffer pool: the real pool, fully resident slotted heap pages.
    bp_pool: Arc<BufferPool>,
    bp_ids: Vec<PageId>,
    /// "Disk": raw bytes we copy pages out of on a miss.
    disk_bytes: Vec<u8>,
    /// Scratch frame receiving disk reads.
    frame: Page,
}

impl CostSim {
    /// Builds the arrays: leaves at ~68% fill with fully-populated
    /// caches, heap pages with 100-byte tuples, and a disk image.
    pub fn build(cfg: CostSimConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cache_cfg = CacheConfig { payload_size: cfg.payload };
        let mut leaves = Vec::with_capacity(cfg.n_leaves);
        let mut cached_tags = Vec::with_capacity(cfg.n_leaves);
        let mut next_id = 1u64;
        for _ in 0..cfg.n_leaves {
            let mut page = Page::new(cfg.page_size);
            {
                let mut node = NodeMut::init_leaf(&mut page, cfg.key_size);
                let cap = node.as_ref().capacity();
                let fill = (cap as f64 * 0.68) as usize;
                for _ in 0..fill {
                    let mut key = vec![0u8; cfg.key_size];
                    key[..8].copy_from_slice(&next_id.to_be_bytes());
                    node.append_sorted(&key, next_id);
                    next_id += 1;
                }
            }
            // Cache as many keys as there are slots, each entry tagged
            // with its key's directory cell: every store lands in a free
            // slot (no evictions, so every recorded tag stays probeable).
            let capacity = CacheView::new(&page, cfg.key_size, &cache_cfg).capacity();
            let node = Node::new(&page, cfg.key_size);
            let tags: Vec<u16> = (0..node.nkeys().min(capacity)).map(|i| node.cell_at(i)).collect();
            {
                use nbb_btree::cache::{Admission, StoreOutcome};
                let mut cv = CacheViewMut::new(&mut page, cfg.key_size, &cache_cfg);
                let payload = vec![0xCD_u8; cfg.payload];
                for &tag in &tags {
                    let stored = cv.store(tag, &payload, Admission::Free, &mut rng);
                    assert_eq!(stored, StoreOutcome::Stored, "a free slot remains for every entry");
                }
            }
            assert!(!tags.is_empty(), "leaves must have cache room at 68% fill");
            leaves.push(page);
            cached_tags.push(tags);
        }
        // Buffer pool: a *real* BufferPool (page-table lookup, pin,
        // frame latch) holding slotted pages of 100-byte tuples, all
        // resident — so a "BP hit" pays exactly the machinery the index
        // cache lets queries skip ("we avoid … the memory access to the
        // buffer pool", §2.1.4).
        let bp_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(cfg.page_size));
        let bp_pool = Arc::new(BufferPool::new(bp_disk, cfg.bp_pages));
        let mut bp_ids = Vec::with_capacity(cfg.bp_pages);
        for _ in 0..cfg.bp_pages {
            let (pid, ()) = bp_pool
                .new_page_with(|p| {
                    let mut sp = SlottedPage::init(p);
                    while sp.insert(&[0xAB; 100]).is_ok() {}
                })
                .expect("in-memory pool");
            bp_ids.push(pid);
        }
        // Prefault every page into its frame.
        for pid in &bp_ids {
            bp_pool.with_page(*pid, |_| ()).expect("resident");
        }
        // Disk image: 2x the buffer pool, arbitrary bytes.
        let disk_bytes = vec![0x5A_u8; cfg.page_size * cfg.bp_pages.max(16) * 2];
        let frame = Page::new(cfg.page_size);
        CostSim { cfg, cache_cfg, leaves, cached_tags, bp_pool, bp_ids, disk_bytes, frame }
    }

    /// Touches a random buffer-pool page through the real pool: page
    /// table, pin, frame latch, slotted-page parse, tuple read.
    fn bp_touch(&self, rng: &mut SmallRng) -> u64 {
        let pid = self.bp_ids[rng.gen_range(0..self.bp_ids.len())];
        let slot_pick = rng.gen::<u64>();
        self.bp_pool
            .with_page(pid, |page| {
                let sp = SlottedPageRef::attach(page).expect("bp pages are slotted");
                let slot = (slot_pick % sp.live_count() as u64) as u16;
                let t = sp.get(slot).expect("live");
                u64::from(t[0]) + u64::from(t[t.len() - 1])
            })
            .expect("resident page")
    }

    /// Copies a random page from the disk image into the frame (the
    /// bandwidth cost of a read; latency is charged separately).
    fn disk_read(&mut self, rng: &mut SmallRng) {
        let pages = self.disk_bytes.len() / self.cfg.page_size;
        let off = rng.gen_range(0..pages) * self.cfg.page_size;
        self.frame.bytes_mut().copy_from_slice(&self.disk_bytes[off..off + self.cfg.page_size]);
    }

    /// Runs one point with exact hit-rate control.
    ///
    /// `use_cache = false` gives Figure 2(c)'s `nocache` baseline (no
    /// probe, straight to the buffer pool).
    pub fn run_point(
        &mut self,
        cache_hit: f64,
        bp_hit: f64,
        use_cache: bool,
        seed: u64,
    ) -> CostPoint {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut io_events = 0u64;
        let mut sink = 0u64;
        let start = Instant::now();
        for _ in 0..self.cfg.lookups {
            let leaf_i = rng.gen_range(0..self.leaves.len());
            if use_cache {
                let force_hit = rng.gen_bool(cache_hit);
                let probe_tag = if force_hit {
                    let tags = &self.cached_tags[leaf_i];
                    tags[rng.gen_range(0..tags.len())]
                } else {
                    1 // no key entry starts inside the header: full scan, then miss path
                };
                let view = CacheView::new(&self.leaves[leaf_i], self.cfg.key_size, &self.cache_cfg);
                match view.probe(probe_tag) {
                    Some((_, payload)) => {
                        sink += u64::from(payload[0]);
                        continue; // answered from the index page
                    }
                    None => debug_assert!(!force_hit, "forced hit must probe successfully"),
                }
            }
            // Cache miss (or nocache): go to the buffer pool.
            if rng.gen_bool(bp_hit) {
                sink += self.bp_touch(&mut rng);
            } else {
                self.disk_read(&mut rng);
                io_events += 1;
                sink += u64::from(self.frame.bytes()[0]);
            }
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        black_box(sink);
        CostPoint {
            cache_hit_rate: cache_hit,
            bp_hit_rate: bp_hit,
            cpu_ns: elapsed / self.cfg.lookups as f64,
            io_ns: io_events as f64 * self.cfg.disk.read_ns as f64 / self.cfg.lookups as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CostSimConfig {
        CostSimConfig {
            n_leaves: 8,
            bp_pages: 64,
            lookups: 20_000,
            disk: DiskModel { read_ns: 10_000_000, write_ns: 10_000_000 },
            ..Default::default()
        }
    }

    #[test]
    fn forced_hits_actually_hit() {
        let mut sim = CostSim::build(small_cfg(), 1);
        let p = sim.run_point(1.0, 1.0, true, 2);
        assert_eq!(p.io_ns, 0.0, "100% cache hits never reach the disk");
        assert!(p.cpu_ns > 0.0);
    }

    #[test]
    fn io_cost_scales_with_miss_rates() {
        let mut sim = CostSim::build(small_cfg(), 3);
        let all_miss = sim.run_point(0.0, 0.0, true, 4);
        let half_bp = sim.run_point(0.0, 0.5, true, 4);
        let all_bp = sim.run_point(0.0, 1.0, true, 4);
        // 0% bp hits: every lookup pays one disk read (10 ms).
        assert!((all_miss.io_ns - 1e7).abs() < 1e6, "io {:.0}", all_miss.io_ns);
        assert!(half_bp.io_ns < all_miss.io_ns);
        assert_eq!(all_bp.io_ns, 0.0);
    }

    #[test]
    fn cache_hits_cheaper_than_bp_access() {
        // The 2.7x claim of Figure 2(c): an index-cache answer beats the
        // buffer-pool path even when the pool always hits. Relative
        // wall-clock costs only mean anything in optimized builds, so
        // the strict comparison is release-only; debug checks the paths.
        let mut sim = CostSim::build(small_cfg(), 5);
        let cached = sim.run_point(1.0, 1.0, true, 6);
        let nocache = sim.run_point(0.0, 1.0, false, 6);
        assert!(cached.cpu_ns > 0.0 && nocache.cpu_ns > 0.0);
        #[cfg(not(debug_assertions))]
        assert!(
            cached.cpu_ns < nocache.cpu_ns,
            "cache hit {:.0}ns should beat bp access {:.0}ns",
            cached.cpu_ns,
            nocache.cpu_ns
        );
    }

    #[test]
    fn total_units_consistent() {
        let p = CostPoint { cache_hit_rate: 0.0, bp_hit_rate: 0.0, cpu_ns: 500.0, io_ns: 9_500.0 };
        assert!((p.total_ms() - 0.01).abs() < 1e-12);
        assert!((p.total_us() - 10.0).abs() < 1e-12);
    }
}

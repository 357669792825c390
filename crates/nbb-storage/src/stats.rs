//! Shared I/O and buffer-pool statistics counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of disk-level I/O activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Number of page reads served by the disk.
    pub reads: u64,
    /// Number of page writes applied to the disk.
    pub writes: u64,
    /// Simulated time spent in reads, in nanoseconds (0 for unmodeled disks).
    pub sim_read_ns: u64,
    /// Simulated time spent in writes, in nanoseconds.
    pub sim_write_ns: u64,
}

impl IoStats {
    /// Total simulated I/O time in nanoseconds.
    pub fn sim_total_ns(&self) -> u64 {
        self.sim_read_ns + self.sim_write_ns
    }
}

/// Thread-safe accumulator behind every disk implementation.
#[derive(Debug, Default)]
pub struct AtomicIoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    sim_read_ns: AtomicU64,
    sim_write_ns: AtomicU64,
}

impl AtomicIoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one read costing `sim_ns` simulated nanoseconds.
    #[inline]
    pub fn record_read(&self, sim_ns: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.sim_read_ns.fetch_add(sim_ns, Ordering::Relaxed);
    }

    /// Records one write costing `sim_ns` simulated nanoseconds.
    #[inline]
    pub fn record_write(&self, sim_ns: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.sim_write_ns.fetch_add(sim_ns, Ordering::Relaxed);
    }

    /// Returns a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            sim_read_ns: self.sim_read_ns.load(Ordering::Relaxed),
            sim_write_ns: self.sim_write_ns.load(Ordering::Relaxed),
        }
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.sim_read_ns.store(0, Ordering::Relaxed);
        self.sim_write_ns.store(0, Ordering::Relaxed);
    }
}

/// Snapshot of buffer-pool behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Page requests satisfied by an already-resident frame.
    pub hits: u64,
    /// Page requests that found no resident frame (`faults +
    /// fault_joins`: either they started a load or parked on one).
    pub misses: u64,
    /// Frames reclaimed to make room.
    pub evictions: u64,
    /// Dirty pages handed off for write-back: enqueued to the
    /// write-behind queue, or written synchronously (flush, queue-full
    /// fallback, or a pool with write-behind disabled).
    pub writebacks: u64,
    /// Page loads actually started (one per fault, however many
    /// requesters were waiting for it). Loads served from the
    /// write-behind store count here but never reach the disk.
    pub faults: u64,
    /// Requests that parked on another requester's in-flight load
    /// instead of issuing a duplicate read (co-waiter joins).
    pub fault_joins: u64,
    /// Dirty victims enqueued to the write-behind queue.
    pub wb_enqueued: u64,
    /// Write-behind queue entries flushed to disk in the background.
    pub wb_flushed: u64,
    /// Dirty evictions that fell back to a **synchronous** write under
    /// the shard map lock because the write-behind queue was full or a
    /// flush barrier was draining it. This is the documented regime
    /// where the stripe stalls for a device write again — a steadily
    /// climbing count means the queue depth (`DbConfig::write_behind`)
    /// is undersized for the eviction rate.
    pub wb_sync_fallbacks: u64,
    /// Current write-behind queue depth (a gauge, not a counter: it
    /// reflects pages evicted-but-unflushed at snapshot time and is
    /// untouched by `reset_stats`).
    pub wb_pending: u64,
    /// Faults served by decompressing a page from the compressed frame
    /// tier instead of reading the disk. These still count in `misses`
    /// and `faults` (the frame machinery ran); the hit here is avoiding
    /// the device. See [`PoolStats::effective_hit_rate`].
    pub compressed_hits: u64,
    /// Compressed entries pushed out of the tier to stay within
    /// `compressed_budget_bytes`.
    pub compressed_evictions: u64,
    /// Requesters that parked on an in-flight **decompress** fault
    /// (the subset of `fault_joins` whose load was served from the
    /// compressed tier).
    pub decompress_stalls: u64,
    /// Raw bytes of every page admitted to the compressed tier
    /// (numerator of the achieved compression ratio).
    pub compressed_ratio_num: u64,
    /// Stored (encoded) bytes of every page admitted to the compressed
    /// tier (denominator of the achieved compression ratio).
    pub compressed_ratio_den: u64,
    /// Pages currently held compressed (a gauge, like `wb_pending`).
    pub compressed_pages: u64,
    /// Bytes currently held compressed (a gauge, like `wb_pending`).
    pub compressed_bytes: u64,
    /// Always 0; kept only until a `benchmark` PR drops
    /// `pool.prefetch_hit_ratio` (the pool faults on demand only, and
    /// `benchmark/src/run.rs` still names this field).
    pub prefetch_issued: u64,
    /// Always 0; kept only until a `benchmark` PR drops
    /// `pool.prefetch_hit_ratio`.
    pub prefetch_hits: u64,
    /// Disk reads issued by the pool's fault path (each one
    /// [`crate::disk::DiskManager::read_many`] call, however many pages
    /// it carried — a point fault is a call of one page).
    pub read_batches: u64,
    /// Pages carried by those reads;
    /// `read_pages / read_batches` is the achieved read coalescing
    /// factor.
    pub read_pages: u64,
}

impl PoolStats {
    /// Hit rate in `[0, 1]`; 0 when no requests were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of requests that avoided the disk: raw frame hits plus
    /// faults served by decompressing a tier entry. With the compressed
    /// tier disabled this equals [`PoolStats::hit_rate`].
    pub fn effective_hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.compressed_hits) as f64 / total as f64
        }
    }

    /// Achieved compression ratio (raw bytes / stored bytes) over every
    /// page admitted to the compressed tier; 0 when none were.
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_ratio_den == 0 {
            0.0
        } else {
            self.compressed_ratio_num as f64 / self.compressed_ratio_den as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = AtomicIoStats::new();
        s.record_read(100);
        s.record_read(50);
        s.record_write(7);
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.sim_read_ns, 150);
        assert_eq!(snap.sim_write_ns, 7);
        assert_eq!(snap.sim_total_ns(), 157);
    }

    #[test]
    fn reset_zeroes() {
        let s = AtomicIoStats::new();
        s.record_read(1);
        s.reset();
        assert_eq!(s.snapshot(), IoStats::default());
    }

    #[test]
    fn hit_rate_edges() {
        let z = PoolStats::default();
        assert_eq!(z.hit_rate(), 0.0);
        let p = PoolStats { hits: 3, misses: 1, ..Default::default() };
        assert!((p.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn compression_helper_edges() {
        let z = PoolStats::default();
        assert_eq!(z.compression_ratio(), 0.0);
        assert_eq!(z.effective_hit_rate(), 0.0);
        let p = PoolStats {
            hits: 2,
            misses: 2,
            compressed_hits: 1,
            compressed_ratio_num: 4096,
            compressed_ratio_den: 1024,
            ..Default::default()
        };
        assert!((p.hit_rate() - 0.5).abs() < 1e-12);
        assert!((p.effective_hit_rate() - 0.75).abs() < 1e-12);
        assert!((p.compression_ratio() - 4.0).abs() < 1e-12);
    }
}

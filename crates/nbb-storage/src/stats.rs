//! Shared I/O and buffer-pool statistics counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of disk-level I/O activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Number of page reads served by the disk.
    pub reads: u64,
    /// Number of page writes applied to the disk.
    pub writes: u64,
}

/// Thread-safe accumulator behind every disk implementation.
#[derive(Debug, Default)]
pub struct AtomicIoStats {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl AtomicIoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one page read.
    #[inline]
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one page write.
    #[inline]
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
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
    /// Always 0; kept only until a `benchmark` PR drops
    /// `pool.compressed_hit_ratio` (the pool has no compressed frame
    /// tier, and `benchmark/src/run.rs` still names this field).
    pub compressed_hits: u64,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = AtomicIoStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = AtomicIoStats::new();
        s.record_read();
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
}

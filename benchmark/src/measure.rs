//! Counter snapshots at window boundaries, process statistics, and the
//! arithmetic that turns samples and counter deltas into metrics.

use crate::disk::DiskCounts;
use crate::load::Sample;
use crate::setup::Env;
use crate::{gen, Res};
use nbb_btree::{CacheStats, WriteStats};
use nbb_core::table::TableStats;
use nbb_proto::WireServerStats;
use nbb_storage::stats::PoolStats;

/// Statistics of this process, read from `/proc/self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Proc {
    /// User + system CPU time of every thread, in clock ticks of 10 ms.
    pub cpu_ticks: u64,
    /// Voluntary + involuntary context switches of the live threads.
    pub ctx_switches: u64,
    pub threads: u64,
    pub rss_kb: u64,
    pub rss_peak_kb: u64,
}

fn status_kb(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

impl Proc {
    pub fn read() -> Proc {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let stat = read("/proc/self/stat");
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the line, so the 12th and 13th here.
        let after_comm: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let tick = |i: usize| after_comm.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        let status = read("/proc/self/status");
        let mut p = Proc {
            cpu_ticks: tick(11) + tick(12),
            rss_kb: status_kb(&status, "VmRSS"),
            rss_peak_kb: status_kb(&status, "VmHWM"),
            ..Proc::default()
        };
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let s = read(&format!("{}/status", task.path().display()));
                p.threads += 1;
                p.ctx_switches += status_kb(&s, "voluntary_ctxt_switches")
                    + status_kb(&s, "nonvoluntary_ctxt_switches");
            }
        }
        p
    }
}

/// Every public counter the benchmark reads, at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub at_ns: u64,
    pub heap_disk: DiskCounts,
    pub index_disk: DiskCounts,
    pub device_busy_ns: u64,
    /// Most device calls in flight at once since the previous snapshot.
    pub device_in_flight_max: u64,
    pub heap_pool: PoolStats,
    pub index_pool: PoolStats,
    pub table: TableStats,
    pub cache: CacheStats,
    pub tree_writes: WriteStats,
    pub server: WireServerStats,
    pub proc: Proc,
}

impl Snapshot {
    pub fn take(env: &Env) -> Res<Snapshot> {
        let table = env.table()?;
        let index = table.index(gen::INDEX)?;
        let (heap_pool, index_pool) = env.db.pool_stats();
        Ok(Snapshot {
            at_ns: env.log.now_ns(),
            heap_disk: env.heap_disk.counts(),
            index_disk: env.index_disk.counts(),
            device_busy_ns: env.device.busy_ns(),
            device_in_flight_max: env.device.take_in_flight_max(),
            heap_pool,
            index_pool,
            table: table.stats(),
            cache: index.tree().cache_stats(),
            tree_writes: index.tree().write_stats(),
            server: env.server.stats(),
            proc: Proc::read(),
        })
    }

    pub fn disks(&self) -> DiskCounts {
        self.heap_disk.plus(self.index_disk)
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `p`-quantile (0 < p ≤ 1) of `values`, nearest rank; 0 when empty.
pub fn quantile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, interpolating linearly
/// between the two nearest ranks; 0 when empty.
pub fn quantile_f64(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let Some(last) = values.len().checked_sub(1) else { return 0.0 };
    let pos = p.clamp(0.0, 1.0) * last as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    values[lo] + frac * (values[(lo + 1).min(last)] - values[lo])
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    quantile_f64(values, 0.5)
}

/// The requests redeemed inside one window, summarised.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub seconds: f64,
    /// Requests redeemed in the window, and those of them that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Rows returned or written by the verified requests.
    pub rows: u64,
    /// Due → redeemed, nanoseconds, verified requests only.
    pub latencies_ns: Vec<u64>,
    /// Time inside `Client::submit`, nanoseconds.
    pub submits_ns: Vec<u64>,
    /// Sent − due, nanoseconds: how late the generator ran.
    pub lags_ns: Vec<u64>,
}

impl Window {
    pub fn of(samples: &[Sample], from_ns: u64, to_ns: u64) -> Window {
        let mut w = Window { seconds: (to_ns - from_ns) as f64 / 1e9, ..Window::default() };
        for s in samples.iter().filter(|s| (from_ns..to_ns).contains(&s.done_ns())) {
            w.attempted += 1;
            if !s.ok {
                w.failed += 1;
                continue;
            }
            w.rows += s.rows as u64;
            w.latencies_ns.push(s.latency_ns as u64);
            w.submits_ns.push(s.submit_ns as u64);
            w.lags_ns.push(s.lag_ns as u64);
        }
        w
    }

    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn req_per_s(&self) -> f64 {
        ratio(self.verified() as f64, self.seconds)
    }

    /// User bytes moved: rows returned or written × tuple width.
    pub fn user_bytes(&self) -> f64 {
        (self.rows * gen::TUPLE as u64) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [7], 0.99), 7);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&mut []), 0.0);
        let mut five = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile_f64(&mut five, 0.25), 20.0);
        assert_eq!(quantile_f64(&mut five, 0.9), 46.0);
        assert_eq!(quantile_f64(&mut five, 1.0), 50.0);
    }

    #[test]
    fn a_window_keeps_only_what_was_redeemed_inside_it() {
        let s = |done_ns: u64, ok| Sample {
            due_ns: done_ns - 10,
            latency_ns: 10,
            lag_ns: 2,
            submit_ns: 1,
            ticket: 0,
            rows: 4,
            conn: 0,
            is_write: false,
            ok,
        };
        let w = Window::of(&[s(50, true), s(100, true), s(150, false), s(200, true)], 100, 200);
        assert_eq!((w.attempted, w.failed, w.rows), (2, 1, 4));
        assert_eq!((w.latencies_ns.as_slice(), w.lags_ns.as_slice()), (&[10][..], &[2][..]));
    }

    #[test]
    fn proc_statistics_are_readable_here() {
        let p = Proc::read();
        assert!(p.threads >= 1 && p.rss_kb > 0 && p.rss_peak_kb >= p.rss_kb);
    }
}

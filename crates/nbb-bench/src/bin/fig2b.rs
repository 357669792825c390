//! Figure 2(b): cost per lookup vs index-cache hit rate, one line per
//! buffer-pool hit rate (0, 60, 90, 96, 100%), log-scale y in ms.
//!
//! Costs are measured CPU (real leaf-page probes, real buffer pool)
//! plus modeled disk latency (10 ms/read, substituting for the paper's
//! real disk).

use nbb_bench::cost_sim::{CostSim, CostSimConfig};
use nbb_bench::report::{f, print_table};

fn main() {
    let cfg = CostSimConfig::default();
    let lookups = cfg.lookups;
    let mut sim = CostSim::build(cfg, 7);
    let cache_rates = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.96, 1.0];
    let bp_rates = [0.0, 0.6, 0.9, 0.96, 1.0];

    let mut rows = Vec::new();
    for &bp in &bp_rates {
        for &ch in &cache_rates {
            let p = sim.run_point(ch, bp, true, 99);
            rows.push(vec![
                f(bp * 100.0, 0),
                f(ch * 100.0, 0),
                f(p.total_ms(), 6),
                f(p.cpu_ns / 1000.0, 2),
                f(p.io_ns / 1e6, 4),
            ]);
        }
    }
    print_table(
        &format!("Figure 2(b): cost/lookup as cache and buffer-pool hit rates vary ({lookups} lookups/point, 10ms disk model)"),
        &["bp_hit_%", "cache_hit_%", "cost_ms", "cpu_us", "io_ms"],
        &rows,
    );
    println!("\npaper shape: cost monotonically falls with cache hit rate; lines order by");
    println!("buffer-pool hit rate; spread spans orders of magnitude (log-scale axis).");
}

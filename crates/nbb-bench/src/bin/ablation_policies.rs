//! Hit-rate ablations for the cache-management design choices:
//!
//! * the swap-toward-S policy vs random placement without promotion
//!   (does promotion actually protect hot entries? — §2.1.1's core
//!   design claim);
//! * bucket size `N` (ring granularity of the promotion ladder).
//!
//! The policy ablation runs under the Shrink workload, where placement
//! matters: the periphery gets overwritten, so hit rates only survive
//! if hot items migrated inward.

use nbb_bench::report::{f, print_table};
use nbb_bench::swap_sim::{fig2a_point_with, Fig2aMode, Policy};

fn main() {
    let n_items = 20_000;
    let lookups = 100_000;
    let alpha = 1.0;

    // Policy ablation across cache sizes.
    let mut rows = Vec::new();
    for &pct in &[5.0, 10.0, 25.0, 50.0] {
        let paper = fig2a_point_with(
            n_items,
            pct,
            Fig2aMode::Shrink,
            lookups,
            alpha,
            3,
            8,
            Policy::PaperSwap,
        );
        let random = fig2a_point_with(
            n_items,
            pct,
            Fig2aMode::Shrink,
            lookups,
            alpha,
            3,
            8,
            Policy::RandomNoPromote,
        );
        rows.push(vec![f(pct, 0), f(paper, 3), f(random, 3), f(paper - random, 3)]);
    }
    print_table(
        &format!("ablation: swap-toward-S vs random/no-promotion (Shrink workload, alpha={alpha})"),
        &["cache_%", "paper_policy", "random_no_promote", "advantage"],
        &rows,
    );

    // Bucket size ablation at the paper's 25% operating point.
    let mut rows = Vec::new();
    for &n in &[2usize, 4, 8, 16, 32, 64] {
        let swap = fig2a_point_with(
            n_items,
            25.0,
            Fig2aMode::Swap,
            lookups,
            alpha,
            3,
            n,
            Policy::PaperSwap,
        );
        let shrink = fig2a_point_with(
            n_items,
            25.0,
            Fig2aMode::Shrink,
            lookups,
            alpha,
            3,
            n,
            Policy::PaperSwap,
        );
        rows.push(vec![n.to_string(), f(swap, 3), f(shrink, 3)]);
    }
    print_table(
        "ablation: bucket size N at 25% cache",
        &["bucket_slots", "swap_hit", "shrink_hit"],
        &rows,
    );
    println!("\nexpectation: promotion should protect hot entries under Shrink; N trades");
    println!("promotion granularity against swap distance (flat optimum is fine).");
}

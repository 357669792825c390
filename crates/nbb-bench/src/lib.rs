//! # nbb-bench — experiment harness for *No Bits Left Behind*
//!
//! Shared simulation machinery behind the figure-regeneration binaries:
//!
//! * [`swap_sim`] — the abstract cache-policy simulator of Figure 2(a);
//! * [`cost_sim`] — the index/buffer-pool/disk cost harness of
//!   Figures 2(b) and 2(c), using real leaf pages and slotted pages;
//! * [`fig3`] — the end-to-end clustering/partitioning experiment of
//!   Figure 3 over the full storage stack;
//! * [`report`] — aligned text tables for stdout.
//!
//! Binaries (`cargo run --release -p nbb-bench --bin <name>`):
//! `fig2a`, `fig2b`, `fig2c`, `fig3`, `capacity_analysis`,
//! `table_encoding`, `headline`. Criterion microbenchmarks live under
//! `benches/`.

#![warn(missing_docs)]

pub mod cost_sim;
pub mod fig3;
pub mod report;
pub mod swap_sim;

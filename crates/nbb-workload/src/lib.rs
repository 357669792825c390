//! # nbb-workload — workload substrate for *No Bits Left Behind*
//!
//! The paper evaluates against Wikipedia's database and a 2-hour Apache
//! log trace, neither of which ships with this reproduction. This crate
//! builds the closest synthetic equivalents:
//!
//! * [`zipf`] — O(1) zipfian sampling (the paper's α = 0.5 page skew),
//!   plus a scrambled variant that scatters hot items across the id
//!   space;
//! * [`wikipedia`] — MediaWiki-schema `page`/`revision` generators that
//!   reproduce the distributional facts the paper reports (string
//!   timestamps, 5% hot latest-revisions scattered one per page);
//! * [`trace`] — query traces: zipfian page lookups (§2.1.4) and the
//!   99.9%-hot revision workload (§3.1).
//!
//! Everything is seeded and deterministic so figures regenerate exactly.

#![warn(missing_docs)]

pub mod trace;
pub mod wikipedia;
pub mod zipf;

pub use trace::{page_lookup_trace, profile, revision_lookup_trace, TraceOp, TraceProfile};
pub use wikipedia::{
    format_timestamp, parse_timestamp, PageRow, RevisionRow, WikiGenerator, COMMENT_WIDTH,
    PAGE_ROW_WIDTH, REVISION_ROW_WIDTH, TITLE_WIDTH,
};
pub use zipf::{ScrambledZipf, Zipf};

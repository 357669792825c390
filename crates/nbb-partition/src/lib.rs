//! # nbb-partition — vertical partitioning (*No Bits Left Behind* §3)
//!
//! "Locality waste" is I/O and memory spent on bytes co-located with the
//! data a query actually wants. §3.1's horizontal case — hot rows
//! scattered over cold heap pages — is handled inside the engine: an
//! update that faults a cold heap page swaps its row onto a resident
//! hot page (`nbb-core`'s `table/hot.rs`). What stays here is
//! [`vertical`], §3.2: a column-group cost model, greedy partitioning
//! optimizer, and a working [`vertical::VerticalTable`] store.

#![warn(missing_docs)]

pub mod vertical;

pub use vertical::{evaluate, optimize, Partitioning, QueryClass, VerticalTable};

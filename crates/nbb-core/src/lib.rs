//! # nbb-core — the *No Bits Left Behind* system facade
//!
//! Ties the substrates into the system the paper envisions:
//!
//! * [`db`] — a small database: separate data/index buffer pools over
//!   (optionally latency-modeled) disks, named tables. Each pool is
//!   lock-striped; the [`db::DbConfig::pool_shards`] knob sizes the
//!   stripe count (clamped so tiny experiment pools stay single-stripe);
//! * [`table`] — fixed-width-tuple tables with cached secondary
//!   indexes: [`query::IndexRef::project`] is the paper's §2.1
//!   hot path (index-cache hit → no heap access), and updates/deletes
//!   keep the leaf cache exact automatically (§2.1.2's duty, done at
//!   the writer's leaf latch). Reads are
//!   fully concurrent (index→heap chases re-verify the fetched key, so
//!   racing deletes read as absent). Writers crab through per-leaf
//!   latches underneath, so mutators on **disjoint keys** proceed in
//!   parallel — across threads and across tables — with only
//!   structural splits briefly excluding other tree users; writers on
//!   the **same key** are first-class too: every put/update/delete
//!   installs a key-level *write intent* ([`nbb_btree::KeyIntents`])
//!   before resolving anything, racing same-key writers park on it
//!   with a pre-granted handoff, and per-key writes through one index
//!   are linearizable end to end (one racing deleter wins `true`, the
//!   rest observe its completed delete as `false` — no silently
//!   dropped rows, no tolerated writer-side `InvalidSlot`s).
//!   `table::TableStats::intent_parks` / `intent_handoffs` meter the
//!   intent table.
//!   Batched mutators ([`table::Table::insert_many`] and the
//!   `update_many`/`delete_many`/`put_many` family) validate up front
//!   — duplicate in-batch keys surface
//!   [`nbb_storage::error::StorageError::DuplicateKeyInBatch`] — and
//!   amortize one descent + one page latch per leaf and per heap page
//!   touched, visible as `write_batches` vs `inserts` in
//!   [`table::Table::stats`];
//! * [`query`] — the handle-based query surface:
//!   [`query::IndexRef`] handles from [`table::Table::index`] skip the
//!   per-call name lookup; [`query::IndexRef::get_many`] /
//!   [`query::IndexRef::project_many`] and their write counterparts
//!   [`query::IndexRef::put_many`] / [`query::IndexRef::update_many`]
//!   / [`query::IndexRef::delete_many`] amortize lock acquisitions and
//!   leaf visits across N keys, and every point operation on a handle
//!   is its batched form with a batch of one; [`query::IndexRef::range`] /
//!   [`query::IndexRef::range_projected`] walk the leaves in key
//!   order, serving projections from leaf free space and refilling by
//!   row budget (`.limit(n)`): the leaves a refill is sure to need in
//!   one batched fault, its heap rows in one batched read, buffered in
//!   flat arenas; [`query::IndexRef::range_pages`] refills a group of
//!   pages together and lends their rows out as slices;
//! * [`row`] — typed table declarations: [`row::RowSchema`] derives
//!   field geometry and order-preserving key bytes from an
//!   [`nbb_encoding::Schema`], so rows read/write as
//!   [`nbb_encoding::Value`]s;
//! * [`waste`] — the §1 vision of "tools that automate waste
//!   detection": one audit spanning unused space, locality, and
//!   encoding waste.
//!
//! Every cached index keeps all of its leaves' free bytes as cache
//! space: nothing caps a leaf's cache region below what its free
//! region holds.
//!
//! ## Quickstart
//!
//! ```
//! use nbb_core::db::{Database, DbConfig};
//! use nbb_core::row::RowSchema;
//! use nbb_encoding::{ColumnDef, DeclaredType, Schema, Value};
//!
//! // Declare the table with typed columns; geometry is derived.
//! let schema = Schema {
//!     table: "pages".into(),
//!     columns: vec![
//!         ColumnDef::new("id", DeclaredType::Int64),
//!         ColumnDef::new("views", DeclaredType::Int64),
//!         ColumnDef::new("flags", DeclaredType::Int64),
//!     ],
//! };
//! let rows = RowSchema::new(&schema);
//! let db = Database::open(DbConfig::default());
//! let t = db.create_table_with(&rows).unwrap();
//! t.create_index(rows.index_spec("by_id", "id", &["views"]).unwrap()).unwrap();
//! // Load through the batched write path: one validated batch, one
//! // descent per destination leaf instead of per row.
//! let load: Vec<Vec<u8>> = (0..100i64)
//!     .map(|id| rows.encode(&[Value::Int(id), Value::Int(id * 10), Value::Int(1)]).unwrap())
//!     .collect();
//! t.insert_many(&load).unwrap();
//! assert_eq!(t.stats().write_batches, 1);
//!
//! // Resolve the index once; query through the handle.
//! let by_id = t.index("by_id").unwrap();
//! let key = rows.key("id", &Value::Int(7)).unwrap();
//! let first = by_id.project(&key).unwrap().unwrap();
//! assert!(!first.index_only);          // cold: heap fetch + populate
//! let second = by_id.project(&key).unwrap().unwrap();
//! assert!(second.index_only);          // hot: answered from index free space
//!
//! // Batched lookups amortize locks across keys...
//! let keys: Vec<Vec<u8>> =
//!     (0..20i64).map(|id| rows.key("id", &Value::Int(id)).unwrap()).collect();
//! let many = by_id.get_many(&keys).unwrap();
//! assert!(many.iter().all(|t| t.is_some()));
//!
//! // ...and range cursors walk sibling leaves in key order.
//! let lo = rows.key("id", &Value::Int(10)).unwrap();
//! let hi = rows.key("id", &Value::Int(20)).unwrap();
//! let in_range: Vec<_> =
//!     by_id.range(&lo[..]..&hi[..]).map(|r| r.unwrap().tuple).collect();
//! assert_eq!(in_range.len(), 10);
//!
//! // Writes and reads ride the same handle's batched calls; a read
//! // issued after a write observes it.
//! let fresh = rows.encode(&[Value::Int(100), Value::Int(0), Value::Int(1)]).unwrap();
//! let k100 = rows.key("id", &Value::Int(100)).unwrap();
//! assert_eq!(by_id.put_many(&[&fresh]).unwrap().len(), 1);
//! assert_eq!(by_id.delete_many(&keys[..1]).unwrap(), vec![true]);
//! let out = by_id.get_many(&[&k100, &keys[0]]).unwrap();
//! assert!(out[0].is_some() && out[1].is_none());   // sees the put and the delete
//! assert!(by_id.project_many(&keys[1..2]).unwrap()[0].is_some());
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod db;
pub mod query;
pub mod row;
pub mod table;
pub mod waste;

pub use db::{Database, DbConfig};
pub use query::{
    IndexRef, PageSpec, ProjectedRangeCursor, ProjectedRow, RangeCursor, RangePage, RangeRow,
};
pub use row::RowSchema;
pub use table::{FieldSpec, IndexSpec, Projection, Table, TableStats};
pub use waste::{audit, audit_encoding, audit_locality, audit_unused, WasteReport};

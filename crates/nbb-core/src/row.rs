//! Typed table declarations: [`RowSchema`] bridges
//! [`nbb_encoding::Schema`]'s declared column types to the byte-range
//! geometry the storage layers speak.
//!
//! A [`Table`](crate::table::Table) addresses tuples as raw fixed-width byte ranges — a
//! [`FieldSpec`] is literally `offset..offset+len` — which keeps the
//! substrate honest but makes callers hand-compute offsets. `RowSchema`
//! derives that geometry from a typed schema via
//! [`nbb_encoding::RowLayout`]'s order-preserving column codecs, so a
//! table can be declared with named, typed columns, indexed by column
//! name, and read/written as [`Value`] rows:
//!
//! ```
//! use nbb_core::db::{Database, DbConfig};
//! use nbb_core::row::RowSchema;
//! use nbb_encoding::{ColumnDef, DeclaredType, Schema, Value};
//!
//! let schema = Schema {
//!     table: "articles".into(),
//!     columns: vec![
//!         ColumnDef::new("id", DeclaredType::Int64),
//!         ColumnDef::new("views", DeclaredType::Int64),
//!         ColumnDef::new("title", DeclaredType::Str { width: 16 }),
//!     ],
//! };
//! let rows = RowSchema::new(&schema);
//!
//! let db = Database::open(DbConfig::default());
//! let t = db.create_table_with(&rows).unwrap();
//! t.create_index(rows.index_spec("by_id", "id", &["views"]).unwrap()).unwrap();
//!
//! t.insert(&rows.encode(&[Value::Int(7), Value::Int(123), Value::str("Main_Page")]).unwrap())
//!     .unwrap();
//! let by_id = t.index("by_id").unwrap();
//! let tuple = by_id.get(&rows.key("id", &Value::Int(7)).unwrap()).unwrap().unwrap();
//! assert_eq!(
//!     rows.decode(&tuple).unwrap(),
//!     vec![Value::Int(7), Value::Int(123), Value::str("Main_Page")],
//! );
//! ```
//!
//! Because every column codec is order-preserving (integers big-endian
//! with the sign bit flipped, strings zero-padded), the encoded column
//! bytes double as `memcmp`-ordered B+Tree keys: [`RowSchema::key`]
//! values compose directly with [`crate::query::IndexRef::range`]
//! cursors, and numeric ranges scan in numeric order.

use crate::table::{FieldSpec, IndexSpec};
use nbb_encoding::rowcodec::{RowCodecError, RowLayout};
use nbb_encoding::{Schema, Value};
use nbb_storage::error::{Result, StorageError};

/// A typed row schema bound to a fixed-width tuple layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSchema {
    table: String,
    layout: RowLayout,
}

fn codec_err(e: RowCodecError) -> StorageError {
    StorageError::Corrupt(e.to_string())
}

impl RowSchema {
    /// Derives the physical layout from a typed schema's columns, in
    /// declaration order.
    pub fn new(schema: &Schema) -> Self {
        let cols: Vec<(String, nbb_encoding::DeclaredType)> =
            schema.columns.iter().map(|c| (c.name.clone(), c.declared)).collect();
        RowSchema { table: schema.table.clone(), layout: RowLayout::new(&cols) }
    }

    /// The table name the schema declares.
    pub fn table_name(&self) -> &str {
        &self.table
    }

    /// Total tuple width in bytes — pass to
    /// [`crate::db::Database::create_table`], or use
    /// [`crate::db::Database::create_table_with`].
    pub fn tuple_width(&self) -> usize {
        self.layout.tuple_width()
    }

    /// The underlying physical layout.
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    /// The byte range of column `name` — the geometry piece an
    /// [`IndexSpec`] is made of.
    pub fn field(&self, name: &str) -> Result<FieldSpec> {
        let col = self.layout.column(name).map_err(codec_err)?;
        Ok(FieldSpec::new(col.offset, col.width))
    }

    /// Builds an [`IndexSpec`] keyed on column `key_column`, caching
    /// `cached_columns` in leaf free space (empty = plain index). The
    /// byte geometry is derived, not hand-computed.
    pub fn index_spec(
        &self,
        index_name: &str,
        key_column: &str,
        cached_columns: &[&str],
    ) -> Result<IndexSpec> {
        let key = self.field(key_column)?;
        let cached =
            cached_columns.iter().map(|c| self.field(c)).collect::<Result<Vec<FieldSpec>>>()?;
        Ok(if cached.is_empty() {
            IndexSpec::plain(index_name, key)
        } else {
            IndexSpec::cached(index_name, key, cached)
        })
    }

    /// Encodes a typed row into its fixed-width tuple bytes.
    pub fn encode(&self, values: &[Value]) -> Result<Vec<u8>> {
        self.layout.encode_row(values).map_err(codec_err)
    }

    /// Decodes tuple bytes back into a typed row.
    pub fn decode(&self, tuple: &[u8]) -> Result<Vec<Value>> {
        self.layout.decode_row(tuple).map_err(codec_err)
    }

    /// Encodes one column value as order-preserving key bytes, for
    /// point lookups and range-cursor bounds over an index keyed on
    /// that column.
    pub fn key(&self, column: &str, value: &Value) -> Result<Vec<u8>> {
        let col = self.layout.column(column).map_err(codec_err)?;
        RowLayout::encode_value(col, value).map_err(codec_err)
    }

    /// Decodes the cached-fields payload of a [`crate::table::Projection`]
    /// produced through `index`, returning `(column name, value)` pairs
    /// in the index's cached-field order.
    pub fn decode_projection(
        &self,
        index: &IndexSpec,
        payload: &[u8],
    ) -> Result<Vec<(String, Value)>> {
        let mut out = Vec::with_capacity(index.cached_fields.len());
        let mut at = 0usize;
        for f in &index.cached_fields {
            let col = self
                .layout
                .columns()
                .iter()
                .find(|c| c.offset == f.offset && c.width == f.len)
                .ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "cached field {}..{} does not match any schema column",
                        f.offset,
                        f.offset + f.len
                    ))
                })?;
            if at + f.len > payload.len() {
                return Err(StorageError::Corrupt(format!(
                    "projection payload of {} bytes too short for cached fields",
                    payload.len()
                )));
            }
            out.push((col.name.clone(), RowLayout::decode_value(col, &payload[at..at + f.len])));
            at += f.len;
        }
        Ok(out)
    }
}

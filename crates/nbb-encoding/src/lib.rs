//! # nbb-encoding — encoding-waste elimination (*No Bits Left Behind* §4)
//!
//! "Encoding waste" is data stored at a higher physical or semantic
//! granularity than the application needs. This crate implements the
//! paper's §4 toolkit:
//!
//! * [`inference`] — column analysis that treats declared types as hints
//!   and infers the cheapest lossless physical type (boolean bytes → 1
//!   bit, numeric strings → integers, 14-byte string timestamps → 4-byte
//!   epochs, small-range ints → bit-packed offsets, low-cardinality
//!   strings → dictionaries);
//! * [`schema`] — table-level reports (the §4.1 "16%–83% waste"
//!   analysis) and materialized optimized columns with proven round
//!   trips;
//! * [`bitpack`] — dense n-bit packing (the workspace's only `unsafe`,
//!   property-tested against a safe reference);
//! * [`dict`], [`delta`] — dictionary and frame-of-reference codecs;
//! * [`timestamp`] — the MediaWiki 14-char timestamp format and its
//!   4-byte encoding;
//! * [`semantic_id`] — §4.2: partition bits embedded in surrogate keys
//!   (routing without routing tables) and id elimination via physical
//!   address proxies;
//! * [`rowcodec`] — the fixed-width row layout a schema's declared
//!   types imply, with order-preserving column codecs so tuple bytes
//!   double as `memcmp`-ordered index keys (the typed bridge used by
//!   `nbb-core`'s `RowSchema`);
//! * [`wire`] — the order-preserving fixed-width integer codecs the
//!   network protocol (`nbb-proto`) frames ids, counts, and lengths
//!   with, so wire bytes share the engine's one encoding convention.

#![warn(missing_docs)]

pub mod bitpack;
pub mod delta;
pub mod dict;
pub mod inference;
pub mod rowcodec;
pub mod schema;
pub mod semantic_id;
pub mod timestamp;
pub mod wire;

pub use bitpack::{min_bits, pack, unpack, BitPacked};
pub use delta::DeltaColumn;
pub use dict::DictColumn;
pub use inference::{analyze_column, ColumnAnalysis, DeclaredType, PhysicalType, Value};
pub use rowcodec::{ColumnLayout, RowCodecError, RowLayout};
pub use schema::{
    analyze_table, decode_column, encode_column, ColumnDef, EncodedColumn, Schema, SchemaReport,
};
pub use semantic_id::{RoutingTable, SemanticIdAllocator, SemanticIdLayout};

//! Fixed-width row codec: the physical layout a [`Schema`](crate::Schema)'s
//! declared types imply, with order-preserving per-column byte encodings.
//!
//! The storage layers above this crate address tuples as raw fixed-width
//! byte ranges (a `FieldSpec` is literally `offset..offset+len`), and
//! B+Tree keys are compared with `memcmp`. [`RowLayout`] is the bridge:
//! it derives each column's byte range from the declared types and
//! encodes every [`Value`] so that byte order equals value order —
//! integers big-endian with the sign bit flipped, strings zero-padded.
//! A tuple's column bytes are therefore directly usable as index keys,
//! and typed rows round-trip through the heap without a separate key
//! codec.

use crate::inference::{DeclaredType, Value};
use std::fmt;

/// A row failed to encode or decode against a [`RowLayout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowCodecError {
    /// The row's value count does not match the layout's column count.
    Arity {
        /// Columns in the layout.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A value's type does not match its column's declared type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// The declared type.
        expected: DeclaredType,
        /// Debug rendering of the offending value.
        got: String,
    },
    /// A tuple's byte length does not match the layout width.
    Width {
        /// Expected tuple width.
        expected: usize,
        /// Actual byte length.
        got: usize,
    },
    /// No column with the requested name.
    NoSuchColumn(String),
}

impl fmt::Display for RowCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowCodecError::Arity { expected, got } => {
                write!(f, "row arity {got} does not match the layout's {expected} columns")
            }
            RowCodecError::TypeMismatch { column, expected, got } => {
                write!(f, "column {column} declared {expected:?} cannot hold {got}")
            }
            RowCodecError::Width { expected, got } => {
                write!(f, "tuple of {got} bytes does not match layout width {expected}")
            }
            RowCodecError::NoSuchColumn(name) => write!(f, "no column named {name}"),
        }
    }
}

impl std::error::Error for RowCodecError {}

/// One column's physical placement within the fixed-width tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnLayout {
    /// Column name (from the schema).
    pub name: String,
    /// The declared type driving the encoding.
    pub declared: DeclaredType,
    /// Byte offset within the tuple.
    pub offset: usize,
    /// Encoded width in bytes.
    pub width: usize,
}

/// The fixed-width physical layout of a schema's columns, in schema
/// order, with order-preserving value codecs per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLayout {
    columns: Vec<ColumnLayout>,
    tuple_width: usize,
}

/// Encoded width of one declared type.
fn declared_width(ty: DeclaredType) -> usize {
    match ty {
        DeclaredType::Int64 => 8,
        DeclaredType::Int32 => 4,
        DeclaredType::Str { width } => width,
        DeclaredType::Bool => 1,
    }
}

impl RowLayout {
    /// Derives the layout from `columns` in order: each column occupies
    /// the next `declared_width` bytes, densely packed.
    pub fn new(columns: &[(String, DeclaredType)]) -> Self {
        let mut offset = 0;
        let cols = columns
            .iter()
            .map(|(name, declared)| {
                let width = declared_width(*declared);
                let c = ColumnLayout { name: name.clone(), declared: *declared, offset, width };
                offset += width;
                c
            })
            .collect();
        RowLayout { columns: cols, tuple_width: offset }
    }

    /// Total tuple width in bytes.
    pub fn tuple_width(&self) -> usize {
        self.tuple_width
    }

    /// The columns, in tuple order.
    pub fn columns(&self) -> &[ColumnLayout] {
        &self.columns
    }

    /// Looks up a column's layout by name.
    pub fn column(&self, name: &str) -> Result<&ColumnLayout, RowCodecError> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| RowCodecError::NoSuchColumn(name.to_string()))
    }

    /// Encodes one value into its column's order-preserving bytes.
    pub fn encode_value(col: &ColumnLayout, v: &Value) -> Result<Vec<u8>, RowCodecError> {
        let mismatch = || RowCodecError::TypeMismatch {
            column: col.name.clone(),
            expected: col.declared,
            got: format!("{v:?}"),
        };
        match (col.declared, v) {
            // Sign-bit flip keeps memcmp order equal to numeric order.
            (DeclaredType::Int64, Value::Int(i)) => {
                Ok(((*i as u64) ^ (1 << 63)).to_be_bytes().to_vec())
            }
            (DeclaredType::Int32, Value::Int(i)) => {
                let narrowed = i32::try_from(*i).map_err(|_| mismatch())?;
                Ok(((narrowed as u32) ^ (1 << 31)).to_be_bytes().to_vec())
            }
            (DeclaredType::Bool, Value::Bool(b)) => Ok(vec![u8::from(*b)]),
            (DeclaredType::Str { width }, Value::Str(s)) => {
                // NUL is the padding byte: an interior NUL would be
                // truncated on decode, and "ab" / "ab\0" would collide
                // as index keys — reject rather than corrupt.
                if s.len() > width || s.as_bytes().contains(&0) {
                    return Err(mismatch());
                }
                let mut out = vec![0u8; width];
                out[..s.len()].copy_from_slice(s.as_bytes());
                Ok(out)
            }
            _ => Err(mismatch()),
        }
    }

    /// Decodes one column's bytes back into a [`Value`].
    pub fn decode_value(col: &ColumnLayout, bytes: &[u8]) -> Value {
        match col.declared {
            DeclaredType::Int64 => {
                let raw = u64::from_be_bytes(bytes[..8].try_into().expect("8-byte column"));
                Value::Int((raw ^ (1 << 63)) as i64)
            }
            DeclaredType::Int32 => {
                let raw = u32::from_be_bytes(bytes[..4].try_into().expect("4-byte column"));
                Value::Int(((raw ^ (1 << 31)) as i32) as i64)
            }
            DeclaredType::Bool => Value::Bool(bytes[0] != 0),
            DeclaredType::Str { .. } => {
                let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
                Value::Str(String::from_utf8_lossy(&bytes[..end]).into_owned())
            }
        }
    }

    /// Encodes a full row into its fixed-width tuple bytes.
    pub fn encode_row(&self, values: &[Value]) -> Result<Vec<u8>, RowCodecError> {
        if values.len() != self.columns.len() {
            return Err(RowCodecError::Arity { expected: self.columns.len(), got: values.len() });
        }
        let mut out = vec![0u8; self.tuple_width];
        for (col, v) in self.columns.iter().zip(values) {
            let bytes = Self::encode_value(col, v)?;
            out[col.offset..col.offset + col.width].copy_from_slice(&bytes);
        }
        Ok(out)
    }

    /// Decodes a fixed-width tuple back into its row of values.
    pub fn decode_row(&self, tuple: &[u8]) -> Result<Vec<Value>, RowCodecError> {
        if tuple.len() != self.tuple_width {
            return Err(RowCodecError::Width { expected: self.tuple_width, got: tuple.len() });
        }
        Ok(self
            .columns
            .iter()
            .map(|c| Self::decode_value(c, &tuple[c.offset..c.offset + c.width]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> RowLayout {
        RowLayout::new(&[
            ("id".into(), DeclaredType::Int64),
            ("views".into(), DeclaredType::Int32),
            ("title".into(), DeclaredType::Str { width: 12 }),
            ("minor".into(), DeclaredType::Bool),
        ])
    }

    #[test]
    fn geometry_is_dense_and_in_order() {
        let l = layout();
        assert_eq!(l.tuple_width(), 8 + 4 + 12 + 1);
        let offsets: Vec<(usize, usize)> =
            l.columns().iter().map(|c| (c.offset, c.width)).collect();
        assert_eq!(offsets, vec![(0, 8), (8, 4), (12, 12), (24, 1)]);
        assert_eq!(l.column("title").unwrap().offset, 12);
        assert!(l.column("nope").is_err());
    }

    #[test]
    fn rows_round_trip() {
        let l = layout();
        let rows = vec![
            vec![Value::Int(-5), Value::Int(0), Value::str(""), Value::Bool(false)],
            vec![
                Value::Int(i64::MAX),
                Value::Int(i32::MAX as i64),
                Value::str("Main_Page"),
                Value::Bool(true),
            ],
            vec![
                Value::Int(i64::MIN),
                Value::Int(i32::MIN as i64),
                Value::str("abcdefghijkl"),
                Value::Bool(false),
            ],
        ];
        for row in rows {
            let bytes = l.encode_row(&row).unwrap();
            assert_eq!(bytes.len(), l.tuple_width());
            assert_eq!(l.decode_row(&bytes).unwrap(), row);
        }
    }

    #[test]
    fn encoded_order_matches_value_order() {
        let l = layout();
        let id = l.column("id").unwrap();
        let views = l.column("views").unwrap();
        let title = l.column("title").unwrap();
        let ints = [i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX];
        for w in ints.windows(2) {
            let a = RowLayout::encode_value(id, &Value::Int(w[0])).unwrap();
            let b = RowLayout::encode_value(id, &Value::Int(w[1])).unwrap();
            assert!(a < b, "{} !< {}", w[0], w[1]);
        }
        let i32s = [i32::MIN as i64, -7, 0, 9, i32::MAX as i64];
        for w in i32s.windows(2) {
            let a = RowLayout::encode_value(views, &Value::Int(w[0])).unwrap();
            let b = RowLayout::encode_value(views, &Value::Int(w[1])).unwrap();
            assert!(a < b, "{} !< {}", w[0], w[1]);
        }
        let strs = ["", "a", "ab", "b", "zz"];
        for w in strs.windows(2) {
            let a = RowLayout::encode_value(title, &Value::str(w[0])).unwrap();
            let b = RowLayout::encode_value(title, &Value::str(w[1])).unwrap();
            assert!(a < b, "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn mismatches_are_named_errors() {
        let l = layout();
        // Wrong arity.
        assert!(matches!(
            l.encode_row(&[Value::Int(1)]),
            Err(RowCodecError::Arity { expected: 4, got: 1 })
        ));
        // Type mismatch.
        let row = vec![Value::str("x"), Value::Int(0), Value::str(""), Value::Bool(false)];
        assert!(matches!(l.encode_row(&row), Err(RowCodecError::TypeMismatch { .. })));
        // i32 overflow.
        let row = vec![Value::Int(1), Value::Int(1 << 40), Value::str(""), Value::Bool(false)];
        assert!(matches!(l.encode_row(&row), Err(RowCodecError::TypeMismatch { .. })));
        // Oversized string.
        let row = vec![
            Value::Int(1),
            Value::Int(1),
            Value::str("way too long for twelve"),
            Value::Bool(true),
        ];
        assert!(matches!(l.encode_row(&row), Err(RowCodecError::TypeMismatch { .. })));
        // Interior NUL would truncate on decode and collide with its
        // NUL-free prefix as an index key.
        let row = vec![Value::Int(1), Value::Int(1), Value::str("a\0b"), Value::Bool(true)];
        assert!(matches!(l.encode_row(&row), Err(RowCodecError::TypeMismatch { .. })));
        // Wrong tuple width.
        assert!(matches!(l.decode_row(&[0u8; 3]), Err(RowCodecError::Width { .. })));
    }
}

//! The catalog: persisting database metadata so tables survive restart.
//!
//! Real systems keep table/index metadata in a system catalog; this one
//! serializes every table's name, tuple width, heap page list, and
//! index declarations (+ B+Tree root pages) into a byte stream stored
//! across dedicated pages of the *heap* disk:
//!
//! * page 0 (reserved at database open) is the header: magic, version,
//!   payload length, and the page id of the first payload chunk;
//! * payload chunks are freshly-allocated contiguous pages (persisting
//!   again allocates new chunks; superseded chunks are simply garbage —
//!   acceptable waste for a simulation and called out in the audit
//!   spirit of the paper).
//!
//! Reopening ([`crate::db::Database::reopen`]) reverses the process with
//! [`nbb_storage::HeapFile::attach`] and [`nbb_btree::BTree::open`] —
//! persisted index-cache bytes are harmless, because a leaf read back
//! from a device is not trusted until a populate resets its cache.

use crate::table::{FieldSpec, IndexSpec};
use nbb_storage::error::{Result, StorageError};
use nbb_storage::page::PageId;

const MAGIC: u32 = 0x6E62_6201; // "nbb\x01"
const VERSION: u32 = 1;

/// What every index entry carries after its cached fields: two u32
/// slots retired with what they held — the leaf cache's placement
/// bucket size (`bucket_slots`, gone with on-hit promotion) and the
/// predicate-log threshold (gone with the log). The layout keeps them,
/// written as the defaults they always held and ignored on read, so
/// catalogs stay byte-compatible both ways.
const RETIRED_SLOTS: [u32; 2] = [8, 64];

/// One table's catalog entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    /// Table name.
    pub name: String,
    /// Fixed tuple width.
    pub tuple_width: u32,
    /// Heap pages in order.
    pub heap_pages: Vec<PageId>,
    /// Index declarations and their root pages.
    pub indexes: Vec<(IndexSpec, PageId)>,
}

/// The whole catalog.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    /// Tables, sorted by name.
    pub tables: Vec<TableEntry>,
}

struct Writer(Vec<u8>);

impl Writer {
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        let b = s.as_bytes();
        self.u16(b.len() as u16);
        self.0.extend_from_slice(b);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(StorageError::Corrupt("catalog truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16> {
        // nbb-lint: allow(unwrap, take() returned exactly that many bytes)
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    fn u32(&mut self) -> Result<u32> {
        // nbb-lint: allow(unwrap, take() returned exactly that many bytes)
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64> {
        // nbb-lint: allow(unwrap, take() returned exactly that many bytes)
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn str(&mut self) -> Result<String> {
        let n = self.u16()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| StorageError::Corrupt("catalog string not utf-8".into()))
    }
}

/// Serializes a catalog to bytes.
pub fn encode(cat: &Catalog) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u32(cat.tables.len() as u32);
    for t in &cat.tables {
        w.str(&t.name);
        w.u32(t.tuple_width);
        w.u32(t.heap_pages.len() as u32);
        for p in &t.heap_pages {
            w.u64(p.0);
        }
        w.u16(t.indexes.len() as u16);
        for (spec, root) in &t.indexes {
            w.str(&spec.name);
            w.u32(spec.key.offset as u32);
            w.u32(spec.key.len as u32);
            w.u16(spec.cached_fields.len() as u16);
            for f in &spec.cached_fields {
                w.u32(f.offset as u32);
                w.u32(f.len as u32);
            }
            for v in RETIRED_SLOTS {
                w.u32(v);
            }
            w.u64(root.0);
        }
    }
    w.0
}

/// Deserializes a catalog from bytes.
pub fn decode(buf: &[u8]) -> Result<Catalog> {
    let mut r = Reader { buf, pos: 0 };
    if r.u32()? != MAGIC {
        return Err(StorageError::Corrupt("catalog magic mismatch".into()));
    }
    if r.u32()? != VERSION {
        return Err(StorageError::Corrupt("catalog version unsupported".into()));
    }
    let ntables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = r.str()?;
        let tuple_width = r.u32()?;
        let npages = r.u32()? as usize;
        let mut heap_pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            heap_pages.push(PageId(r.u64()?));
        }
        let nindexes = r.u16()? as usize;
        let mut indexes = Vec::with_capacity(nindexes);
        for _ in 0..nindexes {
            let iname = r.str()?;
            let key = FieldSpec::new(r.u32()? as usize, r.u32()? as usize);
            let ncached = r.u16()? as usize;
            let mut cached_fields = Vec::with_capacity(ncached);
            for _ in 0..ncached {
                cached_fields.push(FieldSpec::new(r.u32()? as usize, r.u32()? as usize));
            }
            for _ in RETIRED_SLOTS {
                r.u32()?;
            }
            let root = PageId(r.u64()?);
            indexes.push((IndexSpec { name: iname, key, cached_fields }, root));
        }
        tables.push(TableEntry { name, tuple_width, heap_pages, indexes });
    }
    Ok(Catalog { tables })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        Catalog {
            tables: vec![
                TableEntry {
                    name: "revision".into(),
                    tuple_width: 112,
                    heap_pages: vec![PageId(1), PageId(7), PageId(9)],
                    indexes: vec![
                        (
                            IndexSpec::cached(
                                "by_rev_id",
                                FieldSpec::new(0, 8),
                                vec![FieldSpec::new(8, 8), FieldSpec::new(16, 1)],
                            ),
                            PageId(42),
                        ),
                        (IndexSpec::plain("by_page", FieldSpec::new(8, 8)), PageId(55)),
                    ],
                },
                TableEntry {
                    name: "page".into(),
                    tuple_width: 80,
                    heap_pages: vec![],
                    indexes: vec![],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let cat = sample();
        let bytes = encode(&cat);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.tables.len(), 2);
        assert_eq!(back.tables[0].name, "revision");
        assert_eq!(back.tables[0].heap_pages, vec![PageId(1), PageId(7), PageId(9)]);
        assert_eq!(back.tables[0].indexes.len(), 2);
        assert_eq!(back.tables[0].indexes[0].0.name, "by_rev_id");
        assert_eq!(back.tables[0].indexes[0].0.cached_fields.len(), 2);
        assert_eq!(back.tables[0].indexes[0].1, PageId(42));
        assert_eq!(back.tables[1].name, "page");
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[1, 2, 3, 4, 5, 6, 7, 8]).is_err());
        let mut bytes = encode(&sample());
        bytes.truncate(bytes.len() / 2);
        assert!(decode(&bytes).is_err());
    }

    /// The layout a catalog had while `IndexSpec` still carried the
    /// placement bucket size and the predicate-log threshold, built
    /// field by field.
    fn legacy_bytes(bucket: u32, threshold: u32) -> Vec<u8> {
        let mut b = Vec::new();
        let str = |b: &mut Vec<u8>, s: &str| {
            b.extend_from_slice(&(s.len() as u16).to_le_bytes());
            b.extend_from_slice(s.as_bytes());
        };
        for v in [MAGIC, VERSION, 1] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        str(&mut b, "revision");
        b.extend_from_slice(&112u32.to_le_bytes()); // tuple width
        b.extend_from_slice(&1u32.to_le_bytes()); // one heap page
        b.extend_from_slice(&7u64.to_le_bytes());
        b.extend_from_slice(&1u16.to_le_bytes()); // one index
        str(&mut b, "by_rev_id");
        for v in [0u32, 8] {
            b.extend_from_slice(&v.to_le_bytes()); // key
        }
        b.extend_from_slice(&1u16.to_le_bytes()); // one cached field
        for v in [8u32, 8, bucket, threshold] {
            b.extend_from_slice(&v.to_le_bytes()); // field, then the retired slots
        }
        b.extend_from_slice(&42u64.to_le_bytes()); // root
        b
    }

    #[test]
    fn a_catalog_in_the_log_threshold_layout_reopens_byte_identically() {
        let old = legacy_bytes(8, 64);
        let cat = decode(&old).unwrap();
        let (spec, root) = &cat.tables[0].indexes[0];
        let want = IndexSpec::cached("by_rev_id", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]);
        assert_eq!((spec, *root), (&want, PageId(42)));
        assert_eq!(encode(&cat), old, "persisting it again writes the same bytes");
        // Any bucket size or threshold a caller once chose reads back
        // the same way, and is persisted as the default.
        for (bucket, threshold) in [(8, 16), (4, 64), (16, 32)] {
            let other = decode(&legacy_bytes(bucket, threshold)).unwrap();
            assert_eq!(other, cat);
            assert_eq!(encode(&other), old);
        }
    }

    #[test]
    fn empty_catalog_round_trips() {
        let bytes = encode(&Catalog::default());
        assert_eq!(decode(&bytes).unwrap().tables.len(), 0);
    }
}

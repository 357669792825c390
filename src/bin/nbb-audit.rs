//! `nbb-audit` — the waste-detection tool the paper's §1 envisions,
//! runnable against a demo database built from the synthetic Wikipedia.
//!
//! ```sh
//! cargo run --release --bin nbb-audit -- [pages] [revs_per_page] [seed]
//! ```
//!
//! Builds the page + revision tables, runs a short mixed workload, and
//! prints one combined audit per table covering all three waste
//! classes (unused space, locality, encoding), plus the recommended
//! fixes and their projected savings.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec};
use nbb::core::waste;
use nbb::encoding::{ColumnDef, DeclaredType, Schema, Value};
use nbb::storage::RecordId;
use nbb::workload::{RevisionRow, WikiGenerator, REVISION_ROW_WIDTH};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_pages: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_000);
    let revs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2011);
    println!("nbb-audit: {n_pages} pages x ~{revs} revisions (seed {seed})\n");

    let db = Database::open(DbConfig::default());
    let mut gen = WikiGenerator::new(seed);
    let mut pages = gen.pages(n_pages);
    let revisions = gen.revisions(&mut pages, revs);

    // revision table: keyed by big-endian rev_id, caching rev_page.
    let rev_t = db.create_table("revision", REVISION_ROW_WIDTH).expect("table");
    for r in &revisions {
        let mut row = r.encode();
        row[..8].copy_from_slice(&r.id.to_be_bytes());
        rev_t.insert(&row).expect("insert");
    }
    rev_t
        .create_index(IndexSpec::cached(
            "by_rev_id",
            FieldSpec::new(0, 8),
            vec![FieldSpec::new(8, 8)],
        ))
        .expect("index");

    // Warm the system with the hot-set workload so the audit sees
    // realistic cache occupancy.
    let idx = rev_t.index("by_rev_id").expect("index handle");
    let mut hot_rids = Vec::new();
    for p in &pages {
        let key = p.latest_rev.to_be_bytes();
        rev_t.index("by_rev_id").expect("index").project(&key).expect("query");
        rev_t.index("by_rev_id").expect("index").project(&key).expect("query");
        let ptr = idx.tree().get(&key).expect("get").expect("hot indexed");
        hot_rids.push(RecordId::from_u64(ptr));
    }

    // Encoding audit decodes the stored tuples back to logical values.
    let schema = Schema {
        table: "revision".into(),
        columns: vec![
            ColumnDef::new("rev_id", DeclaredType::Int64),
            ColumnDef::new("rev_page", DeclaredType::Int64),
            ColumnDef::new("rev_text_id", DeclaredType::Int64),
            ColumnDef::new("rev_comment", DeclaredType::Str { width: 40 }),
            ColumnDef::new("rev_user", DeclaredType::Int64),
            ColumnDef::new("rev_timestamp", DeclaredType::Str { width: 14 }),
            ColumnDef::new("rev_minor_edit", DeclaredType::Bool),
            ColumnDef::new("rev_deleted", DeclaredType::Bool),
            ColumnDef::new("rev_len", DeclaredType::Int64),
            ColumnDef::new("rev_parent_id", DeclaredType::Int64),
        ],
    };
    let decode: &dyn Fn(&[u8]) -> Vec<Value> = &|b: &[u8]| {
        // The key prefix is big-endian; restore for decoding.
        let mut row = b.to_vec();
        let id = u64::from_be_bytes(b[..8].try_into().expect("key"));
        row[..8].copy_from_slice(&id.to_le_bytes());
        let r = RevisionRow::decode(&row).expect("stored row decodes");
        vec![
            Value::Int(r.id as i64),
            Value::Int(r.page_id as i64),
            Value::Int(r.text_id as i64),
            Value::Str(r.comment),
            Value::Int(r.user as i64),
            Value::Str(r.timestamp),
            Value::Bool(r.minor_edit),
            Value::Bool(r.deleted),
            Value::Int(r.len as i64),
            Value::Int(r.parent_id as i64),
        ]
    };

    let report =
        waste::audit(&rev_t, &["by_rev_id"], Some(&hot_rids), Some((&schema, decode, 10_000)))
            .expect("audit");
    print!("{}", report.render());

    // Recommendations, in the paper's three categories.
    println!("\nrecommendations:");
    let loc = report.locality.as_ref().expect("locality audited");
    if loc.hot_per_page < 3.0 {
        println!(
            "  [locality] hot tuples average {:.2}/page over {} pages: updates gather \
             them onto hot pages as they fault cold ones (a heap pool of at least two \
             frames; see example hot_cold_revisions), or relocate them once \
             (Table::relocate)",
            loc.hot_per_page, loc.pages_with_hot
        );
    }
    let idx_rep = &report.unused.indexes[0];
    println!(
        "  [unused space] index '{}' holds {} free bytes; the cache is using {}/{} slots \
         ({:.0}%) — free capacity for {} more cached tuples at zero I/O cost",
        idx_rep.name,
        idx_rep.free_bytes,
        idx_rep.cache_occupied,
        idx_rep.cache_slots,
        idx_rep.cache_occupied as f64 * 100.0 / idx_rep.cache_slots.max(1) as f64,
        idx_rep.cache_slots - idx_rep.cache_occupied,
    );
    let enc = report.encoding.as_ref().expect("encoding audited");
    let mut worst: Vec<_> = enc.columns.iter().collect();
    worst.sort_by(|a, b| b.bytes_saved().total_cmp(&a.bytes_saved()));
    for c in worst.iter().take(3) {
        println!(
            "  [encoding] column '{}': {} ({:.0}% waste, {:.1} KB recoverable)",
            c.name,
            c.reason,
            c.waste_fraction() * 100.0,
            c.bytes_saved() / 1024.0
        );
    }
    println!(
        "\ntotal encoding waste: {:.1}% ({:.1} KB -> {:.1} KB)",
        enc.waste_fraction() * 100.0,
        enc.declared_bytes() / 1024.0,
        enc.optimized_bytes() / 1024.0
    );
}

//! The paper's motivating workload (§2.1.4): Wikipedia page lookups
//! through the `name_title` index, answered from the index cache.
//!
//! ```sh
//! cargo run --release --example wikipedia_pages
//! ```
//!
//! Builds a synthetic page table keyed on (namespace, title), runs a
//! zipfian lookup trace with occasional page updates, and reports the
//! cache hit rate and how many heap fetches the cache avoided — "over
//! 40% of Wikipedia queries can be directly answered through an index
//! cache on 4 attributes".

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec};
use nbb::workload::{page_lookup_trace, TraceOp, WikiGenerator, PAGE_ROW_WIDTH, TITLE_WIDTH};

/// name_title key: namespace (u32 BE) + fixed-width title = 32 bytes.
/// In the stored tuple, namespace is LE at offset 8; we index a
/// *derived* 32-byte prefix written at tuple build time instead:
/// [ns BE (4) | title (28)] lives at offset 8..40 after rearrangement.
fn build_tuple(row: &nbb::workload::PageRow) -> Vec<u8> {
    // Rearranged layout: id(8) | ns_be(4) | title(28) | cached fields(17) | rest
    let mut t = Vec::with_capacity(PAGE_ROW_WIDTH);
    t.extend_from_slice(&row.id.to_le_bytes());
    t.extend_from_slice(&row.namespace.to_be_bytes());
    let mut title = [0u8; TITLE_WIDTH];
    let tb = row.title.as_bytes();
    title[..tb.len().min(TITLE_WIDTH)].copy_from_slice(&tb[..tb.len().min(TITLE_WIDTH)]);
    t.extend_from_slice(&title);
    t.extend_from_slice(&row.cache_payload()); // latest_rev(8) | len(8) | is_redirect(1)
    t.resize(PAGE_ROW_WIDTH, 0);
    t
}

fn key_of(namespace: u32, title: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(32);
    k.extend_from_slice(&namespace.to_be_bytes());
    let mut t = [0u8; TITLE_WIDTH];
    let tb = title.as_bytes();
    t[..tb.len().min(TITLE_WIDTH)].copy_from_slice(&tb[..tb.len().min(TITLE_WIDTH)]);
    k.extend_from_slice(&t);
    k
}

fn main() {
    let db = Database::open(DbConfig::default());
    let pages_table = db.create_table("page", PAGE_ROW_WIDTH).expect("create table");
    // The paper's setup: 32-byte composite key, 4 projected fields
    // (17 bytes). The paper caches only those (25-byte cache items);
    // here a leaf-cache entry holds the row's 48 non-key bytes (56-byte
    // items), because 16 of them fit a half-full 8 KiB leaf — so a
    // full-row `get` hits too, at the price of fewer slots.
    pages_table
        .create_index(IndexSpec::cached(
            "name_title",
            FieldSpec::new(8, 32),
            vec![FieldSpec::new(40, 17)],
        ))
        .expect("create index");

    let mut gen = WikiGenerator::new(2011);
    let mut rows = gen.pages(10_000);
    gen.revisions(&mut rows, 3);
    for row in &rows {
        pages_table.insert(&build_tuple(row)).expect("insert");
    }

    // 200k zipfian lookups with 0.1% updates — the paper's read-heavy
    // page workload. An update writes its new bytes through to the
    // page's cache entry under the leaf latch, so it costs the cache
    // nothing: the paper's lazy predicate log (§2.1.2) zeroed the whole
    // leaf instead.
    let trace = page_lookup_trace(&rows, 200_000, 0.5, 0.001, 7);
    let mut update_count = 0u64;
    for op in &trace {
        match op {
            TraceOp::PageLookup { namespace, title } => {
                let key = key_of(*namespace, title);
                let p = pages_table
                    .index("name_title")
                    .expect("index")
                    .project(&key)
                    .expect("query")
                    .expect("page exists");
                // 17-byte payload: latest_rev | len | is_redirect
                debug_assert_eq!(p.payload.len(), 17);
            }
            TraceOp::PageTouch { namespace, title } => {
                let key = key_of(*namespace, title);
                if let Some(old) =
                    pages_table.index("name_title").expect("index").get(&key).expect("get")
                {
                    let mut new = old.clone();
                    // Bump page_len (inside the cached payload -> write-through).
                    let len = u64::from_le_bytes(new[48..56].try_into().unwrap());
                    new[48..56].copy_from_slice(&(len + 1).to_le_bytes());
                    pages_table
                        .index("name_title")
                        .expect("index")
                        .update(&key, &new)
                        .expect("update");
                    update_count += 1;
                }
            }
            TraceOp::RevisionLookup { .. } => unreachable!(),
        }
    }

    let ts = pages_table.stats();
    let cs = pages_table.index_tree("name_title").unwrap().tree().cache_stats();
    let is = pages_table.index_tree("name_title").unwrap().tree().index_stats().unwrap();
    println!("trace: {} ops ({} updates)", trace.len(), update_count);
    println!(
        "index cache: {:.1}% hit rate ({} hits / {} cached lookups)",
        cs.hit_rate() * 100.0,
        cs.hits,
        cs.lookups
    );
    println!(
        "heap fetches avoided: {} of {} point queries answered index-only",
        ts.index_only_answers,
        ts.index_only_answers + ts.heap_fetches
    );
    println!(
        "cache occupancy: {}/{} slots across {} leaves ({:.0}% fill factor)",
        is.cache_occupied,
        is.cache_slots,
        is.leaf_pages,
        is.avg_fill() * 100.0
    );
    println!(
        "consistency: {} entries written through, {} populates refused because the leaf moved",
        cs.refreshes, cs.stale_skips
    );
    // Bound context: with N cache slots over 10k pages under zipf(0.5),
    // the best possible hit rate is the top-mass of the cached fraction
    // (≈ sqrt(N / pages)); the swap policy should get most of it. The
    // 56-byte items give N = 2,480 (25-byte items gave 5,614: a 52 %
    // hit rate against 34 % now, both about 70 % of their bound).
    let bound = (is.cache_slots as f64 / rows.len() as f64).sqrt();
    assert!(
        cs.hit_rate() > 0.6 * bound,
        "zipfian trace should hit the cache often (bound {bound:.3}): {cs:?}"
    );
}

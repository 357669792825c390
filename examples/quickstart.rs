//! Quickstart: typed tables, handle-based queries, and the three waste
//! classes in five minutes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Declares a table from a typed schema ([`RowSchema`]), loads it
//! through the batched write path (`insert_many`: one descent + one
//! exclusive page access per destination leaf, not per row), resolves an index
//! handle once ([`Table::index`] → `IndexRef`), then shows (1) the
//! index cache answering projections from B+Tree free space — via point
//! lookups, a batched `get_many`/`Batch`, and an ordered range cursor —
//! (2) the write side of `Batch` (`put`/`update`/`delete` grouped per
//! index, reads observing the batch's writes), (3) a locality audit
//! before and after hot/cold clustering, (4) the schema advisor
//! finding encoding waste, (5) a cold range page read in batched
//! device calls, and (6) the `nbb-proto` wire frame layout that carries
//! all of these operations over loopback TCP
//! (`examples/server_roundtrip.rs` runs the live client/server pair).
//!
//! Beneath all of it sits the overlapped-I/O buffer pool: a page fault
//! releases its pool-stripe lock across the disk read (concurrent
//! misses on the *same* page coalesce onto one read, faults for
//! *distinct* pages overlap), and dirty evictions hand their bytes to
//! a background write-behind queue instead of a synchronous device
//! write (`DbConfig::write_behind` sizes it; `Database::persist`/
//! `close` drain it, so durability is unchanged). The `pool_*` fields
//! printed at the end meter that machinery.
//!
//! The pool also practices what the paper preaches on itself: with
//! `DbConfig::compressed_budget_bytes` set, cold eviction victims are
//! compressed into a byte-budgeted side tier instead of being forgotten,
//! and a later fault on such a page decompresses instead of reading the
//! disk — spare CPU traded for an effectively larger pool. This example
//! runs with a deliberately small heap pool so the final `pool:` lines
//! show the tier absorbing refaults.
//!
//! Writers are concurrency-safe per key: every put/update/delete
//! installs a key-level **write intent** on its index before touching
//! anything, so N threads hammering one key serialize cleanly (racing
//! deleters split into one `true` and N-1 `false`s; nothing aborts or
//! disappears), while disjoint-key writers stay fully parallel, each
//! under its own leaf's frame latch. `TableStats::intent_parks`/`intent_handoffs`
//! (printed below) meter the contention the intent table absorbed.
//!
//! All of this concurrency is *checked*, not just promised — see
//! `CONCURRENCY.md` at the repo root for the lock-order lattice. To run
//! the verification locally:
//!
//! ```sh
//! cargo run -p nbb-lint      # static rules L1-L6 (unranked locks,
//!                            # std::sync leaks, unjustified unwraps...)
//! cargo test --workspace     # debug profile arms the runtime rank
//!                            # checker: any lock-order inversion panics
//!                            # naming both locks
//! ```
//!
//! Release builds (`--release`, the benches) compile the rank layer out
//! entirely, so the discipline costs nothing on the measured paths.

use nbb::core::db::{Database, DbConfig};
use nbb::core::query::Batch;
use nbb::core::row::RowSchema;
use nbb::core::waste;
use nbb::encoding::{ColumnDef, DeclaredType, Schema, Value};

fn main() {
    // A typed schema: id | views | flags | pad. The physical layout
    // (offsets, widths, order-preserving key bytes) is derived from the
    // declared types — no hand-packed tuples.
    let schema = Schema {
        table: "articles".into(),
        columns: vec![
            ColumnDef::new("id", DeclaredType::Int64),
            ColumnDef::new("views", DeclaredType::Int64),
            ColumnDef::new("flags", DeclaredType::Int64),
            ColumnDef::new("pad", DeclaredType::Int64),
        ],
    };
    let rows = RowSchema::new(&schema);
    // A small heap pool plus a compressed-frame budget: evictions are
    // frequent enough to matter, and the tier catches them.
    let db = Database::open(DbConfig {
        heap_frames: 24,
        compressed_budget_bytes: 512 * 1024,
        ..DbConfig::default()
    });
    let t = db.create_table_with(&rows).expect("create table");
    t.create_index(rows.index_spec("by_id", "id", &["views"]).expect("geometry"))
        .expect("create index");

    // Bulk load through the batched write path: the whole batch is
    // validated up front, heap appends share one page latch per tail
    // page, and each index pays one descent + one exclusive page access
    // per destination leaf instead of per row.
    let load: Vec<Vec<u8>> = (0..10_000i64)
        .map(|i| {
            rows.encode(&[
                Value::Int(i),
                Value::Int(i % 100), // views: small range!
                Value::Int(1),       // flags: constant!
                Value::Int(0),
            ])
            .expect("encode")
        })
        .collect();
    t.insert_many(&load).expect("batched insert");
    let s = t.stats();
    println!(
        "loaded {} rows as {} write batch(es) — amortization visible in stats()",
        s.inserts, s.write_batches
    );
    assert_eq!(s.write_batches, 1);

    // --- Waste class 1: unused space, recycled as an index cache -----
    println!("--- 1. index caching (unused space, paper §2) ---");
    // Resolve the index once; every query below skips the name lookup.
    let by_id = t.index("by_id").expect("index handle");
    let key = rows.key("id", &Value::Int(4242)).expect("key");
    let first = by_id.project(&key).expect("query").expect("found");
    let second = by_id.project(&key).expect("query").expect("found");
    println!("first access : index_only = {} (heap fetch, cache populated)", first.index_only);
    println!("second access: index_only = {} (answered from leaf free space)", second.index_only);
    assert!(!first.index_only && second.index_only);

    // Batched execution: one sorted pass, locks amortized per leaf and
    // per pool shard instead of per key.
    let hot: Vec<Vec<u8>> =
        (0..1024i64).map(|i| rows.key("id", &Value::Int(i * 7 % 10_000)).unwrap()).collect();
    let tuples = by_id.get_many(&hot).expect("batched get");
    assert!(tuples.iter().all(|t| t.is_some()));
    println!("get_many     : {} keys in one batched pass", tuples.len());
    // The same hot set projected twice: the first pass fetches each row
    // from the heap and caches its fields in leaf free space, the second
    // is answered from there.
    for pass in 1..=2 {
        let answered = by_id.project_many(&hot).expect("batched projection");
        let cached = answered.iter().flatten().filter(|p| p.index_only).count();
        println!("project_many : pass {pass}, {cached} of {} from leaf free space", hot.len());
    }
    let out =
        t.execute(Batch::new().get("by_id", &hot[0]).project("by_id", &hot[1])).expect("batch");
    assert!(out[0].tuple().is_some() && out[1].projection().is_some());

    // Write ops ride the same grouped execution: puts (upserts), then
    // updates, then deletes, then reads — so a batch's reads always
    // observe its writes. Each write group is validated up front and
    // applied through the leaf-grouped multi-key tree ops.
    let fresh =
        rows.encode(&[Value::Int(10_000), Value::Int(7), Value::Int(1), Value::Int(0)]).unwrap();
    let changed =
        rows.encode(&[Value::Int(4242), Value::Int(999), Value::Int(1), Value::Int(0)]).unwrap();
    let k_new = rows.key("id", &Value::Int(10_000)).unwrap();
    let k_gone = rows.key("id", &Value::Int(9_999)).unwrap();
    let out = t
        .execute(
            Batch::new()
                .put("by_id", &fresh)
                .update("by_id", &key, &changed)
                .delete("by_id", &k_gone)
                .get("by_id", &k_new) // sees the put
                .get("by_id", &k_gone), // sees the delete
        )
        .expect("write batch");
    println!(
        "write batch : put at rid {}, update applied = {}, delete applied = {}",
        out[0].rid().expect("put returns a rid"),
        out[1].applied().unwrap(),
        out[2].applied().unwrap()
    );
    assert!(out[3].tuple().is_some() && out[4].tuple().is_none());

    // Same-key writers need no external coordination: the key-level
    // write intents serialize them end to end. Eight threads race
    // put/update/delete on ONE key; every op returns cleanly and
    // exactly one row (or none) survives, whole.
    {
        let hot_key = rows.key("id", &Value::Int(4242)).unwrap();
        std::thread::scope(|s| {
            for w in 0..8i64 {
                let t = &t;
                let rows = &rows;
                let hot_key = &hot_key;
                s.spawn(move || {
                    let by_id = t.index("by_id").unwrap();
                    let mine = rows
                        .encode(&[Value::Int(4242), Value::Int(w), Value::Int(0), Value::Int(0)])
                        .unwrap();
                    by_id.put(&mine).expect("puts never abort");
                    by_id.update(hot_key, &mine).expect("updates never abort");
                    by_id.delete(hot_key).expect("losing deleters report false, not errors");
                });
            }
        });
        assert!(t.index("by_id").unwrap().get(&hot_key).expect("clean read").is_none());
        let s = t.stats();
        println!(
            "same-key storm: 8 writers serialized by write intents \
             ({} parked, {} handoffs), final state consistent",
            s.intent_parks, s.intent_handoffs
        );
    }

    // Ordered range cursor: walks sibling leaves, serving cached
    // projections from leaf free space where they are warm.
    let lo = rows.key("id", &Value::Int(4_000)).unwrap();
    let hi = rows.key("id", &Value::Int(4_100)).unwrap();
    let in_range = by_id.range_projected(&lo[..]..&hi[..]).filter(|r| r.is_ok()).count();
    println!("range cursor : {in_range} rows in id 4000..4100, in key order");
    assert_eq!(in_range, 100);

    let stats = by_id.tree().index_stats().unwrap();
    println!(
        "index: {} leaves at {:.0}% fill, {} free bytes -> {} cache slots ({} used)",
        stats.leaf_pages,
        stats.avg_fill() * 100.0,
        stats.free_bytes,
        stats.cache_slots,
        stats.cache_occupied
    );

    // --- Waste class 2: locality ------------------------------------
    println!("\n--- 2. locality audit (paper §3) ---");
    let mut all = Vec::new();
    t.scan(|rid, _| {
        all.push(rid);
        true
    })
    .unwrap();
    let hot: Vec<_> = all.iter().copied().step_by(200).collect(); // scattered hot set
    let before = waste::audit_locality(&t, &hot).unwrap();
    println!(
        "before clustering: {} hot tuples on {} pages ({:.1}% utilization)",
        before.hot_tuples,
        before.pages_with_hot,
        before.hot_utilization * 100.0
    );
    let mut moved = Vec::new();
    for rid in &hot {
        moved.push(t.relocate(*rid).expect("relocate"));
    }
    let after = waste::audit_locality(&t, &moved).unwrap();
    println!(
        "after clustering : {} hot tuples on {} pages ({:.1}% utilization)",
        after.hot_tuples,
        after.pages_with_hot,
        after.hot_utilization * 100.0
    );
    assert!(after.pages_with_hot < before.pages_with_hot);

    // --- Waste class 3: encoding ------------------------------------
    println!("\n--- 3. schema advisor (paper §4) ---");
    let report =
        waste::audit_encoding(&t, &schema, |b| rows.decode(b).expect("decode"), 5_000).unwrap();
    print!("{}", report.render());

    // --- Waste, read-side: range cursors refill by row budget ---------
    println!("\n--- 4. batched read path: one cold page of a range scan ---");
    // Force both pools cold (unpinned pages only — a best-effort
    // sweep), then read one 2,000-row page. `.limit(n)` tells the
    // cursor how many rows the caller wants, so each refill faults the
    // leaves it is sure to consume in ONE `read_many` (their ids come
    // from the parent node, not from a guess) and fetches the heap rows
    // behind them in one more, instead of paying a device round trip
    // per leaf and per heap page. Nothing is read that a row-at-a-time
    // walk would not read. (Pages the compressed tier still holds are
    // decompressed, not read, so they cost no device call at all.)
    let pools = [("index", db.index_pool()), ("heap", db.heap_pool())];
    for (_, pool) in pools {
        for id in 0..pool.disk().num_pages() {
            let _ = pool.evict_page(nbb::storage::PageId(id));
        }
        pool.reset_stats();
    }
    let zero = rows.key("id", &Value::Int(0)).unwrap();
    let scanned = by_id.range(&zero[..]..).limit(2_000).filter(|r| r.is_ok()).count();
    println!("cold page    : {scanned} rows in two refills of at most 1,024");
    for (name, pool) in pools {
        let s = pool.stats();
        println!(
            "  {name:<5} pool : {} pages faulted, {} decompressed, {} read in {} device call(s)",
            s.faults, s.compressed_hits, s.read_pages, s.read_batches
        );
    }
    assert_eq!(scanned, 2_000);
    assert!(
        db.heap_pool().stats().read_batches <= 2,
        "each refill fetches its heap rows in one device call"
    );

    // --- Over the wire: the nbb-proto frame layout --------------------
    println!("\n--- 5. the network front door's frame layout ---");
    // Everything above is also reachable over loopback TCP through
    // `nbb-server` (see `examples/server_roundtrip.rs`). The wire unit
    // is a length-prefixed frame:
    //
    //   [u32 BE payload length] [payload]
    //
    // and every request payload starts the same way:
    //
    //   [u64 BE request id] [u8 op tag] [op-specific fields...]
    //
    // Variable-length fields are length-prefixed in turn (names and
    // keys: u32 BE length + bytes; lists: u32 BE count, then each
    // element), integers are big-endian — the same order-preserving
    // convention as `nbb-encoding`'s key codecs, so a key's wire form
    // IS its index form; the server compares and routes without
    // re-encoding. Responses echo the request id so a pipelined
    // connection may complete out of order; the id is the correlation
    // key, arrival position means nothing.
    let frame = nbb_proto::encode_request(&nbb_proto::Request {
        id: 7,
        op: nbb_proto::RequestOp::GetMany {
            table: "t".into(),
            index: "id".into(),
            keys: vec![vec![0xAB, 0xCD]],
        },
    });
    let hex: Vec<String> = frame.iter().map(|b| format!("{b:02x}")).collect();
    println!("get_many frame ({} bytes): {}", frame.len(), hex.join(" "));
    println!("               [len u32 | id u64 | tag u8 | \"t\" | \"id\" | 1 key: ab cd]");
    // The layout is load-bearing: decode must invert encode exactly,
    // and the length prefix is what lets a reader reassemble frames
    // from arbitrary TCP chunk boundaries.
    let decoded = nbb_proto::decode_request(&frame[nbb_proto::HEADER_LEN..]).expect("round-trip");
    assert_eq!(decoded.id, 7);
    assert_eq!(
        u32::from_be_bytes(frame[..4].try_into().expect("4-byte header")) as usize,
        frame.len() - nbb_proto::HEADER_LEN,
        "the prefix counts payload bytes, not the prefix itself"
    );

    // --- Beneath it all: the overlapped-I/O buffer pool ---------------
    let s = t.stats();
    println!(
        "\npool: {} faults started, {} coalesced onto in-flight loads, \
         write-behind {} flushed / {} pending",
        s.pool_faults, s.pool_fault_joins, s.pool_wb_flushed, s.pool_wb_pending
    );
    println!(
        "pool: compressed tier served {} faults without disk \
         ({} pages held compressed, {} budget evictions, {} stalls joined a decompress)",
        s.pool_compressed_hits,
        s.pool_compressed_pages,
        s.pool_compressed_evictions,
        s.pool_decompress_stalls
    );
    drop(t);
    db.close().expect("close drains write-behind and flushes both pools");
    println!("done: all three waste classes measured and reclaimed.");
}

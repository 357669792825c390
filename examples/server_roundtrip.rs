//! Network front door in one file: an `nbb-server` on an ephemeral
//! loopback port, an `nbb-client` pipelining work into it, and the
//! server's counters read back over the wire.
//!
//! ```sh
//! cargo run --release --example server_roundtrip
//! ```
//!
//! The wire protocol is deliberately boring — length-prefixed binary
//! frames over TCP (see `examples/quickstart.rs` §6 for the byte
//! layout) — because the interesting part is *when* frames fly, not
//! what's in them. Every request carries a client-chosen `request_id`
//! and responses echo it, so a connection can keep many requests in
//! flight and the server may complete them out of order: a request
//! whose pages are resident overtakes one stuck behind a device read.
//! `Client::submit` returns a [`Ticket`] immediately; `Client::redeem`
//! redeems it whenever the caller is ready. The typed helpers
//! (`insert_many`, `get_many`, `range`, `stats`) are just
//! submit-then-wait pairs for when strict request/response is fine.
//!
//! Server-side, a fixed worker pool executes every request through the
//! engine's *batched* fast paths (`get_many`, `insert_many`, ...), so
//! one frame's worth of keys pays one index descent and one batched
//! heap read — the wire twin of the paper's no-bits-left-behind
//! batching. Per-connection response queues are bounded; a connection
//! that stops draining parks its reader (`queue_full_parks` meters
//! this) instead of growing the heap.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec};
use nbb_client::{Client, ClientConfig, Ticket};
use nbb_proto::WireBound;
use nbb_server::{Server, ServerConfig};
use std::collections::VecDeque;
use std::sync::Arc;

/// 24-byte tuple: key(8, big-endian so byte order = numeric order) |
/// value(8) | filler(8).
fn tuple(key: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&value.to_le_bytes());
    t.extend_from_slice(&[0u8; 8]);
    t
}

fn main() {
    // --- 1. a database and a server on an ephemeral port --------------
    let db = Arc::new(Database::open(DbConfig::default()));
    let t = db.create_table("events", 24).expect("create table");
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
        .expect("create index");
    drop(t); // the server holds the Database; handles resolve per request

    // Port 0: the OS picks a free port, `local_addr` reports it. The
    // server is fully shared-nothing with this thread from here on.
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    println!("server listening on {addr}");

    // --- 2. pipelined inserts ------------------------------------------
    // Eight insert_many frames go out back to back; the worker pool
    // lands them concurrently while we keep submitting. Depth is the
    // client-side cap on in-flight requests — submit parks at the cap,
    // so a runaway producer can't balloon the pending map.
    let client = Client::connect(addr, ClientConfig { depth: 8, ..ClientConfig::default() })
        .expect("connect");
    let batches: Vec<Vec<Vec<u8>>> = (0..8u64)
        .map(|b| (0..100u64).map(|i| tuple(b * 100 + i, b * 100 + i + 7)).collect())
        .collect();
    let mut window: VecDeque<Ticket> = VecDeque::new();
    for batch in batches {
        window.push_back(
            client
                .submit(nbb_proto::RequestOp::InsertMany { table: "events".into(), tuples: batch })
                .expect("submit"),
        );
    }
    let mut inserted = 0usize;
    while let Some(ticket) = window.pop_front() {
        match client.redeem(ticket).expect("insert response") {
            nbb_proto::ResponseBody::InsertMany { rids } => inserted += rids.len(),
            other => panic!("expected insert_many body, got {other:?}"),
        }
    }
    println!("pipelined 8 insert_many frames: {inserted} rows landed");
    assert_eq!(inserted, 800);

    // --- 3. reads: batched lookups and a paged range scan --------------
    let keys: Vec<Vec<u8>> =
        [5u64, 250, 799, 800].iter().map(|k| k.to_be_bytes().to_vec()).collect();
    let rows = client.get_many("events", "pk", keys).expect("get_many");
    assert!(rows[0].is_some() && rows[1].is_some() && rows[2].is_some());
    assert!(rows[3].is_none(), "key 800 was never inserted");
    println!("get_many: 3 of 4 keys found (key 800 is correctly absent)");

    // The server caps each Range response at `limit` rows and returns a
    // resume key, so a full scan is a loop of bounded frames — no
    // response is ever larger than the client asked for.
    let mut lo = WireBound::Unbounded;
    let (mut pages, mut scanned) = (0usize, 0usize);
    loop {
        let (rows, more, resume) =
            client.range("events", "pk", lo.clone(), WireBound::Unbounded, 128).expect("range");
        scanned += rows.len();
        pages += 1;
        if !more {
            break;
        }
        lo = WireBound::Excluded(resume.expect("a truncated page names its resume key"));
    }
    println!("range scan: {scanned} rows over {pages} bounded pages");
    assert_eq!(scanned, 800);

    // --- 4. the server's own counters, over the wire --------------------
    let s = client.stats().expect("stats");
    println!(
        "server stats: {} frames in / {} out, {} engine calls (queued point reads \
         share one), {} connections opened, {} decode errors",
        s.frames_in, s.frames_out, s.batches_executed, s.connections_opened, s.decode_errors
    );
    assert_eq!(s.decode_errors, 0);
    drop(client);
    server.shutdown();
    println!("done: clean shutdown with all responses drained.");
}

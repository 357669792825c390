//! End-to-end server contract tests over real loopback sockets:
//! out-of-order completion by request id (proven with a gated disk, no
//! timing), the malformed-frame suite (named errors, clean close, no
//! database poisoning), graceful shutdown that drains in-flight work,
//! the `max_connections` cap, backpressure parks, and natural batching
//! (queued point reads coalesce into one engine call: deterministic
//! group formation, scatter edge cases, per-request error isolation, a
//! panicking engine call, and a randomized history against an oracle;
//! queued `Range` pages coalesce into one group refill the same way),
//! and the outbound frame cap (a `Range` page is cut to fit and pages
//! on; any other oversize response is a named error, not a dead
//! connection).
//!
//! `NBB_SERVER_TEST_WORKERS=<n>` overrides the worker count of every
//! test that does not need a particular one; CI's degenerate-config job
//! runs the suite with 1 (maximal group sizes, strict FIFO).

use nbb_client::{Client, ClientConfig};
use nbb_core::db::{Database, DbConfig};
use nbb_core::row::RowSchema;
use nbb_encoding::{ColumnDef, DeclaredType, Schema, Value};
use nbb_proto::{
    decode_response, encode_request, Framer, Request, RequestOp, ResponseBody, WireBound,
};
use nbb_server::{Server, ServerConfig};
use nbb_storage::disk::{DiskManager, InMemoryDisk};
use nbb_storage::error::{Result as StorageResult, StorageError};
use nbb_storage::{Page, PageId};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Disk whose reads park at a gate until released — lets a test *hold*
/// one request mid-fault while later requests race past it (or queue
/// up behind it), so ordering assertions are deterministic instead of
/// timing-based. It can also fail every read that touches one chosen
/// page, and panic inside the next read.
struct GateDisk {
    inner: InMemoryDisk,
    held: Mutex<bool>,
    cv: Condvar,
    /// Pages asked for.
    read_attempts: AtomicU64,
    /// Device round trips (`read` and `read_many` alike).
    read_calls: AtomicU64,
    fail_page: Mutex<Option<PageId>>,
    panic_next_read: AtomicBool,
}

impl GateDisk {
    fn new(page_size: usize) -> Self {
        GateDisk {
            inner: InMemoryDisk::new(page_size),
            held: Mutex::new(false),
            cv: Condvar::new(),
            read_attempts: AtomicU64::new(0),
            read_calls: AtomicU64::new(0),
            fail_page: Mutex::new(None),
            panic_next_read: AtomicBool::new(false),
        }
    }

    /// Every read call that asks for `page` fails whole from now on.
    fn fail_reads_of(&self, page: PageId) {
        *self.fail_page.lock() = Some(page);
    }

    /// Counts the call, injects the armed panic, parks at the gate,
    /// then injects the armed failure for a call reading `ids`.
    fn enter_read(&self, ids: impl Iterator<Item = PageId>) -> StorageResult<()> {
        let ids: Vec<PageId> = ids.collect();
        self.read_attempts.fetch_add(ids.len() as u64, Ordering::Relaxed);
        self.read_calls.fetch_add(1, Ordering::Relaxed);
        // Checked before the gate: arming it while a read is parked
        // strikes the NEXT read, not the parked one.
        if self.panic_next_read.swap(false, Ordering::SeqCst) {
            panic!("injected disk panic");
        }
        self.gate();
        match *self.fail_page.lock() {
            Some(bad) if ids.contains(&bad) => {
                Err(StorageError::Io(format!("injected read failure on page {}", bad.0)))
            }
            _ => Ok(()),
        }
    }

    fn hold_reads(&self) {
        *self.held.lock() = true;
    }

    fn release_reads(&self) {
        *self.held.lock() = false;
        self.cv.notify_all();
    }

    fn gate(&self) {
        let mut held = self.held.lock();
        while *held {
            self.cv.wait(&mut held);
        }
    }

    /// Spins until `n` reads have *reached* the disk (i.e. a faulting
    /// request is provably parked at the gate).
    fn await_read_attempts(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.read_attempts.load(Ordering::Relaxed) < n {
            assert!(Instant::now() < deadline, "no read reached the gate disk");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl DiskManager for GateDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }
    fn read(&self, id: PageId, buf: &mut Page) -> StorageResult<()> {
        self.enter_read(std::iter::once(id))?;
        self.inner.read(id, buf)
    }
    fn read_many(&self, pages: &mut [(PageId, &mut Page)]) -> StorageResult<()> {
        self.enter_read(pages.iter().map(|(id, _)| *id))?;
        for (id, buf) in pages.iter_mut() {
            self.inner.read(*id, buf)?;
        }
        Ok(())
    }
    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        self.inner.write(id, page)
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn stats(&self) -> nbb_storage::stats::IoStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

fn kv_schema() -> (Schema, RowSchema) {
    let schema = Schema {
        table: "kv".into(),
        columns: vec![
            ColumnDef::new("id", DeclaredType::Int64),
            ColumnDef::new("val", DeclaredType::Int64),
        ],
    };
    let rows = RowSchema::new(&schema);
    (schema, rows)
}

/// Fresh db with a `kv` table (`by_id` index), `n` rows loaded.
/// Returns the loaded rows' record ids so tests can evict the heap
/// page backing one specific row.
fn seeded_db(
    cfg: DbConfig,
    heap: Arc<dyn DiskManager>,
    n: i64,
) -> (Arc<Database>, RowSchema, Vec<nbb_storage::RecordId>) {
    seeded_db_caching(cfg, heap, n, &[])
}

/// [`seeded_db`] whose `by_id` index caches `cached` columns in its
/// leaves, so a `ProjectMany` payload carries their values.
fn seeded_db_caching(
    cfg: DbConfig,
    heap: Arc<dyn DiskManager>,
    n: i64,
    cached: &[&str],
) -> (Arc<Database>, RowSchema, Vec<nbb_storage::RecordId>) {
    let (_, rows) = kv_schema();
    let index_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(cfg.page_size));
    let db = Arc::new(Database::with_disks(cfg, heap, index_disk).expect("open"));
    let t = db.create_table_with(&rows).expect("create table");
    t.create_index(rows.index_spec("by_id", "id", cached).expect("spec")).expect("index");
    let load: Vec<Vec<u8>> = (0..n)
        .map(|id| rows.encode(&[Value::Int(id), Value::Int(id * 10)]).expect("encode"))
        .collect();
    let rids = if load.is_empty() { Vec::new() } else { t.insert_many(&load).expect("load") };
    (db, rows, rids)
}

fn key(rows: &RowSchema, id: i64) -> Vec<u8> {
    rows.key("id", &Value::Int(id)).expect("key")
}

/// `ServerConfig::default()` with the worker count CI's single-worker
/// run asks for (see the module docs). Tests whose assertion needs a
/// particular worker count set `workers` themselves.
fn server_config() -> ServerConfig {
    let mut cfg = ServerConfig::default();
    if let Ok(workers) = std::env::var("NBB_SERVER_TEST_WORKERS") {
        cfg.workers = workers.parse().expect("NBB_SERVER_TEST_WORKERS must be a worker count");
    }
    cfg
}

fn get_many(rows: &RowSchema, ids: &[i64]) -> RequestOp {
    RequestOp::GetMany {
        table: "kv".into(),
        index: "by_id".into(),
        keys: ids.iter().map(|&id| key(rows, id)).collect(),
    }
}

fn project_many(rows: &RowSchema, ids: &[i64]) -> RequestOp {
    RequestOp::ProjectMany {
        table: "kv".into(),
        index: "by_id".into(),
        keys: ids.iter().map(|&id| key(rows, id)).collect(),
    }
}

fn update_many(rows: &RowSchema, pairs: &[(i64, i64)]) -> RequestOp {
    RequestOp::UpdateMany {
        table: "kv".into(),
        index: "by_id".into(),
        pairs: pairs
            .iter()
            .map(|&(id, val)| {
                (key(rows, id), rows.encode(&[Value::Int(id), Value::Int(val)]).expect("encode"))
            })
            .collect(),
    }
}

fn int(value: &Value) -> i64 {
    match value {
        Value::Int(v) => *v,
        other => panic!("val is an int, got {other:?}"),
    }
}

/// The `val` column of each returned row (`None` = key absent).
fn get_vals(rows: &RowSchema, body: ResponseBody) -> Vec<Option<i64>> {
    let ResponseBody::GetMany { rows: got } = body else { panic!("expected get_many: {body:?}") };
    got.into_iter().map(|t| t.map(|t| int(&rows.decode(&t).expect("decode")[1]))).collect()
}

/// Same for a projection through an index caching exactly `val`.
fn projected_vals(rows: &RowSchema, body: ResponseBody) -> Vec<Option<i64>> {
    let ResponseBody::ProjectMany { rows: got } = body else {
        panic!("expected project_many: {body:?}")
    };
    let spec = rows.index_spec("by_id", "id", &["val"]).expect("spec");
    got.into_iter()
        .map(|p| p.map(|p| int(&rows.decode_projection(&spec, &p.payload).expect("decode")[0].1)))
        .collect()
}

#[test]
fn full_op_surface_round_trips_through_a_client() {
    let cfg = DbConfig::default();
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(cfg.page_size));
    let (db, rows, _) = seeded_db(cfg, heap, 50);
    let server = Server::start(db, server_config()).expect("start");
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    // get_many: present and absent keys, result order mirrors keys.
    let got = client
        .get_many("kv", "by_id", vec![key(&rows, 7), key(&rows, 999), key(&rows, 0)])
        .expect("get_many");
    assert_eq!(got.len(), 3);
    assert!(got[0].is_some() && got[1].is_none() && got[2].is_some());
    assert_eq!(rows.decode(got[0].as_deref().expect("row")).expect("decode")[1], Value::Int(70));

    // insert_many + read-back.
    let fresh: Vec<Vec<u8>> = (100..110)
        .map(|id| rows.encode(&[Value::Int(id), Value::Int(id)]).expect("encode"))
        .collect();
    let rids = client.insert_many("kv", fresh).expect("insert_many");
    assert_eq!(rids.len(), 10);
    assert!(client.get_many("kv", "by_id", vec![key(&rows, 105)]).expect("get")[0].is_some());

    // put_many upserts an existing key.
    let updated = rows.encode(&[Value::Int(7), Value::Int(7000)]).expect("encode");
    client.put_many("kv", "by_id", vec![updated]).expect("put_many");
    let got = client.get_many("kv", "by_id", vec![key(&rows, 7)]).expect("get")[0]
        .clone()
        .expect("present");
    assert_eq!(rows.decode(&got).expect("decode")[1], Value::Int(7000));

    // Paged range scan: walk everything via resume keys.
    let mut lo = WireBound::Included(key(&rows, 0));
    let mut seen = 0usize;
    loop {
        let (page, more, resume) =
            client.range("kv", "by_id", lo.clone(), WireBound::Unbounded, 16).expect("range page");
        seen += page.len();
        if !more {
            break;
        }
        lo = WireBound::Excluded(resume.expect("non-empty page has a resume key"));
    }
    assert_eq!(seen, 60, "50 seeded + 10 inserted rows, each exactly once");

    // A heterogeneous batch: its reads observe its writes.
    let k200 = key(&rows, 200);
    let t200 = rows.encode(&[Value::Int(200), Value::Int(1)]).expect("encode");
    let body = client
        .call(RequestOp::Batch {
            table: "kv".into(),
            ops: vec![
                nbb_proto::WireBatchOp::Put { index: "by_id".into(), tuple: t200 },
                nbb_proto::WireBatchOp::Get { index: "by_id".into(), key: k200.clone() },
                nbb_proto::WireBatchOp::Delete { index: "by_id".into(), key: key(&rows, 0) },
                nbb_proto::WireBatchOp::Get { index: "by_id".into(), key: key(&rows, 0) },
            ],
        })
        .expect("batch");
    match body {
        ResponseBody::Batch { outputs } => {
            assert!(matches!(&outputs[0], nbb_proto::WireBatchOutput::Put(_)));
            assert!(matches!(&outputs[1], nbb_proto::WireBatchOutput::Tuple(Some(_))));
            assert!(matches!(&outputs[2], nbb_proto::WireBatchOutput::Deleted(true)));
            assert!(matches!(&outputs[3], nbb_proto::WireBatchOutput::Tuple(None)));
        }
        other => panic!("expected batch body, got {other:?}"),
    }

    // Engine errors travel as wire errors; the connection survives.
    let err = client.get_many("nope", "by_id", vec![key(&rows, 1)]);
    assert!(matches!(err, Err(nbb_client::ClientError::Server(_))));
    assert!(client.get_many("kv", "by_id", vec![key(&rows, 1)]).expect("alive")[0].is_some());

    let stats = client.stats().expect("stats");
    assert!(stats.frames_in > 5 && stats.frames_out > 5);
    assert_eq!(stats.active_connections, 1);
    assert_eq!(stats.decode_errors, 0);

    drop(client);
    server.shutdown();
}

/// A 10,000-row `kv` table, loaded in key order and then indexed (a
/// bulk-loaded `by_id` of ≈ 90 leaves under the root), over two gate disks; persisted and
/// evicted, so the next request finds both pools cold.
fn cold_kv() -> (Arc<Database>, RowSchema, [Arc<GateDisk>; 2]) {
    let cfg = DbConfig { page_size: 4096, ..DbConfig::default() };
    let (_, rows) = kv_schema();
    let disks = [Arc::new(GateDisk::new(cfg.page_size)), Arc::new(GateDisk::new(cfg.page_size))];
    let db = Arc::new(Database::with_disks(cfg, disks[0].clone(), disks[1].clone()).expect("open"));
    let t = db.create_table_with(&rows).expect("create table");
    let load: Vec<Vec<u8>> = (0..10_000)
        .map(|id| rows.encode(&[Value::Int(id), Value::Int(id * 10)]).expect("encode"))
        .collect();
    t.insert_many(&load).expect("load");
    t.create_index(rows.index_spec("by_id", "id", &[]).expect("spec")).expect("index");
    db.persist().expect("persist");
    for pool in [db.heap_pool(), db.index_pool()] {
        for page in 0..pool.disk().num_pages() {
            pool.evict_page(PageId(page)).expect("evict");
        }
    }
    for disk in &disks {
        disk.read_calls.store(0, Ordering::Relaxed);
        disk.read_attempts.store(0, Ordering::Relaxed);
    }
    (db, rows, disks)
}

#[test]
fn a_cold_range_page_costs_a_handful_of_device_calls() {
    let (db, rows, [heap, index]) = cold_kv();
    let server = Server::start(db, server_config()).expect("start");
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    // 512 rows from the middle of a leaf: ≈ 6 leaves and 3 heap pages,
    // none resident. The page and its `more` probe row ride the same
    // refill: root, first leaf, every other leaf as one batch; then
    // every row's heap page in one batch.
    let lo = WireBound::Included(key(&rows, 5003));
    let (page, more, resume) =
        client.range("kv", "by_id", lo, WireBound::Unbounded, 512).expect("range page");
    let ids: Vec<i64> =
        page.iter().map(|(_, t)| int(&rows.decode(t).expect("decode")[0])).collect();
    assert_eq!(ids, (5003..5003 + 512).collect::<Vec<i64>>());
    assert!(more);
    assert_eq!(resume, Some(key(&rows, 5003 + 511)));
    let (index_calls, heap_calls) =
        (index.read_calls.load(Ordering::Relaxed), heap.read_calls.load(Ordering::Relaxed));
    let (index_pages, heap_pages) =
        (index.read_attempts.load(Ordering::Relaxed), heap.read_attempts.load(Ordering::Relaxed));
    assert!(index_pages >= 6 && heap_pages >= 3, "{index_pages} index, {heap_pages} heap pages");
    assert!(index_calls <= 3, "{index_calls} index device calls for {index_pages} pages");
    assert!(heap_calls <= 2, "{heap_calls} heap device calls for {heap_pages} pages");

    drop(client);
    server.shutdown();
}

#[test]
fn a_range_of_limit_zero_is_refused_before_any_page_is_touched() {
    let (db, rows, [heap, index]) = cold_kv();
    let server = Server::start(db, server_config()).expect("start");
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    // An empty page would carry `resume: None`; answering it (with
    // `more: true`, as the probe once did) sends a client that follows
    // the resume rule round the same request forever.
    let lo = WireBound::Included(key(&rows, 0));
    let refused = client.range("kv", "by_id", lo.clone(), WireBound::Unbounded, 0);
    assert_eq!(refused, Err(nbb_client::ClientError::Server(nbb_proto::RANGE_LIMIT_ZERO.into())));
    for disk in [&heap, &index] {
        assert_eq!(disk.read_calls.load(Ordering::Relaxed), 0, "a refused request reads nothing");
    }

    // The connection survives, and the smallest legal page pages on.
    let (page, more, resume) =
        client.range("kv", "by_id", lo, WireBound::Unbounded, 1).expect("range page");
    assert_eq!((page.len(), more, resume), (1, true, Some(key(&rows, 0))));

    drop(client);
    server.shutdown();
}

#[test]
fn responses_complete_out_of_order_by_request_id() {
    // Small pages so 50 rows span several heap pages; the gate disk
    // backs the heap, so only heap faults can park.
    let cfg = DbConfig { heap_frames: 64, page_size: 512, ..DbConfig::default() };
    let gate = Arc::new(GateDisk::new(cfg.page_size));
    let (db, rows, rids) = seeded_db(cfg, Arc::clone(&gate) as Arc<dyn DiskManager>, 50);

    // Warm every heap page, then evict exactly the page holding row 3:
    // a get of row 3 must fault (and park at the gate) while a row on
    // any *other* page stays memory-resident.
    let t = db.table("kv").expect("table");
    let idx = t.index("by_id").expect("index");
    let all: Vec<Vec<u8>> = (0..50).map(|i| key(&rows, i)).collect();
    let warm = idx.get_many(&all).expect("warm");
    assert!(warm.iter().all(Option::is_some));
    let slow_page = rids[3].page;
    let fast_i = rids
        .iter()
        .position(|r| r.page != slow_page)
        .expect("50 rows over 512-byte pages must span >1 page") as i64;
    db.heap_pool().flush_all().expect("flush");
    db.heap_pool().evict_page(slow_page).expect("evict");

    let server =
        Server::start(Arc::clone(&db), ServerConfig { workers: 4, ..ServerConfig::default() })
            .expect("start");

    // Raw socket: observed arrival order IS the assertion, so no
    // client-side reordering may sit in between.
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    let reads_before = gate.read_attempts.load(Ordering::Relaxed);
    gate.hold_reads();

    // Slow request first (id 1): faults row 3's heap page, parks.
    sock.write_all(&encode_request(&Request {
        id: 1,
        op: RequestOp::GetMany {
            table: "kv".into(),
            index: "by_id".into(),
            keys: vec![key(&rows, 3)],
        },
    }))
    .expect("send slow");
    gate.await_read_attempts(reads_before + 1);

    // Fast request second (id 2): a row on a resident page, no fault.
    sock.write_all(&encode_request(&Request {
        id: 2,
        op: RequestOp::GetMany {
            table: "kv".into(),
            index: "by_id".into(),
            keys: vec![key(&rows, fast_i)],
        },
    }))
    .expect("send fast");

    let mut framer = Framer::new();
    let mut buf = [0u8; 4096];
    let mut read_response = |sock: &mut TcpStream, framer: &mut Framer| loop {
        if let Some(p) = framer.next_payload().expect("clean frames") {
            return decode_response(&p).expect("decodable");
        }
        let n = sock.read(&mut buf).expect("read");
        assert!(n > 0, "server closed unexpectedly");
        framer.extend(&buf[..n]);
    };

    // The fast response overtakes the parked one.
    let first = read_response(&mut sock, &mut framer);
    assert_eq!(first.id, 2, "fast request (submitted second) must complete first");
    assert!(matches!(first.body, ResponseBody::GetMany { ref rows } if rows[0].is_some()));

    // Release the gate: the slow response lands, correct and intact.
    gate.release_reads();
    let second = read_response(&mut sock, &mut framer);
    assert_eq!(second.id, 1);
    match second.body {
        ResponseBody::GetMany { rows: got } => {
            let tuple = got[0].as_deref().expect("row 3 present");
            assert_eq!(rows.decode(tuple).expect("decode")[1], Value::Int(30));
        }
        other => panic!("expected get_many body, got {other:?}"),
    }

    drop(sock);
    server.shutdown();
}

#[test]
fn malformed_frames_error_by_name_and_close_without_poisoning() {
    let cfg = DbConfig::default();
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(cfg.page_size));
    let (db, rows, _) = seeded_db(cfg, heap, 10);
    let server = Server::start(Arc::clone(&db), server_config()).expect("start");

    // Each case: (raw bytes to send, substring the error must name).
    let valid = encode_request(&Request {
        id: 5,
        op: RequestOp::GetMany {
            table: "kv".into(),
            index: "by_id".into(),
            keys: vec![key(&rows, 1)],
        },
    });
    let truncated = valid[..valid.len() - 4].to_vec();
    let oversize = {
        let mut f = Vec::new();
        nbb_encoding::wire::put_u32(&mut f, (nbb_proto::DEFAULT_MAX_FRAME + 1) as u32);
        f
    };
    let bad_tag = {
        let mut p = Vec::new();
        nbb_encoding::wire::put_u64(&mut p, 5);
        p.push(222); // no such op
        let mut f = Vec::new();
        nbb_encoding::wire::put_u32(&mut f, p.len() as u32);
        f.extend_from_slice(&p);
        f
    };
    let spliced = {
        // Valid header + id, garbage where the op body should be.
        let mut v = valid.clone();
        let len = v.len();
        for b in &mut v[nbb_proto::HEADER_LEN + 9..len] {
            *b = 0xEE;
        }
        v
    };
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        ("truncated", truncated, "truncated"),
        ("oversize", oversize, "oversize"),
        ("bad-op-tag", bad_tag, "bad op tag"),
        ("garbage-splice", spliced, "protocol error"),
    ];

    for (name, bytes, needle) in cases {
        let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
        sock.write_all(&bytes).expect("send");
        // Truncation is only detectable at EOF; harmless for the rest.
        sock.shutdown(Shutdown::Write).expect("half-close");

        // Expect exactly one error response naming the failure, then a
        // clean close.
        let mut raw = Vec::new();
        sock.read_to_end(&mut raw).expect("drain");
        let mut framer = Framer::new();
        framer.extend(&raw);
        let payload = framer
            .next_payload()
            .expect("server reply frames cleanly")
            .unwrap_or_else(|| panic!("case {name}: no error response before close"));
        let resp = decode_response(&payload).expect("decodable error response");
        match resp.body {
            ResponseBody::Error { message } => {
                assert!(
                    message.contains(needle),
                    "case {name}: error {message:?} does not name {needle:?}"
                );
            }
            other => panic!("case {name}: expected error body, got {other:?}"),
        }
        assert_eq!(framer.next_payload(), Ok(None), "case {name}: single response then close");
    }

    // The database survived every malformed connection: a fresh
    // connection reads real data.
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let got = client.get_many("kv", "by_id", vec![key(&rows, 1)]).expect("healthy");
    assert!(got[0].is_some());
    let stats = client.stats().expect("stats");
    assert_eq!(stats.decode_errors, 4, "each malformed frame counted once");

    drop(client);
    server.shutdown();
}

#[test]
fn shutdown_mid_flight_drains_the_in_flight_response() {
    let cfg = DbConfig { heap_frames: 64, ..DbConfig::default() };
    let gate = Arc::new(GateDisk::new(cfg.page_size));
    let (db, rows, rids) = seeded_db(cfg, Arc::clone(&gate) as Arc<dyn DiskManager>, 10);
    let t = db.table("kv").expect("table");
    let idx = t.index("by_id").expect("index");
    let warm: Vec<Vec<u8>> = (0..10).map(|i| key(&rows, i)).collect();
    idx.get_many(&warm).expect("warm");
    db.heap_pool().flush_all().expect("flush");
    db.heap_pool().evict_page(rids[4].page).expect("evict");

    let server = Server::start(Arc::clone(&db), server_config()).expect("start");
    let addr = server.local_addr();
    let client = Client::connect(addr, ClientConfig::default()).expect("connect");

    // Park one request mid-fault…
    let reads_before = gate.read_attempts.load(Ordering::Relaxed);
    gate.hold_reads();
    let ticket = client
        .submit(RequestOp::GetMany {
            table: "kv".into(),
            index: "by_id".into(),
            keys: vec![key(&rows, 4)],
        })
        .expect("submit");
    gate.await_read_attempts(reads_before + 1);

    // …start shutdown while it is provably in flight…
    let server = Arc::new(server);
    let shutter = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.shutdown())
    };
    // Give shutdown time to stop the acceptor and nudge connections;
    // the gate keeps the worker pinned, so shutdown cannot finish yet.
    std::thread::sleep(Duration::from_millis(100));
    assert!(!shutter.is_finished(), "shutdown must wait for the in-flight request");

    // …then let the fault finish: the response must still reach the
    // client (drain, not drop).
    gate.release_reads();
    shutter.join().expect("shutdown thread");
    let body = client.redeem(ticket).expect("drained response");
    match body {
        ResponseBody::GetMany { rows: got } => {
            let tuple = got[0].as_deref().expect("row 4 present");
            assert_eq!(rows.decode(tuple).expect("decode")[1], Value::Int(40));
        }
        other => panic!("expected get_many body, got {other:?}"),
    }

    // And the server is really gone: new connections get no service.
    // Refused outright is fine too; a connect that lands must see EOF.
    if let Ok(mut s) = TcpStream::connect(addr) {
        let mut buf = [0u8; 1];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "post-shutdown conn must see EOF");
    }
}

#[test]
fn max_connections_refuses_extras_and_counts_them() {
    let cfg = DbConfig::default();
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(cfg.page_size));
    let (db, _rows, _) = seeded_db(cfg, heap, 1);
    let server =
        Server::start(db, ServerConfig { max_connections: 2, ..server_config() }).expect("start");

    let c1 = Client::connect(server.local_addr(), ClientConfig::default()).expect("conn 1");
    let c2 = Client::connect(server.local_addr(), ClientConfig::default()).expect("conn 2");
    // A round trip on the LATER connection proves both are registered:
    // the acceptor registers in connect order before spawning a reader.
    assert_eq!(c2.stats().expect("stats").active_connections, 2);

    // The third connection is dropped by the acceptor: EOF or reset
    // before any response.
    let mut extra = TcpStream::connect(server.local_addr()).expect("tcp connect");
    extra.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut buf = [0u8; 1];
    match extra.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("refused connection received {n} bytes"),
        Err(_) => {} // reset — also a refusal
    }
    assert_eq!(c2.stats().expect("stats").connections_refused, 1);

    // Capacity frees when a connection closes.
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(c3) = Client::connect(server.local_addr(), ClientConfig::default()) {
            if let Ok(s) = c3.stats() {
                assert!(s.active_connections <= 2);
                break;
            }
        }
        assert!(Instant::now() < deadline, "capacity never freed after close");
        std::thread::sleep(Duration::from_millis(5));
    }

    drop(c2);
    server.shutdown();
}

#[test]
fn full_response_queue_parks_the_reader_and_counts_it() {
    let cfg = DbConfig { heap_frames: 64, ..DbConfig::default() };
    let gate = Arc::new(GateDisk::new(cfg.page_size));
    let (db, rows, rids) = seeded_db(cfg, Arc::clone(&gate) as Arc<dyn DiskManager>, 10);
    let t = db.table("kv").expect("table");
    let idx = t.index("by_id").expect("index");
    let warm: Vec<Vec<u8>> = (0..10).map(|i| key(&rows, i)).collect();
    idx.get_many(&warm).expect("warm");
    db.heap_pool().flush_all().expect("flush");
    db.heap_pool().evict_page(rids[2].page).expect("evict");

    // One response slot: while request A is parked at the gate holding
    // the reservation, admitting request B must park the reader.
    let server =
        Server::start(Arc::clone(&db), ServerConfig { response_queue: 1, ..server_config() })
            .expect("start");
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    let reads_before = gate.read_attempts.load(Ordering::Relaxed);
    gate.hold_reads();
    let slow = client
        .submit(RequestOp::GetMany {
            table: "kv".into(),
            index: "by_id".into(),
            keys: vec![key(&rows, 2)],
        })
        .expect("submit slow");
    gate.await_read_attempts(reads_before + 1);
    let fast = client
        .submit(RequestOp::GetMany {
            table: "kv".into(),
            index: "by_id".into(),
            keys: vec![key(&rows, 7)],
        })
        .expect("submit fast");

    // The reader cannot admit `fast` until the slot frees: park count
    // must tick. (Poll via the server handle — the wire path is the
    // thing being backpressured.)
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().queue_full_parks == 0 {
        assert!(Instant::now() < deadline, "reader never parked on the full queue");
        std::thread::sleep(Duration::from_millis(1));
    }

    gate.release_reads();
    assert!(matches!(client.redeem(slow).expect("slow"), ResponseBody::GetMany { .. }));
    assert!(matches!(client.redeem(fast).expect("fast"), ResponseBody::GetMany { .. }));

    drop(client);
    server.shutdown();
}

// ---- Natural batching ------------------------------------------------

/// A `kv` database whose heap sits on a gate disk with every heap page
/// evicted (each row read is a device read), served by ONE worker.
/// While that worker is parked at the gate inside a blocker request,
/// everything [`Backlog::enqueue`]d queues up behind it in send order,
/// so the groups the worker will form are known exactly.
struct Backlog {
    gate: Arc<GateDisk>,
    rows: RowSchema,
    rids: Vec<nbb_storage::RecordId>,
    server: Server,
}

impl Backlog {
    fn new(n: i64) -> Backlog {
        // One pool shard of 64 frames: a batched fault reserves up to
        // 32 pages at once, so a whole group's misses ride one
        // `read_many` and device calls count engine calls.
        let cfg =
            DbConfig { heap_frames: 64, page_size: 512, pool_shards: 1, ..DbConfig::default() };
        let gate = Arc::new(GateDisk::new(cfg.page_size));
        let (db, rows, rids) =
            seeded_db_caching(cfg, Arc::clone(&gate) as Arc<dyn DiskManager>, n, &["val"]);
        db.heap_pool().flush_all().expect("flush");
        let pages: BTreeSet<PageId> = rids.iter().map(|r| r.page).collect();
        assert!(pages.len() >= 4 && pages.len() <= 32, "{} heap pages", pages.len());
        for page in pages {
            db.heap_pool().evict_page(page).expect("evict");
        }
        let server = Server::start(db, ServerConfig { workers: 1, ..ServerConfig::default() })
            .expect("start");
        Backlog { gate, rows, rids, server }
    }

    /// [`cold_kv`] — 10,000 rows, both pools cold, both disks gated —
    /// behind ONE worker, for queueing `Range` pages: `gate` is the
    /// heap disk, the index disk and the database come back beside it.
    fn cold() -> (Backlog, Arc<GateDisk>, Arc<Database>) {
        let (db, rows, [gate, index]) = cold_kv();
        let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
        let server = Server::start(Arc::clone(&db), cfg).expect("start");
        (Backlog { gate, rows, rids: Vec::new(), server }, index, db)
    }

    fn connect(&self) -> Client {
        Client::connect(self.server.local_addr(), ClientConfig::default()).expect("connect")
    }

    /// The first row id that lives on none of the heap pages of `ids`.
    fn id_off_pages_of(&self, ids: &[i64]) -> i64 {
        let taken: Vec<PageId> = ids.iter().map(|&i| self.rids[i as usize].page).collect();
        self.rids.iter().position(|r| !taken.contains(&r.page)).expect("a further heap page") as i64
    }

    /// Parks the worker: holds the gate and sends a read of row `id`,
    /// returning once its fault has reached the disk.
    fn park(&self, client: &Client, id: i64) -> nbb_client::Ticket {
        let reads = self.gate.read_attempts.load(Ordering::Relaxed);
        self.gate.hold_reads();
        let ticket = client.submit(get_many(&self.rows, &[id])).expect("submit blocker");
        self.gate.await_read_attempts(reads + 1);
        ticket
    }

    /// Sends `op` and returns once it sits in the work queue
    /// (`frames_in` counts a job as it is queued), so consecutive calls
    /// queue in call order whichever connection they use.
    fn enqueue(&self, client: &Client, op: RequestOp) -> nbb_client::Ticket {
        let queued = self.server.stats().frames_in;
        let ticket = client.submit(op).expect("submit");
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.server.stats().frames_in == queued {
            assert!(Instant::now() < deadline, "the request never reached the work queue");
            std::thread::sleep(Duration::from_millis(1));
        }
        ticket
    }

    fn release(&self) {
        self.gate.release_reads();
    }
}

#[test]
fn queued_point_reads_coalesce_into_one_engine_call_and_one_device_call() {
    let b = Backlog::new(200);
    let (c1, c2) = (b.connect(), b.connect());
    let before = b.server.stats();
    let calls_before = b.gate.read_calls.load(Ordering::Relaxed);

    // Request A parks the only worker mid-fault; six cold reads from
    // two connections (whose request ids collide, so routing is by
    // connection AND id) queue up behind it.
    let blocker = b.park(&c1, 0);
    let cold = b.id_off_pages_of(&[0]);
    let reads: Vec<[i64; 2]> = (0..6).map(|i| [cold + i, 199 - i]).collect();
    let tickets: Vec<_> = reads
        .iter()
        .enumerate()
        .map(|(i, ids)| b.enqueue(if i % 2 == 0 { &c1 } else { &c2 }, get_many(&b.rows, ids)))
        .collect();
    b.release();

    assert_eq!(get_vals(&b.rows, c1.redeem(blocker).expect("blocker")), vec![Some(0)]);
    for (i, (ids, ticket)) in reads.iter().zip(tickets).enumerate() {
        let client = if i % 2 == 0 { &c1 } else { &c2 };
        let want: Vec<Option<i64>> = ids.iter().map(|id| Some(id * 10)).collect();
        assert_eq!(get_vals(&b.rows, client.redeem(ticket).expect("read")), want, "request {i}");
    }

    // A alone, then all six as ONE group: two engine calls, two device
    // round trips, whatever the six requests' pages.
    let after = b.server.stats();
    assert_eq!(after.frames_in - before.frames_in, 7);
    assert_eq!(after.batches_executed - before.batches_executed, 2);
    assert_eq!(b.gate.read_calls.load(Ordering::Relaxed) - calls_before, 2);

    drop((c1, c2));
    b.server.shutdown();
}

#[test]
fn coalesced_groups_scatter_rows_back_and_never_hoist_a_read_past_a_write() {
    let b = Backlog::new(200);
    let (c1, c2) = (b.connect(), b.connect());
    let before = b.server.stats();
    let blocker = b.park(&c1, 0);

    // Queue order, and the groups a prefix-only rule must form:
    //   P[] P[5,missing,7] P[7,5]   one ProjectMany group: zero keys, a
    //                               missing key, keys shared by requests
    //   U[7 -> 777]                 a write ends the run
    //   P[7] P[]                    second group: reads the new value
    //   G[3] G[]                    a different op kind starts its own
    //   P[3]                        group and ends the one before it
    let p_empty = b.enqueue(&c1, project_many(&b.rows, &[]));
    let p_miss = b.enqueue(&c2, project_many(&b.rows, &[5, 9_999, 7]));
    let p_dup = b.enqueue(&c1, project_many(&b.rows, &[7, 5]));
    let update = b.enqueue(&c2, update_many(&b.rows, &[(7, 777)]));
    let p_after = b.enqueue(&c1, project_many(&b.rows, &[7]));
    let p_empty2 = b.enqueue(&c2, project_many(&b.rows, &[]));
    let g_one = b.enqueue(&c1, get_many(&b.rows, &[3]));
    let g_empty = b.enqueue(&c2, get_many(&b.rows, &[]));
    let p_last = b.enqueue(&c1, project_many(&b.rows, &[3]));
    b.release();

    c1.redeem(blocker).expect("blocker");
    assert_eq!(projected_vals(&b.rows, c1.redeem(p_empty).expect("p_empty")), vec![]);
    assert_eq!(
        projected_vals(&b.rows, c2.redeem(p_miss).expect("p_miss")),
        vec![Some(50), None, Some(70)]
    );
    assert_eq!(projected_vals(&b.rows, c1.redeem(p_dup).expect("p_dup")), vec![Some(70), Some(50)]);
    assert_eq!(
        c2.redeem(update).expect("update"),
        ResponseBody::UpdateMany { applied: vec![true] }
    );
    assert_eq!(
        projected_vals(&b.rows, c1.redeem(p_after).expect("p_after")),
        vec![Some(777)],
        "the read queued behind the write must see it"
    );
    assert_eq!(projected_vals(&b.rows, c2.redeem(p_empty2).expect("p_empty2")), vec![]);
    assert_eq!(get_vals(&b.rows, c1.redeem(g_one).expect("g_one")), vec![Some(30)]);
    assert_eq!(get_vals(&b.rows, c2.redeem(g_empty).expect("g_empty")), vec![]);
    assert_eq!(projected_vals(&b.rows, c1.redeem(p_last).expect("p_last")), vec![Some(30)]);

    // Blocker, P-group, U, P-group, G-group, P: six engine calls for
    // ten requests.
    let after = b.server.stats();
    assert_eq!(after.frames_in - before.frames_in, 10);
    assert_eq!(after.batches_executed - before.batches_executed, 6);

    drop((c1, c2));
    b.server.shutdown();
}

#[test]
fn a_request_that_fails_alone_does_not_fail_its_group_mates() {
    let b = Backlog::new(200);
    let (c1, c2) = (b.connect(), b.connect());
    let before = b.server.stats();
    let blocker = b.park(&c1, 0);

    // Three reads on three further heap pages; the middle one's page
    // fails every device call that asks for it — the merged call too.
    let ok1 = b.id_off_pages_of(&[0]);
    let bad = b.id_off_pages_of(&[0, ok1]);
    let ok2 = b.id_off_pages_of(&[0, ok1, bad]);
    b.gate.fail_reads_of(b.rids[bad as usize].page);
    let t_ok1 = b.enqueue(&c1, get_many(&b.rows, &[ok1]));
    let t_bad = b.enqueue(&c2, get_many(&b.rows, &[ok2, bad]));
    let t_ok2 = b.enqueue(&c1, get_many(&b.rows, &[ok2]));
    b.release();

    c1.redeem(blocker).expect("blocker");
    assert_eq!(get_vals(&b.rows, c1.redeem(t_ok1).expect("ok1")), vec![Some(ok1 * 10)]);
    match c2.redeem(t_bad).expect("an error body, not a dead connection") {
        ResponseBody::Error { message } => {
            assert!(message.contains("injected read failure"), "{message}")
        }
        other => panic!("the request reading the failing page must fail, got {other:?}"),
    }
    assert_eq!(get_vals(&b.rows, c1.redeem(t_ok2).expect("ok2")), vec![Some(ok2 * 10)]);

    // Blocker, the failed merged call, then the three one at a time.
    let after = b.server.stats();
    assert_eq!(after.batches_executed - before.batches_executed, 5);

    drop((c1, c2));
    b.server.shutdown();
}

#[test]
fn a_panicking_engine_call_answers_its_group_and_the_worker_lives_on() {
    let b = Backlog::new(200);
    let (c1, c2) = (b.connect(), b.connect());
    let blocker = b.park(&c1, 0);

    // The blocker is already past the panic check; the next device
    // call — the group's merged read — panics inside the only worker.
    let cold = b.id_off_pages_of(&[0]);
    b.gate.panic_next_read.store(true, Ordering::SeqCst);
    let t1 = b.enqueue(&c1, get_many(&b.rows, &[cold]));
    let t2 = b.enqueue(&c2, get_many(&b.rows, &[cold + 1]));
    b.release();

    c1.redeem(blocker).expect("blocker");
    for (client, ticket) in [(&c1, t1), (&c2, t2)] {
        match client.redeem(ticket).expect("an error body, not a dead connection") {
            ResponseBody::Error { message } => {
                assert!(message.contains("internal error"), "{message}");
                assert!(message.contains("injected disk panic"), "{message}");
            }
            other => panic!("expected the named internal error, got {other:?}"),
        }
    }

    // Same connections, same (only) worker, same pages: served.
    for (client, id) in [(&c1, cold), (&c2, cold + 1)] {
        let body = client.call(get_many(&b.rows, &[id])).expect("served after the panic");
        assert_eq!(get_vals(&b.rows, body), vec![Some(id * 10)]);
    }

    // No response slot leaked: shutdown's drain terminates.
    drop((c1, c2));
    b.server.shutdown();
}

fn range_page(rows: &RowSchema, from: i64, limit: u32) -> RequestOp {
    RequestOp::Range {
        table: "kv".into(),
        index: "by_id".into(),
        lo: WireBound::Included(key(rows, from)),
        hi: WireBound::Unbounded,
        limit,
    }
}

/// The ids of a `Range` page's rows, with `more` and the resume key.
fn range_ids(rows: &RowSchema, body: ResponseBody) -> (Vec<i64>, bool, Option<Vec<u8>>) {
    let ResponseBody::Range { rows: got, more, resume } = body else {
        panic!("expected a range page: {body:?}")
    };
    let ids = got.iter().map(|(_, t)| int(&rows.decode(t).expect("decode")[0])).collect();
    (ids, more, resume)
}

fn assert_page(rows: &RowSchema, body: ResponseBody, from: i64, len: i64) {
    let want = ((from..from + len).collect::<Vec<i64>>(), true, Some(key(rows, from + len - 1)));
    assert_eq!(range_ids(rows, body), want, "page from {from}");
}

#[test]
fn queued_range_pages_share_one_group_refill_and_its_device_calls() {
    let (b, index, _db) = Backlog::cold();
    let (c1, c2) = (b.connect(), b.connect());
    let before = b.server.stats();

    // The blocker (root, one leaf, one heap page) parks the only
    // worker; two cold 512-row pages, far from it and from each other,
    // queue up behind it.
    let blocker = b.park(&c1, 0);
    let calls = |disk: &GateDisk| disk.read_calls.load(Ordering::Relaxed);
    let (index_before, heap_before) = (calls(&index), calls(&b.gate));
    let r1 = b.enqueue(&c1, range_page(&b.rows, 3003, 512));
    let r2 = b.enqueue(&c2, range_page(&b.rows, 7003, 512));
    b.release();

    assert_eq!(get_vals(&b.rows, c1.redeem(blocker).expect("blocker")), vec![Some(0)]);
    assert_page(&b.rows, c1.redeem(r1).expect("r1"), 3003, 512);
    assert_page(&b.rows, c2.redeem(r2).expect("r2"), 7003, 512);

    // Blocker, then both pages as ONE engine call whose refill faults
    // both pages' first leaves together, then both pages' other leaves
    // together (the blocker left the root resident), and chases all
    // 1,026 rows in one heap read: what one page costs.
    let after = b.server.stats();
    assert_eq!(after.batches_executed - before.batches_executed, 2);
    let (index_calls, heap_calls) = (calls(&index) - index_before, calls(&b.gate) - heap_before);
    assert!(index_calls <= 2, "{index_calls} index device calls for two pages");
    assert!(heap_calls <= 2, "{heap_calls} heap device calls for two pages");

    drop((c1, c2));
    b.server.shutdown();
}

#[test]
fn range_runs_end_at_any_other_op_and_at_the_row_cap() {
    let (b, _index, _db) = Backlog::cold();
    let (c1, c2) = (b.connect(), b.connect());
    let before = b.server.stats();
    let blocker = b.park(&c1, 0);

    // R R G R: a run of two, the point read that ends it, a run of one.
    let r1 = b.enqueue(&c1, range_page(&b.rows, 3003, 300));
    let r2 = b.enqueue(&c2, range_page(&b.rows, 3100, 300));
    let g = b.enqueue(&c1, get_many(&b.rows, &[5]));
    let r3 = b.enqueue(&c2, range_page(&b.rows, 9_900, 500));
    // 500 + 600 and 600 + 600 rows are past the cap: one page per
    // engine call. A refused page inside a run does not end it.
    let r4 = b.enqueue(&c1, range_page(&b.rows, 100, 600));
    let r5 = b.enqueue(&c2, range_page(&b.rows, 200, 600));
    let r6 = b.enqueue(&c1, range_page(&b.rows, 300, 0));
    let r7 = b.enqueue(&c2, range_page(&b.rows, 9_999, 7));
    b.release();

    c1.redeem(blocker).expect("blocker");
    assert_page(&b.rows, c1.redeem(r1).expect("r1"), 3003, 300);
    assert_page(&b.rows, c2.redeem(r2).expect("r2"), 3100, 300);
    assert_eq!(get_vals(&b.rows, c1.redeem(g).expect("g")), vec![Some(50)]);
    let last_page = range_ids(&b.rows, c2.redeem(r3).expect("r3"));
    assert_eq!(last_page, ((9_900..10_000).collect(), false, Some(key(&b.rows, 9_999))));
    assert_page(&b.rows, c1.redeem(r4).expect("r4"), 100, 600);
    assert_page(&b.rows, c2.redeem(r5).expect("r5"), 200, 600);
    let refused = ResponseBody::Error { message: nbb_proto::RANGE_LIMIT_ZERO.into() };
    assert_eq!(c1.redeem(r6).expect("r6"), refused);
    let tail = range_ids(&b.rows, c2.redeem(r7).expect("r7"));
    assert_eq!(tail, (vec![9_999], false, Some(key(&b.rows, 9_999))));

    // Blocker, [R R], G, [R], [R], [R R(0) R]: six engine calls.
    let after = b.server.stats();
    assert_eq!(after.frames_in - before.frames_in, 9);
    assert_eq!(after.batches_executed - before.batches_executed, 6);

    drop((c1, c2));
    b.server.shutdown();
}

#[test]
fn a_failing_leaf_fails_only_the_range_page_that_needs_it() {
    let (b, index, db) = Backlog::cold();
    let (c1, c2) = (b.connect(), b.connect());
    let before = b.server.stats();
    let blocker = b.park(&c1, 0);

    // The first leaf of the second page fails every device call that
    // asks for it — the run's merged leaf fault too. (Naming it reads
    // only the root, which the blocker made resident.)
    let t = db.table("kv").expect("table");
    let first = key(&b.rows, 7003);
    let doomed =
        t.index("by_id").expect("index").tree().leaf_for(std::ops::Bound::Included(&first));
    index.fail_reads_of(doomed.expect("leaf_for"));
    let r1 = b.enqueue(&c1, range_page(&b.rows, 3003, 512));
    let r2 = b.enqueue(&c2, range_page(&b.rows, 7003, 512));
    b.release();

    c1.redeem(blocker).expect("blocker");
    assert_page(&b.rows, c1.redeem(r1).expect("r1"), 3003, 512);
    match c2.redeem(r2).expect("an error body, not a dead connection") {
        ResponseBody::Error { message } => {
            assert!(message.contains("injected read failure"), "{message}")
        }
        other => panic!("the page over the failing leaf must fail, got {other:?}"),
    }
    // Blocker, the failed merged call, then the two one at a time.
    let after = b.server.stats();
    assert_eq!(after.batches_executed - before.batches_executed, 4);

    drop((c1, c2));
    b.server.shutdown();
}

#[test]
fn a_panicking_group_refill_answers_both_pages_and_the_worker_lives_on() {
    let (b, _index, _db) = Backlog::cold();
    let (c1, c2) = (b.connect(), b.connect());
    let blocker = b.park(&c1, 0);

    // The blocker is past the heap disk's panic check; the next heap
    // read — the run's merged chase — panics inside the only worker.
    b.gate.panic_next_read.store(true, Ordering::SeqCst);
    let r1 = b.enqueue(&c1, range_page(&b.rows, 3003, 512));
    let r2 = b.enqueue(&c2, range_page(&b.rows, 7003, 512));
    b.release();

    c1.redeem(blocker).expect("blocker");
    for (client, ticket) in [(&c1, r1), (&c2, r2)] {
        match client.redeem(ticket).expect("an error body, not a dead connection") {
            ResponseBody::Error { message } => {
                assert!(message.contains("internal error"), "{message}");
                assert!(message.contains("injected disk panic"), "{message}");
            }
            other => panic!("expected the named internal error, got {other:?}"),
        }
    }
    // Same connections, same (only) worker, same pages: served.
    for (client, from) in [(&c1, 3003), (&c2, 7003)] {
        let body = client.call(range_page(&b.rows, from, 512)).expect("served after the panic");
        assert_page(&b.rows, body, from, 512);
    }

    drop((c1, c2));
    b.server.shutdown();
}

// ---- The outbound frame cap -------------------------------------------

/// 20,000 rows of 64-byte tuples (`id` and seven more ints), indexed by
/// `id`: a page of all of them is a 1.6 MB frame.
fn wide_db() -> (Arc<Database>, RowSchema) {
    let names = ["id", "a", "b", "c", "d", "e", "f", "g"];
    let schema = Schema {
        table: "wide".into(),
        columns: names.iter().map(|n| ColumnDef::new(n, DeclaredType::Int64)).collect(),
    };
    let rows = RowSchema::new(&schema);
    let db = Arc::new(Database::open(DbConfig::default()));
    let t = db.create_table_with(&rows).expect("create table");
    let load: Vec<Vec<u8>> = (0..20_000i64)
        .map(|id| rows.encode(&vec![Value::Int(id); names.len()]).expect("encode"))
        .collect();
    assert_eq!(load[0].len(), 64);
    t.insert_many(&load).expect("load");
    t.create_index(rows.index_spec("by_id", "id", &[]).expect("spec")).expect("index");
    (db, rows)
}

#[test]
fn an_oversize_range_page_is_cut_to_fit_its_frame_and_pages_to_completion() {
    let (db, rows) = wide_db();
    let server = Server::start(db, server_config()).expect("start");
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    // One request for everything. The whole answer is 1,600,028 bytes;
    // sent as one frame, the client's framer refuses it and the
    // connection dies with every request in flight on it.
    let mut seen: Vec<i64> = Vec::new();
    let mut lo = WireBound::Unbounded;
    let mut pages = 0;
    loop {
        let (page, more, resume) = client
            .range("wide", "by_id", lo, WireBound::Unbounded, 20_000)
            .expect("a page that fits its frame");
        let frame = 28 + page.len() * (8 + 8 + 64);
        assert!(frame <= nbb_proto::DEFAULT_MAX_FRAME, "a {frame}-byte frame left the server");
        assert!(!page.is_empty(), "a cut page still makes progress");
        seen.extend(page.iter().map(|(_, t)| int(&rows.decode(t).expect("decode")[0])));
        assert_eq!(resume.as_ref(), page.last().map(|(k, _)| k));
        pages += 1;
        if !more {
            break;
        }
        lo = WireBound::Excluded(resume.expect("a cut page names its resume key"));
    }
    assert_eq!(seen, (0..20_000).collect::<Vec<i64>>(), "every row once, in order");
    assert_eq!(pages, 2, "13,106 rows fit a 1 MiB frame");

    drop(client);
    server.shutdown();
}

#[test]
fn any_other_oversize_response_is_a_named_error_and_the_connection_lives() {
    let (db, rows) = wide_db();
    let server = Server::start(db, server_config()).expect("start");
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let get = |ids: std::ops::Range<i64>| RequestOp::GetMany {
        table: "wide".into(),
        index: "by_id".into(),
        keys: ids.map(|id| rows.key("id", &Value::Int(id)).expect("key")).collect(),
    };

    // 240 KB of keys in, 1.38 MB of tuples out: over the cap.
    match client.call(get(0..20_000)).expect("an error body, not a dead connection") {
        ResponseBody::Error { message } => {
            assert!(message.starts_with(nbb_proto::RESPONSE_TOO_LARGE), "{message}")
        }
        other => {
            panic!("expected the named error, got {} bytes of rows", format!("{other:?}").len())
        }
    }
    // The same connection serves a request that fits.
    let ResponseBody::GetMany { rows: got } = client.call(get(7..9)).expect("served") else {
        panic!("expected rows")
    };
    let ids: Vec<i64> = got
        .iter()
        .map(|t| int(&rows.decode(t.as_ref().expect("present")).expect("decode")[0]))
        .collect();
    assert_eq!(ids, vec![7, 8]);

    drop(client);
    server.shutdown();
}

// ---- Accept -------------------------------------------------------------

#[test]
fn an_idle_server_blocks_in_accept_and_shutdown_wakes_it() {
    let (db, _, _) = seeded_db(DbConfig::default(), Arc::new(InMemoryDisk::new(8192)), 0);
    let server = Server::start(db, server_config()).expect("start");
    let addr = server.local_addr();
    // Idle long enough that a polling accept loop would have spun; the
    // blocked one serves the first connect at once.
    std::thread::sleep(Duration::from_millis(20));
    let client = Client::connect(addr, ClientConfig::default()).expect("connect");
    assert_eq!(client.stats().expect("stats").connections_opened, 1);
    drop(client);

    // Nothing is connecting: only shutdown's own loopback connect can
    // get the accept thread out of `accept()`.
    let started = Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(5), "shutdown hung on the accept thread");
    assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
    assert_eq!(server.stats().connections_opened, 1, "the wake-up is not a connection");
}

/// xorshift64*: the history below needs reproducible choices, not
/// statistical quality.
struct TestRng(u64);

impl TestRng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
    }
}

/// What a request of the random history must answer.
enum Expect {
    Get(Vec<Option<i64>>),
    Project(Vec<Option<i64>>),
    Updated,
}

/// One client's half of the random history: a pipelined stream of
/// `GetMany` / `ProjectMany` / `UpdateMany` over the keys it owns
/// (`id % 3 == me`) and the shared read-only keys (`id % 3 == 2`),
/// checked against a `BTreeMap` oracle.
///
/// Requests of one connection may execute in any order on a
/// multi-worker server, so the stream never has a read and a write of
/// one key in flight together: then every read has exactly one right
/// answer, the oracle's at submit time.
fn run_history(client: &Client, rows: &RowSchema, me: i64, n_keys: i64, ops: usize, seed: u64) {
    const WINDOW: usize = 8;
    let mut rng = TestRng(seed);
    let mine = |id: &i64| id % 3 == me || id % 3 == 2;
    let mut oracle: BTreeMap<i64, i64> = (0..n_keys).filter(mine).map(|id| (id, id * 10)).collect();
    // Keys with a read (counted) or a write in flight.
    let mut reading: BTreeMap<i64, usize> = BTreeMap::new();
    let mut writing: BTreeSet<i64> = BTreeSet::new();
    let mut in_flight: VecDeque<(nbb_client::Ticket, Vec<i64>, Expect)> = VecDeque::new();

    for op in 0..ops + WINDOW {
        if in_flight.len() == WINDOW || op >= ops {
            let Some((ticket, ids, expect)) = in_flight.pop_front() else { break };
            let body = client.redeem(ticket).expect("redeem");
            match expect {
                Expect::Get(want) => assert_eq!(get_vals(rows, body), want, "get {ids:?}"),
                Expect::Project(want) => {
                    assert_eq!(projected_vals(rows, body), want, "project {ids:?}")
                }
                Expect::Updated => {
                    let applied = vec![true; ids.len()];
                    assert_eq!(body, ResponseBody::UpdateMany { applied }, "update {ids:?}");
                }
            }
            for id in &ids {
                if !writing.remove(id) {
                    *reading.get_mut(id).expect("a read was counted") -= 1;
                }
            }
            if op >= ops {
                continue;
            }
        }
        let kind = rng.below(5);
        if kind < 4 {
            // A read of up to 4 keys, some of them absent, none being written.
            let ids: Vec<i64> = (0..rng.below(5))
                .map(|_| rng.below(n_keys as u64 + 20) as i64)
                .filter(|id| mine(id) && !writing.contains(id))
                .collect();
            let want: Vec<Option<i64>> = ids.iter().map(|id| oracle.get(id).copied()).collect();
            ids.iter().for_each(|id| *reading.entry(*id).or_default() += 1);
            let (req, expect) = if kind < 2 {
                (get_many(rows, &ids), Expect::Get(want))
            } else {
                (project_many(rows, &ids), Expect::Project(want))
            };
            in_flight.push_back((client.submit(req).expect("submit"), ids, expect));
        } else {
            // A write of up to 3 distinct owned keys nothing else is using.
            let ids: BTreeSet<i64> = (0..1 + rng.below(3))
                .map(|_| rng.below(n_keys as u64) as i64)
                .filter(|id| id % 3 == me && !writing.contains(id))
                .filter(|id| reading.get(id).copied().unwrap_or(0) == 0)
                .collect();
            let pairs: Vec<(i64, i64)> =
                ids.iter().map(|&id| (id, rng.below(1_000_000) as i64)).collect();
            oracle.extend(pairs.iter().copied());
            writing.extend(ids.iter().copied());
            let ticket = client.submit(update_many(rows, &pairs)).expect("submit");
            in_flight.push_back((ticket, ids.into_iter().collect(), Expect::Updated));
        }
    }
    assert!(in_flight.is_empty());
}

#[test]
fn random_pipelined_history_from_two_clients_matches_an_oracle() {
    const KEYS: i64 = 300;
    const OPS: usize = 2_000;
    for workers in [1, 4] {
        // A heap pool smaller than the table, so reads keep faulting
        // and groups keep merging real device work.
        let cfg = DbConfig { heap_frames: 8, page_size: 512, ..DbConfig::default() };
        let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(cfg.page_size));
        let (db, rows, _) = seeded_db_caching(cfg, heap, KEYS, &["val"]);
        let server =
            Server::start(db, ServerConfig { workers, ..ServerConfig::default() }).expect("start");

        std::thread::scope(|s| {
            for me in 0..2 {
                let (addr, rows) = (server.local_addr(), &rows);
                s.spawn(move || {
                    let client = Client::connect(addr, ClientConfig::default()).expect("connect");
                    run_history(&client, rows, me, KEYS, OPS, 0x9E37_79B9 + me as u64);
                });
            }
        });

        // After shutdown every writer has been joined, so the counters
        // are final.
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.frames_in, 2 * OPS as u64);
        assert_eq!(stats.frames_out, 2 * OPS as u64);
        assert!(stats.batches_executed <= stats.frames_in, "a group is one engine call");
    }
}

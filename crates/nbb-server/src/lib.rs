//! # nbb-server — the engine's loopback-TCP front door
//!
//! Serves [`nbb_proto`] frames over TCP, multiplexing any number of
//! pipelined connections onto a small worker pool that executes
//! requests against a shared [`Database`] through its batched fast
//! paths (`get_many`, `insert_many`, `put_many`, …). One network
//! round-trip carries a whole batch, so the per-request framing cost
//! amortizes exactly like the engine amortizes lock acquisitions.
//!
//! ## Thread anatomy
//!
//! ```text
//!             accept thread ── blocks in accept(), registers conns,
//!             │                enforces max_connections
//!   per conn: reader thread ── frames bytes, decodes, reserves a
//!             │                response slot, submits a Job
//!             ▼
//!         shared work queue ──► N worker threads ── take the head job plus
//!             ▲                 the queued run of like point reads behind
//!             │                 it, make ONE engine call for the group (no
//!             │                 server lock held), split the rows back per
//!             │                 request, push the encoded responses
//!   per conn: writer thread ── drains the bounded response queue
//! ```
//!
//! **Natural batching.** A worker that dequeues a `GetMany` or
//! `ProjectMany` also takes whatever contiguous run of the same op,
//! table and index is already queued behind it (never waiting for more,
//! never past `GROUP_KEY_CAP` = 64 keys) and runs one `get_many` /
//! `project_many` over the concatenated keys, so the engine's
//! sort / leaf-group / batched-fault machinery merges the group's misses
//! into one device round trip. The group size tunes itself to queue
//! depth: an idle server serves every request alone with no added
//! latency, a backed-up one pays the device once per group. Only a
//! prefix of the queue is ever taken, so no read is hoisted past a
//! queued write. Queued `Range` pages on one table and index coalesce
//! the same way, up to `GROUP_ROW_CAP` = 1,024 rows asked for: the run
//! is one group refill (`IndexRef::range_pages`) that merges the pages'
//! leaf faults and heap reads, and each page is encoded from the
//! refill's arena straight into its response frame. Below the
//! resident inner nodes a cold page costs three serial device calls —
//! its first leaf, every other leaf it spans in one batch (sized from
//! the first leaf's key count to finish the page), its heap pages in
//! one batch — and a run of pages costs the same three.
//! [`nbb_proto::WireServerStats::batches_executed`] counts
//! engine calls, which makes `frames_in / batches_executed` the mean
//! group size.
//!
//! Responses complete **out of order**: a fast request submitted after
//! a slow one returns first, matched by the client via the echoed
//! request id. Backpressure is per connection — a reader that finds all
//! [`ServerConfig::response_queue`] slots reserved parks on a condvar
//! (counted in [`nbb_proto::WireServerStats::queue_full_parks`]) until
//! the writer drains, so a slow consumer throttles only itself.
//!
//! Malformed frames never poison anything: the reader answers with a
//! best-effort error response naming the [`nbb_proto::DecodeError`],
//! closes that one connection, and the `Database` and every other
//! connection continue untouched.
//!
//! All locks carry ranks from the workspace lattice
//! ([`nbb_storage::lockrank`], server band 1–4); workers provably hold
//! no server lock while touching the engine.

#![warn(missing_docs)]

use nbb_core::db::Database;
use nbb_core::query::PageSpec;
use nbb_core::table::Projection;
use nbb_proto::{
    DecodeError, Framer, Request, RequestOp, Response, ResponseBody, WireBound, WireProjection,
    WireServerStats, RANGE_LIMIT_ZERO, RESPONSE_TOO_LARGE,
};
use nbb_storage::error::StorageError;
use nbb_storage::lockrank;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral loopback port
    /// (read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing requests against the database.
    pub workers: usize,
    /// Connections beyond this are refused at accept (counted in
    /// [`WireServerStats::connections_refused`]).
    pub max_connections: usize,
    /// Response slots per connection: the pipelining depth the server
    /// buffers before the reader parks (the backpressure bound).
    pub response_queue: usize,
    /// Frame payload cap: enforced on inbound frames, and never
    /// exceeded by an outbound one (a `Range` page is cut to fit, any
    /// other oversize response becomes a named error).
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_connections: 64,
            response_queue: 64,
            max_frame: nbb_proto::DEFAULT_MAX_FRAME,
        }
    }
}

/// Monotonic server counters (the live side of [`WireServerStats`]).
#[derive(Debug, Default)]
struct Stats {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    batches_executed: AtomicU64,
    queue_full_parks: AtomicU64,
    active_connections: AtomicU64,
    connections_opened: AtomicU64,
    connections_refused: AtomicU64,
    decode_errors: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> WireServerStats {
        WireServerStats {
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            batches_executed: self.batches_executed.load(Ordering::Relaxed),
            queue_full_parks: self.queue_full_parks.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_refused: self.connections_refused.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// Per-connection response state, guarded at `SERVER_CONN_RESP`.
///
/// A slot is *reserved* when the reader admits a request and *filled*
/// when a worker pushes the encoded response; `reserved + queue.len()`
/// never exceeds the configured bound, which is what makes the queue
/// an end-to-end backpressure signal rather than an unbounded buffer.
#[derive(Debug)]
struct RespState {
    queue: VecDeque<Vec<u8>>,
    reserved: usize,
    reader_done: bool,
    closed: bool,
}

#[derive(Debug)]
struct Conn {
    id: u64,
    stream: TcpStream,
    resp: Mutex<RespState>,
    /// Writer parks here for new responses (or teardown conditions).
    resp_cv: Condvar,
    /// Reader parks here for a free response slot.
    slot_cv: Condvar,
}

impl Conn {
    /// Worker-side completion of one group's responses for this
    /// connection: releases their reservations and, unless the
    /// connection already died, queues the encoded frames — one lock
    /// acquisition and one writer wake-up however many frames.
    ///
    /// Moving a slot from `reserved` to `queue` frees no capacity, so a
    /// parked reader is woken only when the frames are dropped (the
    /// connection is closed); otherwise the writer's pop wakes it.
    fn complete(&self, frames: Vec<Vec<u8>>) {
        let mut resp = self.resp.lock();
        resp.reserved = resp.reserved.saturating_sub(frames.len());
        if resp.closed {
            self.slot_cv.notify_one();
        } else {
            resp.queue.extend(frames);
        }
        self.resp_cv.notify_one();
    }
}

struct Job {
    conn: Arc<Conn>,
    req: Request,
}

struct WorkQueue {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Lifecycle {
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conn_threads: Vec<JoinHandle<()>>,
}

struct Shared {
    db: Arc<Database>,
    cfg: ServerConfig,
    stats: Stats,
    shutting_down: AtomicBool,
    work: Mutex<WorkQueue>,
    work_cv: Condvar,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    conns_cv: Condvar,
    lifecycle: Mutex<Lifecycle>,
}

/// A running server; dropping it (or calling [`Server::shutdown`])
/// stops accepting, drains in-flight requests, and joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds `cfg.addr`, spawns the worker pool and accept thread, and
    /// returns once the server is reachable.
    pub fn start(db: Arc<Database>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            db,
            cfg,
            stats: Stats::default(),
            shutting_down: AtomicBool::new(false),
            work: Mutex::with_rank(
                lockrank::SERVER_WORK_QUEUE,
                WorkQueue { queue: VecDeque::new(), shutdown: false },
            ),
            work_cv: Condvar::new(),
            conns: Mutex::with_rank(lockrank::SERVER_CONNS, HashMap::new()),
            conns_cv: Condvar::new(),
            lifecycle: Mutex::with_rank(
                lockrank::SERVER_LIFECYCLE,
                Lifecycle { accept: None, workers: Vec::new(), conn_threads: Vec::new() },
            ),
        });

        {
            let mut lc = shared.lifecycle.lock();
            for i in 0..shared.cfg.workers.max(1) {
                let s = Arc::clone(&shared);
                lc.workers.push(
                    std::thread::Builder::new()
                        .name(format!("nbb-server-worker-{i}"))
                        .spawn(move || worker_loop(&s))?,
                );
            }
            let s = Arc::clone(&shared);
            lc.accept = Some(
                std::thread::Builder::new()
                    .name("nbb-server-accept".to_string())
                    .spawn(move || accept_loop(&s, listener))?,
            );
        }

        Ok(Server { shared, local_addr })
    }

    /// The bound address (the real port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time snapshot of the server counters (the same block
    /// the wire `Stats` op returns).
    pub fn stats(&self) -> WireServerStats {
        self.shared.stats.snapshot()
    }

    /// Graceful stop: refuses new connections, lets every in-flight
    /// request finish and its response flush, then joins all threads.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }

        // 1. Stop the accept loop: it blocks in `accept()`, so wake it
        // with a loopback connect (it sees the flag and exits). If the
        // connect fails the listener is normally already gone and the
        // thread finished; a thread that is somehow still blocked is
        // left detached rather than joined forever.
        let accept = self.shared.lifecycle.lock().accept.take();
        if let Some(h) = accept {
            let woke = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
            if woke.is_ok() || h.is_finished() {
                let _ = h.join();
            }
        }

        // 2. Nudge every connection's reader with a read-side shutdown:
        // it sees EOF, stops admitting requests, and the writer still
        // drains everything already in flight before closing.
        let conns: Vec<Arc<Conn>> = self.shared.conns.lock().values().cloned().collect();
        for conn in conns {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }

        // 3. Wait for the connection table to drain (writers deregister
        // after their last flush). Workers are still running, so queued
        // jobs complete rather than being dropped.
        {
            let mut conns = self.shared.conns.lock();
            while !conns.is_empty() {
                self.shared.conns_cv.wait_for(&mut conns, Duration::from_millis(50));
            }
        }

        // 4. Now the queue can only shrink: stop the workers.
        {
            let mut work = self.shared.work.lock();
            work.shutdown = true;
            self.shared.work_cv.notify_all();
        }

        // 5. Join everything. Handles are moved out before joining so
        // no lock is held across a join.
        let (workers, conn_threads) = {
            let mut lc = self.shared.lifecycle.lock();
            (std::mem::take(&mut lc.workers), std::mem::take(&mut lc.conn_threads))
        };
        for h in workers.into_iter().chain(conn_threads) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---- Accept ---------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut next_id: u64 = 0;
    loop {
        // Blocks: an idle server costs no wake-ups. `shutdown` sets the
        // flag and then connects, so the flag is checked per arrival.
        let accepted = listener.accept();
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let active = shared.stats.active_connections.load(Ordering::Relaxed);
                if active >= shared.cfg.max_connections as u64 {
                    shared.stats.connections_refused.fetch_add(1, Ordering::Relaxed);
                    // Dropping the stream closes it; the client sees
                    // EOF/reset before any frame arrives.
                    continue;
                }
                next_id += 1;
                if let Err(_e) = spawn_connection(shared, stream, next_id) {
                    // Thread spawn failed (resource exhaustion): treat
                    // like a refused connection.
                    shared.stats.connections_refused.fetch_add(1, Ordering::Relaxed);
                }
            }
            // E.g. out of descriptors: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn spawn_connection(shared: &Arc<Shared>, stream: TcpStream, id: u64) -> std::io::Result<()> {
    // Pipelined small frames must not sit in Nagle's buffer waiting for
    // the peer's delayed ACK — that turns a depth-K pipeline back into
    // ACK-gated request/response. Responses go out the moment they are
    // written.
    stream.set_nodelay(true)?;
    let write_stream = stream.try_clone()?;
    let conn = Arc::new(Conn {
        id,
        stream,
        resp: Mutex::with_rank(
            lockrank::SERVER_CONN_RESP,
            RespState { queue: VecDeque::new(), reserved: 0, reader_done: false, closed: false },
        ),
        resp_cv: Condvar::new(),
        slot_cv: Condvar::new(),
    });

    shared.conns.lock().insert(id, Arc::clone(&conn));
    shared.stats.active_connections.fetch_add(1, Ordering::Relaxed);
    shared.stats.connections_opened.fetch_add(1, Ordering::Relaxed);

    let reader = {
        let s = Arc::clone(shared);
        let c = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("nbb-server-read-{id}"))
            .spawn(move || reader_loop(&s, &c))
    };
    let writer = {
        let s = Arc::clone(shared);
        let c = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("nbb-server-write-{id}"))
            .spawn(move || writer_loop(&s, &c, write_stream))
    };

    match (reader, writer) {
        (Ok(r), Ok(w)) => {
            let mut lc = shared.lifecycle.lock();
            lc.conn_threads.push(r);
            lc.conn_threads.push(w);
            Ok(())
        }
        (r, w) => {
            // Partial spawn: mark the connection dead so whichever
            // thread did start unwinds through the normal teardown.
            {
                let mut resp = conn.resp.lock();
                resp.reader_done = true;
                resp.closed = true;
                conn.resp_cv.notify_all();
                conn.slot_cv.notify_all();
            }
            let mut lc = shared.lifecycle.lock();
            let mut err = None;
            for h in [r, w] {
                match h {
                    Ok(h) => lc.conn_threads.push(h),
                    Err(e) => err = Some(e),
                }
            }
            drop(lc);
            err.map_or(Ok(()), Err)
        }
    }
}

// ---- Reader ---------------------------------------------------------

/// Reader outcome for one decoded payload.
enum Admit {
    Submitted,
    ConnClosed,
}

fn reader_loop(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let mut framer = Framer::with_max(shared.cfg.max_frame);
    let mut buf = vec![0u8; 64 * 1024];
    // try_clone only to satisfy Read's &mut self; both handles share
    // the one OS socket.
    let mut stream = match conn.stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            finish_reader(conn);
            return;
        }
    };

    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break, // EOF
            Ok(n) => n,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        shared.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        framer.extend(&buf[..n]);
        loop {
            match framer.next_payload() {
                Ok(None) => break,
                Ok(Some(payload)) => match decode_and_submit(shared, conn, &payload) {
                    Admit::Submitted => {}
                    Admit::ConnClosed => {
                        finish_reader(conn);
                        return;
                    }
                },
                Err(e) => {
                    // Oversize length prefix: answer by name, then
                    // close — the stream position is unrecoverable.
                    reject(shared, conn, 0, &e);
                    finish_reader(conn);
                    return;
                }
            }
        }
    }

    // EOF mid-frame is a named protocol error too.
    if let Some(e) = framer.eof_error() {
        let id = 0; // no parsable id in a cut-off header
        reject(shared, conn, id, &e);
    }
    finish_reader(conn);
}

/// Decodes one payload and either submits it to the worker pool
/// (reserving a response slot, parking while the queue is full) or —
/// on a malformed frame — sends a named error and reports the
/// connection closed.
fn decode_and_submit(shared: &Arc<Shared>, conn: &Arc<Conn>, payload: &[u8]) -> Admit {
    let req = match nbb_proto::decode_request(payload) {
        Ok(req) => req,
        Err(e) => {
            let id = nbb_proto::request_id_hint(payload).unwrap_or(0);
            reject(shared, conn, id, &e);
            return Admit::ConnClosed;
        }
    };

    // Reserve a response slot; park while the pipeline is full. One
    // park episode counts once no matter how many spurious wakeups.
    {
        let mut resp = conn.resp.lock();
        let cap = shared.cfg.response_queue.max(1);
        let mut parked = false;
        while !resp.closed && resp.reserved + resp.queue.len() >= cap {
            if !parked {
                parked = true;
                shared.stats.queue_full_parks.fetch_add(1, Ordering::Relaxed);
            }
            conn.slot_cv.wait(&mut resp);
        }
        if resp.closed {
            return Admit::ConnClosed;
        }
        resp.reserved += 1;
    }

    let mut work = shared.work.lock();
    if work.shutdown {
        // Raced with shutdown: release the reservation so the writer's
        // drain condition stays accurate.
        drop(work);
        let mut resp = conn.resp.lock();
        resp.reserved = resp.reserved.saturating_sub(1);
        conn.resp_cv.notify_one();
        return Admit::ConnClosed;
    }
    work.queue.push_back(Job { conn: Arc::clone(conn), req });
    // Counted under the queue lock: `frames_in == n` means n jobs have
    // reached the work queue, in that order.
    shared.stats.frames_in.fetch_add(1, Ordering::Relaxed);
    shared.work_cv.notify_one();
    Admit::Submitted
}

/// Best-effort error response for a frame that could not be decoded:
/// bypasses slot reservation (the request was never admitted) and
/// counts the decode error.
fn reject(shared: &Arc<Shared>, conn: &Arc<Conn>, id: u64, e: &DecodeError) {
    shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
    let frame = nbb_proto::encode_response(&Response {
        id,
        body: ResponseBody::Error { message: format!("protocol error: {e}") },
    });
    let mut resp = conn.resp.lock();
    if !resp.closed {
        resp.queue.push_back(frame);
        conn.resp_cv.notify_one();
    }
}

/// Marks the reader finished so the writer can complete its drain.
fn finish_reader(conn: &Conn) {
    let mut resp = conn.resp.lock();
    resp.reader_done = true;
    conn.resp_cv.notify_all();
}

// ---- Writer ---------------------------------------------------------

fn writer_loop(shared: &Arc<Shared>, conn: &Arc<Conn>, mut stream: TcpStream) {
    loop {
        let frame = {
            let mut resp = conn.resp.lock();
            loop {
                if let Some(f) = resp.queue.pop_front() {
                    conn.slot_cv.notify_one();
                    break Some(f);
                }
                if resp.closed || (resp.reader_done && resp.reserved == 0) {
                    break None;
                }
                conn.resp_cv.wait(&mut resp);
            }
        };
        let Some(frame) = frame else { break };
        // The socket write happens with no lock held: a slow client
        // stalls only this writer, and backpressure reaches its reader
        // through the un-drained queue.
        if stream.write_all(&frame).is_err() {
            break;
        }
        shared.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        shared.stats.bytes_out.fetch_add(frame.len() as u64, Ordering::Relaxed);
    }
    teardown(shared, conn);
}

/// Writer-side teardown: the single place a connection dies. Marks the
/// state closed (unblocking the reader and any completing workers),
/// closes the socket, and deregisters from the connection table.
fn teardown(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    {
        let mut resp = conn.resp.lock();
        resp.closed = true;
        conn.resp_cv.notify_all();
        conn.slot_cv.notify_all();
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
    {
        let mut conns = shared.conns.lock();
        conns.remove(&conn.id);
        shared.conns_cv.notify_all();
    }
    shared.stats.active_connections.fetch_sub(1, Ordering::Relaxed);
}

// ---- Workers --------------------------------------------------------

/// Most keys one coalesced engine call carries. It bounds how long a
/// group occupies its worker (and how much of a CPU-bound backlog one
/// worker takes from the others); a single request larger than this
/// still runs, alone.
const GROUP_KEY_CAP: usize = 64;

/// Most rows a coalesced run of `Range` pages asks for in all: the
/// bound one cursor refill already has, so the run's merged leaf fault
/// and heap read still fit one device round trip each (at 2,048 they
/// spill into a second while other workers idle — measured slower).
const GROUP_ROW_CAP: usize = 1024;

/// What must be equal along a coalesced run: op kind, table, index.
type Run<'a> = (std::mem::Discriminant<RequestOp>, &'a str, &'a str);

/// The parts of a coalescible read: its [`Run`], its weight — its keys,
/// or the rows its page asks for — and the cap on a run's weight;
/// `None` for every other op.
fn read_of(op: &RequestOp) -> Option<(Run<'_>, usize, usize)> {
    let (table, index, weight, cap) = match op {
        RequestOp::GetMany { table, index, keys }
        | RequestOp::ProjectMany { table, index, keys } => {
            (table, index, keys.len(), GROUP_KEY_CAP)
        }
        RequestOp::Range { table, index, limit, .. } => {
            (table, index, *limit as usize, GROUP_ROW_CAP)
        }
        _ => return None,
    };
    Some(((std::mem::discriminant(op), table, index), weight, cap))
}

/// Dequeues the head job and, when it is a read, the contiguous run of
/// jobs behind it with the same op kind, table and index, up to
/// [`GROUP_KEY_CAP`] keys — `Range` pages: [`GROUP_ROW_CAP`] rows — in
/// all. Only a prefix is taken — FIFO order holds and no read moves
/// past a queued write — and only what is already queued: the caller
/// holds the work-queue lock, nothing waits.
fn take_group(queue: &mut VecDeque<Job>) -> Vec<Job> {
    let Some(head) = queue.front() else { return Vec::new() };
    let mut n = 1;
    if let Some((run, mut total, cap)) = read_of(&head.req.op) {
        for job in queue.iter().skip(1) {
            match read_of(&job.req.op) {
                Some((r, weight, _)) if r == run && total + weight <= cap => {
                    total += weight;
                    n += 1;
                }
                _ => break,
            }
        }
    }
    queue.drain(..n).collect()
}

/// The named error every job of a group gets when its engine call
/// panicked, carrying the panic message when it has one.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let what = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload");
    format!("internal error: worker panicked: {what}")
}

/// The frame of an error response.
fn error_frame(id: u64, message: String) -> Vec<u8> {
    nbb_proto::encode_response(&Response { id, body: ResponseBody::Error { message } })
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let group = {
            let mut work = shared.work.lock();
            loop {
                let group = take_group(&mut work.queue);
                if !group.is_empty() || work.shutdown {
                    break group;
                }
                shared.work_cv.wait(&mut work);
            }
        };
        if group.is_empty() {
            break;
        }
        let (dests, ops): (Vec<(Arc<Conn>, u64)>, Vec<RequestOp>) =
            group.into_iter().map(|Job { conn, req }| ((conn, req.id), req.op)).unzip();
        // All server locks are released here: the engine call below
        // acquires ranks 5..90 from a clean stack (the lattice's server
        // band sits below the engine band precisely to prove this).
        //
        // A panic below the server (an engine bug, a disk that panics)
        // must not take the worker with it: the group's reserved
        // response slots would never be released, their writers would
        // wait for `reserved == 0` forever and `shutdown` would hang.
        // The engine's own guards restore its state while unwinding
        // (the shim's locks do not poison), so the worker answers the
        // whole group with a named error and lives on.
        let ids: Vec<u64> = dests.iter().map(|(_, id)| *id).collect();
        let run = || execute_group(shared, &ids, ops);
        let frames =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|panic| {
                let message = panic_message(panic.as_ref());
                ids.iter().map(|&id| error_frame(id, message.clone())).collect()
            });

        // Complete per connection: one response-lock acquisition and
        // one writer wake-up per connection per group.
        let mut done: Vec<(Arc<Conn>, Vec<Vec<u8>>)> = Vec::new();
        for ((conn, _), frame) in dests.into_iter().zip(frames) {
            match done.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &conn)) {
                Some((_, frames)) => frames.push(frame),
                None => done.push((conn, vec![frame])),
            }
        }
        for (conn, frames) in done {
            conn.complete(frames);
        }
    }
}

// ---- Request execution ----------------------------------------------

fn wire_bound(b: &WireBound) -> Bound<&[u8]> {
    match b {
        WireBound::Unbounded => Bound::Unbounded,
        WireBound::Included(k) => Bound::Included(k),
        WireBound::Excluded(k) => Bound::Excluded(k),
    }
}

fn wire_projection(p: Projection) -> WireProjection {
    WireProjection { payload: p.payload, index_only: p.index_only }
}

/// Executes one dequeued group as one engine call and encodes one
/// response frame per op (`ids[i]` answers `ops[i]`), mapping an engine
/// error to a wire [`ResponseBody::Error`] (the connection survives;
/// only that response reports failure). Reads — one request or a
/// coalesced run — ride [`try_execute_reads`] / [`try_execute_ranges`];
/// if the merged call of several requests fails, the group is
/// re-executed one request at a time (reads are idempotent), so only
/// the requests that fail alone report an error. Every other op was
/// dequeued alone. No frame leaves above [`ServerConfig::max_frame`] —
/// the peer's framer would refuse it and kill the connection with
/// everything in flight on it — so an oversize response is replaced by
/// an error naming [`RESPONSE_TOO_LARGE`].
fn execute_group(shared: &Shared, ids: &[u64], ops: Vec<RequestOp>) -> Vec<Vec<u8>> {
    let encode = |bodies: Vec<ResponseBody>| -> Vec<Vec<u8>> {
        let frame = |(&id, body)| nbb_proto::encode_response(&Response { id, body });
        ids.iter().zip(bodies).map(frame).collect()
    };
    let result = match &ops[0] {
        RequestOp::Range { table, index, .. } => {
            try_execute_ranges(shared, table, index, ids, &ops)
        }
        RequestOp::GetMany { table, index, .. } | RequestOp::ProjectMany { table, index, .. } => {
            try_execute_reads(shared, table, index, &ops).map(encode)
        }
        op => try_execute(shared, op).map(|body| encode(vec![body])),
    };
    shared.stats.batches_executed.fetch_add(1, Ordering::Relaxed);
    let max = shared.cfg.max_frame;
    let capped = |(frame, &id): (Vec<u8>, &u64)| match frame.len() - nbb_proto::HEADER_LEN {
        len if len > max => error_frame(id, format!("{RESPONSE_TOO_LARGE}: {len} > {max} bytes")),
        _ => frame,
    };
    match result {
        Ok(frames) => frames.into_iter().zip(ids).map(capped).collect(),
        Err(e) if ops.len() == 1 => vec![error_frame(ids[0], e.to_string())],
        Err(_) => (ids.iter().zip(ops))
            .flat_map(|(&id, op)| execute_group(shared, &[id], vec![op]))
            .collect(),
    }
}

/// One group refill for a run of `Range` pages on `index` of `table` (a
/// lone request is a run of one): [`nbb_core::IndexRef::range_pages`]
/// merges the run's leaf faults and heap reads, and every page goes
/// from its arena straight into its response frame. A page is cut at
/// the rows that fit [`ServerConfig::max_frame`] and then says `more`,
/// so the resume rule pages on.
fn try_execute_ranges(
    shared: &Shared,
    table: &str,
    index: &str,
    ids: &[u64],
    ops: &[RequestOp],
) -> Result<Vec<Vec<u8>>, StorageError> {
    let t = shared.db.table(table)?;
    let idx = t.index(index)?;
    // A row is two length prefixes, key and tuple; the rest of a frame
    // is id, status, tag, count, `more` and the optional resume key.
    let key = idx.spec().key.len;
    let fit = shared.cfg.max_frame.saturating_sub(20 + key) / (8 + key + t.tuple_width());
    // An empty page carries no resume key, so a client paging by the
    // resume rule would re-send it forever: `limit = 0` is refused.
    fn spec(op: &RequestOp, fit: usize) -> Option<PageSpec<'_>> {
        match op {
            RequestOp::Range { lo, hi, limit: limit @ 1.., .. } => {
                Some((wire_bound(lo), wire_bound(hi), (*limit as usize).min(fit.max(1))))
            }
            _ => None,
        }
    }
    let specs: Vec<PageSpec<'_>> = ops.iter().filter_map(|op| spec(op, fit)).collect();
    let mut pages = idx.range_pages(&specs)?.into_iter();
    let frame = |(&id, op)| match spec(op, fit).and_then(|_| pages.next()) {
        Some(page) => {
            let resume = page.rows().next_back().map(|(key, _)| key);
            nbb_proto::encode_range_response(id, page.rows(), page.more(), resume)
        }
        None => error_frame(id, RANGE_LIMIT_ZERO.into()),
    };
    Ok(ids.iter().zip(ops).map(frame).collect())
}

/// One engine call for a group of point reads that [`take_group`]
/// found alike (all projections or all gets, through `index` of
/// `table`; a lone request is a group of one): resolves the table and
/// index once, reads the concatenated keys, and deals the rows back
/// out per request.
fn try_execute_reads(
    shared: &Shared,
    table: &str,
    index: &str,
    ops: &[RequestOp],
) -> Result<Vec<ResponseBody>, StorageError> {
    fn keys_of(op: &RequestOp) -> Option<&[Vec<u8>]> {
        match op {
            RequestOp::GetMany { keys, .. } | RequestOp::ProjectMany { keys, .. } => Some(keys),
            _ => None,
        }
    }
    let per_op: Vec<&[Vec<u8>]> = ops.iter().filter_map(keys_of).collect();
    let keys: Vec<&[u8]> = per_op.iter().flat_map(|k| k.iter().map(Vec::as_slice)).collect();
    let t = shared.db.table(table)?;
    let idx = t.index(index)?;
    Ok(if matches!(ops[0], RequestOp::ProjectMany { .. }) {
        let mut rows = idx.project_many(&keys)?.into_iter().map(|r| r.map(wire_projection));
        let deal = |k: &&[Vec<u8>]| ResponseBody::ProjectMany {
            rows: rows.by_ref().take(k.len()).collect(),
        };
        per_op.iter().map(deal).collect()
    } else {
        let mut rows = idx.get_many(&keys)?.into_iter();
        let deal =
            |k: &&[Vec<u8>]| ResponseBody::GetMany { rows: rows.by_ref().take(k.len()).collect() };
        per_op.iter().map(deal).collect()
    })
}

/// Executes one request op other than a read against the database.
fn try_execute(shared: &Shared, op: &RequestOp) -> Result<ResponseBody, StorageError> {
    let db = &shared.db;
    Ok(match op {
        RequestOp::GetMany { .. } | RequestOp::ProjectMany { .. } | RequestOp::Range { .. } => {
            unreachable!("execute_group runs reads through try_execute_reads / _ranges")
        }
        RequestOp::InsertMany { table, tuples } => {
            let t = db.table(table)?;
            let rids = t.insert_many(tuples)?;
            ResponseBody::InsertMany { rids: rids.into_iter().map(|r| r.to_u64()).collect() }
        }
        RequestOp::PutMany { table, index, tuples } => {
            let t = db.table(table)?;
            let rids = t.index(index)?.put_many(tuples)?;
            ResponseBody::PutMany { rids: rids.into_iter().map(|r| r.to_u64()).collect() }
        }
        RequestOp::UpdateMany { table, index, pairs } => {
            let t = db.table(table)?;
            let applied = t.index(index)?.update_many(pairs)?;
            ResponseBody::UpdateMany { applied }
        }
        RequestOp::DeleteMany { table, index, keys } => {
            let t = db.table(table)?;
            let applied = t.index(index)?.delete_many(keys)?;
            ResponseBody::DeleteMany { applied }
        }
        RequestOp::Stats => ResponseBody::Stats(shared.stats.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbb_core::db::DbConfig;
    use std::time::Instant;

    #[test]
    fn shutdown_terminates_when_its_wake_up_connect_fails() {
        let db = Arc::new(Database::open(DbConfig::default()));
        let server = Server::start(db, ServerConfig::default()).expect("start");
        // Make the accept thread leave on its own and take the listener
        // with it, then put the flag back: `shutdown` now finds nothing
        // to connect to.
        server.shared.shutting_down.store(true, Ordering::SeqCst);
        TcpStream::connect(server.local_addr()).expect("wake the accept thread");
        let deadline = Instant::now() + Duration::from_secs(10);
        let gone =
            || server.shared.lifecycle.lock().accept.as_ref().is_some_and(|h| h.is_finished());
        while !gone() {
            assert!(Instant::now() < deadline, "the accept thread never left");
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shared.shutting_down.store(false, Ordering::SeqCst);
        assert!(TcpStream::connect(server.local_addr()).is_err(), "premise: nothing listens");

        server.shutdown();
        let lc = server.shared.lifecycle.lock();
        assert!(lc.accept.is_none() && lc.workers.is_empty(), "everything was joined");
    }
}

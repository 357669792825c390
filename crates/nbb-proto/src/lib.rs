//! # nbb-proto — the engine's wire protocol, sans-io
//!
//! A dependency-free (workspace-only), length-prefixed binary codec
//! whose frames decode straight into the engine's batched operations
//! (`get_many`, `insert_many`, `range`, …). Everything here is pure
//! `encode`/`decode` over byte buffers — no sockets, no threads — so
//! the protocol is fully testable without I/O, and any transport
//! (`nbb-server`'s loopback TCP, a unit test's `Vec<u8>`) can carry it.
//!
//! ## Frame layout
//!
//! ```text
//! frame    := len:u32 payload                len counts payload bytes only
//! request  := id:u64 tag:u8 body             id is client-chosen; echoed back
//! response := id:u64 status:u8 result        status 0 = ok, 1 = error
//! ok       := tag:u8 body                    tag repeats the request's op tag
//! error    := msg:str                        human-readable failure
//! str      := len:u32 utf8-bytes
//! bytes    := len:u32 raw-bytes              keys/tuples are opaque key bytes
//! bound    := 0 | 1 key:bytes | 2 key:bytes  unbounded / included / excluded
//! ```
//!
//! All integers ride `nbb-encoding`'s order-preserving big-endian
//! codecs ([`nbb_encoding::wire`]), the same convention the engine's
//! index keys use, so a `u64` captured off the wire is directly
//! `memcmp`-comparable against leaf bytes.
//!
//! Requests carry a client-chosen [`Request::id`]; responses echo it, so
//! a pipelined connection may complete requests **out of order** — the
//! transport never needs to serialize a fast read behind a slow fault.
//!
//! ## Robustness contract
//!
//! Decoding never panics. Every malformed input yields a named
//! [`DecodeError`]: a frame longer than the configured cap is
//! [`DecodeError::Oversize`] *before* any allocation, a short body is
//! [`DecodeError::Truncated`], an unknown op/bound/status byte is
//! [`DecodeError::BadTag`], and leftover bytes after a well-formed body
//! are [`DecodeError::Trailing`]. Counts are never trusted for
//! pre-allocation — element vectors grow only as bytes are actually
//! consumed, so a hostile count cannot balloon memory.

#![warn(missing_docs)]

use nbb_encoding::wire;
use std::fmt;

/// Default cap on one frame's payload bytes (1 MiB). Both sides of a
/// connection must agree; [`Framer::with_max`] overrides it.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Bytes of the `len` prefix in front of every payload.
pub const HEADER_LEN: usize = 4;

// ---- Errors ---------------------------------------------------------

/// A named decode failure. Every variant is a protocol error the peer
/// caused; none of them panic and none of them poison engine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The body ended before a field it promised.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually left.
        have: usize,
    },
    /// The length prefix exceeds the frame cap.
    Oversize {
        /// Declared payload length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// An op/bound/status/kind byte had no meaning.
    BadTag {
        /// Which tag position was bad (e.g. `"op"`, `"bound"`).
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A well-formed body was followed by garbage bytes.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A table/index name was not valid UTF-8.
    BadName,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(f, "truncated frame: next field needs {needed} bytes, {have} left")
            }
            DecodeError::Oversize { len, max } => {
                write!(f, "oversize frame: declared length {len} exceeds max {max}")
            }
            DecodeError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            DecodeError::Trailing { extra } => {
                write!(f, "trailing bytes: {extra} after a complete body")
            }
            DecodeError::BadName => write!(f, "name is not valid utf-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decode result alias.
pub type Result<T> = std::result::Result<T, DecodeError>;

// ---- Model ----------------------------------------------------------

/// One request frame: a client-chosen id plus one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed by the response. Ids only
    /// need to be unique among a connection's in-flight requests.
    pub id: u64,
    /// The operation to execute.
    pub op: RequestOp,
}

/// A range bound over key bytes (the wire twin of [`std::ops::Bound`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireBound {
    /// No bound on this side.
    Unbounded,
    /// Inclusive key bound.
    Included(Vec<u8>),
    /// Exclusive key bound.
    Excluded(Vec<u8>),
}

/// The error message a [`RequestOp::Range`] with `limit = 0` is
/// answered with.
pub const RANGE_LIMIT_ZERO: &str = "invalid request: Range limit must be at least 1";

/// How the error message begins that replaces a response whose frame
/// would exceed the server's frame cap (the peer's [`Framer`] would
/// refuse it and the connection would die): ask for less per request.
pub const RESPONSE_TOO_LARGE: &str = "response too large for one frame";

/// One operation of a [`Request`], mirroring the engine's batched
/// fast paths one-to-one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOp {
    /// Batched full-tuple lookup (`IndexRef::get_many`).
    GetMany {
        /// Target table.
        table: String,
        /// Index to look through.
        index: String,
        /// Keys, in result order.
        keys: Vec<Vec<u8>>,
    },
    /// Batched cached-field projection (`IndexRef::project_many`).
    ProjectMany {
        /// Target table.
        table: String,
        /// Index to look through.
        index: String,
        /// Keys, in result order.
        keys: Vec<Vec<u8>>,
    },
    /// Batched heap insert with full index maintenance
    /// (`Table::insert_many`).
    InsertMany {
        /// Target table.
        table: String,
        /// Fixed-width tuples.
        tuples: Vec<Vec<u8>>,
    },
    /// Batched upsert by an index's key (`IndexRef::put_many`).
    PutMany {
        /// Target table.
        table: String,
        /// Index whose key identifies each tuple.
        index: String,
        /// Fixed-width tuples.
        tuples: Vec<Vec<u8>>,
    },
    /// Batched in-place update (`IndexRef::update_many`).
    UpdateMany {
        /// Target table.
        table: String,
        /// Index whose key addresses each row.
        index: String,
        /// `(key, replacement tuple)` pairs.
        pairs: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Batched delete (`IndexRef::delete_many`).
    DeleteMany {
        /// Target table.
        table: String,
        /// Index whose key addresses each row.
        index: String,
        /// Keys, in result order.
        keys: Vec<Vec<u8>>,
    },
    /// One page of an ordered range scan (`IndexRef::range`). The
    /// response says whether more rows exist and where to resume, so a
    /// client pages a scan with a chain of these.
    ///
    /// `limit` must be at least 1: a page of no rows has no resume key,
    /// so the paging rule could never advance past it. The server
    /// answers `limit = 0` with [`ResponseBody::Error`] carrying
    /// [`RANGE_LIMIT_ZERO`]. A page may hold **fewer** than `limit`
    /// rows while `more` is true: the server cuts a page at the rows
    /// that fit one frame (its frame cap over key width + tuple width)
    /// and the client resumes from `resume` as after any other page.
    Range {
        /// Target table.
        table: String,
        /// Index defining the order.
        index: String,
        /// Lower key bound.
        lo: WireBound,
        /// Upper key bound.
        hi: WireBound,
        /// Max rows in this page.
        limit: u32,
    },
    /// Server counter snapshot (frames, bytes, parks, connections).
    Stats,
}

impl RequestOp {
    /// The op's wire tag (also echoed in ok-responses).
    fn tag(&self) -> u8 {
        match self {
            RequestOp::GetMany { .. } => tags::GET_MANY,
            RequestOp::ProjectMany { .. } => tags::PROJECT_MANY,
            RequestOp::InsertMany { .. } => tags::INSERT_MANY,
            RequestOp::PutMany { .. } => tags::PUT_MANY,
            RequestOp::UpdateMany { .. } => tags::UPDATE_MANY,
            RequestOp::DeleteMany { .. } => tags::DELETE_MANY,
            RequestOp::Range { .. } => tags::RANGE,
            RequestOp::Stats => tags::STATS,
        }
    }
}

/// One response frame: the echoed request id plus the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request's [`Request::id`], echoed verbatim.
    pub id: u64,
    /// The result body.
    pub body: ResponseBody,
}

/// A cached-field projection on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireProjection {
    /// The cached-field payload bytes.
    pub payload: Vec<u8>,
    /// Whether the engine answered from leaf free space without
    /// touching the heap.
    pub index_only: bool,
}

/// Server counter snapshot carried by [`ResponseBody::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireServerStats {
    /// Request frames decoded and submitted.
    pub frames_in: u64,
    /// Response frames written.
    pub frames_out: u64,
    /// Raw bytes read off connections.
    pub bytes_in: u64,
    /// Raw bytes written to connections.
    pub bytes_out: u64,
    /// Engine calls made by the workers. Queued point reads coalesce
    /// into one call per group, so `frames_in / batches_executed` is the
    /// mean group size (1.0 on an idle server); a group whose merged
    /// call fails is re-executed one request at a time, each counted.
    pub batches_executed: u64,
    /// Times a reader parked because a connection's response queue was
    /// full (the backpressure signal).
    pub queue_full_parks: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Connections accepted over the server's lifetime.
    pub connections_opened: u64,
    /// Connections refused at the `max_connections` cap.
    pub connections_refused: u64,
    /// Malformed frames that closed a connection.
    pub decode_errors: u64,
}

/// The result half of a [`Response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// The op failed; the engine error rendered as text.
    Error {
        /// Human-readable failure message.
        message: String,
    },
    /// [`RequestOp::GetMany`] results, indexed like the request keys.
    GetMany {
        /// Per-key tuple, `None` when absent.
        rows: Vec<Option<Vec<u8>>>,
    },
    /// [`RequestOp::ProjectMany`] results.
    ProjectMany {
        /// Per-key projection, `None` when absent.
        rows: Vec<Option<WireProjection>>,
    },
    /// [`RequestOp::InsertMany`] results.
    InsertMany {
        /// Packed record ids, indexed like the request tuples.
        rids: Vec<u64>,
    },
    /// [`RequestOp::PutMany`] results.
    PutMany {
        /// Packed record ids, indexed like the request tuples.
        rids: Vec<u64>,
    },
    /// [`RequestOp::UpdateMany`] results.
    UpdateMany {
        /// Whether each key existed.
        applied: Vec<bool>,
    },
    /// [`RequestOp::DeleteMany`] results.
    DeleteMany {
        /// Whether each key existed.
        applied: Vec<bool>,
    },
    /// One [`RequestOp::Range`] page.
    Range {
        /// `(key, tuple)` rows in key order.
        rows: Vec<(Vec<u8>, Vec<u8>)>,
        /// Whether rows remain past this page.
        more: bool,
        /// Last key of this page (resume with `lo = Excluded(resume)`);
        /// `None` when the page is empty.
        resume: Option<Vec<u8>>,
    },
    /// [`RequestOp::Stats`] snapshot.
    Stats(WireServerStats),
}

impl ResponseBody {
    fn tag(&self) -> u8 {
        match self {
            // Unused for errors (status byte distinguishes), kept total.
            ResponseBody::Error { .. } => 0,
            ResponseBody::GetMany { .. } => tags::GET_MANY,
            ResponseBody::ProjectMany { .. } => tags::PROJECT_MANY,
            ResponseBody::InsertMany { .. } => tags::INSERT_MANY,
            ResponseBody::PutMany { .. } => tags::PUT_MANY,
            ResponseBody::UpdateMany { .. } => tags::UPDATE_MANY,
            ResponseBody::DeleteMany { .. } => tags::DELETE_MANY,
            ResponseBody::Range { .. } => tags::RANGE,
            ResponseBody::Stats(_) => tags::STATS,
        }
    }
}

mod tags {
    pub const GET_MANY: u8 = 1;
    pub const PROJECT_MANY: u8 = 2;
    pub const INSERT_MANY: u8 = 3;
    pub const PUT_MANY: u8 = 4;
    pub const UPDATE_MANY: u8 = 5;
    pub const DELETE_MANY: u8 = 6;
    pub const RANGE: u8 = 7;
    // 8 was the retired by-name batch; never reuse it, so an old
    // client's batch frame is refused by name, not misread.
    pub const STATS: u8 = 9;

    pub const STATUS_OK: u8 = 0;
    pub const STATUS_ERR: u8 = 1;

    pub const BOUND_UNBOUNDED: u8 = 0;
    pub const BOUND_INCLUDED: u8 = 1;
    pub const BOUND_EXCLUDED: u8 = 2;
}

// ---- Encode ---------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    wire::put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

fn put_opt_bytes(out: &mut Vec<u8>, b: Option<&[u8]>) {
    match b {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            put_bytes(out, b);
        }
    }
}

fn put_bound(out: &mut Vec<u8>, b: &WireBound) {
    match b {
        WireBound::Unbounded => out.push(tags::BOUND_UNBOUNDED),
        WireBound::Included(k) => {
            out.push(tags::BOUND_INCLUDED);
            put_bytes(out, k);
        }
        WireBound::Excluded(k) => {
            out.push(tags::BOUND_EXCLUDED);
            put_bytes(out, k);
        }
    }
}

fn put_byte_list(out: &mut Vec<u8>, items: &[Vec<u8>]) {
    wire::put_u32(out, items.len() as u32);
    for it in items {
        put_bytes(out, it);
    }
}

/// Starts a frame: the length prefix is reserved now and patched by
/// [`seal`], so the payload is written once, in place.
fn open_frame(id: u64) -> Vec<u8> {
    let mut out = vec![0; HEADER_LEN];
    wire::put_u64(&mut out, id);
    out
}

/// Finishes a frame begun by [`open_frame`]: overwrites the reserved
/// prefix with what [`wire::put_u32`] would have appended.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let len = (out.len() - HEADER_LEN) as u32;
    out[..HEADER_LEN].copy_from_slice(&len.to_be_bytes());
    out
}

/// Encodes a request as one complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut p = open_frame(req.id);
    p.push(req.op.tag());
    match &req.op {
        RequestOp::GetMany { table, index, keys }
        | RequestOp::ProjectMany { table, index, keys }
        | RequestOp::DeleteMany { table, index, keys } => {
            put_str(&mut p, table);
            put_str(&mut p, index);
            put_byte_list(&mut p, keys);
        }
        RequestOp::InsertMany { table, tuples } => {
            put_str(&mut p, table);
            put_byte_list(&mut p, tuples);
        }
        RequestOp::PutMany { table, index, tuples } => {
            put_str(&mut p, table);
            put_str(&mut p, index);
            put_byte_list(&mut p, tuples);
        }
        RequestOp::UpdateMany { table, index, pairs } => {
            put_str(&mut p, table);
            put_str(&mut p, index);
            wire::put_u32(&mut p, pairs.len() as u32);
            for (k, t) in pairs {
                put_bytes(&mut p, k);
                put_bytes(&mut p, t);
            }
        }
        RequestOp::Range { table, index, lo, hi, limit } => {
            put_str(&mut p, table);
            put_str(&mut p, index);
            put_bound(&mut p, lo);
            put_bound(&mut p, hi);
            wire::put_u32(&mut p, *limit);
        }
        RequestOp::Stats => {}
    }
    seal(p)
}

/// Encodes a response as one complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    if let ResponseBody::Range { rows, more, resume } = &resp.body {
        let rows = rows.iter().map(|(k, t)| (&k[..], &t[..]));
        return encode_range_response(resp.id, rows, *more, resume.as_deref());
    }
    let mut p = open_frame(resp.id);
    match &resp.body {
        ResponseBody::Error { message } => {
            p.push(tags::STATUS_ERR);
            put_str(&mut p, message);
        }
        ok => {
            p.push(tags::STATUS_OK);
            p.push(ok.tag());
            match ok {
                ResponseBody::Error { .. } => unreachable!("handled above"),
                ResponseBody::GetMany { rows } => {
                    wire::put_u32(&mut p, rows.len() as u32);
                    for r in rows {
                        put_opt_bytes(&mut p, r.as_deref());
                    }
                }
                ResponseBody::ProjectMany { rows } => {
                    wire::put_u32(&mut p, rows.len() as u32);
                    for r in rows {
                        match r {
                            None => p.push(0),
                            Some(pr) => {
                                p.push(1);
                                put_bytes(&mut p, &pr.payload);
                                put_bool(&mut p, pr.index_only);
                            }
                        }
                    }
                }
                ResponseBody::InsertMany { rids } | ResponseBody::PutMany { rids } => {
                    wire::put_u32(&mut p, rids.len() as u32);
                    for r in rids {
                        wire::put_u64(&mut p, *r);
                    }
                }
                ResponseBody::UpdateMany { applied } | ResponseBody::DeleteMany { applied } => {
                    wire::put_u32(&mut p, applied.len() as u32);
                    for a in applied {
                        put_bool(&mut p, *a);
                    }
                }
                ResponseBody::Range { .. } => unreachable!("encoded above"),
                ResponseBody::Stats(s) => {
                    for v in [
                        s.frames_in,
                        s.frames_out,
                        s.bytes_in,
                        s.bytes_out,
                        s.batches_executed,
                        s.queue_full_parks,
                        s.active_connections,
                        s.connections_opened,
                        s.connections_refused,
                        s.decode_errors,
                    ] {
                        wire::put_u64(&mut p, v);
                    }
                }
            }
        }
    }
    seal(p)
}

/// Encodes a [`ResponseBody::Range`] frame straight from borrowed
/// `(key, tuple)` rows — a server answering from pinned pages or a scan
/// arena copies each row once, into the frame. Byte-identical to
/// [`encode_response`] over the owned body (which delegates here).
pub fn encode_range_response<'a, I>(id: u64, rows: I, more: bool, resume: Option<&[u8]>) -> Vec<u8>
where
    I: IntoIterator<Item = (&'a [u8], &'a [u8])>,
    I::IntoIter: ExactSizeIterator,
{
    let mut rows = rows.into_iter().peekable();
    let mut p = open_frame(id);
    p.extend_from_slice(&[tags::STATUS_OK, tags::RANGE]);
    let count = rows.len();
    wire::put_u32(&mut p, count as u32);
    if let Some((k, t)) = rows.peek() {
        // Rows of one table are one width: size the frame once.
        p.reserve(count * (2 * 4 + k.len() + t.len()) + 2 * 4 + k.len());
    }
    for (k, t) in rows {
        put_bytes(&mut p, k);
        put_bytes(&mut p, t);
    }
    put_bool(&mut p, more);
    put_opt_bytes(&mut p, resume);
    seal(p)
}

// ---- Decode ---------------------------------------------------------

/// A bounds-checked reader over one frame payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.left() < n {
            return Err(DecodeError::Truncated { needed: n, have: self.left() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        wire::get_u32(s).ok_or(DecodeError::Truncated { needed: 4, have: s.len() })
    }

    fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        wire::get_u64(s).ok_or(DecodeError::Truncated { needed: 8, have: s.len() })
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn name(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| DecodeError::BadName)
    }

    fn boolean(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag { what: "bool", tag: t }),
        }
    }

    fn opt_bytes(&mut self) -> Result<Option<Vec<u8>>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes()?)),
            t => Err(DecodeError::BadTag { what: "option", tag: t }),
        }
    }

    fn bound(&mut self) -> Result<WireBound> {
        match self.u8()? {
            tags::BOUND_UNBOUNDED => Ok(WireBound::Unbounded),
            tags::BOUND_INCLUDED => Ok(WireBound::Included(self.bytes()?)),
            tags::BOUND_EXCLUDED => Ok(WireBound::Excluded(self.bytes()?)),
            t => Err(DecodeError::BadTag { what: "bound", tag: t }),
        }
    }

    fn byte_list(&mut self) -> Result<Vec<Vec<u8>>> {
        let n = self.u32()?;
        // Grown per element, never pre-allocated from the wire count: a
        // hostile count meets Truncated, not an allocation.
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.bytes()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<()> {
        if self.left() > 0 {
            return Err(DecodeError::Trailing { extra: self.left() });
        }
        Ok(())
    }
}

/// Best-effort request id from a payload that may fail to decode, so a
/// server can address an error response even for a malformed frame.
pub fn request_id_hint(payload: &[u8]) -> Option<u64> {
    wire::get_u64(payload)
}

/// Decodes one request payload (the bytes *after* the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut c = Cur::new(payload);
    let id = c.u64()?;
    let tag = c.u8()?;
    let op = match tag {
        tags::GET_MANY | tags::PROJECT_MANY | tags::DELETE_MANY => {
            let table = c.name()?;
            let index = c.name()?;
            let keys = c.byte_list()?;
            match tag {
                tags::GET_MANY => RequestOp::GetMany { table, index, keys },
                tags::PROJECT_MANY => RequestOp::ProjectMany { table, index, keys },
                _ => RequestOp::DeleteMany { table, index, keys },
            }
        }
        tags::INSERT_MANY => RequestOp::InsertMany { table: c.name()?, tuples: c.byte_list()? },
        tags::PUT_MANY => {
            RequestOp::PutMany { table: c.name()?, index: c.name()?, tuples: c.byte_list()? }
        }
        tags::UPDATE_MANY => {
            let table = c.name()?;
            let index = c.name()?;
            let n = c.u32()?;
            let mut pairs = Vec::new();
            for _ in 0..n {
                let k = c.bytes()?;
                let t = c.bytes()?;
                pairs.push((k, t));
            }
            RequestOp::UpdateMany { table, index, pairs }
        }
        tags::RANGE => RequestOp::Range {
            table: c.name()?,
            index: c.name()?,
            lo: c.bound()?,
            hi: c.bound()?,
            limit: c.u32()?,
        },
        tags::STATS => RequestOp::Stats,
        t => return Err(DecodeError::BadTag { what: "op", tag: t }),
    };
    c.finish()?;
    Ok(Request { id, op })
}

/// Decodes one response payload (the bytes *after* the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut c = Cur::new(payload);
    let id = c.u64()?;
    let status = c.u8()?;
    let body = match status {
        tags::STATUS_ERR => ResponseBody::Error { message: c.name()? },
        tags::STATUS_OK => {
            let tag = c.u8()?;
            match tag {
                tags::GET_MANY => {
                    let n = c.u32()?;
                    let mut rows = Vec::new();
                    for _ in 0..n {
                        rows.push(c.opt_bytes()?);
                    }
                    ResponseBody::GetMany { rows }
                }
                tags::PROJECT_MANY => {
                    let n = c.u32()?;
                    let mut rows = Vec::new();
                    for _ in 0..n {
                        rows.push(match c.u8()? {
                            0 => None,
                            1 => {
                                let payload = c.bytes()?;
                                let index_only = c.boolean()?;
                                Some(WireProjection { payload, index_only })
                            }
                            t => return Err(DecodeError::BadTag { what: "option", tag: t }),
                        });
                    }
                    ResponseBody::ProjectMany { rows }
                }
                tags::INSERT_MANY | tags::PUT_MANY => {
                    let n = c.u32()?;
                    let mut rids = Vec::new();
                    for _ in 0..n {
                        rids.push(c.u64()?);
                    }
                    if tag == tags::INSERT_MANY {
                        ResponseBody::InsertMany { rids }
                    } else {
                        ResponseBody::PutMany { rids }
                    }
                }
                tags::UPDATE_MANY | tags::DELETE_MANY => {
                    let n = c.u32()?;
                    let mut applied = Vec::new();
                    for _ in 0..n {
                        applied.push(c.boolean()?);
                    }
                    if tag == tags::UPDATE_MANY {
                        ResponseBody::UpdateMany { applied }
                    } else {
                        ResponseBody::DeleteMany { applied }
                    }
                }
                tags::RANGE => {
                    let n = c.u32()?;
                    let mut rows = Vec::new();
                    for _ in 0..n {
                        let k = c.bytes()?;
                        let t = c.bytes()?;
                        rows.push((k, t));
                    }
                    let more = c.boolean()?;
                    let resume = c.opt_bytes()?;
                    ResponseBody::Range { rows, more, resume }
                }
                tags::STATS => ResponseBody::Stats(WireServerStats {
                    frames_in: c.u64()?,
                    frames_out: c.u64()?,
                    bytes_in: c.u64()?,
                    bytes_out: c.u64()?,
                    batches_executed: c.u64()?,
                    queue_full_parks: c.u64()?,
                    active_connections: c.u64()?,
                    connections_opened: c.u64()?,
                    connections_refused: c.u64()?,
                    decode_errors: c.u64()?,
                }),
                t => return Err(DecodeError::BadTag { what: "response op", tag: t }),
            }
        }
        t => return Err(DecodeError::BadTag { what: "status", tag: t }),
    };
    c.finish()?;
    Ok(Response { id, body })
}

// ---- Framing --------------------------------------------------------

/// Incremental frame splitter: feed it transport bytes in any chunking,
/// pull complete payloads out. Sans-io — it never touches a socket.
///
/// The length prefix is validated against the frame cap *before* the
/// body arrives, so an attacker declaring a 4 GiB frame is rejected
/// after 4 bytes, not buffered.
#[derive(Debug)]
pub struct Framer {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
}

impl Default for Framer {
    fn default() -> Self {
        Self::new()
    }
}

impl Framer {
    /// A framer with the [`DEFAULT_MAX_FRAME`] cap.
    pub fn new() -> Self {
        Self::with_max(DEFAULT_MAX_FRAME)
    }

    /// A framer with an explicit frame cap.
    pub fn with_max(max_frame: usize) -> Self {
        Framer { buf: Vec::new(), start: 0, max_frame }
    }

    /// Appends transport bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: reclaim consumed prefix before growing.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a payload.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete payload, `Ok(None)` when more bytes are
    /// needed, or [`DecodeError::Oversize`] when the pending length
    /// prefix exceeds the cap.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>> {
        let avail = &self.buf[self.start..];
        let Some(len) = wire::get_u32(avail) else { return Ok(None) };
        let len = len as usize;
        if len > self.max_frame {
            return Err(DecodeError::Oversize { len, max: self.max_frame });
        }
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = avail[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.start += HEADER_LEN + len;
        Ok(Some(payload))
    }

    /// The named error for an EOF that cuts a frame short: `Some` when
    /// bytes are buffered but don't form a complete frame, `None` when
    /// the stream ended on a clean frame boundary.
    pub fn eof_error(&self) -> Option<DecodeError> {
        let have = self.buffered();
        if have == 0 {
            return None;
        }
        let needed = match wire::get_u32(&self.buf[self.start..]) {
            Some(len) => HEADER_LEN + len as usize,
            None => HEADER_LEN,
        };
        Some(DecodeError::Truncated { needed, have })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            id: 42,
            op: RequestOp::UpdateMany {
                table: "t".into(),
                index: "pk".into(),
                pairs: vec![(vec![1, 2], vec![3, 4, 5]), (vec![], vec![9])],
            },
        }
    }

    /// Every [`RequestOp`] variant.
    fn all_ops() -> Vec<RequestOp> {
        vec![
            RequestOp::GetMany { table: "t".into(), index: "pk".into(), keys: vec![vec![1]] },
            RequestOp::ProjectMany { table: "t".into(), index: "i".into(), keys: vec![] },
            RequestOp::InsertMany { table: "t".into(), tuples: vec![vec![0; 24]] },
            RequestOp::PutMany { table: "t".into(), index: "pk".into(), tuples: vec![vec![7]] },
            RequestOp::UpdateMany {
                table: "t".into(),
                index: "pk".into(),
                pairs: vec![(vec![1], vec![2])],
            },
            RequestOp::DeleteMany { table: "t".into(), index: "pk".into(), keys: vec![vec![1]] },
            RequestOp::Range {
                table: "t".into(),
                index: "pk".into(),
                lo: WireBound::Included(vec![0, 1]),
                hi: WireBound::Excluded(vec![9]),
                limit: 128,
            },
            RequestOp::Stats,
        ]
    }

    #[test]
    fn request_round_trip_all_ops() {
        for (i, op) in all_ops().into_iter().enumerate() {
            let req = Request { id: i as u64 * 7 + 1, op };
            let bytes = encode_request(&req);
            let decoded = decode_request(&bytes[HEADER_LEN..]).expect("round trip");
            assert_eq!(decoded, req);
        }
    }

    /// Every [`ResponseBody`] variant, `Range` both full and empty.
    fn all_bodies() -> Vec<ResponseBody> {
        vec![
            ResponseBody::Error { message: "no table named x".into() },
            ResponseBody::GetMany { rows: vec![Some(vec![1, 2]), None] },
            ResponseBody::ProjectMany {
                rows: vec![
                    Some(WireProjection { payload: vec![1], index_only: true }),
                    None,
                    Some(WireProjection { payload: vec![], index_only: false }),
                ],
            },
            ResponseBody::InsertMany { rids: vec![1, u64::MAX >> 1] },
            ResponseBody::PutMany { rids: vec![] },
            ResponseBody::UpdateMany { applied: vec![true, false] },
            ResponseBody::DeleteMany { applied: vec![false] },
            ResponseBody::Range {
                rows: vec![(vec![1], vec![2, 3])],
                more: true,
                resume: Some(vec![1]),
            },
            ResponseBody::Range { rows: vec![], more: false, resume: None },
            ResponseBody::Stats(WireServerStats {
                frames_in: 1,
                frames_out: 2,
                bytes_in: 3,
                bytes_out: 4,
                batches_executed: 5,
                queue_full_parks: 6,
                active_connections: 7,
                connections_opened: 8,
                connections_refused: 9,
                decode_errors: 10,
            }),
        ]
    }

    #[test]
    fn response_round_trip_all_bodies() {
        let bodies = all_bodies();
        for (i, body) in bodies.into_iter().enumerate() {
            let resp = Response { id: i as u64, body };
            let bytes = encode_response(&resp);
            let decoded = decode_response(&bytes[HEADER_LEN..]).expect("round trip");
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn golden_frame_layout_is_pinned() {
        // One hand-checked frame so the byte layout can't drift
        // silently: get_many(id=0x0102030405060708, t="t", pk="pk",
        // keys=[[0xAA]]).
        let req = Request {
            id: 0x0102_0304_0506_0708,
            op: RequestOp::GetMany {
                table: "t".into(),
                index: "pk".into(),
                keys: vec![vec![0xAA]],
            },
        };
        let bytes = encode_request(&req);
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            0, 0, 0, 29,                          // frame length
            1, 2, 3, 4, 5, 6, 7, 8,               // request id (big-endian)
            1,                                    // op tag: GET_MANY
            0, 0, 0, 1, b't',                     // table name
            0, 0, 0, 2, b'p', b'k',               // index name
            0, 0, 0, 1,                           // key count
            0, 0, 0, 1, 0xAA,                     // key[0]
        ];
        assert_eq!(bytes, expected);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn golden_bytes_of_every_response_body_and_request_op_are_pinned() {
        // Pinned from the encoder as it stood before `frame()` stopped
        // copying payloads and `Range` got its borrowed-row encoder.
        // Ids skip the slot the retired batch op (tag 8) held, so every
        // string is byte-for-byte what it was while that op existed.
        let id = |i: usize, retired: usize| (i + usize::from(i >= retired)) as u64;
        let responses: Vec<String> = all_bodies()
            .into_iter()
            .enumerate()
            .map(|(i, body)| hex(&encode_response(&Response { id: id(i, 9), body })))
            .collect();
        let requests: Vec<String> = all_ops()
            .into_iter()
            .enumerate()
            .map(|(i, op)| hex(&encode_request(&Request { id: 100 + id(i, 7), op })))
            .collect();
        #[rustfmt::skip]
        let pinned_responses = [
            "0000001d000000000000000001000000106e6f207461626c65206e616d65642078",
            "0000001600000000000000010001000000020100000002010200",
            "0000001c00000000000000020002000000030100000001010100010000000000",
            "0000001e000000000000000300030000000200000000000000017fffffffffffffff",
            "0000000e0000000000000004000400000000",
            "0000001000000000000000050005000000020100",
            "0000000f000000000000000600060000000100",
            "000000200000000000000007000700000001000000010100000002020301010000000101",
            "0000001000000000000000080007000000000000",
            "0000005a000000000000000a0009000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a",
        ];
        #[rustfmt::skip]
        let pinned_requests = [
            "0000001d000000000000006401000000017400000002706b000000010000000101",
            "000000170000000000000065020000000174000000016900000000",
            "0000002e00000000000000660300000001740000000100000018000000000000000000000000000000000000000000000000",
            "0000001d000000000000006704000000017400000002706b000000010000000107",
            "00000022000000000000006805000000017400000002706b0000000100000001010000000102",
            "0000001d000000000000006906000000017400000002706b000000010000000101",
            "00000025000000000000006a07000000017400000002706b0100000002000102000000010900000080",
            "00000009000000000000006c09",
        ];
        assert_eq!(responses, pinned_responses);
        assert_eq!(requests, pinned_requests);

        // The borrowed-row `Range` encoder is the same bytes.
        let rows = [(&[1u8][..], &[2u8, 3][..])];
        assert_eq!(hex(&encode_range_response(7, rows, true, Some(&[1]))), pinned_responses[7]);
        assert_eq!(hex(&encode_range_response(8, [], false, None)), pinned_responses[8]);
    }

    #[test]
    fn truncation_at_every_split_yields_named_error_or_incomplete() {
        let bytes = encode_request(&sample_request());
        let payload = &bytes[HEADER_LEN..];
        for cut in 0..payload.len() {
            match decode_request(&payload[..cut]) {
                Err(DecodeError::Truncated { .. }) => {}
                Err(e) => panic!("cut at {cut}: unexpected error {e}"),
                Ok(_) => panic!("cut at {cut}: decoded from a truncated body"),
            }
        }
        assert!(decode_request(payload).is_ok());
    }

    #[test]
    fn unknown_tags_error_by_name() {
        // Op tag 200.
        let mut p = Vec::new();
        nbb_encoding::wire::put_u64(&mut p, 1);
        p.push(200);
        assert_eq!(decode_request(&p), Err(DecodeError::BadTag { what: "op", tag: 200 }));

        // Tag 8, the retired batch op, is refused as a request and as a
        // response: an old client's frame is never read as another op.
        let mut p = Vec::new();
        nbb_encoding::wire::put_u64(&mut p, 1);
        p.push(8);
        assert_eq!(decode_request(&p), Err(DecodeError::BadTag { what: "op", tag: 8 }));
        let mut p = Vec::new();
        nbb_encoding::wire::put_u64(&mut p, 1);
        p.extend_from_slice(&[0, 8]); // STATUS_OK, tag 8
        assert_eq!(decode_response(&p), Err(DecodeError::BadTag { what: "response op", tag: 8 }));

        // Status byte 9.
        let mut p = Vec::new();
        nbb_encoding::wire::put_u64(&mut p, 1);
        p.push(9);
        assert_eq!(decode_response(&p), Err(DecodeError::BadTag { what: "status", tag: 9 }));

        // Bad bound tag inside a range request.
        let mut p = Vec::new();
        nbb_encoding::wire::put_u64(&mut p, 1);
        p.push(7); // RANGE
        put_str(&mut p, "t");
        put_str(&mut p, "pk");
        p.push(7); // bound tag 7: invalid
        assert_eq!(decode_request(&p), Err(DecodeError::BadTag { what: "bound", tag: 7 }));
    }

    #[test]
    fn trailing_garbage_is_named() {
        let bytes = encode_request(&sample_request());
        let mut payload = bytes[HEADER_LEN..].to_vec();
        payload.extend_from_slice(&[0xDE, 0xAD]);
        assert_eq!(decode_request(&payload), Err(DecodeError::Trailing { extra: 2 }));
    }

    #[test]
    fn bad_utf8_name_is_named() {
        let mut p = Vec::new();
        nbb_encoding::wire::put_u64(&mut p, 1);
        p.push(1); // GET_MANY
        put_bytes(&mut p, &[0xFF, 0xFE]); // invalid utf-8 table name
        put_str(&mut p, "pk");
        nbb_encoding::wire::put_u32(&mut p, 0);
        assert_eq!(decode_request(&p), Err(DecodeError::BadName));
    }

    #[test]
    fn hostile_count_meets_truncation_not_allocation() {
        // Claims 4 billion keys but carries none: must error fast.
        let mut p = Vec::new();
        nbb_encoding::wire::put_u64(&mut p, 1);
        p.push(1); // GET_MANY
        put_str(&mut p, "t");
        put_str(&mut p, "pk");
        nbb_encoding::wire::put_u32(&mut p, u32::MAX);
        assert!(matches!(decode_request(&p), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn framer_reassembles_byte_at_a_time() {
        let a = encode_request(&sample_request());
        let b =
            encode_response(&Response { id: 9, body: ResponseBody::GetMany { rows: vec![None] } });
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let mut f = Framer::new();
        let mut payloads = Vec::new();
        for byte in stream {
            f.extend(&[byte]);
            while let Some(p) = f.next_payload().expect("no decode error") {
                payloads.push(p);
            }
        }
        assert_eq!(payloads.len(), 2);
        assert_eq!(decode_request(&payloads[0]).expect("request"), sample_request());
        assert_eq!(decode_response(&payloads[1]).expect("response").id, 9);
        assert_eq!(f.buffered(), 0);
        assert_eq!(f.eof_error(), None);
    }

    #[test]
    fn framer_rejects_oversize_before_buffering_the_body() {
        let mut f = Framer::with_max(64);
        let mut header = Vec::new();
        wire::put_u32(&mut header, 65);
        f.extend(&header);
        assert_eq!(f.next_payload(), Err(DecodeError::Oversize { len: 65, max: 64 }));
    }

    #[test]
    fn framer_names_truncation_at_eof() {
        let bytes = encode_request(&sample_request());
        let mut f = Framer::new();
        f.extend(&bytes[..bytes.len() - 3]);
        assert_eq!(f.next_payload(), Ok(None));
        assert_eq!(
            f.eof_error(),
            Some(DecodeError::Truncated { needed: bytes.len(), have: bytes.len() - 3 })
        );
        // A header cut below 4 bytes still names itself.
        let mut f = Framer::new();
        f.extend(&bytes[..2]);
        assert_eq!(f.eof_error(), Some(DecodeError::Truncated { needed: 4, have: 2 }));
    }

    #[test]
    fn request_id_hint_survives_malformed_tails() {
        let mut p = Vec::new();
        nbb_encoding::wire::put_u64(&mut p, 0xFACE);
        p.push(200); // unknown op
        assert_eq!(request_id_hint(&p), Some(0xFACE));
        assert_eq!(request_id_hint(&[1, 2]), None);
    }
}

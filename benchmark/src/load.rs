//! Load generation and the oracle: one thread per connection drives
//! its op stream through `nbb-client`, checks every response row, and
//! keeps one latency sample per request.

use crate::gen::{self, Op, OpStream, Workload};
use crate::trace::SpanLog;
use crate::Res;
use nbb_client::{Client, ClientConfig, Ticket};
use nbb_proto::ResponseBody;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Connections (and generator threads): sized for a 2-core sandbox.
pub const CONNS: u64 = 2;
/// Connection id of the probes' replay stream, and the first id of the
/// open-loop pass: streams of their own, so that no two of them ever
/// insert the same key.
pub const REPLAY_CONN: u64 = CONNS;
pub const OPEN_CONN: u64 = CONNS + 1;

/// How a connection is driven.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// `depth` requests in flight, the next one sent when the oldest is
    /// redeemed.
    Closed,
    /// Requests sent when due, at `rate` per second on this connection.
    Open { rate: f64 },
}

/// One request, timed on the client side on the span log's clock. Kept
/// small (32 bytes): a run holds a million of them, and they are part
/// of the process whose peak memory is a metric.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was due: the moment it was submitted in a closed
    /// loop, its scheduled arrival in an open loop.
    pub due_ns: u64,
    /// Due → `Client::redeem` returned.
    pub latency_ns: u32,
    /// Due → `Client::submit` called: how late the generator ran.
    pub lag_ns: u32,
    /// Time inside `Client::submit`.
    pub submit_ns: u32,
    /// Ticket id, unique within the connection.
    pub ticket: u32,
    /// Rows returned or written.
    pub rows: u16,
    pub conn: u8,
    pub is_write: bool,
    /// The response arrived and every row in it passed the oracle.
    pub ok: bool,
}

impl Sample {
    pub fn done_ns(&self) -> u64 {
        self.due_ns + self.latency_ns as u64
    }
}

/// Nanoseconds from `from` to `to` as the 32 bits a sample keeps: a
/// stall of more than four seconds reads as four seconds.
fn span_ns(from: u64, to: u64) -> u32 {
    to.saturating_sub(from).min(u32::MAX as u64) as u32
}

/// Samples a connection has room for before its vector must grow: five
/// times what the fastest workload makes in a run. The room is address
/// space, not memory, until a sample lands in it. Without it the vector
/// doubles, and a doubling from 16 MB to 32 MB inside the window moved
/// `rss_peak_mb` by a quarter in the runs that crossed it.
const SAMPLE_ROOM: usize = 1 << 22;

/// What one connection's thread hands back.
pub struct ConnResult {
    pub samples: Vec<Sample>,
    /// Every `(key, value)` whose `PutMany` was acknowledged.
    pub acked_puts: Vec<(u64, u64)>,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl ConnResult {
    fn new() -> Self {
        ConnResult {
            samples: Vec::with_capacity(SAMPLE_ROOM),
            acked_puts: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Checks a response against the op that asked for it: row count, key
/// echo, presence, and each row's own checksum. Returns the rows
/// returned or written.
pub fn check(op: &Op, body: &ResponseBody) -> Result<u64, String> {
    match (op, body) {
        (_, ResponseBody::Error { message }) => Err(format!("server error: {message}")),
        (Op::GetMany(keys), ResponseBody::GetMany { rows }) if rows.len() == keys.len() => {
            for (key, row) in keys.iter().zip(rows) {
                match row {
                    Some(t) if gen::row_is_valid(t, *key) => {}
                    Some(_) => return Err(format!("key {key}: row fails its checksum")),
                    None => return Err(format!("key {key}: missing")),
                }
            }
            Ok(keys.len() as u64)
        }
        (Op::ProjectMany(keys), ResponseBody::ProjectMany { rows }) if rows.len() == keys.len() => {
            for (key, row) in keys.iter().zip(rows) {
                match row {
                    Some(p) if gen::projection_is_valid(&p.payload, *key) => {}
                    Some(_) => return Err(format!("key {key}: projection fails its checksum")),
                    None => return Err(format!("key {key}: missing")),
                }
            }
            Ok(keys.len() as u64)
        }
        (Op::Range { start }, ResponseBody::Range { rows, resume, .. })
            if rows.len() as u64 == gen::SCAN_ROWS =>
        {
            for (key, (k, t)) in (*start..).zip(rows) {
                if *k != gen::key_bytes(key) || !gen::row_is_valid(t, key) {
                    return Err(format!("scan from {start}: wrong row at key {key}"));
                }
            }
            if resume.as_deref() != rows.last().map(|(k, _)| k.as_slice()) {
                return Err(format!("scan from {start}: resume key is not the last key"));
            }
            Ok(gen::SCAN_ROWS)
        }
        (Op::UpdateMany(pairs), ResponseBody::UpdateMany { applied })
            if applied.len() == pairs.len() =>
        {
            match pairs.iter().zip(applied).find(|(_, ok)| !**ok) {
                Some(((key, _), _)) => Err(format!("key {key}: update found no row")),
                None => Ok(pairs.len() as u64),
            }
        }
        (Op::PutMany(pairs), ResponseBody::PutMany { rids }) if rids.len() == pairs.len() => {
            Ok(pairs.len() as u64)
        }
        _ => Err(format!("{op:?}: response of the wrong kind or row count")),
    }
}

struct InFlight {
    ticket: Ticket,
    op: Op,
    due_ns: u64,
    sent_ns: u64,
    submit_ns: u32,
}

struct Conn<'a> {
    id: u64,
    client: Client,
    log: &'a SpanLog,
}

impl Conn<'_> {
    fn submit(&self, op: Op, due_ns: Option<u64>) -> Res<InFlight> {
        let request = op.request();
        let sent_ns = self.log.now_ns();
        let ticket = self.client.submit(request)?;
        let submit_ns = span_ns(sent_ns, self.log.now_ns());
        Ok(InFlight { ticket, op, due_ns: due_ns.unwrap_or(sent_ns), sent_ns, submit_ns })
    }

    fn redeem(&self, f: InFlight, out: &mut ConnResult) {
        let verdict = match self.client.redeem(f.ticket) {
            Ok(body) => check(&f.op, &body),
            Err(e) => Err(e.to_string()),
        };
        let done_ns = self.log.now_ns();
        if let (Ok(_), Op::PutMany(pairs)) = (&verdict, &f.op) {
            out.acked_puts.extend_from_slice(pairs);
        }
        out.samples.push(Sample {
            due_ns: f.due_ns,
            latency_ns: span_ns(f.due_ns, done_ns),
            lag_ns: span_ns(f.due_ns, f.sent_ns),
            submit_ns: f.submit_ns,
            ticket: f.ticket.id() as u32,
            rows: *verdict.as_ref().unwrap_or(&0) as u16,
            conn: self.id as u8,
            is_write: f.op.is_write(),
            ok: verdict.is_ok(),
        });
        if let Err(what) = verdict {
            out.fail(what);
        }
    }
}

/// Closed loop: keeps `depth` requests in flight and submits the next
/// one when the oldest is redeemed, until `stop`; then drains.
fn closed_loop(c: &Conn, mut stream: OpStream, depth: usize, stop: &AtomicBool) -> ConnResult {
    let mut out = ConnResult::new();
    let mut window = VecDeque::with_capacity(depth);
    loop {
        while window.len() < depth && !stop.load(Ordering::Relaxed) {
            match c.submit(stream.next_op(), None) {
                Ok(f) => window.push_back(f),
                Err(e) => {
                    out.fail(format!("submit: {e}"));
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
        match window.pop_front() {
            Some(f) => c.redeem(f, &mut out),
            None => return out,
        }
    }
}

/// Open loop: submits each request when it is due, whatever the state
/// of the earlier ones; a second thread redeems in order. Latency is
/// taken from the due time, so the wait a stall imposes on later
/// requests is counted.
fn open_loop(c: &Conn, mut stream: OpStream, rate: f64, stop: &AtomicBool) -> ConnResult {
    let (tx, rx) = mpsc::channel::<InFlight>();
    std::thread::scope(|s| {
        let redeemer = s.spawn(move || {
            let mut out = ConnResult::new();
            for f in rx {
                c.redeem(f, &mut out);
            }
            out
        });
        let mut send_failure = None;
        let mut due_ns = c.log.now_ns();
        while !stop.load(Ordering::Relaxed) {
            due_ns += stream.next_gap_ns(rate);
            let op = stream.next_op();
            let now = c.log.now_ns();
            if due_ns > now {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            match c.submit(op, Some(due_ns)) {
                Ok(f) => {
                    if tx.send(f).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    send_failure = Some(format!("submit: {e}"));
                    break;
                }
            }
        }
        drop(tx);
        let mut out = redeemer.join().expect("the redeemer thread does not panic");
        if let Some(what) = send_failure {
            out.fail(what);
        }
        out
    })
}

/// Drives one connection until `stop` is set.
pub fn drive(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    conn: u64,
    mode: Mode,
    log: &SpanLog,
    stop: &AtomicBool,
) -> Res<ConnResult> {
    let depth = match mode {
        Mode::Closed => workload.depth(),
        Mode::Open { .. } => gen::OPEN_DEPTH,
    };
    let config = ClientConfig { depth, ..ClientConfig::default() };
    let c = Conn { id: conn, client: Client::connect(addr, config)?, log };
    let stream = OpStream::new(workload, seed, conn);
    Ok(match mode {
        Mode::Closed => closed_loop(&c, stream, depth, stop),
        Mode::Open { rate } => open_loop(&c, stream, rate, stop),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbb_proto::WireProjection;

    fn row(key: u64) -> Option<Vec<u8>> {
        Some(gen::encode_row(key, gen::initial_value(key)))
    }

    #[test]
    fn the_oracle_accepts_right_answers_and_names_wrong_ones() {
        let get = Op::GetMany(vec![3, 9]);
        assert_eq!(check(&get, &ResponseBody::GetMany { rows: vec![row(3), row(9)] }), Ok(2));
        for bad in [
            ResponseBody::GetMany { rows: vec![row(3)] },
            ResponseBody::GetMany { rows: vec![row(3), None] },
            ResponseBody::GetMany { rows: vec![row(3), row(8)] },
            ResponseBody::Error { message: "no".into() },
            ResponseBody::PutMany { rids: vec![1, 2] },
        ] {
            assert!(check(&get, &bad).is_err(), "{bad:?} must fail");
        }

        let project = Op::ProjectMany(vec![5]);
        let payload = gen::encode_row(5, 77)[8..24].to_vec();
        let good = WireProjection { payload, index_only: true };
        assert_eq!(check(&project, &ResponseBody::ProjectMany { rows: vec![Some(good)] }), Ok(1));
        let stale =
            WireProjection { payload: gen::encode_row(6, 77)[8..24].to_vec(), index_only: true };
        assert!(check(&project, &ResponseBody::ProjectMany { rows: vec![Some(stale)] }).is_err());

        let scan = Op::Range { start: 10 };
        let rows: Vec<(Vec<u8>, Vec<u8>)> =
            (10..10 + gen::SCAN_ROWS).map(|k| (gen::key_bytes(k), row(k).unwrap())).collect();
        let resume = Some(gen::key_bytes(10 + gen::SCAN_ROWS - 1));
        let page = |rows, resume| ResponseBody::Range { rows, more: true, resume };
        assert_eq!(check(&scan, &page(rows.clone(), resume.clone())), Ok(gen::SCAN_ROWS));
        let mut gap = rows.clone();
        gap[7] = (gen::key_bytes(999), row(999).unwrap());
        assert!(check(&scan, &page(gap, resume.clone())).is_err());
        assert!(check(&scan, &page(rows[1..].to_vec(), resume)).is_err());

        let update = Op::UpdateMany(vec![(1, 2), (3, 4)]);
        assert_eq!(check(&update, &ResponseBody::UpdateMany { applied: vec![true, true] }), Ok(2));
        assert!(check(&update, &ResponseBody::UpdateMany { applied: vec![true, false] }).is_err());
    }
}

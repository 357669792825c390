//! Per-layer probes of the traced run: single-threaded, after the
//! windows, each timing one public call of one layer on the workload's
//! own keys and frames. Every probe is a span.

use crate::gen::{self, Op, OpStream};
use crate::load::{self, REPLAY_CONN};
use crate::measure::{median_f64, quantile, ratio};
use crate::setup::Env;
use crate::trace::{self_times, Kind};
use crate::Res;
use nbb_client::{Client, ClientConfig};
use nbb_core::query::IndexRef;
use nbb_proto::{Framer, Request, RequestOp, Response, ResponseBody, WireBound, WireProjection};
use nbb_storage::{PageId, RecordId};
use std::hint::black_box;
use std::ops::Bound;
use std::time::{Duration, Instant};

/// Ops kept from the replay as the sample the other probes reuse.
const SAMPLE_OPS: usize = 48;
/// Shares of the probe budget.
const REPLAY_SHARE: f64 = 0.45;
const ROUND_SHARE: f64 = 0.05;

pub struct ProbeOut {
    pub values: Vec<(&'static str, f64)>,
    pub acked_puts: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Runs one op through the handle API, the way an `nbb-server` worker
/// does, and renders the result as the response the worker would send.
pub fn execute(index: &IndexRef, op: RequestOp) -> Res<ResponseBody> {
    Ok(match op {
        RequestOp::GetMany { keys, .. } => ResponseBody::GetMany { rows: index.get_many(&keys)? },
        RequestOp::ProjectMany { keys, .. } => ResponseBody::ProjectMany {
            rows: index
                .project_many(&keys)?
                .into_iter()
                .map(|r| r.map(|p| WireProjection { payload: p.payload, index_only: p.index_only }))
                .collect(),
        },
        RequestOp::Range { lo: WireBound::Included(lo), limit, .. } => {
            let mut cursor = index.range((Bound::Included(lo), Bound::Unbounded));
            let mut rows = Vec::new();
            while rows.len() < limit as usize {
                match cursor.next() {
                    Some(row) => {
                        let row = row?;
                        rows.push((row.key, row.tuple));
                    }
                    None => break,
                }
            }
            let more = rows.len() == limit as usize && cursor.next().is_some();
            let resume = rows.last().map(|(k, _)| k.clone());
            ResponseBody::Range { rows, more, resume }
        }
        RequestOp::UpdateMany { pairs, .. } => {
            ResponseBody::UpdateMany { applied: index.update_many(&pairs)? }
        }
        RequestOp::PutMany { tuples, .. } => ResponseBody::PutMany {
            rids: index.put_many(&tuples)?.into_iter().map(RecordId::to_u64).collect(),
        },
        other => return Err(format!("the generator never makes {other:?}").into()),
    })
}

/// Repeats `round` (which returns how many items it processed) inside
/// a span of `kind` until `budget` is spent, and returns the median
/// nanoseconds per item.
fn ns_per_item(
    env: &Env,
    kind: Kind,
    budget: Duration,
    mut round: impl FnMut() -> Res<usize>,
) -> Res<f64> {
    let started = Instant::now();
    let mut per_item = Vec::new();
    while per_item.len() < 3 || (started.elapsed() < budget && per_item.len() < 10_000) {
        let t = Instant::now();
        let items = env.log.scope(kind, 0, &mut round)?;
        per_item.push(ratio(t.elapsed().as_nanos() as f64, items as f64));
    }
    Ok(median_f64(&mut per_item))
}

/// The keys an op names, as the batch a tree probe looks up.
fn keys_of(op: &Op) -> Vec<Vec<u8>> {
    let keys: Vec<u64> = match op {
        Op::GetMany(k) | Op::ProjectMany(k) => k.clone(),
        Op::Range { start } => (*start..*start + 16).collect(),
        Op::UpdateMany(p) => p.iter().map(|&(k, _)| k).collect(),
        Op::PutMany(_) => Vec::new(),
    };
    keys.into_iter().map(gen::key_bytes).collect()
}

pub fn run(env: &Env, seed: u64, budget: Duration) -> Res<ProbeOut> {
    let log = &env.log;
    let table = env.table()?;
    let index = table.index(gen::INDEX)?;
    let tree = index.tree();
    let mut out =
        ProbeOut { values: Vec::new(), acked_puts: Vec::new(), attempted: 0, failures: Vec::new() };
    let round_budget = budget.mul_f64(ROUND_SHARE);

    // Replay: the workload's own ops, alternately over the wire on one
    // connection at depth 1 and in-process through the handle API. The
    // two halves draw from one stream, so they see the same mix; the
    // difference of their medians is what the wire adds.
    let client = Client::connect(
        env.server.local_addr(),
        ClientConfig { depth: 1, ..ClientConfig::default() },
    )?;
    let mut stream = OpStream::new(env.workload, seed, REPLAY_CONN);
    let (mut wire_ns, mut core_ns) = (Vec::new(), Vec::new());
    let mut sample: Vec<(Op, ResponseBody)> = Vec::new();
    let replay_until = Instant::now() + budget.mul_f64(REPLAY_SHARE);
    while Instant::now() < replay_until || out.attempted < 2 * SAMPLE_OPS as u64 {
        let op = stream.next_op();
        let request = op.request();
        let over_wire = out.attempted.is_multiple_of(2);
        out.attempted += 1;
        let t = Instant::now();
        let body = if over_wire {
            log.scope(Kind::WireCall, out.attempted, || client.call(request))?
        } else {
            log.scope(Kind::CoreCall, out.attempted, || execute(&index, request))?
        };
        let ns = t.elapsed().as_nanos() as u64;
        if over_wire { &mut wire_ns } else { &mut core_ns }.push(ns);
        match load::check(&op, &body) {
            Ok(_) => {
                if let Op::PutMany(pairs) = &op {
                    out.acked_puts.extend_from_slice(pairs);
                }
                if sample.len() < SAMPLE_OPS {
                    sample.push((op, body));
                }
            }
            Err(what) => out.failures.push(what),
        }
    }
    drop(client);
    let core_p50 = quantile(&mut core_ns, 0.5) as f64 / 1e3;
    out.values.push(("core.call_us_p50", core_p50));
    out.values.push(("core.call_us_p99", quantile(&mut core_ns, 0.99) as f64 / 1e3));
    out.values.push(("wire.overhead_us", quantile(&mut wire_ns, 0.5) as f64 / 1e3 - core_p50));
    let spans = log.spans();
    let mut core_self: Vec<u64> = spans
        .iter()
        .zip(self_times(&spans))
        .filter(|(s, _)| s.kind == Kind::CoreCall.name())
        .map(|(_, own)| own)
        .collect();
    out.values.push(("core.cpu_us", quantile(&mut core_self, 0.5) as f64 / 1e3));

    // nbb-proto on the sample's own frames.
    let requests: Vec<Request> =
        sample.iter().zip(1..).map(|((op, _), id)| Request { id, op: op.request() }).collect();
    let responses: Vec<Response> =
        sample.iter().zip(1..).map(|((_, body), id)| Response { id, body: body.clone() }).collect();
    let request_frames: Vec<Vec<u8>> = requests.iter().map(nbb_proto::encode_request).collect();
    let response_frames: Vec<Vec<u8>> = responses.iter().map(nbb_proto::encode_response).collect();
    let header = nbb_proto::HEADER_LEN;
    let encode_req = ns_per_item(env, Kind::ProtoEncodeReq, round_budget, || {
        requests.iter().for_each(|r| drop(black_box(nbb_proto::encode_request(black_box(r)))));
        Ok(requests.len())
    })?;
    let decode_req = ns_per_item(env, Kind::ProtoDecodeReq, round_budget, || {
        for f in &request_frames {
            black_box(nbb_proto::decode_request(black_box(&f[header..]))?);
        }
        Ok(request_frames.len())
    })?;
    let encode_resp = ns_per_item(env, Kind::ProtoEncodeResp, round_budget, || {
        responses.iter().for_each(|r| drop(black_box(nbb_proto::encode_response(black_box(r)))));
        Ok(responses.len())
    })?;
    let decode_resp = ns_per_item(env, Kind::ProtoDecodeResp, round_budget, || {
        for f in &response_frames {
            black_box(nbb_proto::decode_response(black_box(&f[header..]))?);
        }
        Ok(response_frames.len())
    })?;
    // The framer on both directions' frames, fed the way a socket read
    // delivers them: whole frames, one after another.
    let framer = ns_per_item(env, Kind::ProtoFramer, round_budget, || {
        let mut framer = Framer::new();
        let mut frames = 0;
        for f in request_frames.iter().chain(&response_frames) {
            framer.extend(f);
            while let Some(payload) = framer.next_payload()? {
                black_box(payload);
                frames += 1;
            }
        }
        Ok(frames)
    })?;
    out.values.extend([
        ("proto.encode_req_ns", encode_req),
        ("proto.decode_req_ns", decode_req),
        ("proto.encode_resp_ns", encode_resp),
        ("proto.decode_resp_ns", decode_resp),
        ("proto.framer_ns", framer),
    ]);

    // nbb-btree and the heap on resident data: the sample's key
    // batches, capped so their pages fit the smallest pool with room to
    // spare, looked up once to make them resident and then timed.
    let pool_room = env.db.heap_pool().capacity().min(env.db.index_pool().capacity()) / 4;
    let mut batches: Vec<Vec<Vec<u8>>> = Vec::new();
    for (op, _) in &sample {
        let keys = keys_of(op);
        if !keys.is_empty() && batches.iter().map(Vec::len).sum::<usize>() + keys.len() <= pool_room
        {
            batches.push(keys);
        }
    }
    let key_count: usize = batches.iter().map(Vec::len).sum();
    let mut rid_batches: Vec<Vec<RecordId>> = Vec::new();
    for keys in &batches {
        let values = tree.get_many(keys)?;
        rid_batches.push(values.into_iter().flatten().map(RecordId::from_u64).collect());
    }
    let index_touches = || {
        let s = env.db.index_pool().stats();
        s.hits + s.misses
    };
    let touches_before = index_touches();
    let mut rounds = 0usize;
    let get_many = ns_per_item(env, Kind::BtreeGetMany, round_budget, || {
        rounds += 1;
        for keys in &batches {
            black_box(tree.get_many(black_box(keys))?);
        }
        Ok(key_count)
    })?;
    let pages_per_lookup =
        ratio((index_touches() - touches_before) as f64, (rounds * key_count) as f64);
    let lookup_cached = ns_per_item(env, Kind::BtreeLookupCached, round_budget, || {
        for keys in &batches {
            black_box(tree.lookup_cached_many(black_box(keys))?);
        }
        Ok(key_count)
    })?;
    let heap = table.heap();
    for rids in &rid_batches {
        heap.get_many(rids)?;
    }
    let heap_get_many = ns_per_item(env, Kind::HeapGetMany, round_budget, || {
        for rids in &rid_batches {
            black_box(heap.get_many(black_box(rids))?);
        }
        Ok(rid_batches.iter().map(Vec::len).sum())
    })?;
    out.values.extend([
        ("btree.get_many_ns_per_key", get_many),
        ("btree.pages_per_lookup", pages_per_lookup),
        ("btree.lookup_cached_ns_per_key", lookup_cached),
        ("heap.get_many_ns_per_row", heap_get_many),
    ]);

    // The heap pool: a hit on a resident page, and a fault of a page
    // just evicted, net of the time the device call itself took.
    let pool = env.db.heap_pool();
    let pages: Vec<PageId> = rid_batches.iter().flatten().map(|r| r.page).collect();
    let first = *pages.first().ok_or("the probe sample named no row")?;
    const HITS_PER_ROUND: usize = 1_000;
    let hit = ns_per_item(env, Kind::PoolHit, round_budget, || {
        for _ in 0..HITS_PER_ROUND {
            pool.with_page(black_box(first), |p| black_box(p.bytes()[0]))?;
        }
        Ok(HITS_PER_ROUND)
    })?;
    let mut fault_net_ns = Vec::new();
    let fault_until = Instant::now() + round_budget * 4;
    for &id in pages.iter().cycle() {
        if fault_net_ns.len() >= 3 && Instant::now() >= fault_until {
            break;
        }
        // A page that is pinned or loading stays; the fault below is
        // then a hit and costs next to nothing, which the median drops.
        let _ = pool.evict_page(id);
        let device_before = env.heap_disk.counts().read_ns;
        let t = Instant::now();
        log.scope(Kind::PoolFault, 0, || pool.fault_many(&[id]))?;
        let took = t.elapsed().as_nanos() as u64;
        let in_device = env.heap_disk.counts().read_ns - device_before;
        fault_net_ns.push(took.saturating_sub(in_device));
    }
    out.values.extend([
        ("pool.hit_ns", hit),
        ("pool.fault_overhead_us", quantile(&mut fault_net_ns, 0.5) as f64 / 1e3),
    ]);
    Ok(out)
}

/// Structure gauges read at the end of a run. They walk every leaf and
/// every heap page, so the caller switches the device charge off first.
pub fn gauges(env: &Env) -> Res<Vec<(&'static str, f64)>> {
    let table = env.table()?;
    let index = table.index(gen::INDEX)?;
    Ok(vec![
        ("btree.height", index.tree().height()? as f64),
        ("btree.leaf_fill", index.tree().index_stats()?.avg_fill()),
        ("heap.fill_factor", table.heap().avg_fill_factor()?),
    ])
}

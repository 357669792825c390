//! Spans recorded from the benchmark's own files, around public calls
//! into the engine. Nothing inside the engine is instrumented.
//!
//! Spans live in a fixed, pre-allocated log of atomics: device calls
//! arrive from the server's worker threads and the pools' flusher
//! threads, which the benchmark neither owns nor joins, so a span is
//! claimed with one `fetch_add` and never locks. The log is written to
//! `out/trace-<workload>.jsonl` when the run ends.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Span names. `Request` spans come from the load generator's samples
/// and never enter the log; the rest are claimed through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Kind {
    Request = 0,
    CoreCall,
    DeviceRead,
    DeviceWrite,
    WireCall,
    BtreeGetMany,
    BtreeLookupCached,
    HeapGetMany,
    PoolHit,
    PoolFault,
    ProtoEncodeReq,
    ProtoDecodeReq,
    ProtoEncodeResp,
    ProtoDecodeResp,
    ProtoFramer,
}

const NAMES: [&str; 15] = [
    "request",
    "core.call",
    "device.read",
    "device.write",
    "wire.call",
    "btree.get_many",
    "btree.lookup_cached_many",
    "heap.get_many",
    "pool.with_page",
    "pool.fault_many",
    "proto.encode_request",
    "proto.decode_request",
    "proto.encode_response",
    "proto.decode_response",
    "proto.framer",
];

impl Kind {
    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// Identifier of a claimed span: its slot + 1, so 0 can mean "none"
/// (as a parent: the work was started by no span the benchmark can
/// see, i.e. a background thread or a server worker).
pub type SpanId = u64;

thread_local! {
    /// The span running on this thread and the request it belongs to;
    /// device calls made by this thread become its children.
    static CURRENT: Cell<(SpanId, u64)> = const { Cell::new((0, 0)) };
}

#[derive(Default)]
struct Slot {
    kind: AtomicU32,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    parent: AtomicU64,
    request: AtomicU64,
}

/// One finished span, as written to the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u64,
}

pub struct SpanLog {
    epoch: Instant,
    on: AtomicBool,
    next: AtomicUsize,
    slots: Box<[Slot]>,
}

impl SpanLog {
    /// A log of `capacity` spans; spans past it are counted, not kept.
    pub fn new(capacity: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next: AtomicUsize::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
        }
    }

    /// Nanoseconds since the log was made: the clock of every span and
    /// of every latency sample.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Spans that found the log full.
    pub fn dropped(&self) -> usize {
        self.next.load(Ordering::SeqCst).saturating_sub(self.slots.len())
    }

    fn claim(&self, kind: Kind, start_ns: u64, parent: SpanId, request: u64) -> SpanId {
        if !self.on.load(Ordering::Relaxed) {
            return 0;
        }
        let at = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(at) else { return 0 };
        slot.kind.store(kind as u32, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.request.store(request, Ordering::Relaxed);
        at as SpanId + 1
    }

    /// Claims a span starting at `start_ns` as a child of the span
    /// running on this thread, for the same request. Returns 0 when
    /// tracing is off or the log is full.
    pub fn begin_at(&self, kind: Kind, start_ns: u64) -> SpanId {
        let (parent, request) = CURRENT.get();
        self.claim(kind, start_ns, parent, request)
    }

    pub fn end_at(&self, id: SpanId, end_ns: u64) {
        if let Some(slot) = id.checked_sub(1).and_then(|at| self.slots.get(at as usize)) {
            // Release pairs with the Acquire in `spans`: a reader that
            // sees the end also sees the fields stored before it.
            slot.end_ns.store(end_ns, Ordering::Release);
        }
    }

    /// Runs `f` inside a span of `kind` belonging to `request`; device
    /// calls `f` makes on this thread become the span's children.
    pub fn scope<R>(&self, kind: Kind, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.claim(kind, self.now_ns(), CURRENT.get().0, request);
        let outer = CURRENT.replace((id, request));
        let r = f();
        CURRENT.set(outer);
        self.end_at(id, self.now_ns());
        r
    }

    /// Every finished span, in claim order.
    pub fn spans(&self) -> Vec<Span> {
        let n = self.next.load(Ordering::SeqCst).min(self.slots.len());
        self.slots[..n]
            .iter()
            .enumerate()
            .filter_map(|(at, s)| {
                let end_ns = s.end_ns.load(Ordering::Acquire);
                (end_ns != 0).then(|| Span {
                    id: at as SpanId + 1,
                    kind: NAMES[s.kind.load(Ordering::Relaxed) as usize],
                    start_ns: s.start_ns.load(Ordering::Relaxed),
                    end_ns,
                    parent: s.parent.load(Ordering::Relaxed),
                    request: s.request.load(Ordering::Relaxed),
                })
            })
            .collect()
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one parent run on the parent's thread, one after
/// another, so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_insert(0u64) += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0)))
        .collect()
}

/// Writes spans one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
            s.id, s.kind, s.start_ns, s.end_ns, s.parent, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let log = SpanLog::new(8);
        assert_eq!(log.begin_at(Kind::CoreCall, 1), 0, "off: nothing is claimed");
        log.set_on(true);
        log.scope(Kind::CoreCall, 42, || {
            let child = log.begin_at(Kind::DeviceRead, log.now_ns());
            std::thread::sleep(std::time::Duration::from_millis(2));
            log.end_at(child, log.now_ns());
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        let (call, read) = (spans[0], spans[1]);
        assert_eq!((call.kind, call.parent, call.request), ("core.call", 0, 42));
        assert_eq!((read.kind, read.parent, read.request), ("device.read", call.id, 42));
        let own = self_times(&spans);
        assert_eq!(own[0], (call.end_ns - call.start_ns) - (read.end_ns - read.start_ns));
        assert_eq!(own[1], read.end_ns - read.start_ns);
    }

    #[test]
    fn a_full_log_drops_and_counts() {
        let log = SpanLog::new(1);
        log.set_on(true);
        log.scope(Kind::PoolHit, 0, || ());
        log.scope(Kind::PoolHit, 0, || ());
        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.dropped(), 1);
    }
}

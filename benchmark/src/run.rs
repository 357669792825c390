//! One run of one workload: set-up, warm-up, the measured window (or,
//! traced, an untraced and a traced window, the open-loop pass and the
//! probes), the closing verification, and the metrics.

use crate::disk::DiskCounts;
use crate::gen::{self, Workload};
use crate::load::{self, ConnResult, Mode, Sample, CONNS, OPEN_CONN};
use crate::measure::{median_f64, quantile, quantile_f64, ratio, Snapshot, Window};
use crate::report::{self, RunResult};
use crate::setup::{self, Env, PAGE_SIZE};
use crate::trace::{self, Kind, Span};
use crate::{probes, Res};
use nbb_storage::DiskManager;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Warm-up before the first window, as a share of `--seconds` and at
/// most `WARMUP_MAX`: every run starts from a cold reopen, and the hot
/// pages and hot cache entries must be in place before timing.
const WARMUP_SHARE: f64 = 0.25;
const WARMUP_MAX: Duration = Duration::from_millis(2_500);
/// Shares of `--seconds` a traced run gives each of its two windows,
/// the open-loop pass and the probes.
const TRACED_WINDOW_SHARE: f64 = 0.3;
const OPEN_SHARE: f64 = 0.2;
const PROBE_SHARE: f64 = 0.2;
/// Share of the open-loop pass that is its own warm-up: new
/// connections, and a backlog-free start.
const OPEN_WARMUP_SHARE: f64 = 0.2;
/// Which of a window's one-second slices speaks for the window: the
/// slice a quarter of the way in from the best one.
const SLICE_QUANTILE: f64 = 0.25;
/// Keys per `get_many` of the closing verification.
const VERIFY_BATCH: usize = 512;

/// Drives `CONNS` connections, numbered from `first_conn`, through
/// `phases`, taking a counter snapshot at every boundary and tracing
/// during phase `traced`.
fn drive(
    env: &Env,
    seed: u64,
    mode: Mode,
    first_conn: u64,
    phases: &[Duration],
    traced: Option<usize>,
) -> Res<(Vec<Snapshot>, Vec<ConnResult>)> {
    let stop = AtomicBool::new(false);
    let addr = env.server.local_addr();
    std::thread::scope(|s| {
        let threads: Vec<_> = (first_conn..first_conn + CONNS)
            .map(|conn| {
                let stop = &stop;
                s.spawn(move || load::drive(addr, env.workload, seed, conn, mode, &env.log, stop))
            })
            .collect();
        let snapshots = (|| {
            let mut snapshots = vec![Snapshot::take(env)?];
            let mut boundary = Instant::now();
            for (i, phase) in phases.iter().enumerate() {
                env.log.set_on(traced == Some(i));
                boundary += *phase;
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                snapshots.push(Snapshot::take(env)?);
            }
            Ok::<_, Box<dyn std::error::Error + Send + Sync>>(snapshots)
        })();
        env.log.set_on(false);
        stop.store(true, Ordering::Relaxed);
        let mut conns = Vec::new();
        for t in threads {
            conns.push(t.join().map_err(|_| "a load thread panicked")??);
        }
        Ok((snapshots?, conns))
    })
}

/// What the closing verification found.
struct Closing {
    checked: u64,
    mismatches: u64,
    failures: Vec<String>,
    /// Device writes of the final `persist`.
    persist_writes: DiskCounts,
    pages: u64,
}

/// Shuts the server down, persists, reopens over the same disks as
/// after a restart, and — if the workload wrote — reads back every
/// loaded row and every acknowledged insert.
fn close(env: Env, acked_puts: &[(u64, u64)], wrote: bool) -> Res<Closing> {
    let Env { workload, db, server, heap_disk, index_disk, .. } = env;
    server.shutdown();
    drop(server);
    let before = heap_disk.counts().plus(index_disk.counts());
    db.persist()?;
    let persist_writes = heap_disk.counts().plus(index_disk.counts()).since(before);
    drop(db);
    let mut out = Closing {
        checked: 0,
        mismatches: 0,
        failures: Vec::new(),
        persist_writes,
        pages: heap_disk.num_pages() + index_disk.num_pages(),
    };
    if !wrote {
        return Ok(out);
    }
    let db = Env::reopen(workload, &heap_disk, &index_disk)?;
    let table = db.table(gen::TABLE)?;
    let index = table.index(gen::INDEX)?;
    // A loaded row may hold any value an update gave it, so it is held
    // to its own checksum; an inserted row was written once and is held
    // to the value that was acknowledged.
    let loaded: Vec<(u64, Option<u64>)> = (0..gen::ROWS).map(|k| (k, None)).collect();
    let inserted: Vec<(u64, Option<u64>)> = acked_puts.iter().map(|&(k, v)| (k, Some(v))).collect();
    for batch in loaded.chunks(VERIFY_BATCH).chain(inserted.chunks(VERIFY_BATCH)) {
        let keys: Vec<Vec<u8>> = batch.iter().map(|&(k, _)| gen::key_bytes(k)).collect();
        for (&(key, value), row) in batch.iter().zip(index.get_many(&keys)?) {
            out.checked += 1;
            let ok = row.as_deref().is_some_and(|t| {
                gen::row_is_valid(t, key) && value.is_none_or(|v| gen::row_value(t) == v)
            });
            if !ok {
                out.mismatches += 1;
                if out.failures.len() < 8 {
                    out.failures.push(format!("after reopen, key {key}: {row:?}"));
                }
            }
        }
    }
    Ok(out)
}

/// Every connection's samples in one list, in order of completion.
fn by_completion(conns: &[ConnResult]) -> Vec<Sample> {
    let mut samples: Vec<Sample> = conns.iter().flat_map(|c| c.samples.iter().copied()).collect();
    samples.sort_by_key(Sample::done_ns);
    samples
}

fn request_spans(samples: &[Sample], from_ns: u64, to_ns: u64) -> Vec<Span> {
    samples
        .iter()
        .filter(|s| (from_ns..to_ns).contains(&s.done_ns()))
        .zip(1u64 << 32..)
        .map(|(s, id)| Span {
            id,
            kind: Kind::Request.name(),
            start_ns: s.due_ns,
            end_ns: s.done_ns(),
            parent: 0,
            request: (s.conn as u64) << 32 | s.ticket as u64,
        })
        .collect()
}

/// Prints, per span name, how many spans there were and their total and
/// self time: where the traced run's time went.
fn print_span_summary(spans: &[Span]) {
    let own = trace::self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for (s, own) in spans.iter().zip(own) {
        let e = by_name.entry(s.kind).or_default();
        *e = (e.0 + 1, e.1 + (s.end_ns - s.start_ns), e.2 + own);
    }
    println!("# {:<26} {:>9} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for (name, (count, total, own)) in by_name {
        println!("# {name:<26} {count:>9} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
}

pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Res<RunResult> {
    println!(
        "# nbb-benchmark workload={} seed={seed} seconds={seconds} trace={} cores={}",
        workload.name(),
        traced as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut setup_s = Vec::new();
    let mut env = setup::setup(workload)?;
    setup_s.push(env.setup_s);
    while !traced && setup_s.len() < SETUPS {
        drop(env);
        env = setup::setup(workload)?;
        setup_s.push(env.setup_s);
    }

    let window = Duration::from_secs(seconds);
    let warmup = window.mul_f64(WARMUP_SHARE).min(WARMUP_MAX);
    let phases = match traced {
        false => vec![warmup, window],
        true => {
            vec![warmup, window.mul_f64(TRACED_WINDOW_SHARE), window.mul_f64(TRACED_WINDOW_SHARE)]
        }
    };
    env.device.set_charging(true);
    let (snaps, conns) = drive(&env, seed, Mode::Closed, 0, &phases, traced.then_some(2))?;
    // The open-loop pass: the workload's requests arriving independently
    // at a fixed rate, on connections and streams of their own.
    let (open_snaps, open_conns) = match traced {
        true => {
            let pass = window.mul_f64(OPEN_SHARE);
            let phases = [pass.mul_f64(OPEN_WARMUP_SHARE), pass.mul_f64(1.0 - OPEN_WARMUP_SHARE)];
            let mode = Mode::Open { rate: workload.open_rate() / CONNS as f64 };
            drive(&env, seed, mode, OPEN_CONN, &phases, None)?
        }
        false => (Vec::new(), Vec::new()),
    };

    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let samples = by_completion(&conns);
    let all = || conns.iter().chain(&open_conns);
    let mut acked_puts: Vec<(u64, u64)> = all().flat_map(|c| c.acked_puts.clone()).collect();
    let mut failures: Vec<String> = all().flat_map(|c| c.failures.clone()).collect();
    let mut attempted = all().map(|c| c.samples.len() as u64).sum::<u64>();
    let mut failed = all().flat_map(|c| &c.samples).filter(|s| !s.ok).count() as u64;

    let mut spans = Vec::new();
    if traced {
        env.log.set_on(true);
        let p = probes::run(&env, seed, window.mul_f64(PROBE_SHARE))?;
        env.log.set_on(false);
        attempted += p.attempted;
        failed += p.failures.len() as u64;
        failures.extend(p.failures);
        acked_puts.extend(p.acked_puts);
        values.extend(p.values);
        spans = request_spans(&samples, snaps[2].at_ns, snaps[3].at_ns);
        spans.extend(env.log.spans());
        values.push(("harness.spans_dropped", env.log.dropped() as f64));
    }
    env.device.set_charging(false);
    if traced {
        values.extend(probes::gauges(&env)?);
    }
    let decode_errors = env.server.stats().decode_errors;
    let wrote = samples.iter().any(|s| s.is_write);
    let mut closing = close(env, &acked_puts, wrote)?;
    attempted += closing.checked;
    failed += closing.mismatches;
    failures.append(&mut closing.failures);

    if traced {
        let open =
            Window::of(&by_completion(&open_conns), open_snaps[1].at_ns, open_snaps[2].at_ns);
        values.extend(per_layer(workload, &snaps, &samples, &open, decode_errors));
        let path = crate::out_dir().join(format!("trace-{}.jsonl", workload.name()));
        trace::write_jsonl(&path, &spans)?;
        println!("# {} spans written to {}", spans.len(), path.display());
        print_span_summary(&spans);
    } else {
        let live_rows = gen::ROWS + acked_puts.len() as u64;
        values.extend(end_to_end(seconds, &snaps[1], &snaps[2], &samples, &closing, live_rows));
        values.push(("setup_s", median_f64(&mut setup_s)));
        println!("# set-ups {setup_s:.4?} s");
    }

    let correct = failed == 0 && decode_errors == 0;
    failures.iter().for_each(|f| println!("# FAILED: {f}"));
    println!("# fail_ratio {} ({failed} of {attempted})", ratio(failed as f64, attempted as f64));
    let table: &[_] = if traced { &report::PER_LAYER } else { &report::END_TO_END };
    let result = RunResult::new(correct, attempted, failed, table, &values)?;
    result.print();
    Ok(result)
}

/// The end-to-end metrics of the untraced window between `first` and
/// `last` (all but `setup_s`).
fn end_to_end(
    seconds: u64,
    first: &Snapshot,
    last: &Snapshot,
    samples: &[Sample],
    closing: &Closing,
    live_rows: u64,
) -> Vec<(&'static str, f64)> {
    // Throughput and latency are taken per one-second slice of the
    // window, and the slice at the better quartile speaks for the
    // window. The sandbox's host takes cycles away for seconds at a
    // time and never gives any: the better slices are the ones that
    // measured the program. A stall also lands in one or two slices
    // and leaves the quartile alone, where it would own the whole
    // window's 99th percentile.
    let slices: Vec<Window> = (0..seconds)
        .map(|i| {
            let at = |k: u64| first.at_ns + (last.at_ns - first.at_ns) * k / seconds;
            Window::of(samples, at(i), at(i + 1))
        })
        .collect();
    let per_slice = |f: &dyn Fn(&Window) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    let lat_us = |p: f64| move |w: &Window| quantile(&mut w.latencies_ns.clone(), p) as f64 / 1e3;
    let (mut rate, mut p50, mut p99) =
        (per_slice(&Window::req_per_s), per_slice(&lat_us(0.5)), per_slice(&lat_us(0.99)));
    let fewest = slices.iter().map(|w| w.latencies_ns.len()).min().unwrap_or(0);
    println!("# per-second req_per_s {rate:.0?}");
    println!("# per-second lat_p50_us {p50:.0?}");
    println!("# per-second lat_p99_us {p99:.0?} (at least {} samples beyond each)", fewest / 100);

    let whole = Window::of(samples, first.at_ns, last.at_ns);
    let device = last.disks().since(first.disks());
    let page = PAGE_SIZE as f64;
    let written = device.write_pages + closing.persist_writes.write_pages;
    vec![
        ("req_per_s", quantile_f64(&mut rate, 1.0 - SLICE_QUANTILE)),
        ("lat_p50_us", quantile_f64(&mut p50, SLICE_QUANTILE)),
        ("lat_p99_us", quantile_f64(&mut p99, SLICE_QUANTILE)),
        ("read_amp", 1.0 + ratio(device.read_pages as f64 * page, whole.user_bytes())),
        ("write_amp", 1.0 + ratio(written as f64 * page, whole.user_bytes())),
        ("space_amp", closing.pages as f64 * page / (live_rows * gen::TUPLE as u64) as f64),
        ("rss_peak_mb", last.proc.rss_peak_kb as f64 / 1024.0),
    ]
}

/// The per-layer metrics that are counter deltas over the traced run's
/// two windows (`snaps[1]` to `snaps[3]`) or come from its samples.
fn per_layer(
    workload: Workload,
    snaps: &[Snapshot],
    samples: &[Sample],
    open: &Window,
    decode_errors: u64,
) -> Vec<(&'static str, f64)> {
    let (a, b) = (&snaps[1], &snaps[3]);
    let d = |f: fn(&Snapshot) -> u64| (f(b) - f(a)) as f64;
    let untraced = Window::of(samples, snaps[1].at_ns, snaps[2].at_ns);
    let traced = Window::of(samples, snaps[2].at_ns, snaps[3].at_ns);
    let both = Window::of(samples, snaps[1].at_ns, snaps[3].at_ns);
    let reqs = both.verified() as f64;
    let kreq = reqs / 1e3;
    let heap = b.heap_disk.since(a.heap_disk);
    let index = b.index_disk.since(a.index_disk);
    let disks = heap.plus(index);
    let open_us = |of: &[u64], p: f64| quantile(&mut of.to_vec(), p) as f64 / 1e3;
    let late =
        open.latencies_ns.iter().filter(|&&ns| ns as f64 / 1e3 > workload.open_limit_us()).count();
    vec![
        ("client.submit_us_p50", quantile(&mut traced.submits_ns.clone(), 0.5) as f64 / 1e3),
        ("server.bytes_in_per_req", ratio(d(|s| s.server.bytes_in), d(|s| s.server.frames_in))),
        ("server.bytes_out_per_req", ratio(d(|s| s.server.bytes_out), d(|s| s.server.frames_out))),
        ("server.queue_full_parks_per_kreq", ratio(d(|s| s.server.queue_full_parks), kreq)),
        ("server.decode_errors", decode_errors as f64),
        (
            "core.index_only_ratio",
            ratio(
                d(|s| s.table.index_only_answers),
                d(|s| s.table.index_only_answers + s.table.heap_fetches),
            ),
        ),
        (
            "core.tuples_per_write_batch",
            ratio(
                d(|s| s.table.inserts + s.table.updates + s.table.deletes),
                d(|s| s.table.write_batches),
            ),
        ),
        ("btree.cache_hit_ratio", ratio(d(|s| s.cache.hits), d(|s| s.cache.lookups))),
        ("btree.cache_evictions_per_kreq", ratio(d(|s| s.cache.evictions), kreq)),
        ("btree.cache_latch_giveups_per_kreq", ratio(d(|s| s.cache.latch_giveups), kreq)),
        (
            "btree.keys_per_leaf_group",
            ratio(d(|s| s.tree_writes.keys), d(|s| s.tree_writes.leaf_groups)),
        ),
        ("btree.escalations_per_kreq", ratio(d(|s| s.tree_writes.escalations), kreq)),
        ("btree.intent_parks_per_kreq", ratio(d(|s| s.tree_writes.intent_parks), kreq)),
        (
            "pool.heap_hit_ratio",
            ratio(d(|s| s.heap_pool.hits), d(|s| s.heap_pool.hits + s.heap_pool.misses)),
        ),
        (
            "pool.index_hit_ratio",
            ratio(d(|s| s.index_pool.hits), d(|s| s.index_pool.hits + s.index_pool.misses)),
        ),
        (
            "pool.evictions_per_req",
            ratio(d(|s| s.heap_pool.evictions + s.index_pool.evictions), reqs),
        ),
        (
            "pool.fault_joins_per_kreq",
            ratio(d(|s| s.heap_pool.fault_joins + s.index_pool.fault_joins), kreq),
        ),
        (
            "pool.pages_per_read_batch",
            ratio(
                d(|s| s.heap_pool.read_pages + s.index_pool.read_pages),
                d(|s| s.heap_pool.read_batches + s.index_pool.read_batches),
            ),
        ),
        (
            "pool.prefetch_hit_ratio",
            ratio(
                d(|s| s.heap_pool.prefetch_hits + s.index_pool.prefetch_hits),
                d(|s| s.heap_pool.prefetch_issued + s.index_pool.prefetch_issued),
            ),
        ),
        (
            "pool.compressed_hit_ratio",
            ratio(
                d(|s| s.heap_pool.compressed_hits + s.index_pool.compressed_hits),
                d(|s| s.heap_pool.misses + s.index_pool.misses),
            ),
        ),
        (
            "pool.wb_flushed_per_kreq",
            ratio(d(|s| s.heap_pool.wb_flushed + s.index_pool.wb_flushed), kreq),
        ),
        (
            "pool.wb_sync_fallbacks_per_kreq",
            ratio(d(|s| s.heap_pool.wb_sync_fallbacks + s.index_pool.wb_sync_fallbacks), kreq),
        ),
        ("device.heap_read_calls_per_req", ratio(heap.read_calls as f64, reqs)),
        ("device.index_read_calls_per_req", ratio(index.read_calls as f64, reqs)),
        ("device.pages_per_read_call", ratio(disks.read_pages as f64, disks.read_calls as f64)),
        ("device.write_calls_per_req", ratio(disks.write_calls as f64, reqs)),
        ("device.pages_per_write_call", ratio(disks.write_pages as f64, disks.write_calls as f64)),
        ("device.read_wait_us_per_req", ratio(disks.read_ns as f64 / 1e3, reqs)),
        ("device.busy_frac", ratio(d(|s| s.device_busy_ns), d(|s| s.at_ns))),
        ("device.inflight_max", snaps[2].device_in_flight_max.max(b.device_in_flight_max) as f64),
        ("proc.cpu_ms_per_kreq", ratio(d(|s| s.proc.cpu_ticks) * 10.0, kreq)),
        ("proc.ctx_switches_per_req", ratio(d(|s| s.proc.ctx_switches), reqs)),
        ("proc.threads_max", snaps.iter().map(|s| s.proc.threads).max().unwrap_or(0) as f64),
        ("proc.rss_serving_mb", b.proc.rss_kb as f64 / 1024.0),
        ("harness.samples", both.latencies_ns.len() as f64),
        (
            "harness.trace_overhead_pct",
            ratio(untraced.req_per_s() - traced.req_per_s(), untraced.req_per_s()) * 100.0,
        ),
        ("open.req_per_s", open.req_per_s()),
        ("open.lat_p50_us", open_us(&open.latencies_ns, 0.5)),
        ("open.lat_p99_us", open_us(&open.latencies_ns, 0.99)),
        ("open.gen_lag_p99_us", open_us(&open.lags_ns, 0.99)),
        ("open.late_per_kreq", ratio(late as f64, open.verified() as f64 / 1e3)),
    ]
}

//! Same-key writer storms through the key-level write-intent table.
//!
//! Every writer hammers **one** key, the worst case the intent table
//! exists for. The acceptance bar is *correctness under full
//! contention*, not speedup — 8 writers cycling put/update/delete on a
//! single hot key over a blocking disk must complete with **zero
//! aborted ops** (every op returns `Ok`; racing deleters split into one
//! winner and clean `false`s) while the storm provably serialized
//! through the intent table (`intent_parks > 0`, asserted). Throughput
//! and park/handoff counts are printed so regressions in the handoff
//! chain show up as numbers, not just green tests.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nbb_core::db::{Database, DbConfig};
use nbb_core::table::{FieldSpec, IndexSpec, Table};
use nbb_storage::{DiskManager, DiskModel, LatencyDisk};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WRITERS: u64 = 8;
const ROUNDS: u64 = 24;
const HOT_KEY: u64 = 7;
/// Modeled device latency (NVMe-ish).
const IO_NS: u64 = 20_000;

/// 24-byte tuple: key(8) | writer(8) | value(8).
fn tuple(key: u64, writer: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&writer.to_le_bytes());
    t.extend_from_slice(&value.to_le_bytes());
    t
}

fn build() -> (Database, Arc<Table>) {
    let model = DiskModel { read_ns: IO_NS, write_ns: IO_NS };
    let heap_disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(4096, model));
    let index_disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(4096, model));
    let db = Database::with_disks(
        DbConfig {
            page_size: 4096,
            heap_frames: 64,
            index_frames: 64,
            disk_model: None,
            ..DbConfig::default()
        },
        heap_disk,
        index_disk,
    )
    .unwrap();
    let table = db.create_table("t", 24).unwrap();
    // Enough disjoint rows that the tree is multi-leaf and the pools
    // actually churn under the storm.
    for chunk in (0..8192u64).step_by(1024) {
        let tuples: Vec<Vec<u8>> = (chunk..chunk + 1024).map(|k| tuple(1000 + k, 0, k)).collect();
        table.insert_many(&tuples).unwrap();
    }
    table.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
    (db, table)
}

/// One full storm: every writer cycles put → update → delete on the
/// single hot key. Returns the wall time; panics on any aborted op —
/// under the intent table a lost race is a clean `false`, never an
/// error.
fn run_storm(table: &Arc<Table>) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let table = Arc::clone(table);
            s.spawn(move || {
                let pk = table.index("pk").unwrap();
                for r in 0..ROUNDS {
                    match (w + r) % 3 {
                        0 => {
                            pk.put(&tuple(HOT_KEY, w, r)).unwrap();
                        }
                        1 => {
                            // `false` = serialized behind a deleter;
                            // an error would be an aborted op.
                            black_box(
                                pk.update(&HOT_KEY.to_be_bytes(), &tuple(HOT_KEY, w, r)).unwrap(),
                            );
                        }
                        _ => {
                            black_box(pk.delete(&HOT_KEY.to_be_bytes()).unwrap());
                        }
                    }
                }
            });
        }
    });
    start.elapsed()
}

fn bench_same_key_storm(c: &mut Criterion) {
    let (_db, table) = build();

    let mut group = c.benchmark_group("same_key_writes");
    group.sample_size(10);
    group.throughput(Throughput::Elements(WRITERS * ROUNDS));
    group.bench_function(BenchmarkId::new("storm_one_key", WRITERS), |b| {
        b.iter(|| black_box(run_storm(&table)))
    });
    group.finish();

    // Headline outside criterion's adaptive loop.
    let wall = run_storm(&table).min(run_storm(&table));
    let s = table.stats();
    let w = table.index_tree("pk").unwrap().tree().write_stats();
    println!(
        "same_key_writes: {WRITERS} writers x {ROUNDS} rounds on one key in {:.1}ms \
         ({:.1} Kops/s serialized); {} intent parks, {} handoffs",
        wall.as_secs_f64() * 1e3,
        (WRITERS * ROUNDS) as f64 / wall.as_secs_f64() / 1e3,
        w.intent_parks,
        w.intent_handoffs,
    );
    // The acceptance bar: the storm really did serialize through the
    // intent table (writers parked and were handed the key), and the
    // final state is whole — one live hot row or none, with the index
    // and heap agreeing.
    assert!(
        s.intent_parks > 0,
        "an 8-writer one-key storm over a blocking disk must park rivals: {s:?}"
    );
    assert_eq!(s.intent_parks, s.intent_handoffs, "every park must resolve via a handoff");
    let hot = table.index("pk").unwrap().get(&HOT_KEY.to_be_bytes()).unwrap();
    let mut live_hot = 0u64;
    table
        .scan(|_, row| {
            if u64::from_be_bytes(row[..8].try_into().unwrap()) == HOT_KEY {
                live_hot += 1;
            }
            true
        })
        .unwrap();
    assert_eq!(live_hot, u64::from(hot.is_some()), "heap and index must agree after the storm");
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_same_key_storm
}
criterion_main!(benches);

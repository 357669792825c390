//! The benchmark's data set and request streams, copied from its
//! generator (`benchmark/src/gen.rs`) so that replays in these tests
//! run the benchmark's own workload through the public API without
//! the wire: rows, values and checksums, and each connection's op
//! stream (xorshift64* seeded from `(workload, seed, connection)`,
//! Zipf ranks after Gray et al., the workload's rank → key map).

#![allow(dead_code)] // each test binary uses its own part of the streams

use nbb_core::db::{Database, DbConfig};
use nbb_core::query::IndexRef;
use nbb_core::table::{FieldSpec, IndexSpec, Table};
use nbb_storage::DiskManager;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Rows the benchmark loads, keys `0..ROWS` in key order.
pub const ROWS: u64 = 200_000;
/// Tuple width: `key | value | check | 40 B filler`.
pub const TUPLE: usize = 64;
const THETA: f64 = 0.99;
const STRIDE: u64 = 123_457;
/// First key of connection 0's `PutMany` range; connection `c` puts
/// from `PUT_BASE * (c + 1)` upward, past every loaded key.
const PUT_BASE: u64 = 1 << 40;

/// SplitMix64 finaliser over two words: the row checksum, the filler
/// and the seed expander.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z =
        a.wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value a loaded row starts with.
pub fn initial_value(key: u64) -> u64 {
    mix(key, 0x6e62_6200)
}

/// The benchmark's row of `key` as first loaded.
pub fn row(key: u64) -> Vec<u8> {
    encode_row(key, initial_value(key))
}

/// The benchmark's row of `(key, value)`: `key | value | check | 40 B
/// filler`.
pub fn encode_row(key: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(TUPLE);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&value.to_be_bytes());
    t.extend_from_slice(&mix(key, value).to_be_bytes());
    for i in 1..=5u64 {
        t.extend_from_slice(&mix(key, i << 56).to_be_bytes());
    }
    t
}

/// A database configuration of 4 KiB pages and these pool sizes.
pub fn config(heap_frames: usize, index_frames: usize) -> DbConfig {
    DbConfig { page_size: 4096, heap_frames, index_frames, ..DbConfig::default() }
}

/// The benchmark's set-up on `heap` and `index`: table `t` loaded with
/// rows `0..rows` in key order, 4,096 to a batch, the cached index `pk`
/// (key bytes 0..8, `value | check` declared) backfilled, all persisted.
pub fn load(heap: Arc<dyn DiskManager>, index: Arc<dyn DiskManager>, rows: u64) {
    let db = Database::with_disks(config(4096, 4096), heap, index).unwrap();
    let t = db.create_table("t", TUPLE).unwrap();
    for first in (0..rows).step_by(4096) {
        t.insert_many(&(first..(first + 4096).min(rows)).map(row).collect::<Vec<_>>()).unwrap();
    }
    let fields = vec![FieldSpec::new(8, 8), FieldSpec::new(16, 8)];
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), fields)).unwrap();
    db.close().unwrap();
}

/// The value `key` holds: the last one `written`, else its loaded one.
pub fn value(written: &HashMap<u64, u64>, key: u64) -> u64 {
    written.get(&key).copied().unwrap_or_else(|| initial_value(key))
}

/// Runs `write_mix` request `i` through `pk`: every row a `GetMany`
/// returns must hold the value the replay last wrote, and updates and
/// puts record theirs in `written`.
pub fn run(pk: &IndexRef<'_>, i: usize, op: WriteMixOp, written: &mut HashMap<u64, u64>) {
    match op {
        WriteMixOp::Get(keys) => {
            let bytes: Vec<[u8; 8]> = keys.iter().map(|k| k.to_be_bytes()).collect();
            for (&key, r) in keys.iter().zip(pk.get_many(&bytes).unwrap()) {
                let want = encode_row(key, value(written, key));
                assert_eq!(r.unwrap(), want, "request {i}, key {key}");
            }
        }
        WriteMixOp::Update(pairs) => {
            let rows: Vec<([u8; 8], Vec<u8>)> =
                pairs.iter().map(|&(k, v)| (k.to_be_bytes(), encode_row(k, v))).collect();
            assert!(pk.update_many(&rows).unwrap().iter().all(|&applied| applied));
            written.extend(pairs);
        }
        WriteMixOp::Put(pairs) => {
            let rows: Vec<Vec<u8>> = pairs.iter().map(|&(k, v)| encode_row(k, v)).collect();
            pk.put_many(&rows).unwrap();
            written.extend(pairs);
        }
    }
}

/// Reads back every key of `keys` through `pk` and checks it holds
/// `value(key)`, then checks that a heap scan sees each of them once.
pub fn check_rows(t: &Table, keys: &[u64], value: impl Fn(u64) -> u64) {
    let pk = t.index("pk").unwrap();
    for chunk in keys.chunks(4096) {
        let bytes: Vec<[u8; 8]> = chunk.iter().map(|k| k.to_be_bytes()).collect();
        for (&key, r) in chunk.iter().zip(pk.get_many(&bytes).unwrap()) {
            assert_eq!(r.expect("present"), encode_row(key, value(key)), "key {key}");
        }
    }
    let mut seen = HashSet::new();
    let key_of = |tuple: &[u8]| u64::from_be_bytes(tuple[..8].try_into().unwrap());
    t.scan(|_, tuple| seen.insert(key_of(tuple)) || panic!("scanned {} twice", key_of(tuple)))
        .unwrap();
    assert_eq!(seen.len(), keys.len(), "the scan saw every row");
}

/// One connection's op stream, as the benchmark's generator draws it:
/// xorshift64* seeded from `(workload, seed, connection)`, Zipf ranks
/// after Gray et al., and the workload's rank → key map.
pub struct Stream {
    state: u64,
    zetan: f64,
    eta: f64,
    half_pow: f64,
    offset: u64,
    scrambled: bool,
    next_put: u64,
}

/// One `write_mix` request, in keys and values.
pub enum WriteMixOp {
    Get(Vec<u64>),
    Update(Vec<(u64, u64)>),
    Put(Vec<(u64, u64)>),
}

impl Stream {
    pub fn new(workload: &str, seed: u64, conn: u64) -> Self {
        let name = workload.bytes().fold(0, |h, b| mix(h, u64::from(b)));
        let zetan: f64 = (1..=ROWS).map(|i| 1.0 / (i as f64).powf(THETA)).sum();
        let half_pow = 0.5f64.powf(THETA);
        Stream {
            state: mix(mix(seed, mix(name, conn)), 0x5851_F42D_4C95_7F2D) | 1,
            zetan,
            eta: (1.0 - (2.0 / ROWS as f64).powf(1.0 - THETA)) / (1.0 - (1.0 + half_pow) / zetan),
            half_pow,
            offset: mix(seed, 0x00C0_FFEE) % ROWS,
            scrambled: workload != "project_hot",
            next_put: PUT_BASE * (conn + 1),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    fn key(&mut self) -> u64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let rank = if u * self.zetan < 1.0 {
            0
        } else if u * self.zetan < 1.0 + self.half_pow {
            1
        } else {
            let r = ROWS as f64 * (self.eta * u - self.eta + 1.0).powf(1.0 / (1.0 - THETA));
            (r as u64).min(ROWS - 1)
        };
        let rank = if self.scrambled { rank * STRIDE } else { rank };
        (rank + self.offset) % ROWS
    }

    /// One request's `n` distinct keys.
    pub fn distinct(&mut self, n: usize) -> Vec<u64> {
        let mut keys: Vec<u64> = Vec::with_capacity(n);
        while keys.len() < n {
            let k = self.key();
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys
    }

    /// One request's `n` distinct keys, as bytes.
    pub fn request(&mut self, n: usize) -> Vec<[u8; 8]> {
        self.distinct(n).into_iter().map(u64::to_be_bytes).collect()
    }

    /// The next `write_mix` request.
    pub fn write_mix_op(&mut self) -> WriteMixOp {
        match self.below(100) {
            0..=49 => WriteMixOp::Get(self.distinct(4)),
            50..=89 => {
                let keys = self.distinct(4);
                WriteMixOp::Update(keys.into_iter().map(|k| (k, self.next_u64())).collect())
            }
            _ => {
                let first = self.next_put;
                self.next_put += 4;
                WriteMixOp::Put((first..first + 4).map(|k| (k, self.next_u64())).collect())
            }
        }
    }
}

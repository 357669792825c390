//! The benchmark's own generator: data set, random numbers, key draws
//! and the op stream of every workload.
//!
//! Everything here is a pure function of its arguments. The data set
//! does not depend on the seed (so set-up cost and space are the same
//! for every run); the op stream is a function of
//! `(workload, seed, connection)` and nothing else. The engine sees
//! only the requests built from these ops.

use nbb_proto::{RequestOp, WireBound};

/// Rows loaded before every run, keys `0..ROWS` in key order.
pub const ROWS: u64 = 200_000;
/// Tuple width: `key | value | check | 40 B filler`.
pub const TUPLE: usize = 64;
/// Bytes of a cached projection: `value | check`.
pub const PROJECTION: usize = 16;
pub const TABLE: &str = "t";
pub const INDEX: &str = "pk";
/// Rows asked for by one `Range` request.
pub const SCAN_ROWS: u64 = 512;
/// Zipf skew of every skewed draw.
const THETA: f64 = 0.99;
/// Rank → key multiplier of the scrambled draw. Coprime with `ROWS`, so
/// the map is a bijection; far from a multiple of the rows a heap page
/// holds, so neighbouring ranks land on different pages.
const STRIDE: u64 = 123_457;
/// First key of connection 0's insert range; connection `c` inserts
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

pub fn key_bytes(key: u64) -> Vec<u8> {
    key.to_be_bytes().to_vec()
}

/// Builds the 64-byte tuple of `(key, value)`. `check` ties the value
/// to the key, so a reader can verify any row it is handed without
/// knowing which update wrote it.
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

fn word(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_be_bytes(w)
}

/// True when `tuple` is a well-formed row of `key`: right width, key
/// echoed, checksum matching the value it carries, filler intact.
pub fn row_is_valid(tuple: &[u8], key: u64) -> bool {
    tuple.len() == TUPLE && tuple == encode_row(key, word(tuple, 8)).as_slice()
}

/// The value a valid row carries.
pub fn row_value(tuple: &[u8]) -> u64 {
    word(tuple, 8)
}

/// True when `payload` is the cached projection `value | check` of `key`.
pub fn projection_is_valid(payload: &[u8], key: u64) -> bool {
    payload.len() == PROJECTION && word(payload, 8) == mix(key, word(payload, 0))
}

/// xorshift64*.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // The state must never be zero.
        Rng(mix(seed, 0x5851_F42D_4C95_7F2D) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf ranks over `0..n` (rank 0 the most likely), after Gray et al.,
/// "Quickly generating billion-record synthetic databases".
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let half_pow = 0.5f64.powf(theta);
        let zeta2 = 1.0 + half_pow;
        Zipf {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow,
        }
    }

    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + self.half_pow {
            1
        } else {
            let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(self.n - 1)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointCold,
    ProjectHot,
    ScanCold,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PointCold, Workload::ProjectHot, Workload::ScanCold, Workload::WriteMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointCold => "point_cold",
            Workload::ProjectHot => "project_hot",
            Workload::ScanCold => "scan_cold",
            Workload::WriteMix => "write_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Share of the heap and of the index the pools may hold, in percent.
    pub fn pool_percent(self) -> (u64, u64) {
        match self {
            Workload::PointCold => (10, 100),
            Workload::ProjectHot => (100, 100),
            Workload::ScanCold => (10, 10),
            Workload::WriteMix => (25, 100),
        }
    }

    /// Requests each connection keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::PointCold | Workload::ProjectHot | Workload::WriteMix => 8,
            Workload::ScanCold => 4,
        }
    }

    /// Arrival rate of the traced run's open-loop pass over all
    /// connections, requests per second. A source constant, never
    /// adapted at run time: half of the workload's median closed-loop
    /// `req_per_s` at the commit that added the benchmark (see the
    /// README), two digits.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::PointCold => 8_400.0,
            Workload::ProjectHot => 18_000.0,
            Workload::ScanCold => 600.0,
            Workload::WriteMix => 9_000.0,
        }
    }

    /// Completions of the open-loop pass later than this after they
    /// were due are reported as late, microseconds.
    pub fn open_limit_us(self) -> f64 {
        match self {
            Workload::ScanCold => 20_000.0,
            _ => 2_000.0,
        }
    }
}

/// Requests a connection of the open-loop pass may have outstanding
/// before its sender blocks.
pub const OPEN_DEPTH: usize = 64;

/// One generated operation, in keys and values rather than bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    GetMany(Vec<u64>),
    ProjectMany(Vec<u64>),
    Range { start: u64 },
    UpdateMany(Vec<(u64, u64)>),
    PutMany(Vec<(u64, u64)>),
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::UpdateMany(_) | Op::PutMany(_))
    }

    /// The wire request of this op.
    pub fn request(&self) -> RequestOp {
        let (table, index) = (TABLE.to_string(), INDEX.to_string());
        match self {
            Op::GetMany(keys) => RequestOp::GetMany {
                table,
                index,
                keys: keys.iter().map(|&k| key_bytes(k)).collect(),
            },
            Op::ProjectMany(keys) => RequestOp::ProjectMany {
                table,
                index,
                keys: keys.iter().map(|&k| key_bytes(k)).collect(),
            },
            Op::Range { start } => RequestOp::Range {
                table,
                index,
                lo: WireBound::Included(key_bytes(*start)),
                hi: WireBound::Unbounded,
                limit: SCAN_ROWS as u32,
            },
            Op::UpdateMany(pairs) => RequestOp::UpdateMany {
                table,
                index,
                pairs: pairs.iter().map(|&(k, v)| (key_bytes(k), encode_row(k, v))).collect(),
            },
            Op::PutMany(pairs) => RequestOp::PutMany {
                table,
                index,
                tuples: pairs.iter().map(|&(k, v)| encode_row(k, v)).collect(),
            },
        }
    }
}

/// The op stream of one connection.
pub struct OpStream {
    workload: Workload,
    rng: Rng,
    zipf: Zipf,
    /// Rotation of the rank → key map, so that another seed makes other
    /// rows (and pages) hot.
    offset: u64,
    next_put: u64,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, conn: u64) -> Self {
        OpStream {
            workload,
            // The name, not the variant's position, so that adding or
            // reordering workloads leaves every other stream alone.
            rng: Rng::new(mix(
                seed,
                mix(workload.name().bytes().fold(0, |h, b| mix(h, b as u64)), conn),
            )),
            zipf: Zipf::new(ROWS, THETA),
            offset: mix(seed, 0x00C0_FFEE) % ROWS,
            next_put: PUT_BASE * (conn + 1),
        }
    }

    /// Zipf over the loaded keys with hot ranks scattered over the key
    /// space (and so over heap pages and leaves).
    fn scrambled(&mut self) -> u64 {
        (self.zipf.rank(&mut self.rng) * STRIDE + self.offset) % ROWS
    }

    /// Zipf over the loaded keys with hot ranks adjacent.
    fn clustered(&mut self) -> u64 {
        (self.zipf.rank(&mut self.rng) + self.offset) % ROWS
    }

    /// `n` distinct keys: the engine rejects a write batch that names a
    /// key twice, and reads follow the same rule so both see one draw.
    fn distinct(&mut self, n: usize, draw: fn(&mut Self) -> u64) -> Vec<u64> {
        let mut keys = Vec::with_capacity(n);
        while keys.len() < n {
            let k = draw(self);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys
    }

    /// Nanoseconds until the next arrival of an open loop sending
    /// `rate` requests per second on this connection (exponential gaps:
    /// independent arrivals).
    pub fn next_gap_ns(&mut self, rate: f64) -> u64 {
        let u = self.rng.next_f64();
        (-(1.0 - u).ln() / rate * 1e9) as u64
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::PointCold => Op::GetMany(self.distinct(4, Self::scrambled)),
            Workload::ProjectHot => Op::ProjectMany(self.distinct(16, Self::clustered)),
            Workload::ScanCold => Op::Range { start: self.rng.below(ROWS - SCAN_ROWS + 1) },
            Workload::WriteMix => match self.rng.below(100) {
                0..=49 => Op::GetMany(self.distinct(4, Self::scrambled)),
                50..=89 => {
                    let keys = self.distinct(4, Self::scrambled);
                    Op::UpdateMany(keys.into_iter().map(|k| (k, self.rng.next_u64())).collect())
                }
                _ => {
                    let first = self.next_put;
                    self.next_put += 4;
                    Op::PutMany((first..first + 4).map(|k| (k, self.rng.next_u64())).collect())
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash of the first `n` ops (and, for the open-loop pass, arrival
    /// gaps) of one connection's stream.
    fn fingerprint_of(workload: Workload, seed: u64, conn: u64, n: usize, open: bool) -> u64 {
        let mut s = OpStream::new(workload, seed, conn);
        let mut h = 0u64;
        for _ in 0..n {
            if open {
                h = mix(h, s.next_gap_ns(workload.open_rate()));
            }
            match s.next_op() {
                Op::GetMany(keys) => keys.iter().for_each(|&k| h = mix(h, mix(1, k))),
                Op::ProjectMany(keys) => keys.iter().for_each(|&k| h = mix(h, mix(2, k))),
                Op::Range { start } => h = mix(h, mix(3, start)),
                Op::UpdateMany(pairs) => {
                    pairs.iter().for_each(|&(k, v)| h = mix(h, mix(4, mix(k, v))))
                }
                Op::PutMany(pairs) => {
                    pairs.iter().for_each(|&(k, v)| h = mix(h, mix(5, mix(k, v))))
                }
            }
        }
        h
    }

    fn fingerprint(workload: Workload, seed: u64, conn: u64, n: usize) -> u64 {
        fingerprint_of(workload, seed, conn, n, false)
    }

    #[test]
    fn rows_verify_and_reject_damage() {
        let row = encode_row(7, 99);
        assert_eq!(row.len(), TUPLE);
        assert!(row_is_valid(&row, 7));
        assert!(!row_is_valid(&row, 8));
        assert_eq!(row_value(&row), 99);
        for at in [0, 8, 16, 24, 63] {
            let mut bad = row.clone();
            bad[at] ^= 1;
            assert!(!row_is_valid(&bad, 7), "flip at {at} must be caught");
        }
        assert!(projection_is_valid(&row[8..24], 7));
        assert!(!projection_is_valid(&row[8..24], 6));
    }

    #[test]
    fn scramble_is_a_bijection() {
        let mut seen = vec![false; ROWS as usize];
        for rank in 0..ROWS {
            let k = (rank * STRIDE) % ROWS;
            assert!(!seen[k as usize]);
            seen[k as usize] = true;
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(ROWS, THETA);
        let mut rng = Rng::new(1);
        let mut top = 0;
        for _ in 0..100_000 {
            let r = z.rank(&mut rng);
            assert!(r < ROWS);
            if r < 100 {
                top += 1;
            }
        }
        // The 100 hottest of 200,000 ranks draw about 40 % at theta 0.99.
        assert!((35_000..50_000).contains(&top), "top-100 share {top}");
    }

    #[test]
    fn batches_hold_distinct_keys() {
        for w in Workload::ALL {
            let mut s = OpStream::new(w, 3, 0);
            for _ in 0..2_000 {
                let keys: Vec<u64> = match s.next_op() {
                    Op::GetMany(k) | Op::ProjectMany(k) => k,
                    Op::UpdateMany(p) | Op::PutMany(p) => p.into_iter().map(|(k, _)| k).collect(),
                    Op::Range { start } => {
                        assert!(start + SCAN_ROWS <= ROWS);
                        continue;
                    }
                };
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), keys.len());
            }
        }
    }

    #[test]
    fn connections_insert_disjoint_keys_past_the_loaded_ones() {
        let puts = |conn| {
            let mut s = OpStream::new(Workload::WriteMix, 1, conn);
            let mut keys = Vec::new();
            while keys.len() < 400 {
                if let Op::PutMany(p) = s.next_op() {
                    keys.extend(p.into_iter().map(|(k, _)| k));
                }
            }
            keys
        };
        let (a, b) = (puts(0), puts(1));
        assert!(a.iter().all(|&k| k >= ROWS && !b.contains(&k)));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    /// The op stream is part of the benchmark's definition: a change to
    /// it changes every number. These pins make such a change loud. (The
    /// Zipf draw goes through the C library's `pow`; the pins hold for
    /// the library this repo's image ships.)
    #[test]
    fn op_streams_are_pinned_for_seed_1() {
        let got: Vec<(&str, u64)> =
            Workload::ALL.iter().map(|&w| (w.name(), fingerprint(w, 1, 0, 1_000))).collect();
        let want: [(&str, u64); 4] = [
            ("point_cold", 4_773_193_934_407_457_964),
            ("project_hot", 10_456_548_221_648_432_094),
            ("scan_cold", 16_453_165_832_758_870_033),
            ("write_mix", 11_519_205_575_365_165_283),
        ];
        assert_eq!(got, want);
        // The open-loop pass of the traced run draws its arrival gaps
        // from the same stream, on connections of its own.
        assert_eq!(fingerprint_of(Workload::PointCold, 1, 3, 1_000, true), 677_046_327_104_028_960);
    }

    #[test]
    fn seed_and_connection_change_the_stream() {
        for w in Workload::ALL {
            let base = fingerprint(w, 1, 0, 1_000);
            assert_eq!(base, fingerprint(w, 1, 0, 1_000), "{}: same inputs, same stream", w.name());
            assert_ne!(base, fingerprint(w, 2, 0, 1_000), "{}: seed 2 must differ", w.name());
            assert_ne!(base, fingerprint(w, 1, 1, 1_000), "{}: connection 1 must differ", w.name());
        }
    }
}

//! The metric tables (the source of truth `BENCHMARK.json` is checked
//! against), result output, a small JSON reader, and `--compare`.

use crate::gen::Workload;
use crate::measure::median_f64;
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One row of a metric table.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by
    /// which the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

/// What a user of the served table sees, per workload, tracing off.
pub const END_TO_END: [Metric; 8] = [
    e2e("req_per_s", "1/s", Better::Higher, 0.25),
    e2e("lat_p50_us", "us", Better::Lower, 0.25),
    e2e("lat_p99_us", "us", Better::Lower, 0.25),
    e2e("read_amp", "B/B", Better::Lower, 0.03),
    e2e("write_amp", "B/B", Better::Lower, 0.03),
    e2e("space_amp", "B/B", Better::Lower, 0.03),
    e2e("rss_peak_mb", "MB", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher, bound: None }
}

/// One layer each, from the traced run. No bounds: these explain a
/// movement of an end-to-end metric, they do not gate.
pub const PER_LAYER: [Metric; 60] = [
    // nbb-client / nbb-server / TCP
    lo("wire.overhead_us", "us"),
    lo("client.submit_us_p50", "us"),
    lo("server.bytes_in_per_req", "B"),
    lo("server.bytes_out_per_req", "B"),
    lo("server.queue_full_parks_per_kreq", "count"),
    lo("server.decode_errors", "count"),
    // nbb-proto
    lo("proto.encode_req_ns", "ns"),
    lo("proto.decode_req_ns", "ns"),
    lo("proto.encode_resp_ns", "ns"),
    lo("proto.decode_resp_ns", "ns"),
    lo("proto.framer_ns", "ns"),
    // nbb-core
    lo("core.call_us_p50", "us"),
    lo("core.call_us_p99", "us"),
    lo("core.cpu_us", "us"),
    hi("core.index_only_ratio", "ratio"),
    hi("core.tuples_per_write_batch", "count"),
    // nbb-btree
    lo("btree.get_many_ns_per_key", "ns"),
    lo("btree.lookup_cached_ns_per_key", "ns"),
    lo("btree.pages_per_lookup", "count"),
    lo("btree.height", "count"),
    hi("btree.cache_hit_ratio", "ratio"),
    lo("btree.cache_evictions_per_kreq", "count"),
    lo("btree.cache_latch_giveups_per_kreq", "count"),
    hi("btree.leaf_fill", "ratio"),
    hi("btree.keys_per_leaf_group", "count"),
    lo("btree.escalations_per_kreq", "count"),
    lo("btree.intent_parks_per_kreq", "count"),
    // nbb-storage heap
    lo("heap.get_many_ns_per_row", "ns"),
    hi("heap.fill_factor", "ratio"),
    // nbb-storage pool
    hi("pool.heap_hit_ratio", "ratio"),
    hi("pool.index_hit_ratio", "ratio"),
    lo("pool.hit_ns", "ns"),
    lo("pool.fault_overhead_us", "us"),
    lo("pool.evictions_per_req", "count"),
    hi("pool.fault_joins_per_kreq", "count"),
    hi("pool.pages_per_read_batch", "count"),
    hi("pool.prefetch_hit_ratio", "ratio"),
    hi("pool.compressed_hit_ratio", "ratio"),
    hi("pool.wb_flushed_per_kreq", "count"),
    lo("pool.wb_sync_fallbacks_per_kreq", "count"),
    // device (BenchDisk)
    lo("device.heap_read_calls_per_req", "count"),
    lo("device.index_read_calls_per_req", "count"),
    hi("device.pages_per_read_call", "count"),
    lo("device.write_calls_per_req", "count"),
    hi("device.pages_per_write_call", "count"),
    lo("device.read_wait_us_per_req", "us"),
    lo("device.busy_frac", "ratio"),
    hi("device.inflight_max", "count"),
    // process and harness
    lo("proc.cpu_ms_per_kreq", "ms"),
    lo("proc.ctx_switches_per_req", "count"),
    lo("proc.threads_max", "count"),
    lo("proc.rss_serving_mb", "MB"),
    hi("harness.samples", "count"),
    lo("harness.trace_overhead_pct", "%"),
    lo("harness.spans_dropped", "count"),
    // the open-loop pass
    hi("open.req_per_s", "1/s"),
    lo("open.lat_p50_us", "us"),
    lo("open.lat_p99_us", "us"),
    lo("open.gen_lag_p99_us", "us"),
    lo("open.late_per_kreq", "count"),
];

/// The outcome of one run: what the last line of standard output says.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// One value per row of the table, in table order.
    pub metrics: Vec<(&'static Metric, f64)>,
}

impl RunResult {
    /// Orders `values` by `table` and insists that every metric of the
    /// table was measured, and nothing else.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        table: &'static [Metric],
        values: &[(&'static str, f64)],
    ) -> Res<RunResult> {
        if let Some((stray, _)) = values.iter().find(|(n, _)| !table.iter().any(|m| m.name == *n)) {
            return Err(format!("metric {stray} is not in the table").into());
        }
        let mut metrics = Vec::with_capacity(table.len());
        for m in table {
            let mut found = values.iter().filter(|(n, _)| *n == m.name);
            match (found.next(), found.next()) {
                (Some(&(_, v)), None) if v.is_finite() => metrics.push((m, v)),
                (Some(&(_, v)), None) => return Err(format!("metric {} is {v}", m.name).into()),
                (None, _) => return Err(format!("metric {} was not measured", m.name).into()),
                (Some(_), Some(_)) => {
                    return Err(format!("metric {} was measured twice", m.name).into())
                }
            }
        }
        Ok(RunResult { correct, attempted: attempted.max(1), failed, metrics })
    }

    /// Every metric by name with its value, unit, direction and bound.
    pub fn print(&self) {
        for (m, value) in &self.metrics {
            let bound = m.bound.map_or(String::new(), |b| format!(", bound {b}"));
            println!(
                "{:<36} {value:>16.4} {:<6} ({} is better{bound})",
                m.name,
                m.unit,
                m.better.word()
            );
        }
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

// ---- JSON reading ----------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn parse(text: &str) -> Res<Json> {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let v = p.value()?;
        p.space();
        if p.at != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Box<dyn std::error::Error + Send + Sync> {
        format!("JSON: {what} at byte {}", self.at).into()
    }

    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, word: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(word.as_bytes());
        if hit {
            self.at += word.len();
        }
        hit
    }

    fn value(&mut self) -> Res<Json> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                loop {
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !fields.is_empty() && !self.eat(",") {
                        return Err(self.error("expected , or }"));
                    }
                    self.space();
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(self.error("expected :"));
                    }
                    fields.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(self.error("expected , or ]"));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self.bytes.get(self.at).is_some_and(|b| b"+-.eE0123456789".contains(b)) {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.error("expected a value"))
            }
            None => Err(self.error("unexpected end")),
        }
    }

    /// A string without escapes other than `\"` and `\\`: all this
    /// benchmark writes, and all `BENCHMARK.json` uses.
    fn string(&mut self) -> Res<String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') if matches!(self.bytes.get(self.at + 1), Some(b'"' | b'\\')) => {
                    out.push(self.bytes[self.at + 1]);
                    self.at += 2;
                }
                Some(b'\\') => return Err(self.error("unsupported escape")),
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }
}

// ---- --compare -------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile as a share of the
/// median, the way Python's `statistics.quantiles(values, n=4)` places
/// the quartiles; the whole range when there are too few values for
/// quartiles.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let median = median_f64(&mut v);
    if median == 0.0 || v.len() < 2 {
        return 0.0;
    }
    let at = |q: f64| {
        // The "exclusive" method: position q * (n + 1), 1-based, linear
        // interpolation, clamped to the ends.
        let pos = (q * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        v[lo - 1] + frac * (v[lo.min(v.len() - 1)] - v[lo - 1])
    };
    ((at(0.75) - at(0.25)) / median).abs()
}

/// Applies `m`'s bound to a baseline and a candidate set of runs.
pub fn judge(m: &Metric, base: &[f64], cand: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    if spread(base).max(spread(cand)) > bound {
        return Verdict::Unresolved;
    }
    let (b, c) = (median_f64(&mut base.to_vec()), median_f64(&mut cand.to_vec()));
    let worsening = match m.better {
        Better::Lower => c - b,
        Better::Higher => b - c,
    };
    let allowed = bound * b.abs();
    if worsening > allowed {
        Verdict::Worse
    } else if -worsening > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Values of one end-to-end metric on one workload in a results
/// document written by the all-workloads mode.
fn values_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::str) == Some(workload)
                && r.get("trace").and_then(Json::num) == Some(0.0)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.num())
        .collect()
}

fn load(path: &str) -> Res<Json> {
    let doc = Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)?;
    if doc.get("smoke") != Some(&Json::Bool(false)) {
        return Err(format!("{path}: smoke runs are too short to compare").into());
    }
    Ok(doc)
}

/// Prints one row per workload and returns true when no pair of
/// (end-to-end metric, workload) is worse or unresolved.
pub fn compare(base_path: &str, cand_path: &str) -> Res<bool> {
    let (base, cand) = (load(base_path)?, load(cand_path)?);
    let mut clean = true;
    let mut notes = Vec::new();
    print!("{:<12}", "workload");
    END_TO_END.iter().for_each(|m| print!(" {:>11}", m.name));
    println!();
    for w in Workload::ALL {
        print!("{:<12}", w.name());
        for m in &END_TO_END {
            let (b, c) = (values_of(&base, w.name(), m.name), values_of(&cand, w.name(), m.name));
            if b.is_empty() || c.is_empty() {
                return Err(format!("no untraced run of {} reports {}", w.name(), m.name).into());
            }
            let verdict = judge(m, &b, &c);
            print!(" {:>11}", verdict.word());
            if verdict != Verdict::Same {
                clean &= verdict == Verdict::Better;
                notes.push(format!(
                    "{} {}: {} (median {} -> {} {}, spread {:.3} / {:.3}, bound {})",
                    w.name(),
                    m.name,
                    verdict.word(),
                    median_f64(&mut b.clone()),
                    median_f64(&mut c.clone()),
                    m.unit,
                    spread(&b),
                    spread(&c),
                    m.bound.unwrap_or(0.0)
                ));
            }
        }
        println!();
    }
    notes.iter().for_each(|n| println!("{n}"));
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_a_result_line() {
        static TABLE: [Metric; 2] = [lo("a_us", "us"), hi("b", "1/s")];
        let table = &TABLE;
        let r = RunResult::new(true, 10, 0, table, &[("b", 2.5), ("a_us", 1203.4)]).unwrap();
        let doc = Json::parse(&r.json()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::num), Some(10.0));
        let a = doc.get("metrics").and_then(|m| m.get("a_us")).unwrap();
        assert_eq!(a.get("value").and_then(Json::num), Some(1203.4));
        assert_eq!(a.get("unit").and_then(Json::str), Some("us"));
        assert!(RunResult::new(true, 1, 0, table, &[("a_us", 1.0)]).is_err(), "b is missing");
        assert!(RunResult::new(true, 1, 0, table, &[("a_us", 1.0), ("b", f64::NAN)]).is_err());
        assert!(
            RunResult::new(true, 1, 0, table, &[("a_us", 1.0), ("b", 1.0), ("c", 1.0)]).is_err()
        );
        assert!(Json::parse("{\"a\": [1, 2,, 3]}").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn spread_matches_python_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert!((spread(&[160.0, 10.0, 40.0, 20.0, 80.0]) - (120.0 - 15.0) / 40.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let lower = e2e("lat", "us", Better::Lower, 0.10);
        let higher = e2e("rate", "1/s", Better::Higher, 0.10);
        let flat = |x: f64| vec![x, x * 1.01, x * 0.99, x, x];
        assert_eq!(judge(&lower, &flat(100.0), &flat(105.0)), Verdict::Same);
        assert_eq!(judge(&lower, &flat(100.0), &flat(120.0)), Verdict::Worse);
        assert_eq!(judge(&lower, &flat(100.0), &flat(80.0)), Verdict::Better);
        assert_eq!(judge(&higher, &flat(100.0), &flat(80.0)), Verdict::Worse);
        assert_eq!(judge(&higher, &flat(100.0), &flat(120.0)), Verdict::Better);
        let noisy = vec![60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&lower, &noisy, &flat(300.0)), Verdict::Unresolved);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| m.get("name").unwrap().str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        for (m, j) in END_TO_END.iter().zip(doc.get("end_to_end").unwrap().items()) {
            assert_eq!(j.get("unit").unwrap().str(), Some(m.unit), "{}", m.name);
            assert_eq!(j.get("better").unwrap().str(), Some(m.better.word()), "{}", m.name);
            assert_eq!(j.get("bound").unwrap().num(), m.bound, "{}", m.name);
        }
        for (m, j) in PER_LAYER.iter().zip(doc.get("per_layer").unwrap().items()) {
            assert_eq!(j.get("unit").unwrap().str(), Some(m.unit), "{}", m.name);
            assert_eq!(j.get("better").unwrap().str(), Some(m.better.word()), "{}", m.name);
        }
        assert_eq!(doc.get("paths").unwrap().items(), [Json::Str("benchmark".into())]);
    }
}

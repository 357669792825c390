//! The repo's benchmark: four wire workloads against an in-process
//! `nbb-server` over loopback TCP, every response verified, end-to-end
//! metrics with tracing off and per-layer metrics from a traced run.
//! `README.md` beside this crate says why each workload and metric was
//! chosen and which layer should move which number.
//!
//! ```text
//! nbb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of standard output is the result as JSON
//! nbb-benchmark --seed <n> [--runs <k>] [--seconds <s> | --smoke]
//!     every workload, untraced and traced, each in a child process;
//!     writes out/results-seed<n>.json (marked as smoke when the
//!     windows are shorter than the 25 s the bounds were set for)
//! nbb-benchmark --compare <a.json> <b.json>
//!     applies the bounds to two such files, one row per workload
//! ```
//!
//! # The engine calls this benchmark may make
//!
//! Later PRs simplify the engine's surface. So that they never have to
//! edit the benchmark, it calls only what is listed here, builds
//! configurations only with `..Default::default()`, and sets no
//! feature knob (no `tuner_*`, `readahead`, `compressed_budget_bytes`,
//! `write_behind`, `pool_shards`, ...): a feature enters the numbers
//! when its default turns it on.
//!
//! * `nbb-core`: `DbConfig { page_size, heap_frames, index_frames, .. }`,
//!   `Database::{with_disks, reopen, persist, create_table, table,
//!   heap_pool, index_pool, pool_stats}`, `Table::{insert_many,
//!   create_index, index, heap, stats}`, `IndexSpec::cached`,
//!   `FieldSpec::new`, `IndexRef::{get_many, project_many, update_many,
//!   put_many, range, tree}`;
//! * `nbb-btree` (through `IndexRef::tree`): `BTree::{get_many,
//!   lookup_cached_many, height, index_stats, cache_stats, write_stats}`;
//! * `nbb-storage`: the `DiskManager` trait (implemented by
//!   `BenchDisk`), `InMemoryDisk::new`, `Page`, `PageId`, `RecordId`,
//!   `HeapFile::{get_many, avg_fill_factor}`, `BufferPool::{with_page,
//!   fault_many, evict_page, capacity, stats}` reached only through
//!   `Database::{heap_pool, index_pool}`;
//! * `nbb-server`: `ServerConfig::default`, `Server::{start,
//!   local_addr, stats, shutdown}`;
//! * `nbb-client`: `ClientConfig { depth, .. }`, `Client::{connect,
//!   submit, redeem, call}`, `Ticket::id`;
//! * `nbb-proto`: `Request`, `RequestOp`, `Response`, `ResponseBody`,
//!   `WireBound`, `WireProjection`, `WireServerStats`,
//!   `encode_request`, `decode_request`, `encode_response`,
//!   `decode_response`, `Framer`, `HEADER_LEN`.
//!
//! Not used, on purpose: `Table::*_via_index`, any `BufferPool`
//! constructor, `LatencyDisk`/`SimulatedDisk`, `nbb-workload`,
//! `nbb-bench`, the `rand` shim.

mod disk;
mod gen;
mod load;
mod measure;
mod probes;
mod report;
mod run;
mod setup;
mod trace;

use gen::Workload;
use report::Json;
use std::process::ExitCode;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Seconds of one window unless `--seconds` or `--smoke` says otherwise;
/// the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 25;
const SMOKE_SECONDS: u64 = 2;

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    runs: u64,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut out = Args { seed: 1, runs: 1, ..Args::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => out.seed = value()?.parse()?,
            "--seconds" => out.seconds = Some(value()?.parse()?),
            "--trace" => out.trace = value()?.parse::<u8>()? != 0,
            "--runs" => out.runs = value()?.parse()?,
            "--smoke" => out.smoke = true,
            "--compare" => out.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if out.seconds == Some(0) || out.runs == 0 {
        return Err("--seconds and --runs must be at least 1".into());
    }
    Ok(out)
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs every workload, untraced then traced, each in a child process
/// of its own so that no run inherits another's heap or page cache,
/// and gathers the children's result lines into one document.
fn run_all(args: &Args, seconds: u64) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for seed in args.seed..args.seed + args.runs {
        for workload in Workload::ALL {
            for trace in [0, 1] {
                let child = std::process::Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stderr(std::process::Stdio::inherit())
                    .output()?;
                let text = String::from_utf8_lossy(&child.stdout);
                print!("{text}");
                let line = text.lines().last().unwrap_or_default();
                let result = Json::parse(line)
                    .map_err(|e| format!("{} seed {seed} trace {trace}: {e}", workload.name()))?;
                all_correct &=
                    child.status.success() && result.get("correct") == Some(&Json::Bool(true));
                runs.push(format!(
                    "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, {}",
                    workload.name(),
                    line.trim_start_matches('{')
                ));
            }
        }
    }
    let doc = format!(
        "{{\"benchmark\": \"nbb-benchmark\", \"smoke\": {}, \"seconds\": {seconds}, \"runs\": [{}]}}",
        seconds < DEFAULT_SECONDS,
        runs.join(", ")
    );
    let path = out_dir().join(format!("results-seed{}.json", args.seed));
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(&path, &doc)?;
    println!("# wrote {}", path.display());
    println!("{doc}");
    Ok(all_correct)
}

fn real_main() -> Res<bool> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((base, cand)) = &args.compare {
        return report::compare(base, cand);
    }
    let seconds = args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    match args.workload {
        None => run_all(&args, seconds),
        Some(workload) => {
            let result = run::run(workload, args.seed, seconds, args.trace)?;
            println!("{}", result.json());
            Ok(result.correct)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nbb-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

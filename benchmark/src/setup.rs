//! Set-up: load the data set, build the index, persist, reopen with the
//! workload's pool sizes, start the server.

use crate::disk::{BenchDisk, Device};
use crate::gen::{self, Workload};
use crate::trace::SpanLog;
use crate::Res;
use nbb_core::db::{Database, DbConfig};
use nbb_core::table::{FieldSpec, IndexSpec, Table};
use nbb_server::{Server, ServerConfig};
use nbb_storage::DiskManager;
use std::sync::Arc;
use std::time::Instant;

pub const PAGE_SIZE: usize = 4096;
/// Pool sizes while loading: larger than the loaded heap and index, so
/// the load itself never evicts.
const LOAD_FRAMES: usize = 4096;
/// Rows per `insert_many` while loading.
const LOAD_BATCH: u64 = 4096;
/// Spans the log can hold; a traced window on the fastest workload
/// makes a few hundred thousand.
const LOG_SPANS: usize = 1 << 19;

/// Everything a run drives or reads counters from.
pub struct Env {
    pub workload: Workload,
    pub db: Arc<Database>,
    pub server: Server,
    pub heap_disk: Arc<BenchDisk>,
    pub index_disk: Arc<BenchDisk>,
    pub device: Arc<Device>,
    pub log: Arc<SpanLog>,
    pub setup_s: f64,
}

/// The only non-default settings of the engine: the workload's
/// dimensions. No feature knob is set, so a feature enters the numbers
/// when its default turns it on.
fn config(heap_frames: usize, index_frames: usize) -> DbConfig {
    DbConfig { page_size: PAGE_SIZE, heap_frames, index_frames, ..DbConfig::default() }
}

/// `percent` of `pages`, at least the 16 frames one pool shard needs.
fn frames(pages: u64, percent: u64) -> usize {
    ((pages * percent).div_ceil(100) as usize).max(16)
}

impl Env {
    pub fn table(&self) -> Res<Arc<Table>> {
        Ok(self.db.table(gen::TABLE)?)
    }

    /// Reopens the database over the same disks with the workload's
    /// pool sizes, as after a restart. The caller has persisted and
    /// dropped every other handle to the old database.
    pub fn reopen(
        workload: Workload,
        heap: &Arc<BenchDisk>,
        index: &Arc<BenchDisk>,
    ) -> Res<Database> {
        let (heap_pct, index_pct) = workload.pool_percent();
        Ok(Database::reopen(
            config(frames(heap.num_pages(), heap_pct), frames(index.num_pages(), index_pct)),
            Arc::clone(heap) as Arc<dyn DiskManager>,
            Arc::clone(index) as Arc<dyn DiskManager>,
        )?)
    }
}

pub fn setup(workload: Workload) -> Res<Env> {
    let started = Instant::now();
    let log = Arc::new(SpanLog::new(LOG_SPANS));
    let device = Device::new(Arc::clone(&log));
    let heap_disk = BenchDisk::new(PAGE_SIZE, Arc::clone(&device));
    let index_disk = BenchDisk::new(PAGE_SIZE, Arc::clone(&device));
    {
        let db = Database::with_disks(
            config(LOAD_FRAMES, LOAD_FRAMES),
            Arc::clone(&heap_disk) as Arc<dyn DiskManager>,
            Arc::clone(&index_disk) as Arc<dyn DiskManager>,
        )?;
        let table = db.create_table(gen::TABLE, gen::TUPLE)?;
        for first in (0..gen::ROWS).step_by(LOAD_BATCH as usize) {
            let rows: Vec<Vec<u8>> = (first..(first + LOAD_BATCH).min(gen::ROWS))
                .map(|k| gen::encode_row(k, gen::initial_value(k)))
                .collect();
            table.insert_many(&rows)?;
        }
        table.create_index(IndexSpec::cached(
            gen::INDEX,
            FieldSpec::new(0, 8),
            vec![FieldSpec::new(8, 8), FieldSpec::new(16, 8)],
        ))?;
        db.persist()?;
    }
    let db = Arc::new(Env::reopen(workload, &heap_disk, &index_disk)?);
    let server = Server::start(Arc::clone(&db), ServerConfig::default())?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Env { workload, db, server, heap_disk, index_disk, device, log, setup_s })
}

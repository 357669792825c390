//! Whole-database restart: persist the catalog, drop all in-memory
//! state, reopen from the same disks, and verify tables, indexes, and
//! cache-consistency semantics all survive.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec};
use nbb::storage::{DiskManager, FileDisk, InMemoryDisk};
use std::sync::Arc;

fn k(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

fn tuple(id: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&k(id));
    t.extend_from_slice(&value.to_le_bytes());
    t.extend_from_slice(&[0xAB; 8]);
    t
}

fn cfg() -> DbConfig {
    DbConfig { page_size: 4096, heap_frames: 64, index_frames: 64, ..DbConfig::default() }
}

fn restart_cycle(heap_disk: Arc<dyn DiskManager>, index_disk: Arc<dyn DiskManager>) {
    {
        let db =
            Database::with_disks(cfg(), Arc::clone(&heap_disk), Arc::clone(&index_disk)).unwrap();
        let a = db.create_table("alpha", 24).unwrap();
        a.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
            .unwrap();
        let b = db.create_table("beta", 24).unwrap();
        b.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
        for i in 0..1_500u64 {
            a.insert(&tuple(i, i * 2)).unwrap();
            b.insert(&tuple(i, i * 3)).unwrap();
        }
        // Warm alpha's index cache so stale bytes exist on disk.
        for i in 0..1_500u64 {
            a.index("pk").unwrap().project(&k(i)).unwrap();
        }
        db.persist().unwrap();
    } // everything in memory dropped

    let db = Database::reopen(cfg(), heap_disk, index_disk).unwrap();
    assert_eq!(db.table_names(), vec!["alpha", "beta"]);
    let a = db.table("alpha").unwrap();
    let b = db.table("beta").unwrap();
    for i in (0..1_500u64).step_by(73) {
        assert_eq!(a.index("pk").unwrap().get(&k(i)).unwrap().unwrap(), tuple(i, i * 2));
        assert_eq!(b.index("pk").unwrap().get(&k(i)).unwrap().unwrap(), tuple(i, i * 3));
    }
    // The reopened cached index still works (reloaded leaves are
    // untrusted, then warm).
    let p1 = a.index("pk").unwrap().project(&k(7)).unwrap().unwrap();
    assert!(!p1.index_only, "restart must start cold");
    assert_eq!(p1.payload, 14u64.to_le_bytes());
    let p2 = a.index("pk").unwrap().project(&k(7)).unwrap().unwrap();
    assert!(p2.index_only, "cache must repopulate after restart");
    // Structural invariants survived the round trip.
    a.index_tree("pk").unwrap().tree().check_invariants().unwrap().unwrap();
    b.index_tree("pk").unwrap().tree().check_invariants().unwrap().unwrap();
    // And the reopened database accepts new work.
    a.insert(&tuple(9_999, 1)).unwrap();
    assert!(a.index("pk").unwrap().get(&k(9_999)).unwrap().is_some());
}

#[test]
fn restart_in_memory() {
    restart_cycle(Arc::new(InMemoryDisk::new(4096)), Arc::new(InMemoryDisk::new(4096)));
}

#[test]
fn restart_from_real_files() {
    let dir = std::env::temp_dir().join(format!("nbb_db_restart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let hp = dir.join("heap.db");
    let ip = dir.join("index.db");
    restart_cycle(
        Arc::new(FileDisk::create(&hp, 4096).unwrap()),
        Arc::new(FileDisk::create(&ip, 4096).unwrap()),
    );
    std::fs::remove_file(&hp).ok();
    std::fs::remove_file(&ip).ok();
}

#[test]
fn repersist_after_more_work() {
    // persist -> reopen -> mutate -> persist -> reopen: both catalogs valid.
    let heap_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    {
        let db =
            Database::with_disks(cfg(), Arc::clone(&heap_disk), Arc::clone(&index_disk)).unwrap();
        let t = db.create_table("t", 24).unwrap();
        t.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
        for i in 0..500u64 {
            t.insert(&tuple(i, i)).unwrap();
        }
        db.persist().unwrap();
    }
    {
        let db = Database::reopen(cfg(), Arc::clone(&heap_disk), Arc::clone(&index_disk)).unwrap();
        let t = db.table("t").unwrap();
        for i in 500..900u64 {
            t.insert(&tuple(i, i)).unwrap();
        }
        assert!(t.index("pk").unwrap().delete(&k(3)).unwrap());
        db.persist().unwrap();
    }
    let db = Database::reopen(cfg(), heap_disk, index_disk).unwrap();
    let t = db.table("t").unwrap();
    assert!(t.index("pk").unwrap().get(&k(3)).unwrap().is_none());
    for i in (0..900u64).step_by(111) {
        if i != 3 {
            assert_eq!(t.index("pk").unwrap().get(&k(i)).unwrap().unwrap(), tuple(i, i), "key {i}");
        }
    }
}

#[test]
fn reopen_without_catalog_fails_cleanly() {
    let heap_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    heap_disk.allocate().unwrap(); // a page, but no catalog header
    assert!(Database::reopen(cfg(), heap_disk, index_disk).is_err());
}

#[test]
fn with_disks_refuses_populated_disks() {
    let heap_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    heap_disk.allocate().unwrap();
    assert!(Database::with_disks(cfg(), heap_disk, index_disk).is_err());
}

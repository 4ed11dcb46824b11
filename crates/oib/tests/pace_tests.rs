//! The builder gives way only where it holds nothing, the scan latches
//! a page only to copy it, and the scan bound is fixed after the
//! descriptor is visible. Every interleaving here is placed with a
//! failpoint hook on the builder's own thread; nothing sleeps or
//! retries.

use mohan_common::{EngineConfig, IndexEntry, KeyValue, PageId, Rid, TableId};
use mohan_oib::build::{build_index, build_indexes_with, resume_build, BuildOptions, IndexSpec};
use mohan_oib::runtime::IndexState;
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::{Db, Session};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const T: TableId = TableId(1);

fn db_with(cfg: EngineConfig) -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..cfg
    });
    db.create_table(T);
    db
}

fn rec(k: i64, v: i64) -> Record {
    Record::new(vec![k, v])
}

fn spec(name: &str) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    }
}

fn seed(db: &Arc<Db>, n: i64) -> Vec<Rid> {
    let tx = db.begin();
    let rids = (0..n)
        .map(|k| db.insert_record(tx, T, &rec(k, 0)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    rids
}

/// Insert fresh keys from `first_key` on, one statement each, until a
/// row lands on a page that did not exist when the call began. Returns
/// the keys inserted, the last of which is the one on the fresh page.
fn insert_until_fresh_page(db: &Arc<Db>, first_key: i64) -> Vec<i64> {
    let pages_before = db.table(T).unwrap().num_pages();
    let mut session = Session::new(Arc::clone(db));
    let mut keys = Vec::new();
    for key in first_key..first_key + 1_000 {
        let rid = session.insert(T, &rec(key, 1)).unwrap();
        keys.push(key);
        if rid.page.0 >= pages_before {
            return keys;
        }
    }
    panic!("1000 inserts never needed a fresh page");
}

/// A row inserted onto a fresh data page after the descriptor became
/// visible and before the scan bound was fixed is in the finished
/// index. With the bound fixed first (the order before this test
/// existed) the page is above the bound and the row is lost.
fn fresh_page_between_registration_and_bound(cfg: EngineConfig, algorithm: BuildAlgorithm) {
    let db = db_with(cfg);
    seed(&db, 300);
    let inserted = Arc::new(Mutex::new(Vec::new()));
    {
        let (db2, inserted) = (Arc::clone(&db), Arc::clone(&inserted));
        db.failpoints.arm_hook("build.registered", 0, move || {
            *inserted.lock().unwrap() = insert_until_fresh_page(&db2, 1_000_000);
        });
    }
    let idx = build_index(&db, T, spec("bound"), algorithm).unwrap();
    verify_index(&db, idx).unwrap();
    let inserted = inserted.lock().unwrap();
    assert!(!inserted.is_empty(), "the hook never ran");
    for &key in inserted.iter() {
        assert_eq!(
            db.index_lookup(idx, &KeyValue::from_i64(key))
                .unwrap()
                .len(),
            1,
            "key {key} is missing from the finished index"
        );
    }
}

#[test]
fn sf_scan_bound_covers_a_page_allocated_after_registration() {
    fresh_page_between_registration_and_bound(EngineConfig::small(), BuildAlgorithm::Sf);
}

#[test]
fn nsf_without_quiesce_covers_a_page_allocated_after_registration() {
    fresh_page_between_registration_and_bound(
        EngineConfig {
            nsf_descriptor_quiesce: false,
            ..EngineConfig::small()
        },
        BuildAlgorithm::Nsf,
    );
}

/// The first catalog image of a build has no scan bound yet. A crash
/// right there must not make the resumed build take the table for
/// empty.
#[test]
fn crash_between_registration_and_bound_resumes_into_a_full_index() {
    let db = db_with(EngineConfig::small());
    seed(&db, 300);
    db.failpoints.arm("build.registered");
    let err = build_index(&db, T, spec("unbounded"), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash());
    db.wal.flush_all();
    db.simulate_crash();
    db.restart().unwrap();
    let rt = db.indexes_of(T).last().cloned().unwrap();
    assert_eq!(rt.state(), IndexState::SfBuilding);
    assert_eq!(rt.scan_end(), PageId(u32::MAX));
    resume_build(&db, rt.def.id).unwrap();
    assert_ne!(rt.scan_end(), PageId(u32::MAX));
    verify_index(&db, rt.def.id).unwrap();
    assert_eq!(
        db.index_lookup(rt.def.id, &KeyValue::from_i64(299))
            .unwrap()
            .len(),
        1
    );
}

/// While the scan is still working on the records it copied from page
/// `p`, a transaction updates and deletes rows of `p` and inserts into
/// its free space. None of it waits for the builder (with the latch
/// held across the callback, as it used to be, the update would wait
/// for this very thread), and all of it reaches the index through the
/// side-file.
#[test]
fn dml_on_the_page_being_processed_goes_to_the_side_file() {
    let db = db_with(EngineConfig::small());
    let rids = seed(&db, 300);
    // Seeded in RID order, so row `i` is the scan's `i`-th record. The
    // hook fires while the scan feeds the second record of the page
    // that holds row 100.
    assert!(rids.windows(2).all(|w| w[0] < w[1]));
    let p = rids[100].page;
    let on_p: Vec<usize> = (0..rids.len()).filter(|&i| rids[i].page == p).collect();
    assert!(on_p.len() >= 4);
    let (updated, deleted) = (on_p[2], on_p[3]);
    let landed = Arc::new(Mutex::new(None));
    {
        let (db2, rids, landed) = (Arc::clone(&db), rids.clone(), Arc::clone(&landed));
        db.failpoints
            .arm_hook("build.scan.record", on_p[1] as u64, move || {
                let idx = db2.indexes_of(T).last().cloned().unwrap();
                // Current-RID is already past the whole page.
                assert!(idx.current_rid() >= Rid::new(p.0, u16::MAX));
                assert!(idx.current_rid() < Rid::new(p.0 + 1, 0));
                let mut s = Session::new(Arc::clone(&db2));
                s.update(T, rids[updated], &rec(5_000_000, 2)).unwrap();
                // The committed delete frees a slot of `p`; fresh rows go
                // to whatever page the free-space map offers, `p` among
                // them.
                s.delete(T, rids[deleted]).unwrap();
                for key in 6_000_000..6_000_500 {
                    let rid = s.insert(T, &rec(key, 3)).unwrap();
                    if rid.page == p {
                        *landed.lock().unwrap() = Some((key, rid));
                        return;
                    }
                }
            });
    }
    let idx = build_index(&db, T, spec("under_dml"), BuildAlgorithm::Sf).unwrap();
    verify_index(&db, idx).unwrap();
    let (new_key, new_rid) = landed
        .lock()
        .unwrap()
        .expect("no insert landed on the page");
    let rt = db.index(idx).unwrap();
    let ops = rt.side_file.read(0, rt.side_file.len() as usize);
    let has = |insert: bool, key: i64, rid: Rid| {
        ops.iter()
            .any(|op| op.insert == insert && op.entry == IndexEntry::from_i64(key, rid))
    };
    assert!(has(false, updated as i64, rids[updated]), "update: old key");
    assert!(has(true, 5_000_000, rids[updated]), "update: new key");
    assert!(has(false, deleted as i64, rids[deleted]), "delete");
    assert!(
        has(true, new_key, new_rid),
        "insert into the page's free space"
    );
    let lookup = |k: i64| db.index_lookup(idx, &KeyValue::from_i64(k)).unwrap();
    assert!(lookup(updated as i64).is_empty());
    assert_eq!(lookup(5_000_000), vec![rids[updated]]);
    assert!(lookup(deleted as i64).is_empty());
    assert_eq!(lookup(new_key), vec![new_rid]);
}

/// Whole builds under concurrent writers, in debug builds with the
/// held-guard assertion live at every pace point of every phase.
fn build_under_writers(algorithm: BuildAlgorithm, opts: &BuildOptions) {
    let db = db_with(EngineConfig::small());
    let rids = seed(&db, 3_000);
    let stop = AtomicBool::new(false);
    let idx = std::thread::scope(|s| {
        for w in 0..2i64 {
            let (db, rids, stop) = (&db, &rids, &stop);
            s.spawn(move || {
                let mut session = Session::new(Arc::clone(db));
                let mut step = 0i64;
                while !stop.load(Ordering::Acquire) {
                    let n = step * 2 + w;
                    step += 1;
                    session.insert(T, &rec(10_000_000 + n, 1)).unwrap();
                    let row = rids[(n as usize * 13) % rids.len()];
                    if n % 3 == w {
                        // Rows are shared between the writers: losing a
                        // race for one is fine.
                        let _ = session.update(T, row, &rec(20_000_000 + n, 2));
                    }
                    if n % 7 == w {
                        let _ = session.delete(T, row);
                    }
                }
            });
        }
        let r = build_indexes_with(&db, T, &[spec("clean")], algorithm, opts);
        stop.store(true, Ordering::Release);
        r.unwrap()[0]
    });
    verify_index(&db, idx).unwrap();
}

#[test]
fn sf_build_under_writers_gives_way_holding_nothing() {
    build_under_writers(
        BuildAlgorithm::Sf,
        &BuildOptions::new().checkpoint_every(500),
    );
}

#[test]
fn nsf_build_under_writers_gives_way_holding_nothing() {
    build_under_writers(
        BuildAlgorithm::Nsf,
        &BuildOptions::new().checkpoint_every(500),
    );
}

#[test]
fn parallel_build_under_writers_gives_way_holding_nothing() {
    build_under_writers(
        BuildAlgorithm::Sf,
        &BuildOptions::new()
            .workers(2)
            .compress(true)
            .checkpoint_every(500),
    );
}

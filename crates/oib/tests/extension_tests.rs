//! Tests for the paper's optional extensions: the NSF no-quiesce
//! variant (§2.2.1 alternative / §3.2.3), gradual read availability
//! (footnote 3), and the §6.2 primary-index storage model.

use mohan_common::{EngineConfig, Error, KeyValue, Rid, TableId};
use mohan_oib::build::{build_index, resume_build, IndexSpec};
use mohan_oib::primary::build_secondary_via_primary;
use mohan_oib::runtime::IndexState;
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

const T: TableId = TableId(1);

fn rec(k: i64, v: i64) -> Record {
    Record::new(vec![k, v])
}

fn spec(name: &str, unique: bool) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique,
    }
}

fn seed(db: &Arc<Db>, n: i64) -> Vec<Rid> {
    let tx = db.begin();
    let rids = (0..n)
        .map(|k| db.insert_record(tx, T, &rec(k, 1)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    rids
}

// ===================================================================
// NSF without the descriptor-create quiesce
// ===================================================================

fn no_quiesce_db() -> Arc<Db> {
    let db = Db::new(EngineConfig {
        nsf_descriptor_quiesce: false,
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    db
}

#[test]
fn nsf_no_quiesce_builds_while_a_transaction_holds_ix() {
    // The whole point: an updater holding IX for the entire build no
    // longer blocks descriptor creation.
    let db = no_quiesce_db();
    seed(&db, 100);
    let holder = db.begin();
    db.insert_record(holder, T, &rec(900_000, 0)).unwrap();
    let idx = build_index(&db, T, spec("nq", false), BuildAlgorithm::Nsf).unwrap();
    db.commit(holder).unwrap();
    verify_index(&db, idx).unwrap();
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(900_000))
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn nsf_no_quiesce_straddling_rollback_is_compensated() {
    // §2.2.1's problem scenario: T1 inserts a record *before* the
    // descriptor exists (so its log record counts zero visible
    // indexes), the build starts, and T1 rolls back afterwards. The
    // count comparison (Figure 2 applied to NSF per §3.2.3) must
    // compensate: the key may not survive in the index.
    let db = no_quiesce_db();
    seed(&db, 200);

    let t1 = db.begin();
    let ghost = db.insert_record(t1, T, &rec(777_777, 0)).unwrap();

    // Run the build in another thread; it will scan the uncommitted
    // record and insert its key.
    let db2 = Arc::clone(&db);
    let builder =
        std::thread::spawn(move || build_index(&db2, T, spec("nq2", false), BuildAlgorithm::Nsf));
    // Wait until the descriptor is visible, then roll T1 back: the
    // undo happens while the index is visible although the forward
    // insert predates it.
    while db.indexes_of(T).is_empty() {
        std::thread::yield_now();
    }
    db.rollback(t1).unwrap();
    let idx = builder.join().unwrap().unwrap();

    assert!(!db.table(T).unwrap().exists(ghost));
    assert!(db
        .index_lookup(idx, &KeyValue::from_i64(777_777))
        .unwrap()
        .is_empty());
    verify_index(&db, idx).unwrap();
}

#[test]
fn nsf_no_quiesce_with_churn_is_exact() {
    let db = no_quiesce_db();
    let rids = seed(&db, 300);
    let stop = Arc::new(AtomicBool::new(false));
    let db2 = Arc::clone(&db);
    let stop2 = Arc::clone(&stop);
    let rids2 = rids.clone();
    let (committed, first_commit) = mpsc::channel();
    let mut committed = Some(committed);
    let churn = std::thread::spawn(move || {
        let mut k = 500_000i64;
        while !stop2.load(Ordering::Relaxed) {
            let tx = db2.begin();
            k += 1;
            let ok = db2.insert_record(tx, T, &rec(k, 0)).is_ok()
                && db2.delete_record(tx, T, rids2[(k % 250) as usize]).is_ok()
                && db2.insert_record(tx, T, &rec(k + 1_000_000, 0)).is_ok();
            if !ok || k % 4 == 0 {
                let _ = db2.rollback(tx);
            } else if db2.commit(tx).is_ok() {
                if let Some(committed) = committed.take() {
                    let _ = committed.send(());
                }
            }
        }
    });
    // Let the churn get going.
    first_commit.recv().expect("the churn commits");
    let idx = build_index(&db, T, spec("nq3", false), BuildAlgorithm::Nsf).unwrap();
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    verify_index(&db, idx).unwrap();
}

// ===================================================================
// Gradual read availability (footnote 3)
// ===================================================================

#[test]
fn gradual_reads_serve_the_committed_prefix() {
    let db = Db::new(EngineConfig {
        nsf_gradual_reads: true,
        build_checkpoint_every_keys: 100,
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    seed(&db, 1_000);

    // Pause the builder mid-insert with a crash failpoint so the
    // watermark is guaranteed to sit between two checkpoints.
    db.failpoints.arm_after("nsf.insert.key", 550);
    let err = build_index(&db, T, spec("grad", false), BuildAlgorithm::Nsf).unwrap_err();
    assert!(err.is_crash());

    let idx = db.indexes_of(T).last().unwrap().def.id;
    let rt = db.index(idx).unwrap();
    assert_eq!(rt.state(), IndexState::NsfBuilding);

    // Keys below the committed watermark (≥ 500 keys committed) are
    // readable mid-build; keys beyond it are refused.
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(5)).unwrap().len(),
        1
    );
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(499))
            .unwrap()
            .len(),
        1
    );
    let far = db.index_lookup(idx, &KeyValue::from_i64(999));
    assert!(matches!(far, Err(Error::IndexNotReadable(_))));

    // Maintenance keeps the readable prefix exact.
    let tx = db.begin();
    let rid = db.insert_record(tx, T, &rec(-5, 0)).unwrap(); // below everything
    db.commit(tx).unwrap();
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(-5)).unwrap(),
        vec![rid]
    );

    // Finish the build after a restart; everything becomes readable.
    db.simulate_crash();
    db.restart().unwrap();
    resume_build(&db, idx).unwrap();
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(999))
            .unwrap()
            .len(),
        1
    );
    verify_index(&db, idx).unwrap();
}

#[test]
fn gradual_reads_disabled_by_default() {
    let db = Db::new(EngineConfig::small());
    db.create_table(T);
    seed(&db, 200);
    db.failpoints.arm_after("nsf.insert.key", 100);
    let err = build_index(&db, T, spec("g2", false), BuildAlgorithm::Nsf).unwrap_err();
    assert!(err.is_crash());
    let idx = db.indexes_of(T).last().unwrap().def.id;
    assert!(matches!(
        db.index_lookup(idx, &KeyValue::from_i64(1)),
        Err(Error::IndexNotReadable(_))
    ));
}

// ===================================================================
// §6.2 primary-index storage model
// ===================================================================

fn db_with_primary(n: i64) -> (Arc<Db>, Vec<Rid>, mohan_common::IndexId) {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    let rids = seed(&db, n);
    let primary = build_index(&db, T, spec("pk", true), BuildAlgorithm::Offline).unwrap();
    (db, rids, primary)
}

#[test]
fn primary_model_build_on_quiet_table() {
    let (db, _, primary) = db_with_primary(400);
    let idx = build_secondary_via_primary(
        &db,
        primary,
        IndexSpec {
            name: "sec".into(),
            key_cols: vec![1],
            unique: false,
        },
    )
    .unwrap();
    verify_index(&db, idx).unwrap();
    verify_index(&db, primary).unwrap();
    for id in [idx, primary] {
        assert!(db.index(id).unwrap().sort_store.run_ids().is_empty());
    }
}

#[test]
fn primary_model_build_runs_on_a_build_worker() {
    let (db, _, primary) = db_with_primary(400);
    let (tx, rx) = mpsc::channel();
    db.failpoints.arm_hook("primary.scan.record", 0, move || {
        let name = std::thread::current().name().map(str::to_owned);
        tx.send(name).unwrap();
    });
    let idx = build_secondary_via_primary(&db, primary, secondary("sec", false)).unwrap();
    assert_eq!(rx.recv().unwrap().as_deref(), Some("oib-build"));
    verify_index(&db, idx).unwrap();
}

/// A §6.2 build over `rows` seeded rows while one thread churns. Each
/// churn transaction inserts a fresh primary key and deletes a seeded
/// row. With `moving`, the inserted row's update then moves it behind
/// the walk, the seeded row is updated ahead of it instead of deleted
/// every other time, and every fifth transaction rolls back.
fn primary_model_build_under_churn(rows: i64, moving: bool) {
    let (db, rids, primary) = db_with_primary(rows);
    let stop = Arc::new(AtomicBool::new(false));
    let db2 = Arc::clone(&db);
    let stop2 = Arc::clone(&stop);
    let (committed, first_commit) = mpsc::channel();
    let mut committed = Some(committed);
    let churn = std::thread::spawn(move || {
        let mut k = 700_000i64;
        while !stop2.load(Ordering::Relaxed) {
            let tx = db2.begin();
            k += 1;
            let victim = rids[(k % 300) as usize];
            let ok = (|| -> Result<(), Error> {
                let rid = db2.insert_record(tx, T, &rec(k, k % 37))?;
                if !moving {
                    db2.delete_record(tx, T, victim)?;
                    return Ok(());
                }
                db2.update_record(tx, T, rid, &rec(-k, k % 41))?;
                if k % 2 == 0 {
                    db2.delete_record(tx, T, victim)?;
                } else {
                    db2.update_record(tx, T, victim, &rec(k + 1_000_000, k % 43))?;
                }
                Ok(())
            })()
            .is_ok();
            if !ok || moving && k % 5 == 0 {
                let _ = db2.rollback(tx);
            } else if db2.commit(tx).is_ok() {
                if let Some(committed) = committed.take() {
                    let _ = committed.send(());
                }
            }
        }
    });
    // Let the churn get going.
    first_commit.recv().expect("the churn commits");
    let idx = build_secondary_via_primary(
        &db,
        primary,
        IndexSpec {
            name: "sec".into(),
            key_cols: vec![1],
            unique: false,
        },
    )
    .unwrap();
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    verify_index(&db, idx).unwrap();
    verify_index(&db, primary).unwrap();
}

#[test]
fn primary_model_build_under_insert_delete_churn() {
    primary_model_build_under_churn(400, false);
}

#[test]
fn primary_model_build_under_churn_moving_primary_keys() {
    // Enough rows that the walk overlaps thousands of log records of
    // churn, each update moving a primary key across it.
    primary_model_build_under_churn(5_000, true);
}

#[test]
fn primary_model_requires_complete_unique_primary() {
    let db = Db::new(EngineConfig::small());
    db.create_table(T);
    seed(&db, 50);
    // Nonunique index is not a valid clustering primary.
    let nonunique = build_index(&db, T, spec("nu", false), BuildAlgorithm::Offline).unwrap();
    let err = build_secondary_via_primary(
        &db,
        nonunique,
        IndexSpec {
            name: "x".into(),
            key_cols: vec![1],
            unique: false,
        },
    )
    .unwrap_err();
    assert!(matches!(err, Error::Corruption(_)));
    // The failed attempt must not leave a descriptor behind.
    assert_eq!(db.indexes_of(T).len(), 1);
}

/// A table of 200 rows `(k, k)` with a unique Offline primary index on
/// column 0.
fn db_with_identity_rows() -> (Arc<Db>, Vec<Rid>, mohan_common::IndexId) {
    let db = Db::new(EngineConfig::small());
    db.create_table(T);
    let tx = db.begin();
    let rids = (0..200)
        .map(|k| db.insert_record(tx, T, &rec(k, k)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    let primary = build_index(&db, T, spec("pk", true), BuildAlgorithm::Offline).unwrap();
    (db, rids, primary)
}

fn secondary(name: &str, unique: bool) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![1],
        unique,
    }
}

#[test]
fn primary_model_unique_secondary_survives_delete_and_reinsert_of_its_value() {
    // Behind the walk, one transaction deletes row 0 and inserts a row
    // with a higher primary key and the same secondary value 0. The
    // walk read the deleted row and reads the new one: two entries of
    // key 0, one of them dead. Only the data pages can tell them apart.
    let (db, rids, primary) = db_with_identity_rows();
    let db2 = Arc::clone(&db);
    let first = rids[0];
    db.failpoints.arm_hook("primary.scan.record", 0, move || {
        let tx = db2.begin();
        db2.delete_record(tx, T, first).unwrap();
        db2.insert_record(tx, T, &rec(100_000, 0)).unwrap();
        db2.commit(tx).unwrap();
    });
    let idx = build_secondary_via_primary(&db, primary, secondary("sec", true)).unwrap();
    verify_index(&db, idx).unwrap();
    verify_index(&db, primary).unwrap();
}

#[test]
fn primary_model_walk_reading_a_reused_rid_twice_builds() {
    // Behind the walk, row 0 is deleted and committed; a row with a
    // higher primary key and the same secondary value then takes its
    // RID. The walk reads that RID twice: one entry, read twice.
    for unique in [false, true] {
        let (db, rids, primary) = db_with_identity_rows();
        let db2 = Arc::clone(&db);
        let first = rids[0];
        let reused = Arc::new(std::sync::Mutex::new(None));
        let reused2 = Arc::clone(&reused);
        db.failpoints.arm_hook("primary.scan.record", 0, move || {
            let tx = db2.begin();
            db2.delete_record(tx, T, first).unwrap();
            db2.commit(tx).unwrap();
            // This thread seeded the table and still has room on its
            // insert target page; a thread with none takes the freed
            // slot from the free-space map.
            let rid = std::thread::scope(|s| {
                s.spawn(|| {
                    let tx = db2.begin();
                    let rid = db2.insert_record(tx, T, &rec(100_000, 0)).unwrap();
                    db2.commit(tx).unwrap();
                    rid
                })
                .join()
                .unwrap()
            });
            *reused2.lock().unwrap() = Some(rid);
        });
        let idx = build_secondary_via_primary(&db, primary, secondary("sec", unique)).unwrap();
        assert_eq!(
            *reused.lock().unwrap(),
            Some(first),
            "precondition: the new row reuses the deleted row's RID"
        );
        verify_index(&db, idx).unwrap_or_else(|e| panic!("unique {unique}: {e}"));
        verify_index(&db, primary).unwrap();
    }
}

#[test]
fn primary_model_update_moving_a_row_behind_the_walk_reaches_the_side_file() {
    // At the walk's first record, a committed update moves row 199 from
    // a primary key ahead of the walk to one behind it. The walk never
    // reads the row again, so the new entry's only way in is the
    // side-file, judged on the primary key of the image it came from.
    for unique in [false, true] {
        let (db, rids, primary) = db_with_identity_rows();
        let db2 = Arc::clone(&db);
        let moved = rids[199];
        db.failpoints.arm_hook("primary.scan.record", 0, move || {
            let tx = db2.begin();
            db2.update_record(tx, T, moved, &rec(-5, 199)).unwrap();
            db2.commit(tx).unwrap();
        });
        let idx = build_secondary_via_primary(&db, primary, secondary("sec", unique)).unwrap();
        verify_index(&db, idx).unwrap_or_else(|e| panic!("unique {unique}: {e}"));
        verify_index(&db, primary).unwrap();
        assert_eq!(
            db.index_lookup(idx, &KeyValue::from_i64(199)).unwrap(),
            vec![moved]
        );
    }
}

#[test]
fn primary_model_rollback_of_an_update_moving_a_row_behind_the_walk_is_compensated() {
    // T moves row 190 onto the primary key of row 100, deleted and
    // committed just before. The walk passes key 100, reads the row
    // there and extracts T's secondary key 555. Before the walk reaches
    // key 190, T rolls back: the undo's delete of 555 is judged on key
    // 100, which the walk has passed, and must reach the side-file.
    for unique in [false, true] {
        let (db, rids, primary) = db_with_identity_rows();
        let db2 = Arc::clone(&db);
        let (gone, moved) = (rids[100], rids[190]);
        db.failpoints.arm_hook("primary.scan.record", 0, move || {
            let tx = db2.begin();
            db2.delete_record(tx, T, gone).unwrap();
            db2.commit(tx).unwrap();
            let t = db2.begin();
            db2.update_record(t, T, moved, &rec(100, 555)).unwrap();
            let db3 = Arc::clone(&db2);
            db2.failpoints
                .arm_hook("primary.scan.record", 130, move || {
                    let sec = db3.indexes_of(T).pop().unwrap();
                    let walk = sec.key_cursor.as_ref().unwrap();
                    assert!(
                        walk.passed(&KeyValue::from_i64(100))
                            && !walk.passed(&KeyValue::from_i64(190)),
                        "precondition: the walk is between keys 100 and 190"
                    );
                    db3.rollback(t).unwrap();
                });
        });
        let idx = build_secondary_via_primary(&db, primary, secondary("sec", unique)).unwrap();
        verify_index(&db, idx).unwrap_or_else(|e| panic!("unique {unique}: {e}"));
        verify_index(&db, primary).unwrap();
        assert!(db
            .index_lookup(idx, &KeyValue::from_i64(555))
            .unwrap()
            .is_empty());
        assert_eq!(
            db.index_lookup(idx, &KeyValue::from_i64(190)).unwrap(),
            vec![moved]
        );
    }
}

#[test]
fn primary_model_walk_crashed_mid_walk_resumes() {
    // At the walk's 50th record, committed updates behind it change the
    // secondary keys of rows 0..20, delete rows 20..25 and insert a
    // fresh row, and rows ahead of it fill heap pages allocated since
    // the index registered; the walk then crashes 50 records later.
    // The crash leaves no progress record, so the resume starts from
    // the empty one — a heap scan under post-crash visibility, which
    // must reach the new pages: nothing side-filed the rows ahead.
    let (db, rids, primary) = db_with_identity_rows();
    let (db2, changed) = (Arc::clone(&db), rids.clone());
    let last_seeded_page = rids.iter().map(|r| r.page).max().unwrap();
    let ahead = Arc::new(std::sync::Mutex::new(Vec::new()));
    let ahead2 = Arc::clone(&ahead);
    db.failpoints.arm_hook("primary.scan.record", 49, move || {
        let sec = db2.indexes_of(T).pop().unwrap();
        assert!(
            sec.key_cursor
                .as_ref()
                .unwrap()
                .passed(&KeyValue::from_i64(24)),
            "precondition: the rows changed are behind the walk"
        );
        let tx = db2.begin();
        for (k, &rid) in changed.iter().enumerate().take(20) {
            db2.update_record(tx, T, rid, &rec(k as i64, 5_000 + k as i64))
                .unwrap();
        }
        for &rid in &changed[20..25] {
            db2.delete_record(tx, T, rid).unwrap();
        }
        db2.insert_record(tx, T, &rec(-1, 6_000)).unwrap();
        let mut ahead = ahead2.lock().unwrap();
        for k in 0..2_000 {
            let rid = db2.insert_record(tx, T, &rec(10_000 + k, 7_000 + k));
            ahead.push(rid.unwrap());
        }
        db2.commit(tx).unwrap();
        assert!(
            ahead.last().unwrap().page > last_seeded_page,
            "precondition: the rows ahead reach a page the seed did not"
        );
        db2.failpoints.arm_after("primary.scan.record", 49);
    });
    let err = build_secondary_via_primary(&db, primary, secondary("sec", false)).unwrap_err();
    assert!(err.is_crash(), "expected crash, got {err}");
    let id = db.indexes_of(T).pop().unwrap().def.id;
    db.simulate_crash();
    db.restart().unwrap();
    resume_build(&db, id).unwrap();
    assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
    verify_index(&db, id).unwrap();
    verify_index(&db, primary).unwrap();
    assert_eq!(
        db.index_lookup(id, &KeyValue::from_i64(5_003)).unwrap(),
        vec![rids[3]]
    );
    let last = *ahead.lock().unwrap().last().unwrap();
    assert_eq!(
        db.index_lookup(id, &KeyValue::from_i64(8_999)).unwrap(),
        vec![last]
    );
    assert!(db.index(id).unwrap().sort_store.run_ids().is_empty());
}

#[test]
fn primary_model_walk_skips_a_row_read_after_it_moved_ahead() {
    // The walk has taken the first leaf's RIDs and read one row when a
    // committed update moves row 5 from that leaf to primary key 1000,
    // ahead of the walk. The walk then reads the row at its new key,
    // and before the walk reaches key 1000 the row is deleted. Nothing
    // reaches the side-file: both images the side-file could hear of
    // are ahead of the walk. So the walk must not keep what it read
    // for key 5: the row no longer sat there.
    for unique in [false, true] {
        let (db, rids, primary) = db_with_identity_rows();
        let db2 = Arc::clone(&db);
        let moved = rids[5];
        db.failpoints.arm_hook("primary.scan.record", 0, move || {
            let tx = db2.begin();
            db2.update_record(tx, T, moved, &rec(1000, 777)).unwrap();
            db2.commit(tx).unwrap();
            let db3 = Arc::clone(&db2);
            db2.failpoints.arm_hook("primary.scan.record", 20, move || {
                let tx = db3.begin();
                db3.delete_record(tx, T, moved).unwrap();
                db3.commit(tx).unwrap();
            });
        });
        let idx = build_secondary_via_primary(&db, primary, secondary("sec", unique)).unwrap();
        verify_index(&db, idx).unwrap_or_else(|e| panic!("unique {unique}: {e}"));
        verify_index(&db, primary).unwrap();
        assert!(db
            .index_lookup(idx, &KeyValue::from_i64(5))
            .unwrap()
            .is_empty());
    }
}

#[test]
fn primary_model_unique_secondary_detects_duplicates() {
    let (db, _, primary) = db_with_primary(50);
    // payload column (col 1) is all 1s from `seed` — duplicates.
    let err = build_secondary_via_primary(
        &db,
        primary,
        IndexSpec {
            name: "dup".into(),
            key_cols: vec![1],
            unique: true,
        },
    )
    .unwrap_err();
    assert!(matches!(err, Error::UniqueViolation { .. }));
    assert_eq!(db.indexes_of(T).len(), 1);
}

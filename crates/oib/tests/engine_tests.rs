//! Engine-level tests: DML, strict 2PL, rollback with CLRs, crash
//! recovery, and Figure-1/Figure-2 index maintenance on completed
//! indexes.

use mohan_common::{EngineConfig, KeyValue, Rid, TableId};
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::sync::Arc;

const T: TableId = TableId(1);

fn db() -> Arc<Db> {
    let db = Db::new(EngineConfig::small());
    db.create_table(T);
    db
}

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

/// Populate the table with keys `0..n`, committed.
fn seed(db: &Arc<Db>, n: i64) -> Vec<Rid> {
    let tx = db.begin();
    let rids: Vec<Rid> = (0..n)
        .map(|k| db.insert_record(tx, T, &rec(k, k * 10)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    rids
}

#[test]
fn insert_commit_read() {
    let db = db();
    let tx = db.begin();
    let rid = db.insert_record(tx, T, &rec(5, 50)).unwrap();
    db.commit(tx).unwrap();
    assert_eq!(db.read_record(T, rid).unwrap(), rec(5, 50));
}

#[test]
fn rollback_removes_inserted_record() {
    let db = db();
    let tx = db.begin();
    let rid = db.insert_record(tx, T, &rec(1, 1)).unwrap();
    db.rollback(tx).unwrap();
    assert!(db.read_record(T, rid).is_err());
}

#[test]
fn rollback_restores_deleted_and_updated_records() {
    let db = db();
    let rids = seed(&db, 3);
    let tx = db.begin();
    db.delete_record(tx, T, rids[0]).unwrap();
    db.update_record(tx, T, rids[1], &rec(1, 999)).unwrap();
    db.rollback(tx).unwrap();
    assert_eq!(db.read_record(T, rids[0]).unwrap(), rec(0, 0));
    assert_eq!(db.read_record(T, rids[1]).unwrap(), rec(1, 10));
}

#[test]
fn two_phase_locking_blocks_concurrent_writers() {
    let db = db();
    let rids = seed(&db, 1);
    let t1 = db.begin();
    db.update_record(t1, T, rids[0], &rec(0, 111)).unwrap();
    // A second transaction times out on the record lock.
    let t2 = db.begin();
    let err = db.update_record(t2, T, rids[0], &rec(0, 222)).unwrap_err();
    assert!(matches!(err, mohan_common::Error::LockTimeout { .. }));
    db.rollback(t2).unwrap();
    db.commit(t1).unwrap();
    assert_eq!(db.read_record(T, rids[0]).unwrap(), rec(0, 111));
}

#[test]
fn committed_work_survives_crash() {
    let db = db();
    let rids = seed(&db, 10);
    db.simulate_crash();
    db.restart().unwrap();
    for (k, rid) in rids.iter().enumerate() {
        assert_eq!(
            db.read_record(T, *rid).unwrap(),
            rec(k as i64, k as i64 * 10)
        );
    }
}

#[test]
fn uncommitted_work_is_rolled_back_at_restart() {
    let db = db();
    let rids = seed(&db, 3);
    let tx = db.begin();
    let extra = db.insert_record(tx, T, &rec(99, 99)).unwrap();
    db.delete_record(tx, T, rids[0]).unwrap();
    // Make the loser's work durable (forced pages + flushed log), so
    // restart must actively undo it rather than just lose it.
    db.checkpoint().unwrap();
    db.simulate_crash();
    let stats = db.restart().unwrap();
    assert_eq!(stats.losers, 1);
    assert!(db.read_record(T, extra).is_err());
    assert_eq!(db.read_record(T, rids[0]).unwrap(), rec(0, 0));
}

#[test]
fn restart_is_idempotent_across_repeated_crashes() {
    let db = db();
    let rids = seed(&db, 5);
    let tx = db.begin();
    db.delete_record(tx, T, rids[2]).unwrap();
    db.simulate_crash();
    db.restart().unwrap();
    db.simulate_crash();
    db.restart().unwrap();
    assert_eq!(db.read_record(T, rids[2]).unwrap(), rec(2, 20));
    assert_eq!(db.table_scan(T).unwrap().len(), 5);
}

#[test]
fn completed_index_is_maintained_and_queryable() {
    let db = db();
    seed(&db, 50);
    let idx = build_index(&db, T, spec("by_k", false), BuildAlgorithm::Offline).unwrap();
    verify_index(&db, idx).unwrap();

    // Maintenance after completion.
    let tx = db.begin();
    let rid = db.insert_record(tx, T, &rec(500, 1)).unwrap();
    db.commit(tx).unwrap();
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(500)).unwrap(),
        vec![rid]
    );

    let tx = db.begin();
    db.delete_record(tx, T, rid).unwrap();
    db.commit(tx).unwrap();
    assert!(db
        .index_lookup(idx, &KeyValue::from_i64(500))
        .unwrap()
        .is_empty());
    verify_index(&db, idx).unwrap();
}

#[test]
fn index_maintenance_rolls_back_with_the_transaction() {
    let db = db();
    let rids = seed(&db, 20);
    let idx = build_index(&db, T, spec("by_k", false), BuildAlgorithm::Offline).unwrap();

    let tx = db.begin();
    db.insert_record(tx, T, &rec(777, 0)).unwrap();
    db.delete_record(tx, T, rids[3]).unwrap();
    db.update_record(tx, T, rids[4], &rec(888, 0)).unwrap();
    db.rollback(tx).unwrap();

    assert!(db
        .index_lookup(idx, &KeyValue::from_i64(777))
        .unwrap()
        .is_empty());
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(3)).unwrap(),
        vec![rids[3]]
    );
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(4)).unwrap(),
        vec![rids[4]]
    );
    assert!(db
        .index_lookup(idx, &KeyValue::from_i64(888))
        .unwrap()
        .is_empty());
    verify_index(&db, idx).unwrap();
}

#[test]
fn index_survives_crash_with_committed_and_loser_transactions() {
    let db = db();
    let rids = seed(&db, 30);
    let idx = build_index(&db, T, spec("by_k", false), BuildAlgorithm::Offline).unwrap();
    db.checkpoint().unwrap();

    // Committed changes after the checkpoint.
    let tx = db.begin();
    let new_rid = db.insert_record(tx, T, &rec(1000, 0)).unwrap();
    db.delete_record(tx, T, rids[0]).unwrap();
    db.commit(tx).unwrap();
    // Loser.
    let tx2 = db.begin();
    db.insert_record(tx2, T, &rec(2000, 0)).unwrap();
    db.delete_record(tx2, T, rids[1]).unwrap();

    db.simulate_crash();
    db.restart().unwrap();

    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(1000)).unwrap(),
        vec![new_rid]
    );
    assert!(db
        .index_lookup(idx, &KeyValue::from_i64(0))
        .unwrap()
        .is_empty());
    assert!(db
        .index_lookup(idx, &KeyValue::from_i64(2000))
        .unwrap()
        .is_empty());
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(1)).unwrap(),
        vec![rids[1]]
    );
    verify_index(&db, idx).unwrap();
}

#[test]
fn unique_index_rejects_duplicate_key_values() {
    let db = db();
    seed(&db, 10);
    let idx = build_index(&db, T, spec("uk", true), BuildAlgorithm::Offline).unwrap();

    let tx = db.begin();
    let err = db.insert_record(tx, T, &rec(5, 123)).unwrap_err();
    assert!(matches!(err, mohan_common::Error::UniqueViolation { .. }));
    db.rollback(tx).unwrap();
    verify_index(&db, idx).unwrap();
}

#[test]
fn unique_index_allows_reusing_key_after_committed_delete() {
    let db = db();
    let rids = seed(&db, 10);
    let idx = build_index(&db, T, spec("uk", true), BuildAlgorithm::Offline).unwrap();

    let tx = db.begin();
    db.delete_record(tx, T, rids[5]).unwrap();
    db.commit(tx).unwrap();

    let tx = db.begin();
    let rid = db.insert_record(tx, T, &rec(5, 42)).unwrap();
    db.commit(tx).unwrap();
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(5)).unwrap(),
        vec![rid]
    );
    verify_index(&db, idx).unwrap();
}

#[test]
fn unique_insert_waits_for_inflight_deleter() {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 3_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    let tx0 = db.begin();
    let victim = db.insert_record(tx0, T, &rec(7, 0)).unwrap();
    db.commit(tx0).unwrap();
    let idx = build_index(&db, T, spec("uk", true), BuildAlgorithm::Offline).unwrap();

    // Deleter holds the record lock; an inserter of key 7 must block
    // until the deleter commits, then succeed.
    let deleter = db.begin();
    db.delete_record(deleter, T, victim).unwrap();

    let db2 = Arc::clone(&db);
    let inserter = std::thread::spawn(move || {
        let tx = db2.begin();
        let rid = db2.insert_record(tx, T, &rec(7, 1)).unwrap();
        db2.commit(tx).unwrap();
        rid
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    db.commit(deleter).unwrap();
    let rid = inserter.join().unwrap();
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(7)).unwrap(),
        vec![rid]
    );
    verify_index(&db, idx).unwrap();
}

#[test]
fn checkpoint_bounds_lost_work() {
    let db = db();
    seed(&db, 20);
    db.checkpoint().unwrap();
    let before = db.table_scan(T).unwrap().len();
    db.simulate_crash();
    db.restart().unwrap();
    assert_eq!(db.table_scan(T).unwrap().len(), before);
}

#[test]
fn multi_column_keys_work_end_to_end() {
    let db = db();
    let tx = db.begin();
    for k in 0..20 {
        db.insert_record(tx, T, &rec(k % 5, k)).unwrap();
    }
    db.commit(tx).unwrap();
    let idx = build_index(
        &db,
        T,
        IndexSpec {
            name: "composite".into(),
            key_cols: vec![0, 1],
            unique: true,
        },
        BuildAlgorithm::Offline,
    )
    .unwrap();
    verify_index(&db, idx).unwrap();
    let hits = db.index_lookup(idx, &KeyValue::from_i64s(&[2, 7])).unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn reads_of_building_index_are_refused() {
    let db = db();
    seed(&db, 5);
    // Start an SF build but inject a crash immediately so the index
    // stays in the building state.
    db.failpoints.arm("build.scan.record");
    let err = build_index(&db, T, spec("b", false), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash());
    let id = db.indexes_of(T)[0].def.id;
    let lookup = db.index_lookup(id, &KeyValue::from_i64(0));
    assert!(matches!(
        lookup,
        Err(mohan_common::Error::IndexNotReadable(_))
    ));
}

/// The registry's reading of a lock-table gauge.
fn lock_gauge(db: &Db, name: &str) -> u64 {
    db.obs.snapshot().counter(name).expect("registered gauge")
}

#[test]
fn lock_table_holds_exactly_what_open_transactions_hold() {
    let db = db();
    let sizes = |db: &Db| {
        (
            lock_gauge(db, "lock.entries"),
            lock_gauge(db, "lock.held_names"),
        )
    };
    let mut rids = Vec::new();
    for batch in 0..20 {
        let tx = db.begin();
        for k in 0..500u64 {
            // The table's IX plus one X per row touched so far.
            if k % 100 == 1 {
                assert_eq!(sizes(&db), (k + 1, k + 1));
            }
            rids.push(
                db.insert_record(tx, T, &rec(batch * 500 + k as i64, 0))
                    .unwrap(),
            );
        }
        assert_eq!(sizes(&db), (501, 501));
        db.commit(tx).unwrap();
        assert_eq!(sizes(&db), (0, 0));
    }
    assert_eq!(rids.len(), 10_000);

    // Updates re-lock committed rows; rollback lets go of all of them.
    let tx = db.begin();
    for (k, rid) in rids.iter().take(7).enumerate() {
        db.update_record(tx, T, *rid, &rec(k as i64, 1)).unwrap();
    }
    assert_eq!(sizes(&db), (8, 8));
    db.rollback(tx).unwrap();
    assert_eq!(sizes(&db), (0, 0));

    // A crash forgets locks with the rest of volatile state.
    let tx = db.begin();
    db.delete_record(tx, T, rids[0]).unwrap();
    assert_eq!(sizes(&db), (2, 2));
    db.simulate_crash();
    assert_eq!(sizes(&db), (0, 0));
    db.restart().unwrap();
    assert_eq!(sizes(&db), (0, 0));
}

/// `wal.resident_bytes` is the log's real footprint: the stored
/// encoding of every record it holds plus the slot directory — counted,
/// not estimated — and a crash keeps at least the flushed prefix.
#[test]
fn wal_resident_gauges_count_the_stored_bytes_exactly() {
    let db = db();
    let gauge = |db: &Db, name: &str| db.obs.snapshot().counter(name).expect("registered gauge");
    // The stored size of records 1..=through, re-encoded from `get`.
    let encoded_sum = |db: &Db, through: u64| -> u64 {
        let mut buf = Vec::new();
        (1..=through)
            .map(|lsn| {
                let rec = db.wal.get(mohan_common::Lsn(lsn)).expect("below the tail");
                buf.clear();
                mohan_wal::encode_record(&rec, &mut buf);
                buf.len() as u64
            })
            .sum()
    };
    for batch in 0..6 {
        let tx = db.begin();
        for k in 0..500 {
            db.insert_record(tx, T, &rec(batch * 500 + k, k)).unwrap();
        }
        db.commit(tx).unwrap();
    }
    let tail = db.wal.tail_lsn().0;
    assert_eq!(tail, 6 * 502, "begin + 500 inserts + commit per batch");
    assert_eq!(gauge(&db, "wal.resident_records"), tail);
    assert_eq!(
        gauge(&db, "wal.resident_bytes") - db.wal.directory_bytes(),
        encoded_sum(&db, tail)
    );
    assert_eq!(gauge(&db, "wal.bytes"), encoded_sum(&db, tail));

    // An open transaction's tail burns in the crash, but its slots keep
    // their bytes until the log is dropped: the gauge never falls below
    // the flushed prefix.
    let tx = db.begin();
    db.insert_record(tx, T, &rec(-1, -1)).unwrap();
    let flushed = db.wal.flushed_lsn().0;
    assert_eq!(flushed, tail);
    let before = gauge(&db, "wal.resident_bytes");
    db.simulate_crash();
    assert_eq!(db.wal.tail_lsn().0, flushed);
    assert_eq!(gauge(&db, "wal.resident_bytes"), before);
    assert!(before - db.wal.directory_bytes() > encoded_sum(&db, flushed));
    db.restart().unwrap();
}

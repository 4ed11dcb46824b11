//! The lock calls a transaction pays: one IX per table it writes, on
//! its first DML call there, and one record lock per row. The IX is
//! still held to the end, so NSF's quiesce waits for a writer that
//! asked for it once.

use mohan_common::{EngineConfig, TableId};
use mohan_lock::{LockMode, LockName};
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const T: TableId = TableId(1);
const U: TableId = TableId(2);

fn db() -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 10_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    db.create_table(U);
    db
}

fn rec(k: i64) -> Record {
    Record::new(vec![k, k])
}

/// Lock calls `f` makes.
fn calls(db: &Db, f: impl FnOnce()) -> u64 {
    let before = db.locks.stats.calls.get();
    f();
    db.locks.stats.calls.get() - before
}

#[test]
fn a_transaction_asks_for_each_table_s_ix_once() {
    let db = db();
    let tx = db.begin();
    let n = 50;
    let on_t = calls(&db, || {
        for k in 0..n {
            db.insert_record(tx, T, &rec(k)).unwrap();
        }
    });
    assert_eq!(on_t, n as u64 + 1, "one IX, then one X per row");
    let on_u = calls(&db, || {
        for k in 0..3 {
            db.insert_record(tx, U, &rec(k)).unwrap();
        }
    });
    assert_eq!(on_u, 3 + 1, "a second table costs one more IX");
    // Deletes and updates on a table already held ask only for rows.
    let rid = db.insert_record(tx, T, &rec(n)).unwrap();
    let more = calls(&db, || {
        db.update_record(tx, T, rid, &rec(n + 1)).unwrap();
        db.delete_record(tx, T, rid).unwrap();
    });
    assert_eq!(more, 2);
    db.commit(tx).unwrap();
    assert_eq!(db.locks.entries(), 0);

    // The next transaction pays the IX again, whatever its first call.
    let tx = db.begin();
    let first = calls(&db, || {
        db.insert_record(tx, T, &rec(7)).unwrap();
    });
    assert_eq!(first, 2);
    db.rollback(tx).unwrap();
    let tx = db.begin();
    let rid = db.insert_record(tx, U, &rec(8)).unwrap();
    db.commit(tx).unwrap();
    let tx = db.begin();
    let first = calls(&db, || {
        db.delete_record(tx, U, rid).unwrap();
    });
    assert_eq!(first, 2);
    db.commit(tx).unwrap();
}

/// A writer asks for the table's IX on its first insert only; NSF's
/// descriptor quiesce (table S) still waits for it to commit. A hook at
/// `build.registered`, where the quiesce's S is held, sees the writer
/// ended and every one of its rows in the table.
#[test]
fn the_nsf_quiesce_waits_for_a_writer_that_asked_for_ix_once() {
    let db = db();
    let seed = db.begin();
    for k in 0..100 {
        db.insert_record(seed, T, &rec(k)).unwrap();
    }
    db.commit(seed).unwrap();

    let writer = db.begin();
    let paid = calls(&db, || {
        for k in 100..110 {
            db.insert_record(writer, T, &rec(k)).unwrap();
        }
    });
    assert_eq!(paid, 11);
    let committed = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(AtomicBool::new(false));
    {
        let (db2, committed, seen) = (Arc::clone(&db), Arc::clone(&committed), Arc::clone(&seen));
        db.failpoints.arm_hook("build.registered", 0, move || {
            let holders = db2.locks.holders(&LockName::Table(T));
            assert!(
                holders.iter().all(|&(_, mode)| mode == LockMode::S),
                "the quiesce runs beside {holders:?}"
            );
            assert!(
                committed.load(Ordering::Acquire),
                "the writer was still open"
            );
            assert_eq!(db2.table_scan(T).unwrap().len(), 112);
            seen.store(true, Ordering::Release);
        });
    }
    let waits = db.locks.stats.waits.get();
    let id = std::thread::scope(|s| {
        let build = s.spawn(|| {
            build_index(
                &db,
                T,
                IndexSpec {
                    name: "k".into(),
                    key_cols: vec![0],
                    unique: false,
                },
                BuildAlgorithm::Nsf,
            )
            .unwrap()
        });
        // The lock manager counts a wait with the waiter queued.
        while db.locks.stats.waits.get() == waits {
            std::thread::yield_now();
        }
        // Queued behind the writer's IX: the writer's further inserts
        // ask for rows only, and the S is not granted until it ends.
        let more = calls(&db, || {
            db.insert_record(writer, T, &rec(110)).unwrap();
            db.insert_record(writer, T, &rec(111)).unwrap();
        });
        assert_eq!(more, 2);
        assert!(!seen.load(Ordering::Acquire));
        committed.store(true, Ordering::Release);
        db.commit(writer).unwrap();
        build.join().unwrap()
    });
    assert!(seen.load(Ordering::Acquire), "the hook ran");
    assert_eq!(
        db.locks.stats.waits.get() - waits,
        1,
        "the quiesce waited once"
    );
    verify_index(&db, id).unwrap();
}

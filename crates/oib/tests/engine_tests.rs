//! Engine-level tests: DML, strict 2PL, rollback with CLRs, crash
//! recovery, and Figure-1/Figure-2 index maintenance on completed
//! indexes.

use mohan_common::{EngineConfig, KeyValue, Lsn, Rid, TableId, TxId};
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::{Db, Session};
use mohan_wal::{LogPayload, RecKind};
use std::collections::BTreeMap;
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

/// Each undo step keeps the record's hold so that the next step fits;
/// the end of the rollback releases them, as a commit does. Rolling back
/// a widening update leaves the page's free bytes as they were.
#[test]
fn rollback_releases_the_holds_its_undo_steps_kept() {
    let db = db();
    let rids = seed(&db, 1);
    let table = db.table(T).unwrap();
    let frame = table.cache.frame(rids[0].page).unwrap();
    let free = || frame.latch.share().payload.total_free();
    let before = free();
    let tx = db.begin();
    db.update_record(tx, T, rids[0], &Record::new(vec![0, 0, 7, 7]))
        .unwrap();
    db.rollback(tx).unwrap();
    assert_eq!(db.read_record(T, rids[0]).unwrap(), rec(0, 0));
    assert_eq!(free(), before);
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

/// A release writes no log record. Restart redoes an insert into the
/// bytes two committed deletes gave back onto a page image forced
/// before their commit, which still holds both reservations.
#[test]
fn restart_redoes_an_insert_into_bytes_committed_deletes_released() {
    let db = db();
    // Fill data page 0 exactly: 26 + 26 + 34 + 7 × 18 record bytes.
    let tx = db.begin();
    let mut rids = Vec::new();
    for cols in [3, 3, 4, 2, 2, 2, 2, 2, 2, 2] {
        let row = Record::new(vec![rids.len() as i64; cols]);
        rids.push(db.insert_record(tx, T, &row).unwrap());
    }
    db.commit(tx).unwrap();
    let tx = db.begin();
    db.delete_record(tx, T, rids[0]).unwrap();
    db.delete_record(tx, T, rids[1]).unwrap();
    db.checkpoint().unwrap();
    db.commit(tx).unwrap();
    let tx = db.begin();
    let big = db.insert_record(tx, T, &Record::new(vec![9; 5])).unwrap();
    db.commit(tx).unwrap();
    assert_eq!(big, rids[0], "the insert took both released chunks");
    db.simulate_crash();
    db.restart().unwrap();
    assert_eq!(db.read_record(T, big).unwrap(), Record::new(vec![9; 5]));
    assert_eq!(db.table_scan(T).unwrap().len(), 9);
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

    let waits = db.locks.stats.waits.get();
    let db2 = Arc::clone(&db);
    let inserter = std::thread::spawn(move || {
        let tx = db2.begin();
        let rid = db2.insert_record(tx, T, &rec(7, 1)).unwrap();
        db2.commit(tx).unwrap();
        rid
    });
    // Commit only once the inserter waits on the deleter's record: the
    // lock manager counts a wait with the waiter already queued, so
    // the commit hands the lock over rather than racing the request.
    while db.locks.stats.waits.get() == waits {
        std::thread::yield_now();
    }
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

/// `wal.resident_bytes` is the log's real footprint: the chunks its
/// segments pack records' bytes into, free ones included, plus the slot
/// directory — counted, not estimated. A crash keeps at least the
/// flushed prefix, and the chunks a checkpoint's truncation frees serve
/// the appends after it.
#[test]
fn wal_resident_gauges_count_the_chunks_and_slots_the_log_holds() {
    let db = db();
    let gauge = |db: &Db, name: &str| db.obs.snapshot().counter(name).expect("registered gauge");
    let chunk = mohan_wal::log::CHUNK_BYTES as u64;
    // The gauge is the chunks and the slots; the chunks hold the stored
    // records `from..=to` in whole words, and at most one chunk a
    // segment more.
    let footprint = |db: &Db, from: u64, to: u64| {
        let resident = gauge(db, "wal.resident_bytes");
        assert_eq!(resident, db.wal.chunk_bytes() + db.wal.directory_bytes());
        assert_eq!(db.wal.chunk_bytes() % chunk, 0);
        assert!(db.wal.chunk_bytes() >= words_from(db, from, to));
        resident
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
    assert_eq!(gauge(&db, "wal.bytes"), encoded_sum_from(&db, 1, tail));
    footprint(&db, 1, tail);
    let segments = db.wal.directory_bytes() / (mohan_wal::log::SEGMENT_SLOTS * 8);
    assert_eq!(segments, 1);
    assert!(db.wal.chunk_bytes() < words_from(&db, 1, tail) + chunk);

    // An open transaction's tail burns in the crash, but its slots keep
    // their bytes until a truncation drops their segment: the gauge
    // does not fall at a crash.
    let tx = db.begin();
    db.insert_record(tx, T, &rec(-1, -1)).unwrap();
    let flushed = db.wal.flushed_lsn().0;
    assert_eq!(flushed, tail);
    let before = gauge(&db, "wal.resident_bytes");
    db.simulate_crash();
    assert_eq!(db.wal.tail_lsn().0, flushed);
    assert_eq!(footprint(&db, 1, flushed), before);
    db.restart().unwrap();

    // A checkpoint truncates: the records and the slots fall, and the
    // dropped segments' chunks go to the free list, still counted.
    let more = |db: &Db| {
        for batch in 0..4 {
            let tx = db.begin();
            for k in 0..1_000 {
                db.insert_record(tx, T, &rec(10_000 + batch * 1_000 + k, k))
                    .unwrap();
            }
            db.commit(tx).unwrap();
        }
    };
    more(&db);
    let (bytes, records, chunks) = (
        gauge(&db, "wal.resident_bytes"),
        gauge(&db, "wal.resident_records"),
        db.wal.chunk_bytes(),
    );
    db.checkpoint().unwrap();
    let first = db.wal.first_lsn().0;
    let tail = db.wal.tail_lsn().0;
    assert_eq!(first, tail, "only the checkpoint record is still needed");
    assert_eq!(gauge(&db, "wal.first_lsn"), first);
    assert!(gauge(&db, "wal.resident_bytes") < bytes);
    assert!(gauge(&db, "wal.resident_records") < records);
    assert!(db.wal.free_chunks() > 0);
    assert!(db.wal.chunk_bytes() >= chunks);
    let truncated = gauge(&db, "wal.truncated_records");
    assert!(truncated > 0);
    assert_eq!(
        gauge(&db, "wal.resident_records"),
        gauge(&db, "wal.records") - truncated
    );
    // Every record still readable is counted, and nothing more than a
    // segment's worth below the first LSN.
    let held = gauge(&db, "wal.resident_records");
    assert!(held > tail - first && held - (tail - first + 1) < mohan_wal::log::SEGMENT_SLOTS);
    footprint(&db, first, tail);
    // The next records go into the freed chunks: the log allocates one
    // only once none is free.
    let (chunks, appended) = (db.wal.chunk_bytes(), gauge(&db, "wal.bytes"));
    more(&db);
    let appended = gauge(&db, "wal.bytes") - appended;
    assert!(db.wal.free_chunks() == 0 || db.wal.chunk_bytes() == chunks);
    assert!(db.wal.chunk_bytes() - chunks < appended);
    db.checkpoint().unwrap();
    assert!(gauge(&db, "wal.truncated_records") > truncated);
}

/// The stored size of records `from..=to`, re-encoded from `get`.
fn encoded_sum_from(db: &Db, from: u64, to: u64) -> u64 {
    let mut buf = Vec::new();
    (from..=to)
        .map(|lsn| {
            let rec = db.wal.get(mohan_common::Lsn(lsn)).expect("held record");
            buf.clear();
            mohan_wal::encode_record(&rec, &mut buf);
            buf.len() as u64
        })
        .sum()
}

/// What records `from..=to` take in the log's chunks: each stored
/// encoding in whole words.
fn words_from(db: &Db, from: u64, to: u64) -> u64 {
    (from..=to)
        .map(|lsn| encoded_sum_from(db, lsn, lsn).next_multiple_of(8))
        .sum()
}

/// A checkpoint taken while a writer runs flat out succeeds every time:
/// a heap page the writer changes after the checkpoint's log flush is
/// written once the log is forced through the page's LSN, not refused
/// as a WAL violation.
#[test]
fn checkpoints_racing_a_writer_succeed() {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    let rids = seed(&db, 4_000);
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let stop = AtomicBool::new(false);
    let writes = AtomicU64::new(0);
    let mut checkpoints = 0u64;
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut n = 0i64;
            while !stop.load(Ordering::Acquire) {
                // Rows all over the table: every page the checkpoint
                // has yet to reach may change under it.
                let i = (n * 7_919) as usize % rids.len();
                let tx = db.begin();
                db.update_record(tx, T, rids[i], &rec(i as i64, n)).unwrap();
                db.commit(tx).unwrap();
                n += 1;
                writes.fetch_add(1, Ordering::Release);
            }
        });
        // However the two threads are scheduled, the checkpoints span
        // thousands of the writer's commits.
        while checkpoints < 40 || writes.load(Ordering::Acquire) < 4_000 {
            if let Err(e) = db.checkpoint() {
                stop.store(true, Ordering::Release);
                panic!("checkpoint {checkpoints} failed under a writer: {e}");
            }
            checkpoints += 1;
        }
        stop.store(true, Ordering::Release);
    });
    let snap = db.obs.snapshot();
    assert_eq!(snap.counter("checkpoint.count"), Some(checkpoints));
    assert_eq!(snap.counter("checkpoint.failed"), Some(0));
    db.simulate_crash();
    db.restart().unwrap();
    assert_eq!(db.table_scan(T).unwrap().len(), rids.len());
}

/// `begin` registers a transaction before it appends its begin record,
/// so a checkpoint that runs in between (placed there by a hook) keeps
/// the record: after a crash, analysis finds the transaction and its
/// delete is undone.
#[test]
fn a_checkpoint_between_registration_and_begin_record_keeps_the_record() {
    let db = db();
    let rids = seed(&db, 20);
    let hook_db = Arc::clone(&db);
    db.failpoints.arm_hook(
        mohan_oib::engine::BEGIN_REGISTERED_FAILPOINT,
        0,
        move || {
            // Committed work, then a checkpoint that truncates all of
            // it: the registered transaction has not logged anything.
            let tx = hook_db.begin();
            hook_db.insert_record(tx, T, &rec(99, 99)).unwrap();
            hook_db.commit(tx).unwrap();
            hook_db.checkpoint().unwrap();
        },
    );
    let tx = db.begin();
    let begun = db.wal.tail_lsn();
    assert_eq!(db.wal.get(begun).unwrap().tx, tx, "the begin record");
    assert!(
        db.wal.first_lsn() <= begun,
        "the begin record was truncated"
    );
    db.delete_record(tx, T, rids[3]).unwrap();
    db.wal.flush_all();
    db.simulate_crash();
    let stats = db.restart().unwrap();
    assert_eq!(stats.losers, 1);
    assert_eq!(db.read_record(T, rids[3]).unwrap(), rec(3, 30));
}

/// Every transaction with a record after `from`: walking `prev` from
/// its newest record visits exactly its records, newest first, and
/// stops at its `TxBegin`. Returns how many transactions it walked.
fn assert_prev_chains(db: &Db, from: Lsn) -> usize {
    let mut records: BTreeMap<TxId, Vec<Lsn>> = BTreeMap::new();
    for r in db.wal.iter_from(from) {
        if r.tx != TxId(0) {
            records.entry(r.tx).or_default().push(r.lsn);
        }
    }
    for (tx, lsns) in &records {
        let mut walked = Vec::new();
        let mut cur = *lsns.last().expect("a transaction's records");
        let mut oldest = None;
        while cur.is_valid() {
            let r = db.wal.get(cur).expect("a chained record is in the log");
            assert_eq!(r.tx, *tx, "{tx}'s chain crossed into another");
            walked.push(cur);
            cur = r.prev;
            oldest = Some(r.payload);
        }
        walked.reverse();
        assert_eq!(&walked, lsns, "{tx}'s chain");
        assert!(
            matches!(oldest, Some(LogPayload::TxBegin)),
            "{tx}'s chain ends at {oldest:?}"
        );
    }
    records.len()
}

/// Each transaction's records form one `prev` chain, on an indexed
/// table: auto-commit statements through a session, a multi-statement
/// commit, a rollback (its CLRs, and the Figure 2 compensations of an
/// index built while it was open), and an NSF build's commit cycles.
#[test]
fn each_transaction_s_records_form_one_prev_chain() {
    let db = db();
    let rids = seed(&db, 200);
    let first = build_index(&db, T, spec("k", false), BuildAlgorithm::Sf).unwrap();

    let from = db.wal.tail_lsn();
    let mut s = Session::new(Arc::clone(&db));
    let rid = s.insert(T, &rec(1_000, 0)).unwrap();
    s.update(T, rid, &rec(1_001, 0)).unwrap();
    s.delete(T, rid).unwrap();
    assert_eq!(assert_prev_chains(&db, from), 3, "auto-commit statements");

    let from = db.wal.tail_lsn();
    s.begin().unwrap();
    let rid = s.insert(T, &rec(2_000, 0)).unwrap();
    s.update(T, rids[0], &rec(2_001, 0)).unwrap();
    s.delete(T, rid).unwrap();
    s.commit().unwrap();
    assert_eq!(assert_prev_chains(&db, from), 1, "a multi-statement commit");

    // The second index is built, and complete, between the forward
    // changes and their rollback: Figure 2 compensates it directly.
    let from = db.wal.tail_lsn();
    let tx = db.begin();
    db.update_record(tx, T, rids[1], &rec(3_001, 0)).unwrap();
    db.delete_record(tx, T, rids[2]).unwrap();
    let second = build_index(&db, T, spec("k2", false), BuildAlgorithm::Sf).unwrap();
    let from_rollback = db.wal.tail_lsn();
    db.rollback(tx).unwrap();
    let compensated = db
        .wal
        .iter_from(from_rollback)
        .filter(|r| r.tx == tx && r.kind == RecKind::RedoOnly)
        .filter(|r| matches!(&r.payload, LogPayload::IndexInsert { index, .. } | LogPayload::IndexPseudoDelete { index, .. } if *index == second))
        .count();
    assert_eq!(
        compensated, 3,
        "the update's two key ops and the delete's one"
    );
    // The rolled-back transaction and the build's load and drain.
    assert_eq!(
        assert_prev_chains(&db, from),
        3,
        "a rollback beside a build"
    );
    assert_eq!(db.read_record(T, rids[1]).unwrap(), rec(1, 10));
    assert_eq!(db.read_record(T, rids[2]).unwrap(), rec(2, 20));

    // The descriptor's quiesce transaction, and the builder's four: 200
    // keys at a checkpoint every 64 make three commit cycles.
    let from = db.wal.tail_lsn();
    let third = build_index(&db, T, spec("k3", false), BuildAlgorithm::Nsf).unwrap();
    assert_eq!(assert_prev_chains(&db, from), 5, "an NSF build");

    // Restart: a loser's undo chains through the same entry, now one
    // analysis registered. The fourth index is built, and complete,
    // after the loser's changes: undo compensates it (Figure 2).
    let from = db.wal.tail_lsn();
    let loser = db.begin();
    db.update_record(loser, T, rids[3], &rec(4_001, 0)).unwrap();
    db.delete_record(loser, T, rids[4]).unwrap();
    let fourth = build_index(&db, T, spec("k4", false), BuildAlgorithm::Sf).unwrap();
    db.simulate_crash();
    let stats = db.restart().unwrap();
    assert_eq!(stats.losers, 1);
    assert_eq!(db.active_txs(), 0);
    let end = db
        .wal
        .iter_from(from)
        .filter(|r| r.tx == loser)
        .last()
        .expect("the loser's records");
    assert_eq!(end.payload, LogPayload::TxEnd, "the loser's newest record");
    let undone = db.wal.iter_from(from).filter(|r| r.tx == loser);
    let (mut clrs, mut compensated) = (0, 0);
    for r in undone {
        clrs += usize::from(matches!(r.kind, RecKind::Clr { .. }));
        compensated += usize::from(
            r.kind == RecKind::RedoOnly
                && matches!(&r.payload, LogPayload::IndexInsert { index, .. } | LogPayload::IndexPseudoDelete { index, .. } if *index == fourth),
        );
    }
    // The two heap records and their key records in the three indexes
    // the loser maintained: the update's two key ops, the delete's one.
    assert_eq!(clrs, 2 + 3 * 3, "one CLR per undone record");
    assert_eq!(
        compensated, 3,
        "the update's two key ops and the delete's one"
    );
    // The loser, and the build's load and drain.
    assert_eq!(
        assert_prev_chains(&db, from),
        3,
        "a loser undone at restart"
    );
    assert_eq!(db.read_record(T, rids[3]).unwrap(), rec(3, 30));
    assert_eq!(db.read_record(T, rids[4]).unwrap(), rec(4, 40));
    for idx in [first, second, third, fourth] {
        verify_index(&db, idx).unwrap();
    }
}

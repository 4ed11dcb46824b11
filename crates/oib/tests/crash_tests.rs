//! Crash/resume tests: kill the index builder at every phase (scan,
//! merge, NSF insert, SF load, SF drain), run restart recovery, resume
//! the build, and prove the finished index is exactly right — the
//! paper's §2.2.3 / §3.2.4 / §5 restartability machinery end to end.

use mohan_common::{EngineConfig, Error, Lsn, Rid, TableId};
use mohan_oib::build::{build_index, resume_build, IndexSpec};
use mohan_oib::checkpointer::CHECKPOINT_TRIGGER_BYTES;
use mohan_oib::engine::{CHECKPOINT_BEGIN_FAILPOINT, CHECKPOINT_FORCED_FAILPOINT};
use mohan_oib::progress::{self, BuildProgress};
use mohan_oib::runtime::IndexState;
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const T: TableId = TableId(1);

fn db() -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    db
}

fn rec(k: i64, v: i64) -> Record {
    Record::new(vec![k, v])
}

fn spec(unique: bool) -> IndexSpec {
    IndexSpec {
        name: "crashy".into(),
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

/// Crash the build at `site` after `skip` hits, restart, resume
/// (possibly several times if resuming re-hits armed sites), verify.
fn crash_resume_cycle(db: &Arc<Db>, algorithm: BuildAlgorithm, site: &'static str, skip: u64) {
    db.failpoints.arm_after(site, skip);
    let err = build_index(db, T, spec(false), algorithm).unwrap_err();
    assert!(err.is_crash(), "expected crash, got {err}");
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;
    resume_build(db, id).unwrap();
    let idx = db.index(id).unwrap();
    assert_eq!(idx.state(), IndexState::Complete);
    verify_index(db, id).unwrap();
}

#[test]
fn nsf_crash_during_scan_resumes() {
    let db = db();
    seed(&db, 300);
    crash_resume_cycle(&db, BuildAlgorithm::Nsf, "build.scan", 1);
}

#[test]
fn sf_crash_during_scan_resumes() {
    let db = db();
    seed(&db, 300);
    crash_resume_cycle(&db, BuildAlgorithm::Sf, "build.scan", 1);
}

#[test]
fn crash_before_any_checkpoint_restarts_from_scratch() {
    let db = db();
    seed(&db, 100);
    crash_resume_cycle(&db, BuildAlgorithm::Sf, "build.scan.record", 5);
}

#[test]
fn nsf_crash_during_insert_phase_resumes() {
    let db = db();
    seed(&db, 300);
    crash_resume_cycle(&db, BuildAlgorithm::Nsf, "build.insert", 1);
}

#[test]
fn nsf_crash_mid_key_between_checkpoints_resumes() {
    let db = db();
    seed(&db, 300);
    crash_resume_cycle(&db, BuildAlgorithm::Nsf, "nsf.insert.key", 150);
}

#[test]
fn sf_crash_during_bulk_load_resumes() {
    let db = db();
    seed(&db, 300);
    crash_resume_cycle(&db, BuildAlgorithm::Sf, "build.load", 1);
}

#[test]
fn sf_crash_mid_load_key_resumes() {
    let db = db();
    seed(&db, 300);
    crash_resume_cycle(&db, BuildAlgorithm::Sf, "sf.load.key", 200);
}

#[test]
fn sf_crash_during_drain_resumes() {
    let db = db();
    let rids = seed(&db, 300);
    // Deterministic side-file population: crash mid-scan first. After
    // restart the conservative cursor makes *every* update visible, so
    // committed updates before the resume land in the side-file.
    db.failpoints.arm("build.scan");
    let err = build_index(&db, T, spec(false), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;

    let tx = db.begin();
    for k in 0..40 {
        db.insert_record(tx, T, &rec(700_000 + k, 2)).unwrap();
        db.delete_record(tx, T, rids[(k * 5) as usize]).unwrap();
    }
    db.commit(tx).unwrap();
    let appends = db
        .wal
        .side_file_appends(id, Lsn(db.wal.first_lsn().0 - 1), db.wal.tail_lsn())
        .count();
    assert!(appends >= 80, "{appends} side-file appends");

    // Now crash in the drain itself, twice (mid-op and at the
    // checkpoint), resuming each time.
    db.failpoints.arm_after("sf.drain.op", 10);
    let err = resume_build(&db, id).unwrap_err();
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();
    db.failpoints.arm("build.drain");
    let err = resume_build(&db, id).unwrap_err();
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();
    resume_build(&db, id).unwrap();
    verify_index(&db, id).unwrap();
}

fn drain_lag(db: &Db) -> u64 {
    db.obs.snapshot().counter("build.drain_lag").unwrap()
}

/// `build.drain_lag` after a restart counts the appends the crash left
/// undrained: all of them before the drain starts, and those past the
/// `Draining { pos }` record once a pass has committed.
#[test]
fn drain_lag_counts_the_backlog_a_crash_left() {
    let db = db();
    seed(&db, 300);
    db.failpoints.arm("build.scan");
    let err = build_index(&db, T, spec(false), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;
    let insert = |from: i64, n: i64| {
        let tx = db.begin();
        for k in from..from + n {
            db.insert_record(tx, T, &rec(900_000 + k, 4)).unwrap();
        }
        db.commit(tx).unwrap();
    };

    insert(0, 20);
    assert_eq!(drain_lag(&db), 20);
    db.simulate_crash();
    db.restart().unwrap();
    assert_eq!(drain_lag(&db), 20, "no drain pass ran: every append");

    // The first pass drains all 20 and stores its position, then dies.
    db.failpoints.arm("build.drain");
    let err = resume_build(&db, id).unwrap_err();
    assert!(err.is_crash());
    insert(20, 7);
    db.simulate_crash();
    db.restart().unwrap();
    assert!(matches!(
        progress::load(&db, id).unwrap(),
        Some(BuildProgress::Draining { pos }) if pos > 0
    ));
    assert_eq!(drain_lag(&db), 7, "the appends past the drain's position");

    resume_build(&db, id).unwrap();
    assert_eq!(drain_lag(&db), 0);
    assert_eq!(db.index(id).unwrap().side_file.backlog(), 0);
    verify_index(&db, id).unwrap();
}

/// SF frees its runs once the `Draining` record is stored: a crash at
/// the first drained operation resumes from that record alone.
#[test]
fn sf_crash_after_the_draining_record_resumes_without_runs() {
    let db = db();
    seed(&db, 300);
    // Crash mid-scan: after restart every update goes to the side-file.
    db.failpoints.arm("build.scan");
    let err = build_index(&db, T, spec(false), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;
    let tx = db.begin();
    for k in 0..20 {
        db.insert_record(tx, T, &rec(800_000 + k, 3)).unwrap();
    }
    db.commit(tx).unwrap();

    db.failpoints.arm("sf.drain.op");
    let err = resume_build(&db, id).unwrap_err();
    assert!(err.is_crash());
    assert!(matches!(
        progress::load(&db, id).unwrap(),
        Some(BuildProgress::Draining { pos: 0 })
    ));
    assert!(db.index(id).unwrap().sort_store.run_ids().is_empty());
    db.simulate_crash();
    db.restart().unwrap();
    resume_build(&db, id).unwrap();
    assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
    verify_index(&db, id).unwrap();
}

#[test]
fn crashed_offline_build_leaves_nothing_after_restart() {
    // The offline baseline restarts from scratch: restart cancels the
    // crashed build's registered index after undo, and removes it with
    // its progress record.
    let db = db();
    seed(&db, 300);
    db.failpoints.arm_after("build.scan", 2);
    let err = build_index(&db, T, spec(false), BuildAlgorithm::Offline).unwrap_err();
    assert!(err.is_crash(), "expected crash, got {err}");
    db.simulate_crash();
    db.restart().unwrap();
    let build_keys = || -> Vec<String> {
        let mut keys = db.blobs.keys();
        keys.retain(|k| k.starts_with("build/"));
        keys
    };
    assert_eq!(build_keys(), Vec::<String>::new());
    assert!(db.indexes_of(T).is_empty(), "no descriptor");
    let id = build_index(&db, T, spec(false), BuildAlgorithm::Offline).unwrap();
    verify_index(&db, id).unwrap();
    assert_eq!(build_keys(), Vec::<String>::new());
}

#[test]
fn an_offline_build_crashed_past_a_load_checkpoint_leaves_nothing_after_restart() {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        build_checkpoint_every_keys: 100,
        ..EngineConfig::small()
    });
    db.create_table(T);
    seed(&db, 1_000);
    // Die at the second load checkpoint: the first stored its record.
    db.failpoints.arm_after("build.load", 1);
    let err = build_index(&db, T, spec(true), BuildAlgorithm::Offline).unwrap_err();
    assert!(err.is_crash(), "expected crash, got {err}");
    let id = db
        .indexes_of(T)
        .pop()
        .expect("registered before its scan")
        .def
        .id;
    assert!(matches!(
        progress::load(&db, id).unwrap(),
        Some(BuildProgress::Loading { ref merge, .. }) if merge.emitted > 0
    ));
    db.simulate_crash();
    db.restart().unwrap();
    let mut keys = db.blobs.keys();
    keys.retain(|k| k.starts_with("build/"));
    assert_eq!(keys, Vec::<String>::new());
    assert!(db.indexes_of(T).is_empty(), "no descriptor");
    assert!(matches!(db.index(id), Err(Error::NoSuchIndex(_))));
    assert_eq!(db.active_txs(), 0);
    let id = build_index(&db, T, spec(true), BuildAlgorithm::Offline).unwrap();
    assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
    verify_index(&db, id).unwrap();
}

#[test]
fn repeated_crashes_across_phases_still_converge() {
    let db = db();
    seed(&db, 400);
    // First crash in the scan.
    db.failpoints.arm_after("build.scan", 0);
    let err = build_index(&db, T, spec(false), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash());
    let id = db.indexes_of(T).last().unwrap().def.id;

    // Second crash in the load.
    db.simulate_crash();
    db.restart().unwrap();
    db.failpoints.arm("build.load");
    let err = resume_build(&db, id).unwrap_err();
    assert!(err.is_crash());

    // Third crash in the drain.
    db.simulate_crash();
    db.restart().unwrap();
    db.failpoints.arm("sf.drain.op");
    match resume_build(&db, id) {
        Err(e) => {
            assert!(e.is_crash());
            db.simulate_crash();
            db.restart().unwrap();
            resume_build(&db, id).unwrap();
        }
        Ok(()) => {
            // Empty side-file: the drain-op site never fired. Done.
            db.failpoints.clear();
        }
    }
    verify_index(&db, id).unwrap();
}

#[test]
fn crash_with_concurrent_updates_then_resume_is_exact() {
    // The full gauntlet: churn + crash mid-build + loser transactions
    // at the crash + resume + verify. Run for both algorithms.
    for algorithm in [BuildAlgorithm::Nsf, BuildAlgorithm::Sf] {
        let db = db();
        seed(&db, 300);
        let stop = Arc::new(AtomicBool::new(false));
        let db2 = Arc::clone(&db);
        let stop2 = Arc::clone(&stop);
        let churn = std::thread::spawn(move || {
            let mut k = 500_000i64;
            while !stop2.load(Ordering::Relaxed) {
                let tx = db2.begin();
                k += 1;
                let ok = db2.insert_record(tx, T, &rec(k, 0)).is_ok();
                if ok && k % 3 == 0 {
                    let _ = db2.rollback(tx);
                } else {
                    let _ = db2.commit(tx);
                }
            }
        });
        // Crash somewhere in the middle of the pipeline.
        let site = match algorithm {
            BuildAlgorithm::Nsf => "nsf.insert.key",
            _ => "sf.load.key",
        };
        db.failpoints.arm_after(site, 100);
        let err = build_index(&db, T, spec(false), algorithm).unwrap_err();
        assert!(err.is_crash(), "{algorithm:?}");
        stop.store(true, Ordering::Relaxed);
        churn.join().unwrap();

        db.simulate_crash();
        db.restart().unwrap();
        let id = db.indexes_of(T).last().unwrap().def.id;
        resume_build(&db, id).unwrap();
        verify_index(&db, id).unwrap();
    }
}

#[test]
fn unique_build_crash_resume_detects_violation_after_restart() {
    let db = db();
    seed(&db, 100);
    // Create a duplicate pair that the resumed build must detect.
    let tx = db.begin();
    db.insert_record(tx, T, &rec(42, 7)).unwrap(); // key 42 duplicates seed
    db.commit(tx).unwrap();

    db.failpoints.arm("build.scan");
    let err = build_index(&db, T, spec(true), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;
    let err = resume_build(&db, id).unwrap_err();
    assert!(matches!(err, Error::UniqueViolation { .. }));
    // The cancelled build leaves no descriptor.
    assert!(db.index(id).is_err());
}

#[test]
fn checkpoint_interval_bounds_rescan_work() {
    // Quantitative restartability: with frequent checkpoints, the
    // resumed scan re-reads only the tail of the table.
    let db = Db::new(EngineConfig {
        build_checkpoint_every_keys: 50,
        ..EngineConfig::small()
    });
    db.create_table(T);
    seed(&db, 500);

    // Crash after the 8th checkpoint (~400 records in).
    db.failpoints.arm_after("build.scan", 7);
    let err = build_index(&db, T, spec(false), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();

    let table = db.table(T).unwrap();
    let scanned_before_resume = table.stats.scan_pages.get();
    let id = db.indexes_of(T).last().unwrap().def.id;
    resume_build(&db, id).unwrap();
    let rescanned = table.stats.scan_pages.get() - scanned_before_resume;
    let total_pages = table.num_pages() as u64;
    assert!(
        rescanned < total_pages / 2,
        "resume rescanned {rescanned} of {total_pages} pages — checkpoints not honoured"
    );
    verify_index(&db, id).unwrap();
}

#[test]
fn loser_ib_transaction_is_undone_at_restart() {
    // Crash the NSF insert phase between IB checkpoints with the log
    // fully flushed (a busy system's log would be): the IB's
    // uncommitted bulk inserts are durable, so restart must actively
    // undo them (IndexBulkRemove CLRs), and the resume re-inserts the
    // tail.
    let db = Db::new(EngineConfig {
        build_checkpoint_every_keys: 100,
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    seed(&db, 300);
    db.failpoints.arm_after("nsf.insert.key", 150);
    let err = build_index(&db, T, spec(false), BuildAlgorithm::Nsf).unwrap_err();
    assert!(err.is_crash());
    db.wal.flush_all();
    db.simulate_crash();
    let stats = db.restart().unwrap();
    assert!(stats.losers >= 1, "the in-flight IB transaction must lose");
    let id = db.indexes_of(T).last().unwrap().def.id;
    resume_build(&db, id).unwrap();
    verify_index(&db, id).unwrap();
}

#[test]
fn restart_redo_is_bounded_by_the_last_checkpoint() {
    // Regression: recovery used to scan the whole log from LSN 1 on
    // every restart, so redo work grew with total history instead of
    // with what happened since the last checkpoint.
    let db = db();

    // A long committed history, then a checkpoint that forces every
    // dirty page (so none of this needs redoing again)…
    for batch in 0..20 {
        let tx = db.begin();
        for k in 0..100 {
            db.insert_record(tx, T, &rec(batch * 100 + k, 1)).unwrap();
        }
        db.commit(tx).unwrap();
    }
    db.wal.flush_all();
    let pre_checkpoint = db.wal.flushed_lsn();
    db.checkpoint().unwrap();

    // …then a small post-checkpoint tail.
    let tx = db.begin();
    for k in 0..10 {
        db.insert_record(tx, T, &rec(1_000_000 + k, 1)).unwrap();
    }
    db.commit(tx).unwrap();
    db.wal.flush_all();

    db.simulate_crash();
    let stats = db.restart().unwrap();

    // Redo started at the checkpoint's bound, not LSN 1, and the work
    // done is O(post-checkpoint records) — far below the >2000-record
    // pre-checkpoint history.
    assert!(
        stats.redo_start >= pre_checkpoint,
        "redo started at {} — before the checkpoint horizon at {}",
        stats.redo_start.0,
        pre_checkpoint.0
    );
    assert!(
        stats.redone <= 50,
        "{} records redone — restart scales with total log length",
        stats.redone
    );

    // Nothing was lost to the shortcut.
    assert_eq!(db.table_scan(T).unwrap().len(), 2_010);
}

/// Restart reads the log from the last checkpoint's truncation point
/// on. With a checkpoint every `M` operations and none left open across
/// the last, analysis reads exactly the records since it, and redo
/// exactly those too — not the ten rounds before.
#[test]
fn restart_reads_exactly_the_records_since_the_last_checkpoint() {
    const M: i64 = 300;
    let db = db();
    let insert = |k: i64| {
        let tx = db.begin();
        db.insert_record(tx, T, &rec(k, 1)).unwrap();
        db.commit(tx).unwrap();
    };
    for round in 0..10 {
        for k in 0..M {
            insert(round * M + k);
        }
        db.checkpoint().unwrap();
    }
    // The checkpoint record is all the last checkpoint kept.
    let since = db.wal.tail_lsn();
    assert_eq!(db.wal.first_lsn(), since);
    for k in 0..M / 2 {
        insert(10 * M + k);
    }
    let in_flight = db.begin();
    for k in 0..7 {
        db.insert_record(in_flight, T, &rec(-k - 1, 1)).unwrap();
    }
    db.wal.flush_all();
    let tail = db.wal.tail_lsn();
    db.simulate_crash();
    let stats = db.restart().unwrap();
    assert_eq!(stats.analyzed, tail.0 - since.0 + 1);
    assert_eq!(stats.redone, tail.0 - since.0 + 1);
    assert_eq!(stats.losers, 1);
    assert_eq!(db.table_scan(T).unwrap().len() as i64, 10 * M + M / 2);
}

/// An engine with rows wide enough that an update logs ≈ 3 KiB, and an
/// index on them.
fn wide_db() -> (Arc<Db>, Vec<Rid>, mohan_common::IndexId) {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..EngineConfig::default()
    });
    db.create_table(T);
    let tx = db.begin();
    let rids = (0..16)
        .map(|k| db.insert_record(tx, T, &wide(k, 0)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    let id = build_index(&db, T, spec(false), BuildAlgorithm::Offline).unwrap();
    (db, rids, id)
}

fn wide(k: i64, v: i64) -> Record {
    let mut cols = vec![k, v];
    cols.resize(200, v);
    Record::new(cols)
}

/// Autocommit updates of `rids`, round after round, until `done`; the
/// background checkpointer sees the log grow. Returns the rows' last
/// values.
fn update_until(db: &Arc<Db>, rids: &[Rid], mut done: impl FnMut() -> bool) -> Vec<Record> {
    let limit = db.wal.stats.bytes.get() + 32 * CHECKPOINT_TRIGGER_BYTES;
    let mut last: Vec<Record> = rids
        .iter()
        .map(|&r| db.read_record(T, r).unwrap())
        .collect();
    for v in 1.. {
        for (k, &rid) in rids.iter().enumerate() {
            let tx = db.begin();
            last[k] = wide(k as i64, v);
            db.update_record(tx, T, rid, &last[k]).unwrap();
            db.commit(tx).unwrap();
            if done() {
                return last;
            }
        }
        assert!(db.wal.stats.bytes.get() < limit, "no background checkpoint");
    }
    unreachable!()
}

fn counter(db: &Db, name: &str) -> u64 {
    db.obs.snapshot().counter(name).unwrap()
}

/// The background checkpointer dies between forcing the pages and
/// writing its record; the engine then crashes. Restart starts from the
/// log as the failed checkpoint left it, and loses nothing.
#[test]
fn a_crash_inside_a_background_checkpoint_recovers() {
    let (db, rids, id) = wide_db();
    db.failpoints.arm(CHECKPOINT_FORCED_FAILPOINT);
    let want = update_until(&db, &rids, || counter(&db, "checkpoint.failed") == 1);
    assert_eq!(counter(&db, "checkpoint.count"), 0);
    assert_eq!(
        db.wal.first_lsn(),
        Lsn(1),
        "a failed checkpoint truncates nothing"
    );
    db.simulate_crash();
    let stats = db.restart().unwrap();
    assert_eq!(stats.redo_start, Lsn::NULL);
    let got: Vec<Record> = rids
        .iter()
        .map(|&r| db.read_record(T, r).unwrap())
        .collect();
    assert_eq!(got, want);
    verify_index(&db, id).unwrap();
}

/// A checkpoint record written after a crash would tell restart to skip
/// redo it has not done, so none is. The background checkpointer is
/// held at the start of a checkpoint while the engine crashes; let go,
/// it is refused, as is an explicit checkpoint; after restart both run.
#[test]
fn no_checkpoint_runs_between_a_crash_and_the_end_of_restart() {
    let (db, rids, id) = wide_db();
    let (entered, started) = std::sync::mpsc::channel();
    let (go, release) = std::sync::mpsc::channel::<()>();
    db.failpoints
        .arm_hook(CHECKPOINT_BEGIN_FAILPOINT, 0, move || {
            entered.send(()).unwrap();
            release.recv().unwrap();
        });
    let want = update_until(&db, &rids, || started.try_recv().is_ok());
    db.wal.flush_all();
    db.simulate_crash();
    let crashed_at = db.wal.tail_lsn();
    assert!(
        db.checkpoint().is_err(),
        "an explicit checkpoint is refused"
    );
    go.send(()).unwrap();
    while counter(&db, "checkpoint.failed") < 2 {
        std::thread::yield_now();
    }
    assert_eq!(counter(&db, "checkpoint.count"), 0);
    assert_eq!(db.wal.tail_lsn(), crashed_at, "nothing was written");

    let stats = db.restart().unwrap();
    assert_eq!(stats.redo_start, Lsn::NULL);
    let got: Vec<Record> = rids
        .iter()
        .map(|&r| db.read_record(T, r).unwrap())
        .collect();
    assert_eq!(got, want);
    verify_index(&db, id).unwrap();
    db.checkpoint().unwrap();
    // And the background one, once the log has grown by the trigger
    // again.
    let before = counter(&db, "checkpoint.count");
    update_until(&db, &rids, || counter(&db, "checkpoint.count") > before);
}

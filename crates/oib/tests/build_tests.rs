//! Online index builds (NSF and SF) under concurrent update
//! transactions — the paper's core claim: the finished index always
//! agrees with the table, with no quiesce (SF) or only a short
//! descriptor-create quiesce (NSF).

use mohan_common::{EngineConfig, Error, KeyValue, Rid, TableId};
use mohan_oib::build::{build_index, build_indexes, drop_index, IndexSpec};
use mohan_oib::gc::garbage_collect;
use mohan_oib::runtime::IndexState;
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::{verify_all, verify_index};
use mohan_oib::Db;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
        .map(|k| db.insert_record(tx, T, &rec(k, 0)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    rids
}

/// Run `updaters` threads doing a random insert/delete/update mix
/// (with occasional rollbacks) until `stop` is set; returns when all
/// have finished. Key space is partitioned per thread so unique
/// indexes stay satisfiable. Each thread returns its operation count
/// and what every failed `rollback` said (such a transaction stays
/// open, locks held).
fn churn(
    db: &Arc<Db>,
    stop: &Arc<AtomicBool>,
    updaters: usize,
    base_key: i64,
) -> Vec<std::thread::JoinHandle<(u64, Vec<String>)>> {
    (0..updaters)
        .map(|u| {
            let db = Arc::clone(db);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + u as u64);
                let mut mine: Vec<Rid> = Vec::new();
                let mut next_key = base_key + (u as i64) * 1_000_000;
                let mut ops = 0u64;
                let mut rollback_failures = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let tx = db.begin();
                    let roll = rng.random_bool(0.15);
                    let mut op_err = None;
                    for _ in 0..rng.random_range(1..4) {
                        let action = rng.random_range(0..3);
                        let res: Result<(), Error> = match action {
                            0 => {
                                next_key += 1;
                                db.insert_record(tx, T, &rec(next_key, 7)).map(|rid| {
                                    if !roll {
                                        mine.push(rid);
                                    }
                                })
                            }
                            1 if !mine.is_empty() => {
                                let i = rng.random_range(0..mine.len());
                                let rid = mine[i];
                                match db.delete_record(tx, T, rid) {
                                    Ok(_) => {
                                        if !roll {
                                            mine.swap_remove(i);
                                        }
                                        Ok(())
                                    }
                                    Err(e) => Err(e),
                                }
                            }
                            _ if !mine.is_empty() => {
                                let rid = mine[rng.random_range(0..mine.len())];
                                next_key += 1;
                                db.update_record(tx, T, rid, &rec(next_key, 9)).map(|_| ())
                            }
                            _ => Ok(()),
                        };
                        if let Err(e) = res {
                            op_err = Some(e);
                            break;
                        }
                        ops += 1;
                    }
                    if op_err.is_none() && !roll {
                        let _ = db.commit(tx);
                    } else if let Err(e) = db.rollback(tx) {
                        rollback_failures.push(match &op_err {
                            Some(op) => format!("{tx:?} after `{op}`: {e}"),
                            None => format!("{tx:?}: {e}"),
                        });
                    }
                }
                (ops, rollback_failures)
            })
        })
        .collect()
}

fn online_build_with_churn(algorithm: BuildAlgorithm, unique: bool) {
    let db = db();
    seed(&db, 400);
    let stop = Arc::new(AtomicBool::new(false));
    let handles = churn(&db, &stop, 3, 10_000);
    // Let the churn get going.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let built = build_index(&db, T, spec("online", unique), algorithm);
    stop.store(true, Ordering::Relaxed);
    let (mut total_ops, mut rollback_failures) = (0, Vec::new());
    for h in handles {
        let (ops, failures) = h.join().unwrap();
        total_ops += ops;
        rollback_failures.extend(failures);
    }
    let failed = format!("failed rollbacks: {rollback_failures:#?}");
    let idx = built.unwrap_or_else(|e| panic!("build: {e}; {failed}"));
    assert!(total_ops > 0, "churn never ran");
    assert_eq!(db.active_txs(), 0, "leaked a transaction; {failed}");
    verify_index(&db, idx).unwrap();
}

#[test]
fn nsf_build_with_concurrent_updates_is_correct() {
    online_build_with_churn(BuildAlgorithm::Nsf, false);
}

#[test]
fn sf_build_with_concurrent_updates_is_correct() {
    online_build_with_churn(BuildAlgorithm::Sf, false);
}

#[test]
fn nsf_unique_build_with_concurrent_updates_is_correct() {
    online_build_with_churn(BuildAlgorithm::Nsf, true);
}

#[test]
fn sf_unique_build_with_concurrent_updates_is_correct() {
    online_build_with_churn(BuildAlgorithm::Sf, true);
}

#[test]
fn all_three_algorithms_agree_on_quiet_tables() {
    for algo in [
        BuildAlgorithm::Offline,
        BuildAlgorithm::Nsf,
        BuildAlgorithm::Sf,
    ] {
        let db = db();
        seed(&db, 300);
        let idx = build_index(&db, T, spec("quiet", false), algo).unwrap();
        verify_index(&db, idx).unwrap();
        let hits = db.index_lookup(idx, &KeyValue::from_i64(123)).unwrap();
        assert_eq!(hits.len(), 1, "{algo:?}");
    }
}

#[test]
fn multi_index_single_scan_builds_all() {
    for algo in [
        BuildAlgorithm::Offline,
        BuildAlgorithm::Nsf,
        BuildAlgorithm::Sf,
    ] {
        let db = db();
        let tx = db.begin();
        for k in 0..200 {
            db.insert_record(tx, T, &rec(k, k * 3)).unwrap();
        }
        db.commit(tx).unwrap();
        let scans_before = db.table(T).unwrap().stats.scan_pages.get();
        let ids = build_indexes(
            &db,
            T,
            &[
                spec("by_k", false),
                IndexSpec {
                    name: "by_v".into(),
                    key_cols: vec![1],
                    unique: false,
                },
                IndexSpec {
                    name: "by_kv".into(),
                    key_cols: vec![0, 1],
                    unique: true,
                },
            ],
            algo,
        )
        .unwrap();
        assert_eq!(ids.len(), 3);
        // One scan, not three (measured before verification rescans).
        let pages = db.table(T).unwrap().num_pages() as u64;
        let scanned = db.table(T).unwrap().stats.scan_pages.get() - scans_before;
        assert!(
            scanned <= pages + 1,
            "{algo:?}: scanned {scanned} of {pages} pages"
        );
        assert_eq!(verify_all(&db, T).unwrap(), 3, "{algo:?}");
    }
}

#[test]
fn sf_never_quiesces_nsf_quiesces_briefly() {
    // With an updater holding IX for the whole build window, an NSF
    // descriptor create must wait, while SF proceeds immediately.
    let db = db();
    seed(&db, 50);
    let holder = db.begin();
    db.insert_record(holder, T, &rec(90_000, 0)).unwrap(); // holds IX

    // SF build succeeds while the IX is held.
    let idx = build_index(&db, T, spec("sf", false), BuildAlgorithm::Sf).unwrap();
    db.commit(holder).unwrap();
    verify_index(&db, idx).unwrap();

    // NSF against a fresh long-running updater times out on the
    // descriptor-create quiesce (lock timeout stands in for "waits").
    let db2 = Db::new(EngineConfig {
        lock_timeout_ms: 150,
        ..EngineConfig::small()
    });
    db2.create_table(T);
    let tx = db2.begin();
    db2.insert_record(tx, T, &rec(1, 0)).unwrap();
    db2.commit(tx).unwrap();
    let holder2 = db2.begin();
    db2.insert_record(holder2, T, &rec(2, 0)).unwrap();
    let err = build_index(&db2, T, spec("nsf", false), BuildAlgorithm::Nsf).unwrap_err();
    assert!(matches!(err, Error::LockTimeout { .. }));
    db2.commit(holder2).unwrap();
}

#[test]
fn nsf_tolerates_interleaved_deletes_of_scanned_records() {
    // The delete-key problem (§1.2): records deleted after the IB
    // extracted their keys must not reappear in the index.
    let db = db();
    let rids = seed(&db, 200);
    let stop = Arc::new(AtomicBool::new(false));
    let db2 = Arc::clone(&db);
    let victims: Vec<Rid> = rids.iter().copied().step_by(3).collect();
    let deleter = std::thread::spawn(move || {
        for rid in victims {
            let tx = db2.begin();
            if db2.delete_record(tx, T, rid).is_ok() {
                db2.commit(tx).unwrap();
            } else {
                db2.rollback(tx).unwrap();
            }
        }
    });
    let idx = build_index(&db, T, spec("del", false), BuildAlgorithm::Nsf).unwrap();
    stop.store(true, Ordering::Relaxed);
    deleter.join().unwrap();
    verify_index(&db, idx).unwrap();
}

#[test]
fn paper_example_scenario_nonunique() {
    // The nine-step example of §2.2.3 on a *nonunique* index, driven
    // through the real engine with a completed NSF build standing in
    // for "IB already inserted the key".
    let db = db();
    seed(&db, 10);
    let idx_id = build_index(&db, T, spec("ex", false), BuildAlgorithm::Nsf).unwrap();
    let idx = db.index(idx_id).unwrap();

    // T1 inserts a record with key K; key goes into the index.
    let t1 = db.begin();
    let rid = db.insert_record(t1, T, &rec(424_242, 0)).unwrap();
    // T1 rolls back: the key is marked pseudo-deleted, the record is
    // gone.
    db.rollback(t1).unwrap();
    let entry = idx.def.entry_of(&rec(424_242, 0), rid).unwrap();
    assert_eq!(
        idx.tree
            .lookup_exact(&entry)
            .unwrap()
            .map(|s| s.pseudo_deleted),
        Some(true),
        "rollback leaves a pseudo-deleted key, not a hole"
    );

    // T2 inserts a record at the same location with the same key
    // value: the pseudo-deleted flag is reset.
    let t2 = db.begin();
    let rid2 = db.insert_record(t2, T, &rec(424_242, 1)).unwrap();
    assert_eq!(rid2, rid, "slot is reused");
    db.commit(t2).unwrap();
    assert_eq!(
        idx.tree
            .lookup_exact(&entry)
            .unwrap()
            .map(|s| s.pseudo_deleted),
        Some(false)
    );
    verify_index(&db, idx_id).unwrap();
}

#[test]
fn unique_violation_cancels_build_and_leaves_no_descriptor() {
    let db = db();
    let tx = db.begin();
    db.insert_record(tx, T, &rec(5, 1)).unwrap();
    db.insert_record(tx, T, &rec(5, 2)).unwrap(); // duplicate key value
    db.commit(tx).unwrap();
    for algo in [
        BuildAlgorithm::Offline,
        BuildAlgorithm::Nsf,
        BuildAlgorithm::Sf,
    ] {
        let err = build_index(&db, T, spec("uk", true), algo).unwrap_err();
        assert!(
            matches!(err, Error::UniqueViolation { .. }),
            "{algo:?}: {err}"
        );
        assert!(
            db.indexes_of(T).is_empty(),
            "{algo:?} left a descriptor behind"
        );
    }
    // Updates still work afterwards.
    let tx = db.begin();
    db.insert_record(tx, T, &rec(6, 0)).unwrap();
    db.commit(tx).unwrap();
}

#[test]
fn gc_removes_committed_tombstones_only() {
    let db = db();
    let rids = seed(&db, 100);
    let idx = build_index(&db, T, spec("gc", false), BuildAlgorithm::Nsf).unwrap();
    // Commit some deletes (tombstones), keep one delete in flight.
    let tx = db.begin();
    for rid in &rids[..30] {
        db.delete_record(tx, T, *rid).unwrap();
    }
    db.commit(tx).unwrap();
    let inflight = db.begin();
    db.delete_record(inflight, T, rids[50]).unwrap();

    let stats = garbage_collect(&db, idx).unwrap();
    assert_eq!(stats.removed, 30);
    assert_eq!(stats.skipped, 1, "in-flight delete must be skipped");
    db.rollback(inflight).unwrap();
    verify_index(&db, idx).unwrap();

    // After the rollback the skipped key is live again; a second pass
    // removes nothing.
    let stats2 = garbage_collect(&db, idx).unwrap();
    assert_eq!(stats2.removed, 0);
}

#[test]
fn drop_index_quiesces_and_removes() {
    let db = db();
    seed(&db, 20);
    let idx = build_index(&db, T, spec("dropme", false), BuildAlgorithm::Sf).unwrap();
    drop_index(&db, idx).unwrap();
    assert!(db.index(idx).is_err());
    // Table still updatable.
    let tx = db.begin();
    db.insert_record(tx, T, &rec(1234, 0)).unwrap();
    db.commit(tx).unwrap();
}

#[test]
fn sf_side_file_collects_only_behind_scan_updates() {
    // Updates entirely ahead of the scan cursor leave no side-file
    // entries; updates behind it do.
    let db = Db::new(EngineConfig {
        // Huge checkpoint interval: the scan runs in one sweep, so we
        // can reason about cursor positions.
        sort_checkpoint_every_keys: usize::MAX,
        ..EngineConfig::small()
    });
    db.create_table(T);
    seed(&db, 300);
    let idx = build_index(&db, T, spec("sf", false), BuildAlgorithm::Sf).unwrap();
    let rt = db.index(idx).unwrap();
    // The build is done; all appended entries were drained.
    assert!(rt.side_file.closed());
    verify_index(&db, idx).unwrap();

    // Post-build updates go directly to the tree, not the side-file.
    let appended_before = rt.side_file.appended.get();
    let tx = db.begin();
    db.insert_record(tx, T, &rec(777_777, 0)).unwrap();
    db.commit(tx).unwrap();
    assert_eq!(rt.side_file.appended.get(), appended_before);
    assert_eq!(
        db.index_lookup(idx, &KeyValue::from_i64(777_777))
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn build_states_progress_correctly() {
    let db = db();
    seed(&db, 50);
    // Crash mid-scan, observe SfBuilding; then resume to completion in
    // crash_tests.rs — here we only check the state machine.
    db.failpoints.arm_after("build.scan.record", 20);
    let err = build_index(&db, T, spec("st", false), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash());
    let rt = &db.indexes_of(T)[0];
    assert_eq!(rt.state(), IndexState::SfBuilding);
}

/// §3.2.5 drain catch-up: appends keep arriving *while the drain
/// runs*, so the IB needs multiple catch-up passes; the pass count
/// must converge (the ≥3-pass quiesce fallback bounds it even against
/// this unthrottled appender) and the finished tree must agree
/// entry-for-entry with an offline-built oracle.
#[test]
fn sf_drain_catches_up_under_continuous_appends() {
    // Whether the appender lands anything in the side-file is a race
    // against a 400-row build finishing; on a loaded machine the build
    // can win outright. An attempt that never achieved the race proves
    // nothing either way, so rerun the scenario (fresh engine) instead
    // of flaking; the convergence and correctness assertions run on
    // the attempt where the appender actually competed.
    let mut raced = None;
    for _attempt in 0..5 {
        let db = db();
        seed(&db, 400);

        let done = Arc::new(AtomicBool::new(false));
        let builder = {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let r = build_index(&db, T, spec("catchup", false), BuildAlgorithm::Sf);
                done.store(true, Ordering::Relaxed);
                r
            })
        };

        // Appender: single-statement inserts as fast as the engine
        // allows, for the whole duration of the build. Entries
        // appended during the scan + drain go through the side-file;
        // each drain pass exposes a fresh backlog.
        let mut key = 10_000_000i64;
        let mut appended = 0u64;
        while !done.load(Ordering::Relaxed) {
            key += 1;
            let tx = db.begin();
            db.insert_record(tx, T, &rec(key, 1)).unwrap();
            db.commit(tx).unwrap();
            appended += 1;
        }
        let idx = builder.join().unwrap().expect("SF build must converge");

        let rt = db.index(idx).unwrap();
        assert!(rt.side_file.closed());
        let passes = rt.side_file.drain_passes.get();
        if appended > 0 && passes >= 1 {
            raced = Some((db, idx, passes));
            break;
        }
    }
    let (db, idx, passes) = raced.expect("appender never competed with the build in 5 attempts");
    // Convergence: 2 free catch-up passes, quiesce at 3, and a couple
    // of bounded passes while the S table lock drains out stragglers.
    assert!(passes <= 8, "drain did not converge: {passes} passes");

    // The finished index agrees entry-for-entry with an offline oracle
    // built on the now-quiescent database.
    verify_index(&db, idx).unwrap();
    let oracle = build_index(&db, T, spec("oracle", false), BuildAlgorithm::Offline).unwrap();
    let live = |id| {
        let rt = db.index(id).unwrap();
        mohan_btree::scan::collect_all(&rt.tree, true)
            .unwrap()
            .into_iter()
            .filter(|(_, pseudo)| !pseudo)
            .map(|(e, _)| e)
            .collect::<Vec<_>>()
    };
    assert_eq!(live(idx), live(oracle));
}

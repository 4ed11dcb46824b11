//! Parallel prefix-compressed bulk build: determinism against the
//! serial build, crash/restart mid-parallel-scan and mid-merge with
//! resume from the per-worker checkpoints, compression accounting,
//! and the `BuildOptions` argument validation.

use mohan_btree::scan::collect_all;
use mohan_common::{EngineConfig, Error, IndexId, Rid, TableId};
use mohan_oib::build::{build_indexes, resume_build, BuildOptions, IndexSpec, MAX_BUILD_WORKERS};
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
        // Key order deliberately not insertion order, so the sort works.
        .map(|k| db.insert_record(tx, T, &rec((k * 7919) % n, k)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    rids
}

/// Every live (key, rid) entry of the index tree, in leaf order.
fn tree_entries(db: &Arc<Db>, id: IndexId) -> Vec<(Vec<u8>, Rid)> {
    let idx = db.index(id).unwrap();
    collect_all(&idx.tree, false)
        .unwrap()
        .into_iter()
        .map(|(e, _)| (e.key.0, e.rid))
        .collect()
}

#[test]
fn parallel_compressed_build_is_entry_identical_to_serial() {
    let db = db();
    seed(&db, 600);
    let serial = build_indexes(
        &db,
        T,
        &[spec("serial")],
        BuildAlgorithm::Sf,
        &BuildOptions::default(),
    )
    .unwrap()[0];
    let parallel = build_indexes(
        &db,
        T,
        &[spec("parallel")],
        BuildAlgorithm::Sf,
        &BuildOptions::new().workers(4),
    )
    .unwrap()[0];
    verify_index(&db, serial).unwrap();
    verify_index(&db, parallel).unwrap();
    let a = tree_entries(&db, serial);
    let b = tree_entries(&db, parallel);
    assert!(!a.is_empty());
    assert_eq!(a, b, "parallel+compressed build diverged from serial");
}

#[test]
fn parallel_build_with_concurrent_updates_is_correct() {
    for algorithm in [BuildAlgorithm::Nsf, BuildAlgorithm::Sf] {
        let db = db();
        let rids = seed(&db, 400);
        let stop = Arc::new(AtomicBool::new(false));
        let db2 = Arc::clone(&db);
        let stop2 = Arc::clone(&stop);
        let churn = std::thread::spawn(move || {
            let mut k = 900_000i64;
            let mut i = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                let tx = db2.begin();
                k += 1;
                i += 1;
                let _ = db2.insert_record(tx, T, &rec(k, 0));
                if i.is_multiple_of(4) {
                    let _ = db2.delete_record(tx, T, rids[i % rids.len()]);
                }
                if i.is_multiple_of(3) {
                    let _ = db2.rollback(tx);
                } else {
                    let _ = db2.commit(tx);
                }
            }
        });
        let id = build_indexes(
            &db,
            T,
            &[spec("churny")],
            algorithm,
            &BuildOptions::new().workers(3),
        )
        .unwrap()[0];
        stop.store(true, Ordering::Relaxed);
        churn.join().unwrap();
        assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
        verify_index(&db, id).unwrap();
    }
}

/// Crash a parallel build at `site` after `skip` hits, restart, resume
/// (the stored options re-parallelize the resume), verify.
fn parallel_crash_resume_cycle(
    db: &Arc<Db>,
    opts: &BuildOptions,
    algorithm: BuildAlgorithm,
    site: &'static str,
    skip: u64,
) {
    db.failpoints.arm_after(site, skip);
    let err = build_indexes(db, T, &[spec("crashy")], algorithm, opts).unwrap_err();
    assert!(err.is_crash(), "expected crash at {site}, got {err}");
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;
    resume_build(db, id).unwrap();
    assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
    verify_index(db, id).unwrap();
}

#[test]
fn parallel_crash_during_worker_run_formation_resumes() {
    let db = db();
    seed(&db, 500);
    // Mid-record, before any checkpoint for some workers: the resume
    // restarts those partitions from their floors.
    parallel_crash_resume_cycle(
        &db,
        &BuildOptions::new().workers(4),
        BuildAlgorithm::Sf,
        "build.scan.record",
        90,
    );
}

#[test]
fn parallel_crash_at_worker_checkpoint_resumes() {
    let db = db();
    seed(&db, 500);
    // Right after a per-worker checkpoint persisted: the resume keeps
    // that partition's runs and repositions after its scan_pos.
    parallel_crash_resume_cycle(
        &db,
        &BuildOptions::new().workers(4),
        BuildAlgorithm::Sf,
        "build.scan",
        1,
    );
}

#[test]
fn parallel_nsf_crash_resumes() {
    let db = db();
    seed(&db, 400);
    parallel_crash_resume_cycle(
        &db,
        &BuildOptions::new().workers(2),
        BuildAlgorithm::Nsf,
        "build.scan",
        0,
    );
}

#[test]
fn parallel_compressed_crash_during_merge_resumes() {
    let db = db();
    seed(&db, 500);
    // The small config's 16-key workspace spills dozens of compressed
    // runs; the 4-way reduce checkpoints (and crashes) mid-merge.
    parallel_crash_resume_cycle(
        &db,
        &BuildOptions::new().workers(4),
        BuildAlgorithm::Sf,
        "build.reduce",
        1,
    );
}

#[test]
fn parallel_repeated_crashes_across_phases_converge() {
    let db = db();
    seed(&db, 500);
    let opts = BuildOptions::new().workers(3);
    db.failpoints.arm_after("build.scan", 1);
    let err = build_indexes(&db, T, &[spec("multi")], BuildAlgorithm::Sf, &opts).unwrap_err();
    assert!(err.is_crash());
    let id = db.indexes_of(T).last().unwrap().def.id;

    // Crash again in the (parallel, resumed) scan, then in the load.
    db.simulate_crash();
    db.restart().unwrap();
    db.failpoints.arm("build.scan.record");
    let err = resume_build(&db, id).unwrap_err();
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();
    db.failpoints.arm("build.load");
    let err = resume_build(&db, id).unwrap_err();
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();
    resume_build(&db, id).unwrap();
    verify_index(&db, id).unwrap();
}

#[test]
fn multi_index_parallel_single_scan_builds_all() {
    let db = db();
    seed(&db, 400);
    let ids = build_indexes(
        &db,
        T,
        &[
            spec("by_k"),
            IndexSpec {
                name: "by_v".into(),
                key_cols: vec![1],
                unique: false,
            },
        ],
        BuildAlgorithm::Sf,
        &BuildOptions::new().workers(4),
    )
    .unwrap();
    assert_eq!(ids.len(), 2);
    for id in ids {
        verify_index(&db, id).unwrap();
    }
}

#[test]
fn compressed_runs_shrink_spilled_bytes() {
    let db = db();
    seed(&db, 600);
    let id = build_indexes(
        &db,
        T,
        &[spec("squeezed")],
        BuildAlgorithm::Sf,
        &BuildOptions::new().workers(2),
    )
    .unwrap()[0];
    verify_index(&db, id).unwrap();
    let idx = db.index(id).unwrap();
    let (raw, stored) = (
        idx.sort_store.raw_bytes.get(),
        idx.sort_store.stored_bytes.get(),
    );
    assert!(raw > 0, "no spilled bytes accounted");
    assert!(
        stored < raw,
        "prefix compression did not shrink spilled runs: raw={raw} stored={stored}"
    );
}

/// `build.sort_workers` is the parallelism a build asked for (DESIGN
/// §13.4); the threads it ran on show on `build.workers`.
#[test]
fn sort_workers_gauge_reports_requested_parallelism() {
    let db = db();
    seed(&db, 400);
    build_indexes(
        &db,
        T,
        &[spec("gauged")],
        BuildAlgorithm::Sf,
        &BuildOptions::new().workers(4),
    )
    .unwrap();
    assert_eq!(db.build_sort_workers.get(), 4);
}

#[test]
fn invalid_build_arguments_are_statement_errors() {
    let db = db();
    seed(&db, 10);
    let err = build_indexes(&db, T, &[], BuildAlgorithm::Sf, &BuildOptions::default()).unwrap_err();
    assert!(matches!(err, Error::InvalidArg(_)), "{err}");
    let err = build_indexes(
        &db,
        T,
        &[spec("z")],
        BuildAlgorithm::Sf,
        &BuildOptions {
            parallel_workers: 0,
            ..BuildOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, Error::InvalidArg(_)), "{err}");
    // Nothing half-registered after a refused statement.
    assert!(db.indexes_of(T).is_empty());
}

#[test]
fn worker_count_beyond_the_bound_is_refused() {
    let db = db();
    seed(&db, 10);
    let too_many = BuildOptions::new().workers(MAX_BUILD_WORKERS + 1);
    for algorithm in [
        BuildAlgorithm::Offline,
        BuildAlgorithm::Nsf,
        BuildAlgorithm::Sf,
    ] {
        let err = build_indexes(&db, T, &[spec("wide")], algorithm, &too_many).unwrap_err();
        assert!(matches!(err, Error::InvalidArg(_)), "{algorithm:?}: {err}");
        assert!(db.indexes_of(T).is_empty(), "{algorithm:?}");
    }
    assert_eq!(db.build_sort_workers.get(), 0, "no scan worker started");
}

/// A zero `checkpoint_every` is the engine's interval, in every phase:
/// the build checkpoints exactly as often as one that names it.
#[test]
fn zero_checkpoint_every_builds_at_the_engine_interval() {
    let checkpoints = |options: BuildOptions| {
        let db = Db::new(EngineConfig {
            build_checkpoint_every_keys: 40,
            ..EngineConfig::small()
        });
        db.create_table(T);
        seed(&db, 400);
        let forced = || db.obs.histogram("build.checkpoint_us").count();
        let before = forced();
        let id = build_indexes(&db, T, &[spec("every")], BuildAlgorithm::Nsf, &options).unwrap()[0];
        verify_index(&db, id).unwrap();
        forced() - before
    };
    let zero = checkpoints(BuildOptions {
        checkpoint_every: 0,
        ..BuildOptions::default()
    });
    assert_eq!(zero, checkpoints(BuildOptions::new().checkpoint_every(40)));
    assert!(zero >= 400 / 40, "{zero} IB checkpoints for 400 keys");
    assert!(zero > checkpoints(BuildOptions::new().checkpoint_every(400)));
}

#[test]
fn parallel_offline_build_matches_table() {
    let db = db();
    seed(&db, 300);
    let id = build_indexes(
        &db,
        T,
        &[spec("off")],
        BuildAlgorithm::Offline,
        &BuildOptions::new().workers(4),
    )
    .unwrap()[0];
    verify_index(&db, id).unwrap();
}

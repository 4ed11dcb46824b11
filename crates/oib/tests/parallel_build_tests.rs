//! Parallel prefix-compressed bulk build: determinism against the
//! serial build, crash/restart mid-parallel-scan and mid-merge with
//! resume from the per-worker checkpoints, compression accounting,
//! and the `BuildOptions` argument validation.

use mohan_btree::scan::for_each_leaf;
use mohan_common::{EngineConfig, Error, IndexId, Rid, TableId};
use mohan_oib::build::{build_indexes_with, resume_build, BuildOptions, IndexSpec};
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
    let mut out = Vec::new();
    for_each_leaf(&idx.tree, |_page, node| {
        for le in node.leaf_entries() {
            if !le.pseudo_deleted {
                out.push((le.entry.key.as_bytes().to_vec(), le.entry.rid));
            }
        }
    })
    .unwrap();
    out
}

#[test]
fn parallel_compressed_build_is_entry_identical_to_serial() {
    let db = db();
    seed(&db, 600);
    let serial = build_indexes_with(
        &db,
        T,
        &[spec("serial")],
        BuildAlgorithm::Sf,
        &BuildOptions::default(),
    )
    .unwrap()[0];
    let parallel = build_indexes_with(
        &db,
        T,
        &[spec("parallel")],
        BuildAlgorithm::Sf,
        &BuildOptions::new().workers(4).compress(true),
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
        let id = build_indexes_with(
            &db,
            T,
            &[spec("churny")],
            algorithm,
            &BuildOptions::new().workers(3).compress(true),
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
    let err = build_indexes_with(db, T, &[spec("crashy")], algorithm, opts).unwrap_err();
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
        &BuildOptions::new().workers(4).compress(true),
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
        &BuildOptions::new().workers(4).compress(true),
        BuildAlgorithm::Sf,
        "build.reduce",
        1,
    );
}

#[test]
fn parallel_repeated_crashes_across_phases_converge() {
    let db = db();
    seed(&db, 500);
    let opts = BuildOptions::new().workers(3).compress(true);
    db.failpoints.arm_after("build.scan", 1);
    let err = build_indexes_with(&db, T, &[spec("multi")], BuildAlgorithm::Sf, &opts).unwrap_err();
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
    let ids = build_indexes_with(
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
        &BuildOptions::new().workers(4).compress(true),
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
    let id = build_indexes_with(
        &db,
        T,
        &[spec("squeezed")],
        BuildAlgorithm::Sf,
        &BuildOptions::new().workers(2).compress(true),
    )
    .unwrap()[0];
    verify_index(&db, id).unwrap();
    let idx = db.index(id).unwrap();
    let guard = idx.sort_store.lock();
    let rs = guard.as_ref().expect("run store exists");
    let (raw, stored) = (rs.raw_bytes.get(), rs.stored_bytes.get());
    assert!(raw > 0, "no spilled bytes accounted");
    assert!(
        stored < raw,
        "prefix compression did not shrink spilled runs: raw={raw} stored={stored}"
    );
}

/// A serial build checkpointed before the scan had one code path left
/// a tag-0 progress blob: a bare sort checkpoint, no partition table.
/// It still resumes — as one partition that ends at the scan bound —
/// into exactly the index an uninterrupted build produces.
#[test]
fn serial_scan_checkpoint_without_partitions_resumes() {
    let db = db();
    seed(&db, 600);
    let opts = BuildOptions::default();
    let whole = build_indexes_with(&db, T, &[spec("whole")], BuildAlgorithm::Sf, &opts).unwrap()[0];

    db.failpoints.arm_after("build.scan", 1);
    let err =
        build_indexes_with(&db, T, &[spec("resumed")], BuildAlgorithm::Sf, &opts).unwrap_err();
    assert!(err.is_crash(), "expected crash, got {err}");
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;
    let Some(BuildProgress::ScanningParallel { parts }) = progress::load(&db, id).unwrap() else {
        panic!("the crash was placed at a scan checkpoint");
    };
    assert_eq!(parts.len(), 1, "a serial scan is one partition");
    assert!(parts[0].sort.scan_pos > 0, "checkpoint is mid-scan");
    let mut blob = vec![0u8];
    blob.extend_from_slice(&parts[0].sort.encode());
    db.blobs.put(&format!("build/{}/progress", id.0), blob);

    resume_build(&db, id).unwrap();
    assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
    verify_index(&db, id).unwrap();
    assert_eq!(tree_entries(&db, id), tree_entries(&db, whole));
}

#[test]
fn worker_gauge_reports_effective_parallelism() {
    let db = db();
    seed(&db, 400);
    build_indexes_with(
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
    let err =
        build_indexes_with(&db, T, &[], BuildAlgorithm::Sf, &BuildOptions::default()).unwrap_err();
    assert!(matches!(err, Error::InvalidArg(_)), "{err}");
    let err = build_indexes_with(
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
fn parallel_offline_build_matches_table() {
    let db = db();
    seed(&db, 300);
    let id = build_indexes_with(
        &db,
        T,
        &[spec("off")],
        BuildAlgorithm::Offline,
        &BuildOptions::new().workers(4).compress(true),
    )
    .unwrap()[0];
    verify_index(&db, id).unwrap();
}

//! The heavy cross-crate gauntlet: every algorithm, heavy concurrent
//! churn, mixed unique/nonunique/multi-column indexes, sequential
//! crashes — the finished indexes must always agree with the table.

use mohan_bench::workload::{seed_table, start_churn, ChurnConfig, TABLE};
use online_index_build::prelude::*;
use std::sync::Arc;

fn gauntlet_cfg() -> EngineConfig {
    EngineConfig {
        data_page_size: 1024,
        index_page_size: 512,
        build_checkpoint_every_keys: 500,
        sort_workspace_keys: 128,
        merge_fan_in: 4,
        lock_timeout_ms: 10_000,
        ..EngineConfig::default()
    }
}

#[test]
fn every_algorithm_survives_heavy_churn() {
    for algo in [
        BuildAlgorithm::Offline,
        BuildAlgorithm::Nsf,
        BuildAlgorithm::Sf,
    ] {
        let (db, rids) = seed_table(gauntlet_cfg(), 2_000, 7);
        let churn = start_churn(
            &db,
            &rids,
            ChurnConfig {
                threads: 3,
                rollback_fraction: 0.2,
                ..ChurnConfig::default()
            },
        );
        churn.wait_for_ops(100);
        let ids = build_indexes(
            &db,
            TABLE,
            &[
                IndexSpec {
                    name: "a".into(),
                    key_cols: vec![0],
                    unique: false,
                },
                IndexSpec {
                    name: "b".into(),
                    key_cols: vec![1],
                    unique: false,
                },
                IndexSpec {
                    name: "c".into(),
                    key_cols: vec![0, 1],
                    unique: true,
                },
            ],
            algo,
            &BuildOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        let stats = churn.stop();
        assert!(stats.ops > 0 || algo == BuildAlgorithm::Offline);
        assert_eq!(db.active_txs(), 0, "{algo:?} leaked a transaction");
        assert_eq!(ids.len(), 3);
        assert_eq!(verify_all(&db, TABLE).unwrap(), 3, "{algo:?}");
    }
}

#[test]
fn back_to_back_builds_with_continuous_churn() {
    // Build three indexes one after another while churn never stops,
    // each with a different algorithm; then drop the middle one and
    // build a replacement.
    let (db, rids) = seed_table(gauntlet_cfg(), 1_500, 8);
    let churn = start_churn(
        &db,
        &rids,
        ChurnConfig {
            threads: 2,
            ..ChurnConfig::default()
        },
    );

    let a = build_index(
        &db,
        TABLE,
        IndexSpec {
            name: "a".into(),
            key_cols: vec![0],
            unique: false,
        },
        BuildAlgorithm::Sf,
    )
    .expect("sf");
    let b = build_index(
        &db,
        TABLE,
        IndexSpec {
            name: "b".into(),
            key_cols: vec![1],
            unique: false,
        },
        BuildAlgorithm::Nsf,
    )
    .expect("nsf");
    drop_index(&db, a).expect("drop");
    let c = build_index(
        &db,
        TABLE,
        IndexSpec {
            name: "c".into(),
            key_cols: vec![0],
            unique: false,
        },
        BuildAlgorithm::Sf,
    )
    .expect("sf again");
    churn.stop();
    assert!(db.index(a).is_err());
    verify_index(&db, b).expect("b");
    verify_index(&db, c).expect("c");
}

#[test]
fn crash_mid_build_with_churn_then_resume_with_new_churn() {
    // Keys between checkpoints. The churn decides how many rows the
    // scan sees (650 or fewer under load), so the crash is armed from
    // the phase's first checkpoint, half an interval before the next.
    const EVERY: u32 = 100;
    for (algo, checkpoint, site) in [
        (BuildAlgorithm::Nsf, "build.insert", "nsf.insert.key"),
        (BuildAlgorithm::Sf, "build.load", "sf.load.key"),
    ] {
        let (db, rids) = seed_table(gauntlet_cfg(), 1_500, 9);
        let churn = start_churn(
            &db,
            &rids,
            ChurnConfig {
                threads: 2,
                ..ChurnConfig::default()
            },
        );
        let failpoints = Arc::clone(&db.failpoints);
        db.failpoints.arm_hook(checkpoint, 0, move || {
            failpoints.arm_after(site, u64::from(EVERY / 2));
        });
        let err = build_indexes(
            &db,
            TABLE,
            &[IndexSpec {
                name: "x".into(),
                key_cols: vec![0],
                unique: false,
            }],
            algo,
            &BuildOptions {
                checkpoint_every: EVERY,
                ..BuildOptions::default()
            },
        )
        .expect_err("armed crash");
        assert!(err.is_crash(), "{algo:?}");
        churn.stop();

        db.simulate_crash();
        db.restart().expect("restart");

        // Fresh churn during the resume as well.
        let survivors: Vec<Rid> = db
            .table_scan(TABLE)
            .expect("scan")
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        let churn = start_churn(
            &db,
            &survivors,
            ChurnConfig {
                threads: 2,
                ..ChurnConfig::default()
            },
        );
        let id = db.indexes_of(TABLE).last().expect("descriptor").def.id;
        resume_build(&db, id).unwrap_or_else(|e| panic!("{algo:?} resume: {e}"));
        churn.stop();
        verify_index(&db, id).unwrap_or_else(|e| panic!("{algo:?} verify: {e}"));
    }
}

#[test]
fn gc_during_churn_keeps_indexes_consistent() {
    let (db, rids) = seed_table(gauntlet_cfg(), 1_000, 10);
    let idx = build_index(
        &db,
        TABLE,
        IndexSpec {
            name: "g".into(),
            key_cols: vec![0],
            unique: false,
        },
        BuildAlgorithm::Nsf,
    )
    .expect("build");
    let churn = start_churn(
        &db,
        &rids,
        ChurnConfig {
            threads: 2,
            mix: (1, 3, 1),
            ..ChurnConfig::default()
        },
    );
    // Several GC passes racing the churn.
    for pass in 1..=5 {
        garbage_collect(&db, idx).expect("gc");
        churn.wait_for_ops(pass * 50);
    }
    churn.stop();
    verify_index(&db, idx).expect("verify");
    // A final quiescent GC pass reclaims everything removable.
    let stats = garbage_collect(&db, idx).expect("gc");
    assert_eq!(stats.skipped, 0);
    verify_index(&db, idx).expect("verify after gc");
}

#[test]
fn checkpoint_during_churn_and_build() {
    let (db, rids) = seed_table(gauntlet_cfg(), 1_000, 11);
    let churn = start_churn(
        &db,
        &rids,
        ChurnConfig {
            threads: 2,
            ..ChurnConfig::default()
        },
    );
    let db2 = Arc::clone(&db);
    let builder = std::thread::spawn(move || {
        build_index(
            &db2,
            TABLE,
            IndexSpec {
                name: "k".into(),
                key_cols: vec![0],
                unique: false,
            },
            BuildAlgorithm::Sf,
        )
    });
    for round in 1..=10 {
        // A page the churn changes after the checkpoint's log flush
        // is written once the log is forced through its LSN: heavy
        // traffic never fails a checkpoint.
        db.checkpoint().expect("checkpoint under churn");
        churn.wait_for_ops(round * 20);
    }
    let idx = builder.join().expect("builder").expect("build");
    churn.stop();

    db.simulate_crash();
    db.restart().expect("restart");
    verify_index(&db, idx).expect("verify after crash+restart");
}

#[test]
fn range_lookup_matches_point_lookups() {
    use online_index_build::btree::PrefetchStrategy;
    let (db, _) = seed_table(gauntlet_cfg(), 1_000, 12);
    let idx = build_index(
        &db,
        TABLE,
        IndexSpec {
            name: "r".into(),
            key_cols: vec![0],
            unique: true,
        },
        BuildAlgorithm::Sf,
    )
    .expect("build");
    let (entries, stats) = db
        .index_range_lookup(
            idx,
            &KeyValue::from_i64(100),
            &KeyValue::from_i64(299),
            PrefetchStrategy::ParentGuided,
        )
        .expect("range");
    assert_eq!(entries.len(), 200);
    assert!(stats.io_batches >= 1 && stats.io_batches <= stats.leaves);
    for e in &entries {
        let hits = db.index_lookup(idx, &e.key).expect("point");
        assert_eq!(hits, vec![e.rid]);
    }
    // The clustered SF tree scans near-optimally under sequential
    // prefetch too.
    let (_, seq) = db
        .index_range_lookup(
            idx,
            &KeyValue::from_i64(i64::MIN),
            &KeyValue::from_i64(i64::MAX),
            PrefetchStrategy::PhysicalSequence,
        )
        .expect("full range");
    assert!(seq.io_batches <= seq.leaves, "prefetch must batch leaves");
}

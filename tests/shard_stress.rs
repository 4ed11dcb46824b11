//! Stress test for the sharded storage substrate: 8 updater threads
//! hammer the table through the partitioned buffer pool, sharded
//! free-space map, and reservation-based WAL while an index build
//! runs, crashes mid-flight, and resumes after restart. The finished
//! index must agree entry-for-entry with an Offline-built oracle
//! index created on the quiesced database.
//!
//! This is deliberately the most contended configuration the harness
//! supports — more updaters than cores — because the sharded paths
//! only earn their keep when every shard sees concurrent traffic.

use mohan_bench::workload::{seed_table, start_churn, ChurnConfig, TABLE};
use online_index_build::btree::scan::collect_all;
use online_index_build::prelude::*;

fn stress_cfg() -> EngineConfig {
    EngineConfig {
        data_page_size: 1024,
        index_page_size: 512,
        sort_checkpoint_every_keys: 400,
        merge_checkpoint_every_keys: 400,
        ib_checkpoint_every_keys: 400,
        sort_workspace_keys: 128,
        merge_fan_in: 4,
        lock_timeout_ms: 20_000,
        ..EngineConfig::default()
    }
}

/// Live (non-pseudo-deleted) entries of an index, as a sorted vec.
fn live_entries(db: &std::sync::Arc<Db>, id: IndexId) -> Vec<IndexEntry> {
    let idx = db.index(id).expect("index readable");
    collect_all(&idx.tree, true)
        .expect("tree scan")
        .into_iter()
        .filter(|(_, pseudo)| !pseudo)
        .map(|(entry, _)| entry)
        .collect()
}

#[test]
fn eight_way_churn_crash_resume_matches_offline_oracle() {
    for (algo, site) in [
        (BuildAlgorithm::Nsf, "nsf.insert.key"),
        (BuildAlgorithm::Sf, "sf.load.key"),
    ] {
        let (db, rids) = seed_table(stress_cfg(), 1_200, 42);

        // Phase 1: crash the build mid-flight under 8-way churn.
        let churn = start_churn(
            &db,
            &rids,
            ChurnConfig {
                threads: 8,
                rollback_fraction: 0.25,
                ..ChurnConfig::default()
            },
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
        db.failpoints.arm_after(site, 400);
        let err = build_index(
            &db,
            TABLE,
            IndexSpec {
                name: "stress".into(),
                key_cols: vec![0],
                unique: false,
            },
            algo,
        )
        .expect_err("armed crash must fire");
        assert!(err.is_crash(), "{algo:?}: {err}");
        let stats = churn.stop();
        assert!(stats.ops > 0, "{algo:?}: churn never ran");
        let mut rollback_failures = stats.rollback_failures;

        db.simulate_crash();
        db.restart()
            .unwrap_or_else(|e| panic!("{algo:?} restart: {e}"));

        // Phase 2: resume under fresh 8-way churn over the survivors.
        let survivors: Vec<Rid> = db
            .table_scan(TABLE)
            .expect("scan")
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        assert!(!survivors.is_empty(), "{algo:?}: table empty after restart");
        let churn = start_churn(
            &db,
            &survivors,
            ChurnConfig {
                threads: 8,
                rollback_fraction: 0.25,
                ..ChurnConfig::default()
            },
        );
        let id = db.indexes_of(TABLE).last().expect("descriptor").def.id;
        let resumed = resume_build(&db, id);
        rollback_failures.extend(churn.stop().rollback_failures);
        // A rollback that failed left its transaction open with its
        // locks held; whatever goes wrong below, say what it said.
        let failed = format!("failed rollbacks: {rollback_failures:#?}");
        resumed.unwrap_or_else(|e| panic!("{algo:?} resume: {e}; {failed}"));
        assert_eq!(
            db.active_txs(),
            0,
            "{algo:?} leaked a transaction; {failed}"
        );
        assert_eq!(
            db.index(id).unwrap().state(),
            IndexState::Complete,
            "{algo:?}"
        );
        verify_index(&db, id).unwrap_or_else(|e| panic!("{algo:?} verify: {e}"));

        // Phase 3: the oracle. On the now-quiescent database, build a
        // second index over the same key with the Offline algorithm
        // (scan-sort-load with no concurrent updates to reconcile)
        // and demand entry-for-entry agreement.
        let oracle = build_index(
            &db,
            TABLE,
            IndexSpec {
                name: "oracle".into(),
                key_cols: vec![0],
                unique: false,
            },
            BuildAlgorithm::Offline,
        )
        .unwrap_or_else(|e| panic!("{algo:?} oracle build: {e}; {failed}"));
        verify_index(&db, oracle).unwrap_or_else(|e| panic!("{algo:?} oracle verify: {e}"));
        assert_eq!(
            live_entries(&db, id),
            live_entries(&db, oracle),
            "{algo:?}: resumed index disagrees with offline oracle"
        );
    }
}

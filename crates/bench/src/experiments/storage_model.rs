//! E14: the §6.2 storage-model extension — building a secondary index
//! by scanning the clustering primary index with a current-*key*
//! cursor.

use crate::report::Table;
use crate::workload::{bench_config, seed_table, start_churn, ChurnConfig, TABLE};
use mohan_btree::scan::clustering;
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::primary::build_secondary_via_primary;
use mohan_oib::schema::BuildAlgorithm;
use mohan_oib::verify::verify_index;

/// Live entries of a finished index, counted off the leaf chain.
fn live_entries(tree: &mohan_btree::BTree) -> u64 {
    let c = clustering(tree).expect("scan");
    c.entries - c.pseudo_entries
}

/// E14: primary-model SF build under churn, verified against the
/// table; compares entry counts and side-file traffic with the
/// RID-based build of the same index.
pub fn e14_primary_model(quick: bool) -> Vec<Table> {
    let n: i64 = if quick { 3_000 } else { 10_000 };
    let mut t = Table::new(
        "E14: SF via the primary index (current-key cursor, §6.2)",
        &["scan cursor", "entries", "side-file appends", "verified"],
    );

    // RID-based reference.
    {
        let (db, rids) = seed_table(bench_config(), n, 140);
        let churn = start_churn(
            &db,
            &rids,
            // Inserts and deletes only: the primary key must stay put.
            ChurnConfig {
                threads: 2,
                mix: (1, 1, 0),
                ..ChurnConfig::default()
            },
        );
        let idx = build_index(
            &db,
            TABLE,
            IndexSpec {
                name: "by_payload".into(),
                key_cols: vec![1],
                unique: false,
            },
            BuildAlgorithm::Sf,
        )
        .expect("build");
        churn.stop();
        verify_index(&db, idx).expect("verify");
        let rt = db.index(idx).expect("idx");
        let entries = live_entries(&rt.tree);
        t.row(vec![
            "Current-RID (heap scan)".into(),
            entries.to_string(),
            rt.side_file.appended.get().to_string(),
            "true".into(),
        ]);
    }

    // Key-cursor build over a clustering primary.
    {
        let (db, rids) = seed_table(bench_config(), n, 140);
        let primary = build_index(
            &db,
            TABLE,
            IndexSpec {
                name: "pk".into(),
                key_cols: vec![0],
                unique: true,
            },
            BuildAlgorithm::Offline,
        )
        .expect("primary");
        let churn = start_churn(
            &db,
            &rids,
            ChurnConfig {
                threads: 2,
                mix: (1, 1, 0),
                ..ChurnConfig::default()
            },
        );
        let idx = build_secondary_via_primary(
            &db,
            primary,
            IndexSpec {
                name: "by_payload_pk".into(),
                key_cols: vec![1],
                unique: false,
            },
        )
        .expect("secondary");
        churn.stop();
        verify_index(&db, idx).expect("verify");
        verify_index(&db, primary).expect("primary stays consistent");
        let rt = db.index(idx).expect("idx");
        let entries = live_entries(&rt.tree);
        t.row(vec![
            "Current-Key (primary-index scan)".into(),
            entries.to_string(),
            rt.side_file.appended.get().to_string(),
            "true".into(),
        ]);
    }
    t.note(
        "'In the place of Current-RID we would use the current-key as the scan position' (§6.2).",
    );
    vec![t]
}

//! §6.2 extensions in action: build three indexes in ONE scan of the
//! data, then build another secondary by scanning the clustering
//! primary index with the current-key cursor.
//!
//! ```text
//! cargo run --example multi_index_scan
//! ```

use online_index_build::prelude::*;

fn main() -> Result<()> {
    let db = Db::new(EngineConfig::default());
    let table = TableId(1);
    db.create_table(table);

    // events(event_id, device, severity)
    println!("loading 15,000 events ...");
    let tx = db.begin();
    for k in 0..15_000 {
        db.insert_record(tx, table, &Record::new(vec![k, k % 200, k % 5]))?;
    }
    db.commit(tx)?;

    // Three indexes, one data scan (§6.2: "it would be very beneficial
    // to build multiple indexes in one data scan").
    let pages_before = db.table(table)?.stats.scan_pages.get();
    let ids = build_indexes(
        &db,
        table,
        &[
            IndexSpec {
                name: "pk".into(),
                key_cols: vec![0],
                unique: true,
            },
            IndexSpec {
                name: "by_device".into(),
                key_cols: vec![1],
                unique: false,
            },
            IndexSpec {
                name: "by_severity_device".into(),
                key_cols: vec![2, 1],
                unique: false,
            },
        ],
        BuildAlgorithm::Sf,
        &BuildOptions::default(),
    )?;
    let pages = db.table(table)?.stats.scan_pages.get() - pages_before;
    println!(
        "built {} indexes reading {} data pages (table has {}) — one scan, not three",
        ids.len(),
        pages,
        db.table(table)?.num_pages()
    );
    assert_eq!(verify_all(&db, table)?, 3);

    // Storage-model extension: scan the clustering primary index (in
    // key order) to build yet another secondary; visibility uses a
    // current-*key* cursor instead of Current-RID.
    println!("building a fourth index by scanning the primary index ...");
    let fourth = build_secondary_via_primary(
        &db,
        ids[0],
        IndexSpec {
            name: "by_severity".into(),
            key_cols: vec![2],
            unique: false,
        },
    )?;
    verify_index(&db, fourth)?;

    // Use them.
    let device_42 = db.index_lookup(ids[1], &KeyValue::from_i64(42))?;
    let sev_3 = db.index_lookup(fourth, &KeyValue::from_i64(3))?;
    println!(
        "device 42 has {} events; severity 3 has {} events",
        device_42.len(),
        sev_3.len()
    );
    println!("all four indexes verified ✓");
    Ok(())
}

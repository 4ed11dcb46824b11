//! E11: side-file growth and drain behaviour (§3.2.5), including the
//! sorted-apply optimization ablation.

use super::spec;
use crate::report::{f2, ms, Table};
use crate::workload::{bench_config, seed_table, start_churn, ChurnConfig, TABLE};
use mohan_oib::build::{build_index, build_indexes, BuildOptions};
use mohan_oib::schema::BuildAlgorithm;
use mohan_oib::verify::verify_index;
use std::time::Instant;

/// E11: appended entries, peak backlog and total build time vs churn
/// intensity, for sorted vs sequential drain application.
pub fn e11_drain(quick: bool) -> Vec<Table> {
    let n: i64 = if quick { 4_000 } else { 15_000 };
    let threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let mut t = Table::new(
        "E11: SF side-file growth and drain (§3.2.5)",
        &[
            "updaters",
            "drain order",
            "appended",
            "peak backlog",
            "build",
            "traversals",
        ],
    );
    for &upd in threads {
        for sorted in [true, false] {
            let (db, rids) = seed_table(bench_config(), n, 110);
            let churn = start_churn(
                &db,
                &rids,
                ChurnConfig {
                    threads: upd,
                    ..ChurnConfig::default()
                },
            );
            // Let updaters ramp before the scan starts so the
            // side-file actually sees traffic.
            std::thread::sleep(std::time::Duration::from_millis(40));
            let started = Instant::now();
            let options = BuildOptions::new().sorted_drain(sorted);
            let idx = build_indexes(&db, TABLE, &[spec("e11")], BuildAlgorithm::Sf, &options)
                .expect("build")[0];
            let wall = started.elapsed();
            churn.stop();
            verify_index(&db, idx).expect("verify");
            let rt = db.index(idx).expect("idx");
            t.row(vec![
                upd.to_string(),
                if sorted { "sorted" } else { "sequential" }.into(),
                rt.side_file.appended.get().to_string(),
                rt.side_file.max_backlog.get().to_string(),
                ms(wall),
                rt.tree.stats.traversals.get().to_string(),
            ]);
        }
    }
    t.note("Sorting the backlog preserves the relative order of identical keys (stable sort).");
    t.note("Catch-up appends landing during the drain are processed sequentially.");

    // Append-cost micro-measure: how cheap is the side-file path while
    // the index is invisible vs direct maintenance after completion?
    let mut t2 = Table::new(
        "E11b: side-file append vs direct maintenance (log records per update)",
        &["phase", "txn log recs/op"],
    );
    let (db, rids) = seed_table(bench_config(), n.min(5_000), 111);
    // During build: ops recorded per committed op.
    let churn = start_churn(
        &db,
        &rids,
        ChurnConfig {
            threads: 1,
            ops_per_sec: Some(300),
            ..ChurnConfig::default()
        },
    );
    let recs0 = db.wal.stats.records.get();
    let ib0 = db.wal.stats.ib_records.get();
    let idx = build_index(&db, TABLE, spec("e11b"), BuildAlgorithm::Sf).expect("build");
    let during_recs = (db.wal.stats.records.get() - recs0) - (db.wal.stats.ib_records.get() - ib0);
    let during = churn.stop();
    t2.row(vec![
        "during SF build (side-file appends)".into(),
        f2(during_recs as f64 / during.ops.max(1) as f64),
    ]);
    // After build: direct maintenance.
    let churn = start_churn(
        &db,
        &rids,
        ChurnConfig {
            threads: 1,
            ops_per_sec: Some(300),
            ..ChurnConfig::default()
        },
    );
    let recs1 = db.wal.stats.records.get();
    std::thread::sleep(std::time::Duration::from_millis(if quick {
        150
    } else {
        400
    }));
    let after = churn.stop();
    let after_recs = db.wal.stats.records.get() - recs1;
    t2.row(vec![
        "after build (direct index maintenance)".into(),
        f2(after_recs as f64 / after.ops.max(1) as f64),
    ]);
    verify_index(&db, idx).expect("verify");
    vec![t, t2]
}

//! E1 (build time), E2 (logging volume), E3 (tree traversals),
//! E12 (multi-index single scan) — the §4 cost comparison.

use super::spec;
use crate::report::{f2, ms, Table};
use crate::workload::{bench_config, seed_table, start_churn, ChurnConfig, TABLE};
use mohan_oib::build::{build_index, build_indexes, BuildOptions, IndexSpec};
use mohan_oib::schema::BuildAlgorithm;
use mohan_oib::verify::verify_index;
use std::time::Instant;

const ALGOS: [BuildAlgorithm; 3] = [
    BuildAlgorithm::Offline,
    BuildAlgorithm::Nsf,
    BuildAlgorithm::Sf,
];

/// E1: wall-clock build time, offline vs NSF vs SF, with concurrent
/// updaters hammering the table. The paper's qualitative claim (§4):
/// SF builds most efficiently (bottom-up, unlogged); NSF pays logging
/// and tree-sharing overhead; offline is fast but blocks all updates.
pub fn e1_build_time(quick: bool) -> Vec<Table> {
    let sizes: Vec<i64> = if quick {
        [10_000, 30_000].map(super::scaled).into()
    } else {
        [30_000, 100_000].map(super::scaled).into()
    };
    let mut t = Table::new(
        "E1: build time under concurrent updates",
        &[
            "rows",
            "algorithm",
            "build",
            "updater ops/s",
            "updater errors",
        ],
    );
    for &n in &sizes {
        for algo in ALGOS {
            let (db, rids) = seed_table(bench_config(), n, 11);
            let churn = start_churn(
                &db,
                &rids,
                ChurnConfig {
                    threads: 2,
                    ..ChurnConfig::default()
                },
            );
            // Let the churn reach steady state before the build.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let ops0 = churn.ops_live.get();
            let started = Instant::now();
            let idx = build_index(&db, TABLE, spec("e1"), algo).expect("build");
            let build = started.elapsed();
            let ops_during = churn.ops_live.get() - ops0;
            let stats = churn.stop();
            verify_index(&db, idx).expect("verify");
            t.row(vec![
                n.to_string(),
                format!("{algo:?}"),
                ms(build),
                f2(ops_during as f64 / build.as_secs_f64().max(1e-9)),
                stats.errors.to_string(),
            ]);
        }
    }
    t.note("Churn is unthrottled: ops/s here mostly reflects CPU competition.");
    t.note("E5 isolates the *blocking* story with throttled updaters.");
    t.note("All indexes verified entry-for-entry against the table after the run.");
    vec![t]
}

/// E2: log volume by origin. §4: "No log records are written by [SF's]
/// IB for inserting keys until side-file processing begins. In NSF,
/// log records are written for all key inserts by IB" (amortized by
/// multi-key records).
pub fn e2_logging(quick: bool) -> Vec<Table> {
    let n: i64 = if quick { 10_000 } else { 40_000 };
    let mut t = Table::new(
        "E2: log volume by origin (n rows, throttled churn)",
        &[
            "algorithm",
            "IB log recs",
            "IB log KB",
            "IB recs/key",
            "txn log recs",
            "total KB",
        ],
    );
    for algo in ALGOS {
        let (db, rids) = seed_table(bench_config(), n, 22);
        let churn = start_churn(
            &db,
            &rids,
            ChurnConfig {
                threads: 2,
                ops_per_sec: Some(2_000),
                ..ChurnConfig::default()
            },
        );
        std::thread::sleep(std::time::Duration::from_millis(30));
        let recs0 = db.wal.stats.records.get();
        let bytes0 = db.wal.stats.bytes.get();
        let ib0 = db.wal.stats.ib_records.get();
        let ibb0 = db.wal.stats.ib_bytes.get();
        let idx = build_index(&db, TABLE, spec("e2"), algo).expect("build");
        let ib_recs = db.wal.stats.ib_records.get() - ib0;
        let ib_kb = (db.wal.stats.ib_bytes.get() - ibb0) as f64 / 1024.0;
        let total_recs = db.wal.stats.records.get() - recs0;
        let total_kb = (db.wal.stats.bytes.get() - bytes0) as f64 / 1024.0;
        let stats = churn.stop();
        let _ = stats;
        verify_index(&db, idx).expect("verify");
        t.row(vec![
            format!("{algo:?}"),
            ib_recs.to_string(),
            f2(ib_kb),
            f2(ib_recs as f64 / n as f64),
            (total_recs - ib_recs).to_string(),
            f2(total_kb),
        ]);
    }
    t.note("SF's IB logs only drain entries; NSF logs one multi-key record per batch.");
    vec![t]
}

/// E3: root-to-leaf traversals during the build. §2.3.1/§4: SF needs
/// none until the side-file; NSF avoids most via the remembered path
/// (ablation row shows the path disabled).
pub fn e3_traversals(quick: bool) -> Vec<Table> {
    let n: i64 = if quick { 5_000 } else { 20_000 };
    let mut t = Table::new(
        "E3: index-tree traversals per build (quiet table)",
        &["variant", "traversals", "hint hits", "traversals/key"],
    );
    let mut variants: Vec<(&str, BuildAlgorithm, bool)> = vec![
        ("NSF (remembered path)", BuildAlgorithm::Nsf, true),
        ("NSF (no hint, ablation)", BuildAlgorithm::Nsf, false),
        ("SF (bottom-up)", BuildAlgorithm::Sf, true),
        ("Offline (bottom-up)", BuildAlgorithm::Offline, true),
    ];
    for (label, algo, hint) in variants.drain(..) {
        let mut cfg = bench_config();
        cfg.ib_remembered_path = hint;
        let (db, _) = seed_table(cfg, n, 33);
        let idx = build_index(&db, TABLE, spec("e3"), algo).expect("build");
        let rt = db.index(idx).expect("index");
        let traversals = rt.tree.stats.traversals.get();
        let hits = rt.tree.stats.remembered_hits.get();
        t.row(vec![
            label.to_string(),
            traversals.to_string(),
            hits.to_string(),
            f2(traversals as f64 / n as f64),
        ]);
    }
    t.note("Bottom-up builds append to the rightmost leaf: no traversals until drain.");
    vec![t]
}

/// E12: multiple indexes in one data scan (§6.2) — data pages read for
/// k separate builds vs one combined build.
pub fn e12_multi_index(quick: bool) -> Vec<Table> {
    let n: i64 = if quick { 5_000 } else { 20_000 };
    let mut t = Table::new(
        "E12: one scan for k indexes (§6.2)",
        &["k", "strategy", "data pages read", "pages/index"],
    );
    for k in [1u16, 2, 4] {
        let specs: Vec<IndexSpec> = (0..k)
            .map(|i| IndexSpec {
                name: format!("m{i}"),
                key_cols: vec![i % 2],
                unique: false,
            })
            .collect();
        // Separate builds.
        {
            let (db, _) = seed_table(bench_config(), n, 44);
            let before = db.table(TABLE).unwrap().stats.scan_pages.get();
            for s in &specs {
                build_index(&db, TABLE, s.clone(), BuildAlgorithm::Sf).expect("build");
            }
            let pages = db.table(TABLE).unwrap().stats.scan_pages.get() - before;
            t.row(vec![
                k.to_string(),
                "k separate scans".into(),
                pages.to_string(),
                f2(pages as f64 / k as f64),
            ]);
        }
        // One combined scan.
        {
            let (db, _) = seed_table(bench_config(), n, 44);
            let before = db.table(TABLE).unwrap().stats.scan_pages.get();
            build_indexes(
                &db,
                TABLE,
                &specs,
                BuildAlgorithm::Sf,
                &BuildOptions::default(),
            )
            .expect("build");
            let pages = db.table(TABLE).unwrap().stats.scan_pages.get() - before;
            t.row(vec![
                k.to_string(),
                "single shared scan".into(),
                pages.to_string(),
                f2(pages as f64 / k as f64),
            ]);
        }
    }
    t.note("The shared scan reads the table once regardless of k.");
    vec![t]
}

//! An index dropped under its build (§2.3.2) ends the build with
//! `Error::BuildCancelled`, whatever the algorithm and the phase the
//! drop lands in: no descriptor, no `build/` record and no open
//! transaction are left, and the same index then builds again.
//!
//! The drop runs from a failpoint hook at a checkpoint site, on the
//! builder's thread, between two of the phase's checkpoints. An
//! offline build's table S lock admits the drop's own table S.

use mohan_common::{EngineConfig, Error, TableId};
use mohan_oib::build::{build_index, drop_index, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::sync::Arc;

const T: TableId = TableId(1);
const ROWS: i64 = 20_000;

/// Checkpoints every 2 000 keys; with `small_runs`, runs of ≈ 512 keys
/// merged 4 at a time and checkpointed every 256, so the reduce has
/// checkpoints too.
fn db(small_runs: bool) -> Arc<Db> {
    let cfg = if small_runs {
        EngineConfig {
            build_checkpoint_every_keys: 256,
            sort_workspace_keys: 256,
            merge_fan_in: 4,
            ..EngineConfig::default()
        }
    } else {
        EngineConfig {
            build_checkpoint_every_keys: 2_000,
            ..EngineConfig::default()
        }
    };
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..cfg
    });
    db.create_table(T);
    let tx = db.begin();
    for k in 0..ROWS {
        let key = k * 7_919 % ROWS;
        db.insert_record(tx, T, &Record::new(vec![key, k])).unwrap();
    }
    db.commit(tx).unwrap();
    db
}

fn spec() -> IndexSpec {
    IndexSpec {
        name: "x".into(),
        key_cols: vec![0],
        unique: false,
    }
}

fn build_keys(db: &Db) -> Vec<String> {
    let mut keys = db.blobs.keys();
    keys.retain(|k| k.starts_with("build/"));
    keys
}

/// Drop the index being built at the second hit of `site`; the build
/// must answer `BuildCancelled` and leave nothing behind.
fn drop_at(algorithm: BuildAlgorithm, site: &'static str, small_runs: bool) {
    let db = db(small_runs);
    let weak = Arc::downgrade(&db);
    db.failpoints.arm_hook(site, 1, move || {
        let db = weak.upgrade().expect("the build holds the engine");
        let idx = db.indexes_of(T).pop().expect("registered before its scan");
        drop_index(&db, idx.def.id).unwrap();
    });
    let got = build_index(&db, T, spec(), algorithm);
    assert_eq!(got, Err(Error::BuildCancelled), "{algorithm:?} at {site}");
    assert!(db.indexes_of(T).is_empty(), "{algorithm:?} at {site}");
    assert_eq!(
        build_keys(&db),
        Vec::<String>::new(),
        "{algorithm:?} at {site}"
    );
    assert_eq!(db.active_txs(), 0, "{algorithm:?} at {site}");
    db.failpoints.clear();
    let id = build_index(&db, T, spec(), algorithm).unwrap();
    verify_index(&db, id).unwrap();
}

#[test]
fn nsf_dropped_mid_insert_is_cancelled() {
    drop_at(BuildAlgorithm::Nsf, "build.insert", false);
}

#[test]
fn sf_dropped_mid_scan_is_cancelled() {
    drop_at(BuildAlgorithm::Sf, "build.scan", false);
}

#[test]
fn sf_dropped_mid_reduce_is_cancelled() {
    drop_at(BuildAlgorithm::Sf, "build.reduce", true);
}

#[test]
fn sf_dropped_mid_load_is_cancelled() {
    drop_at(BuildAlgorithm::Sf, "build.load", false);
}

#[test]
fn offline_dropped_mid_load_is_cancelled() {
    drop_at(BuildAlgorithm::Offline, "build.load", false);
}

//! Every change to an index entry is one `BTree::edit`: the decision,
//! the change and its log record under one leaf latch, the record's LSN
//! stamped on the leaf. What that buys, each case placed by a hook:
//!
//! * GC (§2.2.4) removes a key only if, under the latch, it is still
//!   pseudo-deleted and its record lock is free — not a key a rollback
//!   put back live after GC noted it;
//! * a checkpoint cannot publish an index change whose log record does
//!   not exist yet (the WAL rule), wherever it runs between edits;
//! * one key operation is one descent;
//! * the SF drain, its tree's only writer, still takes over a live
//!   conflict whose record lost the key.

use mohan_common::{EngineConfig, IndexEntry, IndexId, KeyValue, Rid, TableId, TxId};
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::engine::INDEX_EDITED_FAILPOINT;
use mohan_oib::gc::{garbage_collect, GcStats, GC_PROBE_FAILPOINT};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const T: TableId = TableId(1);
const ROWS: i64 = 200;

fn rec(k: i64) -> Record {
    Record::new(vec![k, 1])
}

/// `ROWS` committed rows with keys `0..ROWS`.
fn seeded() -> (Arc<Db>, Vec<Rid>) {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    let tx = db.begin();
    let rids = (0..ROWS)
        .map(|k| db.insert_record(tx, T, &rec(k)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    (db, rids)
}

fn spec(unique: bool) -> IndexSpec {
    IndexSpec {
        name: "k".into(),
        key_cols: vec![0],
        unique,
    }
}

/// [`seeded`], and an index on the key built by `algorithm`.
fn indexed(algorithm: BuildAlgorithm, unique: bool) -> (Arc<Db>, Vec<Rid>, IndexId) {
    let (db, rids) = seeded();
    let id = build_index(&db, T, spec(unique), algorithm).unwrap();
    (db, rids, id)
}

/// Arm `site` to run `hook` on the `(skip + 1)`-th hit; the flag says
/// whether it ran.
fn hook(
    db: &Arc<Db>,
    site: &str,
    skip: u64,
    hook: impl FnOnce(&Db) + Send + 'static,
) -> Arc<AtomicBool> {
    let fired = Arc::new(AtomicBool::new(false));
    let (db2, flag) = (Arc::clone(db), Arc::clone(&fired));
    db.failpoints.arm_hook(site, skip, move || {
        hook(&db2);
        flag.store(true, Ordering::Release);
    });
    fired
}

fn traversals(db: &Db, id: IndexId) -> u64 {
    db.index(id).unwrap().tree.stats.traversals.get()
}

// ----- GC (§2.2.4) --------------------------------------------------

/// A deleter rolls back after GC noted its key and before GC edits it:
/// the key is live again and its lock free, so a probe alone would be
/// granted. GC must keep it.
#[test]
fn gc_keeps_a_key_whose_deleter_rolled_back_after_it_was_noted() {
    let (db, rids, id) = indexed(BuildAlgorithm::Nsf, false);
    let deleter = db.begin();
    db.delete_record(deleter, T, rids[5]).unwrap();
    let fired = hook(&db, GC_PROBE_FAILPOINT, 0, move |db| {
        db.rollback(deleter).unwrap();
    });
    let stats = garbage_collect(&db, id).unwrap();
    assert!(fired.load(Ordering::Acquire));
    assert_eq!(
        stats,
        GcStats {
            scanned: ROWS as u64,
            removed: 0,
            skipped: 0
        }
    );
    verify_index(&db, id).unwrap();
}

/// The same, and a second deleter marks the key again after the
/// rollback and stays open: the key is pseudo-deleted, but not
/// committed-dead. GC must skip it.
#[test]
fn gc_skips_a_key_deleted_again_after_a_rollback() {
    let (db, rids, id) = indexed(BuildAlgorithm::Nsf, false);
    let deleter = db.begin();
    db.delete_record(deleter, T, rids[5]).unwrap();
    let again: Arc<parking_lot::Mutex<Option<TxId>>> = Arc::default();
    let slot = Arc::clone(&again);
    let row = rids[5];
    let fired = hook(&db, GC_PROBE_FAILPOINT, 0, move |db| {
        db.rollback(deleter).unwrap();
        let tx = db.begin();
        db.delete_record(tx, T, row).unwrap();
        *slot.lock() = Some(tx);
    });
    let stats = garbage_collect(&db, id).unwrap();
    assert!(fired.load(Ordering::Acquire));
    assert_eq!((stats.removed, stats.skipped), (0, 1));
    let again = again.lock().take().unwrap();
    db.rollback(again).unwrap();
    verify_index(&db, id).unwrap();
    assert_eq!(garbage_collect(&db, id).unwrap().removed, 0);
}

// ----- the WAL rule for index pages ---------------------------------

/// A checkpoint right after one index edit of a transaction that then
/// loses a crash: the page it published must not hold a change restart
/// cannot undo.
fn checkpoint_after_the_edit_then_crash(change: impl FnOnce(&Db, TxId)) {
    let (db, _, id) = indexed(BuildAlgorithm::Nsf, false);
    let fired = hook(&db, INDEX_EDITED_FAILPOINT, 0, |db| {
        db.checkpoint().unwrap()
    });
    let loser = db.begin();
    change(&db, loser);
    assert!(fired.load(Ordering::Acquire));
    db.simulate_crash();
    assert_eq!(db.restart().unwrap().losers, 1);
    verify_index(&db, id).unwrap();
}

#[test]
fn a_checkpoint_after_an_index_insert_publishes_nothing_restart_cannot_undo() {
    checkpoint_after_the_edit_then_crash(|db, tx| {
        db.insert_record(tx, T, &rec(777_777)).unwrap();
    });
}

#[test]
fn a_checkpoint_after_an_index_delete_publishes_nothing_restart_cannot_undo() {
    checkpoint_after_the_edit_then_crash(|db, tx| {
        let (rid, _) = db
            .table_scan(T)
            .unwrap()
            .into_iter()
            .find(|(_, r)| r.0[0] == 7)
            .unwrap();
        db.delete_record(tx, T, rid).unwrap();
    });
}

/// A scripted mix — a committed transaction, a rolled-back one and one
/// open at the crash, each inserting, deleting and moving a key — with
/// a checkpoint after the `k`-th logged index edit (rollback's
/// compensations included), for every `k`, over an NSF-built and an
/// SF-built index. Crash, restart, verify.
#[test]
fn a_checkpoint_after_any_index_edit_survives_crash_and_restart() {
    for algorithm in [BuildAlgorithm::Nsf, BuildAlgorithm::Sf] {
        let mut k = 0;
        loop {
            let (db, rids, id) = indexed(algorithm, false);
            let fired = hook(&db, INDEX_EDITED_FAILPOINT, k, |db| {
                db.checkpoint().unwrap()
            });
            let mix = |tx, base: usize| {
                db.insert_record(tx, T, &rec(1_000 + base as i64)).unwrap();
                db.delete_record(tx, T, rids[base]).unwrap();
                db.update_record(tx, T, rids[base + 1], &rec(2_000 + base as i64))
                    .unwrap();
            };
            let tx = db.begin();
            mix(tx, 10);
            db.commit(tx).unwrap();
            let tx = db.begin();
            mix(tx, 20);
            db.rollback(tx).unwrap();
            let loser = db.begin();
            mix(loser, 30);
            db.simulate_crash();
            db.restart().unwrap();
            verify_index(&db, id).unwrap_or_else(|e| panic!("{algorithm:?} k={k}: {e}"));
            if !fired.load(Ordering::Acquire) {
                // Past the mix's last edit: 4 in each transaction and
                // 4 compensations in the rollback.
                assert_eq!(k, 16, "{algorithm:?}");
                break;
            }
            k += 1;
        }
    }
}

// ----- one descent per key op ---------------------------------------

/// A transaction's insert that reactivates its exact pseudo-deleted
/// entry: a rolled-back insert left it, and freed the RID for reuse.
#[test]
fn a_reactivating_insert_descends_once() {
    let (db, _, id) = indexed(BuildAlgorithm::Nsf, false);
    let tx = db.begin();
    let rid = db.insert_record(tx, T, &rec(555)).unwrap();
    db.rollback(tx).unwrap();
    let before = traversals(&db, id);
    let tx = db.begin();
    assert_eq!(db.insert_record(tx, T, &rec(555)).unwrap(), rid);
    assert_eq!(traversals(&db, id) - before, 1);
    db.commit(tx).unwrap();
    verify_index(&db, id).unwrap();
}

/// A unique index's take-over of a committed-dead entry (§2.2.3 step
/// 9): decided under the latch, so one descent.
#[test]
fn a_unique_take_over_descends_once() {
    let (db, rids, id) = indexed(BuildAlgorithm::Nsf, true);
    let tx = db.begin();
    db.delete_record(tx, T, rids[9]).unwrap();
    db.commit(tx).unwrap();
    // Another row takes the freed slot, so key 9 comes back elsewhere.
    let tx = db.begin();
    db.insert_record(tx, T, &rec(10_000)).unwrap();
    let before = traversals(&db, id);
    let rid = db.insert_record(tx, T, &rec(9)).unwrap();
    assert_eq!(traversals(&db, id) - before, 1);
    assert_ne!(rid, rids[9]);
    db.commit(tx).unwrap();
    let tree = &db.index(id).unwrap().tree;
    assert_eq!(
        tree.lookup_key_group(&KeyValue::from_i64(9)).unwrap(),
        vec![(rid, false)]
    );
    verify_index(&db, id).unwrap();
}

/// The SF drain's delete: one edit reads the flag it logs and removes
/// the entry. The bottom-up load descends nowhere, so the build's one
/// descent is the drained delete's.
#[test]
fn an_sf_drain_delete_descends_once() {
    let (db, rids) = seeded();
    // Behind the scan, so the delete goes to the side-file.
    let row = rids[5];
    let fired = hook(&db, "build.scan.record", 100, move |db| {
        let tx = db.begin();
        db.delete_record(tx, T, row).unwrap();
        db.commit(tx).unwrap();
    });
    let id = build_index(&db, T, spec(false), BuildAlgorithm::Sf).unwrap();
    assert!(fired.load(Ordering::Acquire));
    let idx = db.index(id).unwrap();
    assert_eq!(idx.side_file.appended.get(), 1);
    assert_eq!(traversals(&db, id), 1);
    let gone = IndexEntry::new(KeyValue::from_i64(5), row);
    assert_eq!(idx.tree.lookup_exact(&gone).unwrap(), None);
    verify_index(&db, id).unwrap();
}

// ----- the unique take-over ------------------------------------------

/// The SF drain is its tree's only writer, so it takes over a conflict
/// whatever its flag: a live entry whose record lost the key waits for
/// that record's own side-file delete. Behind the scan, row 5 moves to
/// key 7 and then row 7 is deleted; the drain's sorted pass applies the
/// insert of `<7, row 5>` first, while the loaded `<7, row 7>` is still
/// live.
#[test]
fn the_sf_drain_takes_over_a_live_entry_whose_delete_comes_later() {
    let (db, rids) = seeded();
    let (five, seven) = (rids[5], rids[7]);
    let fired = hook(&db, "build.scan.record", 100, move |db| {
        let tx = db.begin();
        db.update_record(tx, T, five, &rec(7)).unwrap();
        db.commit(tx).unwrap();
        let tx = db.begin();
        db.delete_record(tx, T, seven).unwrap();
        db.commit(tx).unwrap();
    });
    let id = build_index(&db, T, spec(true), BuildAlgorithm::Sf).unwrap();
    assert!(fired.load(Ordering::Acquire));
    let tree = &db.index(id).unwrap().tree;
    assert_eq!(
        tree.lookup_key_group(&KeyValue::from_i64(7)).unwrap(),
        vec![(five, false)]
    );
    verify_index(&db, id).unwrap();
}

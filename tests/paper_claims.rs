//! The paper's claims, one test each: the §4 comparison of NSF and SF,
//! the §2.2.4 pseudo-delete argument, the §3.2.5 drain, the §5
//! restartable sort and the §6 extensions. EXPERIMENTS.md names the
//! test that stands for each claim (E2–E14).
//!
//! Every assertion is on a counter the engine keeps — log records,
//! descents, splits, lock waits, side-file entries, pages scanned or
//! forced — never on a clock. An update that must meet the builder at
//! a given point runs in a failpoint hook on the builder's own thread
//! (`build.scan.record`, `nsf.insert.key`, `sf.load.key`,
//! `sf.drain.op`), so each interleaving is the same on every run. Run
//! with `--nocapture` to see the counters each test asserts on.

use mohan_bench::workload::{bench_config, seed_table, start_churn, ChurnConfig, TABLE};
use online_index_build::btree::scan::clustering;
use online_index_build::lock::{LockMode, LockName};
use online_index_build::oib::progress::{self, BuildProgress};
use online_index_build::prelude::*;
use online_index_build::sort::{Merge, MergeCheckpoint, RunFormation, RunStore, SortCheckpoint};
use online_index_build::wal::LogPayload;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A non-unique index on column 0, the seeded row number.
fn spec(name: &str) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    }
}

fn rec(key: i64) -> Record {
    Record::new(vec![key, 0])
}

/// What a hook returned, once it has run.
type Slot<T> = Arc<Mutex<Option<T>>>;

/// Run `f` on the thread that makes the `skip + 1`-th hit of `site`.
fn at<T: Send + 'static>(
    db: &Arc<Db>,
    site: &str,
    skip: u64,
    f: impl FnOnce(&Db) -> T + Send + 'static,
) -> Slot<T> {
    let slot = Arc::new(Mutex::new(None));
    let (db2, out) = (Arc::clone(db), Arc::clone(&slot));
    db.failpoints
        .arm_hook(site, skip, move || *out.lock() = Some(f(&db2)));
    slot
}

/// What the hook behind `slot` returned.
///
/// # Panics
/// If it never ran: the build did not reach its site.
fn fired<T>(slot: &Slot<T>) -> T {
    slot.lock().take().expect("the hook's site was not reached")
}

fn update(db: &Db, rid: Rid, key: i64) {
    let tx = db.begin();
    db.update_record(tx, TABLE, rid, &rec(key)).expect("update");
    db.commit(tx).expect("commit");
}

fn delete(db: &Db, rids: &[Rid]) {
    let tx = db.begin();
    for &rid in rids {
        db.delete_record(tx, TABLE, rid).expect("delete");
    }
    db.commit(tx).expect("commit");
}

/// Keys logged as inserted into `index` by the records after `from`
/// up to `to`, one per `IndexInsert` and one per entry of an
/// `IndexBulkInsert`.
fn logged_key_inserts(db: &Db, index: IndexId, from: Lsn, to: Lsn) -> u64 {
    db.wal
        .iter_from(from)
        .take_while(|r| r.lsn <= to)
        .map(|r| match r.payload {
            LogPayload::IndexInsert { index: i, .. } if i == index => 1,
            LogPayload::IndexBulkInsert { index: i, entries } if i == index => entries.len() as u64,
            _ => 0,
        })
        .sum()
}

/// `IndexBulkInsert` records logged for `index` after `from`.
fn bulk_records(db: &Db, index: IndexId, from: Lsn) -> u64 {
    db.wal
        .iter_from(from)
        .filter(
            |r| matches!(&r.payload, LogPayload::IndexBulkInsert { index: i, .. } if *i == index),
        )
        .count() as u64
}

/// E2 (§4, §2.3.1). "No log records are written by [SF's] IB for
/// inserting keys until side-file processing begins. In NSF, log
/// records are written for all key inserts by IB", one record per
/// multi-key batch.
#[test]
fn e2_sf_logs_no_key_insert_before_its_drain_and_nsf_one_record_per_batch() {
    const N: i64 = 5_000;
    const MOVED: usize = 20;

    // SF: while the scan feeds row 1 000, 20 rows it has passed move
    // to new keys (their changes go to the side-file).
    let (db, rids) = seed_table(bench_config(), N, 22);
    let start = db.wal.tail_lsn();
    let ib0 = db.wal.stats.ib_records.get();
    let moved = rids[..MOVED].to_vec();
    let scan = at(&db, "build.scan.record", 1_000, move |db| {
        for (i, &rid) in moved.iter().enumerate() {
            update(db, rid, N + i as i64);
        }
    });
    // The last key of the bulk load: the drain has not begun.
    let load = at(&db, "sf.load.key", N as u64 - 1, |db| {
        (db.wal.tail_lsn(), db.wal.stats.ib_records.get())
    });
    let id = build_index(&db, TABLE, spec("e2_sf"), BuildAlgorithm::Sf).unwrap();
    fired(&scan);
    let (load_end, ib_at_load_end) = fired(&load);
    verify_index(&db, id).unwrap();
    let before_drain = logged_key_inserts(&db, id, start, load_end);
    let in_drain = logged_key_inserts(&db, id, load_end, db.wal.tail_lsn());
    let ib_before_drain = ib_at_load_end - ib0;
    let ib_total = db.wal.stats.ib_records.get() - ib0;
    let side_file = &db.index(id).unwrap().side_file;
    let (appended, passes) = (side_file.appended.get(), side_file.drain_passes.get());
    println!(
        "E2 SF: {N} keys loaded; IB records before the drain {ib_before_drain}, in all \
         {ib_total}; key inserts logged before the drain {before_drain}, by the drain \
         {in_drain}; side-file entries {appended} in {passes} drain pass(es)"
    );
    assert_eq!(before_drain, 0, "SF's load logged key inserts");
    // The load transaction's begin, and no key insert.
    assert_eq!(ib_before_drain, 1, "IB records before the drain");
    assert_eq!(
        appended,
        2 * MOVED as u64,
        "one delete and one insert per move"
    );
    assert_eq!(
        in_drain, MOVED as u64,
        "the drain logs each insert it applies"
    );
    // The drain logs a pseudo-delete and an insert per move. Each
    // builder transaction adds its begin and its commit: the load's,
    // the drain's first, and one more per drain pass's commit cycle.
    assert_eq!(passes, 1, "drain passes");
    assert_eq!(ib_total, 2 * MOVED as u64 + 2 * (2 + passes));

    // NSF: every key is logged, `ib_multi_key_batch` to a record.
    let (db, _) = seed_table(bench_config(), N, 22);
    let start = db.wal.tail_lsn();
    let ib0 = db.wal.stats.ib_records.get();
    let id = build_index(&db, TABLE, spec("e2_nsf"), BuildAlgorithm::Nsf).unwrap();
    verify_index(&db, id).unwrap();
    let keys = logged_key_inserts(&db, id, start, db.wal.tail_lsn());
    let records = bulk_records(&db, id, start);
    let ib = db.wal.stats.ib_records.get() - ib0;
    let batch = db.cfg.ib_multi_key_batch as u64;
    println!(
        "E2 NSF: {N} keys logged in {records} multi-key records ({batch} keys a batch); \
         IB records {ib}"
    );
    assert_eq!(keys, N as u64, "NSF logs every key it inserts");
    // One checkpoint interval (5 000 keys) holds the whole build.
    assert_eq!(records, (N as u64).div_ceil(batch));
    // Besides: a begin and a commit for each of the IB's two
    // transactions (one commit cycle at the 5 000-key checkpoint).
    assert_eq!(ib, records + 4, "IB records");
}

/// E3 (§2.3.1, §4). SF "does not require tree traversals from the root
/// to insert keys until side-file processing begins"; NSF "most of the
/// time ... would avoid tree traversals by remembering the path".
#[test]
fn e3_bottom_up_builds_never_descend_and_the_remembered_path_saves_descents() {
    const N: i64 = 5_000;
    let descents = |algo: BuildAlgorithm, remembered: bool| {
        let mut cfg = bench_config();
        cfg.ib_remembered_path = remembered;
        let (db, _) = seed_table(cfg, N, 33);
        let id = build_index(&db, TABLE, spec("e3"), algo).unwrap();
        let stats = &db.index(id).unwrap().tree.stats;
        let (traversals, hits) = (stats.traversals.get(), stats.remembered_hits.get());
        verify_index(&db, id).unwrap();
        println!(
            "E3 {algo:?} (remembered path {remembered}): {traversals} descents, {hits} hint hits"
        );
        (traversals, hits)
    };
    assert_eq!(descents(BuildAlgorithm::Sf, true), (0, 0));
    assert_eq!(descents(BuildAlgorithm::Offline, true), (0, 0));
    let (without, _) = descents(BuildAlgorithm::Nsf, false);
    assert_eq!(without, N as u64, "without the hint every key descends");
    let (with, hits) = descents(BuildAlgorithm::Nsf, true);
    assert_eq!(with + hits, N as u64, "every key either descends or hits");
    // One descent per leaf the IB fills, not per key: under 5 %.
    assert!(
        with * 20 <= without,
        "{with} descents with the hint, {without} without"
    );
}

/// E4 (§4, §2.3.1). SF's bottom-up tree is perfectly clustered. NSF's
/// IB splits a leaf by moving only the higher keys, which "tries to
/// mimic what happens in a bottom-up build"; transactions inserting
/// into the shared tree split leaves in half and disturb the order.
#[test]
fn e4_sf_clusters_perfectly_and_only_transaction_splits_disturb_nsf() {
    const N: i64 = 4_000;
    let build = |algo: BuildAlgorithm, inject: bool| {
        let (db, _) = seed_table(bench_config(), N, 55);
        // A quarter of the way through NSF's inserts, 300 transactions'
        // rows with key values the IB has yet to reach.
        let injected = inject.then(|| {
            at(&db, "nsf.insert.key", N as u64 / 4, |db| {
                let tx = db.begin();
                for i in 0..300 {
                    db.insert_record(tx, TABLE, &rec(N / 2 + i))
                        .expect("insert");
                }
                db.commit(tx).expect("commit");
            })
        });
        let id = build_index(&db, TABLE, spec("e4"), algo).unwrap();
        if let Some(slot) = &injected {
            fired(slot);
        }
        verify_index(&db, id).unwrap();
        let tree = &db.index(id).unwrap().tree;
        let c = clustering(tree).unwrap();
        let (half, ib) = (tree.stats.splits.get(), tree.stats.ib_splits.get());
        println!(
            "E4 {algo:?}{}: clustering {:.3} over {} leaves, occupancy {:.2}, \
             IB splits {ib}, half splits {half}",
            if inject {
                " + 300 transaction inserts"
            } else {
                ""
            },
            c.clustering_ratio(),
            c.leaves,
            c.avg_occupancy,
        );
        (c.clustering_ratio(), ib, half)
    };
    assert_eq!(build(BuildAlgorithm::Sf, false), (1.0, 0, 0));
    let (quiet, ib, half) = build(BuildAlgorithm::Nsf, false);
    assert!(ib > 0, "NSF's IB fills leaves by splitting them");
    assert_eq!(half, 0, "the IB never half-splits");
    assert_eq!(quiet, 1.0, "the IB's split mimics a bottom-up build");
    let (disturbed, ib, half) = build(BuildAlgorithm::Nsf, true);
    assert!(ib > 0 && half > 0, "IB splits {ib}, half splits {half}");
    assert!(disturbed < 1.0, "clustering {disturbed}");
}

/// E5 (§1, §2.2.1, §3.2.1). An offline build keeps updaters out of the
/// table for its whole run; SF never quiesces; NSF waits for the
/// updaters only while it creates the descriptor.
#[test]
fn e5_offline_refuses_updates_sf_admits_them_and_nsf_waits_only_at_its_quiesce() {
    const N: i64 = 2_000;
    // An update's first step: a conditional IX lock on the table.
    let try_ix = |db: &Db| {
        let tx = db.begin();
        let got = db.locks.try_lock(tx, LockName::Table(TABLE), LockMode::IX);
        db.rollback(tx).expect("rollback");
        got
    };

    let (db, _) = seed_table(bench_config(), N, 66);
    let refused = at(&db, "build.scan.record", 1_000, move |db| try_ix(db));
    let id = build_index(&db, TABLE, spec("e5_off"), BuildAlgorithm::Offline).unwrap();
    let refused = fired(&refused);
    println!("E5 Offline: an update's IX lock mid-scan -> {refused:?}");
    assert!(matches!(refused, Err(Error::LockBusy)), "{refused:?}");
    verify_index(&db, id).unwrap();

    for algo in [BuildAlgorithm::Sf, BuildAlgorithm::Nsf] {
        let (db, rids) = seed_table(bench_config(), N, 66);
        let waits0 = db.locks.stats.waits.get();
        let rid = rids[N as usize - 1];
        let admitted = at(&db, "build.scan.record", 1_000, move |db| {
            let got = try_ix(db);
            update(db, rid, 2 * N);
            got
        });
        // An updater in flight as the build starts, holding the
        // table's IX lock.
        let holder = db.begin();
        db.insert_record(holder, TABLE, &rec(3 * N)).unwrap();
        let id = if algo == BuildAlgorithm::Sf {
            let id = build_index(&db, TABLE, spec("e5"), algo).unwrap();
            db.commit(holder).unwrap();
            id
        } else {
            std::thread::scope(|s| {
                let build = s.spawn(|| build_index(&db, TABLE, spec("e5"), algo).unwrap());
                // The lock manager counts a wait with the waiter queued.
                while db.locks.stats.waits.get() == waits0 {
                    std::thread::yield_now();
                }
                db.commit(holder).unwrap();
                build.join().unwrap()
            })
        };
        let admitted = fired(&admitted);
        let waits = db.locks.stats.waits.get() - waits0;
        println!("E5 {algo:?}: an update's IX lock mid-scan -> {admitted:?}; lock waits {waits}");
        assert!(admitted.is_ok(), "{algo:?}: {admitted:?}");
        let quiesce_waits = u64::from(algo == BuildAlgorithm::Nsf);
        assert_eq!(waits, quiesce_waits, "{algo:?}");
        verify_index(&db, id).unwrap();
    }
}

/// E6 (§3.2.2, §4). While SF's scan has not reached a record, an update
/// of it needs no index work at all: the scan will read its new
/// version. Once the scan has passed it, the update appends to the
/// side-file. Neither touches a page of the tree.
#[test]
fn e6_updates_during_the_sf_scan_append_to_the_side_file_and_touch_no_tree_page() {
    const N: i64 = 5_000;
    let (db, rids) = seed_table(bench_config(), N, 77);
    let (passed, ahead) = (rids[0], rids[N as usize - 1]);
    let seen = at(&db, "build.scan.record", 1_000, move |db| {
        let idx = db.indexes_of(TABLE).last().cloned().expect("index");
        let counts = || {
            let c = &idx.tree.cache.stats;
            (
                idx.side_file.appended.get(),
                c.hits.get() + c.misses.get() + c.allocations.get(),
                idx.tree.stats.traversals.get(),
            )
        };
        let before = counts();
        update(db, ahead, 2 * N);
        let after_ahead = counts();
        update(db, passed, 2 * N + 1);
        (before, after_ahead, counts())
    });
    let id = build_index(&db, TABLE, spec("e6"), BuildAlgorithm::Sf).unwrap();
    let (before, after_ahead, after_passed) = fired(&seen);
    println!(
        "E6 SF mid-scan (side-file entries, tree page accesses, descents): before \
         {before:?}, after an update ahead of the scan {after_ahead:?}, after one \
         behind it {after_passed:?}"
    );
    assert_eq!(after_ahead, before, "the scan will see the new version");
    let (appended, pages, traversals) = after_passed;
    assert_eq!(appended, before.0 + 2, "a delete and an insert");
    assert_eq!((pages, traversals), (before.1, before.2), "no tree page");
    verify_index(&db, id).unwrap();
}

fn entry(k: i64, i: u64) -> IndexEntry {
    IndexEntry::from_i64(k, Rid::new((i / 100) as u32, (i % 100) as u16))
}

/// E7 (§5.1). A crash in the sort phase loses at most the keys fed
/// since the last checkpoint, and every key still reaches a run.
#[test]
fn e7_a_crashed_sort_refeeds_at_most_one_interval() {
    const N: u64 = 20_000;
    let mut rng = StdRng::seed_from_u64(7);
    let keys: Vec<i64> = (0..N).map(|_| rng.random_range(0..10_000_000)).collect();
    // Off every checkpoint boundary.
    let crash_at = (N * 58 / 100 + 321) as usize;
    for interval in [1_000u64, 5_000] {
        let store: Arc<RunStore<IndexEntry>> = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), 1024);
        let mut cp: Option<SortCheckpoint<IndexEntry>> = None;
        for (i, &k) in keys.iter().take(crash_at).enumerate() {
            rf.push(entry(k, i as u64), i as u64 + 1).unwrap();
            if (i as u64 + 1).is_multiple_of(interval) {
                cp = Some(rf.checkpoint().unwrap());
            }
        }
        drop(rf);
        store.crash();
        let cp = cp.expect("a checkpoint before the crash");
        let refed = crash_at as u64 - cp.scan_pos;
        let mut rf = RunFormation::resume(Arc::clone(&store), 1024, &cp).unwrap();
        for (i, &k) in keys.iter().enumerate().skip(cp.scan_pos as usize) {
            rf.push(entry(k, i as u64), i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        let total: u64 = runs.iter().map(|&r| store.len(r).unwrap()).sum();
        println!(
            "E7 interval {interval}: crash at key {crash_at}, {refed} keys re-fed, {} runs",
            runs.len()
        );
        assert_eq!(
            refed,
            crash_at as u64 % interval,
            "lost work is the tail past a checkpoint"
        );
        assert!(refed < interval);
        assert_eq!(total, N, "the sort lost or duplicated keys");
    }
}

/// E8 (§5.2). The merge repositions by its per-input counters: "no key
/// is left out from the merge and no key is output more than once".
#[test]
fn e8_a_crashed_merge_resumes_exactly() {
    const N: u64 = 20_000;
    const RUNS: u64 = 8;
    let mut rng = StdRng::seed_from_u64(8);
    let store: Arc<RunStore<IndexEntry>> = Arc::new(RunStore::new());
    let mut expected = Vec::new();
    let mut run_ids = Vec::new();
    for _ in 0..RUNS {
        let mut items: Vec<IndexEntry> = (0..N / RUNS)
            .map(|i| entry(rng.random_range(0..10_000_000), i))
            .collect();
        items.sort();
        expected.extend(items.iter().cloned());
        let id = store.create_run();
        store.append(id, &items).unwrap();
        store.force_run(id).unwrap();
        run_ids.push(id);
    }
    expected.sort();
    let crash_at = expected.len() * 58 / 100 + 321;
    for interval in [1_000u64, 5_000] {
        let mut merge = Merge::new(&store, run_ids.clone());
        let mut out = Vec::with_capacity(expected.len());
        let mut cp: Option<MergeCheckpoint> = None;
        while out.len() < crash_at {
            out.push(merge.next().unwrap());
            if (out.len() as u64).is_multiple_of(interval) {
                cp = Some(merge.checkpoint());
            }
        }
        drop(merge);
        store.crash();
        let cp = cp.expect("a checkpoint before the crash");
        out.truncate(cp.emitted as usize);
        let re_emitted = crash_at as u64 - cp.emitted;
        out.extend(Merge::resume(&store, &cp).unwrap());
        println!("E8 interval {interval}: crash at key {crash_at}, {re_emitted} keys re-emitted");
        assert!(re_emitted < interval);
        assert!(out == expected, "the resumed merge diverged");
    }
}

/// E9 (§2.2.3, §3.2.4). A crash of the IB costs at most the keys
/// inserted (NSF) or loaded (SF) since its last checkpoint; the
/// resumed build is exact.
#[test]
fn e9_a_crashed_ib_redoes_at_most_one_interval() {
    const N: i64 = 4_000;
    for (algo, site) in [
        (BuildAlgorithm::Nsf, "nsf.insert.key"),
        (BuildAlgorithm::Sf, "sf.load.key"),
    ] {
        for interval in [500u32, 1_500] {
            let (db, _) = seed_table(bench_config(), N, 99);
            let crash_at = N as u64 / 2;
            db.failpoints.arm_after(site, crash_at);
            let options = BuildOptions::new().checkpoint_every(interval);
            let err = build_indexes(&db, TABLE, &[spec("e9")], algo, &options).unwrap_err();
            assert!(err.is_crash(), "{err}");
            db.simulate_crash();
            db.restart().unwrap();
            let id = db.indexes_of(TABLE).last().unwrap().def.id;
            let at_checkpoint = match progress::load(&db, id).unwrap() {
                Some(BuildProgress::Inserting { inserted, .. }) => inserted,
                Some(BuildProgress::Loading { bulk, .. }) => bulk.count,
                other => panic!("{algo:?}: progress {other:?}"),
            };
            let redone = crash_at - at_checkpoint;
            println!(
                "E9 {algo:?} interval {interval}: crash at key {crash_at}, {at_checkpoint} \
                 keys at the last checkpoint, {redone} to redo"
            );
            assert_eq!(at_checkpoint, crash_at - crash_at % u64::from(interval));
            resume_build(&db, id).unwrap();
            verify_index(&db, id).unwrap();
        }
    }
}

/// E9b (§2.2.3, §3.2.4). A checkpoint forces "all the dirty pages of
/// the index", so one quiescent build writes each page of its tree
/// about once, not once per checkpoint. The counts are exact: a
/// change to them is a change in what a checkpoint writes.
#[test]
fn e9b_a_quiescent_build_forces_each_tree_page_about_once() {
    const N: i64 = 10_000;
    let cfg = bench_config();
    let checkpoints = N as u64 / cfg.build_checkpoint_every_keys as u64;
    let (db, _) = seed_table(cfg, N, 99);
    let forces = || db.obs.snapshot().counter("cache.force").unwrap();
    for (algo, pinned) in [(BuildAlgorithm::Nsf, 114), (BuildAlgorithm::Sf, 114)] {
        let before = forces();
        let id = build_index(&db, TABLE, spec(&format!("e9b_{algo:?}")), algo).unwrap();
        let forced = forces() - before;
        verify_index(&db, id).unwrap();
        let tree = &db.index(id).unwrap().tree;
        let pages = u64::from(tree.cache.num_pages());
        let height = u64::from(tree.root().unwrap().1);
        println!(
            "E9b {algo:?}: {N} rows, {checkpoints} checkpoints, {pages} tree pages of \
             height {height}, {forced} pages forced"
        );
        // Each page once, and per checkpoint — and for the empty tree
        // and the completion — the builder's branch and the anchor.
        assert!(forced >= pages && forced <= pages + (checkpoints + 2) * (height + 1));
        assert_eq!(forced, pinned, "{algo:?}");
    }
}

/// E10 (§2.2.4, §4). NSF needs pseudo-deleted keys: a transaction that
/// deletes a key the IB has not inserted yet leaves a tombstone, and
/// one that deletes an inserted key only marks it. SF "does not need
/// pseudo-delete support": its drain deletes keys outright. Garbage
/// collection removes the tombstones of committed deletes and skips
/// one whose deleter is still in flight.
#[test]
fn e10_sf_plants_no_pseudo_deleted_key_and_gc_removes_only_committed_ones() {
    const N: i64 = 2_000;
    const DELETED: u64 = 200;
    // 100 keys behind the builder and 100 keys ahead of it.
    let victims = |rids: &[Rid]| [&rids[100..200], &rids[1_500..1_600]].concat();

    let (db, rids) = seed_table(bench_config(), N, 10);
    let gone = victims(&rids);
    let deleted = at(&db, "nsf.insert.key", 1_000, move |db| delete(db, &gone));
    let id = build_index(&db, TABLE, spec("e10_nsf"), BuildAlgorithm::Nsf).unwrap();
    fired(&deleted);
    verify_index(&db, id).unwrap();
    let rt = db.index(id).unwrap();
    let pseudo = clustering(&rt.tree).unwrap().pseudo_entries;
    let tombstones = rt.tree.stats.tombstones.get();
    println!("E10 NSF: {DELETED} deletes mid-build leave {pseudo} pseudo-deleted keys, {tombstones} of them tombstones");
    assert_eq!(pseudo, DELETED);
    assert_eq!(tombstones, DELETED / 2, "the keys the IB had not reached");

    // One more delete, still in flight while the collector runs.
    let inflight = db.begin();
    db.delete_record(inflight, TABLE, rids[500]).unwrap();
    let gc = garbage_collect(&db, id).unwrap();
    db.rollback(inflight).unwrap();
    verify_index(&db, id).unwrap();
    let after = clustering(&rt.tree).unwrap().pseudo_entries;
    println!(
        "E10 NSF GC: removed {}, skipped {}; {after} pseudo-deleted keys left after the rollback",
        gc.removed, gc.skipped
    );
    assert_eq!((gc.removed, gc.skipped), (DELETED, 1));
    assert_eq!(garbage_collect(&db, id).unwrap().removed, 0);

    // SF, the same deletes while the scan feeds row 1 000.
    let (db, rids) = seed_table(bench_config(), N, 10);
    let gone = victims(&rids);
    let deleted = at(&db, "build.scan.record", 1_000, move |db| delete(db, &gone));
    let id = build_index(&db, TABLE, spec("e10_sf"), BuildAlgorithm::Sf).unwrap();
    fired(&deleted);
    verify_index(&db, id).unwrap();
    let rt = db.index(id).unwrap();
    let pseudo = clustering(&rt.tree).unwrap().pseudo_entries;
    println!(
        "E10 SF: {DELETED} deletes mid-build leave {pseudo} pseudo-deleted keys \
         ({} side-file entries)",
        rt.side_file.appended.get()
    );
    assert_eq!(pseudo, 0);
    assert_eq!(
        rt.tree.stats.pseudo_deletes.get() + rt.tree.stats.tombstones.get(),
        0
    );
}

/// E11 (§3.2.5). The side-file holds exactly the changes behind the
/// scan; the drain applies its backlog in one pass (sorted or in
/// side-file order) and entries appended meanwhile in one catch-up
/// pass, then closes the side-file.
#[test]
fn e11_the_drain_applies_every_side_file_entry_once() {
    const N: i64 = 3_000;
    const MOVED: u64 = 50;
    for sorted in [true, false] {
        let (db, rids) = seed_table(bench_config(), N, 110);
        let moved = rids[..MOVED as usize].to_vec();
        let scan = at(&db, "build.scan.record", 2_000, move |db| {
            for (i, &rid) in moved.iter().enumerate() {
                update(db, rid, N + i as i64);
            }
        });
        // A late arrival, behind the drain's first pass.
        let late = rids[MOVED as usize];
        let drain = at(&db, "sf.drain.op", 0, move |db| update(db, late, 2 * N));
        let options = BuildOptions::new().sorted_drain(sorted);
        let id =
            build_indexes(&db, TABLE, &[spec("e11")], BuildAlgorithm::Sf, &options).unwrap()[0];
        fired(&scan);
        fired(&drain);
        verify_index(&db, id).unwrap();
        let sf = &db.index(id).unwrap().side_file;
        let (appended, backlog, passes) = (
            sf.appended.get(),
            sf.max_backlog.get(),
            sf.drain_passes.get(),
        );
        println!(
            "E11 {} drain: {appended} side-file entries, peak backlog {backlog}, \
             {passes} drain passes",
            if sorted { "sorted" } else { "sequential" }
        );
        assert_eq!(appended, 2 * MOVED + 2);
        assert_eq!(backlog, 2 * MOVED);
        assert_eq!(passes, 2, "the backlog, then the late arrival");
    }
}

/// E12 (§6.2). "It would be very beneficial to build multiple indexes
/// in one data scan": k indexes built together read each data page
/// once; built one by one they read it k times.
#[test]
fn e12_one_scan_feeds_every_index_of_a_batch() {
    const N: i64 = 2_000;
    for k in [1u16, 2, 4] {
        let specs: Vec<IndexSpec> = (0..k)
            .map(|i| IndexSpec {
                name: format!("m{i}"),
                key_cols: vec![i % 2],
                unique: false,
            })
            .collect();
        let scanned = |together: bool| {
            let (db, _) = seed_table(bench_config(), N, 44);
            let table = db.table(TABLE).unwrap();
            let before = table.stats.scan_pages.get();
            let ids = if together {
                build_indexes(
                    &db,
                    TABLE,
                    &specs,
                    BuildAlgorithm::Sf,
                    &BuildOptions::default(),
                )
                .unwrap()
            } else {
                specs
                    .iter()
                    .map(|s| build_index(&db, TABLE, s.clone(), BuildAlgorithm::Sf).unwrap())
                    .collect()
            };
            let read = table.stats.scan_pages.get() - before;
            for id in ids {
                verify_index(&db, id).unwrap();
            }
            (read, u64::from(table.num_pages()))
        };
        let (separate, pages) = scanned(false);
        let (shared, _) = scanned(true);
        println!("E12 k = {k}: {pages} data pages; read {separate} by {k} builds, {shared} by one");
        assert_eq!(separate, u64::from(k) * pages);
        assert_eq!(shared, pages);
    }
}

/// E13 (§2.2.3, §6.1). "SF and NSF can create correctly both unique
/// and nonunique indexes, without giving spurious
/// unique-key-value-violation error messages", and a real duplicate
/// fails the build.
#[test]
fn e13_unique_builds_under_churn_raise_no_spurious_violation() {
    const N: i64 = 2_000;
    let unique = || IndexSpec {
        name: "e13".into(),
        key_cols: vec![0],
        unique: true,
    };
    for algo in [BuildAlgorithm::Nsf, BuildAlgorithm::Sf] {
        for seed in 0..4 {
            let (db, rids) = seed_table(bench_config(), N, 130 + seed);
            // Inserts, deletes and updates on disjoint key ranges:
            // never a real duplicate.
            let churn = start_churn(
                &db,
                &rids,
                ChurnConfig {
                    threads: 2,
                    seed,
                    ..ChurnConfig::default()
                },
            );
            let built = build_index(&db, TABLE, unique(), algo);
            churn.stop();
            let id = built.unwrap_or_else(|e| panic!("{algo:?}, seed {seed}: {e}"));
            verify_index(&db, id).unwrap();
        }
        let (db, _) = seed_table(bench_config(), N, 777);
        let tx = db.begin();
        db.insert_record(tx, TABLE, &rec(5)).unwrap(); // key 5 twice
        db.commit(tx).unwrap();
        let dup = build_index(&db, TABLE, unique(), algo);
        println!("E13 {algo:?}: 4 builds under churn verified; a planted duplicate -> {dup:?}");
        assert!(
            matches!(dup, Err(Error::UniqueViolation { .. })),
            "{algo:?}: {dup:?}"
        );
    }
}

/// E14 (§6.2). SF over records stored in a clustering primary index
/// scans it with a current-*key* cursor in place of Current-RID, and
/// the secondary index agrees with the table under churn.
#[test]
fn e14_sf_over_the_primary_index_builds_an_exact_secondary_under_churn() {
    const N: i64 = 3_000;
    let by_payload = |name: &str| IndexSpec {
        name: name.into(),
        key_cols: vec![1],
        unique: false,
    };
    // Inserts and deletes only: the primary key stays put.
    let churn_cfg = || ChurnConfig {
        threads: 2,
        mix: (1, 1, 0),
        ..ChurnConfig::default()
    };
    let (db, rids) = seed_table(bench_config(), N, 140);
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
    .unwrap();
    let churn = start_churn(&db, &rids, churn_cfg());
    let built = build_secondary_via_primary(&db, primary, by_payload("by_payload_pk"));
    churn.stop();
    let id = built.unwrap();
    verify_index(&db, id).unwrap();
    verify_index(&db, primary).unwrap();
    println!(
        "E14 key cursor: {} side-file entries, secondary and primary verified",
        db.index(id).unwrap().side_file.appended.get()
    );
}

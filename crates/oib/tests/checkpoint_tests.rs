//! What an IB checkpoint costs, counted in pages, and that a build
//! checkpointed that way under concurrent writers still resumes after
//! a crash into an exact index. And what an engine checkpoint leaves of
//! the log: no more than the work since it, however long the history,
//! and never a record that restart, rollback or an open side-file still
//! needs — and what a restart then redoes: nothing before it.

use mohan_common::{EngineConfig, IndexId, Lsn, Rid, TableId};
use mohan_oib::build::{build_index, build_indexes, resume_build, BuildOptions, IndexSpec};
use mohan_oib::checkpointer::CHECKPOINT_TRIGGER_BYTES;
use mohan_oib::progress::{self, BuildProgress};
use mohan_oib::runtime::{IndexRuntime, IndexState};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::{Db, Session};
use mohan_wal::LogPayload;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const T: TableId = TableId(1);
const ROWS: i64 = 40_000;
const CHECKPOINT_EVERY: u32 = 5_000;
/// The build dies at its sixth insert/load checkpoint.
const CHECKPOINTS: u64 = 6;
const WRITERS: i64 = 2;

fn rec(k: i64, v: i64) -> Record {
    Record::new(vec![k, v])
}

fn seeded_db() -> (Arc<Db>, Vec<Rid>) {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    let tx = db.begin();
    // Even keys, so the writers' odd ones land between them all over
    // the tree.
    let rids = (0..ROWS)
        .map(|k| db.insert_record(tx, T, &rec(2 * k, 1)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    (db, rids)
}

fn tree_height(idx: &IndexRuntime) -> u64 {
    u64::from(idx.tree.root().unwrap().1)
}

/// Build under `WRITERS` concurrent sessions until the armed `site`
/// kills it, check the pages forced so far against what was dirtied,
/// then crash, restart, resume and verify.
///
/// A writer inserts a fresh row, and every third time also moves a
/// seeded row of its own to a new key. With `paced` it does one such
/// step per 250 entries the tree gained (so the writes are spread over
/// the IB's insert phase and their number is bounded by the table, not
/// by the test's speed); unpaced it runs flat out.
fn crash_under_writers(algorithm: BuildAlgorithm, site: &'static str, paced: bool) {
    let (db, rids) = seeded_db();
    db.failpoints.arm_after(site, CHECKPOINTS - 1);
    let stop = AtomicBool::new(false);
    let index_ops = AtomicU64::new(0);

    let err = std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (db, rids, stop, index_ops) = (&db, &rids, &stop, &index_ops);
            s.spawn(move || {
                let mut session = Session::new(Arc::clone(db));
                let mut next_at = 0u64;
                let mut step = 0i64;
                while !stop.load(Ordering::Acquire) {
                    if paced {
                        let gained = db
                            .indexes_of(T)
                            .last()
                            .map_or(0, |idx| idx.tree.stats.inserts.get());
                        if gained < next_at {
                            std::thread::yield_now();
                            continue;
                        }
                        next_at = gained + 250;
                    }
                    let n = step * WRITERS + w;
                    step += 1;
                    session.insert(T, &rec(2 * n + 1, 0)).unwrap();
                    index_ops.fetch_add(1, Ordering::Relaxed);
                    if step % 3 == 0 {
                        // Same row each time round for this writer's
                        // residue class; the key moves past the seeded
                        // range: a delete and an insert in the index.
                        let row = (n as usize * 7) % rids.len();
                        let row = row - row % WRITERS as usize + w as usize;
                        session
                            .update(T, rids[row], &rec(4 * ROWS + 2 * n, 2))
                            .unwrap();
                        index_ops.fetch_add(2, Ordering::Relaxed);
                    }
                }
            });
        }
        let spec = IndexSpec {
            name: "under_writers".into(),
            key_cols: vec![0],
            unique: false,
        };
        let opts = BuildOptions::new().checkpoint_every(CHECKPOINT_EVERY);
        let err = build_indexes(&db, T, &[spec], algorithm, &opts).unwrap_err();
        stop.store(true, Ordering::Release);
        err
    });
    assert!(err.is_crash(), "{algorithm:?}: {err}");

    let idx = db.indexes_of(T).last().cloned().unwrap();
    // The index's own cache: `cache.force` sums every cache, and a
    // background checkpoint the writers' log set off forces heap pages
    // the bound below does not count.
    let forced = idx.tree.cache.stats.forces.get();
    let pages = u64::from(idx.tree.cache.num_pages());
    let height = tree_height(&idx);
    // Every page once, when the builder moves past it; per checkpoint
    // (and for the empty tree forced at creation) the branch the
    // builder stood on and the anchor; and the root-to-leaf path of
    // every index operation a writer made. An SF build's writers go to
    // the side-file and touch no index page before the drain.
    let writers = match algorithm {
        BuildAlgorithm::Sf => 0,
        _ => index_ops.load(Ordering::Relaxed),
    };
    let dirtied = pages + (CHECKPOINTS + 2) * (height + 1) + writers * (height + 1);
    assert!(
        forced <= dirtied,
        "{algorithm:?}: {forced} pages forced, {dirtied} dirtied \
         ({pages} pages, height {height}, {writers} writer operations)"
    );
    // Forcing the whole tree at every checkpoint cost about
    // CHECKPOINTS / 2 trees; the bound above must stay well under
    // that, or it shows nothing.
    assert!(
        dirtied < 2 * pages,
        "{algorithm:?}: bound {dirtied} too loose for {pages} pages"
    );

    db.simulate_crash();
    db.restart().unwrap();
    resume_build(&db, idx.def.id).unwrap();
    assert_eq!(db.index(idx.def.id).unwrap().state(), IndexState::Complete);
    verify_index(&db, idx.def.id).unwrap();
}

#[test]
fn nsf_checkpoints_force_what_was_dirtied_and_the_build_resumes() {
    crash_under_writers(BuildAlgorithm::Nsf, "build.insert", true);
}

#[test]
fn sf_checkpoints_force_what_was_loaded_and_the_build_resumes() {
    crash_under_writers(BuildAlgorithm::Sf, "build.load", false);
}

fn counter(db: &Db, name: &str) -> u64 {
    db.obs.snapshot().counter(name).unwrap()
}

/// Rows wide enough that an update logs ≈ 3 KiB (both images).
fn wide(k: i64, v: i64) -> Record {
    let mut cols = vec![k, v];
    cols.resize(200, v);
    Record::new(cols)
}

/// Autocommit updates of a handful of wide rows until the log has grown
/// by `bytes`, calling `after_commit` after each; the table does not
/// grow. Returns the rows.
fn grow_log(db: &Arc<Db>, bytes: u64, mut after_commit: impl FnMut()) -> Vec<Rid> {
    let tx = db.begin();
    let rids: Vec<Rid> = (0..16)
        .map(|k| db.insert_record(tx, T, &wide(k, 0)).unwrap())
        .collect();
    db.commit(tx).unwrap();
    let goal = db.wal.stats.bytes.get() + bytes;
    let mut v = 1;
    while db.wal.stats.bytes.get() < goal {
        for (k, &rid) in rids.iter().enumerate() {
            let tx = db.begin();
            db.update_record(tx, T, rid, &wide(k as i64, v)).unwrap();
            db.commit(tx).unwrap();
            after_commit();
        }
        v += 1;
    }
    rids
}

/// With nothing open, the background checkpointer keeps the log within
/// a few triggers' worth of bytes however much is appended: eight
/// triggers' worth here.
#[test]
fn the_background_checkpointer_keeps_the_log_bounded() {
    let db = Db::new(EngineConfig::default());
    db.create_table(T);
    let mut held_max = 0;
    let rids = grow_log(&db, 8 * CHECKPOINT_TRIGGER_BYTES, || {
        held_max = held_max.max(db.wal.resident_bytes() - db.wal.directory_bytes());
    });
    assert!(
        held_max <= 3 * CHECKPOINT_TRIGGER_BYTES,
        "the log held {held_max} bytes of chunks"
    );
    assert!(counter(&db, "checkpoint.count") >= 4);
    assert_eq!(counter(&db, "checkpoint.failed"), 0);
    assert!(counter(&db, "wal.first_lsn") > 1);
    assert!(counter(&db, "wal.truncated_records") > 0);
    // What is left restarts into the same rows.
    let want: Vec<Record> = rids
        .iter()
        .map(|&r| db.read_record(T, r).unwrap())
        .collect();
    db.simulate_crash();
    db.restart().unwrap();
    let got: Vec<Record> = rids
        .iter()
        .map(|&r| db.read_record(T, r).unwrap())
        .collect();
    assert_eq!(got, want);
}

/// An open transaction holds truncation at its first record: it rolls
/// back after a checkpoint, and another one open across a checkpoint is
/// undone by restart.
#[test]
fn an_open_transaction_holds_truncation_at_its_first_record() {
    let (db, rids) = seeded_db();
    let open = |row: usize| {
        let tx = db.begin();
        let first = db.wal.tail_lsn();
        db.delete_record(tx, T, rids[row]).unwrap();
        (tx, first)
    };
    let more = || {
        let tx = db.begin();
        for k in 0..200 {
            db.insert_record(tx, T, &rec(-k - 1, 0)).unwrap();
        }
        db.commit(tx).unwrap();
    };

    let (tx, first) = open(1);
    more();
    db.checkpoint().unwrap();
    assert_eq!(db.wal.first_lsn(), first);
    db.rollback(tx).unwrap();
    assert_eq!(db.read_record(T, rids[1]).unwrap(), rec(2, 1));
    db.checkpoint().unwrap();
    assert!(
        db.wal.first_lsn() > first,
        "the rolled-back transaction let go"
    );

    let (_loser, first) = open(2);
    more();
    db.checkpoint().unwrap();
    assert_eq!(db.wal.first_lsn(), first);
    db.simulate_crash();
    assert_eq!(db.restart().unwrap().losers, 1);
    assert_eq!(db.read_record(T, rids[2]).unwrap(), rec(4, 1));
}

/// `index`'s side-file appends the log holds, with their LSNs.
fn side_file_appends(db: &Db, index: IndexId) -> Vec<Lsn> {
    db.wal
        .iter_from(Lsn(db.wal.first_lsn().0 - 1))
        .filter(|r| matches!(r.payload, LogPayload::SideFileAppend { index: i, .. } if i == index))
        .map(|r| r.lsn)
        .collect()
}

fn sf_spec(name: &str) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    }
}

/// An open side-file holds truncation at its first logged append, yet
/// restart redoes nothing before the checkpoint: the log is the
/// side-file, so the resumed build reads the appends where they stand
/// and comes out exact.
#[test]
fn an_open_side_file_holds_the_log_and_restart_redoes_only_past_the_checkpoint() {
    let (db, rids) = seeded_db();
    db.failpoints.arm_after("sf.load.key", 1_000);
    let err = build_index(&db, T, sf_spec("sf_open"), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash(), "{err}");
    let idx = db.indexes_of(T).last().cloned().unwrap();
    assert_eq!(idx.state(), IndexState::SfBuilding);
    // The scan is over: every change now goes to the side-file.
    let mut session = Session::new(Arc::clone(&db));
    for (i, &rid) in rids.iter().take(50).enumerate() {
        session
            .update(T, rid, &rec(10 * ROWS + i as i64, 3))
            .unwrap();
    }
    let side_file_first = side_file_appends(&db, idx.def.id)[0];
    for k in 0..500 {
        session.insert(T, &rec(-k - 1, 0)).unwrap();
    }
    db.checkpoint().unwrap();
    let checkpoint = db.wal.tail_lsn();
    assert!(db.wal.first_lsn() > Lsn(1));
    assert!(db.wal.first_lsn() <= side_file_first);

    db.simulate_crash();
    let stats = db.restart().unwrap();
    assert_eq!(
        stats.redone, 1,
        "redo offered more than the checkpoint record"
    );
    assert_eq!(stats.redo_start, Lsn(checkpoint.0 - 1));
    resume_build(&db, idx.def.id).unwrap();
    assert_eq!(db.index(idx.def.id).unwrap().state(), IndexState::Complete);
    verify_index(&db, idx.def.id).unwrap();
}

/// A drain pass that committed lets the log go below what it read,
/// though the side-file stays open; what is appended after it stays.
#[test]
fn a_drained_prefix_of_an_open_side_file_releases_the_log() {
    let (db, rids) = seeded_db();
    // Halfway through the scan, 50 rows it has passed move: their
    // changes go to the side-file.
    let (db2, moved) = (Arc::clone(&db), rids[..50].to_vec());
    db.failpoints
        .arm_hook("build.scan.record", ROWS as u64 / 2, move || {
            let mut session = Session::new(db2);
            for (i, &rid) in moved.iter().enumerate() {
                session
                    .update(T, rid, &rec(10 * ROWS + i as i64, 3))
                    .unwrap();
            }
        });
    // The first drain pass commits, stores its record and dies.
    db.failpoints.arm("build.drain");
    let err = build_index(&db, T, sf_spec("sf_drained"), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash(), "{err}");
    let idx = db.indexes_of(T).last().cloned().unwrap();
    assert_eq!(idx.state(), IndexState::SfBuilding);
    let Some(BuildProgress::Draining { pos }) = progress::load(&db, idx.def.id).unwrap() else {
        panic!("no drain record");
    };
    let drained = side_file_appends(&db, idx.def.id);
    assert_eq!(drained.len(), 100, "a delete and an insert per move");
    let last_drained = *drained.last().unwrap();
    // The side-file is still open: these go to it, after the pass.
    let mut session = Session::new(Arc::clone(&db));
    for (i, &rid) in rids[50..60].iter().enumerate() {
        session
            .update(T, rid, &rec(11 * ROWS + i as i64, 4))
            .unwrap();
    }
    let first_undrained = side_file_appends(&db, idx.def.id)[100];

    db.checkpoint().unwrap();
    assert!(
        db.wal.first_lsn() > last_drained,
        "the log is held at {} below the drained append {}",
        db.wal.first_lsn().0,
        last_drained.0
    );
    assert!(db.wal.first_lsn() <= first_undrained);
    assert!(last_drained <= Lsn(pos) && Lsn(pos) < first_undrained);

    db.simulate_crash();
    db.restart().unwrap();
    // Restart pinned the side-file again: the undrained appends stay.
    db.checkpoint().unwrap();
    assert!(db.wal.first_lsn() <= first_undrained);
    resume_build(&db, idx.def.id).unwrap();
    assert_eq!(db.index(idx.def.id).unwrap().state(), IndexState::Complete);
    verify_index(&db, idx.def.id).unwrap();
}

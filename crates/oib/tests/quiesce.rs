//! A refused table quiesce, or a failed build, leaves nothing behind.
//!
//! Each test puts an idle writer — a transaction that inserted one row,
//! and so holds the table's IX — in place before the call, with a short
//! lock timeout, so every table S the call asks for is refused. After
//! the error: the count of open transactions is what it was before the
//! call; once the idle writer commits, a checkpoint truncates the log
//! past the failure (no leaked transaction and no side-file pin holds
//! it); and no index of the table is left building. Then the same build
//! completes and agrees with the table.
//!
//! The last tests pin the cancelled descriptor (`IndexState::Cancelled`):
//! it keeps its place in the table's index list, which rollback's
//! visible-index counts depend on, until a quiesce of the table — a
//! checkpoint's zero-wait one included — or a restart after undo
//! removes it.

use mohan_common::{EngineConfig, Error, Lsn, TableId, TxId};
use mohan_oib::build::{build_index, drop_index, IndexSpec};
use mohan_oib::runtime::{Catalog, IndexState};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::sync::Arc;

const T: TableId = TableId(1);

fn engine(cfg: EngineConfig) -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 200,
        ..cfg
    });
    db.create_table(T);
    let tx = db.begin();
    for k in 0..300 {
        db.insert_record(tx, T, &Record::new(vec![k, k])).unwrap();
    }
    db.commit(tx).unwrap();
    db
}

fn db() -> Arc<Db> {
    engine(EngineConfig::small())
}

fn spec(name: &str, unique: bool) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique,
    }
}

/// Insert `[k, k]` in a transaction of its own and commit it.
fn commit_row(db: &Db, k: i64) {
    let tx = db.begin();
    db.insert_record(tx, T, &Record::new(vec![k, k])).unwrap();
    db.commit(tx).unwrap();
}

/// A transaction that inserted one row and stays open: it holds the
/// table's IX, so a table S waits for it and times out.
fn idle_writer(db: &Db) -> TxId {
    let tx = db.begin();
    db.insert_record(tx, T, &Record::new(vec![-1, -1])).unwrap();
    tx
}

/// The states of every descriptor of the table the catalog holds,
/// cancelled ones included.
fn catalog_states(db: &Db) -> Vec<IndexState> {
    let Catalog(entries) = Catalog::decode(&db.blobs.get("catalog").unwrap_or_default())
        .unwrap_or(Catalog(Vec::new()));
    entries
        .iter()
        .filter(|e| e.def.table == T)
        .map(|e| e.state)
        .collect()
}

/// What a failure must leave: `open` transactions, as before the call;
/// no index of the table building; and, once `idle` commits, a
/// checkpoint that truncates the log past the failure at `failed_at`.
fn assert_nothing_left(db: &Db, open: usize, idle: TxId, failed_at: Lsn) {
    assert_eq!(db.active_txs(), open, "a transaction leaked");
    assert!(
        catalog_states(db)
            .iter()
            .all(|s| matches!(s, IndexState::Complete | IndexState::Cancelled)),
        "an index was left building: {:?}",
        catalog_states(db)
    );
    db.commit(idle).unwrap();
    db.checkpoint().unwrap();
    assert!(
        db.wal.first_lsn() > failed_at,
        "the log is held at {} below the failure at {failed_at}",
        db.wal.first_lsn()
    );
}

fn assert_lock_timeout(err: &Error) {
    assert!(matches!(err, Error::LockTimeout { .. }), "{err}");
}

/// The same build, now unhindered, completes and agrees with the table.
fn rebuild(db: &Arc<Db>, unique: bool, algorithm: BuildAlgorithm) {
    let id = build_index(db, T, spec("ix", unique), algorithm).unwrap();
    verify_index(db, id).unwrap();
}

#[test]
fn a_refused_drop_leaves_the_index_and_no_transaction() {
    let db = db();
    let id = build_index(&db, T, spec("ix", false), BuildAlgorithm::Sf).unwrap();
    let idle = idle_writer(&db);
    let open = db.active_txs();
    assert_lock_timeout(&drop_index(&db, id).unwrap_err());
    let failed_at = db.wal.tail_lsn();
    assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
    assert_nothing_left(&db, open, idle, failed_at);
    verify_index(&db, id).unwrap();
    drop_index(&db, id).unwrap();
    assert!(
        catalog_states(&db).is_empty(),
        "the drop removed the descriptor"
    );
    rebuild(&db, false, BuildAlgorithm::Sf);
}

#[test]
fn a_refused_nsf_descriptor_quiesce_registers_nothing() {
    let db = db();
    let idle = idle_writer(&db);
    let open = db.active_txs();
    let err = build_index(&db, T, spec("ix", false), BuildAlgorithm::Nsf).unwrap_err();
    assert_lock_timeout(&err);
    let failed_at = db.wal.tail_lsn();
    assert!(db.indexes_of(T).is_empty());
    assert_nothing_left(&db, open, idle, failed_at);
    rebuild(&db, false, BuildAlgorithm::Nsf);
}

#[test]
fn a_refused_offline_quiesce_leaves_no_transaction() {
    let db = db();
    let idle = idle_writer(&db);
    let open = db.active_txs();
    let err = build_index(&db, T, spec("ix", false), BuildAlgorithm::Offline).unwrap_err();
    assert_lock_timeout(&err);
    let failed_at = db.wal.tail_lsn();
    assert!(db.indexes_of(T).is_empty());
    assert_nothing_left(&db, open, idle, failed_at);
    rebuild(&db, false, BuildAlgorithm::Offline);
}

/// Arm `sf.drain.op` to commit one row (key `k`) from a scoped thread,
/// and to arm itself again, `left` times in all: every drain pass
/// leaves the next one an entry.
fn insert_on_each_drain_pass(db: &Arc<Db>, k: i64, left: u32) {
    let hook_db = Arc::clone(db);
    db.failpoints.arm_hook("sf.drain.op", 0, move || {
        std::thread::scope(|s| {
            s.spawn(|| commit_row(&hook_db, k));
        });
        if left > 1 {
            insert_on_each_drain_pass(&hook_db, k + 1, left - 1);
        }
    });
}

/// Run an SF build whose drain falls back to its quiesce while an idle
/// writer holds the table's IX: the build fails with a lock timeout and
/// its descriptor is left cancelled.
fn refused_drain(db: &Arc<Db>) {
    // The load leaves the drain one entry; each pass's operation leaves
    // the next pass one, so the drain falls back to its quiesce after
    // the third non-empty catch-up pass.
    let hook_db = Arc::clone(db);
    db.failpoints.arm_hook("sf.load.key", 0, move || {
        std::thread::scope(|s| {
            s.spawn(|| commit_row(&hook_db, 1_000));
        });
    });
    insert_on_each_drain_pass(db, 1_001, 6);
    let err = build_index(db, T, spec("ix", false), BuildAlgorithm::Sf).unwrap_err();
    assert_lock_timeout(&err);
    db.failpoints.clear();
}

#[test]
fn a_refused_drain_quiesce_cancels_the_build_and_frees_its_side_file() {
    let db = db();
    let idle = idle_writer(&db);
    let open = db.active_txs();
    refused_drain(&db);
    let failed_at = db.wal.tail_lsn();
    assert!(
        db.obs.snapshot().counter("build.drain_passes") >= Some(4),
        "the drain never reached its quiesce"
    );
    assert!(db.indexes_of(T).is_empty());
    assert_eq!(catalog_states(&db), [IndexState::Cancelled]);
    assert_nothing_left(&db, open, idle, failed_at);
    rebuild(&db, false, BuildAlgorithm::Sf);
}

/// A checkpoint removes a cancelled descriptor once no writer holds
/// its table, so `Db::plan` stops walking it and the catalog stops
/// shipping it; while a writer is open it leaves it, without waiting.
#[test]
fn a_checkpoint_removes_a_cancelled_descriptor_no_writer_holds() {
    let db = db();
    let idle = idle_writer(&db);
    refused_drain(&db);
    assert_eq!(catalog_states(&db), [IndexState::Cancelled]);
    let waits = || db.obs.snapshot().counter("lock.waits").unwrap();
    let (open, before) = (db.active_txs(), waits());
    db.checkpoint().unwrap();
    assert_eq!(catalog_states(&db), [IndexState::Cancelled]);
    assert_eq!(waits(), before, "the checkpoint's quiesce waited");
    assert_eq!(db.active_txs(), open, "a transaction leaked");
    db.commit(idle).unwrap();
    db.checkpoint().unwrap();
    assert!(catalog_states(&db).is_empty(), "{:?}", catalog_states(&db));
    assert_eq!(db.active_txs(), 0);
    rebuild(&db, false, BuildAlgorithm::Sf);
}

#[test]
fn a_failed_build_is_cancelled_without_a_table_lock() {
    let db = db();
    commit_row(&db, 7); // a second committed key 7: no unique index
    let idle = idle_writer(&db);
    let open = db.active_txs();
    let err = build_index(&db, T, spec("ix", true), BuildAlgorithm::Sf).unwrap_err();
    assert!(matches!(err, Error::UniqueViolation { .. }), "{err}");
    let failed_at = db.wal.tail_lsn();
    assert!(db.indexes_of(T).is_empty());
    assert_eq!(catalog_states(&db), [IndexState::Cancelled]);
    // A quiesce refused while the writer is open ends its transaction
    // and leaves the descriptor where it is.
    assert_lock_timeout(&db.quiesce(T).err().expect("refused"));
    assert_eq!(catalog_states(&db), [IndexState::Cancelled]);
    assert_nothing_left(&db, open, idle, failed_at);
    // The first granted quiesce of the table removes it.
    db.quiesce(T).unwrap().end().unwrap();
    assert!(catalog_states(&db).is_empty());
    let tx = db.begin();
    let dup = db
        .table_scan(T)
        .unwrap()
        .into_iter()
        .rev()
        .find(|(_, r)| r.0[0] == 7)
        .unwrap()
        .0;
    db.delete_record(tx, T, dup).unwrap();
    db.commit(tx).unwrap();
    rebuild(&db, true, BuildAlgorithm::Sf);
}

/// Restart undoes a loser before it removes a cancelled descriptor. The
/// loser inserted a row while the cancelled index was registered and
/// visible, so its record counts that index; an NSF index built after
/// the cancel (no descriptor quiesce, §3.2.3) extracted the row, and
/// undo must reach it by position. Were the cancelled descriptor gone
/// before undo, the later index would sit one place lower, below the
/// logged count, and keep the loser's key.
#[test]
fn restart_undoes_a_loser_before_it_removes_a_cancelled_descriptor() {
    let db = engine(EngineConfig {
        nsf_descriptor_quiesce: false,
        ..EngineConfig::small()
    });
    commit_row(&db, 7);
    let before = build_index(&db, T, spec("before", false), BuildAlgorithm::Sf).unwrap();
    let loser = db.begin();
    let hook_db = Arc::clone(&db);
    db.failpoints.arm_hook("sf.load.key", 0, move || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let row = Record::new(vec![5_000, 5_000]);
                hook_db.insert_record(loser, T, &row).unwrap();
            });
        });
    });
    let err = build_index(&db, T, spec("cancelled", true), BuildAlgorithm::Sf).unwrap_err();
    assert!(matches!(err, Error::UniqueViolation { .. }), "{err}");
    let after = build_index(&db, T, spec("after", false), BuildAlgorithm::Nsf).unwrap();
    assert_eq!(
        catalog_states(&db),
        [
            IndexState::Complete,
            IndexState::Cancelled,
            IndexState::Complete
        ]
    );
    db.simulate_crash();
    let stats = db.restart().unwrap();
    assert!(stats.losers >= 1, "the inserter is a loser");
    assert_eq!(db.active_txs(), 0);
    assert_eq!(
        catalog_states(&db),
        [IndexState::Complete, IndexState::Complete]
    );
    for id in [before, after] {
        verify_index(&db, id).unwrap();
    }
}

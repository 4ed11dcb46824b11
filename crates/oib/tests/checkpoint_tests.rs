//! What an IB checkpoint costs, counted in pages, and that a build
//! checkpointed that way under concurrent writers still resumes after
//! a crash into an exact index.

use mohan_btree::Node;
use mohan_common::{EngineConfig, PageId, Rid, TableId};
use mohan_oib::build::{build_indexes_with, resume_build, BuildOptions, IndexSpec};
use mohan_oib::runtime::{IndexRuntime, IndexState};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::{Db, Session};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const T: TableId = TableId(1);
const ROWS: i64 = 40_000;
const CHECKPOINT_EVERY: usize = 5_000;
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

fn cache_force(db: &Db) -> u64 {
    db.obs.snapshot().counter("cache.force").unwrap()
}

fn tree_height(idx: &IndexRuntime) -> u64 {
    match idx
        .tree
        .cache
        .frame(PageId(0))
        .unwrap()
        .latch
        .share()
        .payload
    {
        Node::Anchor { height, .. } => u64::from(height),
        _ => unreachable!("page 0 is the anchor"),
    }
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
    let forced_before = cache_force(&db);
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
        let err = build_indexes_with(&db, T, &[spec], algorithm, &opts).unwrap_err();
        stop.store(true, Ordering::Release);
        err
    });
    assert!(err.is_crash(), "{algorithm:?}: {err}");

    let idx = db.indexes_of(T).last().cloned().unwrap();
    let forced = cache_force(&db) - forced_before;
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

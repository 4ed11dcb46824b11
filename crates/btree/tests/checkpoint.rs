//! Two-phase `BTree::force_all` under concurrent writers, and a crash
//! between its phases.
//!
//! The interleavings are forced with progress counters the writers
//! publish; nothing here sleeps.

use mohan_btree::scan::{collect_all, verify_structure};
use mohan_btree::tree::FORCE_STAGED_FAILPOINT;
use mohan_btree::{unlogged, BTree, BTreeConfig, Edit, InsertMode};
use mohan_common::{FileId, IndexEntry, Lsn, Rid};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const WRITERS: usize = 4;

fn tree() -> BTree {
    BTree::create(
        FileId(13),
        BTreeConfig {
            // Small pages: a few thousand keys make three levels, so
            // leaf and internal splits both happen under the test.
            page_size: 256,
            fill_factor: 0.9,
            unique: false,
            hint_enabled: true,
        },
    )
}

/// The `i`-th entry of writer `w`. Writers interleave over the whole
/// key range, so they meet in the same leaves and split them.
fn entry(w: usize, i: usize) -> IndexEntry {
    let k = (i * WRITERS + w) as i64;
    IndexEntry::from_i64(k, Rid::new((k / 64) as u32, (k % 64) as u16))
}

/// Write entry `i` of writer `w` the way the writers do: insert it,
/// and pseudo-delete every seventh one right after.
fn write(t: &BTree, w: usize, i: usize) {
    let e = entry(w, i);
    t.insert(e.clone(), InsertMode::Transaction).unwrap();
    if i.is_multiple_of(7) {
        t.edit(&e, InsertMode::Transaction, Edit::pseudo, unlogged)
            .unwrap();
    }
}

/// One round: the writers extend their sequences (`done[w]` entries
/// written so far, advanced only after the write returned) while the
/// calling thread takes `checkpoints` checkpoints, each after the
/// writers have got at least 200 entries further, so every checkpoint
/// overlaps writes. Before each `force_all` the checkpointer reads how
/// far each writer has got; the reading taken before the last
/// `force_all` that returned `Ok` is returned: those entries must be in
/// the published image. The writers stop when the checkpointer is
/// through, or when `force_all` fails (the armed failpoint).
fn run_round(
    t: &BTree,
    done: &[AtomicUsize; WRITERS],
    checkpoints: usize,
    mut published: [usize; WRITERS],
) -> ([usize; WRITERS], bool) {
    let stop = AtomicBool::new(false);
    let mut crashed = false;
    std::thread::scope(|s| {
        for (w, done) in done.iter().enumerate() {
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let i = done.load(Ordering::Relaxed);
                    write(t, w, i);
                    done.store(i + 1, Ordering::Release);
                }
            });
        }
        let read =
            || -> [usize; WRITERS] { std::array::from_fn(|w| done[w].load(Ordering::Acquire)) };
        let mut last: usize = read().iter().sum();
        for _ in 0..checkpoints {
            while read().iter().sum::<usize>() < last + 200 {
                std::thread::yield_now();
            }
            let seen = read();
            last = seen.iter().sum();
            match t.force_all(Lsn::NULL) {
                Ok(()) => published = seen,
                Err(e) => {
                    assert!(e.is_crash(), "{e}");
                    crashed = true;
                    break;
                }
            }
        }
        stop.store(true, Ordering::Release);
    });
    (published, crashed)
}

/// After a crash: the durable tree is a well-formed tree and holds
/// every entry a writer had finished before the last published
/// checkpoint began.
fn assert_recovers(t: &BTree, published: &[usize; WRITERS]) {
    t.cache.crash();
    verify_structure(t).unwrap();
    for (w, &n) in published.iter().enumerate() {
        for i in 0..n {
            let pseudo = t
                .lookup_exact(&entry(w, i))
                .unwrap()
                .unwrap_or_else(|| panic!("writer {w} entry {i} of {n} lost"));
            if !i.is_multiple_of(7) {
                assert!(!pseudo, "writer {w} entry {i}");
            }
        }
    }
}

#[test]
fn checkpoints_under_concurrent_writers_publish_consistent_trees() {
    let t = tree();
    let done: [AtomicUsize; WRITERS] = std::array::from_fn(|_| AtomicUsize::new(0));
    let mut published = [0usize; WRITERS];
    // Crash after every round, at whatever point after its last
    // checkpoint the writers happened to leave the tree in; the next
    // round then writes into the recovered tree.
    for _ in 0..5 {
        let (p, crashed) = run_round(&t, &done, 4, published);
        assert!(!crashed);
        assert_recovers(&t, &p);
        // What the crash took is written again, as redo would.
        for (w, &n) in p.iter().enumerate() {
            for i in n..done[w].load(Ordering::Relaxed) {
                write(&t, w, i);
            }
        }
        t.force_all(Lsn::NULL).unwrap();
        published = std::array::from_fn(|w| done[w].load(Ordering::Relaxed));
    }
    assert_recovers(&t, &published);
    assert_eq!(
        collect_all(&t, true).unwrap().len(),
        published.iter().sum::<usize>()
    );
}

#[test]
fn crash_between_staging_and_publication_keeps_the_previous_image() {
    let t = tree();
    for i in 0..300 {
        for w in 0..WRITERS {
            t.insert(entry(w, i), InsertMode::Transaction).unwrap();
        }
    }
    t.force_all(Lsn::NULL).unwrap();
    let image = collect_all(&t, true).unwrap();
    let forced = t.cache.stats.forces.get();

    // Splits all over the tree and flag changes in old leaves, all
    // staged by phase 1 — and none of it may reach the durable image.
    for i in 300..900 {
        for w in 0..WRITERS {
            t.insert(entry(w, i), InsertMode::Transaction).unwrap();
        }
    }
    for i in (0..300).step_by(3) {
        t.edit(
            &entry(0, i),
            InsertMode::Transaction,
            Edit::pseudo,
            unlogged,
        )
        .unwrap();
    }
    t.failpoints.arm(FORCE_STAGED_FAILPOINT);
    assert!(t.force_all(Lsn::NULL).unwrap_err().is_crash());
    assert_eq!(t.cache.stats.forces.get(), forced, "nothing was written");
    t.cache.crash();
    verify_structure(&t).unwrap();
    assert_eq!(collect_all(&t, true).unwrap(), image);

    // The recovered tree checkpoints normally afterwards.
    t.insert(entry(0, 300), InsertMode::Transaction).unwrap();
    t.force_all(Lsn::NULL).unwrap();
    t.cache.crash();
    verify_structure(&t).unwrap();
    assert_eq!(collect_all(&t, true).unwrap().len(), image.len() + 1);
}

#[test]
fn crash_before_publication_under_concurrent_writers() {
    let t = tree();
    let done: [AtomicUsize; WRITERS] = std::array::from_fn(|_| AtomicUsize::new(0));
    let (published, crashed) = run_round(&t, &done, 2, [0; WRITERS]);
    assert!(!crashed);
    // The third checkpoint of this round dies with its pages staged,
    // writers running. What recovers is what the second one published.
    t.failpoints.arm_after(FORCE_STAGED_FAILPOINT, 2);
    let (published, crashed) = run_round(&t, &done, 3, published);
    assert!(crashed);
    assert_recovers(&t, &published);
    let upper: usize = done.iter().map(|d| d.load(Ordering::Relaxed)).sum();
    assert!(collect_all(&t, true).unwrap().len() <= upper);
}

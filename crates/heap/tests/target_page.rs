//! The insert target page: each inserting thread keeps the page its
//! last insert went to and tries it first, goes to the free-space map
//! only when it is full or gone, and never carries a target across a
//! crash.

use mohan_common::{Lsn, PageId, Rid, TableId};
use mohan_heap::HeapTable;
use std::collections::BTreeSet;
use std::sync::mpsc;

fn table() -> HeapTable {
    HeapTable::new(TableId(1), 256, 4)
}

fn no_log(_: Rid) -> Lsn {
    Lsn::NULL
}

/// Rows of `len` bytes one page holds.
fn rows_per_page(len: usize) -> usize {
    let t = table();
    let mut n = 0;
    while t.insert_with(&vec![0; len], no_log).unwrap().page == PageId(0) {
        n += 1;
    }
    n
}

/// Insert a row into `t`, checking its RID is new to `rids`.
fn insert_new(t: &HeapTable, rids: &mut BTreeSet<Rid>, byte: u8) -> Rid {
    let rid = t.insert_with(&[byte; 40], no_log).unwrap();
    assert!(rids.insert(rid), "{rid} handed out twice");
    rid
}

#[test]
fn inserts_after_a_crash_never_reuse_a_crash_lost_target() {
    let t = table();
    let mut rids = BTreeSet::new();
    for _ in 0..3 {
        insert_new(&t, &mut rids, 1);
    }
    t.cache.force_all(Lsn(1), || {}).unwrap();
    // Fill on past the forced page: this thread's target is now a page
    // no image of which survives the crash.
    let lost = loop {
        let rid = insert_new(&t, &mut rids, 2);
        if rid.page != PageId(0) {
            break rid;
        }
    };
    t.crash();
    assert_eq!(t.num_pages(), 1, "only the forced page survives");
    rids.retain(|r| t.exists(*r));
    // Restart's redo puts the lost page back, with room to spare; a
    // stale target would send the next insert there.
    t.redo_insert(lost, &[2; 40], Lsn(2)).unwrap();
    rids.insert(lost);
    for _ in 0..20 {
        let rid = insert_new(&t, &mut rids, 3);
        assert_ne!(
            rid.page, lost.page,
            "an insert reused the crash-lost target"
        );
    }
    assert_eq!(t.count().unwrap(), rids.len() as u64);
}

#[test]
fn released_space_on_earlier_pages_is_used_before_a_new_page() {
    let t = table();
    let rids: Vec<Rid> = (0..60)
        .map(|i| t.insert_with(&[i; 40], no_log).unwrap())
        .collect();
    let pages = t.num_pages();
    assert!(pages >= 4);
    // Committed deletes on the first two pages, released.
    let freed: BTreeSet<Rid> = rids
        .iter()
        .filter(|r| r.page.0 < 2)
        .step_by(2)
        .copied()
        .collect();
    for &rid in &freed {
        t.delete_with(rid, |_| Lsn::NULL).unwrap();
        t.release_slot(rid).unwrap();
    }
    // Insert until a page is allocated: by then the target is full and
    // every freed slot has been taken.
    let mut reused = BTreeSet::new();
    loop {
        let rid = t.insert_with(&[9; 40], no_log).unwrap();
        if t.num_pages() > pages {
            break;
        }
        if rid.page.0 < 2 {
            reused.insert(rid);
        }
    }
    assert_eq!(reused, freed);
}

#[test]
fn lockstep_inserters_each_fill_their_own_page() {
    let per_page = rows_per_page(20);
    let t = table();
    // Each thread fills two pages and starts a third.
    let rows = 2 * per_page + 1;
    let (done, finished) = mpsc::channel();
    let rid_sets = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u8)
            .map(|w| {
                let (go, turn) = mpsc::channel::<()>();
                let done = done.clone();
                let t = &t;
                let handle = s.spawn(move || {
                    let mut rids = Vec::new();
                    for () in turn {
                        rids.push(t.insert_with(&[w; 20], no_log).unwrap());
                        done.send(()).unwrap();
                    }
                    rids
                });
                (go, handle)
            })
            .collect();
        for _ in 0..rows {
            for (go, _) in &workers {
                go.send(()).unwrap();
                finished.recv().unwrap();
            }
        }
        workers
            .into_iter()
            .map(|(go, handle)| {
                drop(go);
                handle.join().unwrap()
            })
            .collect::<Vec<_>>()
    });
    let pages = |rids: &[Rid]| rids.iter().map(|r| r.page).collect::<BTreeSet<_>>();
    let (a, b) = (pages(&rid_sets[0]), pages(&rid_sets[1]));
    assert_eq!(a.len(), 3, "{a:?}");
    assert_eq!(b.len(), 3, "{b:?}");
    assert!(a.is_disjoint(&b), "shared pages: {a:?} and {b:?}");
    // A thread that ends gives its target back: the last pages, one
    // row on each, take the next inserts without a new page.
    let before = t.num_pages();
    for _ in 0..2 * (per_page - 1) {
        t.insert_with(&[7; 20], no_log).unwrap();
    }
    assert_eq!(t.num_pages(), before);
    assert_eq!(t.count().unwrap(), (2 * rows + 2 * (per_page - 1)) as u64);
}

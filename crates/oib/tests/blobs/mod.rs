//! Samples of every blob the engine persists or ships outside a wire
//! message, shared by `golden_blobs.rs` (their exact bytes) and
//! `hostile_bytes.rs` (their decoders under attack).

use mohan_btree::{BulkCheckpoint, Node};
use mohan_common::codec::Wire;
use mohan_common::{IndexEntry, IndexId, KeyValue, Lsn, PageId, Rid, TableId, TxId};
use mohan_oib::build::BuildOptions;
use mohan_oib::progress::{BuildProgress, PartCheckpoint};
use mohan_oib::runtime::{Catalog, CatalogEntry, IndexState};
use mohan_oib::schema::{BuildAlgorithm, IndexDef, Record};
use mohan_sort::{MergeCheckpoint, MergePassCheckpoint, RunMeta, SortCheckpoint};
use mohan_storage::SlottedPage;
use mohan_wal::{LogPayload, LogRecord, RecKind, SideFileOp};
use std::fmt::Debug;

/// A blob type under test: it travels on the shared codec and can be
/// compared and printed.
pub trait Blob: Wire + PartialEq + Debug {}

impl<T: Wire + PartialEq + Debug> Blob for T {}

/// Where the samples go.
pub trait Sink {
    /// One sample of a blob type, under its golden-file label.
    fn add<T: Blob>(&mut self, label: &str, value: &T);
}

pub fn entry(key: i64, page: u32, slot: u16) -> IndexEntry {
    IndexEntry::new(KeyValue::from_i64(key), Rid::new(page, slot))
}

/// Index and heap pages of the samples are this small, to keep their
/// lines short and their attacks quick.
pub const PAGE: usize = 128;

/// An internal page over children 1, then each separator's.
fn internal(seps: &[(IndexEntry, PageId)]) -> Node {
    let mut n = Node::internal(PAGE, PageId(1));
    for (i, (sep, child)) in seps.iter().enumerate() {
        n.insert_sep(i, sep, *child).unwrap();
    }
    n
}

/// A leaf of `entries` (with their pseudo-deleted flags).
fn leaf(entries: &[(IndexEntry, bool)], next: Option<PageId>, fence: Option<IndexEntry>) -> Node {
    let mut n = Node::leaf(PAGE);
    for (i, (e, pseudo)) in entries.iter().enumerate() {
        n.insert(i, e, *pseudo).unwrap();
    }
    n.set_next(next);
    n.set_high_fence(fence.as_ref()).unwrap();
    n
}

/// Heap pages of `PAGE` bytes: empty, full, with reserved slots, and
/// after a compaction. They are not golden lines — the page's own tests
/// pin its bytes — and hold no holds, which live outside the bytes.
#[allow(dead_code)] // only `hostile_bytes.rs` attacks heap pages
pub fn heap_pages() -> Vec<SlottedPage> {
    let empty = SlottedPage::new(PAGE);
    let mut full = SlottedPage::new(PAGE);
    for i in 0u8.. {
        if full.insert(&[i; 18]).is_err() {
            break;
        }
    }
    let mut reserved = SlottedPage::new(PAGE);
    let slots: Vec<_> = (1..=5)
        .map(|i| reserved.insert(&[i; 12]).unwrap())
        .collect();
    reserved.delete(slots[1]).unwrap();
    reserved.delete(slots[3]).unwrap();
    let mut compacted = reserved.clone();
    compacted.free_slot(slots[1]);
    compacted.free_slot(slots[3]);
    compacted.insert(&[9; 50]).unwrap();
    vec![empty, full, reserved, compacted]
}

fn def(id: u32, name: &str, unique: bool, key_cols: Vec<u16>) -> IndexDef {
    IndexDef {
        id: IndexId(id),
        name: name.into(),
        table: TableId(3),
        unique,
        key_cols,
    }
}

/// Every sample, in golden-file order.
pub fn samples(sink: &mut impl Sink) {
    let e = entry(-42, 7, 2);
    let merge = MergeCheckpoint {
        inputs: vec![3, 1, 4],
        counters: vec![10, 0, 7],
        emitted: 17,
    };
    let no_merge = MergeCheckpoint {
        inputs: vec![],
        counters: vec![],
        emitted: 0,
    };
    let sort = SortCheckpoint::<IndexEntry> {
        runs: vec![RunMeta { id: 0, len: 100 }, RunMeta { id: 1, len: 42 }],
        scan_pos: 777,
        last_run_high: Some(e.clone()),
    };
    let no_sort = SortCheckpoint::<IndexEntry> {
        runs: vec![],
        scan_pos: 0,
        last_run_high: None,
    };
    let pass = MergePassCheckpoint {
        remaining: vec![4, 9],
        inflight: Some((17, merge.clone())),
    };
    let no_pass = MergePassCheckpoint {
        remaining: vec![5],
        inflight: None,
    };
    let bulk = BulkCheckpoint {
        highest: Some(e.clone()),
        count: 2,
        allocated: 4,
        root: PageId(1),
        height: 2,
        right_path: vec![PageId(1), PageId(3)],
    };
    let no_bulk = BulkCheckpoint {
        highest: None,
        count: 0,
        allocated: 2,
        root: PageId(1),
        height: 1,
        right_path: vec![],
    };

    sink.add("sort", &sort);
    sink.add("sort", &no_sort);
    sink.add(
        "sort",
        &SortCheckpoint::<i64> {
            runs: vec![RunMeta { id: 2, len: 8 }],
            scan_pos: 9,
            last_run_high: Some(-5),
        },
    );
    sink.add("merge", &merge);
    sink.add("merge", &no_merge);
    sink.add("merge_pass", &pass);
    sink.add("merge_pass", &no_pass);
    sink.add("bulk", &bulk);
    sink.add("bulk", &no_bulk);

    for progress in [
        BuildProgress::ScanningParallel {
            parts: vec![
                PartCheckpoint {
                    lo: 0,
                    hi: 9,
                    sort: sort.clone(),
                },
                PartCheckpoint {
                    lo: 10,
                    hi: 19,
                    sort: no_sort.clone(),
                },
            ],
        },
        BuildProgress::ScanningParallel { parts: vec![] },
        BuildProgress::Reducing { pass: pass.clone() },
        BuildProgress::Reducing { pass: no_pass },
        BuildProgress::Loading {
            merge: merge.clone(),
            bulk,
        },
        BuildProgress::Loading {
            merge: no_merge,
            bulk: no_bulk,
        },
        BuildProgress::Inserting {
            merge,
            inserted: 123,
        },
        BuildProgress::Draining { pos: 77 },
    ] {
        sink.add("progress", &progress);
    }

    sink.add("record", &Record::new(vec![]));
    sink.add("record", &Record::new(vec![7]));
    sink.add("record", &Record::new(vec![1, -2, i64::MAX]));

    sink.add("index_def", &def(9, "orders_by_customer", true, vec![1, 4]));
    sink.add("index_def", &def(1, "naïve", false, vec![0]));

    let algorithms = [
        BuildAlgorithm::Offline,
        BuildAlgorithm::Nsf,
        BuildAlgorithm::Sf,
    ];
    let states = [
        IndexState::NsfBuilding,
        IndexState::SfBuilding,
        IndexState::Complete,
    ];
    let mut entries = Vec::new();
    for (i, &algorithm) in algorithms.iter().enumerate() {
        for (j, &state) in states.iter().enumerate() {
            let n = (3 * i + j) as u32;
            entries.push(CatalogEntry {
                def: def(
                    n + 1,
                    &format!("ix{n}"),
                    n.is_multiple_of(2),
                    vec![j as u16, i as u16],
                ),
                algorithm,
                state,
                scan_end: PageId(if j == 1 { 40 + n } else { u32::MAX }),
                completed_lsn: Lsn(if j == 2 { 900 + u64::from(n) } else { 0 }),
                has_key_cursor: n == 4,
            });
        }
    }
    for entry in &entries {
        sink.add("catalog_entry", entry);
    }
    sink.add("catalog", &Catalog(vec![]));
    sink.add(
        "catalog",
        &Catalog(vec![entries[4].clone(), entries[2].clone()]),
    );

    for node in [
        Node::anchor(PageId(7), 3),
        internal(&[(entry(10, 1, 0), PageId(2)), (entry(20, 1, 0), PageId(3))]),
        leaf(
            &[(entry(1, 1, 1), false), (entry(2, 1, 2), true)],
            Some(PageId(9)),
            Some(entry(5, 0, 0)),
        ),
        leaf(&[(entry(3, 2, 0), false)], None, None),
        leaf(&[(entry(4, 2, 1), true)], None, Some(entry(8, 0, 0))),
        leaf(&[], Some(PageId(4)), None),
    ] {
        sink.add("node", &node);
    }

    let (table, index, rid) = (TableId(3), IndexId(9), Rid::new(7, 2));
    let payloads = vec![
        LogPayload::TxBegin,
        LogPayload::TxCommit,
        LogPayload::TxAbort,
        LogPayload::TxEnd,
        LogPayload::HeapInsert {
            table,
            rid,
            data: Record::new(vec![1, 2]).encode(),
            visible_indexes: 2,
        },
        LogPayload::HeapDelete {
            table,
            rid,
            old: vec![2; 5],
            visible_indexes: 0,
        },
        LogPayload::HeapUpdate {
            table,
            rid,
            old: vec![3; 8],
            new: vec![4; 13],
            visible_indexes: 1,
        },
        LogPayload::IndexInsert {
            index,
            entry: e.clone(),
        },
        LogPayload::IndexPseudoDelete {
            index,
            entry: e.clone(),
        },
        LogPayload::IndexInsertTombstone {
            index,
            entry: e.clone(),
        },
        LogPayload::IndexReactivate {
            index,
            entry: e.clone(),
        },
        LogPayload::IndexPhysicalDelete {
            index,
            entry: e.clone(),
            was_pseudo: true,
        },
        LogPayload::IndexBulkInsert {
            index,
            entries: (0..4).map(|k| entry(k, 1, k as u16)).collect(),
        },
        LogPayload::IndexBulkRemove {
            index,
            entries: vec![],
        },
        LogPayload::SideFileAppend {
            index,
            op: SideFileOp {
                insert: false,
                entry: e.clone(),
            },
        },
        LogPayload::Checkpoint {
            redo_start: Lsn(77),
        },
        LogPayload::CatalogUpdate { bytes: vec![9; 3] },
    ];
    let kinds = [
        RecKind::UndoRedo,
        RecKind::RedoOnly,
        RecKind::UndoOnly,
        RecKind::Clr { undo_next: Lsn(5) },
    ];
    for (i, payload) in payloads.into_iter().enumerate() {
        sink.add(
            "log",
            &LogRecord {
                lsn: Lsn(100 + i as u64),
                tx: TxId(i as u64 % 3),
                prev: Lsn(i as u64),
                kind: kinds[i % kinds.len()],
                payload,
            },
        );
    }

    sink.add("options", &BuildOptions::default());
    sink.add(
        "options",
        &BuildOptions {
            parallel_workers: 4,
            compress_runs: true,
            sort_side_file_drain: Some(false),
            checkpoint_every: 10_000,
        },
    );

    // Added with the cancelled state (tag 3), after every older line:
    // a cancelled entry keeps its place between two others.
    let cancelled = CatalogEntry {
        def: def(10, "ix_cancelled", false, vec![2]),
        algorithm: BuildAlgorithm::Nsf,
        state: IndexState::Cancelled,
        scan_end: PageId(12),
        completed_lsn: Lsn::NULL,
        has_key_cursor: false,
    };
    sink.add("catalog_entry", &cancelled);
    sink.add(
        "catalog",
        &Catalog(vec![entries[2].clone(), cancelled, entries[8].clone()]),
    );
}

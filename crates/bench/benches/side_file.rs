//! Criterion bench: side-file append vs direct tree maintenance — the
//! §4 claim that SF's transaction-side cost during the build is an
//! append, not a traversal — and the drain's read of a batch of
//! appends out of the log, which is where the side-file's entries are
//! kept: a log of appends alone, and one where they sit between the
//! foreground's heap records and the builder's own index records.

use criterion::{criterion_group, criterion_main, Criterion};
use mohan_btree::{BTree, BTreeConfig, InsertMode};
use mohan_common::{FileId, IndexEntry, IndexId, Lsn, Rid, TableId, TxId};
use mohan_oib::side_file::SideFile;
use mohan_wal::{LogManager, LogPayload, RecKind, SideFileOp};

const INDEX: IndexId = IndexId(1);

fn entry(k: i64) -> IndexEntry {
    IndexEntry::from_i64(k, Rid::new((k / 100) as u32, (k % 100) as u16))
}

/// Log the append of `k` as a transaction does: one redo-only
/// `SideFileAppend` record.
fn log_append(wal: &LogManager, k: i64) -> Lsn {
    let payload = LogPayload::SideFileAppend {
        index: INDEX,
        op: SideFileOp {
            insert: true,
            entry: entry(k),
        },
    };
    wal.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, payload)
}

fn bench_append_vs_tree(c: &mut Criterion) {
    let wal = LogManager::new();
    let sf = SideFile::new();
    let mut k = 0i64;
    c.bench_function("side_file_append", |b| {
        b.iter(|| {
            k += 1;
            sf.append_with(&wal, || Ok(log_append(&wal, k)))
                .expect("append")
        });
    });

    let tree = BTree::create(
        FileId(2),
        BTreeConfig {
            page_size: 2048,
            fill_factor: 0.9,
            unique: false,
            hint_enabled: false,
        },
    );
    // Pre-populate so traversals have realistic depth.
    for k in 0..50_000i64 {
        tree.insert(entry(k * 2), InsertMode::Ib).expect("insert");
    }
    let mut k = 0i64;
    c.bench_function("direct_tree_insert_in_50k", |b| {
        b.iter(|| {
            k += 1;
            tree.insert(entry(k * 2 + 1), InsertMode::Transaction)
                .expect("insert")
        });
    });
}

fn bench_drain_read(c: &mut Criterion) {
    let wal = LogManager::new();
    for k in 0..100_000i64 {
        log_append(&wal, k);
    }
    c.bench_function("side_file_read_batch_512", |b| {
        let mut pos = 0u64;
        b.iter(|| {
            let batch: Vec<_> = wal
                .side_file_appends(INDEX, Lsn(pos), Lsn(pos + 512))
                .collect();
            pos = (pos + batch.len() as u64) % 99_000;
            batch.len()
        });
    });
}

/// One record in four is an append: each sits with a heap insert of a
/// 64-byte row, another index's key insert and a commit.
fn bench_drain_read_mixed(c: &mut Criterion) {
    let wal = LogManager::new();
    for k in 0..25_000i64 {
        log_append(&wal, k);
        let rid = Rid::new((k / 100) as u32, (k % 100) as u16);
        let heap = LogPayload::HeapInsert {
            table: TableId(1),
            rid,
            data: vec![7; 64],
            visible_indexes: 1,
        };
        wal.append(TxId(2), Lsn::NULL, RecKind::UndoRedo, heap);
        let key = LogPayload::IndexInsert {
            index: IndexId(2),
            entry: entry(k),
        };
        wal.append(TxId(3), Lsn::NULL, RecKind::UndoRedo, key);
        wal.append(TxId(2), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxCommit);
    }
    c.bench_function("side_file_read_mixed_512", |b| {
        let mut pos = 0u64;
        b.iter(|| {
            let batch: Vec<_> = wal
                .side_file_appends(INDEX, Lsn(pos), Lsn(pos + 512))
                .collect();
            pos = (pos + 512) % 99_000;
            batch.len()
        });
    });
}

criterion_group!(
    benches,
    bench_append_vs_tree,
    bench_drain_read,
    bench_drain_read_mixed
);
criterion_main!(benches);
